"""Synchronized interval recording of both peers' battery state.

Every charging tick emits one record per role under an identical tick
index and timestamp; the timestamp is session start plus tick * interval,
so both sides of a session log against the same grid. A trace is written
and read in one order, per tick the provider row then the consumer row,
ticks rising, so a reader pairs rows by position; session metrics
(provider loss, consumer gain, energy loss) come straight from the
first/last pairs.

In memory a dataset holds of its trace only what was measured
(:class:`TraceColumns`): tick 0's time and, per tick, both charges and
both cumulative values, four ``array('d')`` columns, 32 bytes a tick. Every
other field of a row follows from its position and the dataset's meta
block: the tick, the time, the ids, the role and the level. The
dataset's record pairs are a read-only view (:class:`RecordPairs`) that
builds each pair on access, and the trace CSV is written from the columns.

Trace CSV is bit-exact: fixed header, ``\\n`` line endings, floats printed
with full round-trip precision.

Reading a trace text back is a codec only: the reader checks the header,
8 fields a row and their numbers. Pairing the rows and whether they are
right (ticks, timestamps, ids, roles, ranges, levels) is decided by the
edge's gate, which every path from a trace text to a dataset runs, a piece
at a time, appending each checked pair's numbers to the columns (a client
GET and ``load_run`` alike); for an UPLOAD, stored as it arrived, it also
requires the text this module writes. A run's engine appends its numbers to
the columns as it ticks; they come from batteries already checked and are
not re-checked.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, NamedTuple

from .battery import BatteryState, level_pct_of
from .errors import EnergyShareError
from .protocol import SessionPhase, SessionState

ROLE_PROVIDER = "provider"
ROLE_CONSUMER = "consumer"

TRACE_HEADER = (
    "tick_index,wall_time_s,session_id,device_id,role,"
    "battery_level_pct,battery_charge_mah,cumulative_transferred_mah"
)

# the refusal of a trace text whose first line is not TRACE_HEADER
NO_HEADER = "trace CSV must start with the canonical header"

# pairs of rows in each block of trace_csv_blocks, joined into one string: small (about 26 KB)
# so that an upload's edge decodes one block while its client encodes the next, and still a
# large write for a run directory's trace.csv
_PAIRS_PER_BLOCK = 128

# a tuple, Charging first: a test of the phase every tick records in hashes nothing
_RECORDABLE_PHASES = (SessionPhase.CHARGING, SessionPhase.COMPLETED, SessionPhase.ABORTED)


class SessionNotActive(EnergyShareError):
    """Recording requested outside the charging lifetime of a session."""


class EmptyTrace(EnergyShareError):
    """Metrics were requested over an empty record series."""


class MonitorRecord(NamedTuple):
    """One timestamped battery sample of one device in one session."""

    tick_index: int
    wall_time_s: float
    session_id: str
    device_id: str
    role: str
    battery_level_pct: float
    battery_charge_mah: float
    cumulative_transferred_mah: float


@dataclass(frozen=True)
class SessionMetrics:
    """Whole-session energy accounting derived from the trace endpoints."""

    provider_loss_mah: float
    consumer_gain_mah: float
    energy_loss_mah: float
    duration_s: float


def record_tick(
    session: SessionState,
    tick_index: int,
    wall_time_s: float,
    *,
    provider_id: str,
    provider_battery: BatteryState,
    consumer_id: str,
    consumer_battery: BatteryState,
    cumulative_out_mah: float,
    cumulative_in_mah: float,
) -> tuple[MonitorRecord, MonitorRecord]:
    """Emit the synchronized provider/consumer record pair for one tick."""
    if session.state not in _RECORDABLE_PHASES:
        raise SessionNotActive(f"cannot record in state {session.state.value}")
    session_id = session.session_id
    provider_capacity, provider_charge = provider_battery
    consumer_capacity, consumer_charge = consumer_battery
    new = tuple.__new__
    return (
        new(MonitorRecord, (
            tick_index, wall_time_s, session_id, provider_id, ROLE_PROVIDER,
            level_pct_of(provider_charge, provider_capacity), provider_charge, cumulative_out_mah,
        )),
        new(MonitorRecord, (
            tick_index, wall_time_s, session_id, consumer_id, ROLE_CONSUMER,
            level_pct_of(consumer_charge, consumer_capacity), consumer_charge, cumulative_in_mah,
        )),
    )


def compute_metrics(pairs: Sequence[tuple[MonitorRecord, MonitorRecord]]) -> SessionMetrics:
    """Metrics over a paired series: endpoint deltas of both batteries."""
    if not pairs:
        raise EmptyTrace("metrics need at least one record pair")
    first_provider, first_consumer = pairs[0]
    last_provider, last_consumer = pairs[-1]
    provider_loss = first_provider.battery_charge_mah - last_provider.battery_charge_mah
    consumer_gain = last_consumer.battery_charge_mah - first_consumer.battery_charge_mah
    return SessionMetrics(
        provider_loss_mah=provider_loss,
        consumer_gain_mah=consumer_gain,
        energy_loss_mah=provider_loss - consumer_gain,
        duration_s=last_provider.wall_time_s - first_provider.wall_time_s,
    )


# --- the column form and the trace CSV ----------------------------------------------


class TraceColumns(NamedTuple):
    """A trace's measured numbers: tick 0's time, then one ``array('d')`` per number, a
    value per tick."""

    start_s: float
    provider_charge: array
    consumer_charge: array
    cumulative_out: array  # the provider's cumulative_transferred_mah
    cumulative_in: array  # the consumer's


def new_columns(start_s: float = 0.0) -> TraceColumns:
    """Empty columns of a trace whose tick 0 is at ``start_s``."""
    return TraceColumns(start_s, array("d"), array("d"), array("d"), array("d"))


class RecordPairs(Sequence):
    """A dataset's record pairs, read-only, built on access from its :class:`TraceColumns`
    (``dataset.trace``) and the facts of its meta block: tick ``k``'s time is
    ``start_s + k * interval_s`` (``start_s`` itself at tick 0), a level is
    :func:`~energyshare.battery.level_pct_of` its charge.

    It reads as a tuple of pairs does: ``len``, an index (negative too), a slice (a tuple of
    pairs), iteration, and ``==`` with a tuple of pairs or another view."""

    __slots__ = ("dataset",)

    def __init__(self, dataset):
        self.dataset = dataset

    def __len__(self) -> int:
        return len(self.dataset.trace.provider_charge)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return tuple(map(self._pair, range(*key.indices(len(self)))))
        if not -len(self) <= key < len(self):
            raise IndexError("record pair index out of range")
        return self._pair(key % len(self))

    def __iter__(self) -> Iterator[tuple[MonitorRecord, MonitorRecord]]:
        return map(self._pair, range(len(self)))

    def __eq__(self, other) -> bool:
        if isinstance(other, (tuple, RecordPairs)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def _pair(self, k: int) -> tuple[MonitorRecord, MonitorRecord]:
        dataset = self.dataset
        trace, session_id, new = dataset.trace, dataset.session_id, tuple.__new__
        wall = trace.start_s + k * dataset.interval_s if k else trace.start_s
        p_charge, c_charge = trace.provider_charge[k], trace.consumer_charge[k]
        return (
            new(MonitorRecord, (k, wall, session_id, dataset.provider_id, ROLE_PROVIDER,
                                level_pct_of(p_charge, dataset.provider_capacity_mah), p_charge,
                                trace.cumulative_out[k])),
            new(MonitorRecord, (k, wall, session_id, dataset.request.consumer_id, ROLE_CONSUMER,
                                level_pct_of(c_charge, dataset.consumer_capacity_mah), c_charge,
                                trace.cumulative_in[k])),
        )

    def csv_rows(self, begin: int, end: int) -> str:
        """The CSV rows of pairs ``begin`` to ``end``, line-ended, written from the columns as
        :func:`trace_csv_rows` writes the pairs: each pair's time and tick once, a level as
        :func:`~energyshare.battery.level_pct_of` computes it, inlined."""
        dataset = self.dataset
        start, *columns = dataset.trace
        interval_s = dataset.interval_s
        p_cap, c_cap = dataset.provider_capacity_mah, dataset.consumer_capacity_mah
        p_mid = f",{dataset.session_id},{dataset.provider_id},{ROLE_PROVIDER},"
        c_mid = f",{dataset.session_id},{dataset.request.consumer_id},{ROLE_CONSUMER},"
        rows = []
        for k, p_charge, c_charge, out, cumulative_in in zip(
                range(begin, end), *(column[begin:end] for column in columns)):
            wall = repr(start + k * interval_s if k else start)
            p_level, c_level = 100.0 * p_charge / p_cap, 100.0 * c_charge / c_cap
            rows.append(
                f"{k},{wall}{p_mid}{p_level if p_level <= 100.0 else 100.0!r},{p_charge!r},{out!r}\n"
                f"{k},{wall}{c_mid}{c_level if c_level <= 100.0 else 100.0!r},{c_charge!r},{cumulative_in!r}\n"
            )
        return "".join(rows)


def format_record(record: MonitorRecord) -> str:
    """One CSV row; a float prints as ``repr(float(x))`` (util.fmt_float)."""
    tick, wall, session_id, device_id, role, level, charge, cumulative = record
    return (
        f"{tick},{float(wall)!r},{session_id},{device_id},{role},"
        f"{float(level)!r},{float(charge)!r},{float(cumulative)!r}"
    )


def trace_csv_rows(pairs: Iterable[tuple[MonitorRecord, MonitorRecord]]) -> str:
    """The CSV rows of paired records, provider row then consumer row per tick, each line-ended."""
    return "\n".join([*map(format_record, chain.from_iterable(pairs)), ""])


def trace_csv_text(pairs: RecordPairs) -> str:
    """Canonical CSV for a dataset's trace: its :func:`trace_csv_blocks` joined."""
    return "".join(trace_csv_blocks(pairs))


def trace_csv_blocks(pairs: RecordPairs) -> Iterator[str]:
    """The header line, then the rows a block of pairs at a time, written from the columns:
    never every row."""
    yield TRACE_HEADER + "\n"
    for begin in range(0, len(pairs), _PAIRS_PER_BLOCK):
        yield pairs.csv_rows(begin, begin + _PAIRS_PER_BLOCK)


def records_from_csv_text(trace: str | Iterable[str]) -> list[MonitorRecord]:
    """Every record of a trace CSV text or its pieces, in one list: the canonical header, then
    rows of 8 fields with their numbers, each piece split with ``str.splitlines`` (so a piece
    ends at a line end). A row that does not read is a ``ValueError`` naming it; whether the
    rows are right is the edge's gate's to decide."""
    rows = chain.from_iterable(piece.splitlines() for piece in ([trace] if isinstance(trace, str) else trace))
    if next(rows, None) != TRACE_HEADER:
        raise ValueError(NO_HEADER)
    records = []
    for row in rows:
        try:
            tick, wall, session_id, device_id, role, level, charge, cumulative = row.split(",")
            records.append(MonitorRecord(int(tick), float(wall), session_id, device_id, role,
                                         float(level), float(charge), float(cumulative)))
        except ValueError as exc:  # not 8 fields, or a number that does not read
            raise ValueError(f"trace row {row!r}: {exc}") from None
    return records

