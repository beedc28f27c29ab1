"""Synchronized interval recording of both peers' battery state.

Every charging tick emits one record per role under an identical tick
index and timestamp; the timestamp is session start plus tick * interval,
so both sides of a session log against the same grid. A trace is written
and read in one order, per tick the provider row then the consumer row,
ticks rising, so a reader pairs rows by position; session metrics
(provider loss, consumer gain, energy loss) come straight from the
first/last pairs.

Trace CSV is bit-exact: fixed header, ``\\n`` line endings, floats printed
with full round-trip precision.

Reading a trace text back is a codec only: the reader checks the header,
8 fields a row and their numbers, and pairing checks the row count.
Whether the rows are right (ticks, timestamps, ids, roles, ranges,
levels) is decided in one place, the edge's gate, which every path from a
trace text to a dataset runs in one decoder, a piece at a time: an UPLOAD,
a client GET and ``load_run`` alike. Records built in-process, by
:func:`record_tick` and the consumer agent, come from ids already checked
and are not re-checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice
from typing import Iterable, Iterator, NamedTuple, Sequence

from .battery import BatteryState, level_pct_of
from .errors import EnergyShareError
from .protocol import SessionPhase, SessionState

ROLE_PROVIDER = "provider"
ROLE_CONSUMER = "consumer"

TRACE_HEADER = (
    "tick_index,wall_time_s,session_id,device_id,role,"
    "battery_level_pct,battery_charge_mah,cumulative_transferred_mah"
)

# pairs of rows in each block of trace_csv_blocks, joined into one string
_PAIRS_PER_BLOCK = 1024

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


# --- trace CSV ----------------------------------------------------------------


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


def trace_csv_text(pairs: Sequence[tuple[MonitorRecord, MonitorRecord]]) -> str:
    """Canonical CSV for a paired trace: its :func:`trace_csv_blocks` joined."""
    return "".join(trace_csv_blocks(pairs))


def trace_csv_blocks(pairs: Sequence[tuple[MonitorRecord, MonitorRecord]]) -> Iterator[str]:
    """The header line, then :func:`trace_csv_rows` a block of pairs at a time: never every row."""
    yield TRACE_HEADER + "\n"
    for start in range(0, len(pairs), _PAIRS_PER_BLOCK):
        yield trace_csv_rows(pairs[start:start + _PAIRS_PER_BLOCK])


def records_from_csv_text(trace: str | Iterable[str]) -> list[MonitorRecord]:
    """Every record of a trace CSV, in one list (see :func:`record_blocks`)."""
    return list(chain.from_iterable(record_blocks(trace)))


def record_blocks(trace: str | Iterable[str]) -> Iterator[list[MonitorRecord]]:
    """Parse trace CSV: the canonical header, then rows of 8 fields with their numbers.

    ``trace`` is a trace's text, or its pieces as they arrive, each ending at
    a line end (a connection's lines, a file's blocks of lines); each piece
    is split with ``str.splitlines`` and its rows are yielded as one list,
    so the rows are the same either way.
    Rows share one object per distinct session id, device id and role, and
    a row whose tick or time text is the previous row's reuses its number.
    A row is read as it is written; the edge's one decoder checks its facts, a piece at a time.
    """
    pieces = map(str.splitlines, [trace] if isinstance(trace, str) else trace)
    first = next((rows for rows in pieces if rows), [None])  # the piece the header opens
    if first[0] != TRACE_HEADER:
        raise ValueError("trace CSV must start with the canonical header")
    new, share = tuple.__new__, {}.setdefault
    tick_text = wall_text = None
    for rows in chain([islice(first, 1, None)], pieces):
        records: list[MonitorRecord] = []
        append = records.append
        for row in rows:
            try:
                tick, wall, session_id, device_id, role, level, charge, cumulative = row.split(",")
                if tick != tick_text:
                    tick_text, tick_index = tick, int(tick)
                if wall != wall_text:
                    wall_text, wall_time_s = wall, float(wall)
                append(new(MonitorRecord, (
                    tick_index, wall_time_s, share(session_id, session_id),
                    share(device_id, device_id), share(role, role),
                    float(level), float(charge), float(cumulative),
                )))
            except ValueError as exc:  # not 8 fields, or a number that does not read
                raise ValueError(f"trace row {row!r}: {exc}") from None
        yield records


def pairs_from_records(
    records: Sequence[MonitorRecord], ticks: int = 0,
) -> tuple[tuple[MonitorRecord, MonitorRecord], ...]:
    """Pair rows 2k and 2k+1, as :func:`trace_csv_text` writes tick k's two rows.

    An odd row count is a ``ValueError`` naming the pair position of the row
    left over, counted from ``ticks``, the pairs of the trace before ``records``.
    """
    if len(records) % 2:
        raise ValueError(f"tick {ticks + len(records) // 2}: a row without its pair")
    return tuple(zip(records[::2], records[1::2]))
