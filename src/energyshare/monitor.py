"""Synchronized interval recording of both peers' battery state.

Every charging tick emits one record per role under an identical tick
index and timestamp; the timestamp is session start plus tick * interval,
so both sides of a session log against the same grid. Traces are aligned
by tick index after collection, and session metrics (provider loss,
consumer gain, energy loss) come straight from the first/last aligned
records.

Trace CSV is bit-exact: fixed header, ``\\n`` line endings, floats printed
with full round-trip precision.

Records are checked only where they come in from outside the process: by
:func:`records_from_csv_text` (run artifacts, edge dataset blocks) and by
the wire decoder (``MONITOR_SYNC``). Records built in-process, by
:func:`record_tick` and the consumer agent, come from ids already checked
and are not re-checked.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from .battery import BatteryState, level_pct_of
from .errors import EnergyShareError
from .protocol import SessionPhase, SessionState
from .util import check_id

ROLE_PROVIDER = "provider"
ROLE_CONSUMER = "consumer"

TRACE_HEADER = (
    "tick_index,wall_time_s,session_id,device_id,role,"
    "battery_level_pct,battery_charge_mah,cumulative_transferred_mah"
)

_RECORDABLE_PHASES = frozenset(
    {SessionPhase.CHARGING, SessionPhase.COMPLETED, SessionPhase.ABORTED}
)


class SessionNotActive(EnergyShareError):
    """Recording requested outside the charging lifetime of a session."""


class MisalignedTraces(EnergyShareError):
    """Provider/consumer traces disagree on which tick indices exist, or repeat one."""

    def __init__(self, tick_indices: list[int], what: str = "unpaired"):
        self.tick_indices = tick_indices
        super().__init__(f"{what} tick indices: {tick_indices}")


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
    return (
        MonitorRecord(
            tick_index, wall_time_s, session_id, provider_id, ROLE_PROVIDER,
            level_pct_of(provider_charge, provider_capacity), provider_charge, cumulative_out_mah,
        ),
        MonitorRecord(
            tick_index, wall_time_s, session_id, consumer_id, ROLE_CONSUMER,
            level_pct_of(consumer_charge, consumer_capacity), consumer_charge, cumulative_in_mah,
        ),
    )


def align_traces(
    provider_records: Sequence[MonitorRecord],
    consumer_records: Sequence[MonitorRecord],
) -> list[tuple[MonitorRecord, MonitorRecord]]:
    """Pair records with equal tick_index; report any unpaired or repeated tick."""
    by_tick_provider = {r.tick_index: r for r in provider_records}
    by_tick_consumer = {r.tick_index: r for r in consumer_records}
    missing = sorted(set(by_tick_provider) ^ set(by_tick_consumer))
    if missing:
        raise MisalignedTraces(missing)
    if len(provider_records) + len(consumer_records) > 2 * len(by_tick_provider):
        counts = Counter(r.tick_index for r in (*provider_records, *consumer_records))
        raise MisalignedTraces(sorted(t for t, n in counts.items() if n > 2), "repeated")
    return [
        (by_tick_provider[tick], by_tick_consumer[tick])
        for tick in sorted(by_tick_provider)
    ]


def compute_metrics(pairs: Sequence[tuple[MonitorRecord, MonitorRecord]]) -> SessionMetrics:
    """Metrics over an aligned series: endpoint deltas of both batteries."""
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


def trace_csv_text(pairs: Iterable[tuple[MonitorRecord, MonitorRecord]]) -> str:
    """Canonical CSV for a paired trace: provider row then consumer row per tick."""
    lines = [TRACE_HEADER]
    for provider_record, consumer_record in pairs:
        lines.append(format_record(provider_record))
        lines.append(format_record(consumer_record))
    return "\n".join(lines) + "\n"


def records_from_csv_text(text: str) -> list[MonitorRecord]:
    """Parse trace CSV, checking each row as it comes in from outside.

    Every row needs 8 fields and ``tick_index >= 0``; the ids and role are
    checked once per distinct (session_id, device_id, role) in the text.
    """
    lines = text.splitlines()
    if not lines or lines[0] != TRACE_HEADER:
        raise ValueError("trace CSV must start with the canonical header")
    records = []
    checked: set[tuple[str, str, str]] = set()
    for row in lines[1:]:
        if not row:
            continue
        parts = row.split(",")
        if len(parts) != 8:
            raise ValueError(f"expected 8 CSV fields, got {len(parts)}: {row!r}")
        tick, wall, session_id, device_id, role, level, charge, cumulative = parts
        tick_index = int(tick)
        if tick_index < 0:
            raise ValueError(f"tick_index must be >= 0, got {tick_index!r}")
        if (session_id, device_id, role) not in checked:
            if role not in (ROLE_PROVIDER, ROLE_CONSUMER):
                raise ValueError(f"role must be provider|consumer, got {role!r}")
            check_id(session_id, "session_id")
            check_id(device_id, "device_id")
            checked.add((session_id, device_id, role))
        records.append(MonitorRecord(
            tick_index, float(wall), session_id, device_id, role,
            float(level), float(charge), float(cumulative),
        ))
    return records


def pairs_from_records(
    records: Sequence[MonitorRecord],
) -> list[tuple[MonitorRecord, MonitorRecord]]:
    """Rebuild the aligned pair series from a flat record list."""
    providers = [r for r in records if r.role == ROLE_PROVIDER]
    consumers = [r for r in records if r.role == ROLE_CONSUMER]
    return align_traces(providers, consumers)
