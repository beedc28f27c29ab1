"""Energy-service session protocol.

Request construction, the provider/consumer message vocabulary with its
single-line wire encoding, and the session lifecycle state machine with
its completion rules. State transitions are pure functions over immutable
values; message replay is an error, not an idempotent no-op, so the
transport's at-most-once delivery contract stays observable.

Wire format (one message per line, fields in fixed order, see
docs/wire-format.md):

    MSGTYPE field=value field=value ...
"""

from __future__ import annotations

import math
import uuid
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .errors import EnergyShareError
from .util import check_id, fmt_float, parse_fields, parse_finite


class RequestKind(Enum):
    AMOUNT = "amount"
    DURATION = "duration"


class Reason(Enum):
    """Closed set of session terminal reasons, used verbatim in datasets."""

    AMOUNT_DELIVERED = "AmountDelivered"
    DURATION_ELAPSED = "DurationElapsed"
    PROVIDER_DEPLETED = "ProviderDepleted"
    CONSUMER_CANCELLED = "ConsumerCancelled"
    TRANSPORT_LOST = "TransportLost"


class InvalidRequestValue(EnergyShareError):
    """Requested amount/duration is not a positive finite number."""


class IllegalTransition(EnergyShareError):
    """An event arrived that the session state machine does not permit."""

    def __init__(self, state: "SessionPhase | str", event: object, detail: str = ""):
        suffix = f" ({detail})" if detail else ""
        super().__init__(f"illegal transition from {state} on {type(event).__name__}{suffix}")


@dataclass(frozen=True)
class EnergyRequest:
    """A consumer's demand: a fixed charge amount or a charging period."""

    request_id: str
    consumer_id: str
    kind: RequestKind
    amount_mah: float | None = None
    duration_s: float | None = None

    def __post_init__(self) -> None:
        check_id(self.request_id, "request_id")
        check_id(self.consumer_id, "consumer_id")
        if self.kind is RequestKind.AMOUNT:
            if self.amount_mah is None or self.duration_s is not None:
                raise ValueError("amount request must carry amount_mah only")
        else:
            if self.duration_s is None or self.amount_mah is not None:
                raise ValueError("duration request must carry duration_s only")

    @property
    def value(self) -> float:
        return self.amount_mah if self.kind is RequestKind.AMOUNT else self.duration_s


def make_request(
    kind: RequestKind | str,
    value: float,
    consumer_id: str,
    request_id: str | None = None,
) -> EnergyRequest:
    """Build a well-formed request with a fresh id unless one is supplied."""
    kind = RequestKind(kind) if isinstance(kind, str) else kind
    if not isinstance(value, (int, float)) or not math.isfinite(value) or value <= 0:
        raise InvalidRequestValue(f"request value must be a positive finite number, got {value!r}")
    if request_id is None:
        request_id = uuid.uuid4().hex[:12]
    if kind is RequestKind.AMOUNT:
        return EnergyRequest(request_id, consumer_id, kind, amount_mah=float(value))
    return EnergyRequest(request_id, consumer_id, kind, duration_s=float(value))


def session_id_for(request_id: str) -> str:
    """Deterministic session id a provider mints for an accepted request.

    Both peers can derive it, so a consumer can address the session even
    if the start announcement never arrived.
    """
    return f"ses-{request_id}"


# --- messages ---------------------------------------------------------------


@dataclass(frozen=True)
class Request:
    """Consumer asks a provider to serve a request.

    Carries the consumer's battery snapshot and baseline draw: the
    provider-side charging engine needs the physical facts a real device
    would read from its own hardware.
    """

    request: EnergyRequest
    consumer_position: tuple[float, float]
    consumer_capacity_mah: float
    consumer_charge_mah: float
    consumer_baseline_ma: float


@dataclass(frozen=True)
class Accept:
    request_id: str


@dataclass(frozen=True)
class Reject:
    request_id: str


@dataclass(frozen=True)
class StartTransfer:
    session_id: str
    request_id: str
    interval_s: float


@dataclass(frozen=True)
class MonitorSync:
    """Per-tick synchronization pulse from provider to consumer.

    ``wall_time_s`` is the shared timestamp both peers record under. The
    consumer battery fields mirror the engine's accounting so the consumer
    device can report the state its hardware would have shown.
    """

    session_id: str
    tick_index: int
    wall_time_s: float
    consumer_charge_mah: float
    consumer_cumulative_in_mah: float


@dataclass(frozen=True)
class Complete:
    session_id: str
    reason: Reason


@dataclass(frozen=True)
class Abort:
    session_id: str
    reason: Reason


ProtocolMessage = Request | Accept | Reject | StartTransfer | MonitorSync | Complete | Abort


class MessageDecodeError(EnergyShareError):
    """A wire line could not be decoded into a protocol message."""


def encode_message(msg: ProtocolMessage) -> str:
    """Single-line textual encoding with fields in fixed order."""
    if isinstance(msg, Request):
        r = msg.request
        return (
            f"REQUEST request_id={r.request_id} consumer_id={r.consumer_id}"
            f" kind={r.kind.value} value={fmt_float(r.value)}"
            f" x={fmt_float(msg.consumer_position[0])} y={fmt_float(msg.consumer_position[1])}"
            f" capacity_mah={fmt_float(msg.consumer_capacity_mah)}"
            f" charge_mah={fmt_float(msg.consumer_charge_mah)}"
            f" baseline_ma={fmt_float(msg.consumer_baseline_ma)}"
        )
    if isinstance(msg, Accept):
        return f"ACCEPT request_id={msg.request_id}"
    if isinstance(msg, Reject):
        return f"REJECT request_id={msg.request_id}"
    if isinstance(msg, StartTransfer):
        return (
            f"START_TRANSFER session_id={msg.session_id} request_id={msg.request_id}"
            f" interval_s={fmt_float(msg.interval_s)}"
        )
    if isinstance(msg, MonitorSync):
        return (
            f"MONITOR_SYNC session_id={msg.session_id} tick_index={msg.tick_index}"
            f" wall_time_s={fmt_float(msg.wall_time_s)}"
            f" consumer_charge_mah={fmt_float(msg.consumer_charge_mah)}"
            f" consumer_cumulative_in_mah={fmt_float(msg.consumer_cumulative_in_mah)}"
        )
    if isinstance(msg, Complete):
        return f"COMPLETE session_id={msg.session_id} reason={msg.reason.value}"
    if isinstance(msg, Abort):
        return f"ABORT session_id={msg.session_id} reason={msg.reason.value}"
    raise TypeError(f"not a protocol message: {msg!r}")


def decode_message(line: str) -> ProtocolMessage:
    """Inverse of :func:`encode_message`."""
    tokens = line.strip().split(" ")
    if not tokens or not tokens[0]:
        raise MessageDecodeError("empty message line")
    msg_type, raw_fields = tokens[0], tokens[1:]
    try:
        fields = parse_fields(raw_fields)
        if msg_type == "REQUEST":
            kind = RequestKind(fields["kind"])
            request = make_request(
                kind, float(fields["value"]), fields["consumer_id"],
                request_id=fields["request_id"],
            )
            capacity_mah = parse_finite(fields["capacity_mah"], "capacity_mah")
            if capacity_mah <= 0:
                raise ValueError(f"capacity_mah must be > 0, got {capacity_mah!r}")
            baseline_ma = parse_finite(fields["baseline_ma"], "baseline_ma")
            if baseline_ma < 0:
                raise ValueError(f"baseline_ma must be >= 0, got {baseline_ma!r}")
            return Request(
                request=request,
                consumer_position=(parse_finite(fields["x"], "x"), parse_finite(fields["y"], "y")),
                consumer_capacity_mah=capacity_mah,
                consumer_charge_mah=parse_finite(fields["charge_mah"], "charge_mah"),
                consumer_baseline_ma=baseline_ma,
            )
        if msg_type == "ACCEPT":
            return Accept(request_id=check_id(fields["request_id"]))
        if msg_type == "REJECT":
            return Reject(request_id=check_id(fields["request_id"]))
        if msg_type == "START_TRANSFER":
            interval_s = parse_finite(fields["interval_s"], "interval_s")
            if interval_s <= 0:
                raise ValueError(f"interval_s must be > 0, got {interval_s!r}")
            return StartTransfer(
                session_id=check_id(fields["session_id"]),
                request_id=check_id(fields["request_id"]),
                interval_s=interval_s,
            )
        if msg_type == "MONITOR_SYNC":
            tick_index = int(fields["tick_index"])
            if tick_index < 0:
                raise ValueError(f"tick_index must be >= 0, got {tick_index}")
            return MonitorSync(
                session_id=check_id(fields["session_id"]),
                tick_index=tick_index,
                wall_time_s=parse_finite(fields["wall_time_s"], "wall_time_s"),
                consumer_charge_mah=parse_finite(
                    fields["consumer_charge_mah"], "consumer_charge_mah"
                ),
                consumer_cumulative_in_mah=parse_finite(
                    fields["consumer_cumulative_in_mah"], "consumer_cumulative_in_mah"
                ),
            )
        if msg_type == "COMPLETE":
            return Complete(session_id=check_id(fields["session_id"]), reason=Reason(fields["reason"]))
        if msg_type == "ABORT":
            return Abort(session_id=check_id(fields["session_id"]), reason=Reason(fields["reason"]))
    except MessageDecodeError:
        raise
    except (KeyError, ValueError, InvalidRequestValue) as exc:
        raise MessageDecodeError(f"bad {msg_type} message: {exc}") from exc
    raise MessageDecodeError(f"unknown message type {msg_type!r}")


# --- session state machine ---------------------------------------------------


class SessionPhase(Enum):
    IDLE = "Idle"
    REQUESTED = "Requested"
    ACCEPTED = "Accepted"
    CHARGING = "Charging"
    COMPLETED = "Completed"
    ABORTED = "Aborted"
    REJECTED = "Rejected"


TERMINAL_PHASES = frozenset(
    {SessionPhase.COMPLETED, SessionPhase.ABORTED, SessionPhase.REJECTED}
)


class SessionState(NamedTuple):
    """One charging session's lifecycle state, owned by a single device."""

    session_id: str
    request: EnergyRequest
    provider_id: str
    state: SessionPhase = SessionPhase.IDLE
    terminal_reason: Reason | None = None


def new_session(session_id: str, request: EnergyRequest, provider_id: str) -> SessionState:
    check_id(session_id, "session_id")
    check_id(provider_id, "provider_id")
    return SessionState(session_id=session_id, request=request, provider_id=provider_id)


def _correlates(state: SessionState, event: ProtocolMessage) -> bool:
    if isinstance(event, Request):
        return event.request.request_id == state.request.request_id
    if isinstance(event, (Accept, Reject)):
        return event.request_id == state.request.request_id
    return event.session_id == state.session_id


# Legal edges of the lifecycle graph. Abort is accepted from both Accepted
# and Charging (a session that never started ticking can still be torn
# down); terminal phases have no successors, so replays raise.
_EDGES: dict[tuple[SessionPhase, type], SessionPhase] = {
    (SessionPhase.IDLE, Request): SessionPhase.REQUESTED,
    (SessionPhase.REQUESTED, Accept): SessionPhase.ACCEPTED,
    (SessionPhase.REQUESTED, Reject): SessionPhase.REJECTED,
    (SessionPhase.ACCEPTED, StartTransfer): SessionPhase.CHARGING,
    (SessionPhase.ACCEPTED, Abort): SessionPhase.ABORTED,
    (SessionPhase.CHARGING, Complete): SessionPhase.COMPLETED,
    (SessionPhase.CHARGING, Abort): SessionPhase.ABORTED,
}


def transition(state: SessionState, event: ProtocolMessage) -> SessionState:
    """Apply one protocol event; raises IllegalTransition off the graph."""
    if not _correlates(state, event):
        raise IllegalTransition(state.state, event, "event does not correlate to this session")
    successor = _EDGES.get((state.state, type(event)))
    if successor is None:
        raise IllegalTransition(state.state, event)
    reason = getattr(event, "reason", state.terminal_reason)
    return state._replace(state=successor, terminal_reason=reason)


def is_complete(request: EnergyRequest, delivered_mah: float, elapsed_s: float) -> Reason | None:
    """Completion decision for a charging session that has delivered
    ``delivered_mah`` over ``elapsed_s``: a reason, or None to continue."""
    if request.kind is RequestKind.AMOUNT and delivered_mah >= request.amount_mah:
        return Reason.AMOUNT_DELIVERED
    if request.kind is RequestKind.DURATION and elapsed_s >= request.duration_s:
        return Reason.DURATION_ELAPSED
    return None


def abort_session(state: SessionState, reason: Reason) -> SessionState:
    """Abort an Accepted or Charging session, retaining partial progress."""
    if state.state not in (SessionPhase.CHARGING, SessionPhase.ACCEPTED):
        raise IllegalTransition(state.state, reason, "abort is only legal before a terminal state")
    return state._replace(state=SessionPhase.ABORTED, terminal_reason=reason)


class ProviderSessions:
    """One-to-one guard: a provider may run at most one charging session."""

    def __init__(self) -> None:
        self._charging: str | None = None

    @property
    def busy(self) -> bool:
        return self._charging is not None

    def begin_charging(self, session_id: str) -> None:
        if self._charging is not None and self._charging != session_id:
            raise IllegalTransition(
                SessionPhase.CHARGING,
                session_id,
                f"provider already charging session {self._charging}",
            )
        self._charging = session_id

    def end(self, session_id: str) -> None:
        if self._charging == session_id:
            self._charging = None
