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
import re
import uuid
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .errors import EnergyShareError
from .util import ID_PATTERN, NON_NEGATIVE, POSITIVE, check_id, parse_finite


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


class MonitorSync(NamedTuple):
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


# Each type's line, fields in the order docs/wire-format.md lists. A float
# prints as ``repr(float(x))`` (util.fmt_float), so an int prints as 3.0.
_ENCODERS = {
    Request: lambda m: (
        f"REQUEST request_id={m.request.request_id} consumer_id={m.request.consumer_id}"
        f" kind={m.request.kind.value} value={float(m.request.value)!r}"
        f" x={float(m.consumer_position[0])!r} y={float(m.consumer_position[1])!r}"
        f" capacity_mah={float(m.consumer_capacity_mah)!r}"
        f" charge_mah={float(m.consumer_charge_mah)!r} baseline_ma={float(m.consumer_baseline_ma)!r}"
    ),
    Accept: lambda m: f"ACCEPT request_id={m.request_id}",
    Reject: lambda m: f"REJECT request_id={m.request_id}",
    StartTransfer: lambda m: (
        f"START_TRANSFER session_id={m.session_id} request_id={m.request_id}"
        f" interval_s={float(m.interval_s)!r}"
    ),
    MonitorSync: lambda m: (
        f"MONITOR_SYNC session_id={m.session_id} tick_index={m.tick_index}"
        f" wall_time_s={float(m.wall_time_s)!r} consumer_charge_mah={float(m.consumer_charge_mah)!r}"
        f" consumer_cumulative_in_mah={float(m.consumer_cumulative_in_mah)!r}"
    ),
    Complete: lambda m: f"COMPLETE session_id={m.session_id} reason={m.reason.value}",
    Abort: lambda m: f"ABORT session_id={m.session_id} reason={m.reason.value}",
}


def encode_message(msg: ProtocolMessage) -> str:
    """Single-line textual encoding with fields in fixed order."""
    encode = _ENCODERS.get(type(msg))
    if encode is None:
        raise TypeError(f"not a protocol message: {msg!r}")
    return encode(msg)


def _line(**fields: str) -> re.Pattern:
    """One type's fields, ``name=value`` in this order, each value a group named after it."""
    return re.compile(" ".join(f"{name}=(?P<{name}>{value})" for name, value in fields.items()))


# repr(float)'s grammar, read by float() and range-checked by the builder; the
# form without an exponent, the one the wire carries, is tried first
_NUMBER = r"-?[0-9]+\.[0-9]+|-?[0-9]+(?:\.[0-9]+)?e[+-][0-9]+"
_KINDS = "|".join(kind.value for kind in RequestKind)
_REASONS = "|".join(reason.value for reason in Reason)


def _request(request_id, consumer_id, kind, value, x, y, capacity_mah, charge_mah, baseline_ma):
    return Request(
        make_request(RequestKind(kind), float(value), consumer_id, request_id=request_id),
        (parse_finite(x, "x"), parse_finite(y, "y")),
        POSITIVE(parse_finite(capacity_mah, "capacity_mah")),
        parse_finite(charge_mah, "charge_mah"),
        NON_NEGATIVE(parse_finite(baseline_ma, "baseline_ma")),
    )


def _start_transfer(session_id, request_id, interval_s):
    return StartTransfer(session_id, request_id, POSITIVE(parse_finite(interval_s, "interval_s")))


def _monitor_sync(session_id, tick_index, wall_time_s, charge_mah, cumulative_in_mah):
    return MonitorSync(
        session_id, int(tick_index), parse_finite(wall_time_s, "wall_time_s"),
        parse_finite(charge_mah, "consumer_charge_mah"),
        parse_finite(cumulative_in_mah, "consumer_cumulative_in_mah"),
    )


# message type -> (the rest of its line, fullmatched; the builder of its groups)
_DECODERS = {
    "REQUEST": (_line(
        request_id=ID_PATTERN, consumer_id=ID_PATTERN, kind=_KINDS, value=_NUMBER,
        x=_NUMBER, y=_NUMBER, capacity_mah=_NUMBER, charge_mah=_NUMBER, baseline_ma=_NUMBER,
    ), _request),
    "ACCEPT": (_line(request_id=ID_PATTERN), Accept),
    "REJECT": (_line(request_id=ID_PATTERN), Reject),
    "START_TRANSFER": (
        _line(session_id=ID_PATTERN, request_id=ID_PATTERN, interval_s=_NUMBER), _start_transfer
    ),
    "MONITOR_SYNC": (_line(
        session_id=ID_PATTERN, tick_index="[0-9]+", wall_time_s=_NUMBER,
        consumer_charge_mah=_NUMBER, consumer_cumulative_in_mah=_NUMBER,
    ), _monitor_sync),
    "COMPLETE": (_line(session_id=ID_PATTERN, reason=_REASONS), lambda s, r: Complete(s, Reason(r))),
    "ABORT": (_line(session_id=ID_PATTERN, reason=_REASONS), lambda s, r: Abort(s, Reason(r))),
}


def decode_message(line: str) -> ProtocolMessage:
    """Inverse of :func:`encode_message`: a line with exactly its type's fields, in order."""
    msg_type, _, rest = line.strip().partition(" ")
    entry = _DECODERS.get(msg_type)
    if entry is None:
        raise MessageDecodeError(f"unknown message type {msg_type!r}")
    pattern, build = entry
    match = pattern.fullmatch(rest)
    if match is None:
        fields = " ".join(pattern.groupindex)
        raise MessageDecodeError(f"bad {msg_type} message: fields must be exactly {fields}")
    try:
        return build(*match.groups())
    except (ValueError, InvalidRequestValue) as exc:
        raise MessageDecodeError(f"bad {msg_type} message: {exc}") from exc


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
