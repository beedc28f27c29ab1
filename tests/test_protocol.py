"""Session protocol: requests, wire codec, lifecycle machine, one-to-one guard."""

import random
import re
import string
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from energyshare.protocol import (
    Abort,
    Accept,
    Complete,
    IllegalTransition,
    InvalidRequestValue,
    MessageDecodeError,
    MonitorSync,
    ProviderSessions,
    Reason,
    Reject,
    Request,
    RequestKind,
    SessionPhase,
    StartTransfer,
    TERMINAL_PHASES,
    abort_session,
    decode_message,
    encode_message,
    is_complete,
    make_request,
    new_session,
    session_id_for,
    transition,
)
from energyshare.protocol import _DECODERS


# --- make_request -----------------------------------------------------------


def test_amount_request():
    request = make_request(RequestKind.AMOUNT, 1000.0, "c1")
    assert request.kind is RequestKind.AMOUNT
    assert request.amount_mah == 1000.0
    assert request.duration_s is None


def test_duration_request_ten_minutes():
    request = make_request("duration", 600.0, "c1")
    assert request.duration_s == 600.0
    assert request.amount_mah is None


@pytest.mark.parametrize("value", [0.0, -5.0, float("nan"), float("inf")])
def test_invalid_request_values(value):
    with pytest.raises(InvalidRequestValue):
        make_request(RequestKind.AMOUNT, value, "c1")


def test_fresh_request_ids_are_unique():
    ids = {make_request(RequestKind.AMOUNT, 1.0, "c1").request_id for _ in range(50)}
    assert len(ids) == 50


# --- wire codec ---------------------------------------------------------------


def sample_messages():
    request = make_request(RequestKind.AMOUNT, 1000.0, "c1", request_id="req-1")
    duration = make_request(RequestKind.DURATION, 600.0, "c1", request_id="req-2")
    return [
        Request(request, (0.5, -1.25), 2915.0, 1166.0, 40.0),
        Request(duration, (0.0, 0.0), 2915.0, 291.5, 0.0),
        Accept("req-1"),
        Reject("req-1"),
        StartTransfer("ses-req-1", "req-1", 1.0),
        MonitorSync("ses-req-1", 17, 17.05, 1170.25, 4.25),
        Complete("ses-req-1", Reason.AMOUNT_DELIVERED),
        Abort("ses-req-1", Reason.TRANSPORT_LOST),
    ]


@pytest.mark.parametrize("msg", sample_messages(), ids=lambda m: type(m).__name__)
def test_wire_round_trip(msg):
    line = encode_message(msg)
    assert "\n" not in line
    assert decode_message(line) == msg


WIRE_LINES = [
    (
        Request(make_request(RequestKind.AMOUNT, 1000, "c1", request_id="req-1"),
                (0, -1.25), 2915, 1166, 40),
        "REQUEST request_id=req-1 consumer_id=c1 kind=amount value=1000.0 x=0.0 y=-1.25"
        " capacity_mah=2915.0 charge_mah=1166.0 baseline_ma=40.0",
    ),
    (
        Request(make_request(RequestKind.DURATION, 600.0, "c1", request_id="req-2"),
                (0.1, 2.0), 2915.0, 291.5, 0.0),
        "REQUEST request_id=req-2 consumer_id=c1 kind=duration value=600.0 x=0.1 y=2.0"
        " capacity_mah=2915.0 charge_mah=291.5 baseline_ma=0.0",
    ),
    (Accept("req-1"), "ACCEPT request_id=req-1"),
    (Reject("req-1"), "REJECT request_id=req-1"),
    (StartTransfer("ses-req-1", "req-1", 1), "START_TRANSFER session_id=ses-req-1 request_id=req-1 interval_s=1.0"),
    (
        MonitorSync("s", 3, 3.5, 10.25, 0.75),
        "MONITOR_SYNC session_id=s tick_index=3 wall_time_s=3.5"
        " consumer_charge_mah=10.25 consumer_cumulative_in_mah=0.75",
    ),
    (
        MonitorSync("s", 3, 3, 10, 0),
        "MONITOR_SYNC session_id=s tick_index=3 wall_time_s=3.0"
        " consumer_charge_mah=10.0 consumer_cumulative_in_mah=0.0",
    ),
    (Complete("ses-req-1", Reason.AMOUNT_DELIVERED), "COMPLETE session_id=ses-req-1 reason=AmountDelivered"),
    (Abort("ses-req-1", Reason.TRANSPORT_LOST), "ABORT session_id=ses-req-1 reason=TransportLost"),
]


@pytest.mark.parametrize("msg, line", WIRE_LINES, ids=lambda v: type(v).__name__)
def test_wire_field_order_is_fixed(msg, line):
    """The bytes of every message type; an int in a float field prints as a float."""
    assert encode_message(msg) == line
    assert encode_message(decode_message(line)) == line


def test_encode_refuses_a_value_that_is_not_a_message():
    with pytest.raises(TypeError):
        encode_message(("s", 3, 3.0, 10.0, 0.0))


ids = st.text(string.ascii_letters + string.digits + "_.:-", min_size=1, max_size=12).filter(
    lambda text: text.strip(".")
)
finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
non_negative = st.floats(min_value=0.0, allow_infinity=False)
messages = st.one_of(
    st.builds(
        lambda kind, value, consumer_id, request_id, x, y, capacity, charge, baseline: Request(
            make_request(kind, value, consumer_id, request_id=request_id),
            (x, y), capacity, charge, baseline,
        ),
        st.sampled_from(RequestKind), positive, ids, ids, finite, finite, positive, finite, non_negative,
    ),
    st.builds(Accept, ids),
    st.builds(Reject, ids),
    st.builds(StartTransfer, ids, ids, positive),
    st.builds(MonitorSync, ids, st.integers(min_value=0, max_value=10**12), finite, finite, finite),
    st.builds(Complete, ids, st.sampled_from(Reason)),
    st.builds(Abort, ids, st.sampled_from(Reason)),
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(messages)
def test_every_encoded_message_decodes_to_itself(msg):
    line = encode_message(msg)
    assert decode_message(line) == msg
    assert encode_message(decode_message(line)) == line


@pytest.mark.parametrize(
    "line",
    [
        "",
        "NOPE request_id=x",
        "ACCEPT",
        "ACCEPT request_id",
        "COMPLETE session_id=s reason=NotAReason",
        # the fields are fixed: reordered, repeated, extra, missing or empty ones are refused
        "COMPLETE reason=DurationElapsed session_id=s",
        "START_TRANSFER request_id=r1 session_id=s interval_s=1.0",
        "ACCEPT request_id=r1 request_id=r1",
        "ACCEPT request_id=r1 extra=1",
        "ACCEPT request_id=r1 request_id",
        "START_TRANSFER session_id=s interval_s=1.0",
        "MONITOR_SYNC session_id=s tick_index=1 wall_time_s=1.0 consumer_charge_mah=1.0",
        "ACCEPT request_id=",
        "MONITOR_SYNC session_id=s tick_index=1 wall_time_s= consumer_charge_mah=1.0"
        " consumer_cumulative_in_mah=0.0",
        "ACCEPT  request_id=r1",
        "ACCEPT request_id=..",
        "ACCEPT request_id=r,1",
        *(
            f"MONITOR_SYNC session_id=s tick_index={tick} wall_time_s=1.0"
            " consumer_charge_mah=1.0 consumer_cumulative_in_mah=0.0"
            for tick in ("+5", "-0", "5_0", "1.0", "", "\u0663")
        ),
        "MONITOR_SYNC session_id=s tick_index=x wall_time_s=1.0"
        " consumer_charge_mah=1.0 consumer_cumulative_in_mah=0.0",
        "MONITOR_SYNC session_id=s tick_index=-1 wall_time_s=1.0"
        " consumer_charge_mah=1.0 consumer_cumulative_in_mah=0.0",
        *(
            "REQUEST request_id=r1 consumer_id=c1 kind=amount value=10.0 x=0.0 y=0.0"
            f" capacity_mah={capacity} charge_mah={charge} baseline_ma={baseline}"
            for capacity, charge, baseline in [
                ("0.0", "1.0", "40.0"),
                ("-10.0", "1.0", "40.0"),
                ("nan", "1.0", "40.0"),
                ("inf", "1.0", "40.0"),
                ("2915.0", "nan", "40.0"),
                ("2915.0", "-inf", "40.0"),
                ("2915.0", "1.0", "nan"),
                ("2915.0", "1.0", "inf"),
                ("2915.0", "1.0", "-1.0"),
            ]
        ),
        *(
            "MONITOR_SYNC session_id=s tick_index=1 wall_time_s=1.0"
            f" consumer_charge_mah={charge} consumer_cumulative_in_mah={cumulative}"
            for charge, cumulative in [("nan", "0.0"), ("inf", "0.0"), ("1.0", "nan"), ("1.0", "-inf")]
        ),
        *(
            "MONITOR_SYNC session_id=s tick_index=1"
            f" wall_time_s={wall} consumer_charge_mah=1.0 consumer_cumulative_in_mah=0.0"
            for wall in ("nan", "inf", "-inf")
        ),
        *(
            "REQUEST request_id=r1 consumer_id=c1 kind=amount value=10.0"
            f" x={x} y={y} capacity_mah=2915.0 charge_mah=1.0 baseline_ma=40.0"
            for x, y in [("nan", "0.0"), ("inf", "0.0"), ("0.0", "nan"), ("0.0", "-inf")]
        ),
        *(
            f"START_TRANSFER session_id=s request_id=r1 interval_s={interval}"
            for interval in ("nan", "inf", "-inf", "0.0", "-1.0")
        ),
        # float() reads these, but repr(float) never writes them
        "MONITOR_SYNC session_id=s tick_index=1 wall_time_s=1_0"
        " consumer_charge_mah=1.0 consumer_cumulative_in_mah=0.0",
        "MONITOR_SYNC session_id=s tick_index=1 wall_time_s=1.0"
        " consumer_charge_mah=+1.5 consumer_cumulative_in_mah=0.0",
        "MONITOR_SYNC session_id=s tick_index=1 wall_time_s=1.0"
        " consumer_charge_mah=1.0 consumer_cumulative_in_mah=\u0663",
        "START_TRANSFER session_id=s request_id=r1 interval_s=1e0",
        # repr(float)'s form but past float's range: float() reads an infinity, the builder refuses it
        *(
            line.replace(f" {field}=1.0", f" {field}=1e+999")
            for line in (
                "MONITOR_SYNC session_id=s tick_index=1 wall_time_s=1.0 consumer_charge_mah=1.0"
                " consumer_cumulative_in_mah=1.0",
                "REQUEST request_id=r1 consumer_id=c1 kind=amount value=1.0 x=1.0 y=1.0"
                " capacity_mah=1.0 charge_mah=1.0 baseline_ma=1.0",
                "START_TRANSFER session_id=s request_id=r1 interval_s=1.0",
            )
            for field in re.findall(r"(\w+)=1\.0", line)
        ),
    ],
)
def test_decode_rejects_malformed_lines(line):
    with pytest.raises(MessageDecodeError):
        decode_message(line)


WIRE_DOC = Path(__file__).resolve().parents[1] / "docs" / "wire-format.md"


def test_docs_protocol_table_lists_the_codecs_fields_in_order():
    table = WIRE_DOC.read_text(encoding="utf-8").split("## Protocol messages", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([A-Z_]+)((?: \w+=<[^>]*>)*)` \|", table, flags=re.MULTILINE)
    documented = [(msg_type, re.findall(r"(\w+)=<", fields)) for msg_type, fields in rows]
    assert documented == [(msg_type, list(pattern.groupindex)) for msg_type, (pattern, _) in _DECODERS.items()]


def test_round_trip_preserves_float_precision():
    sync = MonitorSync("s", 1, 0.1 + 0.2, 1166.0000000001, 1e-12)
    assert decode_message(encode_message(sync)) == sync


# --- state machine ---------------------------------------------------------------


def make_chain(request_id="r1"):
    request = make_request(RequestKind.DURATION, 1800.0, "c1", request_id=request_id)
    session = new_session(session_id_for(request_id), request, "p1")
    msgs = {
        "request": Request(request, (0.0, 0.0), 2915.0, 1166.0, 40.0),
        "accept": Accept(request_id),
        "reject": Reject(request_id),
        "start": StartTransfer(session_id_for(request_id), request_id, 1.0),
        "complete": Complete(session_id_for(request_id), Reason.DURATION_ELAPSED),
        "abort": Abort(session_id_for(request_id), Reason.TRANSPORT_LOST),
    }
    return session, msgs


def test_happy_path_transitions():
    session, msgs = make_chain()
    session = transition(session, msgs["request"])
    assert session.state is SessionPhase.REQUESTED
    session = transition(session, msgs["accept"])
    assert session.state is SessionPhase.ACCEPTED
    session = transition(session, msgs["start"])
    assert session.state is SessionPhase.CHARGING
    session = transition(session, msgs["complete"])
    assert session.state is SessionPhase.COMPLETED
    assert session.terminal_reason is Reason.DURATION_ELAPSED


def test_reject_is_terminal():
    session, msgs = make_chain()
    session = transition(session, msgs["request"])
    session = transition(session, msgs["reject"])
    assert session.state is SessionPhase.REJECTED
    with pytest.raises(IllegalTransition):
        transition(session, msgs["accept"])


def test_start_after_complete_is_illegal():
    session, msgs = make_chain()
    for key in ("request", "accept", "start", "complete"):
        session = transition(session, msgs[key])
    with pytest.raises(IllegalTransition):
        transition(session, msgs["start"])


def test_replay_is_an_error():
    session, msgs = make_chain()
    session = transition(session, msgs["request"])
    with pytest.raises(IllegalTransition):
        transition(session, msgs["request"])


def test_uncorrelated_event_is_illegal():
    session, msgs = make_chain()
    session = transition(session, msgs["request"])
    with pytest.raises(IllegalTransition):
        transition(session, Accept("some-other-request"))


def test_abort_from_accepted_and_charging():
    session, msgs = make_chain()
    session = transition(session, msgs["request"])
    session = transition(session, msgs["accept"])
    aborted = abort_session(session, Reason.CONSUMER_CANCELLED)
    assert aborted.state is SessionPhase.ABORTED
    assert aborted.terminal_reason is Reason.CONSUMER_CANCELLED

    charging = transition(session, msgs["start"])
    aborted = abort_session(charging, Reason.PROVIDER_DEPLETED)
    assert aborted.state is SessionPhase.ABORTED


def test_abort_from_terminal_is_illegal():
    session, msgs = make_chain()
    for key in ("request", "accept", "start", "complete"):
        session = transition(session, msgs[key])
    with pytest.raises(IllegalTransition):
        abort_session(session, Reason.CONSUMER_CANCELLED)


# --- completion decisions -----------------------------------------------------------


def test_duration_completes_at_requested_time():
    request = make_request(RequestKind.DURATION, 1800.0, "c1", request_id="r1")
    assert is_complete(request, 0.0, 1799.0) is None
    assert is_complete(request, 0.0, 1800.0) is Reason.DURATION_ELAPSED


def test_amount_below_threshold_continues():
    request = make_request(RequestKind.AMOUNT, 1000.0, "c1", request_id="r1")
    assert is_complete(request, 999.9, 0.0) is None


def test_amount_over_threshold_completes():
    request = make_request(RequestKind.AMOUNT, 1000.0, "c1", request_id="r1")
    assert is_complete(request, 1000.2, 0.0) is Reason.AMOUNT_DELIVERED


# --- one-to-one guard ----------------------------------------------------------------


def test_provider_serves_one_charging_session():
    sessions = ProviderSessions()
    sessions.begin_charging("s1")
    with pytest.raises(IllegalTransition):
        sessions.begin_charging("s2")
    sessions.end("s1")
    sessions.begin_charging("s2")


# --- randomized safety ----------------------------------------------------------------

# The legal edge list, restated independently of the implementation table.
LEGAL_EDGES = {
    (SessionPhase.IDLE, Request, SessionPhase.REQUESTED),
    (SessionPhase.REQUESTED, Accept, SessionPhase.ACCEPTED),
    (SessionPhase.REQUESTED, Reject, SessionPhase.REJECTED),
    (SessionPhase.ACCEPTED, StartTransfer, SessionPhase.CHARGING),
    (SessionPhase.ACCEPTED, Abort, SessionPhase.ABORTED),
    (SessionPhase.CHARGING, Complete, SessionPhase.COMPLETED),
    (SessionPhase.CHARGING, Abort, SessionPhase.ABORTED),
}


def run_event_sequence(rng: random.Random) -> None:
    session, msgs = make_chain()
    event_pool = list(msgs.values()) + [
        Accept("wrong-id"),
        StartTransfer("wrong-session", "wrong-id", 1.0),
        MonitorSync(session.session_id, 0, 0.0, 1.0, 0.0),
    ]
    terminals_seen = 0
    for _ in range(rng.randint(1, 8)):
        event = rng.choice(event_pool)
        before = session.state
        try:
            session = transition(session, event)
        except IllegalTransition:
            continue
        assert (before, type(event), session.state) in LEGAL_EDGES
        if session.state in TERMINAL_PHASES:
            terminals_seen += 1
    assert terminals_seen <= 1


def test_random_event_sequences_are_safe():
    rng = random.Random(2024)
    for _ in range(2000):
        run_event_sequence(rng)


@given(st.lists(st.sampled_from(["request", "accept", "reject", "start", "complete", "abort"]),
                min_size=1, max_size=12))
def test_hypothesis_sequences_single_terminal(keys):
    session, msgs = make_chain()
    terminal_states = []
    for key in keys:
        try:
            session = transition(session, msgs[key])
        except IllegalTransition:
            continue
        if session.state in TERMINAL_PHASES:
            terminal_states.append(session.state)
    assert len(terminal_states) <= 1
