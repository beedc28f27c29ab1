"""Synchronized recording, trace alignment, metrics and the trace CSV."""

import string

import pytest
from hypothesis import given
from hypothesis import strategies as st

from energyshare.battery import BatteryState
from energyshare.monitor import (
    EmptyTrace,
    MisalignedTraces,
    MonitorRecord,
    ROLE_CONSUMER,
    ROLE_PROVIDER,
    SessionNotActive,
    TRACE_HEADER,
    align_traces,
    compute_metrics,
    format_record,
    pairs_from_records,
    record_tick,
    records_from_csv_text,
    trace_csv_text,
)
from energyshare.protocol import (
    RequestKind,
    SessionPhase,
    SessionState,
    make_request,
)


def charging_session(session_id="ses-r1"):
    request = make_request(RequestKind.DURATION, 1800.0, "c1", request_id="r1")
    return SessionState(
        session_id=session_id, request=request, provider_id="p1",
        state=SessionPhase.CHARGING,
    )


def mk_record(tick, role, charge=1000.0, capacity=2000.0, wall=None, session="ses-r1"):
    return MonitorRecord(
        tick_index=tick,
        wall_time_s=wall if wall is not None else float(tick),
        session_id=session,
        device_id="p1" if role == ROLE_PROVIDER else "c1",
        role=role,
        battery_level_pct=100.0 * charge / capacity,
        battery_charge_mah=charge,
        cumulative_transferred_mah=0.25 * tick,
    )


def test_record_tick_emits_synchronized_pair():
    session = charging_session()
    provider_record, consumer_record = record_tick(
        session, 0, 10.5,
        provider_id="p1", provider_battery=BatteryState(4080, 4080),
        consumer_id="c1", consumer_battery=BatteryState(2915, 1166),
        cumulative_out_mah=0.0, cumulative_in_mah=0.0,
    )
    assert provider_record.tick_index == consumer_record.tick_index == 0
    assert provider_record.wall_time_s == consumer_record.wall_time_s == 10.5
    assert provider_record.role == ROLE_PROVIDER
    assert consumer_record.role == ROLE_CONSUMER
    assert consumer_record.battery_level_pct == pytest.approx(40.0, rel=1e-12)


def test_record_tick_outside_charging_raises():
    request = make_request(RequestKind.DURATION, 60.0, "c1", request_id="r1")
    requested = SessionState(
        session_id="ses-r1", request=request, provider_id="p1",
        state=SessionPhase.REQUESTED,
    )
    with pytest.raises(SessionNotActive):
        record_tick(
            requested, 0, 0.0,
            provider_id="p1", provider_battery=BatteryState(10, 10),
            consumer_id="c1", consumer_battery=BatteryState(10, 1),
            cumulative_out_mah=0.0, cumulative_in_mah=0.0,
        )


def test_align_dense_traces():
    providers = [mk_record(t, ROLE_PROVIDER) for t in range(5)]
    consumers = [mk_record(t, ROLE_CONSUMER) for t in range(5)]
    pairs = align_traces(providers, consumers)
    assert len(pairs) == 5
    assert all(p.tick_index == c.tick_index for p, c in pairs)


def test_align_reports_missing_tick():
    providers = [mk_record(t, ROLE_PROVIDER) for t in range(10)]
    consumers = [mk_record(t, ROLE_CONSUMER) for t in range(10) if t != 7]
    with pytest.raises(MisalignedTraces) as err:
        align_traces(providers, consumers)
    assert err.value.tick_indices == [7]


def test_align_refuses_a_repeated_tick():
    providers = [mk_record(t, ROLE_PROVIDER) for t in (0, 1, 2, 2, 3)]
    consumers = [mk_record(t, ROLE_CONSUMER) for t in range(4)]
    with pytest.raises(MisalignedTraces, match="repeated") as err:
        align_traces(providers, consumers)
    assert err.value.tick_indices == [2]


def test_align_empty_traces_is_empty():
    assert align_traces([], []) == []


def test_metrics_identity_when_nothing_changes():
    pair = (mk_record(0, ROLE_PROVIDER), mk_record(0, ROLE_CONSUMER))
    metrics = compute_metrics([pair])
    assert metrics.provider_loss_mah == 0.0
    assert metrics.consumer_gain_mah == 0.0
    assert metrics.energy_loss_mah == 0.0


def test_metrics_reject_empty_series():
    with pytest.raises(EmptyTrace):
        compute_metrics([])


# --- CSV ------------------------------------------------------------------------


def sample_pairs(n=4):
    return [
        (mk_record(t, ROLE_PROVIDER, charge=4080.0 - 0.3 * t, capacity=4080.0),
         mk_record(t, ROLE_CONSUMER, charge=1166.0 + 0.27 * t, capacity=2915.0))
        for t in range(n)
    ]


def test_trace_csv_round_trip_is_bit_exact():
    pairs = sample_pairs()
    text = trace_csv_text(pairs)
    assert text.startswith(TRACE_HEADER + "\n")
    assert text.endswith("\n")
    records = records_from_csv_text(text)
    assert pairs_from_records(records) == pairs
    assert trace_csv_text(pairs_from_records(records)) == text


def test_format_record_prints_each_float_field_as_a_float():
    record = MonitorRecord(7, 7, "ses-r1", "c1", ROLE_CONSUMER, 50, 1000, 0)
    assert format_record(record) == "7,7.0,ses-r1,c1,consumer,50.0,1000.0,0.0"
    record = MonitorRecord(3, 0.1 + 0.2, "ses-r1", "p1", ROLE_PROVIDER, 100.0, 1e-12, 1166.0000000001)
    assert format_record(record) == (
        "3,0.30000000000000004,ses-r1,p1,provider,100.0,1e-12,1166.0000000001"
    )


def test_trace_csv_rejects_foreign_header():
    with pytest.raises(ValueError):
        records_from_csv_text("time,level\n0,40\n")


GOOD_ROW = "0,0.0,ses-r1,p1,provider,50.0,10.0,0.0"
BAD_ROWS = [
    "-1,0.0,ses-r1,p1,provider,50.0,10.0,0.0",  # negative tick_index
    "0,0.0,ses-r1,p1,observer,50.0,10.0,0.0",  # role neither provider nor consumer
    "0,0.0,..,p1,provider,50.0,10.0,0.0",  # session_id check_id refuses
    "0,0.0,ses-r1,a;b,provider,50.0,10.0,0.0",  # device_id check_id refuses
    "0,0.0,ses-r1,p1,provider,50.0,10.0",  # 7 fields
]


def test_csv_reader_rejects_bad_rows():
    assert len(records_from_csv_text(f"{TRACE_HEADER}\n{GOOD_ROW}\n")) == 1
    for bad in BAD_ROWS:
        for rows in ([bad], [GOOD_ROW, bad], [bad, GOOD_ROW]):
            with pytest.raises(ValueError):
                records_from_csv_text("\n".join([TRACE_HEADER, *rows]) + "\n")


ID_CHARS = string.ascii_letters + string.digits + "_.:-"
ids = st.text(ID_CHARS, min_size=1, max_size=12).filter(lambda s: s.strip(".") != "")
finite = st.one_of(st.just(-0.0), st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def record_pairs(draw):
    session_id, provider_id, consumer_id = draw(ids), draw(ids), draw(ids)
    ticks = sorted(draw(st.lists(st.integers(0, 10**9), min_size=1, max_size=20, unique=True)))
    return [
        (MonitorRecord(t, draw(finite), session_id, provider_id, ROLE_PROVIDER,
                       draw(finite), draw(finite), draw(finite)),
         MonitorRecord(t, draw(finite), session_id, consumer_id, ROLE_CONSUMER,
                       draw(finite), draw(finite), draw(finite)))
        for t in ticks
    ]


@given(record_pairs())
def test_trace_csv_codec_round_trips(pairs):
    text = trace_csv_text(pairs)
    decoded = pairs_from_records(records_from_csv_text(text))
    assert decoded == pairs
    assert trace_csv_text(decoded) == text


@given(record_pairs(), st.data())
def test_trace_csv_refuses_one_bad_role_or_tick(pairs, data):
    lines = trace_csv_text(pairs).splitlines()
    at = data.draw(st.integers(1, len(lines) - 1))
    fields = lines[at].split(",")
    if data.draw(st.booleans()):
        fields[4] = data.draw(ids.filter(lambda r: r not in (ROLE_PROVIDER, ROLE_CONSUMER)))
    else:
        fields[0] = str(data.draw(st.integers(max_value=-1)))
    lines[at] = ",".join(fields)
    with pytest.raises(ValueError):
        records_from_csv_text("\n".join(lines) + "\n")
