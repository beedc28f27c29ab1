"""Synchronized recording, pairing trace rows, metrics and the trace CSV codec.

Whether a trace's rows are right is the dataset gate's to decide; its
refusals are tested in test_edge.py.
"""

import re
import string

import pytest
from conftest import build_scenario
from hypothesis import given, settings
from hypothesis import strategies as st

from energyshare.battery import BatteryState
from energyshare.edge import ValidationFailed, dataset_from_parts, decode_dataset, encode_dataset
from energyshare.monitor import (
    EmptyTrace,
    MonitorRecord,
    ROLE_CONSUMER,
    ROLE_PROVIDER,
    SessionNotActive,
    TRACE_HEADER,
    compute_metrics,
    format_record,
    record_tick,
    records_from_csv_text,
    trace_csv_rows,
)
from energyshare.protocol import (
    RequestKind,
    SessionPhase,
    SessionState,
    make_request,
)
from energyshare.runner import run_scenario
from energyshare.util import parse_meta


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


def canonical_records(n=5):
    """Rows as trace_csv_text writes them: per tick the provider row, then the consumer row."""
    return [mk_record(t, role) for t in range(n) for role in (ROLE_PROVIDER, ROLE_CONSUMER)]


def paired(records):
    """Rows 2k and 2k+1 as tick k's pair, as trace_csv_text writes them."""
    return tuple(zip(records[::2], records[1::2]))


def test_pairs_are_the_rows_in_written_order():
    records = canonical_records()
    pairs = paired(records)
    assert records_from_csv_text(csv_text(pairs)) == records
    assert [(p.tick_index, p.role, c.tick_index, c.role) for p, c in pairs] == [
        (t, ROLE_PROVIDER, t, ROLE_CONSUMER) for t in range(5)
    ]


def test_pairing_refuses_an_odd_row_count_naming_the_row_left_over():
    dataset = run_scenario(build_scenario(value=4.0)).dataset
    meta, trace = encode_dataset(dataset)
    without_last_row = trace[:trace.rstrip("\n").rfind("\n") + 1]
    with pytest.raises(ValidationFailed, match=f"^tick {dataset.record_count - 1}: a row without its pair$"):
        decode_dataset(meta, without_last_row)


def test_no_rows_pair_to_no_pairs():
    meta = parse_meta(encode_dataset(run_scenario(build_scenario(value=4.0)).dataset)[0])
    meta["record_count"] = "0"
    assert dataset_from_parts(meta, []).records == ()


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


def csv_text(pairs) -> str:
    """The header line, then the rows of ``pairs`` as the row form writes them."""
    return f"{TRACE_HEADER}\n{trace_csv_rows(pairs)}"


def test_trace_csv_round_trip_is_bit_exact():
    pairs = sample_pairs()
    text = csv_text(pairs)
    assert text.endswith("\n")
    records = records_from_csv_text(text)
    assert paired(records) == tuple(pairs)
    assert csv_text(paired(records)) == text


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
UNREADABLE_ROWS = [
    "0,0.0,ses-r1,p1,provider,50.0,10.0",  # 7 fields
    "0,0.0,ses-r1,p1,provider,50.0,10.0,0.0,0.0",  # 9 fields
    "",  # a blank row
    "x,0.0,ses-r1,p1,provider,50.0,10.0,0.0",  # tick_index not an integer
    "0.5,0.0,ses-r1,p1,provider,50.0,10.0,0.0",
    "0,0.0,ses-r1,p1,provider,half,10.0,0.0",  # battery_level_pct not a number
]


def test_csv_reader_refuses_a_row_it_cannot_read_naming_it():
    assert len(records_from_csv_text(f"{TRACE_HEADER}\n{GOOD_ROW}\n")) == 1
    for bad in UNREADABLE_ROWS:
        for rows in ([bad], [GOOD_ROW, bad], [bad, GOOD_ROW]):
            with pytest.raises(ValueError, match=f"^trace row {re.escape(repr(bad))}: "):
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


@settings(derandomize=True, max_examples=100, deadline=None)
@given(record_pairs())
def test_trace_csv_codec_round_trips(pairs):
    """A canonical trace round-trips through the reader and the pairing, bit for bit."""
    text = csv_text(pairs)
    decoded = paired(records_from_csv_text(text))
    assert decoded == tuple(pairs)
    assert csv_text(decoded) == text
