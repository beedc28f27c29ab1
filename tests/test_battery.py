"""Battery model: drain, taper, transfer ticks and the closed-form predictor."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from energyshare.battery import (
    BatteryState,
    DrainParams,
    OutsideConstantRegime,
    PredictedOutcome,
    ProviderDepleted,
    Technology,
    TechnologyParams,
    TickLedger,
    battery_at_level,
    default_params,
    drain_baseline,
    duration_ticks,
    effective_rate,
    predict_outcome,
    transfer_tick,
)
from energyshare.protocol import EnergyRequest, RequestKind, make_request


def cable(rate=1200.0, eff=0.90, taper=90.0) -> TechnologyParams:
    return TechnologyParams(Technology.CABLE, rate, eff, taper)


NO_DRAIN = DrainParams(0.0)


# --- BatteryState -----------------------------------------------------------


def test_battery_level_consistency():
    b = BatteryState(2915.0, 1166.0)
    assert b.level_pct == pytest.approx(100.0 * 1166.0 / 2915.0, rel=1e-12)


def test_full_battery_level_is_exactly_100():
    # 100 * charge / capacity rounds one ulp above 100 for this capacity
    full = battery_at_level(655.8883705527636, 100.0)
    assert full.level_pct == 100.0
    assert effective_rate(default_params(Technology.CABLE), full.level_pct) == 0.0


def test_battery_clamps_on_construction():
    assert BatteryState(100.0, 150.0).charge_mah == 100.0
    assert BatteryState(100.0, -5.0).charge_mah == 0.0


def test_battery_rejects_bad_capacity():
    with pytest.raises(ValueError):
        BatteryState(0.0, 0.0)
    with pytest.raises(ValueError):
        BatteryState(-10.0, 0.0)


@pytest.mark.parametrize("charge", [math.nan, math.inf, -math.inf])
def test_battery_rejects_a_charge_that_is_not_finite(charge):
    with pytest.raises(ValueError, match="charge_mah must be finite"):
        BatteryState(100.0, charge)


# --- drain_baseline -----------------------------------------------------------


def test_drain_one_hour():
    charge, drained = drain_baseline(1000.0, DrainParams(36.0), 3600.0)
    assert charge == pytest.approx(964.0, abs=1e-12)
    assert drained == pytest.approx(36.0, abs=1e-12)


def test_drain_zero_time_is_identity():
    charge, drained = drain_baseline(1000.0, DrainParams(36.0), 0.0)
    assert charge == 1000.0
    assert drained == 0.0


def test_drain_clamps_at_empty():
    charge, drained = drain_baseline(0.005, DrainParams(36.0), 3600.0)
    assert charge == 0.0
    assert drained == pytest.approx(0.005, abs=1e-15)


def test_drain_rejects_negative_dt():
    with pytest.raises(ValueError):
        drain_baseline(50.0, DrainParams(1.0), -1.0)


# --- effective_rate ------------------------------------------------------------


def test_rate_below_taper_is_identity():
    assert effective_rate(cable(), 40.0) == 1200.0


def test_rate_at_full_is_zero():
    assert effective_rate(cable(), 100.0) == 0.0


def test_rate_tapers_linearly():
    # independent evaluation of the linear taper: (100-95)/(100-90) * 1200
    expected = (100.0 - 95.0) / (100.0 - 90.0) * 1200.0
    assert expected == 600.0
    assert effective_rate(cable(), 95.0) == pytest.approx(expected, rel=1e-12)


def test_rate_continuous_at_taper_threshold():
    assert effective_rate(cable(), 90.0) == 1200.0


def test_rate_taper_at_100_threshold():
    params = cable(taper=100.0)
    assert effective_rate(params, 99.9) == 1200.0
    assert effective_rate(params, 100.0) == 0.0


@given(
    a=st.floats(0.0, 89.999),
    b=st.floats(0.0, 89.999),
)
def test_rate_independent_of_level_below_taper(a, b):
    params = cable()
    assert effective_rate(params, a) == effective_rate(params, b)


# --- transfer_tick ---------------------------------------------------------------


def test_transfer_tick_closed_form():
    provider = BatteryState(4080.0, 4080.0)
    consumer = BatteryState(2915.0, 1166.0)  # 40%
    p, c, tick = transfer_tick(provider, consumer, cable(), NO_DRAIN, NO_DRAIN, 1.0)
    expected_out = 1200.0 * 1.0 / 3600.0
    expected_in = 0.90 * expected_out
    assert tick.mah_out == expected_out
    assert tick.mah_in == expected_in
    assert p.charge_mah == 4080.0 - expected_out
    assert c.charge_mah == 1166.0 + expected_in


def test_transfer_tick_full_consumer_takes_nothing():
    provider = BatteryState(4080.0, 4080.0)
    consumer = BatteryState(2915.0, 2915.0)
    p, c, tick = transfer_tick(provider, consumer, cable(), NO_DRAIN, NO_DRAIN, 1.0)
    assert tick.mah_in == 0.0
    assert tick.mah_out == 0.0
    assert c.charge_mah == 2915.0


def test_transfer_tick_empty_provider_raises():
    with pytest.raises(ProviderDepleted):
        transfer_tick(
            BatteryState(4080.0, 0.0), BatteryState(2915.0, 100.0),
            cable(), NO_DRAIN, NO_DRAIN, 1.0,
        )


def test_transfer_tick_clamps_at_consumer_capacity():
    provider = BatteryState(4080.0, 4080.0)
    consumer = BatteryState(1000.0, 999.9999)
    params = cable(taper=100.0)  # no taper, force the capacity clamp
    p, c, tick = transfer_tick(provider, consumer, params, NO_DRAIN, NO_DRAIN, 10.0)
    assert c.charge_mah == 1000.0
    assert tick.mah_in == pytest.approx(1000.0 - 999.9999, rel=1e-6)
    assert tick.mah_lost == pytest.approx(tick.mah_out - tick.mah_in, abs=1e-15)


def test_transfer_tick_clamps_consumer_sum_rounding_above_capacity():
    # headroom-limited: 1.2 + (3.6 - 1.2) rounds to 3.6000000000000005 mAh,
    # one ulp above capacity
    assert 1.2 + (3.6 - 1.2) > 3.6
    params = TechnologyParams(Technology.CABLE, transfer_rate_ma=1e6, efficiency=1.0)
    _, c, tick = transfer_tick(
        BatteryState(10000.0, 10000.0), BatteryState(3.6, 1.2),
        params, DrainParams(0.0), DrainParams(0.0), 1.0,
    )
    assert tick.mah_in == 3.6 - 1.2
    assert c.charge_mah == 3.6
    assert c.level_pct == 100.0


def test_transfer_tick_rejects_nonpositive_dt():
    with pytest.raises(ValueError):
        transfer_tick(
            BatteryState(100, 50), BatteryState(100, 10), cable(), NO_DRAIN, NO_DRAIN, 0.0
        )


batteries = st.builds(
    battery_at_level,
    capacity_mah=st.floats(100.0, 6000.0),
    level_pct=st.floats(0.5, 100.0),
)
drains = st.builds(DrainParams, baseline_ma=st.floats(0.0, 120.0))
params_strategy = st.builds(
    TechnologyParams,
    technology=st.sampled_from(list(Technology)),
    transfer_rate_ma=st.floats(50.0, 3000.0),
    efficiency=st.floats(0.3, 1.0),
    taper_start_pct=st.floats(10.0, 100.0),
)
dts = st.floats(0.1, 30.0)


@given(p=batteries, c=batteries, params=params_strategy, pd=drains, cd=drains, dt=dts)
def test_tick_conservation(p, c, params, pd, cd, dt):
    if p.charge_mah <= 0:
        return
    p2, c2, tick = transfer_tick(p, c, params, pd, cd, dt)
    assert tick.mah_out >= 0 and tick.mah_in >= 0 and tick.mah_lost >= 0
    assert tick.provider_baseline_mah >= 0 and tick.consumer_baseline_mah >= 0
    # provider decrease and consumer increase follow the tick breakdown exactly
    assert p.charge_mah - p2.charge_mah == pytest.approx(
        tick.mah_out + tick.provider_baseline_mah, abs=1e-9
    )
    assert c2.charge_mah - c.charge_mah == pytest.approx(
        tick.mah_in - tick.consumer_baseline_mah, abs=1e-9
    )


# Rates up to 1e7 mA fill any consumer in one tick, so many ticks are
# headroom-limited. A consumer below half full then gets headroom that is
# not exact, and in a few percent of those ticks charge + headroom rounds
# above capacity; the @example pins one such tick.
@settings(max_examples=300)
@given(
    p=st.builds(battery_at_level, capacity_mah=st.floats(100.0, 1e6), level_pct=st.floats(0.5, 100.0)),
    c=st.builds(battery_at_level, capacity_mah=st.floats(0.5, 6000.0), level_pct=st.floats(0.0, 100.0)),
    params=st.builds(
        TechnologyParams,
        technology=st.sampled_from(list(Technology)),
        transfer_rate_ma=st.floats(50.0, 1e7),
        efficiency=st.floats(0.3, 1.0),
        taper_start_pct=st.floats(10.0, 100.0),
    ),
    pd=drains,
    cd=drains,
    dt=dts,
)
@example(
    p=BatteryState(10000.0, 10000.0), c=BatteryState(3.6, 1.2),
    params=TechnologyParams(Technology.CABLE, transfer_rate_ma=1e6, efficiency=1.0),
    pd=NO_DRAIN, cd=NO_DRAIN, dt=1.0,
)
def test_tick_results_are_checked_batteries(p, c, params, pd, cd, dt):
    if p.charge_mah <= 0:
        return
    p2, c2, _ = transfer_tick(p, c, params, pd, cd, dt)
    for before, after in ((p, p2), (c, c2)):
        assert after.capacity_mah == before.capacity_mah
        assert 0.0 <= after.charge_mah <= after.capacity_mah
        assert after == BatteryState(after.capacity_mah, after.charge_mah)


@given(p=batteries, c=batteries, params=params_strategy, pd=drains, dt=dts)
def test_tick_monotonicity(p, c, params, pd, dt):
    if p.charge_mah <= 0:
        return
    p2, c2, _ = transfer_tick(p, c, params, pd, NO_DRAIN, dt)
    assert p2.charge_mah <= p.charge_mah
    assert c2.charge_mah >= c.charge_mah


@given(p=batteries, c=batteries, params=params_strategy, dt=dts)
def test_tick_efficiency_identity_without_clamps(p, c, params, dt):
    if p.charge_mah <= 0:
        return
    p2, c2, tick = transfer_tick(p, c, params, NO_DRAIN, NO_DRAIN, dt)
    clamped = c2.charge_mah >= c.capacity_mah or tick.mah_out >= p.charge_mah
    if not clamped:
        assert tick.mah_in == pytest.approx(params.efficiency * tick.mah_out, rel=1e-12)


# --- session-level loss identity ---------------------------------------------------


def test_loss_identity_over_session():
    provider = BatteryState(4080.0, 4080.0)
    consumer = BatteryState(2915.0, 1166.0)
    params = default_params(Technology.REVERSE)
    p_drain, c_drain = DrainParams(40.0), DrainParams(40.0)
    ledger = TickLedger()
    p, c = provider, consumer
    for _ in range(600):
        p, c, tick = transfer_tick(p, c, params, p_drain, c_drain, 1.0)
        ledger.add(tick)
    provider_loss = provider.charge_mah - p.charge_mah
    consumer_gain = c.charge_mah - consumer.charge_mah
    assert provider_loss - consumer_gain == pytest.approx(
        ledger.total_overhead_mah, rel=1e-9
    )


# --- predict_outcome -----------------------------------------------------------------


def iterate_session(provider, consumer, params, p_drain, c_drain, request, dt):
    """Independent tick-by-tick oracle with the discrete completion rules."""
    delivered = 0.0
    ticks = 0
    p, c = provider, consumer
    while True:
        if request.kind is RequestKind.DURATION:
            if ticks * dt >= request.duration_s:
                break
        else:
            if delivered >= request.amount_mah:
                break
        p, c, tick = transfer_tick(p, c, params, p_drain, c_drain, dt)
        delivered += tick.mah_in
        ticks += 1
        if ticks > 10_000_000:
            raise AssertionError("runaway session")
    return p, c, ticks


def test_predict_duration_request():
    provider = BatteryState(4080.0, 4080.0)
    consumer = BatteryState(2915.0, 1166.0)
    params = TechnologyParams(Technology.WIRELESS_DISTANCE, 1200.0, 0.75, 90.0)
    request = make_request(RequestKind.DURATION, 1800.0, "c1")
    predicted = predict_outcome(provider, consumer, params, NO_DRAIN, NO_DRAIN, request, 1.0)
    assert predicted.ticks == 1800
    # 1200 mA over half an hour leaves 600 mAh, 0.75 of it arrives
    assert predicted.provider_charge_mah == pytest.approx(4080.0 - 600.0, rel=1e-9)
    assert predicted.consumer_charge_mah == pytest.approx(1166.0 + 450.0, rel=1e-9)
    p, c, ticks = iterate_session(provider, consumer, params, NO_DRAIN, NO_DRAIN, request, 1.0)
    assert ticks == predicted.ticks
    assert p.charge_mah == pytest.approx(predicted.provider_charge_mah, rel=1e-9)
    assert c.charge_mah == pytest.approx(predicted.consumer_charge_mah, rel=1e-9)


def test_predict_zero_duration():
    request = EnergyRequest("r0", "c1", RequestKind.DURATION, 0.0)
    predicted = predict_outcome(
        BatteryState(4080, 4080), BatteryState(2915, 1166),
        cable(), NO_DRAIN, NO_DRAIN, request, 1.0,
    )
    assert predicted == PredictedOutcome(4080.0, 1166.0, 0)


def test_predict_amount_tick_count_closed_form():
    provider = BatteryState(4080.0, 4080.0)
    consumer = BatteryState(2915.0, 291.5)  # 10%
    params = TechnologyParams(Technology.WIRELESS_DISTANCE, 1200.0, 0.75, 90.0)
    request = make_request(RequestKind.AMOUNT, 1000.0, "c1")
    predicted = predict_outcome(provider, consumer, params, NO_DRAIN, NO_DRAIN, request, 1.0)
    per_tick_in = 0.75 * 1200.0 / 3600.0
    assert predicted.ticks == math.ceil(1000.0 / per_tick_in) == 4000
    _, c, ticks = iterate_session(provider, consumer, params, NO_DRAIN, NO_DRAIN, request, 1.0)
    assert ticks == predicted.ticks
    assert c.charge_mah == pytest.approx(predicted.consumer_charge_mah, rel=1e-9)


def test_predict_rejects_consumer_in_taper_zone():
    request = make_request(RequestKind.DURATION, 60.0, "c1")
    with pytest.raises(OutsideConstantRegime):
        predict_outcome(
            BatteryState(4080, 4080), battery_at_level(2915.0, 95.0),
            cable(), NO_DRAIN, NO_DRAIN, request, 1.0,
        )


def test_predict_rejects_provider_depletion():
    request = make_request(RequestKind.AMOUNT, 1000.0, "c1")
    with pytest.raises(OutsideConstantRegime):
        predict_outcome(
            BatteryState(200.0, 200.0), BatteryState(2915, 291.5),
            cable(), NO_DRAIN, NO_DRAIN, request, 1.0,
        )


def test_predict_rejects_consumer_draining_to_empty():
    request = make_request(RequestKind.DURATION, 3600.0, "c1")
    with pytest.raises(OutsideConstantRegime, match="consumer would drain to empty"):
        predict_outcome(
            BatteryState(4080.0, 4080.0), BatteryState(2915.0, 10.0),
            cable(), NO_DRAIN, DrainParams(baseline_ma=2000.0), request, 1.0,
        )


def test_predict_rejects_nonpositive_dt():
    request = make_request(RequestKind.DURATION, 60.0, "c1")
    with pytest.raises(ValueError, match="dt_s must be > 0"):
        predict_outcome(
            BatteryState(4080.0, 4080.0), BatteryState(2915.0, 1166.0),
            cable(), NO_DRAIN, NO_DRAIN, request, 0.0,
        )


def test_predict_rejects_session_ending_in_taper():
    request = make_request(RequestKind.DURATION, 3 * 3600.0, "c1")
    with pytest.raises(OutsideConstantRegime):
        predict_outcome(
            BatteryState(40800.0, 40800.0), battery_at_level(2915.0, 40.0),
            cable(), NO_DRAIN, NO_DRAIN, request, 1.0,
        )


def test_duration_ticks_handles_float_grid():
    assert duration_ticks(1800.0, 1.0) == 1800
    assert duration_ticks(0.0, 1.0) == 0
    assert duration_ticks(9.0, 2.0) == 5
    assert duration_ticks(0.9, 0.3) == 4  # 0.9 / 0.3 rounds to 3.0, but 3 * 0.3 < 0.9
    for t in (3, 7, 13, 600):
        dt = 0.3
        assert duration_ticks(t * dt, dt) == t


@settings(deadline=None, max_examples=150)
@given(
    rate=st.floats(100.0, 2500.0),
    eff=st.floats(0.4, 1.0),
    baseline=st.floats(0.0, 50.0),
    dt=st.sampled_from([0.25, 0.5, 1.0, 2.0]),
    target_ticks=st.integers(5, 200),
    start_level=st.floats(5.0, 40.0),
    use_amount=st.booleans(),
    offset=st.floats(0.25, 0.75),
)
def test_predict_matches_iteration(
    rate, eff, baseline, dt, target_ticks, start_level, use_amount, offset
):
    provider = BatteryState(100_000.0, 100_000.0)
    consumer = battery_at_level(8000.0, start_level)
    params = TechnologyParams(Technology.CABLE, rate, eff, 90.0)
    drain = DrainParams(baseline)
    per_in = eff * rate * dt / 3600.0
    if use_amount:
        request = make_request(RequestKind.AMOUNT, (target_ticks - offset) * per_in, "c1")
    else:
        request = make_request(RequestKind.DURATION, (target_ticks - offset) * dt, "c1")
    try:
        predicted = predict_outcome(provider, consumer, params, drain, drain, request, dt)
    except OutsideConstantRegime:
        return
    p, c, ticks = iterate_session(provider, consumer, params, drain, drain, request, dt)
    assert ticks == predicted.ticks == target_ticks
    assert p.charge_mah == pytest.approx(predicted.provider_charge_mah, rel=1e-9)
    assert c.charge_mah == pytest.approx(predicted.consumer_charge_mah, rel=1e-9)


# --- defaults ------------------------------------------------------------------------


def test_default_efficiency_ordering_keeps_reverse_lossiest():
    effs = {t: default_params(t).efficiency for t in Technology}
    assert effs[Technology.REVERSE] < effs[Technology.WIRELESS_DISTANCE]
    assert effs[Technology.REVERSE] < effs[Technology.CABLE]


def test_wireless_default_records_coil_distance():
    assert default_params(Technology.WIRELESS_DISTANCE).distance_m == 0.02
    assert default_params(Technology.CABLE).distance_m == 0.0
