"""Acceptance suite: one test per release criterion, each printing a pass line.

 1. Reference duration session: 1800 s at 1 s interval, consumer 40%,
    provider 100% -> DurationElapsed, exactly 1801 synchronized record
    pairs, in under 5 seconds of host time.
 2. Loss ordering: under default parameters reverse charging has strictly
    the highest energy loss of the three technologies.
 3. Similar trends: all three consumer level curves are monotone
    non-decreasing and pairwise within 15% relative below the taper zone.
 4. Start-level insensitivity: consumer gain per minute below taper agrees
    within 1% across 10%/40%/70% start levels.
 5. Conservation: 1000 randomized parameter sets hold the per-tick and
    whole-session energy identities to 1e-9 relative; session metrics
    equal the tick ledger.
 6. Oracle equivalence: 1000 randomized constant-regime sessions match the
    closed-form predictor exactly (tick counts) and to 1e-9 (charges);
    amount-request tick counts equal the ceil closed form.
 7. State-machine safety: 100k random event sequences never reach two
    terminal states, never take an edge outside the lifecycle graph, and
    never give a provider two concurrent charging sessions.
 8. Matching correctness: selected provider equals brute-force argmin over
    (distance, id) on 1000 random instances (n <= 100); the reject walk
    never revisits a provider.
 9. TCP pipeline: a 60 s session over loopback TCP (two devices + edge
    service) completes; the fetched dataset is byte-identical to the
    upload and survives an edge-service restart.
10. Determinism: two virtual runs of the same scenario + seed produce
    byte-identical trace CSVs.
"""

import math
import random
import time

import pytest
from conftest import scenario_text

from energyshare.battery import (
    BatteryState,
    DrainParams,
    OutsideConstantRegime,
    Technology,
    TechnologyParams,
    TickLedger,
    battery_at_level,
    predict_outcome,
    transfer_tick,
)
from energyshare.edge import EdgeClient, EdgeServer, EdgeStore, encode_meta
from energyshare.matching import (
    NoProviderAvailable,
    ProviderAdvert,
    next_after_reject,
    rank_providers,
    select_provider,
)
from energyshare.monitor import compute_metrics, record_tick, trace_csv_text
from energyshare.protocol import (
    Abort,
    Accept,
    Complete,
    IllegalTransition,
    MonitorSync,
    ProviderSessions,
    Reason,
    Reject,
    Request,
    RequestKind,
    SessionPhase,
    SessionState,
    StartTransfer,
    TERMINAL_PHASES,
    make_request,
    new_session,
    session_id_for,
    transition,
)
from energyshare.report import compare, write_run_artifacts
from energyshare.runner import OUTCOME_COMPLETED, run_scenario
from energyshare.scenario import parse_scenario_text

TAPER_PCT = 90.0


def _pass(criterion: int, message: str) -> None:
    print(f"\n[PASS] criterion {criterion}: {message}")


def run_reference(run_id: str, *, technology="wireless_distance", consumer_start=40.0,
                  duration=1800.0, seed=0):
    scenario = parse_scenario_text(
        scenario_text(
            seed=seed, value=duration, technology=technology,
            consumer_start_pct=consumer_start,
        ),
        run_id=run_id,
    )
    return run_scenario(scenario)


@pytest.fixture(scope="module")
def technology_runs(tmp_path_factory):
    """The charging-technology comparison: one 30-minute run per technology."""
    base = tmp_path_factory.mktemp("technology-runs")
    runs = {}
    for tech in ("cable", "reverse", "wireless_distance"):
        result = run_reference(f"exp-{tech}", technology=tech)
        runs[tech] = (result, write_run_artifacts(result, base / tech))
    return runs


@pytest.fixture(scope="module")
def start_level_runs(tmp_path_factory):
    """The start-level comparison: 10/40/70% consumer over distance charging."""
    base = tmp_path_factory.mktemp("start-level-runs")
    runs = {}
    for level in (10.0, 40.0, 70.0):
        result = run_reference(f"exp-level{int(level)}", consumer_start=level)
        runs[level] = (result, write_run_artifacts(result, base / f"level{int(level)}"))
    return runs


def consumer_levels(result):
    return [consumer.battery_level_pct for _, consumer in result.dataset.records]


# --- criterion 1 -----------------------------------------------------------------


def test_criterion_1_reference_duration_session():
    started = time.perf_counter()
    result = run_reference("exp1-timing")
    runtime = time.perf_counter() - started

    assert result.outcome == OUTCOME_COMPLETED
    assert result.terminal_reason is Reason.DURATION_ELAPSED
    dataset = result.dataset
    assert dataset.record_count == 1801
    for tick, (provider_record, consumer_record) in enumerate(dataset.records):
        assert provider_record.tick_index == consumer_record.tick_index == tick
        assert provider_record.wall_time_s == consumer_record.wall_time_s
    assert runtime < 5.0, f"run took {runtime:.2f}s, budget is 5s"
    _pass(1, f"1801 synchronized pairs, DurationElapsed, {runtime:.2f}s runtime")


# --- criterion 2 -----------------------------------------------------------------


def test_criterion_2_reverse_has_highest_energy_loss(technology_runs, tmp_path):
    report = compare(
        [run_dir for _, run_dir in technology_runs.values()], tmp_path / "summary.csv"
    )
    losses = {row.technology: row.energy_loss_mah for row in report.runs}
    assert losses["reverse"] > losses["cable"], losses
    assert losses["reverse"] > losses["wireless_distance"], losses
    assert report.max_energy_loss_run().technology == "reverse"
    _pass(2, "energy loss strictly maximal for reverse: "
             + ", ".join(f"{t}={losses[t]:.1f} mAh" for t in sorted(losses)))


# --- criterion 3 -----------------------------------------------------------------


def test_criterion_3_similar_consumer_level_trends(technology_runs):
    curves = {tech: consumer_levels(result) for tech, (result, _) in technology_runs.items()}
    length = {len(c) for c in curves.values()}
    assert length == {1801}

    for tech, curve in curves.items():
        for a, b in zip(curve, curve[1:]):
            assert b >= a, f"{tech} consumer level decreased: {a} -> {b}"

    max_rel_spread = 0.0
    names = list(curves)
    for tick in range(1801):
        values = [curves[name][tick] for name in names]
        if any(v >= TAPER_PCT for v in values):
            continue
        for i in range(len(values)):
            for j in range(i + 1, len(values)):
                rel = abs(values[i] - values[j]) / min(values[i], values[j])
                max_rel_spread = max(max_rel_spread, rel)
                assert rel <= 0.15, (
                    f"tick {tick}: {names[i]}={values[i]:.3f}% vs "
                    f"{names[j]}={values[j]:.3f}% differs by {rel:.3f}"
                )
    _pass(3, f"curves monotone, max pairwise spread {max_rel_spread:.3%} (<= 15%)")


# --- criterion 4 -----------------------------------------------------------------


def test_criterion_4_start_level_insensitivity(start_level_runs):
    gains_per_minute = {}
    for level, (result, _) in start_level_runs.items():
        pairs = result.dataset.records
        below_taper = [
            (provider_record, consumer_record)
            for provider_record, consumer_record in pairs
            if consumer_record.battery_level_pct < TAPER_PCT
        ]
        assert len(below_taper) > 100
        first, last = below_taper[0][1], below_taper[-1][1]
        minutes = (last.wall_time_s - first.wall_time_s) / 60.0
        gains_per_minute[level] = (last.battery_charge_mah - first.battery_charge_mah) / minutes

    values = list(gains_per_minute.values())
    worst = 0.0
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            rel = abs(values[i] - values[j]) / min(values[i], values[j])
            worst = max(worst, rel)
            assert rel <= 0.01, f"gain/minute spread {rel:.4f} exceeds 1%: {gains_per_minute}"
    _pass(4, "gain per minute across 10/40/70% start levels agrees to "
             f"{worst:.5%} (<= 1%): "
             + ", ".join(f"{int(k)}%={v:.3f}" for k, v in sorted(gains_per_minute.items())))


# --- criterion 5 -----------------------------------------------------------------


def _charging_session(request_id: str) -> SessionState:
    request = make_request(RequestKind.DURATION, 1e9, "c1", request_id=request_id)
    session = SessionState(
        session_id=session_id_for(request_id), request=request, provider_id="p1",
        state=SessionPhase.CHARGING,
    )
    return session


def test_criterion_5_conservation_suite():
    rng = random.Random(20240)
    rel = 1e-9
    for case in range(1000):
        params = TechnologyParams(
            technology=rng.choice(list(Technology)),
            transfer_rate_ma=rng.uniform(50.0, 3000.0),
            efficiency=rng.uniform(0.3, 1.0),
            taper_start_pct=rng.uniform(20.0, 100.0),
        )
        p_drain = DrainParams(rng.uniform(0.0, 120.0))
        c_drain = DrainParams(rng.uniform(0.0, 120.0))
        dt = rng.uniform(0.1, 10.0)
        provider = battery_at_level(rng.uniform(500.0, 6000.0), rng.uniform(10.0, 100.0))
        consumer = battery_at_level(rng.uniform(500.0, 6000.0), rng.uniform(0.0, 100.0))

        session = _charging_session(f"r{case}")
        ledger = TickLedger()
        pairs = [
            record_tick(
                session, 0, 0.0,
                provider_id="p1", provider_battery=provider,
                consumer_id="c1", consumer_battery=consumer,
                cumulative_out_mah=0.0, cumulative_in_mah=0.0,
            )
        ]
        p, c = provider, consumer
        for tick_index in range(1, rng.randint(5, 40)):
            if p.charge_mah <= 0:
                break
            p_before, c_before = p, c
            p, c, tick = transfer_tick(p, c, params, p_drain, c_drain, dt)
            ledger.add(tick)
            # per-tick conservation
            decrease = p_before.charge_mah - p.charge_mah
            increase = c.charge_mah - c_before.charge_mah
            assert math.isclose(
                decrease, tick.mah_out + tick.provider_baseline_mah,
                rel_tol=rel, abs_tol=1e-9,
            )
            assert math.isclose(
                increase, tick.mah_in - tick.consumer_baseline_mah,
                rel_tol=rel, abs_tol=1e-9,
            )
            pairs.append(
                record_tick(
                    session, tick_index, tick_index * dt,
                    provider_id="p1", provider_battery=p,
                    consumer_id="c1", consumer_battery=c,
                    cumulative_out_mah=ledger.total_out_mah,
                    cumulative_in_mah=ledger.total_in_mah,
                )
            )

        # whole-session loss identity and metrics-vs-ledger agreement
        metrics = compute_metrics(pairs)
        assert math.isclose(
            metrics.provider_loss_mah,
            ledger.total_out_mah + ledger.total_provider_baseline_mah,
            rel_tol=rel, abs_tol=1e-9,
        )
        assert math.isclose(
            metrics.consumer_gain_mah,
            ledger.total_in_mah - ledger.total_consumer_baseline_mah,
            rel_tol=rel, abs_tol=1e-9,
        )
        assert math.isclose(
            metrics.energy_loss_mah, ledger.total_overhead_mah,
            rel_tol=rel, abs_tol=1e-9,
        )
    _pass(5, "1000 randomized parameter sets hold all conservation identities at 1e-9")


# --- criterion 6 -----------------------------------------------------------------


def test_criterion_6_oracle_equivalence():
    rng = random.Random(777)
    rel = 1e-9
    checked = 0
    while checked < 1000:
        rate = rng.uniform(100.0, 2500.0)
        eff = rng.uniform(0.4, 1.0)
        dt = rng.choice([0.25, 0.5, 1.0, 2.0, 5.0])
        baseline = rng.uniform(0.0, 60.0)
        drain = DrainParams(baseline)
        provider = BatteryState(200_000.0, 200_000.0)
        consumer = battery_at_level(10_000.0, rng.uniform(2.0, 40.0))
        params = TechnologyParams(Technology.CABLE, rate, eff, TAPER_PCT)
        target_ticks = rng.randint(5, 400)
        per_in = eff * rate * dt / 3600.0
        use_amount = rng.random() < 0.5
        offset = rng.uniform(0.25, 0.75)
        if use_amount:
            request = make_request(RequestKind.AMOUNT, (target_ticks - offset) * per_in, "c1")
        else:
            request = make_request(RequestKind.DURATION, (target_ticks - offset) * dt, "c1")

        try:
            predicted = predict_outcome(provider, consumer, params, drain, drain, request, dt)
        except OutsideConstantRegime:
            continue
        checked += 1

        delivered, ticks = 0.0, 0
        p, c = provider, consumer
        while True:
            if request.kind is RequestKind.DURATION:
                if ticks * dt >= request.duration_s:
                    break
            elif delivered >= request.amount_mah:
                break
            p, c, tick = transfer_tick(p, c, params, drain, drain, dt)
            delivered += tick.mah_in
            ticks += 1

        assert ticks == predicted.ticks == target_ticks
        if use_amount:
            assert ticks == math.ceil(request.amount_mah / per_in)
        assert math.isclose(p.charge_mah, predicted.provider_charge_mah, rel_tol=rel)
        assert math.isclose(c.charge_mah, predicted.consumer_charge_mah, rel_tol=rel)
    _pass(6, "1000 constant-regime sessions match the closed form exactly")


# --- criterion 7 -----------------------------------------------------------------

LEGAL_EDGES = {
    (SessionPhase.IDLE, Request, SessionPhase.REQUESTED),
    (SessionPhase.REQUESTED, Accept, SessionPhase.ACCEPTED),
    (SessionPhase.REQUESTED, Reject, SessionPhase.REJECTED),
    (SessionPhase.ACCEPTED, StartTransfer, SessionPhase.CHARGING),
    (SessionPhase.ACCEPTED, Abort, SessionPhase.ABORTED),
    (SessionPhase.CHARGING, Complete, SessionPhase.COMPLETED),
    (SessionPhase.CHARGING, Abort, SessionPhase.ABORTED),
}


def test_criterion_7_state_machine_safety_fuzz():
    rng = random.Random(314159)
    request = make_request(RequestKind.DURATION, 600.0, "c1", request_id="rf")
    session_id = session_id_for("rf")
    events = [
        Request(request, (0.0, 0.0), 2915.0, 1166.0, 40.0),
        Accept("rf"),
        Reject("rf"),
        StartTransfer(session_id, "rf", 1.0),
        Complete(session_id, Reason.DURATION_ELAPSED),
        Abort(session_id, Reason.TRANSPORT_LOST),
        Accept("other"),
        MonitorSync(session_id, 0, 0.0, 1.0, 0.0),
    ]
    sequences = 100_000
    transitions_taken = 0
    for _ in range(sequences):
        session = new_session(session_id, request, "p1")
        terminals = 0
        for _ in range(rng.randint(2, 6)):
            event = rng.choice(events)
            before = session.state
            try:
                session = transition(session, event)
            except IllegalTransition:
                assert session.state is before
                continue
            transitions_taken += 1
            assert (before, type(event), session.state) in LEGAL_EDGES
            if session.state in TERMINAL_PHASES:
                terminals += 1
        assert terminals <= 1
        if session.state in TERMINAL_PHASES:
            for event in events:
                with pytest.raises(IllegalTransition):
                    transition(session, event)

    # one-to-one: a busy provider never acquires a second charging session
    for _ in range(20_000):
        guard = ProviderSessions()
        active: set[str] = set()
        for _ in range(rng.randint(2, 8)):
            sid = rng.choice(["s1", "s2", "s3"])
            if rng.random() < 0.6:
                try:
                    guard.begin_charging(sid)
                except IllegalTransition:
                    assert active and sid not in active
                    continue
                active.add(sid)
                assert len(active) == 1
            else:
                guard.end(sid)
                active.discard(sid)
    _pass(7, f"{sequences} event sequences safe ({transitions_taken} legal transitions), "
             "one-to-one guard held over 20000 sequences")


# --- criterion 8 -----------------------------------------------------------------


def brute_force_first(consumer_pos, adverts):
    best = None
    for candidate in adverts:
        if not candidate.available:
            continue
        d = math.dist(candidate.position, consumer_pos)
        if best is None or (d, candidate.provider_id) < best[:2]:
            best = (d, candidate.provider_id)
    return best[1] if best else None


def test_criterion_8_matching_correctness():
    rng = random.Random(4242)
    for _ in range(1000):
        n = rng.randint(1, 100)
        grid = [0.0, 1.0, 2.0, 3.5]
        adverts = [
            ProviderAdvert(
                f"p{idx:03d}",
                (
                    rng.choice(grid) if rng.random() < 0.4 else rng.uniform(-50, 50),
                    rng.choice(grid) if rng.random() < 0.4 else rng.uniform(-50, 50),
                ),
                rng.uniform(0.0, 100.0),
                rng.choice(list(Technology)),
                available=rng.random() > 0.15,
            )
            for idx in range(n)
        ]
        rng.shuffle(adverts)
        consumer_pos = (rng.uniform(-50, 50), rng.uniform(-50, 50))
        expected = brute_force_first(consumer_pos, adverts)
        ranking = rank_providers(consumer_pos, adverts)
        if expected is None:
            assert ranking == []
            with pytest.raises(NoProviderAvailable):
                select_provider(consumer_pos, adverts)
            continue
        assert select_provider(consumer_pos, adverts) == expected

        rejected: list[str] = []
        walk = []
        while True:
            try:
                nxt = next_after_reject(ranking, rejected)
            except NoProviderAvailable:
                break
            assert nxt not in rejected
            walk.append(nxt)
            rejected.append(nxt)
        assert walk == ranking
    _pass(8, "1000 instances: selection equals brute-force argmin; walk never revisits")


# --- criterion 9 -----------------------------------------------------------------


def canonical_bytes(dataset) -> bytes:
    return (encode_meta(dataset) + trace_csv_text(dataset.records)).encode("utf-8")


def test_criterion_9_tcp_pipeline_round_trip(tmp_path):
    data_dir = tmp_path / "edge-data"
    server = EdgeServer(EdgeStore(data_dir)).start()
    try:
        scenario = parse_scenario_text(
            scenario_text(clock="wall", value=60.0, interval_s=1.0), run_id="demo-tcp"
        )
        result = run_scenario(scenario, pace=50.0, upload_addr=server.address)
        assert result.outcome == OUTCOME_COMPLETED
        assert result.dataset.record_count == 61
        assert result.upload_receipt is not None

        fetched = EdgeClient(server.address).get(result.dataset.session_id)
        assert canonical_bytes(fetched) == canonical_bytes(result.dataset)
    finally:
        server.stop()

    server2 = EdgeServer(EdgeStore(data_dir)).start()
    try:
        refetched = EdgeClient(server2.address).get(result.dataset.session_id)
        assert canonical_bytes(refetched) == canonical_bytes(result.dataset)
    finally:
        server2.stop()
    _pass(9, "60 s TCP session uploaded; dataset byte-identical after fetch and restart")


# --- criterion 10 ----------------------------------------------------------------


def test_criterion_10_determinism(tmp_path):
    traces = []
    for name in ("first", "second"):
        result = run_reference("det", seed=123)
        run_dir = write_run_artifacts(result, tmp_path / name)
        traces.append((run_dir / "trace.csv").read_bytes())
    assert traces[0] == traces[1]
    assert len(traces[0]) > 100_000
    _pass(10, f"two runs produced byte-identical {len(traces[0])}-byte traces")
