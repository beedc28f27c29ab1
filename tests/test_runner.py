"""End-to-end scenario runs: happy path, reject walk, aborts, both transports."""

import errno
import gc
import re
import socket
import sys
import threading
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest
from conftest import build_scenario, scenario_text, stored_dataset

from energyshare.battery import battery_at_level, DrainParams, predict_outcome
from energyshare import report
from energyshare.cli import EXIT_RUN_FAILURE, main
from energyshare.edge import (
    META_FILENAME,
    EdgeClient,
    EdgeServer,
    EdgeStore,
    encode_dataset,
    parse_meta,
    validate_dataset,
)
from energyshare.errors import EnergyShareError
from energyshare.matching import ProviderAdvert
from energyshare.protocol import (
    Abort,
    Accept,
    MonitorSync,
    Reason,
    Request,
    RequestKind,
    StartTransfer,
    encode_message,
    make_request,
)
from energyshare.report import (
    TRACE_FILENAME,
    IncompatibleRuns,
    compare,
    load_run,
    write_run_artifacts,
)
from energyshare.runner import (
    OUTCOME_ABORTED,
    OUTCOME_COMPLETED,
    OUTCOME_NO_PROVIDER,
    _ConsumerAgent,
    _ProviderAgent,
    _drive,
    run_scenario,
)
from energyshare.scenario import parse_scenario, parse_scenario_text
from energyshare.transport import (
    PeerUnreachable,
    RegistryServer,
    SimTransport,
    TcpTransport,
    VirtualClock,
    WallClock,
)


def test_duration_session_happy_path():
    scenario = build_scenario(value=60.0)
    result = run_scenario(scenario)
    assert result.outcome == OUTCOME_COMPLETED
    assert result.terminal_reason is Reason.DURATION_ELAPSED
    dataset = result.dataset
    assert dataset.record_count == 61
    for tick, (provider_record, consumer_record) in enumerate(dataset.records):
        assert provider_record.tick_index == consumer_record.tick_index == tick
        assert provider_record.wall_time_s == consumer_record.wall_time_s
    validate_dataset(dataset)


def test_consumer_receipts_name_each_dataset_tick_once_at_its_time():
    # lossless: every sync arrives, so the receipts name the dataset's ticks one by one
    result = run_scenario(build_scenario(value=30.0))
    assert [(tick, stamp) for tick, stamp, _ in result.sync_receipts] == [
        (c.tick_index, c.wall_time_s) for _, c in result.dataset.records
    ]


def test_a_run_result_holds_its_session_once():
    """A 3,601-pair run's result holds at most 720 bytes a pair: the dataset and the receipts."""
    pairs = 3601
    scenario = build_scenario(value=float(pairs - 1))
    run_scenario(build_scenario(value=5.0))  # first-run caches are not the result's
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = run_scenario(scenario)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert result.dataset.record_count == len(result.sync_receipts) == pairs
    assert held / pairs <= 720


@pytest.mark.parametrize("duration,interval,expected_pairs", [
    (3.0, 1.0, 4),
    (10.0, 2.0, 6),
    (5.0, 0.5, 11),
])
def test_record_count_law_for_exact_multiples(duration, interval, expected_pairs):
    scenario = build_scenario(value=duration, interval_s=interval)
    result = run_scenario(scenario)
    assert result.dataset.record_count == expected_pairs


def test_duration_completes_within_one_tick():
    # duration that is not a tick multiple: completes on the first tick past it
    scenario = build_scenario(value=9.0, interval_s=2.0)
    result = run_scenario(scenario)
    assert result.terminal_reason is Reason.DURATION_ELAPSED
    elapsed = result.dataset.metrics.duration_s
    assert 9.0 <= elapsed < 9.0 + 2.0


def test_amount_session_completes_with_bounded_overshoot():
    scenario = build_scenario(kind="amount", value=50.0)
    result = run_scenario(scenario)
    assert result.terminal_reason is Reason.AMOUNT_DELIVERED
    delivered = result.dataset.records[-1][1].cumulative_transferred_mah
    per_tick_in = scenario.tech_params.efficiency * 1200.0 / 3600.0
    assert 50.0 <= delivered < 50.0 + per_tick_in


def test_amount_tick_count_matches_predictor():
    scenario = build_scenario(kind="amount", value=50.0, consumer_start_pct=10.0)
    consumer = scenario.requesting_consumer()
    provider = scenario.providers()[0]
    predicted = predict_outcome(
        battery_at_level(provider.capacity_mah, provider.start_level_pct),
        battery_at_level(consumer.capacity_mah, consumer.start_level_pct),
        scenario.tech_params,
        DrainParams(provider.baseline_ma),
        DrainParams(consumer.baseline_ma),
        make_request(RequestKind.AMOUNT, 50.0, consumer.device_id),
        scenario.interval_s,
    )
    result = run_scenario(scenario)
    assert result.dataset.record_count == predicted.ticks + 1


def test_reject_walk_reaches_second_provider():
    extra = """
device.p2.role = provider
device.p2.start_level_pct = 90
device.p2.position = 0.0, 5.0
device.p1.accept_threshold_pct = 101
"""
    scenario = parse_scenario_text(
        scenario_text(value=10.0, extra=extra), run_id="walk"
    )
    result = run_scenario(scenario)
    assert result.outcome == OUTCOME_COMPLETED
    # p1 is closer but rejects; the walk lands on p2
    assert result.dataset.provider_id == "p2"


def test_all_rejections_mean_no_provider():
    scenario = build_scenario(
        value=10.0, extra="device.p1.accept_threshold_pct = 101\n"
    )
    result = run_scenario(scenario)
    assert result.outcome == OUTCOME_NO_PROVIDER
    assert result.dataset is None


def test_low_battery_provider_rejects():
    scenario = build_scenario(
        value=10.0, provider_start_pct=20.0
    )  # below the default 30% accept threshold
    result = run_scenario(scenario)
    assert result.outcome == OUTCOME_NO_PROVIDER


def test_oversized_amount_aborts_with_provider_depleted():
    # the provider can deliver at most capacity * efficiency minus overheads
    extra = "device.p1.capacity_mah = 100\n"
    scenario = build_scenario(kind="amount", value=1000.0, extra=extra)
    result = run_scenario(scenario)
    assert result.outcome == OUTCOME_ABORTED
    assert result.terminal_reason is Reason.PROVIDER_DEPLETED
    assert result.dataset is not None  # partial telemetry retained
    validate_dataset(result.dataset)


def test_full_consumer_amount_session_cancels():
    # a consumer pinned at exactly 100% (no self-drain) can never take charge
    scenario = build_scenario(
        kind="amount", value=500.0, consumer_start_pct=100.0,
        extra="device.c1.baseline_ma = 0\n",
    )
    result = run_scenario(scenario)
    assert result.outcome == OUTCOME_ABORTED
    assert result.terminal_reason is Reason.CONSUMER_CANCELLED


def test_provider_cancels_a_session_at_max_ticks():
    scenario = build_scenario(value=60.0, extra="scenario.max_ticks = 3\n")
    result = run_scenario(scenario)
    assert result.outcome == OUTCOME_ABORTED
    assert result.terminal_reason is Reason.CONSUMER_CANCELLED
    assert result.dataset.record_count == 4
    validate_dataset(result.dataset)


def test_message_loss_aborts_with_transport_lost():
    # seed chosen so the drop pattern kills the session after acceptance
    extra = "transport.drop_prob = 0.4\ntransport.request_timeout_s = 3\n"
    scenario = build_scenario(seed=5, value=30.0, extra=extra)
    result = run_scenario(scenario)
    assert result.outcome == OUTCOME_ABORTED
    assert result.terminal_reason is Reason.TRANSPORT_LOST
    assert result.dataset is not None


def test_virtual_runs_are_deterministic(tmp_path):
    traces = []
    for name in ("a", "b"):
        scenario = build_scenario(seed=21, value=45.0)
        result = run_scenario(scenario)
        run_dir = write_run_artifacts(result, tmp_path / name)
        traces.append((run_dir / "trace.csv").read_bytes())
    assert traces[0] == traces[1]


def test_a_virtual_run_refuses_a_pace_before_anything_runs(tmp_path, monkeypatch, capsys):
    """A pace is for wall runs: a virtual one is refused, never silently ignored."""
    monkeypatch.setattr("energyshare.runner._run_virtual", lambda scenario: pytest.fail("ran"))
    refusal = "pace {} is for wall runs only; this one is virtual"
    with pytest.raises(EnergyShareError) as err:
        run_scenario(build_scenario(value=5.0), pace=1000.0)
    assert str(err.value) == refusal.format(1000.0)
    path = tmp_path / "virtual.cfg"
    path.write_text(scenario_text(value=5.0), encoding="utf-8")
    out = tmp_path / "out"
    code = main(["run", "--scenario", str(path), "--pace", "10", "--out", str(out)])
    assert code == EXIT_RUN_FAILURE
    assert capsys.readouterr() == ("", f"error: {refusal.format(10.0)}\n")
    assert not out.exists()


@pytest.mark.parametrize("pace", [0.0, -1.0, float("nan"), float("inf")])
def test_a_pace_not_finite_and_positive_is_refused_before_the_run(pace):
    with pytest.raises(ValueError, match="pace must be finite and > 0"):
        run_scenario(build_scenario(value=5.0), pace=pace)


def test_upload_during_run_reaches_edge(tmp_path):
    store = EdgeStore(tmp_path / "edge-data")
    server = EdgeServer(store).start()
    try:
        scenario = build_scenario(value=15.0)
        result = run_scenario(scenario, upload_addr=server.address)
        assert result.upload_receipt is not None
        stored = stored_dataset(store, result.dataset.session_id)
        assert stored == result.dataset
        assert stored.metrics == result.dataset.metrics
    finally:
        server.stop()


def test_reference_session_upload_receipt(tmp_path):
    # full default 30-minute run: the receipt's count matches the pair law
    store = EdgeStore(tmp_path / "edge-data")
    server = EdgeServer(store).start()
    try:
        result = run_scenario(build_scenario(), upload_addr=server.address)
        assert result.upload_receipt.record_count == 1801
        assert result.upload_receipt.session_id == result.dataset.session_id
    finally:
        server.stop()


def test_report_metrics_equal_edge_stored_metrics(tmp_path):
    store = EdgeStore(tmp_path / "edge-data")
    server = EdgeServer(store).start()
    try:
        run_dirs = []
        stored_losses = {}
        for tech in ("cable", "reverse"):
            scenario = parse_scenario_text(
                scenario_text(value=20.0, technology=tech), run_id=tech
            )
            result = run_scenario(scenario, upload_addr=server.address)
            run_dirs.append(write_run_artifacts(result, tmp_path / tech))
            stored = stored_dataset(store, result.dataset.session_id)
            stored_losses[tech] = stored.metrics.energy_loss_mah
    finally:
        server.stop()
    report = compare(run_dirs, tmp_path / "summary.csv")
    for row in report.runs:
        assert row.energy_loss_mah == stored_losses[row.technology]


@pytest.mark.parametrize("latency", [0.0, 0.05, 0.4])
@pytest.mark.parametrize("kind,value", [("duration", 6.0), ("amount", 2.0)])
def test_liveness_under_fair_delivery(latency, kind, value):
    # lossless transport: every accepted session reaches a terminal state
    scenario = build_scenario(
        kind=kind, value=value, extra=f"transport.latency_s = {latency}\n"
    )
    result = run_scenario(scenario)
    assert result.outcome in (OUTCOME_COMPLETED, OUTCOME_ABORTED)
    assert result.dataset is not None


# --- wall clock / contract equivalence ------------------------------------------------


def test_wall_mode_matches_virtual_results():
    virtual = run_scenario(build_scenario(value=8.0))
    wall = run_scenario(build_scenario(clock="wall", value=8.0), pace=40.0)
    assert wall.outcome == virtual.outcome == OUTCOME_COMPLETED
    assert wall.terminal_reason is virtual.terminal_reason
    assert wall.dataset.record_count == virtual.dataset.record_count
    assert wall.dataset.metrics.provider_loss_mah == virtual.dataset.metrics.provider_loss_mah
    assert wall.dataset.metrics.consumer_gain_mah == virtual.dataset.metrics.consumer_gain_mah
    assert wall.dataset.metrics.energy_loss_mah == virtual.dataset.metrics.energy_loss_mah


# drop-free wall scenarios at pace 200 -> (scenario_text arguments, outcome, provider charging)
WALL_TWINS = {
    "interval_0.5_duration_wireless": (
        dict(interval_s=0.5, value=30.0), OUTCOME_COMPLETED, "p1"
    ),
    "interval_1_amount_cable": (
        dict(kind="amount", value=5.0, technology="cable"), OUTCOME_COMPLETED, "p1"
    ),
    "interval_2_duration_reverse": (
        dict(interval_s=2.0, value=60.0, technology="reverse"), OUTCOME_COMPLETED, "p1"
    ),
    "interval_0.5_amount_reverse": (
        dict(interval_s=0.5, kind="amount", value=3.0, technology="reverse"),
        OUTCOME_COMPLETED, "p1",
    ),
    # p1, the nearer, is at 20%, below its 30% accept threshold: the consumer walks on to p2
    "nearer_provider_below_threshold": (
        dict(value=20.0, provider_start_pct=20.0,
             extra="device.p2.role = provider\ndevice.p2.position = 0.0, 5.0\n"),
        OUTCOME_COMPLETED, "p2",
    ),
    "no_provider": (
        dict(value=10.0, extra="device.p1.accept_threshold_pct = 101\n"), OUTCOME_NO_PROVIDER, None
    ),
}


def _off_the_clock(result):
    """A run as its clock leaves it: each row's time is the first row's plus its tick's
    multiple of the interval, and with the times taken out the rest must match a twin's."""
    dataset = result.dataset
    if dataset is not None:
        start = dataset.records[0][0].wall_time_s
        assert all(
            record.wall_time_s == start + record.tick_index * dataset.interval_s
            for pair in dataset.records for record in pair
        )
        rows = tuple(
            tuple(record._replace(wall_time_s=None) for record in pair) for pair in dataset.records
        )
        dataset = replace(dataset, records=rows)
    return result.outcome, result.terminal_reason, dataset


@pytest.mark.parametrize("kwargs,outcome,provider_id", WALL_TWINS.values(), ids=list(WALL_TWINS))
def test_a_wall_run_is_its_virtual_twin_on_another_clock(kwargs, outcome, provider_id):
    """Outcome, terminal reason, metrics and every row field but the time match."""
    wall = run_scenario(build_scenario("twin", clock="wall", **kwargs), pace=200.0)
    extra = kwargs.get("extra", "") + "transport.latency_s = 0\n"
    virtual = run_scenario(build_scenario("twin", **{**kwargs, "extra": extra}))
    assert virtual.outcome == outcome
    assert (virtual.dataset and virtual.dataset.provider_id) == provider_id
    assert _off_the_clock(wall) == _off_the_clock(virtual)


def test_wall_mode_sync_receipts_stay_synchronized():
    # unpaced wall run: consumer receives each pulse within half an interval
    interval = 0.2
    scenario = build_scenario(clock="wall", value=1.0, interval_s=interval)
    result = run_scenario(scenario)
    assert result.outcome == OUTCOME_COMPLETED
    assert len(result.sync_receipts) == result.dataset.record_count
    for _, wall_time_s, received_at in result.sync_receipts:
        assert abs(received_at - wall_time_s) <= interval / 2


def test_wall_mode_ignores_system_clock_steps(monkeypatch):
    # the system clock steps back an hour 0.3 s into a 1 s run
    real_time, start = time.time, time.monotonic()
    monkeypatch.setattr(
        time, "time", lambda: real_time() - (3600.0 if time.monotonic() - start > 0.3 else 0.0)
    )
    interval = 0.2
    result = run_scenario(build_scenario(clock="wall", value=1.0, interval_s=interval))
    assert result.outcome == OUTCOME_COMPLETED
    assert result.dataset.record_count == round(1.0 / interval) + 1


def test_wall_run_leaves_no_threads():
    before = set(threading.enumerate())
    result = run_scenario(build_scenario(clock="wall", value=2.0), pace=20.0)
    assert result.outcome == OUTCOME_COMPLETED
    deadline = time.monotonic() + 2.0
    while True:
        left = [t for t in threading.enumerate() if t not in before]
        if not left or time.monotonic() > deadline:
            break
        time.sleep(0.01)
    assert left == []


def test_wall_run_starts_only_registry_threads(monkeypatch):
    started = []
    real_start = threading.Thread.start

    def start(thread):
        started.append(thread.name)
        real_start(thread)

    monkeypatch.setattr(threading.Thread, "start", start)
    result = run_scenario(build_scenario(clock="wall", value=2.0), pace=20.0)
    assert result.outcome == OUTCOME_COMPLETED
    # the transport reads on the loop's thread and starts no thread; the registry serves
    # every command's connection from one selector loop, on its one thread
    assert started == ["registry"]


@pytest.mark.parametrize(
    "hostile",
    [("capacity_mah=2915.0", "capacity_mah=0.0"), ("capacity_mah=2915.0", "capacity_mah=nan"),
     ("baseline_ma=40.0", "baseline_ma=nan")],
    ids=lambda edit: edit[1],
)
def test_provider_drops_hostile_request_and_serves_the_next(hostile):
    scenario = build_scenario(clock="wall")
    registry = RegistryServer().start()
    transport = TcpTransport(registry.address)
    try:
        provider = _ProviderAgent(
            scenario.providers()[0], scenario, transport, WallClock(transport.poll), 1.0
        )
        provider.start()
        consumer = "c1"
        transport.register(consumer)

        def deliver(rounds):
            for _ in range(rounds):
                transport.poll(0.02)
                for msg in transport.receive(provider.device_id):
                    provider.on_message(msg)

        def request(request_id):
            return Request(make_request("amount", 10.0, "c1", request_id=request_id),
                           (0.0, 0.0), 2915.0, 1166.0, 40.0)

        line = encode_message(request("req-bad")).replace(*hostile)
        with socket.create_connection(transport._servers[provider.device_id].getsockname()) as stranger:
            stranger.sendall((line + "\n").encode("utf-8"))
            deliver(10)
        assert provider.engine is None
        transport.send(consumer, "p1", request("req-good"))
        deadline = time.monotonic() + 5.0
        while provider.engine is None and time.monotonic() < deadline:
            deliver(1)
        assert provider.engine.session.request.request_id == "req-good"
    finally:
        transport.close()
        registry.stop()


# --- comparison reports ------------------------------------------------------------------


def run_and_write(tmp_path, run_id, **kwargs):
    scenario = parse_scenario_text(scenario_text(**kwargs), run_id=run_id)
    result = run_scenario(scenario)
    return write_run_artifacts(result, tmp_path / run_id)


def test_compare_across_technologies(tmp_path):
    dirs = [
        run_and_write(tmp_path, tech, value=120.0, technology=tech)
        for tech in ("cable", "reverse", "wireless_distance")
    ]
    report = compare(dirs, tmp_path / "summary.csv")
    assert report.max_energy_loss_run().technology == "reverse"
    text = (tmp_path / "summary.csv").read_text(encoding="utf-8")
    header, *rows = text.strip().split("\n")
    assert header.startswith("run_id,technology,start_level_pct,duration_s")
    assert len(rows) == 3
    curves = report.curves_path.read_text(encoding="utf-8").strip().split("\n")
    assert curves[0].split(",")[:2] == ["tick_index", "elapsed_s"]
    assert len(curves) == 1 + 121  # header + ticks 0..120


def test_compare_requires_two_runs(tmp_path):
    run_dir = run_and_write(tmp_path, "solo", value=5.0)
    with pytest.raises(IncompatibleRuns):
        compare([run_dir], tmp_path / "summary.csv")


def test_compare_rejects_mixed_intervals(tmp_path):
    d1 = run_and_write(tmp_path, "one", value=6.0, interval_s=1.0)
    d2 = run_and_write(tmp_path, "two", value=6.0, interval_s=2.0)
    with pytest.raises(IncompatibleRuns):
        compare([d1, d2], tmp_path / "summary.csv")


def test_compare_pads_the_shorter_runs_curve_cells_with_blanks(tmp_path):
    short = run_and_write(tmp_path, "short", value=3.0)  # 4 record pairs
    long = run_and_write(tmp_path, "long", value=5.0)  # 6 record pairs
    report = compare([short, long], tmp_path / "summary.csv")
    header, *rows = report.curves_path.read_text(encoding="utf-8").splitlines()
    assert header.split(",")[2:] == [
        "short_provider_level_pct", "short_consumer_level_pct",
        "long_provider_level_pct", "long_consumer_level_pct",
    ]
    cells = [row.split(",") for row in rows]
    assert [row[0] for row in cells] == [str(tick) for tick in range(6)]
    assert all(cell for row in cells[:4] for cell in row)
    assert [row[2:4] for row in cells[4:]] == [["", ""], ["", ""]]
    assert all(cell for row in cells[4:] for cell in row[4:])


def test_each_reader_of_a_dataset_text_runs_the_gate_once(tmp_path, decodes):
    """Client GET and load_run each run the one decoder once: one gate, one ``RecordReader``,
    and neither whole-text step; a TCP upload runs the text gate once, and the gate only to
    check its metrics."""
    result = run_scenario(build_scenario(value=10.0))
    run_dir = write_run_artifacts(result, tmp_path / "run")
    server = EdgeServer(EdgeStore(tmp_path / "edge-data")).start()
    client = EdgeClient(server.address)
    reads = {
        "tcp_upload": lambda: client.upload(result.dataset),
        "tcp_reupload": lambda: client.upload(result.dataset),
        "client_get": lambda: client.get(result.dataset.session_id),
        "load_run": lambda: load_run(run_dir),
    }
    steps = {}
    try:
        for name, read in reads.items():
            decodes.clear()
            read()
            steps[name] = sorted(decodes)
    finally:
        server.stop()
    # a byte-identical re-upload is compared with the stored files, not decoded
    assert steps == {**dict.fromkeys(reads, ["RecordReader", "_Gate"]),
                     "tcp_upload": ["_Gate", "_TextGate"], "tcp_reupload": []}


def test_load_run_and_compare_refuse_a_middle_row_out_of_range(tmp_path):
    run_dir = run_and_write(tmp_path, "edited", value=10.0)
    other = run_and_write(tmp_path, "other", value=10.0)
    trace = run_dir / TRACE_FILENAME
    lines = trace.read_text(encoding="utf-8").splitlines()
    fields = lines[12].split(",")  # after the header, two rows a tick: tick 5's consumer row
    assert (fields[0], fields[4]) == ("5", "consumer")
    fields[5:7] = ["250.0", "99999.0"]  # battery_level_pct, battery_charge_mah
    lines[12] = ",".join(fields)
    trace.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(IncompatibleRuns, match="tick 5: "):
        load_run(run_dir)
    with pytest.raises(IncompatibleRuns, match="tick 5: "):
        compare([other, run_dir], tmp_path / "summary.csv")


def test_load_run_skips_blank_lines_in_its_key_value_files(tmp_path):
    run_dir = run_and_write(tmp_path, "spaced", value=10.0)
    loaded = load_run(run_dir)
    for path in (run_dir / "run.txt", run_dir / META_FILENAME):
        path.write_text("\n" + path.read_text(encoding="utf-8").replace("\n", "\n \n"), encoding="utf-8")
    assert load_run(run_dir) == loaded


@pytest.mark.parametrize("run_id", ["b,evil", "a b", "..", ""])
def test_load_run_refuses_a_run_id_that_is_not_an_id(tmp_path, run_id):
    """A run id is a CSV cell and a column-name prefix in compare: it must be an id."""
    run_dir = run_and_write(tmp_path, "renamed", value=5.0)
    info = run_dir / "run.txt"
    text = info.read_text(encoding="utf-8").replace("run_id = renamed", f"run_id = {run_id}")
    info.write_text(text, encoding="utf-8")
    with pytest.raises(IncompatibleRuns, match="run_id"):
        load_run(run_dir)


def test_compare_refuses_two_runs_with_one_run_id(tmp_path):
    first = run_and_write(tmp_path / "first", "same", value=5.0)
    second = run_and_write(tmp_path / "second", "same", value=6.0)
    with pytest.raises(IncompatibleRuns, match="share a run id"):
        compare([first, second], tmp_path / "summary.csv")
    assert not (tmp_path / "summary.csv").exists()


def test_load_run_round_trip(tmp_path):
    run_dir = run_and_write(tmp_path, "roundtrip", value=10.0)
    loaded = load_run(run_dir)
    assert loaded.run_id == "roundtrip"
    assert loaded.technology == "wireless_distance"
    assert len(loaded.pairs) == 11
    assert loaded.dataset.terminal_reason is Reason.DURATION_ELAPSED


def test_run_directory_holds_the_edge_files_and_the_run_facts(tmp_path):
    result = run_scenario(build_scenario(value=10.0))
    run_dir = write_run_artifacts(result, tmp_path / "run")
    store = EdgeStore(tmp_path / "edge-data")
    store.upload(*encode_dataset(result.dataset))
    for name in (META_FILENAME, TRACE_FILENAME):
        stored = store.data_dir / result.dataset.session_id / name
        assert (run_dir / name).read_bytes() == stored.read_bytes()
    info = parse_meta((run_dir / "run.txt").read_text(encoding="utf-8"))
    assert list(info) == ["run_id", "outcome", "terminal_reason", "consumer_start_level_pct"]


def test_a_run_without_a_dataset_leaves_none_in_its_directory(tmp_path):
    run_dir = run_and_write(tmp_path, "reused", value=5.0)
    rejected = scenario_text(value=5.0, extra="device.p1.accept_threshold_pct = 101\n")
    result = run_scenario(parse_scenario_text(rejected, run_id="reused"))
    assert result.dataset is None
    write_run_artifacts(result, run_dir)
    assert sorted(path.name for path in run_dir.iterdir()) == ["run.txt"]
    with pytest.raises(IncompatibleRuns):
        load_run(run_dir)


def test_a_write_cut_short_never_leaves_a_mix_of_two_runs(tmp_path, monkeypatch):
    scenarios = Path(__file__).resolve().parents[1] / "scenarios"
    old, new = (run_scenario(parse_scenario(scenarios / f"exp2_level{level}.cfg")) for level in (10, 70))
    run_dir = write_run_artifacts(old, tmp_path / "run")

    def disk_full(info):
        raise OSError(errno.ENOSPC, "No space left on device")

    with monkeypatch.context() as patch:  # the new dataset is written, its run.txt is not
        patch.setattr(report, "format_meta", disk_full)
        with pytest.raises(OSError):
            write_run_artifacts(new, run_dir)
    with pytest.raises(IncompatibleRuns):
        load_run(run_dir)
    write_run_artifacts(new, run_dir)
    assert sorted(path.name for path in run_dir.iterdir()) == ["meta.txt", "run.txt", "trace.csv"]
    loaded = load_run(run_dir)
    assert (loaded.run_id, loaded.start_level_pct) == ("exp2_level70", 70.0)
    assert loaded.dataset == new.dataset


@pytest.mark.parametrize(
    "key, value",
    [("energy_loss_mah", "nan"), ("energy_loss_mah", "1.5"), ("duration_s", "-5.0"),
     ("consumer_gain_mah", "9999.0")],
)
def test_load_run_rejects_a_metric_its_trace_does_not_give(tmp_path, key, value):
    run_dir = run_and_write(tmp_path, "edited", value=10.0)
    # the file that holds the metric, whichever it is
    (path,) = [p for p in run_dir.iterdir() if f"\n{key} = " in p.read_text(encoding="utf-8")]
    text = re.sub(rf"^{key} = .*$", f"{key} = {value}", path.read_text(encoding="utf-8"),
                  flags=re.MULTILINE)
    path.write_text(text, encoding="utf-8")
    with pytest.raises(IncompatibleRuns):
        load_run(run_dir)


def test_load_run_rejects_an_infinite_charge_at_the_trace_end(tmp_path):
    run_dir = run_and_write(tmp_path, "edited", value=10.0)
    trace = run_dir / TRACE_FILENAME
    lines = trace.read_text(encoding="utf-8").splitlines()
    fields = lines[-1].split(",")
    fields[6] = "inf"  # the last consumer row's battery_charge_mah
    lines[-1] = ",".join(fields)
    trace.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(IncompatibleRuns):
        load_run(run_dir)


@pytest.mark.parametrize(
    "name, edit",
    [
        ("run.txt", lambda text: text + "not a key value line\n"),
        (META_FILENAME, lambda text: text.replace("interval_s = ", "interval_s = x")),
        (META_FILENAME, lambda text: text.replace("technology = ", "technologie = ")),
        ("run.txt", lambda text: text + text.splitlines()[0] + "\n"),  # the first key, repeated
    ],
    ids=["run_txt_line_not_key_value", "meta_interval_not_a_number", "meta_key_misspelt",
         "run_txt_key_repeated"],
)
def test_load_run_rejects_malformed_run_txt(tmp_path, name, edit):
    run_dir = run_and_write(tmp_path, "broken", value=5.0)
    path = run_dir / name
    path.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8")
    with pytest.raises(IncompatibleRuns):
        load_run(run_dir)


def test_load_run_rejects_a_consumer_row_before_its_provider_row(tmp_path):
    run_dir = run_and_write(tmp_path, "swapped", value=5.0)
    trace = run_dir / TRACE_FILENAME
    lines = trace.read_text(encoding="utf-8").splitlines()
    lines[5], lines[6] = lines[6], lines[5]  # the two rows of tick 2
    trace.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(IncompatibleRuns, match="tick 2: "):
        load_run(run_dir)


def test_load_run_rejects_negative_tick_in_trace(tmp_path):
    run_dir = run_and_write(tmp_path, "broken", value=5.0)
    trace = run_dir / TRACE_FILENAME
    lines = trace.read_text(encoding="utf-8").splitlines()
    lines[-1] = "-" + lines[-1]  # the last consumer row, tick 5 -> -5
    trace.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(IncompatibleRuns):
        load_run(run_dir)


@pytest.mark.parametrize(
    "edit",
    [lambda lines: lines + lines[-1:], lambda lines: lines[:-1]],  # the last consumer row
    ids=["repeated", "dropped"],
)
def test_load_run_rejects_a_tick_that_does_not_pair(tmp_path, edit):
    run_dir = run_and_write(tmp_path, "broken", value=5.0)
    trace = run_dir / TRACE_FILENAME
    lines = edit(trace.read_text(encoding="utf-8").splitlines())
    trace.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(IncompatibleRuns):
        load_run(run_dir)


def test_consumer_ignores_a_sync_whose_tick_goes_backwards():
    scenario = build_scenario()
    clock = VirtualClock()
    transport = SimTransport(clock)
    provider = "p1"
    transport.register(provider)
    transport.advertise(provider, ProviderAdvert("p1", (0.0, 1.0), 100.0, scenario.tech_params.technology))
    consumer = _ConsumerAgent(
        scenario.requesting_consumer(), scenario, transport, clock, sync_timeout_s=5.0
    )
    consumer.start()
    request_id, session_id = consumer.view.request.request_id, consumer.view.session_id
    consumer.on_message(Accept(request_id))
    consumer.on_message(StartTransfer(session_id, request_id, scenario.interval_s))
    for tick in (2, 1, 2, 3):
        consumer.on_message(MonitorSync(session_id, tick, float(tick), 1200.0 + tick, 0.5 * tick))
    assert [tick for tick, _, _ in consumer.sync_receipts] == [2, 3]
    assert consumer.outcome is None


def test_consumer_ends_transport_lost_when_its_abort_cannot_be_sent(monkeypatch):
    scenario = build_scenario()
    clock = VirtualClock()
    transport = SimTransport(clock)
    transport.register("p1")
    transport.advertise("p1", ProviderAdvert("p1", (0.0, 1.0), 100.0, scenario.tech_params.technology))
    consumer = _ConsumerAgent(
        scenario.requesting_consumer(), scenario, transport, clock, sync_timeout_s=5.0
    )
    consumer.start()
    request_id, session_id = consumer.view.request.request_id, consumer.view.session_id
    consumer.on_message(Accept(request_id))
    consumer.on_message(StartTransfer(session_id, request_id, scenario.interval_s))
    sent = []

    def unreachable(frm, to, msg):
        sent.append(msg)
        raise PeerUnreachable(to)

    monkeypatch.setattr(transport, "send", unreachable)
    clock.wait_until(clock.now_s + 5.0)  # the sync deadline passes with no sync
    consumer.on_time()
    assert sent == [Abort(session_id, Reason.TRANSPORT_LOST)]
    assert consumer.outcome == OUTCOME_ABORTED
    assert consumer.view.terminal_reason is Reason.TRANSPORT_LOST
    assert consumer.next_wakeup() is None


# --- the event loop's ordering rule ------------------------------------------------------


class _ScriptedDevice:
    """A device for ``_drive`` that logs each message and timer it is served.

    Its one timer, if any, fires at ``wake_at`` and sends to ``on_timer``;
    its first message makes it send to ``on_message``. Each send carries
    the sender's id.
    """

    def __init__(self, device_id, transport, log, wake_at=None, on_timer=(), on_message=()):
        transport.register(device_id)
        self.device_id = device_id
        self.transport = transport
        self.log = log
        self.wake_at = wake_at
        self.timer_sends = on_timer
        self.message_sends = on_message

    def _send_all(self, targets):
        for to in targets:
            self.transport.send(self.device_id, to, Accept(self.device_id))

    def on_message(self, msg):
        self.log.append(f"{self.device_id}<-{msg.request_id}")
        targets, self.message_sends = self.message_sends, ()
        self._send_all(targets)

    def on_time(self):
        if self.wake_at is not None and self.transport.clock.now_s >= self.wake_at:
            self.log.append(f"{self.device_id}:timer")
            self.wake_at = None
            self._send_all(self.timer_sends)

    def next_wakeup(self):
        return self.wake_at


def test_drive_serves_an_instant_in_passes_in_device_order():
    """Latency 0: every send falls due in the instant it is made."""
    clock = VirtualClock()
    transport = SimTransport(clock, latency_s=0.0)
    log = []
    devices = [
        _ScriptedDevice("a", transport, log, on_message=("b",)),
        _ScriptedDevice("b", transport, log, wake_at=1.0, on_timer=("a", "c", "d")),
        _ScriptedDevice("c", transport, log),
        _ScriptedDevice("d", transport, log, wake_at=1.0),
    ]
    _drive(devices, transport, clock, stop_at=10.0)
    assert log == [
        "b:timer",  # the first due device; makes a (behind it), c and d (ahead) due
        "c<-b",  # due ahead of b: served in this pass
        "d<-b", "d:timer",  # a device's messages before its timer
        "a<-b",  # due behind b: the next pass; makes b due ahead of a
        "b<-a",  # ... so b is served again in that pass
    ]
    assert clock.now_s == 1.0


def test_virtual_run_gathers_due_devices_once_per_instant(monkeypatch):
    """A tick is two instants (the provider's timer, the consumer's sync): one gather each."""
    gathers = 0
    due_devices = SimTransport.due_devices

    def counting(self):
        nonlocal gathers
        gathers += 1
        return due_devices(self)

    monkeypatch.setattr(SimTransport, "due_devices", counting)
    result = run_scenario(build_scenario(value=300.0))
    ticks = result.dataset.record_count - 1
    assert ticks == 300
    # plus the start instant, the request's arrival and the reply's arrival
    assert gathers <= 2 * ticks + 3


def _python_calls(ticks: int) -> int:
    """Python-level calls (profiler ``call`` events) of one lossless virtual session."""
    scenario = build_scenario(value=float(ticks))
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    gc.collect()  # no finalizer of an earlier test's garbage runs inside the count
    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        result = run_scenario(scenario)
    finally:
        sys.setprofile(previous)
    assert result.dataset.record_count == ticks + 1
    return calls


def test_a_virtual_tick_makes_at_most_36_python_calls():
    """The event loop, the engine and one transport hop per tick, counted as the
    difference of two session lengths so the fixed cost of a session drops out."""
    per_tick = (_python_calls(400) - _python_calls(100)) / 300
    assert per_tick <= 36
