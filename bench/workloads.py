"""The four benchmark workloads, their seeded inputs and their checks.

Every workload is a closed loop: one client issues its next operation when
the previous one has completed. Inputs are a pure function of
``(seed, operation index)``; session lengths, provider counts and dataset
sizes are drawn per cycle of operations from fixed strata in a seeded
order, so the medians of a run do not depend on which random draws landed
in it.

The program is a black box: inputs go in through its public entry points
(scenario text, ``run_scenario``, ``write_run_artifacts``, ``load_run``,
``EdgeClient`` and ``python -m energyshare.cli edge serve``). Calls the
benchmark makes only to check results use functions imported by name
here, so tracing (which replaces module attributes) never counts them.
"""

from __future__ import annotations

import hashlib
import os
import random
import resource
import select
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from energyshare import report, runner, scenario
from energyshare.battery import (
    DrainParams,
    OutsideConstantRegime,
    Technology,
    battery_at_level,
    default_params,
    predict_outcome,
)
from energyshare.edge import (
    EdgeClient,
    EdgeServer,
    EdgeStore,
    dataset_digest,
    dataset_from_parts,
    encode_meta,
    parse_meta,
    validate_dataset,
)
from energyshare.errors import EnergyShareError
from energyshare.monitor import records_from_csv_text, trace_csv_text
from energyshare.protocol import Reason, make_request
from energyshare.util import rel_close

from harness import Metric, Recorder, latency_metrics

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
DEFAULT_SEED = 0
GOLDEN_OPS = 5  # operations of the default seed whose trace digests are committed
HARD_STOP_S = 150.0  # no operation starts later than this after the process started

TECHNOLOGIES = tuple(t.value for t in Technology)
COMPLETED_REASONS = (Reason.DURATION_ELAPSED, Reason.AMOUNT_DELIVERED)


def _fmt(x: float) -> str:
    return repr(float(x))


def _cycle_order(tag: str, seed: int, cycle: int, size: int) -> list[int]:
    order = list(range(size))
    random.Random(f"{tag}:{seed}:cycle{cycle}").shuffle(order)
    return order


def _amount_for_ticks(technology: str, interval_s: float, ticks: int) -> float:
    """An amount the constant-rate regime delivers in exactly ``ticks`` ticks."""
    params = default_params(Technology(technology))
    per_in = params.efficiency * params.transfer_rate_ma * interval_s / 3600.0
    return (ticks - 0.5) * per_in


def _request_lines(rng: random.Random, technology: str, interval_s: float, ticks: int) -> list[str]:
    if rng.random() < 0.5:
        return ["request.kind = duration", f"request.value = {_fmt(ticks * interval_s)}"]
    # an amount request that tapers or stalls is cancelled just past its tick budget
    return [
        "request.kind = amount",
        f"request.value = {_fmt(_amount_for_ticks(technology, interval_s, ticks))}",
        f"scenario.max_ticks = {ticks + 2}",
    ]


# --- inputs ------------------------------------------------------------------------

SOLO_TICK_STRATA = (300, 1470, 7200)
CAFE_PROVIDER_STRATA = (100, 250, 400)
EDGE_PAIR_STRATA = (300, 1500, 3600)
EDGE_CYCLE = ("write",) * 4 + ("reupload",) + ("read",) * 4 + ("list",)
WALL_PACE = 100.0
WALL_INTERVALS = (0.5, 1.0, 2.0)  # an odd count keeps each median inside one stratum
WALL_READS = 3  # GETs of each uploaded session: a few ms each, so one would give too few samples


def solo_text(seed: int, i: int) -> str:
    """One provider, one consumer; length, technology, kind, interval and level vary."""
    stratum = _cycle_order("solo", seed, i // len(SOLO_TICK_STRATA), len(SOLO_TICK_STRATA))[
        i % len(SOLO_TICK_STRATA)
    ]
    rng = random.Random(f"solo:{seed}:{i}")
    ticks = SOLO_TICK_STRATA[stratum] + rng.randint(-3, 3)
    technology = rng.choice(TECHNOLOGIES)
    interval_s = rng.choice((0.5, 1.0, 2.0))
    lines = [
        f"scenario.run_id = solo-{seed}-{i}",
        f"scenario.seed = {rng.randrange(1 << 16)}",
        f"monitor.interval_s = {_fmt(interval_s)}",
        f"technology.name = {technology}",
        *_request_lines(rng, technology, interval_s, ticks),
        "device.p1.role = provider",
        "device.p1.capacity_mah = 6000",  # enough for 7200 ticks of 2 s: lengths stay as drawn
        f"device.p1.position = 0.0, {rng.uniform(0.01, 0.5):.3f}",
        "device.c1.role = consumer",
        f"device.c1.start_level_pct = {rng.uniform(5.0, 85.0):.2f}",
        "device.c1.position = 0.0, 0.0",
    ]
    return "\n".join(lines) + "\n"


def cafe_text(seed: int, i: int) -> str:
    """100-400 providers in a 20 m x 20 m room, half below their accept threshold, 1% drops."""
    stratum = _cycle_order("cafe", seed, i // len(CAFE_PROVIDER_STRATA), len(CAFE_PROVIDER_STRATA))[
        i % len(CAFE_PROVIDER_STRATA)
    ]
    rng = random.Random(f"cafe:{seed}:{i}")
    providers = CAFE_PROVIDER_STRATA[stratum] + rng.randint(-3, 3)
    technology = rng.choice(TECHNOLOGIES)
    lines = [
        f"scenario.run_id = cafe-{seed}-{i}",
        f"scenario.seed = {rng.randrange(1 << 16)}",
        "monitor.interval_s = 1",
        f"technology.name = {technology}",
        "transport.drop_prob = 0.01",
        *_request_lines(rng, technology, 1.0, 300),
        "device.c1.role = consumer",
        f"device.c1.start_level_pct = {rng.uniform(5.0, 60.0):.2f}",
        f"device.c1.position = {rng.uniform(0, 20):.3f}, {rng.uniform(0, 20):.3f}",
    ]
    for k in range(providers):
        low = rng.random() < 0.5
        level = rng.uniform(5.0, 29.5) if low else rng.uniform(30.5, 100.0)
        lines += [
            f"device.p{k:03d}.role = provider",
            f"device.p{k:03d}.start_level_pct = {level:.2f}",
            f"device.p{k:03d}.position = {rng.uniform(0, 20):.3f}, {rng.uniform(0, 20):.3f}",
        ]
    return "\n".join(lines) + "\n"


def edge_base_text(seed: int, c: int) -> str:
    """A virtual session of about ``EDGE_PAIR_STRATA[c]`` record pairs to derive datasets from."""
    rng = random.Random(f"edge:{seed}:base{c}")
    pairs = EDGE_PAIR_STRATA[c] + rng.randint(-3, 3)
    lines = [
        f"scenario.run_id = edge-{seed}-b{c}",
        "monitor.interval_s = 1",
        f"technology.name = {rng.choice(TECHNOLOGIES)}",
        "request.kind = duration",
        f"request.value = {pairs - 1}",
        "device.p1.role = provider",
        "device.p1.position = 0.0, 0.02",
        "device.c1.role = consumer",
        f"device.c1.start_level_pct = {rng.uniform(5.0, 40.0):.2f}",
    ]
    return "\n".join(lines) + "\n"


def wall_text(seed: int, i: int, tag: str) -> tuple[str, float, float]:
    """A paced wall-clock session over loopback TCP; returns (text, duration, interval)."""
    rng = random.Random(f"wall:{seed}:{i}")
    interval_s = WALL_INTERVALS[i % len(WALL_INTERVALS)]
    duration_s = interval_s * round(rng.uniform(72.0, 88.0) / interval_s)
    lines = [
        f"scenario.run_id = wall-{seed}-{tag}{i}",
        "scenario.clock = wall",
        f"monitor.interval_s = {_fmt(interval_s)}",
        f"technology.name = {rng.choice(TECHNOLOGIES)}",
        "request.kind = duration",
        f"request.value = {_fmt(duration_s)}",
        "device.p1.role = provider",
        "device.p1.position = 0.0, 0.02",
        "device.c1.role = consumer",
        f"device.c1.start_level_pct = {rng.uniform(5.0, 60.0):.2f}",
    ]
    return "\n".join(lines) + "\n", duration_s, interval_s


# --- checks ------------------------------------------------------------------------


def trace_sha(result) -> str:
    return hashlib.sha256(trace_csv_text(result.dataset.records).encode("utf-8")).hexdigest()


def check_session(rec: Recorder, parsed, result, run_dir: Path | None, loaded) -> None:
    """Checks every virtual or wall session passes, whatever its outcome."""
    rec.check(
        result.outcome in (runner.OUTCOME_COMPLETED, runner.OUTCOME_ABORTED, runner.OUTCOME_NO_PROVIDER),
        f"{parsed.run_id}: unknown outcome {result.outcome!r}",
    )
    if result.dataset is None:
        return
    try:
        validate_dataset(result.dataset)
    except EnergyShareError as exc:
        rec.check(False, f"{parsed.run_id}: validate_dataset: {exc}")
    if loaded is not None:
        expected = trace_csv_text(result.dataset.records).encode("utf-8")
        rec.check((run_dir / report.TRACE_FILENAME).read_bytes() == expected,
                  f"{parsed.run_id}: trace.csv differs from the run's records")
        rec.check(len(loaded.pairs) == result.dataset.record_count,
                  f"{parsed.run_id}: load_run read {len(loaded.pairs)} pairs")
    if result.dataset.terminal_reason in COMPLETED_REASONS:
        check_prediction(rec, parsed, result)


def check_prediction(rec: Recorder, parsed, result) -> None:
    """A completed constant-regime session matches the closed-form predictor."""
    d = result.dataset
    provider = next(p for p in parsed.devices if p.device_id == d.provider_id)
    consumer = parsed.requesting_consumer()
    try:
        predicted = predict_outcome(
            battery_at_level(provider.capacity_mah, provider.start_level_pct),
            battery_at_level(consumer.capacity_mah, consumer.start_level_pct),
            parsed.tech_params,
            DrainParams(provider.baseline_ma),
            DrainParams(consumer.baseline_ma),
            make_request(parsed.request_kind, parsed.request_value, consumer.device_id, "bench-check"),
            parsed.interval_s,
        )
    except OutsideConstantRegime:
        return
    last_provider, last_consumer = d.records[-1]
    rec.check(predicted.ticks == d.record_count - 1,
              f"{parsed.run_id}: {d.record_count - 1} ticks, predicted {predicted.ticks}")
    rec.check(rel_close(predicted.provider_charge_mah, last_provider.battery_charge_mah, 1e-9)
              and rel_close(predicted.consumer_charge_mah, last_consumer.battery_charge_mah, 1e-9),
              f"{parsed.run_id}: final charges differ from the predictor")


# --- edge service process ----------------------------------------------------------


class EdgeProcess:
    """``python -m energyshare.cli edge serve`` on a free loopback port."""

    READY_TIMEOUT_S = 30.0

    def __init__(self, data_dir: Path):
        start = time.perf_counter()
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self.proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "energyshare.cli", "edge", "serve",
             "--host", "127.0.0.1", "--port", "0", "--data-dir", str(data_dir)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env, cwd=ROOT,
        )
        ready, _, _ = select.select([self.proc.stdout], [], [], self.READY_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        prefix = "edge service listening on "
        if not line.startswith(prefix):
            self.stop()
            raise RuntimeError(f"edge server did not start: {line.strip()!r}")
        self.address = line[len(prefix):].split(",")[0].strip()
        self.ready_s = time.perf_counter() - start

    def _proc_file(self, name: str) -> dict[str, str]:
        out = {}
        with open(f"/proc/{self.proc.pid}/{name}", encoding="utf-8") as f:
            for line in f:
                key, _, value = line.partition(":")
                out[key.strip()] = value.strip()
        return out

    def write_bytes(self) -> int:
        return int(self._proc_file("io")["write_bytes"])

    def peak_rss_mb(self) -> float:
        return int(self._proc_file("status")["VmHWM"].split()[0]) / 1024.0

    def stop(self) -> None:
        # SIGTERM, not SIGINT: a launcher may start us with SIGINT ignored, and children
        # inherit that. The server keeps nothing unflushed between requests.
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


# --- workloads -----------------------------------------------------------------------


class Workload:
    name = ""
    cycle = 1
    tick_kinds: tuple[str, ...] = ("write",)
    rss_note = "benchmark process (runs the devices)"

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = work_dir
        self.golden: list[str] | None = None
        self.ready_s: list[float] = []  # edge server spawn -> listening, per set-up
        self.in_process: EdgeServer | None = None

    def setup(self) -> None:
        """One complete set-up; called several times, each after :meth:`teardown`."""

    def teardown(self) -> None:
        pass

    def close(self) -> None:
        if self.in_process is not None:
            self.in_process.stop()
        self.teardown()

    def trace_mode(self) -> str:
        """Switch to the traced configuration; returns a note for the report."""
        return ""

    def phase_end(self, rec: Recorder) -> None:
        pass

    def op(self, i: int, tag: str, rec: Recorder) -> None:
        raise NotImplementedError

    def latency_metrics(self, latencies: dict[str, list[float]]) -> list[Metric]:
        raise NotImplementedError

    def extra_metrics(self, rec: Recorder) -> list[Metric]:
        return []

    def end_to_end(self, rec: Recorder) -> list[Metric]:
        """Metrics as measured, then host-normalised (``_norm``), then workload extras."""
        normalized = {kind: rec.normalized(kind) for kind in rec.latencies}
        return [
            *self._timing(rec, rec.latencies),
            *[Metric(f"{m.name}_norm", m.value, m.unit, m.n, f"{m.note}, host-normalised")
              for m in self._timing(rec, normalized)],
            *self.extra_metrics(rec),
            Metric("host.reference_ms", 1000.0 * rec.reference_s(), "ms",
                   sum(map(len, rec.reference.values())), "median reference-kernel time"),
        ]

    def _timing(self, rec: Recorder, latencies: dict[str, list[float]]) -> list[Metric]:
        ops = rec.attempted - rec.failed
        ticks = sum(rec.ticks.values())
        busy = sum(sum(v) for v in latencies.values())
        tick_busy = sum(sum(v) for k, v in latencies.items() if k in self.tick_kinds)
        return [
            Metric("ops_per_s", ops / busy, "1/s", ops, "completed operations per second busy"),
            Metric("ticks_per_s", ticks / tick_busy, "1/s", ticks,
                   "charging ticks (record pairs) per second busy"),
            *self.latency_metrics(latencies),
        ]

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def golden_digests(self, n: int) -> list[str]:
        return []


class _VirtualSessions(Workload):
    """Shared loop of the two virtual-clock workloads: what ``energyshare run --out`` does."""

    def setup(self) -> None:
        self.run_root = self.work_dir / "runs"
        self.run_root.mkdir(parents=True, exist_ok=True)
        # one untimed session from the smallest stratum, so lazy set-up is done
        warm = _cycle_order(self.tag, self.seed, 0, self.cycle).index(0)
        self._session(self.text_for(self.seed, warm), self.run_root / "warm-up")

    def teardown(self) -> None:
        shutil.rmtree(self.run_root, ignore_errors=True)

    def _session(self, text: str, run_dir: Path):
        parsed = scenario.parse_scenario_text(text)
        result = runner.run_scenario(parsed)
        report.write_run_artifacts(result, run_dir)
        return parsed, result

    def op(self, i: int, tag: str, rec: Recorder) -> None:
        text = self.text_for(self.seed, i)
        run_dir = self.run_root / f"{tag}{i}"
        parsed, result = rec.timed("write", self._session, text, run_dir)
        loaded = rec.timed("read", report.load_run, run_dir) if result.dataset is not None else None
        if result.dataset is not None:
            rec.ticks["write"] += result.dataset.record_count - 1
        rec.values["aborted"].append(float(result.outcome == runner.OUTCOME_ABORTED))
        check_session(rec, parsed, result, run_dir, loaded)
        if self.golden is not None and i < len(self.golden):
            rec.check(result.dataset is not None and trace_sha(result) == self.golden[i],
                      f"{parsed.run_id}: trace differs from the committed digest")
        shutil.rmtree(run_dir, ignore_errors=True)

    def latency_metrics(self, latencies: dict[str, list[float]]) -> list[Metric]:
        return [*latency_metrics("write", latencies["write"]),
                *latency_metrics("read", latencies["read"], with_tail=False)]

    def aliases(self) -> dict[str, str]:
        return {"run_p50_ms": "write_p50_ms", "run_tail_ms": "write_tail_ms",
                "sim_ticks_per_s": "ticks_per_s"}

    def golden_digests(self, n: int) -> list[str]:
        out = []
        for i in range(n):
            result = runner.run_scenario(scenario.parse_scenario_text(self.text_for(self.seed, i)))
            out.append(trace_sha(result))
        return out


class SoloSessions(_VirtualSessions):
    name = "solo_sessions"
    cycle = len(SOLO_TICK_STRATA)
    tag = "solo"
    text_for = staticmethod(solo_text)


class CafeCrowd(_VirtualSessions):
    name = "cafe_crowd"
    cycle = len(CAFE_PROVIDER_STRATA)
    tag = "cafe"
    text_for = staticmethod(cafe_text)


@dataclass
class _Base:
    session_id: str
    meta_text: str
    csv_text: str


class EdgeMix(Workload):
    name = "edge_mix"
    cycle = len(EDGE_CYCLE)
    tick_kinds = ("write", "reupload", "read")
    rss_note = "edge server process (VmHWM)"
    PREPOPULATE_PER_CLASS = 2

    def setup(self) -> None:
        self.data_dir = self.work_dir / "edge-data"
        self.server = EdgeProcess(self.data_dir)
        self.ready_s.append(self.server.ready_s)
        self.client = EdgeClient(self.server.address)
        self.bases = []
        for c in range(len(EDGE_PAIR_STRATA)):
            parsed = scenario.parse_scenario_text(edge_base_text(self.seed, c))
            d = runner.run_scenario(parsed).dataset
            self.bases.append(_Base(d.session_id, encode_meta(d), trace_csv_text(d.records)))
        self.acked: dict[str, tuple[int, str]] = {}  # session id -> (class, digest)
        self.counter = 0
        for c in range(len(self.bases)):
            for _ in range(self.PREPOPULATE_PER_CLASS):
                dataset = self._new_dataset(c, "s")
                self.client.upload(dataset)
                self.acked[dataset.session_id] = (c, dataset_digest(dataset))
        self.written_bytes = self.server.write_bytes()

    def phase_end(self, rec: Recorder) -> None:
        if self.in_process is None:
            written = self.server.write_bytes()
            uploads = len(rec.latencies["write"])
            rec.values["disk_write_bytes_per_upload"].append((written - self.written_bytes) / uploads)
            self.written_bytes = written

    def teardown(self) -> None:
        self.server.stop()
        shutil.rmtree(self.data_dir, ignore_errors=True)

    def _derive(self, c: int, session_id: str):
        """Dataset ``c`` under another session id, rewritten through the meta/CSV codec."""
        base = self.bases[c]
        meta = parse_meta(base.meta_text.replace(base.session_id, session_id))
        records = records_from_csv_text(base.csv_text.replace(base.session_id, session_id))
        return dataset_from_parts(meta, records)

    def _new_dataset(self, c: int, tag: str):
        self.counter += 1
        return self._derive(c, f"ses-bench-{self.seed}-{tag}{self.counter}")

    def trace_mode(self) -> str:
        self.server.stop()
        self.in_process = EdgeServer(EdgeStore(self.data_dir)).start()
        self.client = EdgeClient(self.in_process.address)
        return "traced phase hosts the edge server in this process to record its spans"

    def op(self, i: int, tag: str, rec: Recorder) -> None:
        cycle_no, slot = divmod(i, self.cycle)
        kinds = [EDGE_CYCLE[k] for k in _cycle_order("edge", self.seed, cycle_no, self.cycle)]
        kind = kinds[slot]
        c = (cycle_no * kinds.count(kind) + kinds[:slot].count(kind)) % len(self.bases)
        rng = random.Random(f"edge:{self.seed}:{i}")
        if self.golden is not None and i < min(len(self.golden), len(self.bases)):
            rec.check(hashlib.sha256(self.bases[i].csv_text.encode("utf-8")).hexdigest() == self.golden[i],
                      f"base session {i}: trace differs from the committed digest")
        if kind == "list":
            summaries = self._request(rec, kind, self.client.list)
            if summaries is not None:
                listed = {s.session_id for s in summaries}
                rec.check(set(self.acked) <= listed, "LIST misses acknowledged sessions")
                rec.values["stored"].append(float(len(listed)))
            return
        if kind == "read":
            ids = sorted(s for s, (cls, _) in self.acked.items() if cls == c)
            session_id = rng.choice(ids)
            dataset = self._request(rec, kind, self.client.get, session_id)
            if dataset is not None:
                rec.ticks[kind] += dataset.record_count
                rec.check(dataset_digest(dataset) == self.acked[session_id][1],
                          f"GET {session_id}: digest differs from the upload")
            return
        if kind == "reupload":
            session_id = rng.choice(sorted(self.acked))
            c = self.acked[session_id][0]
            dataset = self._derive(c, session_id)
        else:
            dataset = self._new_dataset(c, tag)
        try:
            validate_dataset(dataset)
        except EnergyShareError as exc:
            rec.check(False, f"derived dataset {dataset.session_id} invalid: {exc}")
            return
        digest = dataset_digest(dataset)
        receipt = self._request(rec, kind, self.client.upload, dataset)
        if receipt is not None:
            rec.ticks[kind] += dataset.record_count
            ok = (receipt.session_id, receipt.record_count) == (dataset.session_id, dataset.record_count)
            if rec.check(ok, f"UPLOAD {dataset.session_id}: receipt {receipt}"):
                self.acked[dataset.session_id] = (c, digest)

    @staticmethod
    def _request(rec: Recorder, kind: str, fn, *args):
        try:
            return rec.timed(kind, fn, *args)
        except EnergyShareError as exc:
            rec.values["err_replies"].append(1.0)
            rec.check(False, f"{kind}: {exc}")
            return None

    def latency_metrics(self, latencies: dict[str, list[float]]) -> list[Metric]:
        return [
            *latency_metrics("write", latencies["write"]),
            *latency_metrics("read", latencies["read"]),
            *latency_metrics("reupload", latencies["reupload"], with_tail=False),
            *latency_metrics("list", latencies["list"], with_tail=False),
        ]

    def aliases(self) -> dict[str, str]:
        return {"upload_p50_ms": "write_p50_ms", "upload_tail_ms": "write_tail_ms",
                "get_p50_ms": "read_p50_ms", "get_tail_ms": "read_tail_ms"}

    def peak_rss_mb(self) -> float:
        return self.server.peak_rss_mb()

    def golden_digests(self, n: int) -> list[str]:
        out = []
        for c in range(min(n, len(EDGE_PAIR_STRATA))):
            result = runner.run_scenario(scenario.parse_scenario_text(edge_base_text(self.seed, c)))
            out.append(trace_sha(result))
        return out


class WallPair(Workload):
    name = "wall_pair"
    cycle = len(WALL_INTERVALS)

    def setup(self) -> None:
        self.data_dir = self.work_dir / "edge-data"
        self.run_root = self.work_dir / "runs"
        self.server = EdgeProcess(self.data_dir)
        self.ready_s.append(self.server.ready_s)
        self.address = self.server.address
        self.run_root.mkdir(parents=True, exist_ok=True)

    def teardown(self) -> None:
        self.server.stop()
        shutil.rmtree(self.work_dir, ignore_errors=True)

    def trace_mode(self) -> str:
        self.server.stop()
        self.in_process = EdgeServer(EdgeStore(self.data_dir)).start()
        self.address = self.in_process.address
        return "traced phase hosts the edge server in this process to record its spans"

    def _session(self, text: str, run_dir: Path):
        parsed = scenario.parse_scenario_text(text)
        start = time.perf_counter()
        result = runner.run_scenario(parsed, pace=WALL_PACE, upload_addr=self.address)
        elapsed = time.perf_counter() - start
        report.write_run_artifacts(result, run_dir)
        return parsed, result, elapsed

    def op(self, i: int, tag: str, rec: Recorder) -> None:
        text, duration_s, interval_s = wall_text(self.seed, i, tag)
        run_dir = self.run_root / f"{tag}{i}"
        before = set(threading.enumerate())
        parsed, result, run_s = rec.timed("write", self._session, text, run_dir,
                                          paced_s=duration_s / WALL_PACE)
        time.sleep(0.02)  # let reader threads of closed sockets finish
        rec.values["threads_left"].append(
            float(sum(1 for t in threading.enumerate() if t not in before and t.is_alive())))
        rec.values["wall_overhead_ms"].append((run_s - duration_s / WALL_PACE) * 1000.0)
        pairs = round(duration_s / interval_s) + 1
        ok = (result.outcome == runner.OUTCOME_COMPLETED and result.dataset is not None
              and result.dataset.record_count == pairs)
        if not rec.check(ok, f"{parsed.run_id}: {result.outcome}, expected Completed with {pairs} pairs"):
            return
        rec.ticks["write"] += pairs - 1
        start = result.sync_receipts[0][1]
        rec.values["sync_lag"].extend(
            receipt - (start + k * interval_s / WALL_PACE) for k, _, receipt in result.sync_receipts
        )
        upload = result.upload_receipt
        rec.check(upload is not None and upload.record_count == pairs,
                  f"{parsed.run_id}: upload receipt {upload}")
        uploaded = dataset_digest(result.dataset)
        for _ in range(WALL_READS):
            fetched = rec.timed("read", EdgeClient(self.address).get, result.dataset.session_id)
            rec.check(dataset_digest(fetched) == uploaded, f"{parsed.run_id}: GET digest differs from the upload")
        check_session(rec, parsed, result, run_dir, None)
        shutil.rmtree(run_dir, ignore_errors=True)

    def latency_metrics(self, latencies: dict[str, list[float]]) -> list[Metric]:
        return [*latency_metrics("write", latencies["write"]),
                *latency_metrics("read", latencies["read"], with_tail=False)]

    def extra_metrics(self, rec: Recorder) -> list[Metric]:
        return latency_metrics("sync_lag", rec.values["sync_lag"])

    def aliases(self) -> dict[str, str]:
        return {"run_p50_ms": "write_p50_ms", "run_tail_ms": "write_tail_ms"}


WORKLOADS = {w.name: w for w in (SoloSessions, CafeCrowd, EdgeMix, WallPair)}
