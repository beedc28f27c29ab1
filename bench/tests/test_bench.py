"""Tests of the benchmark's own logic: python3 -m pytest bench/tests -q (from the repo root)."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import layers  # noqa: E402
import workloads  # noqa: E402
from harness import (  # noqa: E402
    Recorder,
    Tracer,
    check_name,
    latency_metrics,
    percentile,
    tail,
)

CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# the workload-specific end-to-end names each workload prints, besides those in BENCHMARK.json
WORKLOAD_METRICS = {
    "solo_sessions": ["setup_s", "ops_per_s", "sim_ticks_per_s", "run_p50_ms", "run_tail_ms",
                      "peak_rss_mb", "fail_ratio"],
    "cafe_crowd": ["setup_s", "ops_per_s", "sim_ticks_per_s", "run_p50_ms", "run_tail_ms",
                   "peak_rss_mb", "fail_ratio"],
    "edge_mix": ["setup_s", "ops_per_s", "upload_p50_ms", "upload_tail_ms", "get_p50_ms",
                 "get_tail_ms", "list_p50_ms", "peak_rss_mb", "fail_ratio"],
    "wall_pair": ["setup_s", "ops_per_s", "run_p50_ms", "run_tail_ms", "sync_lag_p50_ms",
                  "sync_lag_tail_ms", "peak_rss_mb", "fail_ratio"],
}


@pytest.mark.parametrize("n", [20, 21, 39, 40, 99, 100, 1000])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n):
    values = [float(v) for v in range(n, 0, -1)]
    p, value = tail(values)
    assert p == pytest.approx(100.0 * (n - 10) / n)
    assert sum(1 for v in values if v > value) == 10
    assert sum(1 for v in values if v >= value) == 11  # no higher order statistic qualifies


def test_no_tail_below_twenty_samples():
    assert tail([1.0] * 19) is None
    (_, missing) = latency_metrics("run", [0.001] * 19)
    assert missing.value == 1.0 and missing.note.startswith("max")


def test_tail_metric_leaves_ten_samples_beyond_its_value():
    seconds = [i / 1000.0 for i in range(1, 61)]
    p50, tail_ms = latency_metrics("run", seconds)
    assert (p50.name, tail_ms.name) == ("run_p50_ms", "run_tail_ms")
    assert tail_ms.note.startswith("p83.3")
    assert sum(1 for s in seconds if s * 1000.0 > tail_ms.value) == 10
    assert p50.value == pytest.approx(percentile([s * 1000.0 for s in seconds], 50.0))


def test_self_time_subtracts_nested_child_spans():
    now = [0.0]

    def clock():
        return now[0]

    class Program:
        @staticmethod
        def inner(dt):
            now[0] += dt

        @staticmethod
        def outer():
            now[0] += 1.0
            Program.inner(2.0)
            now[0] += 0.5
            Program.inner(3.0)

    tracer = Tracer(clock=clock)
    tracer.wrap(Program, "inner", "inner")
    tracer.wrap(Program, "outer", "outer")
    Program.outer()
    tracer.restore()

    totals = tracer.totals()
    assert totals["outer"] == (1, 6.5, 1.5)
    assert totals["inner"] == (2, 5.0, 5.0)
    # the tracer's own cost comes off once per nested span (busy) and per direct child (self)
    assert tracer.totals(span_cost_s=0.25) == {"outer": (1, 6.0, 1.0), "inner": (2, 5.0, 5.0)}
    spans = {s[0]: s for s in tracer.spans()}
    outer_id = spans["outer"][3]
    assert [s[4] for s in tracer.spans() if s[0] == "inner"] == [outer_id, outer_id]
    Program.outer()  # restored: no more spans
    assert tracer.totals()["outer"][0] == 1


@pytest.mark.parametrize("name", ["a b", "a/b", "", "x" * 65, "é"])
def test_metric_names_outside_the_charset_are_refused(name):
    with pytest.raises(ValueError):
        check_name(name)


def test_every_metric_name_is_in_the_charset():
    names = [m["name"] for m in CONFIG["end_to_end"] + CONFIG["per_layer"]]
    names += [m.name for m in layers.layer_metrics(Tracer(), Recorder(), Recorder(), [])]
    for workload_names in WORKLOAD_METRICS.values():
        names += workload_names
    for name in names:
        assert check_name(name) == name


def test_inputs_are_a_function_of_the_seed():
    for make in (workloads.solo_text, workloads.cafe_text, workloads.edge_base_text):
        assert [make(3, i) for i in range(3)] == [make(3, i) for i in range(3)]
        assert make(3, 0) != make(4, 0)
    assert workloads.wall_text(3, 1, "e") == workloads.wall_text(3, 1, "e")


def test_each_cycle_covers_every_stratum_once():
    for seed in (0, 7):
        for c in range(3):
            order = workloads._cycle_order("solo", seed, c, len(workloads.SOLO_TICK_STRATA))
            assert sorted(order) == list(range(len(workloads.SOLO_TICK_STRATA)))


def _run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True,
                          text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOAD_METRICS))
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _run_bench(ROOT, "--workload", workload, "--seed", "0", "--seconds", "1",
                      "--trace", str(trace))
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = CONFIG["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    printed = {line.split()[0]: line.split() for line in lines[:-1] if not line.startswith("#")}
    expected = (
        [m.name for m in layers.layer_metrics(Tracer(), Recorder(), Recorder(), [])]
        if trace else WORKLOAD_METRICS[workload] + [m["name"] for m in wanted]
    )
    for name in expected:
        assert name in printed, f"{name} not printed"
        fields = printed[name]
        assert fields[2] and fields[3].startswith("n="), fields
    if trace:
        assert "trace.overhead.write_p50_ms" in printed
    env = next(line for line in lines if line.startswith("# env:"))
    for key in ("nproc=", "python=", "data_fs=", "tcp=loopback-only", "commit="):
        assert key in env


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for path in CONFIG["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run_bench(tmp_path, "--workload", "solo_sessions", "--seed", "0", "--seconds", "1",
                      "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
