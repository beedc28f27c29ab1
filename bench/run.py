"""energyshare benchmark: one workload, one seed, one measured run.

    python3 bench/run.py --workload solo_sessions --seed 0 --seconds 20 --trace 0

Run from the repository root. The program is imported from ``src/`` of the
same tree, so each commit is measured from its own sources. ``--trace 0``
measures the end-to-end metrics; ``--trace 1`` runs an untraced half and a
traced half and reports the per-layer metrics plus the tracing overhead.
Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Exit status: 0 when every check passed, 1 when a check failed, 2 when the
benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

_start = time.perf_counter()
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

from harness import REFERENCE_MS, Metric, Recorder, Tracer, check_name, percentile, reference_kernel  # noqa: E402


def host_scale() -> float:
    """``REFERENCE_MS`` over the reference kernel's time now (median of three)."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - start)
    return REFERENCE_MS / 1000.0 / percentile(times, 50.0)


IMPORT_SCALE = host_scale()
_import_start = time.perf_counter()
try:
    import energyshare  # noqa: F401  (timed as part of set-up)
    import layers
    from workloads import DEFAULT_SEED, GOLDEN_OPS, HARD_STOP_S, WORKLOADS
except ImportError as exc:
    print(f"error: cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
    sys.exit(2)
IMPORT_S = time.perf_counter() - _import_start
SETUP_REPEATS = 3
WORK_ROOT = ROOT / ".bench_work"
GOLDEN_PATH = BENCH_DIR / "golden.json"
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
PER_LAYER = {m["name"] for m in CONFIG["per_layer"]}


def measure(workload, seconds: float, tag: str, tracer: Tracer | None = None) -> Recorder:
    """Closed loop: operations back to back until ``seconds`` pass, then to the end of a cycle.

    Whatever happens, measuring stops ``HARD_STOP_S`` after the process started.
    """
    rec = Recorder()
    start = time.perf_counter()
    i = 0
    while True:
        now = time.perf_counter()
        if i > 0 and i % workload.cycle == 0 and now - start >= seconds or now - _start >= HARD_STOP_S:
            break
        if tracer is not None:
            tracer.op_id = i
        rec.begin_op()
        try:
            workload.op(i, tag, rec)
        except Exception as exc:  # an operation that raises is a failed operation; the run goes on
            rec.check(False, f"operation {i} raised {exc!r}")
        rec.end_op()
        i += 1
    workload.phase_end(rec)
    return rec


def environment(workload) -> str:
    commit = ""
    if (ROOT / ".git").exists():  # a checkout without .git must not report an enclosing repository
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
                                    capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "energyshare").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return (f"nproc={len(os.sched_getaffinity(0))} python={platform.python_version()} "
            f"data_fs={filesystem_type(workload.work_dir)} tcp=loopback-only (127.0.0.1) "
            f"commit={commit or 'unavailable (not a git checkout)'} src_sha256={digest.hexdigest()[:16]}")


def filesystem_type(path: Path) -> str:
    best, fs = "", "unknown"
    with open("/proc/self/mounts", encoding="utf-8") as mounts:
        for line in mounts:
            fields = line.split()
            mount_point = fields[1]
            if str(path).startswith(mount_point.rstrip("/") + "/") and len(mount_point) > len(best):
                best, fs = mount_point, fields[2]
    return fs


def by_name(metrics: list[Metric]) -> dict[str, Metric]:
    return {m.name: m for m in metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=CONFIG["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true",
                        help=f"recompute the committed trace digests of seed {DEFAULT_SEED} and exit")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so the edge server process is stopped too
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    work_dir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, work_dir)
    if args.write_golden:
        return write_golden()
    if args.seed == DEFAULT_SEED:
        workload.golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))[args.workload]

    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"# why: {next(w['why'] for w in CONFIG['workloads'] if w['name'] == args.workload)}")
    try:
        setup_s, scales = [], []
        for r in range(SETUP_REPEATS):
            if r:
                workload.teardown()
            scales.append(host_scale())
            t0 = time.perf_counter()
            workload.setup()
            setup_s.append(time.perf_counter() - t0)
        print(f"# env: {environment(workload)}")
        if args.trace:
            base = measure(workload, args.seconds / 2, "u")
            tracer = Tracer()
            note = workload.trace_mode()
            layers.install(tracer)
            try:
                traced = measure(workload, args.seconds / 2, "t", tracer)
            finally:
                tracer.restore()
            recs = (base, traced)
            metrics = traced_report(workload, base, traced, tracer, note)
            write_spans(tracer, args)
        else:
            rec = measure(workload, args.seconds, "e")
            recs = (rec,)
            metrics = untraced_report(workload, rec, setup_s, scales)
    finally:
        workload.close()
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = sum(r.attempted for r in recs)
    failed = sum(r.failed for r in recs)
    for r in recs:
        for failure in r.failures:
            print(f"# FAILED: {failure}")
    print(f"{'fail_ratio':<40} {failed / attempted:>14.6g} {'1':<6} n={attempted}")
    wanted = CONFIG["per_layer" if args.trace else "end_to_end"]
    found = by_name(metrics)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {w["name"]: {"value": found[w["name"]].value, "unit": w["unit"]} for w in wanted},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def untraced_report(workload, rec: Recorder, setup_s: list[float], scales: list[float]) -> list[Metric]:
    measured = IMPORT_S + percentile(setup_s, 50.0)
    normalized = IMPORT_S * IMPORT_SCALE + percentile([t * f for t, f in zip(setup_s, scales)], 50.0)
    metrics = [
        Metric("setup_s", normalized, "s", len(setup_s),
               f"host-normalised; imports + median of {len(setup_s)} set-ups"),
        Metric("setup_measured_s", measured, "s", len(setup_s),
               f"as measured; imports {IMPORT_S:.3f} s + median of {len(setup_s)} set-ups"),
        *workload.end_to_end(rec),
        Metric("peak_rss_mb", workload.peak_rss_mb(), "MB", 1, workload.rss_note),
    ]
    print("# end-to-end metrics (untraced); _norm = host-normalised, see bench/README.md;")
    print("# [per-layer] = not gated: as measured they follow the host's speed, and tails"
          " do not repeat within 10%")
    print_metrics(metrics, mark_demoted=True)
    for alias, name in workload.aliases().items():
        m = by_name(metrics)[name]
        print_metrics([Metric(alias, m.value, m.unit, m.n, f"same as {name}")])
    return metrics


def traced_report(workload, base: Recorder, traced: Recorder, tracer: Tracer, note: str) -> list[Metric]:
    before, after = by_name(workload.end_to_end(base)), by_name(workload.end_to_end(traced))
    print("# end-to-end metrics of the untraced half")
    print_metrics(list(before.values()), mark_demoted=True)
    print(f"# per-layer metrics (traced half of the run){'; ' + note if note else ''}")
    span_cost_s = Tracer.span_cost()
    metrics = layers.layer_metrics(tracer, traced, base, workload.ready_s, span_cost_s)
    metrics.append(Metric("trace.span_cost_us", span_cost_s * 1e6, "us", 1,
                          "tracer's own cost per traced call, taken off busy and self times"))
    for name in ("write_p50_ms", "ticks_per_s"):
        b, a = before[f"{name}_norm"], after[f"{name}_norm"]
        metrics.append(Metric(f"trace.overhead.{name}", a.value / b.value, "1", a.n,
                              f"host-normalised, traced {a.value:.6g} / untraced {b.value:.6g}"))
    print_metrics(metrics)
    return metrics + list(before.values())


def print_metrics(metrics: list[Metric], mark_demoted: bool = False) -> None:
    """One line per metric; end-to-end timings kept per-layer say so."""
    for m in metrics:
        check_name(m.name)
        demoted = mark_demoted and m.name in PER_LAYER
        print(m.line() + (" [per-layer]" if demoted else ""))


def write_spans(tracer: Tracer, args) -> None:
    """Raw spans of the traced half, one JSON array per line: name, start, end, id, parent, op."""
    path = WORK_ROOT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    with open(path, "w", encoding="utf-8") as out:
        for span in tracer.spans():
            out.write(json.dumps(span) + "\n")
    print(f"# spans written to {path.relative_to(ROOT)}")


def write_golden() -> int:
    golden = {}
    for name, cls in WORKLOADS.items():
        golden[name] = cls(DEFAULT_SEED, WORK_ROOT / "golden").golden_digests(GOLDEN_OPS)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN_PATH.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
