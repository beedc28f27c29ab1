#!/usr/bin/env python3
"""Memory of a day-long session: one virtual run, its run directory written and read back.

The session charges over cable for 86,400 ticks at 1 s (86,401 record
pairs). Tracing starts after the run, so the probe stays short: the run
line gives its time and the process's peak RSS so far; each later phase
gives its time and the ``tracemalloc`` memory it holds after it and at
its peak, both above what was traced when it began. The last line is the
process's peak RSS.

Exits 1 if ``load_run`` peaks more than LOAD_PEAK_LIMIT_MB above its start.

Usage: python scripts/memory_probe.py
"""

import resource
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from energyshare.report import load_run, write_run_artifacts
from energyshare.runner import run_scenario
from energyshare.scenario import parse_scenario_text

LOAD_PEAK_LIMIT_MB = 60.0
MB = 1e6

DAY_LONG = """
scenario.clock = virtual
monitor.interval_s = 1
request.kind = duration
request.value = 86400
technology.name = cable
device.p1.role = provider
device.p1.start_level_pct = 100
device.p1.position = 0.0, 1.0
device.c1.role = consumer
device.c1.start_level_pct = 40
device.c1.position = 0.0, 0.0
"""


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB  # Linux: KiB


def traced(name: str, fn, *args):
    """``fn(*args)`` and its peak above its start, in MB, after printing its phase line."""
    tracemalloc.reset_peak()
    start = tracemalloc.get_traced_memory()[0]
    began = time.perf_counter()
    result = fn(*args)
    elapsed = time.perf_counter() - began
    held, peak = ((size - start) / MB for size in tracemalloc.get_traced_memory())
    print(f"{name:20s} {elapsed:6.2f} s  held {held:+7.1f} MB  peak {peak:+7.1f} MB")
    return result, peak


def main() -> int:
    began = time.perf_counter()
    result = run_scenario(parse_scenario_text(DAY_LONG, run_id="day-long"))
    print(f"{'run_scenario':20s} {time.perf_counter() - began:6.2f} s  "
          f"{result.dataset.record_count} pairs, peak RSS {peak_rss_mb():.1f} MB")
    tracemalloc.start()
    with tempfile.TemporaryDirectory() as tmp:
        run_dir, _ = traced("write_run_artifacts", write_run_artifacts, result, Path(tmp) / "run")
        _, load_peak = traced("load_run", load_run, run_dir)
    tracemalloc.stop()
    print(f"peak RSS {peak_rss_mb():.1f} MB")
    if load_peak > LOAD_PEAK_LIMIT_MB:
        print(f"load_run peaked {load_peak:.1f} MB above its start, over {LOAD_PEAK_LIMIT_MB} MB")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
