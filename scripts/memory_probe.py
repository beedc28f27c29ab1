#!/usr/bin/env python3
"""Memory of a day-long session: one virtual run, its run directory written and read back,
then its dataset uploaded to an edge store and fetched back from an edge server.

The session charges over cable for 86,400 ticks at 1 s (86,401 record
pairs). Tracing starts after the run, so the probe stays short: the run
line gives its time and the process's peak RSS so far; each later phase
gives its time and the ``tracemalloc`` memory it holds after it and at
its peak, both above what was traced when it began. The upload reads the
run directory's ``trace.csv`` a block of lines at a time; the GET runs an
``EdgeServer`` in this process and reads its reply off a socket, keeping
only its length. The last line is the process's peak RSS.

Exits 1 if ``load_run`` peaks more than LOAD_PEAK_LIMIT_MB above its start,
or the edge upload or GET more than EDGE_PEAK_LIMIT_MB above theirs.

Usage: python scripts/memory_probe.py
"""

import resource
import socket
import sys
import tempfile
import time
import tracemalloc
from itertools import islice
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from energyshare.edge import META_FILENAME, TRACE_FILENAME, EdgeServer, EdgeStore
from energyshare.report import load_run, write_run_artifacts
from energyshare.runner import run_scenario
from energyshare.scenario import parse_scenario_text
from energyshare.transport import parse_addr

LOAD_PEAK_LIMIT_MB = 60.0
EDGE_PEAK_LIMIT_MB = 4.0
LINES_PER_PIECE = 256
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


def line_pieces(path: Path):
    """A text file's lines, LINES_PER_PIECE at a time."""
    with open(path, encoding="utf-8", newline="") as file:
        while piece := "".join(islice(file, LINES_PER_PIECE)):
            yield piece


def upload(store: EdgeStore, run_dir: Path):
    meta = (run_dir / META_FILENAME).read_text(encoding="utf-8")
    return store.upload(meta, line_pieces(run_dir / TRACE_FILENAME))


def get_reply_bytes(address: str, session_id: str) -> int:
    """The length of the server's whole reply to ``GET session_id``."""
    with socket.create_connection(parse_addr(address), timeout=60.0) as conn:
        conn.sendall(f"GET {session_id}\n".encode("utf-8"))
        conn.shutdown(socket.SHUT_WR)
        received = 0
        while chunk := conn.recv(1 << 16):
            received += len(chunk)
    return received


def main() -> int:
    began = time.perf_counter()
    result = run_scenario(parse_scenario_text(DAY_LONG, run_id="day-long"))
    print(f"{'run_scenario':20s} {time.perf_counter() - began:6.2f} s  "
          f"{result.dataset.record_count} pairs, peak RSS {peak_rss_mb():.1f} MB")
    tracemalloc.start()
    with tempfile.TemporaryDirectory() as tmp:
        run_dir, _ = traced("write_run_artifacts", write_run_artifacts, result, Path(tmp) / "run")
        _, load_peak = traced("load_run", load_run, run_dir)
        store = EdgeStore(Path(tmp) / "edge-data")
        receipt, upload_peak = traced("edge upload", upload, store, run_dir)
        server = EdgeServer(store).start()
        try:
            served, get_peak = traced("edge GET", get_reply_bytes, server.address,
                                      receipt.session_id)
        finally:
            server.stop()
        header = f"DATASET {receipt.session_id} {receipt.record_count}\n"
        files = (run_dir / META_FILENAME, run_dir / TRACE_FILENAME)
        expected = len(header) + sum(path.stat().st_size for path in files) + len("\nEND\n")
    tracemalloc.stop()
    print(f"peak RSS {peak_rss_mb():.1f} MB")
    failures = [
        f"{name} peaked {peak:.1f} MB above its start, over {limit} MB"
        for name, peak, limit in (("load_run", load_peak, LOAD_PEAK_LIMIT_MB),
                                  ("edge upload", upload_peak, EDGE_PEAK_LIMIT_MB),
                                  ("edge GET", get_peak, EDGE_PEAK_LIMIT_MB))
        if peak > limit
    ]
    if served != expected:
        failures.append(f"edge GET replied {served} bytes, not the dataset block's {expected}")
    for failure in failures:
        print(failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
