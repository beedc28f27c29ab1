#!/usr/bin/env python3
"""Memory of a day-long session: one virtual run, its run directory written and read back,
then its dataset uploaded to an edge store, uploaded again as it is and with one field
edited, uploaded to an empty store with one field spelled otherwise, fetched back from an
edge server raw and by an edge client, and uploaded by an edge client.

The session charges over cable for 86,400 ticks at 1 s (86,401 record
pairs). Tracing starts after the run, so the probe stays short: the run
line gives its time and the process's peak RSS so far; each later phase
gives the ``tracemalloc`` memory it holds after it and at its peak, both
above what was traced when it began, and no time: under ``tracemalloc``
an allocation costs more the further into its function's code it is
made, so a traced phase's time would measure where its code allocates,
not how fast it runs; ``bench/run.py`` times these paths. Each upload
reads the run directory's ``trace.csv`` a block of lines at a time. The identical
re-upload is compared with the stored files; the re-upload whose last row
has another consumer charge differs only in its last piece, so the store
reads the rest back from disk and proves and stages it, and it must be
refused at the last piece as an upload of the same text to an empty store
is. The respelt upload's middle row has its charge's ``repr`` with a ``0``
after it, the same number spelled otherwise: the store stops staging at
that row and decodes it, and must refuse it as not spelled as the encoder
writes it. The GET runs an
``EdgeServer`` in this process and reads its reply off a socket, keeping
only its length. The client GET fetches it from the same server through
``EdgeClient.get``, which builds the whole dataset as ``load_run`` does;
its ``dataset_digest`` must be the run's dataset's. The client upload
sends the run's dataset through ``EdgeClient.upload`` to another
``EdgeServer`` in this process, on an empty store; its peak counts both
ends, and its receipt must be the first upload's. The last line is the
process's peak RSS, which is mostly ``tracemalloc``'s own bookkeeping of
every block it traces; the run line's peak RSS, taken before tracing
starts, is the program's own.

A dataset holds its trace as four float columns, about 34 bytes a pair, so
the run, ``load_run`` and the client GET each hold about 3 MB of it.

Exits 1 if the run's peak RSS is over RUN_PEAK_RSS_LIMIT_MB, if
``write_run_artifacts`` peaks more than WRITE_PEAK_LIMIT_MB above its start,
``load_run`` or the client GET more than LOAD_PEAK_LIMIT_MB, or an edge upload,
re-upload, respelt upload, GET or client upload more than EDGE_PEAK_LIMIT_MB above
theirs.

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

from energyshare.edge import META_FILENAME, TRACE_FILENAME, EdgeClient, EdgeServer, EdgeStore
from energyshare.edge import dataset_digest
from energyshare.errors import EnergyShareError
from energyshare.report import load_run, write_run_artifacts
from energyshare.runner import run_scenario
from energyshare.scenario import parse_scenario_text
from energyshare.transport import parse_addr

RUN_PEAK_RSS_LIMIT_MB = 60.0
WRITE_PEAK_LIMIT_MB = 4.0
LOAD_PEAK_LIMIT_MB = 8.0
EDGE_PEAK_LIMIT_MB = 4.0
LINES_PER_PIECE = 256
RESPELT_ROW = 86401  # the data row whose charge the respelt upload spells otherwise: tick 43,200's
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
    result = fn(*args)
    held, peak = ((size - start) / MB for size in tracemalloc.get_traced_memory())
    print(f"{name:20s} held {held:+7.1f} MB  peak {peak:+7.1f} MB")
    return result, peak


def line_pieces(path: Path):
    """A text file's lines, LINES_PER_PIECE at a time."""
    with open(path, encoding="utf-8", newline="") as file:
        while piece := "".join(islice(file, LINES_PER_PIECE)):
            yield piece


def last_row_edited(pieces):
    """The pieces of a trace, with the consumer charge of its last row set to 0.5."""
    last = next(pieces)
    for piece in pieces:
        yield last
        last = piece
    *rows, row = last.splitlines(keepends=True)
    fields = row.split(",")
    fields[6] = "0.5"  # battery_charge_mah
    yield "".join(rows) + ",".join(fields)


def row_respelt(pieces):
    """The pieces of a trace, with the battery charge of data row RESPELT_ROW spelled with a
    ``0`` after it."""
    lines_before = 0
    for piece in pieces:
        lines = piece.splitlines(keepends=True)
        if 0 <= (at := RESPELT_ROW + 1 - lines_before) < len(lines):  # line 0 is the header
            fields = lines[at].split(",")
            fields[6] += "0"  # battery_charge_mah
            lines[at] = ",".join(fields)
        lines_before += len(lines)
        yield "".join(lines)


def upload(store: EdgeStore, run_dir: Path, edit=iter):
    """The receipt of an upload of ``run_dir``'s dataset through ``edit``, or its error's type
    and message."""
    meta = (run_dir / META_FILENAME).read_text(encoding="utf-8")
    try:
        return store.upload(meta, edit(line_pieces(run_dir / TRACE_FILENAME)))
    except (ValueError, EnergyShareError) as exc:
        return type(exc).__name__, str(exc)


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
    run_rss = peak_rss_mb()
    print(f"{'run_scenario':20s} {time.perf_counter() - began:6.2f} s  "
          f"{result.dataset.record_count} pairs, peak RSS {run_rss:.1f} MB")
    tracemalloc.start()
    with tempfile.TemporaryDirectory() as tmp:
        run_dir, write_peak = traced("write_run_artifacts", write_run_artifacts, result,
                                     Path(tmp) / "run")
        _, load_peak = traced("load_run", load_run, run_dir)
        store = EdgeStore(Path(tmp) / "edge-data")
        receipt, upload_peak = traced("edge upload", upload, store, run_dir)
        again, again_peak = traced("edge re-upload", upload, store, run_dir)
        edited, edited_peak = traced("edge re-upload edit", upload, store, run_dir, last_row_edited)
        refused = upload(EdgeStore(Path(tmp) / "empty"), run_dir, last_row_edited)
        respelt, respelt_peak = traced("edge upload respelt", upload, EdgeStore(Path(tmp) / "respelt"),
                                       run_dir, row_respelt)
        server = EdgeServer(store).start()
        try:
            served, get_peak = traced("edge GET", get_reply_bytes, server.address,
                                      receipt.session_id)
            fetched, fetch_peak = traced("edge client GET", EdgeClient(server.address).get,
                                         receipt.session_id)
            fetched = dataset_digest(fetched)
        finally:
            server.stop()
        server = EdgeServer(EdgeStore(Path(tmp) / "client")).start()
        try:
            sent, sent_peak = traced("edge client upload", EdgeClient(server.address).upload,
                                     result.dataset)
        finally:
            server.stop()
        header = f"DATASET {receipt.session_id} {receipt.record_count}\n"
        files = (run_dir / META_FILENAME, run_dir / TRACE_FILENAME)
        expected = len(header) + sum(path.stat().st_size for path in files) + len("\nEND\n")
    tracemalloc.stop()
    print(f"peak RSS {peak_rss_mb():.1f} MB, tracemalloc's bookkeeping included")
    failures = []
    if run_rss > RUN_PEAK_RSS_LIMIT_MB:
        failures.append(f"the run's peak RSS is {run_rss:.1f} MB, over {RUN_PEAK_RSS_LIMIT_MB} MB")
    failures += [
        f"{name} peaked {peak:.1f} MB above its start, over {limit} MB"
        for name, peak, limit in (("write_run_artifacts", write_peak, WRITE_PEAK_LIMIT_MB),
                                  ("load_run", load_peak, LOAD_PEAK_LIMIT_MB),
                                  ("edge upload", upload_peak, EDGE_PEAK_LIMIT_MB),
                                  ("edge re-upload", again_peak, EDGE_PEAK_LIMIT_MB),
                                  ("edge re-upload edit", edited_peak, EDGE_PEAK_LIMIT_MB),
                                  ("edge upload respelt", respelt_peak, EDGE_PEAK_LIMIT_MB),
                                  ("edge GET", get_peak, EDGE_PEAK_LIMIT_MB),
                                  ("edge client GET", fetch_peak, LOAD_PEAK_LIMIT_MB),
                                  ("edge client upload", sent_peak, EDGE_PEAK_LIMIT_MB))
        if peak > limit
    ]
    if again != receipt:
        failures.append(f"edge re-upload replied {again}, not the upload's {receipt}")
    if edited != refused or not isinstance(refused, tuple):
        failures.append(f"edge re-upload edit replied {edited}, an empty store {refused}")
    unspelled = ("ValidationFailed", f"tick {RESPELT_ROW // 2}: a row is not spelled as the encoder writes it")
    if respelt != unspelled:
        failures.append(f"edge upload respelt replied {respelt}, not {unspelled}")
    if sent != receipt:
        failures.append(f"edge client upload replied {sent}, not the upload's {receipt}")
    if fetched != dataset_digest(result.dataset):
        failures.append("edge client GET's dataset digest is not the run's")
    if served != expected:
        failures.append(f"edge GET replied {served} bytes, not the dataset block's {expected}")
    for failure in failures:
        print(failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
