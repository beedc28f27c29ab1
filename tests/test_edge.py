"""Edge store: validation gate, durability, idempotence, TCP protocol."""

import ast
import builtins
import dataclasses
import errno
import gc
import hashlib
import io
import itertools
import math
import random
import re
import shutil
import socket
import string
import sys
import tempfile
import threading
import time
import tracemalloc
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import pytest
from conftest import build_scenario, stored_dataset
from hypothesis import given, settings
from hypothesis import strategies as st

from energyshare import edge
from energyshare.battery import DrainParams, Technology, TechnologyParams, level_pct_of
from energyshare.edge import (
    ConflictingSession,
    CorruptSession,
    EdgeClient,
    EdgeServer,
    EdgeStore,
    NotFound,
    SessionDataset,
    SessionSummary,
    UploadReceipt,
    ValidationFailed,
    dataset_digest,
    dataset_from_parts,
    decode_dataset,
    encode_dataset,
    encode_meta,
    parse_meta,
    validate_dataset,
)
from energyshare.errors import EnergyShareError
from energyshare.monitor import (
    MonitorRecord,
    SessionMetrics,
    ROLE_CONSUMER,
    ROLE_PROVIDER,
    TRACE_HEADER,
    compute_metrics,
    records_from_csv_text,
    trace_csv_rows,
    trace_csv_text,
)
from energyshare.protocol import Reason, RequestKind, make_request
from energyshare.report import IncompatibleRuns, load_run
from energyshare.runner import run_scenario
from energyshare.scenario import parse_scenario
from energyshare.transport import LINES, parse_addr

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"
WIRE_DOC = Path(__file__).resolve().parents[1] / "docs" / "wire-format.md"


def build_dataset(
    session_id="ses-r1",
    ticks=5,
    rng: random.Random | None = None,
    reason=Reason.DURATION_ELAPSED,
) -> SessionDataset:
    rng = rng or random.Random(0)
    interval = 1.0
    start = rng.uniform(0.0, 100.0)
    p_charge = rng.uniform(2000.0, 4000.0)
    c_charge = rng.uniform(100.0, 1000.0)
    p_cap, c_cap = 4080.0, 2915.0
    out_rate = rng.uniform(0.1, 0.5)
    in_rate = 0.8 * out_rate
    pairs = []
    for t in range(ticks):
        wall = start + t * interval
        pairs.append(
            (
                MonitorRecord(t, wall, session_id, "p1", ROLE_PROVIDER,
                              100.0 * (p_charge - out_rate * t) / p_cap,
                              p_charge - out_rate * t, out_rate * t),
                MonitorRecord(t, wall, session_id, "c1", ROLE_CONSUMER,
                              100.0 * (c_charge + in_rate * t) / c_cap,
                              c_charge + in_rate * t, in_rate * t),
            )
        )
    metrics = compute_metrics(pairs)
    request = make_request(RequestKind.DURATION, float(ticks), "c1", request_id="r1")
    return SessionDataset(
        session_id=session_id,
        request=request,
        provider_id="p1",
        tech_params=TechnologyParams(Technology.WIRELESS_DISTANCE, 1200.0, 0.8, 90.0, 0.02),
        provider_drain=DrainParams(40.0),
        consumer_drain=DrainParams(40.0),
        provider_capacity_mah=p_cap,
        consumer_capacity_mah=c_cap,
        interval_s=interval,
        records=tuple(pairs),
        metrics=metrics,
        terminal_reason=reason,
    )


@pytest.fixture
def store(tmp_path):
    return EdgeStore(tmp_path / "data")


# --- upload/get/list -----------------------------------------------------------


def test_upload_and_get_round_trip(store):
    dataset = build_dataset()
    receipt = store.upload(*encode_dataset(dataset))
    assert receipt == UploadReceipt("ses-r1", 5)
    assert stored_dataset(store, "ses-r1") == dataset


def test_a_session_id_naming_the_index_is_refused_and_the_store_reopens(store):
    with pytest.raises(ValueError, match="index file"):
        store.upload(*encode_dataset(build_dataset(session_id=EdgeStore.INDEX_FILENAME)))
    assert list(store.data_dir.iterdir()) == []  # refused before anything was written
    with pytest.raises(ValueError, match="index file"):
        store.get(EdgeStore.INDEX_FILENAME)
    store.upload(*encode_dataset(build_dataset()))
    reopened = EdgeStore(store.data_dir)
    assert [s.session_id for s in reopened.list()] == ["ses-r1"]
    assert stored_dataset(reopened, "ses-r1") == build_dataset()


def test_reupload_identical_is_idempotent(store):
    dataset = build_dataset()
    first = store.upload(*encode_dataset(dataset))
    second = store.upload(*encode_dataset(dataset))
    assert first == second
    assert len(store.list()) == 1


def test_conflicting_reupload_rejected(store):
    dataset = build_dataset(ticks=4)
    store.upload(*encode_dataset(dataset))
    tampered_pairs = list(dataset.records)
    provider_record, consumer_record = tampered_pairs[-1]
    tampered_pairs[-1] = (
        provider_record._replace(cumulative_transferred_mah=999.0),
        consumer_record,
    )
    tampered = dataclasses.replace(dataset, records=tuple(tampered_pairs))
    with pytest.raises(ConflictingSession):
        store.upload(*encode_dataset(tampered))
    assert stored_dataset(store, dataset.session_id) == dataset


def test_get_unknown_session(store):
    with pytest.raises(NotFound):
        store.get("ses-ghost")


def test_store_survives_restart(store, tmp_path):
    dataset = build_dataset()
    store.upload(*encode_dataset(dataset))
    reopened = EdgeStore(tmp_path / "data")
    assert stored_dataset(reopened, "ses-r1") == dataset
    assert reopened.list() == store.list()
    assert [s.session_id for s in reopened.list()] == ["ses-r1"]


def test_list_preserves_upload_order(store):
    rng = random.Random(11)
    ids = [f"ses-{i}" for i in (3, 1, 2)]
    for session_id in ids:
        store.upload(*encode_dataset(build_dataset(session_id=session_id, rng=rng)))
    summaries = store.list()
    assert [s.session_id for s in summaries] == ids
    for summary, session_id in zip(summaries, ids):
        assert summary.energy_loss_mah == stored_dataset(store, session_id).metrics.energy_loss_mah


def test_round_trip_fidelity_randomized(store):
    rng = random.Random(42)
    for i in range(10):
        dataset = build_dataset(session_id=f"ses-rand-{i}", ticks=rng.randint(1, 12), rng=rng)
        store.upload(*encode_dataset(dataset))
        assert stored_dataset(store, dataset.session_id) == dataset


def test_concurrent_uploads_all_stored(store):
    import threading

    rng = random.Random(8)
    datasets = [build_dataset(session_id=f"ses-par-{i}", rng=rng) for i in range(8)]
    errors = []

    def upload(ds):
        try:
            store.upload(*encode_dataset(ds))
        except Exception as exc:  # noqa: BLE001 - collected for the assertion
            errors.append(exc)

    threads = [threading.Thread(target=upload, args=(ds,)) for ds in datasets]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    stored = {s.session_id for s in store.list()}
    assert stored == {ds.session_id for ds in datasets}
    for ds in datasets:
        assert stored_dataset(store, ds.session_id) == ds


def store_unindexed(store: EdgeStore, monkeypatch, dataset: SessionDataset) -> None:
    """Upload ``dataset`` with its index append failing, as after a crash between the rename
    and the append: its directory is in place, its index line is not."""
    failures = [OSError(errno.ENOSPC, "No space left on device")]

    def open_failing_once(*args, **kwargs):
        if failures:
            raise failures.pop()
        return builtins.open(*args, **kwargs)

    monkeypatch.setattr(edge, "open", open_failing_once, raising=False)
    with pytest.raises(OSError):
        store.upload(*encode_dataset(dataset))
    assert store.list() == [] and (store.data_dir / dataset.session_id).is_dir()


def test_upload_retried_after_failed_index_append_is_listed(store, tmp_path, monkeypatch, decodes):
    # the retry, compared with the stored files and not decoded, must index it
    dataset = build_dataset()
    store_unindexed(store, monkeypatch, dataset)
    decodes.clear()
    assert store.upload(*encode_dataset(dataset)) == UploadReceipt("ses-r1", 5)
    assert decodes == []
    assert [s.session_id for s in store.list()] == ["ses-r1"]
    assert [s.session_id for s in EdgeStore(tmp_path / "data").list()] == ["ses-r1"]


def test_a_retry_spelled_otherwise_after_a_failed_index_append_is_decoded_and_listed(
        store, tmp_path, monkeypatch, decodes):
    dataset = build_dataset()
    store_unindexed(store, monkeypatch, dataset)
    decodes.clear()
    meta, trace = encode_dataset(dataset)
    meta = meta.replace("efficiency = 0.8\n", "efficiency = 0.80\n")
    assert store.upload(meta, trace) == UploadReceipt("ses-r1", 5)
    assert decodes == ["_Gate", "record_blocks"]
    assert [s.session_id for s in EdgeStore(tmp_path / "data").list()] == ["ses-r1"]
    assert stored_dataset(store, "ses-r1") == dataset


def test_upload_replaces_a_stale_temp_dir_of_its_session(tmp_path):
    """A crash mid-upload leaves ``+tmp-<id>``; the store removes it at open and stages afresh."""
    stale = tmp_path / "data" / "+tmp-ses-r1"
    stale.mkdir(parents=True)
    (stale / edge.META_FILENAME).write_bytes(b"session_id = ses-r1\n")
    store = EdgeStore(tmp_path / "data")
    assert not stale.exists()
    dataset = build_dataset()
    assert store.upload(*encode_dataset(dataset)) == UploadReceipt("ses-r1", 5)
    assert stored_dataset(store, "ses-r1") == dataset
    assert sorted(p.name for p in store.data_dir.iterdir()) == [EdgeStore.INDEX_FILENAME, "ses-r1"]


def test_another_sessions_staging_dir_is_gone_after_a_reopen(store):
    store.upload(*encode_dataset(build_dataset()))
    orphan = store.data_dir / "+tmp-0123abcd"
    (orphan / "nested").mkdir(parents=True)
    (orphan / edge.TRACE_FILENAME).write_bytes(b"a trace cut short")
    reopened = EdgeStore(store.data_dir)
    assert sorted(p.name for p in store.data_dir.iterdir()) == [EdgeStore.INDEX_FILENAME, "ses-r1"]
    assert [s.session_id for s in reopened.list()] == ["ses-r1"]


def test_an_upload_stages_where_no_session_is_stored(store, tmp_path):
    """``.tmp-foo`` is a session id: the upload of ``foo`` must not stage in its directory."""
    dotted, plain = build_dataset(session_id=".tmp-foo"), build_dataset(session_id="foo")
    store.upload(*encode_dataset(dotted))
    store.upload(*encode_dataset(plain))
    for opened in (store, EdgeStore(tmp_path / "data")):
        assert [s.session_id for s in opened.list()] == [".tmp-foo", "foo"]
        assert stored_dataset(opened, ".tmp-foo") == dotted
        assert stored_dataset(opened, "foo") == plain


def test_a_torn_last_index_line_is_dropped_at_open(tmp_path):
    """Each cut of the last line's id leaves the store openable, listing every complete line."""
    data = tmp_path / "data"
    first, torn = build_dataset(session_id="ses-first"), build_dataset(session_id="ses-torn")
    store = EdgeStore(data)
    store.upload(*encode_dataset(first))
    store.upload(*encode_dataset(torn))
    index = data / EdgeStore.INDEX_FILENAME
    intact = index.read_bytes()
    assert intact == b"ses-first\nses-torn\n"
    for cut in range(1, len(b"ses-torn\n") + 1):
        index.write_bytes(intact[:-cut])
        assert [s.session_id for s in EdgeStore(data).list()] == ["ses-first"]
        assert index.read_bytes() == b"ses-first\n"
        EdgeStore(data).upload(*encode_dataset(torn))  # its directory is in place: the retry indexes it
        assert [s.session_id for s in EdgeStore(data).list()] == ["ses-first", "ses-torn"]
        assert index.read_bytes() == intact


# --- validation gate -------------------------------------------------------------


def test_misaligned_dataset_rejected_and_not_persisted(store):
    dataset = build_dataset(ticks=6)
    gappy = dataclasses.replace(
        dataset, records=dataset.records[:3] + dataset.records[4:]
    )
    with pytest.raises(ValidationFailed):
        store.upload(*encode_dataset(gappy))
    with pytest.raises(NotFound):
        store.get(dataset.session_id)
    assert store.list() == []


def test_wrong_metrics_rejected(store):
    dataset = build_dataset()
    wrong = dataclasses.replace(
        dataset, metrics=dataclasses.replace(dataset.metrics, energy_loss_mah=123.0)
    )
    with pytest.raises(ValidationFailed):
        store.upload(*encode_dataset(wrong))


def test_unsynchronized_timestamps_rejected():
    dataset = build_dataset()
    provider_record, consumer_record = dataset.records[0]
    skewed = dataclasses.replace(
        dataset,
        records=((provider_record, consumer_record._replace(wall_time_s=-1.0)),)
        + dataset.records[1:],
    )
    with pytest.raises(ValidationFailed):
        validate_dataset(skewed)


def test_provider_rows_naming_another_provider_rejected(store):
    dataset = build_dataset()
    renamed = dataclasses.replace(
        dataset, records=tuple((p._replace(device_id="p9"), c) for p, c in dataset.records)
    )
    assert renamed.provider_id == "p1"
    with pytest.raises(ValidationFailed):
        store.upload(*encode_dataset(renamed))
    assert store.list() == []


def test_consumer_rows_naming_another_consumer_rejected(store):
    dataset = build_dataset()
    request = make_request(RequestKind.DURATION, 5.0, "c9", request_id="r1")
    renamed = dataclasses.replace(dataset, request=request)
    assert {c.device_id for _, c in renamed.records} == {"c1"}
    with pytest.raises(ValidationFailed):
        store.upload(*encode_dataset(renamed))
    assert store.list() == []


def test_digest_is_content_stable():
    a = build_dataset(rng=random.Random(5))
    b = build_dataset(rng=random.Random(5))
    assert dataset_digest(a) == dataset_digest(b)
    c = build_dataset(rng=random.Random(6))
    assert dataset_digest(a) != dataset_digest(c)


def test_encode_meta_bytes_are_pinned():
    """The meta block is digest input: stores written earlier depend on these bytes."""
    assert encode_meta(build_dataset()) == (
        "session_id = ses-r1\n"
        "consumer_id = c1\n"
        "provider_id = p1\n"
        "technology = wireless_distance\n"
        "transfer_rate_ma = 1200.0\n"
        "efficiency = 0.8\n"
        "taper_start_pct = 90.0\n"
        "distance_m = 0.02\n"
        "provider_capacity_mah = 4080.0\n"
        "consumer_capacity_mah = 2915.0\n"
        "provider_baseline_ma = 40.0\n"
        "consumer_baseline_ma = 40.0\n"
        "request_id = r1\n"
        "request_kind = duration\n"
        "request_value = 5.0\n"
        "interval_s = 1.0\n"
        "terminal_reason = DurationElapsed\n"
        "provider_loss_mah = 0.8142668004688858\n"
        "consumer_gain_mah = 0.6514134403749949\n"
        "energy_loss_mah = 0.16285336009389084\n"
        "duration_s = 4.0\n"
        "record_count = 5\n"
    )


@pytest.mark.parametrize(
    "path",
    [p for p in sorted(SCENARIO_DIR.glob("*.cfg")) if parse_scenario(p).clock_mode == "virtual"],
    ids=lambda p: p.stem,
)
def test_bundled_run_dataset_survives_its_encoding(path):
    """Every fact a run's dataset holds is in its meta block or its trace CSV."""
    dataset = run_scenario(parse_scenario(path)).dataset
    meta, trace = encode_meta(dataset), trace_csv_text(dataset.records)
    assert dataset_from_parts(parse_meta(meta), records_from_csv_text(trace)) == dataset


# --- TCP protocol -----------------------------------------------------------------


@pytest.fixture
def served_store(tmp_path):
    store = EdgeStore(tmp_path / "data")
    server = EdgeServer(store).start()
    client = EdgeClient(server.address)
    yield store, server, client
    server.stop()


def test_tcp_upload_and_get(served_store):
    _, _, client = served_store
    dataset = build_dataset()
    receipt = client.upload(dataset)
    assert receipt == UploadReceipt("ses-r1", 5)
    assert client.get("ses-r1") == dataset


def test_tcp_list(served_store):
    _, _, client = served_store
    rng = random.Random(2)
    for i in range(3):
        client.upload(build_dataset(session_id=f"ses-{i}", rng=rng))
    assert [s.session_id for s in client.list()] == ["ses-0", "ses-1", "ses-2"]


def test_tcp_get_unknown_raises_not_found(served_store):
    _, _, client = served_store
    with pytest.raises(NotFound):
        client.get("ses-missing")


def test_tcp_conflict_surfaces(served_store):
    _, _, client = served_store
    dataset = build_dataset(ticks=3)
    client.upload(dataset)
    provider_record, consumer_record = dataset.records[-1]
    tampered = dataclasses.replace(
        dataset,
        records=dataset.records[:-1]
        + ((provider_record._replace(cumulative_transferred_mah=5.5),
            consumer_record),),
    )
    with pytest.raises(ConflictingSession):
        client.upload(tampered)


def test_tcp_survives_server_restart(tmp_path):
    store = EdgeStore(tmp_path / "data")
    server = EdgeServer(store).start()
    dataset = build_dataset()
    EdgeClient(server.address).upload(dataset)
    server.stop()

    reopened = EdgeStore(tmp_path / "data")
    server2 = EdgeServer(reopened).start()
    try:
        assert EdgeClient(server2.address).get("ses-r1") == dataset
    finally:
        server2.stop()


def test_dot_only_session_ids_refused(served_store, tmp_path):
    store, server, client = served_store
    # a readable session one level up, where GET .. would look (data_dir/..)
    client.upload(build_dataset(session_id="ses-decoy"))
    for name in (edge.META_FILENAME, edge.TRACE_FILENAME):
        shutil.copy(store.data_dir / "ses-decoy" / name, tmp_path / name)
    files = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}

    with pytest.raises(ValueError):
        store.get("..")
    with pytest.raises(EnergyShareError):
        client.get("..")
    upload = dataset_block("UPLOAD ses-up 5", build_dataset(session_id="ses-up"))
    with socket.create_connection(parse_addr(server.address), timeout=10.0) as conn:
        conn.sendall(upload.replace("ses-up", "..").encode("utf-8"))
        reply = conn.makefile("r", encoding="utf-8").readline()
    assert reply.startswith("ERR ")
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == files


def dataset_block(header: str, dataset: SessionDataset) -> str:
    """A header line, the meta block, a blank line, the trace CSV and ``END``."""
    return f"{header}\n{encode_meta(dataset)}\n{trace_csv_text(dataset.records)}END\n"


def raw_exchange(address: str, text: str) -> str:
    """Send ``text`` on a fresh connection, close our side, read the whole reply."""
    with socket.create_connection(parse_addr(address), timeout=10.0) as conn:
        conn.sendall(text.encode("utf-8"))
        conn.shutdown(socket.SHUT_WR)
        chunks = []
        while chunk := conn.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks).decode("utf-8")


def test_a_summary_line_carries_the_summary_fields_in_order():
    assert list(LINES["SUMMARY"].groupindex) == list(SessionSummary._fields)


def test_get_reply_is_the_canonical_dataset_block(served_store):
    _, server, client = served_store
    dataset = build_dataset(session_id="ses-wire", ticks=200)
    client.upload(dataset)
    reply = raw_exchange(server.address, "GET ses-wire\n")
    assert reply == dataset_block("DATASET ses-wire 200", dataset)


def test_pipelined_requests_each_get_their_reply(served_store):
    """Commands sent in one write are answered in order, as if sent one at a time."""
    _, server, _ = served_store
    requests = [
        dataset_block("UPLOAD ses-a 5", build_dataset(session_id="ses-a")),
        "GET ses-a\n",
        "GET ses-b\n",
        "LIST\n",
    ]
    pipelined = raw_exchange(server.address, "".join(requests))
    one_at_a_time = [raw_exchange(server.address, request) for request in requests]
    assert one_at_a_time[0] == "OK ses-a 5\n"
    assert one_at_a_time[2].startswith("ERR NotFound ")
    assert pipelined == "".join(one_at_a_time)


def test_damaged_stored_trace_is_refused(served_store):
    store, _, client = served_store
    rng = random.Random(3)
    damaged, intact = (build_dataset(session_id=s, rng=rng) for s in ("ses-bad", "ses-ok"))
    client.upload(damaged)
    client.upload(intact)
    trace_path = store.data_dir / "ses-bad" / edge.TRACE_FILENAME
    lines = trace_path.read_text(encoding="utf-8").split("\n")
    fields = lines[3].split(",")
    charge = fields[6]  # battery_charge_mah, a float with decimals
    at = charge.index(".") + 1
    fields[6] = charge[:at] + str((int(charge[at]) + 1) % 10) + charge[at + 1:]
    lines[3] = ",".join(fields)
    trace_path.write_text("\n".join(lines), encoding="utf-8")
    assert len(records_from_csv_text(trace_path.read_text(encoding="utf-8"))) == 10  # parses

    with pytest.raises(CorruptSession):
        store.get("ses-bad")
    with pytest.raises(EnergyShareError):
        client.get("ses-bad")
    assert client.get("ses-ok") == intact


def test_upload_with_missing_meta_key_gets_err_reply(served_store):
    _, server, client = served_store
    upload = f"UPLOAD s1 1\nsession_id = s1\n\n{TRACE_HEADER}\nEND\n"
    reply = raw_exchange(server.address, upload)
    assert reply.startswith("ERR Malformed ")
    assert client.list() == []


def test_upload_with_bad_trace_row_gets_err_reply(served_store):
    _, server, client = served_store
    upload = dataset_block("UPLOAD ses-r1 5", build_dataset())
    reply = raw_exchange(server.address, upload.replace(",c1,consumer,", ",c1,observer,", 1))
    assert reply.startswith("ERR ValidationFailed tick 0: ")
    assert client.list() == []


@pytest.mark.parametrize("request_line", [b"LIST\xff\n", b"GET \xffx\n"], ids=["LIST", "GET"])
def test_request_line_not_utf8_gets_err_and_closes_only_its_connection(served_store, request_line):
    """The lines before it are answered first; the line after it is not read."""
    _, server, client = served_store
    with socket.create_connection(parse_addr(server.address), timeout=10.0) as conn:
        conn.sendall(b"LIST\n" + request_line + b"LIST\n")
        reply = conn.makefile("rb").read()  # to EOF: the server closes this connection
    assert reply.startswith(b"END\nERR Malformed ")
    assert reply.count(b"\n") == 2
    assert client.upload(build_dataset()) == UploadReceipt("ses-r1", 5)
    assert [s.session_id for s in client.list()] == ["ses-r1"]


def test_upload_block_line_not_utf8_gets_err_and_closes_its_connection(served_store):
    _, server, client = served_store
    upload = dataset_block("UPLOAD ses-r1 5", build_dataset()).encode("utf-8")
    upload = upload.replace(b",c1,consumer,", b",c1,consumer\xff,", 1)
    with socket.create_connection(parse_addr(server.address), timeout=10.0) as conn:
        conn.sendall(upload + b"LIST\n")
        reply = conn.makefile("rb").read()
    assert reply.startswith(b"ERR Malformed ")
    assert reply.count(b"\n") == 1
    assert client.list() == []


def test_upload_without_records_gets_validation_failed(served_store):
    _, server, client = served_store
    meta = encode_meta(build_dataset()).replace("record_count = 5\n", "record_count = 0\n")
    reply = raw_exchange(server.address, f"UPLOAD ses-r1 0\n{meta}\n{TRACE_HEADER}\nEND\n")
    assert reply == "ERR ValidationFailed dataset has no records\n"
    assert client.list() == []


def test_unknown_command_gets_err_reply(served_store):
    _, server, _ = served_store
    assert raw_exchange(server.address, "HELLO there\n") == "ERR Malformed unknown command 'HELLO'\n"


def test_upload_storage_failure_gets_err_reply(served_store, monkeypatch):
    store, server, _ = served_store

    def full_disk(meta, trace):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(store, "upload", full_disk)
    upload = dataset_block("UPLOAD ses-r1 5", build_dataset())
    reply = raw_exchange(server.address, upload)
    assert reply.startswith("ERR StorageError ")


def test_upload_with_non_finite_meta_numbers_gets_err_reply(served_store):
    """nan passes TechnologyParams' rate check and inf its distance check; the decoder refuses both."""
    _, server, client = served_store
    upload = dataset_block("UPLOAD ses-r1 5", build_dataset())
    upload = upload.replace("transfer_rate_ma = 1200.0\n", "transfer_rate_ma = nan\n")
    upload = upload.replace("distance_m = 0.02\n", "distance_m = inf\n")
    reply = raw_exchange(server.address, upload)
    assert reply.startswith("ERR Malformed ")
    assert client.list() == []


def test_upload_with_bad_provider_id_gets_err_reply(served_store):
    _, server, client = served_store
    upload = dataset_block("UPLOAD ses-r1 5", build_dataset())
    reply = raw_exchange(server.address, upload.replace("provider_id = p1\n", "provider_id = p/1\n"))
    assert reply.startswith("ERR Malformed ")
    assert client.list() == []


def test_upload_with_negative_distance_gets_err_reply(served_store):
    """The meta decoder refuses what TechnologyParams refuses: distance_m < 0."""
    _, server, client = served_store
    upload = dataset_block("UPLOAD ses-r1 5", build_dataset())
    upload = upload.replace("distance_m = 0.02\n", "distance_m = -1.0\n")
    reply = raw_exchange(server.address, upload)
    assert reply.startswith("ERR Malformed ")
    assert client.list() == []


def test_list_reply_bytes_are_pinned(served_store):
    _, server, client = served_store
    client.upload(build_dataset())
    assert raw_exchange(server.address, "LIST\n") == (
        "SUMMARY session_id=ses-r1 consumer_id=c1 provider_id=p1 technology=wireless_distance "
        "terminal_reason=DurationElapsed energy_loss_mah=0.16285336009389084\nEND\n"
    )


# --- the meta key table and upload refusals -------------------------------------


def test_docs_meta_table_lists_the_codes_keys_in_order():
    text = WIRE_DOC.read_text(encoding="utf-8")
    table = text.split("### Dataset metadata", 1)[1].split("\n### ", 1)[0]
    assert re.findall(r"^\| `([^`]+)` \|", table, flags=re.MULTILINE) == list(edge._META)


def test_each_meta_key_is_spelled_once_in_edge_py():
    """Encoding, decoding, LIST and the checks read the key table; no other code names a key."""
    tree = ast.parse(Path(edge.__file__).read_text(encoding="utf-8"))
    strings = Counter(
        node.value for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    )
    assert {key: strings[key] for key in edge._META if strings[key] != 1} == {}


def edit_row(trace: str, row: int, **values: str) -> str:
    """``trace`` with fields of data row ``row`` (0 is the row after the header) replaced."""
    lines = trace.split("\n")
    fields = lines[row + 1].split(",")
    for name, value in values.items():
        fields[MonitorRecord._fields.index(name)] = value
    lines[row + 1] = ",".join(fields)
    return "\n".join(lines)


def repeat_row(trace: str, row: int) -> str:
    lines = trace.split("\n")
    return "\n".join(lines[:row + 2] + lines[row + 1:])


def level_one_ulp_low(trace: str, row: int, capacity_mah: float) -> str:
    """``trace`` with data row ``row``'s level one ulp below the one its charge gives."""
    level = level_pct_of(records_from_csv_text(trace)[row].battery_charge_mah, capacity_mah)
    return edit_row(trace, row, battery_level_pct=repr(math.nextafter(level, 0.0)))


# the reply code, and an edit of build_dataset()'s meta block and trace CSV changing one thing
WRONG_FACTS = {
    "wrong_record_count": ("Malformed", lambda m, t: (
        m.replace("record_count = 5\n", "record_count = 999\n"), t)),
    "unknown_key": ("Malformed", lambda m, t: (m + "colour = blue\n", t)),
    "negative_capacity": ("Malformed", lambda m, t: (
        m.replace("provider_capacity_mah = ", "provider_capacity_mah = -"), t)),
    "zero_interval": ("Malformed", lambda m, t: (
        m.replace("interval_s = 1.0\n", "interval_s = 0.0\n"), t)),
    "negative_request_value": ("Malformed", lambda m, t: (
        m.replace("request_value = ", "request_value = -"), t)),
    "repeated_meta_key": ("Malformed", lambda m, t: (
        m.replace("provider_id = p1\n", "provider_id = p1\n" * 2), t)),
    "nan_level_inf_charge": ("ValidationFailed", lambda m, t: (
        m, edit_row(t, 2, battery_level_pct="nan", battery_charge_mah="inf"))),
    "level_above_100": ("ValidationFailed", lambda m, t: (
        m, edit_row(t, 3, battery_level_pct="250.0"))),
    "repeated_provider_row": ("ValidationFailed", lambda m, t: (m, repeat_row(t, 4))),
    # tick 1's consumer row: its charge is about 30% of the consumer's capacity
    "level_not_its_charge": ("ValidationFailed", lambda m, t: (
        m, edit_row(t, 3, battery_level_pct="99.0"))),
    "level_one_ulp_off_its_charge": ("ValidationFailed", lambda m, t: (
        m, level_one_ulp_low(t, 3, 2915.0))),
    # the rows stay 1 s apart
    "interval_not_the_row_spacing": ("ValidationFailed", lambda m, t: (
        m.replace("interval_s = 1.0\n", "interval_s = 7.0\n"), t)),
}


@pytest.mark.parametrize("code, edit", WRONG_FACTS.values(), ids=WRONG_FACTS)
def test_upload_with_a_wrong_fact_is_refused_and_not_listed(served_store, code, edit):
    _, server, client = served_store
    dataset = build_dataset()
    meta, trace = edit(encode_meta(dataset), trace_csv_text(dataset.records))
    assert (meta, trace) != (encode_meta(dataset), trace_csv_text(dataset.records))
    reply = raw_exchange(server.address, f"UPLOAD ses-r1 5\n{meta}\n{trace}END\n")
    assert reply.startswith(f"ERR {code} ")
    assert client.list() == []


# rows pair by position, so a missing row and complete pairs in an order
# trace_csv_text never writes are refused alike; row 2t is tick t's provider row,
# and a row left without its pair is named by its pair position
REORDERED = {
    "consumer_row_of_tick_2_missing": (lambda rows: rows[:5] + rows[6:], 4),
    "all_provider_rows_first": (lambda rows: rows[::2] + rows[1::2], 0),
    "ticks_descending": (lambda rows: [row for t in range(4, -1, -1) for row in rows[2 * t:2 * t + 2]], 0),
    "consumer_row_first": (lambda rows: [rows[i ^ 1] for i in range(len(rows))], 0),
}


@pytest.mark.parametrize("reorder, tick", REORDERED.values(), ids=REORDERED)
def test_upload_with_rows_out_of_written_order_gets_validation_failed(served_store, reorder, tick):
    _, server, client = served_store
    dataset = build_dataset()
    header, *rows = trace_csv_text(dataset.records).splitlines()
    trace = "\n".join([header, *reorder(rows)])
    reply = raw_exchange(server.address, f"UPLOAD ses-r1 5\n{encode_meta(dataset)}\n{trace}\nEND\n")
    assert reply.startswith(f"ERR ValidationFailed tick {tick}: ")
    assert client.list() == []


# --- the dataset gate: every row rule, whichever reader a trace text comes in by ------


def trace_rows(dataset: SessionDataset) -> list[str]:
    return trace_csv_text(dataset.records).splitlines()[1:]


def decode_rows(dataset: SessionDataset, rows: list[str]) -> SessionDataset:
    """``decode_dataset`` of ``dataset``'s meta block, its ``record_count`` set to the
    pairs ``rows`` make, and a trace of ``rows``."""
    meta = encode_meta(dataset).replace(
        f"record_count = {dataset.record_count}\n", f"record_count = {len(rows) // 2}\n"
    )
    return decode_dataset(meta, "\n".join([TRACE_HEADER, *rows]) + "\n")


def test_gate_refuses_a_metric_that_recomputes_to_infinity():
    """Charges near the float range make ``energy_loss_mah`` overflow; no stored value matches."""
    cap = 1e308
    dataset = build_dataset(ticks=2)
    (p0, c0), (p1, c1) = dataset.records
    full = dict(battery_level_pct=100.0, battery_charge_mah=cap)
    empty = dict(battery_level_pct=0.0, battery_charge_mah=0.0)
    huge = dataclasses.replace(
        dataset, provider_capacity_mah=cap, consumer_capacity_mah=cap,
        records=((p0._replace(**full), c0._replace(**full)), (p1._replace(**empty), c1._replace(**empty))),
        metrics=SessionMetrics(cap, -cap, 1.7976931348623157e308, 1.0),
    )
    with pytest.raises(ValidationFailed, match=r"energy_loss_mah stored=.* recomputed=inf"):
        decode_dataset(encode_meta(huge), trace_csv_text(huge.records))


def test_decoding_runs_the_gate_on_rows_as_written():
    dataset = build_dataset()
    assert decode_rows(dataset, trace_rows(dataset)) == dataset


# row 2t is the provider row of tick t; a row without its pair is named by its pair position
MISORDERED = {
    "missing_consumer_row": (lambda rows: rows[:5] + rows[6:], 4),
    "missing_provider_row": (lambda rows: rows[:4] + rows[5:], 4),
    "missing_last_row": (lambda rows: rows[:-1], 4),
    "repeated_row": (lambda rows: rows[:5] + rows[4:], 5),
    "repeated_tick": (lambda rows: rows[:6] + rows[4:], 3),
    "rows_of_a_tick_swapped": (lambda rows: rows[:4] + [rows[5], rows[4]] + rows[6:], 2),
    "ticks_not_rising": (lambda rows: rows[:4] + rows[6:8] + rows[4:6] + rows[8:], 2),
    "all_provider_rows_first": (lambda rows: rows[::2] + rows[1::2], 0),
}


@pytest.mark.parametrize("edit, tick", MISORDERED.values(), ids=MISORDERED)
def test_gate_refuses_rows_out_of_written_order_naming_the_tick(edit, tick):
    dataset = build_dataset()
    with pytest.raises(ValidationFailed, match=rf"^tick {tick}: "):
        decode_rows(dataset, edit(trace_rows(dataset)))


POSITION = "a row's tick_index, time, session_id, device_id or role is not the one its position"
RANGE = "a time, charge or cumulative out of range, or a level off its charge"
# fields of one row set to values no row of the dataset may hold, and the refusal's message
BAD_FIELDS = {
    "negative_tick_index": ({"tick_index": "-1"}, POSITION),
    "role_neither_provider_nor_consumer": ({"role": "observer"}, POSITION),
    "session_id_check_id_refuses": ({"session_id": ".."}, POSITION),
    "device_id_check_id_refuses": ({"device_id": "a;b"}, POSITION),
    # the place is checked before the ranges
    "wrong_device_id_and_negative_charge": ({"device_id": "x9", "battery_charge_mah": "-1.0"}, POSITION),
    # in the first row, every later row's time is computed from it
    "nan_wall_time": ({"wall_time_s": "nan"}, POSITION),
    "nan_level": ({"battery_level_pct": "nan"}, RANGE),
    "inf_cumulative": ({"cumulative_transferred_mah": "inf"}, RANGE),
}


@pytest.mark.parametrize("row", [0, 5, 9], ids=["first_row", "middle_row", "last_row"])
@pytest.mark.parametrize("edit, message", BAD_FIELDS.values(), ids=BAD_FIELDS)
def test_gate_refuses_a_bad_field_naming_the_tick(edit, message, row):
    dataset = build_dataset()
    trace = edit_row(trace_csv_text(dataset.records), row, **edit)
    with pytest.raises(ValidationFailed, match=rf"^tick {row // 2}: {re.escape(message)}"):
        decode_dataset(encode_meta(dataset), trace)


valid_datasets = st.builds(build_dataset, ticks=st.integers(1, 12), rng=st.randoms(use_true_random=False))
ID_CHARS = string.ascii_letters + string.digits + "_.:-"
role_texts = st.text(ID_CHARS, min_size=1, max_size=12).filter(
    lambda s: s not in (ROLE_PROVIDER, ROLE_CONSUMER)
)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(valid_datasets, st.data())
def test_gate_refuses_any_two_rows_swapped_naming_the_first(dataset, data):
    rows = trace_rows(dataset)
    pick = st.lists(st.integers(0, len(rows) - 1), min_size=2, max_size=2, unique=True)
    i, j = sorted(data.draw(pick))
    rows[i], rows[j] = rows[j], rows[i]
    with pytest.raises(ValidationFailed, match=rf"^tick {i // 2}: "):
        decode_rows(dataset, rows)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(valid_datasets, st.data())
def test_gate_refuses_one_bad_role_or_tick_naming_the_tick(dataset, data):
    at = data.draw(st.integers(0, 2 * dataset.record_count - 1))
    if data.draw(st.booleans()):
        edit = {"role": data.draw(role_texts)}
    else:
        edit = {"tick_index": str(data.draw(st.integers(max_value=-1)))}
    trace = edit_row(trace_csv_text(dataset.records), at, **edit)
    with pytest.raises(ValidationFailed, match=rf"^tick {at // 2}: "):
        decode_dataset(encode_meta(dataset), trace)


def test_upload_header_without_record_count_gets_err_reply(served_store):
    _, server, client = served_store
    reply = raw_exchange(server.address, dataset_block("UPLOAD ses-r1", build_dataset()))
    assert reply.startswith("ERR Malformed ")
    assert client.list() == []


# --- single-field edits: refused, or stored with the facts as sent -----------------

# texts a field is set to: numbers in and out of every range, non-finite
# numbers, ids, enum values, and short junk (never a newline)
FIELD_TEXTS = st.one_of(
    st.sampled_from([
        "", "0", "-1", "0.0", "-0.0", "nan", "inf", "-inf", "1e308", "1e-300", "5", "+5",
        "1_0", "999", "p1", "c1", "p/1", "..", "amount", "cable", "AmountDelivered", "consumer",
    ]),
    st.integers(-2, 12).map(str),
    st.floats().map(repr),
    st.text("abcp019.-_:=, e", max_size=6),
)
EDITED = build_dataset()
EDITED_META, EDITED_TRACE = encode_meta(EDITED), trace_csv_text(EDITED.records)
EDIT_SETTINGS = settings(max_examples=12, derandomize=True, database=None, deadline=None)


def same_fact(sent: str, kept: str) -> bool:
    """Equal as numbers when both read as numbers (``1e3`` is ``1000.0``), else as text."""
    try:
        return float(sent) == float(kept)
    except ValueError:
        return sent == kept


def check_refused_or_kept(served, session_id: str, meta: str, trace: str) -> None:
    """An UPLOAD is refused with a documented code and not listed, or it is
    stored with every fact it sent and reads back as a valid dataset."""
    store, server, client = served
    before = client.list()
    reply = raw_exchange(server.address, f"UPLOAD {session_id} 5\n{meta}\n{trace}END\n")
    if not reply.startswith("OK "):
        assert reply.startswith(("ERR Malformed ", "ERR ValidationFailed ")), reply
        assert client.list() == before
        return
    assert session_id in [s.session_id for s in client.list()]
    validate_dataset(client.get(session_id))
    kept_meta, kept_trace = store.get(session_id)
    kept_trace = b"".join(kept_trace).decode("utf-8")
    sent, kept = parse_meta(meta), parse_meta(kept_meta)
    assert sent.keys() == kept.keys()
    assert [key for key in sent if not same_fact(sent[key], kept[key])] == []
    assert sorted(records_from_csv_text(trace)) == sorted(records_from_csv_text(kept_trace))


@pytest.mark.parametrize("key", list(parse_meta(EDITED_META)))
def test_meta_field_edit_is_refused_or_kept(served_store, key):
    examples = itertools.count()

    @EDIT_SETTINGS
    @given(text=st.none() | FIELD_TEXTS)  # None drops the key's line
    def check(text):
        session_id = f"ses-m{next(examples)}"
        meta, trace = (part.replace("ses-r1", session_id) for part in (EDITED_META, EDITED_TRACE))
        line = next(line for line in meta.split("\n") if line.startswith(f"{key} = "))
        meta = meta.replace(line + "\n", "" if text is None else f"{key} = {text}\n")
        check_refused_or_kept(served_store, session_id, meta, trace)

    check()


@pytest.mark.parametrize("column", MonitorRecord._fields)
def test_trace_field_edit_is_refused_or_kept(served_store, column):
    examples = itertools.count()

    @EDIT_SETTINGS
    @given(row=st.integers(0, 2 * EDITED.record_count - 1), text=FIELD_TEXTS)
    def check(row, text):
        session_id = f"ses-t{next(examples)}"
        meta, trace = (part.replace("ses-r1", session_id) for part in (EDITED_META, EDITED_TRACE))
        check_refused_or_kept(served_store, session_id, meta, edit_row(trace, row, **{column: text}))

    check()


# --- dataset blocks and trace files read as their lines arrive ---------------------


@contextmanager
def stand_in_edge(reply: bytes):
    """An :class:`EdgeClient` of a stand-in server that reads one request, an UPLOAD to its
    END line, and answers ``reply``."""
    with socket.create_server(("127.0.0.1", 0)) as listener:
        def answer_once():
            conn, _ = listener.accept()
            with conn, conn.makefile("rb") as request:
                if request.readline().startswith(b"UPLOAD "):
                    while request.readline() not in (b"END\n", b""):
                        pass
                conn.sendall(reply)

        server = threading.Thread(target=answer_once, daemon=True)
        server.start()
        yield EdgeClient(f"127.0.0.1:{listener.getsockname()[1]}")
        server.join(timeout=10.0)
    assert not server.is_alive()


@pytest.mark.parametrize("session_id, header", [
    ("ses-asked", "DATASET ses-asked 5"),
    ("ses-other", "DATASET ses-other 5"),
    ("ses-other", "DATASET ses-asked 5"),
    ("ses-asked", "DATASET ses-asked 4"),
], ids=["asked", "other_session", "other_session_under_the_asked_header", "wrong_record_count"])
def test_get_returns_only_the_dataset_it_asked_for(session_id, header):
    """A stand-in server answers ``GET ses-asked`` with ``header`` and a 5-pair dataset block."""
    dataset = build_dataset(session_id=session_id)
    with stand_in_edge(dataset_block(header, dataset).encode("utf-8")) as client:
        if (header, session_id) == ("DATASET ses-asked 5", "ses-asked"):
            assert client.get("ses-asked") == dataset
        else:
            with pytest.raises(EnergyShareError, match="does not hold session ses-asked"):
                client.get("ses-asked")


@pytest.mark.parametrize("reply", [
    "OK ses-asked 5",
    "OK ses-asked \u0665",  # ARABIC-INDIC DIGIT FIVE, which int() reads as 5
    "OK ses-other 5",
    "OK ses-asked 4",
    "OK ses-asked 5 extra",
    "OK",
], ids=["sent", "non_ascii_count", "other_session", "other_count", "extra_field", "bare_ok"])
def test_upload_accepts_only_the_receipt_of_what_it_sent(reply):
    """A stand-in server reads a 5-pair ``ses-asked`` upload to its END and answers ``reply``."""
    with stand_in_edge(f"{reply}\n".encode("utf-8")) as client:
        if reply == "OK ses-asked 5":
            assert client.upload(build_dataset(session_id="ses-asked")) == UploadReceipt("ses-asked", 5)
        else:
            with pytest.raises(EnergyShareError) as refused:
                client.upload(build_dataset(session_id="ses-asked"))
            assert str(refused.value) == reply


ASKED = dataset_block("DATASET ses-asked 5", build_dataset(session_id="ses-asked")).encode("utf-8")
# a reply with a byte that is not UTF-8, and the client request it answers
NOT_UTF8_REPLIES = {
    "get_trace": (ASKED.replace(b",c1,consumer,", b",c1,consumer\xff,", 1), lambda c: c.get("ses-asked")),
    "get_meta": (ASKED.replace(b"provider_id = p1\n", b"provider_id = p\xff1\n"), lambda c: c.get("ses-asked")),
    "ok_receipt": (b"OK ses-asked 5\xff\n", lambda c: c.upload(build_dataset(session_id="ses-asked"))),
    "summary": (b"SUMMARY session_id=ses-asked\xff\nEND\n", lambda c: c.list()),
}


@pytest.mark.parametrize("reply, request_", NOT_UTF8_REPLIES.values(), ids=NOT_UTF8_REPLIES)
def test_a_reply_byte_not_utf8_raises_as_an_unreadable_reply(reply, request_):
    with stand_in_edge(reply) as client:
        with pytest.raises(EnergyShareError, match=r"^unreadable reply: UnicodeDecodeError\("):
            request_(client)


def test_an_upload_refused_mid_block_leaves_the_next_requests_their_replies(served_store):
    """The server reads a refused block to its END, so what follows is read as requests."""
    _, server, client = served_store
    client.upload(build_dataset(session_id="ses-a"))
    dataset = build_dataset(session_id="ses-b", ticks=10)
    trace = edit_row(trace_csv_text(dataset.records), 9, battery_charge_mah="x")  # row 9 of 20
    requests = [f"UPLOAD ses-b 10\n{encode_meta(dataset)}\n{trace}END\n", "GET ses-a\n", "LIST\n"]
    pipelined = raw_exchange(server.address, "".join(requests))
    one_at_a_time = [raw_exchange(server.address, request) for request in requests]
    assert one_at_a_time[0].startswith("ERR Malformed trace row ")
    assert one_at_a_time[1].startswith("DATASET ses-a 5\n")
    assert one_at_a_time[2].startswith("SUMMARY session_id=ses-a ")
    assert pipelined == "".join(one_at_a_time)


def test_an_upload_block_without_a_blank_line_ends_at_its_end_line(served_store):
    _, server, _ = served_store
    reply = raw_exchange(server.address, "UPLOAD s1 1\nsession_id = s1\nEND\nLIST\n")
    assert reply.startswith("ERR Malformed ")
    assert reply.endswith("\nEND\n") and reply.count("\n") == 2  # LIST: no sessions


def test_an_upload_closed_inside_its_trace_gets_err_reply(served_store):
    _, server, client = served_store
    block = dataset_block("UPLOAD ses-r1 5", build_dataset())
    reply = raw_exchange(server.address, block[:block.index("END\n")])
    assert reply == "ERR Malformed connection closed before END terminator\n"
    assert client.list() == []


# every str.splitlines boundary but "\n"; float() strips most of them from a field's ends
LINE_BOUNDARIES = ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
FLOAT_FIELDS = ["wall_time_s", "battery_level_pct", "battery_charge_mah", "cumulative_transferred_mah"]


def run_directory(path: Path, meta: str, trace: bytes) -> Path:
    path.mkdir()
    (path / "run.txt").write_text("run_id = r\nconsumer_start_level_pct = 40.0\n", encoding="utf-8")
    (path / edge.META_FILENAME).write_text(meta, encoding="utf-8")
    (path / edge.TRACE_FILENAME).write_bytes(trace)
    return path


@pytest.mark.parametrize("boundary", LINE_BOUNDARIES, ids=[repr(b) for b in LINE_BOUNDARIES])
def test_a_line_boundary_inside_a_row_is_refused_by_every_reader(served_store, tmp_path, boundary):
    """Only a ``\\r`` ending the row's last field, read as a ``\\r\\n`` line end, is accepted."""
    _, server, client = served_store
    dataset = build_dataset()
    meta, trace = encode_meta(dataset), trace_csv_text(dataset.records)
    row = trace.split("\n")[4]  # tick 1's consumer row
    fields = dict(zip(MonitorRecord._fields, row.split(",")))
    for name, at_end in itertools.product(FLOAT_FIELDS, (False, True)):
        value = fields[name] + boundary if at_end else boundary + fields[name]
        edited = trace.replace(row, edit_row(row, -1, **{name: value}))
        accepted = boundary == "\r" and at_end and name == FLOAT_FIELDS[-1]
        run_dir = run_directory(tmp_path / f"{name}-{at_end}", meta, edited.encode("utf-8"))
        reply = raw_exchange(server.address, f"UPLOAD ses-r1 5\n{meta}\n{edited}END\n")
        if accepted:
            assert decode_dataset(meta, edited) == dataset
            assert load_run(run_dir).dataset == dataset
            assert reply == "OK ses-r1 5\n"
            continue
        with pytest.raises((ValueError, ValidationFailed)):
            decode_dataset(meta, edited)
        with pytest.raises(IncompatibleRuns):
            load_run(run_dir)
        assert reply.startswith("ERR "), (name, at_end)
        assert client.list() == []


def test_a_trace_file_with_crlf_line_ends_loads(tmp_path):
    dataset = build_dataset()
    meta, trace = encode_meta(dataset), trace_csv_text(dataset.records)
    run_dir = run_directory(tmp_path / "crlf", meta, trace.replace("\n", "\r\n").encode("utf-8"))
    assert load_run(run_dir).dataset == dataset


def test_a_decoded_dataset_shares_its_repeated_fields():
    """Rows share their ids, role, tick and time objects: under 600 bytes a pair held."""
    pairs = 3600
    dataset = build_dataset(ticks=pairs)
    meta, trace = encode_meta(dataset), trace_csv_text(dataset.records)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        decoded = decode_dataset(meta, trace)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert decoded == dataset
    assert held / pairs <= 600
    rows = [row for pair in decoded.records for row in pair]
    assert [len({id(getattr(row, name)) for row in rows})
            for name in ("session_id", "device_id", "role")] == [1, 2, 2]
    assert all(p.tick_index is c.tick_index and p.wall_time_s is c.wall_time_s
               for p, c in decoded.records)


# --- streamed UPLOAD and GET: one piece of a dataset held at a time ------------------

STREAMED = build_dataset(ticks=600)  # 1,200 rows: five pieces of a dataset block
STREAMED_META, STREAMED_TRACE = encode_dataset(STREAMED)


def drop_rows(trace: str, count: int) -> str:
    return "".join(trace.splitlines(keepends=True)[:-count])


def staging_dirs(store: EdgeStore) -> list[Path]:
    return sorted(store.data_dir.glob("+tmp-*"))


# an edit of STREAMED's meta block and trace CSV making one fault, and the reply's start
STREAM_FAULTS = {
    "bad_role_in_last_piece": (lambda m, t: (m, edit_row(t, 1199, role="observer")),
                               "ERR ValidationFailed tick 599: "),
    "unreadable_row_in_last_piece": (lambda m, t: (m, edit_row(t, 1190, battery_charge_mah="x")),
                                     "ERR Malformed trace row "),
    "trace_shorter_than_record_count": (lambda m, t: (m, drop_rows(t, 2)),
                                        "ERR Malformed record_count is 600, the trace holds 599 pairs"),
    "trace_longer_than_record_count": (lambda m, t: (m, t + "".join(t.splitlines(True)[-2:])),
                                       "ERR Malformed record_count is 600, the trace holds 601 pairs"),
    "odd_row_count": (lambda m, t: (m, drop_rows(t, 1)),
                      "ERR ValidationFailed tick 599: a row without its pair"),
    "edited_metrics": (lambda m, t: (re.sub("energy_loss_mah = .*", "energy_loss_mah = 1.5", m), t),
                       "ERR ValidationFailed metrics not recomputable from records: energy_loss_mah "),
}


def whole_text_decode(meta: str, trace: str) -> SessionDataset:
    """The reference decoder: the whole trace parsed into one record list, paired, then gated."""
    dataset = dataset_from_parts(parse_meta(meta), records_from_csv_text(trace))
    validate_dataset(dataset)
    return dataset


@pytest.mark.parametrize("edit, prefix", STREAM_FAULTS.values(), ids=STREAM_FAULTS)
def test_a_streamed_upload_refuses_each_fault_as_the_whole_text_reader_does(served_store, edit, prefix):
    """Each reply, and ``decode_dataset``'s error over the trace a line a piece, is the one the
    whole-text reference decoder's error gives; nothing is staged or listed."""
    store, server, client = served_store
    meta, trace = edit(STREAMED_META, STREAMED_TRACE)
    reply = raw_exchange(server.address, f"UPLOAD ses-r1 600\n{meta}\n{trace}END\n")
    with pytest.raises((ValueError, ValidationFailed)) as refused:
        whole_text_decode(meta, trace)
    with pytest.raises(type(refused.value)) as decoded:
        decode_dataset(meta, trace.splitlines(keepends=True))
    assert str(decoded.value) == str(refused.value)
    code = "ValidationFailed" if isinstance(refused.value, ValidationFailed) else "Malformed"
    assert reply == f"ERR {code} {refused.value}\n"
    assert reply.startswith(prefix)
    assert staging_dirs(store) == [] and client.list() == []


def test_an_upload_header_that_disagrees_with_its_meta_is_refused(served_store):
    store, server, client = served_store
    for header in ("UPLOAD ses-r1 599", "UPLOAD ses-r2 600"):
        reply = raw_exchange(server.address, f"{header}\n{STREAMED_META}\n{STREAMED_TRACE}END\n")
        assert reply == "ERR Malformed header session_id and record_count do not match the dataset\n"
    assert staging_dirs(store) == [] and client.list() == []


class ChunkedReads(io.RawIOBase):
    """A raw stream of ``data`` whose reads return at most ``sizes[0]``, ``sizes[1]``, ...
    bytes, the last size over and over."""

    def __init__(self, data: bytes, sizes: list[int]):
        self.data, self.sizes, self.at = data, list(sizes), 0

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        size = self.sizes.pop(0) if len(self.sizes) > 1 else self.sizes[0]
        chunk = self.data[self.at:self.at + min(size, len(buffer))]
        buffer[:len(chunk)] = chunk
        self.at += len(chunk)
        return len(chunk)


def chunked_reader(data: bytes, sizes: list[int]) -> io.BufferedReader:
    """A buffered reader of ``data`` whose buffer can take it whole, read in ``sizes``."""
    return io.BufferedReader(ChunkedReads(data, sizes), max(len(data), 1))


def test_a_pair_split_between_two_pieces_reads_as_from_one_text(tmp_path):
    """The block's first read ends inside tick 127's provider row, so the first trace piece
    ends with that row and the second opens with the tick's consumer row."""
    tick, rows = 127, STREAMED_TRACE.splitlines(keepends=True)  # rows[0] is the header
    cut = len(STREAMED_META) + 1 + len("".join(rows[:1 + 2 * tick])) + 10

    def pieces(trace: str) -> list[str]:
        block = f"{STREAMED_META}\n{trace}END\n".encode("utf-8")
        return list(edge._read_block(chunked_reader(block, [cut, len(block)])))

    meta, first, second, *rest = pieces(STREAMED_TRACE)
    assert first.endswith(rows[1 + 2 * tick]) and second.startswith(rows[2 + 2 * tick])
    for row in (2 * tick, 2 * tick + 1):  # the pair's two rows, one each side of the cut
        edited = edit_row(STREAMED_TRACE, row, role="observer")
        with pytest.raises(ValidationFailed) as refused:
            whole_text_decode(STREAMED_META, edited)
        with pytest.raises(ValidationFailed) as streamed:
            EdgeStore(tmp_path / f"row-{row}").upload(meta, iter(pieces(edited)[1:]))
        assert str(streamed.value) == str(refused.value)
        assert str(refused.value).startswith(f"tick {tick}: ")
    store = EdgeStore(tmp_path / "data")
    assert store.upload(meta, iter([first, second, *rest])) == UploadReceipt("ses-r1", 600)
    # a piece a line: every pair is split between two pieces
    one_line_pieces = EdgeStore(tmp_path / "lines")
    one_line_pieces.upload(STREAMED_META, STREAMED_TRACE.splitlines(keepends=True))
    for opened in (store, one_line_pieces):
        files = opened.data_dir / "ses-r1"
        assert (files / edge.TRACE_FILENAME).read_bytes() == STREAMED_TRACE.encode("utf-8")
        assert (files / EdgeStore.DIGEST_FILENAME).read_text() == dataset_digest(STREAMED) + "\n"
        assert stored_dataset(opened, "ses-r1") == STREAMED


CUT_SHORT = "connection closed before END terminator"


def check_block_read(dataset: SessionDataset, sizes: list[int], cut: int | None) -> None:
    """Read ``dataset``'s block after its header off a stream that gives it in reads of ``sizes``:
    followed by a pipelined ``LIST``, ending at EOF with no newline after ``END``, or, for a
    ``cut``, ending after its first ``cut`` bytes."""
    meta, trace = encode_dataset(dataset)
    block = f"{meta}\n{trace}END\n".encode("utf-8")
    if cut is not None:
        with pytest.raises(ValueError, match=f"^{CUT_SHORT}$"):
            list(edge._read_block(chunked_reader(block[:cut], sizes)))
        return
    for sent, after in ((block + b"LIST\n", b"LIST\n"), (block[:-1], b"")):
        stream = chunked_reader(sent, sizes)
        first, *pieces = edge._read_block(stream)
        assert (first, "".join(pieces)) == (meta, trace)
        assert all(piece.endswith("\n") for piece in pieces if piece)
        assert decode_dataset(first, pieces) == decode_dataset(meta, trace)
        assert stream.read() == after


def test_a_block_read_with_one_cut_anywhere_is_read_whole_and_no_further():
    """Every cut point, in the meta lines, the blank line, the trace and the END line alike."""
    dataset = build_dataset(ticks=2)
    length = len("".join(encode_dataset(dataset))) + len("\nEND\n")
    for cut in range(1, length + len("LIST\n")):
        check_block_read(dataset, [cut, length], None)
    for cut in range(length - 1):  # every block that ends before its END line does
        check_block_read(dataset, [length], cut)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(valid_datasets, st.data())
def test_a_block_read_in_any_chunks_is_read_whole_and_no_further(dataset, data):
    length = len("".join(encode_dataset(dataset))) + len("\nEND\n")
    sizes = data.draw(st.lists(st.integers(1, length), min_size=1, max_size=40))
    cut = data.draw(st.none() | st.integers(0, length - 2))
    check_block_read(dataset, sizes, cut)


def session_files(store: EdgeStore, session_id: str) -> list[bytes]:
    names = (edge.META_FILENAME, edge.TRACE_FILENAME, EdgeStore.DIGEST_FILENAME)
    return [(store.data_dir / session_id / name).read_bytes() for name in names]


def outcome(call, meta: str, trace: str | list[str]):
    """What ``call`` of ``meta`` and ``trace`` (its pieces one by one, if a list) returns, or
    its error's type and message."""
    try:
        return call(meta, trace if isinstance(trace, str) else iter(trace))
    except (ValueError, EnergyShareError) as exc:
        return type(exc), str(exc)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(valid_datasets, st.data())
def test_a_streamed_upload_in_any_pieces_decides_as_the_whole_text_reader(dataset, data):
    """One field of one row set to any text, the trace cut into pieces at any line ends: the
    upload stores, and ``decode_dataset`` of the pieces gives, what the whole-text reference
    decoder gives, or both refuse it alike. A store that holds the unedited dataset gives the
    same reply, or a conflict where the decoded dataset's digest is not the stored one, and
    keeps its files."""
    meta, trace = encode_dataset(dataset)
    row = data.draw(st.integers(0, 2 * dataset.record_count - 1))
    column = data.draw(st.sampled_from(MonitorRecord._fields))
    edited = edit_row(trace, row, **{column: data.draw(FIELD_TEXTS)})
    lines = edited.splitlines(keepends=True)
    cuts = sorted(data.draw(st.sets(st.integers(1, len(lines) - 1))))
    pieces = ["".join(lines[start:end]) for start, end in zip([0, *cuts], [*cuts, len(lines)])]
    expected = outcome(whole_text_decode, meta, edited)
    assert outcome(decode_dataset, meta, pieces) == expected
    if isinstance(expected, tuple):  # refused
        assert issubclass(expected[0], (ValueError, ValidationFailed))
        new = held = expected
    else:
        new = held = UploadReceipt(expected.session_id, expected.record_count)
        if dataset_digest(expected) != dataset_digest(dataset):
            held = (ConflictingSession, f"session {dataset.session_id} already stored with different content")
    with tempfile.TemporaryDirectory() as tmp:
        fresh, holding = EdgeStore(Path(tmp) / "fresh"), EdgeStore(Path(tmp) / "holding")
        holding.upload(meta, trace)
        kept = session_files(holding, dataset.session_id)
        assert (outcome(fresh.upload, meta, pieces), outcome(holding.upload, meta, pieces)) == (new, held)
        assert staging_dirs(fresh) == staging_dirs(holding) == []
        assert session_files(holding, dataset.session_id) == kept
        assert [s.session_id for s in holding.list()] == [dataset.session_id]
        if isinstance(new, tuple):
            assert fresh.list() == []
            return
        stored = [fresh.data_dir / expected.session_id / name
                  for name in (edge.META_FILENAME, edge.TRACE_FILENAME)]
        assert [path.read_text(encoding="utf-8") for path in stored] == list(encode_dataset(expected))


def test_an_identical_reupload_is_acknowledged_without_decoding(served_store, decodes):
    store, server, client = served_store
    assert store.upload(STREAMED_META, STREAMED_TRACE) == UploadReceipt("ses-r1", 600)
    assert decodes == ["_Gate", "record_blocks"]
    decodes.clear()
    kept = session_files(store, "ses-r1")
    assert store.upload(STREAMED_META, STREAMED_TRACE) == UploadReceipt("ses-r1", 600)
    assert store.upload(STREAMED_META, STREAMED_TRACE.splitlines(keepends=True)) == UploadReceipt("ses-r1", 600)
    assert client.upload(STREAMED) == UploadReceipt("ses-r1", 600)
    block = f"UPLOAD ses-r1 600\n{STREAMED_META}\n{STREAMED_TRACE}END\n"
    assert raw_exchange(server.address, block + "LIST\n").startswith("OK ses-r1 600\nSUMMARY session_id=ses-r1 ")
    assert decodes == []
    assert session_files(store, "ses-r1") == kept and staging_dirs(store) == []
    assert (store.data_dir / EdgeStore.INDEX_FILENAME).read_text() == "ses-r1\n"


@pytest.mark.parametrize("name, reply", [
    (edge.TRACE_FILENAME, "OK ses-r1 600\n"),
    (EdgeStore.DIGEST_FILENAME, "ERR StorageError [Errno 2] No such file or directory: "),
    (edge.META_FILENAME, "OK ses-r1 600\n"),
], ids=["trace", "digest", "meta"])
def test_a_reupload_over_a_stored_file_that_cannot_be_opened_is_decoded(served_store, decodes, name, reply):
    store, server, client = served_store
    client.upload(STREAMED)
    (store.data_dir / "ses-r1" / name).unlink()
    decodes.clear()
    sent = raw_exchange(server.address, f"UPLOAD ses-r1 600\n{STREAMED_META}\n{STREAMED_TRACE}END\n")
    assert sent.startswith(reply) and sent.count("\n") == 1
    assert decodes == ["_Gate", "record_blocks"] and staging_dirs(store) == []


CONFLICT = "ERR ConflictingSession session ses-r1 already stored with different content\n"
LONGER, SHORTER = (build_dataset(ticks=ticks) for ticks in (601, 599))  # STREAMED and one pair more or less
# an edit of STREAMED's meta block and trace CSV, re-uploaded over STREAMED, and the reply
REUPLOADS = {
    "meta_differs": (lambda m, t: (m.replace("request_id = r1\n", "request_id = r2\n"), t), CONFLICT),
    "first_piece_differs": (lambda m, t: (m, edit_row(t, 10, cumulative_transferred_mah="0.5")), CONFLICT),
    "middle_piece_differs": (lambda m, t: (m, edit_row(t, 600, role="observer")),
                             "ERR ValidationFailed tick 300: a row's tick_index, time, session_id, "
                             "device_id or role is not the one its position in the dataset gives\n"),
    "last_piece_differs": (lambda m, t: (m, edit_row(t, 1190, battery_charge_mah="x")),
                           "ERR Malformed trace row '595,"),
    "trace_one_pair_shorter": (lambda m, t: (m, drop_rows(t, 2)),
                               "ERR Malformed record_count is 600, the trace holds 599 pairs\n"),
    "trace_one_pair_longer": (lambda m, t: (m, t + "".join(t.splitlines(True)[-2:])),
                              "ERR Malformed record_count is 600, the trace holds 601 pairs\n"),
    "dataset_one_pair_shorter": (lambda m, t: encode_dataset(SHORTER), CONFLICT),
    "dataset_one_pair_longer": (lambda m, t: encode_dataset(LONGER), CONFLICT),
    "spelled_non_canonically": (lambda m, t: (m.replace("efficiency = 0.8\n", "efficiency = 0.80\n"),
                                              edit_row(t, 0, cumulative_transferred_mah="0.00")),
                                "OK ses-r1 600\n"),
}


@pytest.mark.parametrize("edit, reply", REUPLOADS.values(), ids=REUPLOADS)
def test_a_reupload_that_differs_from_the_stored_bytes_gets_the_decoded_reply(served_store, edit, reply):
    """Each reply is the one decoding the whole upload gives; the stored files are kept."""
    store, server, client = served_store
    client.upload(STREAMED)
    kept = session_files(store, "ses-r1")
    meta, trace = edit(STREAMED_META, STREAMED_TRACE)
    sent = raw_exchange(server.address, f"UPLOAD ses-r1 {parse_meta(meta)['record_count']}\n{meta}\n{trace}END\n")
    assert sent.startswith(reply) and sent.endswith("\n") and sent.count("\n") == 1
    assert session_files(store, "ses-r1") == kept and staging_dirs(store) == []
    assert [s.session_id for s in client.list()] == ["ses-r1"]


@pytest.mark.parametrize("edit, reply", [
    ({"cumulative_transferred_mah": "0.00"}, "OK ses-r1 600\n"),  # the same dataset, spelled otherwise
    ({"cumulative_transferred_mah": "0.5"}, CONFLICT),
    ({"battery_charge_mah": "x"}, "ERR Malformed trace row "),
], ids=["same_dataset", "another_dataset", "unreadable"])
def test_a_stored_trace_edited_on_disk_and_uploaded_as_edited_is_decoded(served_store, edit, reply):
    """The upload matches the stored bytes, but not their digest: it is decided by decoding."""
    store, server, client = served_store
    client.upload(STREAMED)
    path = store.data_dir / "ses-r1" / edge.TRACE_FILENAME
    edited = edit_row(STREAMED_TRACE, 0, **edit)
    path.write_bytes(edited.encode("utf-8"))
    sent = raw_exchange(server.address, f"UPLOAD ses-r1 600\n{STREAMED_META}\n{edited}END\n")
    assert sent.startswith(reply) and sent.count("\n") == 1
    assert path.read_bytes() == edited.encode("utf-8") and staging_dirs(store) == []


def test_a_reupload_of_the_start_of_a_longer_stored_trace_is_decoded(served_store):
    """The upload hashes to ``digest.txt``, here rewritten to the hash of bytes that are not
    canonical, but the stored trace goes on: it is decoded, and its canonical encoding conflicts."""
    store, server, client = served_store
    client.upload(STREAMED)
    files = store.data_dir / "ses-r1"
    sent = edit_row(STREAMED_TRACE, 0, cumulative_transferred_mah="0.00")
    (files / edge.TRACE_FILENAME).write_bytes((sent + sent.splitlines(True)[-1]).encode("utf-8"))
    digest = hashlib.sha256((STREAMED_META + sent).encode("utf-8")).hexdigest()
    (files / EdgeStore.DIGEST_FILENAME).write_text(digest + "\n")
    assert raw_exchange(server.address, f"UPLOAD ses-r1 600\n{STREAMED_META}\n{sent}END\n") == CONFLICT


def wait_for(condition, timeout_s: float = 10.0) -> None:
    deadline = time.monotonic() + timeout_s
    while not condition():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.01)


def test_list_and_get_answer_while_an_upload_is_paused_half_way(served_store):
    store, server, client = served_store
    stored = build_dataset(session_id="ses-a")
    client.upload(stored)
    block = f"UPLOAD ses-r1 600\n{STREAMED_META}\n{STREAMED_TRACE}END\n"
    half = block.index("\n", len(block) // 2) + 1
    with socket.create_connection(parse_addr(server.address), timeout=10.0) as conn:
        conn.sendall(block[:half].encode("utf-8"))
        wait_for(lambda: staging_dirs(store))  # the store is part-way through the upload
        assert [s.session_id for s in client.list()] == ["ses-a"]
        assert client.get("ses-a") == stored
        conn.sendall(block[half:].encode("utf-8"))
        assert conn.makefile("r", encoding="utf-8").readline() == "OK ses-r1 600\n"
    assert [s.session_id for s in client.list()] == ["ses-a", "ses-r1"]
    assert staging_dirs(store) == []


def test_concurrent_uploads_of_one_session_id_store_one_dataset(store):
    """Every upload is part-way, each in its own staging directory, before any ends; the
    identical copies end first and are acknowledged, the different one conflicts."""
    different = edit_row(STREAMED_TRACE, 1199, cumulative_transferred_mah="0.5")
    copies = [STREAMED_TRACE] * 3 + [different]
    reached, release_same, release_other = threading.Semaphore(0), threading.Event(), threading.Event()
    results = {}

    def pieces(trace, release):
        lines = trace.splitlines(keepends=True)
        yield "".join(lines[:400])
        reached.release()
        assert release.wait(10.0)
        yield "".join(lines[400:])

    def upload(i, trace, release):
        try:
            results[i] = store.upload(STREAMED_META, pieces(trace, release))
        except EnergyShareError as exc:
            results[i] = exc

    releases = [release_same] * 3 + [release_other]
    threads = [threading.Thread(target=upload, args=(i, trace, release))
               for i, (trace, release) in enumerate(zip(copies, releases))]
    for thread in threads:
        thread.start()
    for _ in copies:
        assert reached.acquire(timeout=10.0)
    assert len(staging_dirs(store)) == len(copies)
    release_same.set()
    for thread in threads[:3]:
        thread.join(10.0)
    release_other.set()
    threads[3].join(10.0)
    assert not any(thread.is_alive() for thread in threads)
    assert [results[i] for i in range(3)] == [UploadReceipt("ses-r1", 600)] * 3
    assert isinstance(results[3], ConflictingSession)
    assert [s.session_id for s in store.list()] == ["ses-r1"]
    assert stored_dataset(store, "ses-r1") == STREAMED
    assert staging_dirs(store) == []
    assert (store.data_dir / EdgeStore.INDEX_FILENAME).read_text() == "ses-r1\n"


def test_racing_uploads_of_one_dataset_index_it_once(store):
    """Eight threads, more than the cores, upload one dataset at once with short switches."""
    meta, trace = encode_dataset(build_dataset(ticks=200))
    results = []
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lambda: results.append(store.upload(meta, trace)))
                   for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30.0)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [UploadReceipt("ses-r1", 200)] * 8
    assert (store.data_dir / EdgeStore.INDEX_FILENAME).read_text() == "ses-r1\n"
    assert [s.session_id for s in store.list()] == ["ses-r1"] and staging_dirs(store) == []


def test_a_streamed_upload_and_get_hold_one_piece_of_a_long_trace(tmp_path):
    """About 20,000 pairs (a 4 MB trace) go up as pieces a generator makes, and come back
    over TCP; neither peaks over 2 MB of traced memory."""
    dataset = run_scenario(build_scenario(value=19999.0, technology="cable", consumer_start_pct=5.0)).dataset
    pairs, meta = dataset.records, encode_meta(dataset)
    assert len(pairs) == 20000

    def pieces():
        yield TRACE_HEADER + "\n"
        for start in range(0, len(pairs), 128):
            yield trace_csv_rows(pairs[start:start + 128])

    store = EdgeStore(tmp_path / "data")
    server = EdgeServer(store).start()
    request = f"GET {dataset.session_id}\n".encode("utf-8")
    served, tail = 0, b""
    gc.collect()
    tracemalloc.start()
    try:
        assert store.upload(meta, pieces()) == UploadReceipt(dataset.session_id, 20000)
        upload_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        with socket.create_connection(parse_addr(server.address), timeout=30.0) as conn:
            conn.sendall(request)
            conn.shutdown(socket.SHUT_WR)
            while chunk := conn.recv(1 << 16):
                served, tail = served + len(chunk), (tail + chunk)[-5:]
        get_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        server.stop()
    trace_bytes = (store.data_dir / dataset.session_id / edge.TRACE_FILENAME).stat().st_size
    header = f"DATASET {dataset.session_id} 20000\n"
    assert served == len(header) + len(meta) + 1 + trace_bytes + len("END\n")
    assert tail == b"\nEND\n"
    assert upload_peak < 2e6 and get_peak < 2e6, (upload_peak, get_peak)
