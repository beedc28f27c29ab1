"""Edge store: validation gate, durability, idempotence, TCP protocol."""

import ast
import builtins
import dataclasses
import errno
import itertools
import random
import re
import shutil
import socket
from collections import Counter
from pathlib import Path

import pytest
from conftest import stored_dataset
from hypothesis import given, settings
from hypothesis import strategies as st

from energyshare import edge
from energyshare.battery import DrainParams, Technology, TechnologyParams
from energyshare.edge import (
    ConflictingSession,
    CorruptSession,
    EdgeClient,
    EdgeServer,
    EdgeStore,
    NotFound,
    SessionDataset,
    UploadReceipt,
    ValidationFailed,
    dataset_digest,
    dataset_from_parts,
    encode_meta,
    parse_meta,
    validate_dataset,
)
from energyshare.errors import EnergyShareError
from energyshare.monitor import (
    MonitorRecord,
    ROLE_CONSUMER,
    ROLE_PROVIDER,
    TRACE_HEADER,
    compute_metrics,
    records_from_csv_text,
    trace_csv_text,
)
from energyshare.protocol import Reason, RequestKind, make_request
from energyshare.runner import run_scenario
from energyshare.scenario import parse_scenario
from energyshare.transport import parse_addr

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
    receipt = store.upload(dataset)
    assert receipt == UploadReceipt("ses-r1", 5)
    assert stored_dataset(store, "ses-r1") == dataset


def test_reupload_identical_is_idempotent(store):
    dataset = build_dataset()
    first = store.upload(dataset)
    second = store.upload(dataset)
    assert first == second
    assert len(store.list()) == 1


def test_conflicting_reupload_rejected(store):
    dataset = build_dataset(ticks=4)
    store.upload(dataset)
    tampered_pairs = list(dataset.records)
    provider_record, consumer_record = tampered_pairs[-1]
    tampered_pairs[-1] = (
        provider_record._replace(cumulative_transferred_mah=999.0),
        consumer_record,
    )
    tampered = dataclasses.replace(dataset, records=tuple(tampered_pairs))
    with pytest.raises(ConflictingSession):
        store.upload(tampered)
    assert stored_dataset(store, dataset.session_id) == dataset


def test_get_unknown_session(store):
    with pytest.raises(NotFound):
        store.get("ses-ghost")


def test_store_survives_restart(store, tmp_path):
    dataset = build_dataset()
    store.upload(dataset)
    reopened = EdgeStore(tmp_path / "data")
    assert stored_dataset(reopened, "ses-r1") == dataset
    assert reopened.list() == store.list()
    assert [s.session_id for s in reopened.list()] == ["ses-r1"]


def test_list_preserves_upload_order(store):
    rng = random.Random(11)
    ids = [f"ses-{i}" for i in (3, 1, 2)]
    for session_id in ids:
        store.upload(build_dataset(session_id=session_id, rng=rng))
    summaries = store.list()
    assert [s.session_id for s in summaries] == ids
    for summary, session_id in zip(summaries, ids):
        assert summary.energy_loss_mah == stored_dataset(store, session_id).metrics.energy_loss_mah


def test_round_trip_fidelity_randomized(store):
    rng = random.Random(42)
    for i in range(10):
        dataset = build_dataset(session_id=f"ses-rand-{i}", ticks=rng.randint(1, 12), rng=rng)
        store.upload(dataset)
        assert stored_dataset(store, dataset.session_id) == dataset


def test_concurrent_uploads_all_stored(store):
    import threading

    rng = random.Random(8)
    datasets = [build_dataset(session_id=f"ses-par-{i}", rng=rng) for i in range(8)]
    errors = []

    def upload(ds):
        try:
            store.upload(ds)
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


def test_upload_retried_after_failed_index_append_is_listed(store, tmp_path, monkeypatch):
    # the dataset directory is in place when the index append fails, as after
    # a crash between the rename and the append; the retry must index it
    failures = [OSError(errno.ENOSPC, "No space left on device")]

    def open_failing_once(*args, **kwargs):
        if failures:
            raise failures.pop()
        return builtins.open(*args, **kwargs)

    monkeypatch.setattr(edge, "open", open_failing_once, raising=False)
    dataset = build_dataset()
    with pytest.raises(OSError):
        store.upload(dataset)
    assert store.upload(dataset) == UploadReceipt("ses-r1", 5)
    assert [s.session_id for s in store.list()] == ["ses-r1"]
    assert [s.session_id for s in EdgeStore(tmp_path / "data").list()] == ["ses-r1"]


# --- validation gate -------------------------------------------------------------


def test_misaligned_dataset_rejected_and_not_persisted(store):
    dataset = build_dataset(ticks=6)
    gappy = dataclasses.replace(
        dataset, records=dataset.records[:3] + dataset.records[4:]
    )
    with pytest.raises(ValidationFailed):
        store.upload(gappy)
    with pytest.raises(NotFound):
        store.get(dataset.session_id)
    assert store.list() == []


def test_wrong_metrics_rejected(store):
    dataset = build_dataset()
    wrong = dataclasses.replace(
        dataset, metrics=dataclasses.replace(dataset.metrics, energy_loss_mah=123.0)
    )
    with pytest.raises(ValidationFailed):
        store.upload(wrong)


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
        store.upload(renamed)
    assert store.list() == []


def test_consumer_rows_naming_another_consumer_rejected(store):
    dataset = build_dataset()
    request = make_request(RequestKind.DURATION, 5.0, "c9", request_id="r1")
    renamed = dataclasses.replace(dataset, request=request)
    assert {c.device_id for _, c in renamed.records} == {"c1"}
    with pytest.raises(ValidationFailed):
        store.upload(renamed)
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
    assert reply.startswith("ERR Malformed ")
    assert client.list() == []


def test_upload_storage_failure_gets_err_reply(served_store, monkeypatch):
    store, server, _ = served_store

    def full_disk(dataset):
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


def test_upload_with_unpaired_tick_gets_validation_failed(served_store):
    _, server, client = served_store
    trace = trace_csv_text(build_dataset().records).split("\n")
    del trace[6]  # the consumer row of tick 2
    upload = f"UPLOAD ses-r1 5\n{encode_meta(build_dataset())}\n" + "\n".join(trace) + "END\n"
    reply = raw_exchange(server.address, upload)
    assert reply.startswith("ERR ValidationFailed unpaired tick indices: [2]")
    assert client.list() == []


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
