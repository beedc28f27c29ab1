"""Edge service management: durable storage of uploaded session datasets.

One directory per session under the data dir (``meta.txt`` key-value
sidecar plus the trace CSV), ordered by an append-only ``index.log`` that
is read once at open; LIST is served from memory.
A dataset's row rules live in one gate, :class:`_Gate`, and every path from a
dataset text to a dataset runs it once, in one decoder, :func:`_checked_pairs`,
a piece at a time: an UPLOAD in :meth:`EdgeStore.upload`, as it is staged; an
:meth:`EdgeClient.get` and ``report.load_run`` in :func:`decode_dataset`.
Uploads are written atomically (temp dir + rename) and acknowledged only
after an fsync, so an acknowledged dataset survives a crash. Re-uploading
identical content is idempotent; a different dataset under the same
session id is a conflict, detected by a digest of the canonical encoding.
A GET serves the stored canonical bytes as they are, in blocks, after checking
them against that digest, so a damaged dataset is refused rather than served.

The network face is the same framed-line TCP discipline as the rest of
the platform; see docs/wire-format.md for the exact exchange.
"""

from __future__ import annotations

import hashlib
import math
import os
import shutil
import threading
import uuid
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, fields as dataclass_fields, replace
from itertools import chain
from operator import attrgetter
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Sequence

from .battery import DrainParams, Technology, TechnologyParams
from .errors import EnergyShareError
from .monitor import (
    ROLE_CONSUMER,
    ROLE_PROVIDER,
    MonitorRecord,
    TRACE_HEADER,
    SessionMetrics,
    compute_metrics,
    pairs_from_records,
    record_blocks,
    records_from_csv_text,  # uncalled: bench/layers.py wraps edge's; its --trace 1 runs need it
    trace_csv_blocks,
    trace_csv_rows,
    trace_csv_text,
)
from .protocol import EnergyRequest, Reason, RequestKind, make_request
from .transport import LOOPBACK_HOST, READ_SIZE, LineServer, exchange, parse_addr, read_to_end
from .transport import write_line
from .util import POSITIVE, check_id, fmt_value, format_meta, member, parse_finite, parse_meta
from .util import rel_close

METRIC_TOLERANCE = 1e-9
# a dataset's two files, in an edge session directory and in a run directory
META_FILENAME = "meta.txt"
TRACE_FILENAME = "trace.csv"
# an EdgeClient's connect and each of its reads give up after this long
EDGE_TIMEOUT_S = 30.0


class ValidationFailed(EnergyShareError):
    """The dataset violates monitor invariants and was not persisted."""


class ConflictingSession(EnergyShareError):
    """A different dataset already exists under this session id."""


class NotFound(EnergyShareError):
    """No stored dataset under this session id."""


class CorruptSession(EnergyShareError):
    """A stored dataset no longer matches the digest written at upload."""


class StorageError(EnergyShareError):
    """The store's file system failed (full disk, permissions, I/O error)."""


@dataclass(frozen=True)
class SessionDataset:
    """Everything one session uploads: request, parameters, trace, metrics."""

    session_id: str
    request: EnergyRequest
    provider_id: str
    tech_params: TechnologyParams
    provider_drain: DrainParams
    consumer_drain: DrainParams
    provider_capacity_mah: float
    consumer_capacity_mah: float
    interval_s: float
    records: tuple[tuple[MonitorRecord, MonitorRecord], ...]
    metrics: SessionMetrics
    terminal_reason: Reason

    @property
    def record_count(self) -> int:
        return len(self.records)


@dataclass(frozen=True)
class UploadReceipt:
    session_id: str
    record_count: int


class SessionSummary(NamedTuple):
    """One LIST entry; the field names are its ``SUMMARY`` keys, in order."""

    session_id: str
    consumer_id: str
    provider_id: str
    technology: Technology
    terminal_reason: Reason
    energy_loss_mah: float


def validate_dataset(dataset: SessionDataset) -> None:
    """The gate's rules over a dataset's pairs held in memory: each pair, then the metrics.

    They are :class:`_Gate`'s, which the decoder runs a piece at a time.
    """
    gate = _Gate(dataset)
    gate.feed(dataset.records, 0)
    gate.close()


class _Gate:
    """The rules on ``head``'s pairs, fed in order, and on its metrics, checked from its
    first and last pairs alone; ``head``'s own records are not read."""

    def __init__(self, head: SessionDataset):
        self.head, self.first, self.last = head, None, None

    def feed(self, pairs: Sequence[tuple[MonitorRecord, MonitorRecord]], ticks: int) -> None:
        """Check ``pairs``, the dataset's pairs after its first ``ticks``."""
        if not pairs:
            return
        head, self.first, self.last = self.head, self.first or pairs[0], pairs[-1]
        session_id, provider_id = head.session_id, head.provider_id
        consumer_id = head.request.consumer_id
        provider_cap, consumer_cap = head.provider_capacity_mah, head.consumer_capacity_mah
        start, interval_s = self.first[0].wall_time_s, head.interval_s
        for tick, (p, c) in enumerate(pairs, ticks):
            p_tick, p_wall, p_session, p_device, p_role, p_level, p_charge, _ = p
            c_tick, c_wall, c_session, c_device, c_role, c_level, c_charge, _ = c
            wall = start + tick * interval_s
            if not (p_tick == tick == c_tick and p_wall == wall == c_wall
                    and p_session == session_id == c_session and p_device == provider_id
                    and c_device == consumer_id and p_role == ROLE_PROVIDER and c_role == ROLE_CONSUMER):
                raise ValidationFailed(
                    f"tick {tick}: a row's tick_index, time, session_id, device_id or role is not "
                    f"the one its position in the dataset gives"
                )
            # a level is checked against battery.level_pct_of(charge, capacity), inlined
            if not (
                math.isfinite(wall)
                and 0.0 <= p_charge <= provider_cap
                and 0.0 <= c_charge <= consumer_cap
                and p_level == (level if (level := 100.0 * p_charge / provider_cap) <= 100.0 else 100.0)
                and c_level == (level if (level := 100.0 * c_charge / consumer_cap) <= 100.0 else 100.0)
                and math.isfinite(p.cumulative_transferred_mah)
                and math.isfinite(c.cumulative_transferred_mah)
            ):
                raise ValidationFailed(
                    f"tick {tick}: a time, charge or cumulative out of range, "
                    f"or a level off its charge"
                )

    def close(self) -> None:
        if self.first is None:
            raise ValidationFailed("dataset has no records")
        recomputed = compute_metrics((self.first, self.last))
        for name in (f.name for f in dataclass_fields(SessionMetrics)):
            stored = getattr(self.head.metrics, name)
            fresh = getattr(recomputed, name)
            if not rel_close(stored, fresh, METRIC_TOLERANCE):
                raise ValidationFailed(
                    f"metrics not recomputable from records: {name} stored={stored!r} "
                    f"recomputed={fresh!r}"
                )


# --- the meta key table ------------------------------------------------------------


def _positive(text: str) -> float:
    return POSITIVE(parse_finite(text))


class _Meta(NamedTuple):
    """One meta key: its parser, which range-checks and raises ``ValueError``, and its place."""

    parse: Callable[[str], Any]
    place: str = ""  # the value's attribute path in a SessionDataset, if not the key


_COUNT_KEY = "record_count"  # the one derived key: _check_end checks it
# every key of meta.txt, in its canonical order; a range a constructor
# checks (TechnologyParams, DrainParams, EnergyRequest) is left to it
_META = {
    "session_id": _Meta(check_id),
    "consumer_id": _Meta(check_id, "request.consumer_id"),
    "provider_id": _Meta(check_id),
    "technology": _Meta(member(Technology), "tech_params.technology"),
    "transfer_rate_ma": _Meta(parse_finite, "tech_params.transfer_rate_ma"),
    "efficiency": _Meta(parse_finite, "tech_params.efficiency"),
    "taper_start_pct": _Meta(parse_finite, "tech_params.taper_start_pct"),
    "distance_m": _Meta(parse_finite, "tech_params.distance_m"),
    "provider_capacity_mah": _Meta(_positive),
    "consumer_capacity_mah": _Meta(_positive),
    "provider_baseline_ma": _Meta(parse_finite, "provider_drain.baseline_ma"),
    "consumer_baseline_ma": _Meta(parse_finite, "consumer_drain.baseline_ma"),
    "request_id": _Meta(check_id, "request.request_id"),
    "request_kind": _Meta(member(RequestKind), "request.kind"),
    "request_value": _Meta(_positive, "request.value"),
    "interval_s": _Meta(_positive),
    "terminal_reason": _Meta(member(Reason)),
    "provider_loss_mah": _Meta(parse_finite, "metrics.provider_loss_mah"),
    "consumer_gain_mah": _Meta(parse_finite, "metrics.consumer_gain_mah"),
    "energy_loss_mah": _Meta(parse_finite, "metrics.energy_loss_mah"),
    "duration_s": _Meta(parse_finite, "metrics.duration_s"),
    # a property of the dataset, derived from its records: checked, not stored
    _COUNT_KEY: _Meta(int),
}
_GETTERS = {key: attrgetter(row.place or key) for key, row in _META.items()}
# what builds the part of a dataset that a place's first step names
_PARTS = {"request": make_request, "tech_params": TechnologyParams, "metrics": SessionMetrics,
          "provider_drain": DrainParams, "consumer_drain": DrainParams}


def encode_meta(dataset: SessionDataset) -> str:
    """Canonical key-value sidecar (keys in the table's order; digest input)."""
    return format_meta({key: fmt_value(get(dataset)) for key, get in _GETTERS.items()})


def summary_from_fields(fields: dict[str, str]) -> SessionSummary:
    """A summary from ``meta.txt`` fields or the fields of a ``SUMMARY`` line."""
    return SessionSummary._make(_META[key].parse(fields[key]) for key in SessionSummary._fields)


def encode_dataset(dataset: SessionDataset) -> tuple[str, str]:
    """The dataset's canonical ``meta.txt`` and ``trace.csv`` texts."""
    return encode_meta(dataset), trace_csv_text(dataset.records)


def decode_dataset(meta: str, trace: str | Iterable[str]) -> SessionDataset:
    """The dataset a ``meta.txt`` text and a ``trace.csv`` text or its pieces hold, decoded as
    an UPLOAD is (:func:`_checked_pairs`): a piece at a time, with the same end checks."""
    values, head = _head(parse_meta(meta))
    pairs = _checked_pairs(head, values[_COUNT_KEY], trace)
    return replace(head, records=tuple(chain.from_iterable(pairs)))


def dataset_from_parts(meta: dict[str, str], records: list[MonitorRecord]) -> SessionDataset:
    """Rebuild a dataset from its sidecar fields and flat record list, without the gate.

    A missing, unknown or unreadable key is a ``ValueError``; the rows are paired, and a row
    left over and ``record_count`` checked, as :func:`decode_dataset` does (:func:`_check_end`).
    The rows' facts are left to :func:`validate_dataset`.
    """
    values, head = _head(meta)
    ticks = len(records) // 2
    _check_end(records[2 * ticks:], ticks, values[_COUNT_KEY])
    return replace(head, records=pairs_from_records(records))


def _head(meta: dict[str, str]) -> tuple[dict[str, Any], SessionDataset]:
    """Each meta key's parsed value, and the dataset they describe, without its records."""
    if meta.keys() != _META.keys():
        raise ValueError(f"meta keys missing or unknown: {sorted(meta.keys() ^ _META.keys())}")
    values: dict[str, Any] = {}
    args: dict[str, Any] = {}
    for key, row in _META.items():
        try:
            value = values[key] = row.parse(meta[key])
        except ValueError as exc:
            raise ValueError(f"{key}: {exc}") from None
        head, _, attr = (row.place or key).partition(".")
        if attr:
            args.setdefault(head, {})[attr] = value
        else:
            args[head] = value
    del args[_COUNT_KEY]
    return values, SessionDataset(
        records=(),
        **{name: _PARTS[name](**arg) if name in _PARTS else arg for name, arg in args.items()},
    )


def _checked_pairs(head: SessionDataset, count: int, trace: str | Iterable[str]) -> Iterator[tuple]:
    """The one dataset decoder: the pairs of a trace text or its pieces, a piece's at a time.

    Each piece's rows are parsed (:func:`record_blocks`), paired (a pair may span two pieces)
    and fed to :class:`_Gate`; none is given after a refused pair. After the last piece, in
    this order: a row left over and ``count`` (:func:`_check_end`), that refusal, the metrics."""
    gate, refused, left, ticks = _Gate(head), None, [], 0
    for records in record_blocks(trace):
        records = left + records
        left = [records.pop()] if len(records) % 2 else []
        pairs = pairs_from_records(records)
        if refused is None:
            try:
                gate.feed(pairs, ticks)
            except ValidationFailed as exc:
                refused = exc
            else:
                yield pairs
        ticks += len(pairs)
    _check_end(left, ticks, count)
    if refused is not None:
        raise refused
    gate.close()


def _check_end(left: list[MonitorRecord], ticks: int, count: int) -> None:
    """A trace's end, after its ``ticks`` pairs: a row ``left`` without its pair is
    :class:`ValidationFailed`, a pair total other than ``count`` a ``ValueError``."""
    try:
        pairs_from_records(left, ticks)
    except ValueError as exc:
        raise ValidationFailed(str(exc)) from None
    if ticks != count:
        raise ValueError(f"{_COUNT_KEY} is {count!r}, the trace holds {ticks} pairs")


def dataset_digest(dataset: SessionDataset) -> str:
    """SHA-256 of the canonical encoding: the meta block, then the trace CSV."""
    return hashlib.sha256("".join(encode_dataset(dataset)).encode("utf-8")).hexdigest()


# --- file-backed store ----------------------------------------------------------


def _file_blocks(path: Path) -> Iterator[bytes]:
    """A file's bytes, 64 KiB at a time, read as they are taken."""
    with path.open("rb") as file:
        while block := file.read(READ_SIZE):
            yield block


def line_blocks(path: Path, size: float = math.inf) -> Iterator[str]:
    """A file's UTF-8 text, or its first ``size`` bytes, read in ~64 KiB blocks cut after a line end."""
    tail = b""
    with path.open("rb") as file:
        while chunk := file.read(min(READ_SIZE, size - file.tell())):
            block = tail + chunk
            cut = block.rfind(b"\n") + 1
            yield block[:cut].decode("utf-8")
            tail = block[cut:]
    yield tail.decode("utf-8")


def _fsync_path(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class EdgeStore:
    """Durable session store: one directory per session plus an index log."""

    DIGEST_FILENAME = "digest.txt"
    INDEX_FILENAME = "index.log"

    def __init__(self, data_dir: Path | str):
        self.data_dir = Path(data_dir)
        self.data_dir.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        # the indexed sessions in index order, loaded once; LIST serves these
        self._summaries: dict[str, SessionSummary] = {}
        for staged in self.data_dir.glob("+tmp-*"):  # an upload cut short by a crash
            shutil.rmtree(staged)
        index = self._index_path()
        if index.exists():
            text = index.read_bytes()
            # a torn last line was never acknowledged (see _append_index): drop it for good
            complete = text[:text.rfind(b"\n") + 1]
            if len(complete) < len(text):
                os.truncate(index, len(complete))
            for session_id in complete.decode("utf-8").split():
                meta = (self._session_dir(session_id) / META_FILENAME).read_bytes()
                self._summaries[session_id] = summary_from_fields(parse_meta(meta.decode("utf-8")))

    def _session_dir(self, session_id: str) -> Path:
        if session_id == self.INDEX_FILENAME:  # its directory would take the index's place
            raise ValueError(f"session id {session_id!r} names the store's index file")
        return self.data_dir / check_id(session_id, "session id")

    def _index_path(self) -> Path:
        return self.data_dir / self.INDEX_FILENAME

    def _append_index(self, dataset: SessionDataset) -> None:
        with open(self._index_path(), "a", encoding="utf-8") as index:
            index.write(dataset.session_id + "\n")
            index.flush()
            os.fsync(index.fileno())
        summary = (_GETTERS[key](dataset) for key in SessionSummary._fields)
        self._summaries[dataset.session_id] = SessionSummary._make(summary)

    def upload(self, meta: str, trace: str | Iterable[str]) -> UploadReceipt:
        """Check, persist durably and acknowledge a ``meta.txt`` text and a trace text or its
        pieces as they arrive, each piece's pairs decoded (:func:`_checked_pairs`), re-encoded,
        hashed and staged. Idempotent per digest; a stored dataset sent again byte for byte is
        acknowledged undecoded (:meth:`_unmatched`).
        Only the commit, after the trace is read, holds the store's lock."""
        values, head = _head(parse_meta(meta))
        session_dir = self._session_dir(head.session_id)
        if session_dir.exists() and (trace := self._unmatched(session_dir, meta, trace)) is None:
            with self._lock:  # the stored dataset, sent again byte for byte
                if head.session_id not in self._summaries:
                    self._append_index(head)
            return UploadReceipt(head.session_id, values[_COUNT_KEY])
        canonical = {key: fmt_value(value) for key, value in values.items()}
        meta_bytes = format_meta(canonical).encode("utf-8")
        hasher = hashlib.sha256(meta_bytes)
        tmp_dir = self.data_dir / f"+tmp-{uuid.uuid4().hex}"  # no session id has a '+'
        try:
            tmp_dir.mkdir()
            (tmp_dir / META_FILENAME).write_bytes(meta_bytes)
            with (tmp_dir / TRACE_FILENAME).open("wb") as out:
                pairs = _checked_pairs(head, values[_COUNT_KEY], trace)
                for text in chain([TRACE_HEADER + "\n"], map(trace_csv_rows, pairs)):
                    hasher.update(block := text.encode("utf-8"))
                    out.write(block)
            digest = hasher.hexdigest()
            (tmp_dir / self.DIGEST_FILENAME).write_bytes((digest + "\n").encode("utf-8"))
            for name in (META_FILENAME, TRACE_FILENAME, self.DIGEST_FILENAME):
                _fsync_path(tmp_dir / name)
            with self._lock:
                if session_dir.exists():
                    stored = (session_dir / self.DIGEST_FILENAME).read_text(encoding="utf-8")
                    if stored.strip() != digest:
                        raise ConflictingSession(
                            f"session {head.session_id} already stored with different content"
                        )
                    # stored, but the index append after the rename failed or never ran
                    if head.session_id not in self._summaries:
                        self._append_index(head)
                else:
                    tmp_dir.rename(session_dir)
                    _fsync_path(self.data_dir)
                    self._append_index(head)
        finally:  # a refused or failed upload's; gone already once committed
            shutil.rmtree(tmp_dir, ignore_errors=True)
        return UploadReceipt(head.session_id, values[_COUNT_KEY])

    def _unmatched(self, session_dir: Path, meta: str, trace: str | Iterable[str]):
        """``None`` if ``meta`` and ``trace``'s pieces, compared as they are taken, are the stored
        ``meta.txt`` and ``trace.csv`` byte for byte and hash to ``digest.txt``; else the trace
        as sent, to decode, the pieces that matched read back from the stored file."""
        pieces = iter([trace] if isinstance(trace, str) else trace)
        path, sent = session_dir / TRACE_FILENAME, meta.encode("utf-8", "surrogatepass")
        try:
            if (session_dir / META_FILENAME).read_bytes() != sent:
                return pieces
            digest = (session_dir / self.DIGEST_FILENAME).read_bytes()
            stored = path.open("rb")
        except OSError:  # decided as a new upload is: by the digest of the decoded dataset
            return pieces
        hasher, matched = hashlib.sha256(sent), 0
        with stored:
            for piece in pieces:
                sent = piece.encode("utf-8", "surrogatepass")
                if stored.read(len(sent)) != sent:
                    return chain(line_blocks(path, matched), [piece], pieces)
                hasher.update(sent)
                matched += len(sent)
            if not stored.read(1) and hasher.hexdigest().encode("utf-8") == digest.strip():
                return None
        return line_blocks(path, matched)

    def get(self, session_id: str) -> tuple[str, Iterator[bytes]]:
        """The stored ``meta.txt`` text and ``trace.csv``'s blocks, once both hash to ``digest.txt``
        (else :class:`CorruptSession`); the blocks are read as taken: no commit is rewritten."""
        session_dir = self._session_dir(session_id)
        meta_path = session_dir / META_FILENAME
        if not meta_path.exists():
            raise NotFound(f"no stored session {session_id!r}")
        meta = meta_path.read_bytes()
        hasher = hashlib.sha256(meta)
        for block in _file_blocks(session_dir / TRACE_FILENAME):
            hasher.update(block)
        stored = (session_dir / self.DIGEST_FILENAME).read_text(encoding="utf-8").strip()
        if hasher.hexdigest() != stored:
            raise CorruptSession(f"session {session_id} does not match its stored digest")
        return meta.decode("utf-8"), _file_blocks(session_dir / TRACE_FILENAME)

    def list(self) -> list[SessionSummary]:
        """The indexed sessions in upload order."""
        with self._lock:
            return list(self._summaries.values())


# --- TCP service -----------------------------------------------------------------


def _dataset_block(header: str, meta: str, trace: Iterable[str]) -> Iterator[str]:
    """Header line, meta block, blank separator, the CSV block's parts, END terminator.

    Given as parts for the caller to write one by one, so no joined copy is made.
    """
    return chain((header + "\n", meta, "\n"), trace, ("END\n",))


def _read_block(stream) -> Iterator[str]:
    """A dataset block's text off a binary stream, up to its ``END`` line, which is read, not
    given: first its meta text (the lines before the first blank one), then its trace text in
    pieces, each the whole lines the stream holds buffered and the line they end inside, decoded
    from UTF-8. Only what a piece uses is read from the buffer: nothing after ``END`` is taken."""
    meta = []
    while (line := stream.readline()) not in (b"\n", b"END\n", b"END"):
        if not line.endswith(b"\n"):
            raise ValueError("connection closed before END terminator")
        meta.append(line)
    yield b"".join(meta).decode("utf-8")
    if line != b"\n":  # the block ends before its blank line
        return
    while True:
        buffered = b"\n" + stream.peek()  # a piece starts at a line start
        if (end := buffered.find(b"\nEND\n")) >= 0:
            text = stream.read(end + 4)
        else:
            text = stream.read(buffered.rfind(b"\n")) + stream.readline()
        last = text[text.rfind(b"\n", 0, -1) + 1:]
        if last in (b"END\n", b"END"):
            yield text[:-len(last)].decode("utf-8")
            return
        if not text.endswith(b"\n"):
            raise ValueError("connection closed before END terminator")
        yield text.decode("utf-8")


@contextmanager
def _storage_errors():
    """Turn a file-system failure inside the store into a StorageError reply."""
    try:
        yield
    except OSError as exc:
        raise StorageError(str(exc)) from exc


class EdgeServer(LineServer):
    """Line-framed TCP front of an :class:`EdgeStore`."""

    thread_name = "edge"
    handled_errors = (ValueError, EnergyShareError)

    def __init__(self, store: EdgeStore, host: str = LOOPBACK_HOST, port: int = 0):
        self.store = store
        super().__init__(host, port)

    def _handle(self, line: str, reader, writer) -> str | None:
        command, _, rest = line.partition(" ")
        if command == "UPLOAD":
            block = _read_block(reader)
            try:
                meta = next(block)
                values, head = _head(parse_meta(meta))
                if rest != f"{head.session_id} {values[_COUNT_KEY]}":
                    raise ValueError("header session_id and record_count do not match the dataset")
                with _storage_errors():
                    receipt = self.store.upload(meta, block)
            finally:
                deque(block, maxlen=0)  # a block refused part-way is still read to its END
            return f"OK {receipt.session_id} {receipt.record_count}"
        if command == "LIST":
            for summary in self.store.list():
                writer.write(write_line("SUMMARY", *summary) + "\n")
            return "END"
        if command == "GET":
            session_id = rest.strip()
            with _storage_errors():
                meta, trace = self.store.get(session_id)
            header = f"DATASET {session_id} {parse_meta(meta)[_COUNT_KEY]}"
            *before, _, after = _dataset_block(header, meta, ("",))  # the trace goes between
            writer.writelines(before)
            writer.flush()
            for block in trace:  # the stored bytes, with no str copy
                writer.buffer.write(block)
            writer.write(after)
            return None
        raise ValueError(f"unknown command {command!r}")


# the ERR codes an EdgeClient raises as themselves; any other reply is an EnergyShareError
_EDGE_ERRORS = (ValidationFailed, ConflictingSession, NotFound, CorruptSession, StorageError)


class EdgeClient:
    """Client for the edge TCP protocol (upload / list / get)."""

    def __init__(self, address: str):
        self._addr = parse_addr(address)

    def upload(self, dataset: SessionDataset) -> UploadReceipt:
        """Send the dataset's block, its trace a block of pairs at a time, and read the receipt."""
        header = f"UPLOAD {dataset.session_id} {dataset.record_count}"
        ok = f"OK {dataset.session_id} {dataset.record_count}"

        def read(stream) -> UploadReceipt:
            if (reply := stream.readline().decode("utf-8").strip()) != ok:
                raise LineServer.error_from_reply(reply, _EDGE_ERRORS, EnergyShareError)
            return UploadReceipt(dataset.session_id, dataset.record_count)

        block = _dataset_block(header, encode_meta(dataset), trace_csv_blocks(dataset.records))
        return exchange(self._addr, block, read, EnergyShareError, EDGE_TIMEOUT_S)

    def list(self) -> list[SessionSummary]:
        def read(stream) -> list[SessionSummary]:
            block = read_to_end(stream, "SUMMARY", _EDGE_ERRORS, EnergyShareError)
            return [summary_from_fields(fields) for fields in block]

        return exchange(self._addr, ["LIST\n"], read, EnergyShareError, EDGE_TIMEOUT_S)

    def get(self, session_id: str) -> SessionDataset:
        def read(stream) -> SessionDataset:
            header = stream.readline().decode("utf-8").strip()
            if not header.startswith("DATASET "):
                raise LineServer.error_from_reply(header, _EDGE_ERRORS, EnergyShareError)
            block = _read_block(stream)
            dataset = decode_dataset(next(block), block)
            if header != f"DATASET {session_id} {dataset.record_count}" or dataset.session_id != session_id:
                raise EnergyShareError(f"edge reply {header!r} does not hold session {session_id}")
            return dataset

        return exchange(self._addr, [f"GET {session_id}\n"], read, EnergyShareError, EDGE_TIMEOUT_S)
