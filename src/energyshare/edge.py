"""Edge service management: durable storage of uploaded session datasets.

One directory per session under the data dir (``meta.txt`` key-value
sidecar plus the trace CSV), ordered by an append-only ``index.log`` that
is read once at open; LIST is served from memory.
A dataset's row rules live in one gate, :func:`validate_dataset`, and
every path from a dataset text to a dataset runs it once: an UPLOAD in
:meth:`EdgeStore.upload`, before anything is persisted; an
:meth:`EdgeClient.get` and ``report.load_run`` in :func:`decode_dataset`.
Uploads are written atomically (temp dir + rename) and acknowledged only
after an fsync, so an acknowledged dataset survives a crash. Re-uploading
identical content is idempotent; a different dataset under the same
session id is a conflict, detected by a digest of the canonical encoding.
A GET serves the stored canonical text as it is, after checking it
against that digest, so a damaged dataset is refused rather than served.

The network face is the same framed-line TCP discipline as the rest of
the platform; see docs/wire-format.md for the exact exchange.
"""

from __future__ import annotations

import hashlib
import math
import os
import socket
import threading
from contextlib import contextmanager
from dataclasses import dataclass, fields as dataclass_fields
from enum import Enum
from operator import attrgetter
from pathlib import Path
from typing import Any, Callable, NamedTuple

from .battery import DrainParams, Technology, TechnologyParams, level_pct_of
from .errors import EnergyShareError
from .monitor import (
    ROLE_CONSUMER,
    ROLE_PROVIDER,
    MonitorRecord,
    SessionMetrics,
    compute_metrics,
    pairs_from_records,
    records_from_csv_text,
    trace_csv_text,
)
from .protocol import EnergyRequest, Reason, RequestKind, make_request
from .transport import LineServer, parse_addr
from .util import POSITIVE, check_id, fmt_float, format_meta, member, parse_fields, parse_finite
from .util import parse_meta, rel_close

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
    """The one gate on a dataset's rows: each record pair, then the metrics.

    Every path from a dataset text to a dataset runs it once (:func:`decode_dataset`,
    and :meth:`EdgeStore.upload` for an UPLOAD), so a rule is added or changed here alone.
    """
    pairs = dataset.records
    if not pairs:
        raise ValidationFailed("dataset has no records")
    session_id, provider_id = dataset.session_id, dataset.provider_id
    consumer_id = dataset.request.consumer_id
    provider_cap, consumer_cap = dataset.provider_capacity_mah, dataset.consumer_capacity_mah
    start, interval_s = pairs[0][0].wall_time_s, dataset.interval_s
    for tick, (p, c) in enumerate(pairs):
        wall = start + tick * interval_s
        # tick_index, wall_time_s, session_id, device_id, role: the row's place in the dataset
        if (p[:5] != (tick, wall, session_id, provider_id, ROLE_PROVIDER)
                or c[:5] != (tick, wall, session_id, consumer_id, ROLE_CONSUMER)):
            raise ValidationFailed(
                f"tick {tick}: a row's tick_index, time, session_id, device_id or role is not "
                f"the one its position in the dataset gives"
            )
        if not (
            math.isfinite(wall)
            and 0.0 <= p.battery_charge_mah <= provider_cap
            and 0.0 <= c.battery_charge_mah <= consumer_cap
            and p.battery_level_pct == level_pct_of(p.battery_charge_mah, provider_cap)
            and c.battery_level_pct == level_pct_of(c.battery_charge_mah, consumer_cap)
            and math.isfinite(p.cumulative_transferred_mah)
            and math.isfinite(c.cumulative_transferred_mah)
        ):
            raise ValidationFailed(
                f"tick {tick}: a time, charge or cumulative out of range, or a level off its charge"
            )
    recomputed = compute_metrics(pairs)
    for name in (f.name for f in dataclass_fields(SessionMetrics)):
        stored = getattr(dataset.metrics, name)
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


_COUNT_KEY = "record_count"  # the one derived key: dataset_from_parts checks it
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


def _text(value: Any) -> str:
    """A meta or SUMMARY value as text: an enum by its value, a float round-trip exact."""
    if isinstance(value, Enum):
        return value.value
    return fmt_float(value) if isinstance(value, float) else str(value)


def encode_meta(dataset: SessionDataset) -> str:
    """Canonical key-value sidecar (keys in the table's order; digest input)."""
    return format_meta({key: _text(get(dataset)) for key, get in _GETTERS.items()})


def summary_from_fields(fields: dict[str, str]) -> SessionSummary:
    """A summary from ``meta.txt`` fields or the fields of a ``SUMMARY`` line."""
    return SessionSummary._make(_META[key].parse(fields[key]) for key in SessionSummary._fields)


def encode_dataset(dataset: SessionDataset) -> tuple[str, str]:
    """The dataset's canonical ``meta.txt`` and ``trace.csv`` texts."""
    return encode_meta(dataset), trace_csv_text(dataset.records)


def decode_dataset(meta: str, trace: str) -> SessionDataset:
    """The dataset a ``meta.txt`` and a ``trace.csv`` text hold, through :func:`validate_dataset`.

    See :func:`dataset_from_parts` for what is refused before the gate.
    """
    dataset = dataset_from_parts(parse_meta(meta), records_from_csv_text(trace))
    validate_dataset(dataset)
    return dataset


def dataset_from_parts(meta: dict[str, str], records: list[MonitorRecord]) -> SessionDataset:
    """Rebuild a dataset from its sidecar fields and flat record list, without the gate.

    A missing, unknown or unreadable key, or a ``record_count`` other than
    the paired ticks, is a ``ValueError``; a row without its pair is
    :class:`ValidationFailed`. The rows' facts are left to :func:`validate_dataset`.
    """
    if meta.keys() != _META.keys():
        raise ValueError(f"meta keys missing or unknown: {sorted(meta.keys() ^ _META.keys())}")
    try:
        pairs = pairs_from_records(records)
    except ValueError as exc:
        raise ValidationFailed(str(exc)) from None
    args: dict[str, Any] = {}
    for key, row in _META.items():
        try:
            value = row.parse(meta[key])
        except ValueError as exc:
            raise ValueError(f"{key}: {exc}") from None
        head, _, attr = (row.place or key).partition(".")
        if attr:
            args.setdefault(head, {})[attr] = value
        else:
            args[head] = value
    count = args.pop(_COUNT_KEY)
    if count != len(pairs):
        raise ValueError(f"{_COUNT_KEY} is {count!r}, the trace holds {len(pairs)} pairs")
    return SessionDataset(
        records=pairs,
        **{name: _PARTS[name](**arg) if name in _PARTS else arg for name, arg in args.items()},
    )


def _digest(meta: bytes, trace: bytes) -> str:
    """SHA-256 of the canonical encoding: the meta block, then the trace CSV."""
    hasher = hashlib.sha256(meta)
    hasher.update(trace)
    return hasher.hexdigest()


def dataset_digest(dataset: SessionDataset) -> str:
    return _digest(*(text.encode("utf-8") for text in encode_dataset(dataset)))


# --- file-backed store ----------------------------------------------------------


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
        index = self._index_path()
        if index.exists():
            for session_id in index.read_text(encoding="utf-8").split():
                meta = (self._session_dir(session_id) / META_FILENAME).read_bytes()
                self._summaries[session_id] = summary_from_fields(parse_meta(meta.decode("utf-8")))

    def _session_dir(self, session_id: str) -> Path:
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

    def upload(self, dataset: SessionDataset) -> UploadReceipt:
        """Validate, persist durably, and acknowledge. Idempotent per digest."""
        validate_dataset(dataset)
        meta, trace = (text.encode("utf-8") for text in encode_dataset(dataset))
        digest = _digest(meta, trace)
        receipt = UploadReceipt(dataset.session_id, dataset.record_count)
        with self._lock:
            session_dir = self._session_dir(dataset.session_id)
            if session_dir.exists():
                stored = (session_dir / self.DIGEST_FILENAME).read_text(encoding="utf-8").strip()
                if stored != digest:
                    raise ConflictingSession(
                        f"session {dataset.session_id} already stored with different content"
                    )
                # stored, but the index append after the rename failed or never ran
                if dataset.session_id not in self._summaries:
                    self._append_index(dataset)
                return receipt
            tmp_dir = self.data_dir / f".tmp-{dataset.session_id}"
            if tmp_dir.exists():
                for stale in tmp_dir.iterdir():
                    stale.unlink()
                tmp_dir.rmdir()
            tmp_dir.mkdir()
            (tmp_dir / META_FILENAME).write_bytes(meta)
            (tmp_dir / TRACE_FILENAME).write_bytes(trace)
            (tmp_dir / self.DIGEST_FILENAME).write_bytes((digest + "\n").encode("utf-8"))
            for name in (META_FILENAME, TRACE_FILENAME, self.DIGEST_FILENAME):
                _fsync_path(tmp_dir / name)
            tmp_dir.rename(session_dir)
            _fsync_path(self.data_dir)
            self._append_index(dataset)
        return receipt

    def get(self, session_id: str) -> tuple[str, str]:
        """The stored ``(meta_text, trace_text)``, checked against ``digest.txt``.

        These are the canonical texts upload wrote, read once and returned
        as they are; a session whose files no longer hash to its stored
        digest raises :class:`CorruptSession`.
        """
        session_dir = self._session_dir(session_id)
        meta_path = session_dir / META_FILENAME
        if not meta_path.exists():
            raise NotFound(f"no stored session {session_id!r}")
        meta = meta_path.read_bytes()
        trace = (session_dir / TRACE_FILENAME).read_bytes()
        stored = (session_dir / self.DIGEST_FILENAME).read_text(encoding="utf-8").strip()
        if _digest(meta, trace) != stored:
            raise CorruptSession(f"session {session_id} does not match its stored digest")
        return meta.decode("utf-8"), trace.decode("utf-8")

    def list(self) -> list[SessionSummary]:
        """The indexed sessions in upload order."""
        with self._lock:
            return list(self._summaries.values())


# --- TCP service -----------------------------------------------------------------


def summary_text(summary: SessionSummary) -> str:
    """The ``key=value`` fields of a ``SUMMARY`` line."""
    return " ".join(f"{key}={_text(value)}" for key, value in zip(summary._fields, summary))


def _dataset_block(header: str, meta: str, trace: str) -> tuple[str, ...]:
    """Header line, meta block, blank separator, CSV block, END terminator.

    Returned as parts for the caller to write one by one, so no joined copy is made.
    """
    return header + "\n", meta, "\n", trace, "END\n"


def _read_dataset_block(stream) -> tuple[str, str]:
    """Read up to ``END``, then split the lines at the first blank one: the meta and trace texts."""
    lines: list[str] = []
    for line in stream:
        if line.rstrip("\n") == "END":
            blank = lines.index("\n") if "\n" in lines else len(lines)
            return "".join(lines[:blank]), "".join(lines[blank + 1:])
        lines.append(line)
    raise ValueError("connection closed before END terminator")


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

    def __init__(self, store: EdgeStore, host: str = "127.0.0.1", port: int = 0):
        self.store = store
        super().__init__(host, port)

    def _handle(self, line: str, reader, writer) -> str | None:
        command, _, rest = line.partition(" ")
        if command == "UPLOAD":
            meta, trace = _read_dataset_block(reader)
            # built without the gate: the store's upload runs it
            dataset = dataset_from_parts(parse_meta(meta), records_from_csv_text(trace))
            if rest != f"{dataset.session_id} {dataset.record_count}":
                raise ValueError("header session_id and record_count do not match the dataset")
            with _storage_errors():
                receipt = self.store.upload(dataset)
            return f"OK {receipt.session_id} {receipt.record_count}"
        if command == "LIST":
            for summary in self.store.list():
                writer.write(f"SUMMARY {summary_text(summary)}\n")
            return "END"
        if command == "GET":
            session_id = rest.strip()
            with _storage_errors():
                meta, trace = self.store.get(session_id)
            # the canonical trace: a header line, then two rows per record pair
            record_count = trace.count("\n") // 2
            writer.writelines(_dataset_block(f"DATASET {session_id} {record_count}", meta, trace))
            return None
        raise ValueError(f"unknown command {command!r}")


# the ERR codes an EdgeClient raises as themselves; any other reply is an EnergyShareError
_EDGE_ERRORS = (ValidationFailed, ConflictingSession, NotFound, CorruptSession, StorageError)


class EdgeClient:
    """Client for the edge TCP protocol (upload / list / get)."""

    def __init__(self, address: str):
        self._addr = parse_addr(address)

    @contextmanager
    def _exchange(self, *request: str):
        """A fresh connection's stream, after the request parts were sent on it."""
        with socket.create_connection(self._addr, timeout=EDGE_TIMEOUT_S) as conn:
            with conn.makefile("rw", encoding="utf-8", newline="\n") as stream:
                stream.writelines(request)
                stream.flush()
                try:
                    yield stream
                except (ValueError, KeyError) as exc:  # a reply that does not decode
                    raise EnergyShareError(f"unreadable edge reply: {exc!r}") from exc

    def upload(self, dataset: SessionDataset) -> UploadReceipt:
        header = f"UPLOAD {dataset.session_id} {dataset.record_count}"
        with self._exchange(*_dataset_block(header, *encode_dataset(dataset))) as stream:
            reply = stream.readline().strip()
            if reply.startswith("OK "):
                _, session_id, count = reply.split(" ")
                return UploadReceipt(session_id, int(count))
        raise LineServer.error_from_reply(reply, _EDGE_ERRORS, EnergyShareError)

    def list(self) -> list[SessionSummary]:
        summaries = []
        with self._exchange("LIST\n") as stream:
            for raw in stream:
                line = raw.strip()
                if line == "END":
                    return summaries
                if not line.startswith("SUMMARY "):
                    raise LineServer.error_from_reply(line, _EDGE_ERRORS, EnergyShareError)
                summaries.append(summary_from_fields(parse_fields(line.split(" ")[1:])))
        raise EnergyShareError("edge connection closed mid-listing")

    def get(self, session_id: str) -> SessionDataset:
        with self._exchange(f"GET {session_id}\n") as stream:
            header = stream.readline().strip()
            if not header.startswith("DATASET "):
                raise LineServer.error_from_reply(header, _EDGE_ERRORS, EnergyShareError)
            return decode_dataset(*_read_dataset_block(stream))
