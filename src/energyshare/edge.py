"""Edge service management: durable storage of uploaded session datasets.

One directory per session under the data dir (``meta.txt`` key-value
sidecar plus the trace CSV), ordered by an append-only ``index.log`` that
is read once at open; LIST is served from memory.
Uploads are validated against the monitor invariants before anything is
persisted, written atomically (temp dir + rename) and acknowledged only
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
import os
import socket
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from .battery import DrainParams, TechnologyParams, Technology
from .errors import EnergyShareError
from .monitor import (
    MonitorRecord,
    SessionMetrics,
    align_traces,
    compute_metrics,
    pairs_from_records,
    records_from_csv_text,
    trace_csv_text,
)
from .protocol import EnergyRequest, Reason, RequestKind
from .transport import LineServer, parse_addr
from .util import check_id, fmt_float, format_meta, parse_fields, parse_finite, parse_meta, rel_close

METRIC_TOLERANCE = 1e-9
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


@dataclass(frozen=True)
class SessionSummary:
    session_id: str
    consumer_id: str
    provider_id: str
    technology: Technology
    terminal_reason: Reason
    energy_loss_mah: float


def summary_from_fields(fields: dict[str, str]) -> SessionSummary:
    """A summary from ``meta.txt`` fields or the fields of a ``SUMMARY`` line."""
    return SessionSummary(
        session_id=fields["session_id"],
        consumer_id=fields["consumer_id"],
        provider_id=fields["provider_id"],
        technology=Technology(fields["technology"]),
        terminal_reason=Reason(fields["terminal_reason"]),
        energy_loss_mah=float(fields["energy_loss_mah"]),
    )


def validate_dataset(dataset: SessionDataset) -> None:
    """Gate kept in front of persistence: alignment plus metric recomputation."""
    pairs = dataset.records
    if not pairs:
        raise ValidationFailed("dataset has no records")
    try:
        realigned = align_traces([p for p, _ in pairs], [c for _, c in pairs])
    except EnergyShareError as exc:
        raise ValidationFailed(f"trace alignment failed: {exc}") from exc
    if len(realigned) != len(pairs):
        raise ValidationFailed("duplicate tick indices in trace")
    for expected_tick, (provider_record, consumer_record) in enumerate(pairs):
        if provider_record.tick_index != expected_tick:
            raise ValidationFailed(
                f"tick indices must be dense from 0, found {provider_record.tick_index} "
                f"at position {expected_tick}"
            )
        if provider_record.wall_time_s != consumer_record.wall_time_s:
            raise ValidationFailed(f"unsynchronized timestamps at tick {expected_tick}")
        if provider_record.session_id != dataset.session_id:
            raise ValidationFailed("record session_id does not match dataset")
        if provider_record.device_id != dataset.provider_id:
            raise ValidationFailed("provider row device_id does not match dataset")
        if consumer_record.device_id != dataset.request.consumer_id:
            raise ValidationFailed("consumer row device_id does not match dataset")
    recomputed = compute_metrics(list(pairs))
    for name in ("provider_loss_mah", "consumer_gain_mah", "energy_loss_mah", "duration_s"):
        stored = getattr(dataset.metrics, name)
        fresh = getattr(recomputed, name)
        if not rel_close(stored, fresh, METRIC_TOLERANCE):
            raise ValidationFailed(
                f"metrics not recomputable from records: {name} stored={stored!r} "
                f"recomputed={fresh!r}"
            )


# --- canonical metadata encoding ------------------------------------------------

def encode_meta(dataset: SessionDataset) -> str:
    """Canonical key-value sidecar (keys in this fixed order; digest input)."""
    return format_meta({
        "session_id": dataset.session_id,
        "consumer_id": dataset.request.consumer_id,
        "provider_id": dataset.provider_id,
        "technology": dataset.tech_params.technology.value,
        "transfer_rate_ma": fmt_float(dataset.tech_params.transfer_rate_ma),
        "efficiency": fmt_float(dataset.tech_params.efficiency),
        "taper_start_pct": fmt_float(dataset.tech_params.taper_start_pct),
        "distance_m": fmt_float(dataset.tech_params.distance_m),
        "provider_capacity_mah": fmt_float(dataset.provider_capacity_mah),
        "consumer_capacity_mah": fmt_float(dataset.consumer_capacity_mah),
        "provider_baseline_ma": fmt_float(dataset.provider_drain.baseline_ma),
        "consumer_baseline_ma": fmt_float(dataset.consumer_drain.baseline_ma),
        "request_id": dataset.request.request_id,
        "request_kind": dataset.request.kind.value,
        "request_value": fmt_float(dataset.request.value),
        "interval_s": fmt_float(dataset.interval_s),
        "terminal_reason": dataset.terminal_reason.value,
        "provider_loss_mah": fmt_float(dataset.metrics.provider_loss_mah),
        "consumer_gain_mah": fmt_float(dataset.metrics.consumer_gain_mah),
        "energy_loss_mah": fmt_float(dataset.metrics.energy_loss_mah),
        "duration_s": fmt_float(dataset.metrics.duration_s),
        "record_count": str(dataset.record_count),
    })


def _summary_of(meta: bytes) -> SessionSummary:
    return summary_from_fields(parse_meta(meta.decode("utf-8")))


def dataset_from_parts(meta: dict[str, str], records: list[MonitorRecord]) -> SessionDataset:
    """Rebuild a dataset from its sidecar fields and flat record list."""

    def number(key: str) -> float:
        return parse_finite(meta[key], key)

    kind = RequestKind(meta["request_kind"])
    value = number("request_value")
    request = EnergyRequest(
        request_id=meta["request_id"],
        consumer_id=meta["consumer_id"],
        kind=kind,
        amount_mah=value if kind is RequestKind.AMOUNT else None,
        duration_s=value if kind is RequestKind.DURATION else None,
    )
    metrics = SessionMetrics(
        provider_loss_mah=number("provider_loss_mah"),
        consumer_gain_mah=number("consumer_gain_mah"),
        energy_loss_mah=number("energy_loss_mah"),
        duration_s=number("duration_s"),
    )
    pairs = tuple(pairs_from_records(records))
    return SessionDataset(
        session_id=check_id(meta["session_id"]),
        request=request,
        provider_id=check_id(meta["provider_id"], "provider_id"),
        tech_params=TechnologyParams(
            technology=Technology(meta["technology"]),
            transfer_rate_ma=number("transfer_rate_ma"),
            efficiency=number("efficiency"),
            taper_start_pct=number("taper_start_pct"),
            distance_m=number("distance_m"),
        ),
        provider_drain=DrainParams(number("provider_baseline_ma")),
        consumer_drain=DrainParams(number("consumer_baseline_ma")),
        provider_capacity_mah=number("provider_capacity_mah"),
        consumer_capacity_mah=number("consumer_capacity_mah"),
        interval_s=number("interval_s"),
        records=pairs,
        metrics=metrics,
        terminal_reason=Reason(meta["terminal_reason"]),
    )


def _digest(meta: bytes, trace: bytes) -> str:
    """SHA-256 of the canonical encoding: the meta block, then the trace CSV."""
    hasher = hashlib.sha256(meta)
    hasher.update(trace)
    return hasher.hexdigest()


def dataset_digest(dataset: SessionDataset) -> str:
    return _digest(
        encode_meta(dataset).encode("utf-8"), trace_csv_text(dataset.records).encode("utf-8")
    )


# --- file-backed store ----------------------------------------------------------


def _fsync_path(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class EdgeStore:
    """Durable session store: one directory per session plus an index log."""

    META_FILENAME = "meta.txt"
    TRACE_FILENAME = "trace.csv"
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
                meta = (self._session_dir(session_id) / self.META_FILENAME).read_bytes()
                self._summaries[session_id] = _summary_of(meta)

    def _session_dir(self, session_id: str) -> Path:
        return self.data_dir / check_id(session_id, "session_id")

    def _index_path(self) -> Path:
        return self.data_dir / self.INDEX_FILENAME

    def _append_index(self, session_id: str, meta: bytes) -> None:
        with open(self._index_path(), "a", encoding="utf-8") as index:
            index.write(session_id + "\n")
            index.flush()
            os.fsync(index.fileno())
        self._summaries[session_id] = _summary_of(meta)

    def upload(self, dataset: SessionDataset) -> UploadReceipt:
        """Validate, persist durably, and acknowledge. Idempotent per digest."""
        validate_dataset(dataset)
        meta = encode_meta(dataset).encode("utf-8")
        trace = trace_csv_text(dataset.records).encode("utf-8")
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
                    self._append_index(dataset.session_id, meta)
                return receipt
            tmp_dir = self.data_dir / f".tmp-{dataset.session_id}"
            if tmp_dir.exists():
                for stale in tmp_dir.iterdir():
                    stale.unlink()
                tmp_dir.rmdir()
            tmp_dir.mkdir()
            (tmp_dir / self.META_FILENAME).write_bytes(meta)
            (tmp_dir / self.TRACE_FILENAME).write_bytes(trace)
            (tmp_dir / self.DIGEST_FILENAME).write_bytes((digest + "\n").encode("utf-8"))
            for name in (self.META_FILENAME, self.TRACE_FILENAME, self.DIGEST_FILENAME):
                _fsync_path(tmp_dir / name)
            tmp_dir.rename(session_dir)
            _fsync_path(self.data_dir)
            self._append_index(dataset.session_id, meta)
        return receipt

    def get(self, session_id: str) -> tuple[str, str]:
        """The stored ``(meta_text, trace_text)``, checked against ``digest.txt``.

        These are the canonical texts upload wrote, read once and returned
        as they are; a session whose files no longer hash to its stored
        digest raises :class:`CorruptSession`.
        """
        session_dir = self._session_dir(session_id)
        meta_path = session_dir / self.META_FILENAME
        if not meta_path.exists():
            raise NotFound(f"no stored session {session_id!r}")
        meta = meta_path.read_bytes()
        trace = (session_dir / self.TRACE_FILENAME).read_bytes()
        stored = (session_dir / self.DIGEST_FILENAME).read_text(encoding="utf-8").strip()
        if _digest(meta, trace) != stored:
            raise CorruptSession(f"session {session_id} does not match its stored digest")
        return meta.decode("utf-8"), trace.decode("utf-8")

    def list(self) -> list[SessionSummary]:
        """The indexed sessions in upload order."""
        with self._lock:
            return list(self._summaries.values())


# --- TCP service -----------------------------------------------------------------


def _summary_line(s: SessionSummary) -> str:
    return (
        f"SUMMARY session_id={s.session_id} consumer_id={s.consumer_id}"
        f" provider_id={s.provider_id} technology={s.technology.value}"
        f" terminal_reason={s.terminal_reason.value}"
        f" energy_loss_mah={fmt_float(s.energy_loss_mah)}"
    )


def _dataset_block(header: str, meta: str, trace: str) -> tuple[str, ...]:
    """Header line, meta block, blank separator, CSV block, END terminator.

    Returned as parts for the caller to write one by one, so no joined copy is made.
    """
    return header + "\n", meta, "\n", trace, "END\n"


def _read_dataset_block(stream) -> SessionDataset:
    meta_lines: list[str] = []
    for raw in stream:
        line = raw.rstrip("\n")
        if line == "":
            break
        meta_lines.append(line)
    else:
        raise ValueError("connection closed inside metadata block")
    csv_lines: list[str] = []
    for raw in stream:
        line = raw.rstrip("\n")
        if line == "END":
            meta = parse_meta("\n".join(meta_lines) + "\n")
            records = records_from_csv_text("\n".join(csv_lines) + "\n")
            return dataset_from_parts(meta, records)
        csv_lines.append(line)
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
    # KeyError: an uploaded meta block without one of the canonical keys
    handled_errors = (ValueError, KeyError, EnergyShareError)

    def __init__(self, store: EdgeStore, host: str = "127.0.0.1", port: int = 0):
        self.store = store
        super().__init__(host, port)

    def _handle(self, line: str, reader, writer) -> str | None:
        command, _, rest = line.partition(" ")
        if command == "UPLOAD":
            session_id, _, declared = rest.partition(" ")
            dataset = _read_dataset_block(reader)
            if dataset.session_id != session_id:
                raise ValueError("header session_id does not match dataset")
            if declared and int(declared) != dataset.record_count:
                raise ValueError("header record_count does not match dataset")
            with _storage_errors():
                receipt = self.store.upload(dataset)
            return f"OK {receipt.session_id} {receipt.record_count}"
        if command == "LIST":
            with _storage_errors():
                summaries = self.store.list()
            for summary in summaries:
                writer.write(_summary_line(summary) + "\n")
            return "END"
        if command == "GET":
            with _storage_errors():
                meta, trace = self.store.get(rest.strip())
            fields = parse_meta(meta)
            header = f"DATASET {fields['session_id']} {fields['record_count']}"
            writer.writelines(_dataset_block(header, meta, trace))
            return None
        raise ValueError(f"unknown command {command!r}")


class EdgeClient:
    """Client for the edge TCP protocol (upload / list / get)."""

    def __init__(self, address: str):
        self._addr = parse_addr(address)

    def _connect(self):
        return socket.create_connection(self._addr, timeout=EDGE_TIMEOUT_S)

    def upload(self, dataset: SessionDataset) -> UploadReceipt:
        with self._connect() as conn:
            with conn.makefile("rw", encoding="utf-8", newline="\n") as stream:
                header = f"UPLOAD {dataset.session_id} {dataset.record_count}"
                stream.writelines(
                    _dataset_block(header, encode_meta(dataset), trace_csv_text(dataset.records))
                )
                stream.flush()
                reply = stream.readline().strip()
        if reply.startswith("OK "):
            _, session_id, count = reply.split(" ")
            return UploadReceipt(session_id, int(count))
        self._raise_for(reply)

    def list(self) -> list[SessionSummary]:
        with self._connect() as conn:
            with conn.makefile("rw", encoding="utf-8", newline="\n") as stream:
                stream.write("LIST\n")
                stream.flush()
                summaries = []
                for raw in stream:
                    line = raw.strip()
                    if line == "END":
                        return summaries
                    if not line.startswith("SUMMARY "):
                        self._raise_for(line)
                    fields = parse_fields(line[len("SUMMARY "):].split(" "))
                    summaries.append(summary_from_fields(fields))
        raise EnergyShareError("edge connection closed mid-listing")

    def get(self, session_id: str) -> SessionDataset:
        with self._connect() as conn:
            with conn.makefile("rw", encoding="utf-8", newline="\n") as stream:
                stream.write(f"GET {session_id}\n")
                stream.flush()
                header = stream.readline().strip()
                if not header.startswith("DATASET "):
                    self._raise_for(header)
                return _read_dataset_block(stream)

    @staticmethod
    def _raise_for(reply: str):
        if reply.startswith("ERR "):
            parts = reply.split(" ", 2)
            code = parts[1] if len(parts) > 1 else ""
            detail = parts[2] if len(parts) > 2 else reply
            mapping = {
                "ValidationFailed": ValidationFailed,
                "ConflictingSession": ConflictingSession,
                "NotFound": NotFound,
                "CorruptSession": CorruptSession,
                "StorageError": StorageError,
            }
            raise mapping.get(code, EnergyShareError)(detail)
        raise EnergyShareError(f"unexpected edge reply: {reply!r}")
