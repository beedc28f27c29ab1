"""Edge service management: durable storage of uploaded session datasets.

One directory per session under the data dir (``meta.txt`` key-value
sidecar plus the trace CSV), ordered by an append-only ``index.log``.
Uploads are validated against the monitor invariants before anything is
persisted, written atomically (temp dir + rename) and acknowledged only
after an fsync, so an acknowledged dataset survives a crash. Re-uploading
identical content is idempotent; a different dataset under the same
session id is a conflict, detected by a digest of the canonical encoding.

The network face is the same framed-line TCP discipline as the rest of
the platform; see docs/wire-format.md for the exact exchange.
"""

from __future__ import annotations

import hashlib
import os
import socket
import threading
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
from .util import check_id, fmt_float, parse_fields, rel_close

METRIC_TOLERANCE = 1e-9


class ValidationFailed(EnergyShareError):
    """The dataset violates monitor invariants and was not persisted."""


class ConflictingSession(EnergyShareError):
    """A different dataset already exists under this session id."""


class NotFound(EnergyShareError):
    """No stored dataset under this session id."""


@dataclass(frozen=True)
class SessionDataset:
    """Everything one session uploads: request, parameters, trace, metrics."""

    session_id: str
    request: EnergyRequest
    provider_id: str
    consumer_id: str
    technology: Technology
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
    recomputed = compute_metrics(list(pairs), terminal_reason=dataset.terminal_reason)
    for name in ("provider_loss_mah", "consumer_gain_mah", "energy_loss_mah", "duration_s"):
        stored = getattr(dataset.metrics, name)
        fresh = getattr(recomputed, name)
        if not rel_close(stored, fresh, METRIC_TOLERANCE):
            raise ValidationFailed(
                f"metrics not recomputable from records: {name} stored={stored!r} "
                f"recomputed={fresh!r}"
            )
    if dataset.metrics.terminal_reason is not dataset.terminal_reason:
        raise ValidationFailed("metrics terminal_reason does not match dataset")


# --- canonical metadata encoding ------------------------------------------------

_META_KEYS = (
    "session_id",
    "consumer_id",
    "provider_id",
    "technology",
    "transfer_rate_ma",
    "efficiency",
    "taper_start_pct",
    "distance_m",
    "provider_capacity_mah",
    "consumer_capacity_mah",
    "provider_baseline_ma",
    "consumer_baseline_ma",
    "request_id",
    "request_kind",
    "request_value",
    "interval_s",
    "terminal_reason",
    "provider_loss_mah",
    "consumer_gain_mah",
    "energy_loss_mah",
    "duration_s",
    "record_count",
)


def encode_meta(dataset: SessionDataset) -> str:
    """Canonical key-value sidecar (fixed key order; digest input)."""
    values = {
        "session_id": dataset.session_id,
        "consumer_id": dataset.consumer_id,
        "provider_id": dataset.provider_id,
        "technology": dataset.technology.value,
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
    }
    return "\n".join(f"{key} = {values[key]}" for key in _META_KEYS) + "\n"


def parse_meta(text: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        key, sep, value = line.partition(" = ")
        if not sep:
            raise ValueError(f"malformed meta line {line!r}")
        values[key] = value
    return values


def dataset_from_parts(meta: dict[str, str], records: list[MonitorRecord]) -> SessionDataset:
    """Rebuild a dataset from its sidecar fields and flat record list."""
    kind = RequestKind(meta["request_kind"])
    value = float(meta["request_value"])
    request = EnergyRequest(
        request_id=meta["request_id"],
        consumer_id=meta["consumer_id"],
        kind=kind,
        amount_mah=value if kind is RequestKind.AMOUNT else None,
        duration_s=value if kind is RequestKind.DURATION else None,
    )
    technology = Technology(meta["technology"])
    reason = Reason(meta["terminal_reason"])
    metrics = SessionMetrics(
        provider_loss_mah=float(meta["provider_loss_mah"]),
        consumer_gain_mah=float(meta["consumer_gain_mah"]),
        energy_loss_mah=float(meta["energy_loss_mah"]),
        duration_s=float(meta["duration_s"]),
        terminal_reason=reason,
    )
    pairs = tuple(pairs_from_records(records))
    return SessionDataset(
        session_id=check_id(meta["session_id"]),
        request=request,
        provider_id=meta["provider_id"],
        consumer_id=meta["consumer_id"],
        technology=technology,
        tech_params=TechnologyParams(
            technology=technology,
            transfer_rate_ma=float(meta["transfer_rate_ma"]),
            efficiency=float(meta["efficiency"]),
            taper_start_pct=float(meta["taper_start_pct"]),
            distance_m=float(meta["distance_m"]),
        ),
        provider_drain=DrainParams(float(meta["provider_baseline_ma"])),
        consumer_drain=DrainParams(float(meta["consumer_baseline_ma"])),
        provider_capacity_mah=float(meta["provider_capacity_mah"]),
        consumer_capacity_mah=float(meta["consumer_capacity_mah"]),
        interval_s=float(meta["interval_s"]),
        records=pairs,
        metrics=metrics,
        terminal_reason=reason,
    )


def dataset_digest(dataset: SessionDataset) -> str:
    canonical = encode_meta(dataset) + trace_csv_text(dataset.records)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


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

    def _session_dir(self, session_id: str) -> Path:
        return self.data_dir / check_id(session_id, "session_id")

    def _index_path(self) -> Path:
        return self.data_dir / self.INDEX_FILENAME

    def _index_ids(self) -> list[str]:
        path = self._index_path()
        if not path.exists():
            return []
        return [line for line in path.read_text(encoding="utf-8").splitlines() if line]

    def upload(self, dataset: SessionDataset) -> UploadReceipt:
        """Validate, persist durably, and acknowledge. Idempotent per digest."""
        validate_dataset(dataset)
        digest = dataset_digest(dataset)
        receipt = UploadReceipt(dataset.session_id, dataset.record_count)
        with self._lock:
            session_dir = self._session_dir(dataset.session_id)
            if session_dir.exists():
                stored = (session_dir / self.DIGEST_FILENAME).read_text(encoding="utf-8").strip()
                if stored == digest:
                    return receipt
                raise ConflictingSession(
                    f"session {dataset.session_id} already stored with different content"
                )
            tmp_dir = self.data_dir / f".tmp-{dataset.session_id}"
            if tmp_dir.exists():
                for stale in tmp_dir.iterdir():
                    stale.unlink()
                tmp_dir.rmdir()
            tmp_dir.mkdir()
            (tmp_dir / self.META_FILENAME).write_bytes(encode_meta(dataset).encode("utf-8"))
            (tmp_dir / self.TRACE_FILENAME).write_bytes(
                trace_csv_text(dataset.records).encode("utf-8")
            )
            (tmp_dir / self.DIGEST_FILENAME).write_bytes((digest + "\n").encode("utf-8"))
            for name in (self.META_FILENAME, self.TRACE_FILENAME, self.DIGEST_FILENAME):
                _fsync_path(tmp_dir / name)
            tmp_dir.rename(session_dir)
            _fsync_path(self.data_dir)
            with open(self._index_path(), "a", encoding="utf-8") as index:
                index.write(dataset.session_id + "\n")
                index.flush()
                os.fsync(index.fileno())
        return receipt

    def get(self, session_id: str) -> SessionDataset:
        session_dir = self._session_dir(session_id)
        meta_path = session_dir / self.META_FILENAME
        if not meta_path.exists():
            raise NotFound(f"no stored session {session_id!r}")
        meta = parse_meta(meta_path.read_text(encoding="utf-8"))
        records = records_from_csv_text(
            (session_dir / self.TRACE_FILENAME).read_text(encoding="utf-8")
        )
        return dataset_from_parts(meta, records)

    def list(self) -> list[SessionSummary]:
        summaries = []
        for session_id in self._index_ids():
            meta_path = self._session_dir(session_id) / self.META_FILENAME
            summaries.append(summary_from_fields(parse_meta(meta_path.read_text(encoding="utf-8"))))
        return summaries


# --- TCP service -----------------------------------------------------------------


def _summary_line(s: SessionSummary) -> str:
    return (
        f"SUMMARY session_id={s.session_id} consumer_id={s.consumer_id}"
        f" provider_id={s.provider_id} technology={s.technology.value}"
        f" terminal_reason={s.terminal_reason.value}"
        f" energy_loss_mah={fmt_float(s.energy_loss_mah)}"
    )


def _dataset_block(header: str, dataset: SessionDataset) -> str:
    # header line, meta block, blank separator, CSV block, END terminator
    return (
        header
        + "\n"
        + encode_meta(dataset)
        + "\n"
        + trace_csv_text(dataset.records)
        + "END\n"
    )


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


class EdgeServer(LineServer):
    """Line-framed TCP front of an :class:`EdgeStore`."""

    thread_name = "edge"
    handled_errors = (ValueError, EnergyShareError)

    def __init__(self, store: EdgeStore, host: str = "127.0.0.1", port: int = 0):
        self.store = store
        super().__init__(host, port)

    def _error_reply(self, exc: Exception) -> str:
        code = type(exc).__name__ if isinstance(exc, EnergyShareError) else "Malformed"
        return f"ERR {code} {exc}"

    def _handle(self, line: str, stream) -> str | None:
        command, _, rest = line.partition(" ")
        if command == "UPLOAD":
            session_id, _, declared = rest.partition(" ")
            dataset = _read_dataset_block(stream)
            if dataset.session_id != session_id:
                raise ValueError("header session_id does not match dataset")
            if declared and int(declared) != dataset.record_count:
                raise ValueError("header record_count does not match dataset")
            receipt = self.store.upload(dataset)
            return f"OK {receipt.session_id} {receipt.record_count}"
        if command == "LIST":
            for summary in self.store.list():
                stream.write(_summary_line(summary) + "\n")
            return "END"
        if command == "GET":
            dataset = self.store.get(rest.strip())
            stream.write(
                _dataset_block(f"DATASET {dataset.session_id} {dataset.record_count}", dataset)
            )
            return None
        raise ValueError(f"unknown command {command!r}")


class EdgeClient:
    """Client for the edge TCP protocol (upload / list / get)."""

    def __init__(self, address: str, timeout_s: float = 30.0):
        self._addr = parse_addr(address)
        self._timeout_s = timeout_s

    def _connect(self):
        return socket.create_connection(self._addr, timeout=self._timeout_s)

    def upload(self, dataset: SessionDataset) -> UploadReceipt:
        with self._connect() as conn:
            with conn.makefile("rw", encoding="utf-8", newline="\n") as stream:
                stream.write(
                    _dataset_block(
                        f"UPLOAD {dataset.session_id} {dataset.record_count}", dataset
                    )
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
            }
            raise mapping.get(code, EnergyShareError)(detail)
        raise EnergyShareError(f"unexpected edge reply: {reply!r}")
