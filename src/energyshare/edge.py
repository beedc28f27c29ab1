"""Edge service management: durable storage of uploaded session datasets.

One directory per session under the data dir (``meta.txt`` key-value
sidecar plus the trace CSV), ordered by an append-only ``index.log`` that
is read once at open; LIST is served from memory.
A dataset's row rules live in one gate, :class:`_Gate`, and every path from a
dataset text to a dataset runs it once, in one decoder, :class:`_Decoder`,
fed a piece at a time: an :meth:`EdgeClient.get` and ``report.load_run`` in
:func:`decode_dataset`. An UPLOAD is stored as the bytes that arrived, so
the store's upload checks it as text instead, with :class:`_TextGate`,
whose rules each imply the gate's and also require the text the encoder
writes; a text it cannot prove goes to the decoder, which words every refusal.
The two stay apart because a read needs the values, and the ``repr`` of every
float that proving a text takes costs more than parsing it.
Uploads are written atomically (temp dir + rename) and acknowledged only
after an fsync, so an acknowledged dataset survives a crash. Re-uploading
identical content is idempotent; a different dataset under the same
session id is a conflict, detected by a digest of the canonical encoding.
A GET serves the stored canonical bytes as they are, in blocks, after checking
them against that digest, so a damaged dataset is refused rather than served;
an upload over a stored session that GET would refuse gets that refusal, so
every acknowledged upload is one GET serves.

The network face, :class:`EdgeServer`, is a :class:`~energyshare.transport.LineServer`:
one selector loop on one thread serves every connection. It parses an UPLOAD's
meta block once and pushes the trace to the store's upload in push form
(:meth:`EdgeStore.begin_upload`) a piece at a time as its bytes arrive, so the
edge checks one block while the client encodes the next, and a GET's stored
trace is read a block at a time as the socket takes it. See
docs/wire-format.md for the exact exchange.
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
    RecordReader,
    TRACE_HEADER,
    SessionMetrics,
    compute_metrics,
    pairs_from_records,
    records_from_csv_text,  # uncalled: bench/layers.py wraps edge's; its --trace 1 runs need it
    trace_csv_blocks,
    trace_csv_text,
)
from .protocol import EnergyRequest, Reason, RequestKind, make_request
from .transport import LOOPBACK_HOST, READ_SIZE, LineServer, TooLong, exchange, parse_addr, read_to_end
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
    an UPLOAD the text gate cannot prove is (:class:`_Decoder`): a piece at a time, with the
    same end checks."""
    values, head = _head(parse_meta(meta))
    decoder = _Decoder(head, values[_COUNT_KEY])
    records = tuple(chain.from_iterable(decoder.feed(piece) for piece in _pieces(trace)))
    decoder.close()
    return replace(head, records=records)


def _pieces(trace: str | Iterable[str]) -> Iterable[str]:
    """A trace text as its one piece, or its pieces as they are."""
    return [trace] if isinstance(trace, str) else trace


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


class _Decoder:
    """The one dataset decoder, fed a trace text a piece at a time.

    Each piece's rows are read (:class:`~energyshare.monitor.RecordReader`), paired (a pair may
    span two pieces) and fed to :class:`_Gate`; :meth:`feed` gives the checked pairs, and none
    after a refused pair. :meth:`close` makes the checks that follow the last piece, in this
    order: a row left over and ``count`` (:func:`_check_end`), that refusal, the metrics."""

    def __init__(self, head: SessionDataset, count: int):
        self.gate, self.reader, self.count = _Gate(head), RecordReader(), count
        self.refused, self.left, self.ticks = None, [], 0

    def feed(self, piece: str) -> tuple:
        records = self.left + self.reader.feed(piece)
        self.left = [records.pop()] if len(records) % 2 else []
        pairs = pairs_from_records(records)
        ticks, self.ticks = self.ticks, self.ticks + len(pairs)
        if self.refused is None:
            try:
                self.gate.feed(pairs, ticks)
                return pairs
            except ValidationFailed as exc:
                self.refused = exc
        return ()

    def close(self) -> None:
        self.reader.close()
        _check_end(self.left, self.ticks, self.count)
        if self.refused is not None:
            raise self.refused
        self.gate.close()


def _check_end(left: list[MonitorRecord], ticks: int, count: int) -> None:
    """A trace's end, after its ``ticks`` pairs: a row ``left`` without its pair is
    :class:`ValidationFailed`, a pair total other than ``count`` a ``ValueError``."""
    try:
        pairs_from_records(left, ticks)
    except ValueError as exc:
        raise ValidationFailed(str(exc)) from None
    if ticks != count:
        raise ValueError(f"{_COUNT_KEY} is {count!r}, the trace holds {ticks} pairs")


class _TextGate:
    """:class:`_Gate`'s rules on a trace's text, fed a piece at a time: every row must be
    valid and the text :func:`~energyshare.monitor.format_record` writes for its position.

    Each rule implies the gate rule it stands in for, so a trace this gate passes decodes.
    A field is compared with the text the encoder would write: a time or level must be the
    text of the value the gate computes (so ``-0.0`` where it computes ``0.0`` is refused),
    a charge or cumulative the ``repr`` of the number it reads. The metrics are checked from
    the first and last pairs by :meth:`_Gate.close`."""

    def __init__(self, head: SessionDataset):
        self.head, self.header, self.left, self.ticks = head, TRACE_HEADER + "\n", [], 0
        self.start = self.first = self.last = None  # tick 0's time; the end pairs' rows

    def feed(self, piece: str) -> int | None:
        """Prove ``piece``, the trace's text after what was fed: the tick of the first row
        it cannot prove, else ``None``. A piece ends at a line end."""
        if self.header:
            if not piece:
                return None
            if not piece.startswith(self.header):
                return 0
            piece, self.header = piece[len(self.header):], ""
        rows = piece.split("\n")
        cut = rows.pop()  # "" after the last row's "\n"
        if self.left:
            rows = self.left + rows
        self.left = [rows.pop()] if len(rows) % 2 else []
        if not rows:
            return self.ticks if cut else None
        if self.start is None:  # tick 0's time, which must read back as itself, is the start
            try:
                self.start = float(rows[0].split(",")[1])
            except (IndexError, ValueError):
                return 0
            self.first = (rows[0], rows[1])
        head, isfinite, start = self.head, math.isfinite, self.start
        session_id, provider_id = head.session_id, head.provider_id
        consumer_id = head.request.consumer_id
        provider_cap, consumer_cap = head.provider_capacity_mah, head.consumer_capacity_mah
        interval_s = head.interval_s
        for tick, p, c in zip(range(self.ticks, self.ticks + len(rows)), rows[::2], rows[1::2]):
            try:
                p_tick, p_wall, p_session, p_device, p_role, p_level, p_charge, p_cumulative = p.split(",")
                c_tick, c_wall, c_session, c_device, c_role, c_level, c_charge, c_cumulative = c.split(",")
                p_mah, c_mah = float(p_charge), float(c_charge)
                p_sum, c_sum = float(p_cumulative), float(c_cumulative)
            except ValueError:  # not 8 fields, or a number that does not read
                return tick
            wall = start + tick * interval_s
            # a level is battery.level_pct_of(charge, capacity), inlined as the gate does
            if not (p_tick == c_tick == str(tick)
                    and p_wall == c_wall == repr(wall if tick else start)
                    and isfinite(wall)
                    and p_session == session_id == c_session and p_device == provider_id
                    and c_device == consumer_id and p_role == ROLE_PROVIDER and c_role == ROLE_CONSUMER
                    and 0.0 <= p_mah <= provider_cap and 0.0 <= c_mah <= consumer_cap
                    and repr(p_mah) == p_charge and repr(c_mah) == c_charge
                    and p_level == repr(level if (level := 100.0 * p_mah / provider_cap) <= 100.0 else 100.0)
                    and c_level == repr(level if (level := 100.0 * c_mah / consumer_cap) <= 100.0 else 100.0)
                    and repr(p_sum) == p_cumulative and repr(c_sum) == c_cumulative
                    and isfinite(p_sum) and isfinite(c_sum)):
                return tick
        self.ticks += len(rows) // 2
        self.last = (rows[-2], rows[-1])
        return self.ticks if cut else None

    def close(self, count: int) -> int | None:
        """After the last piece, the decoder's end checks in its order (:func:`_check_end`,
        :meth:`_Gate.close`); but first the tick of a row left without its pair, which is not
        proved, or 0 if no header came, as a row :meth:`feed` cannot prove."""
        if self.header or self.left:
            return self.ticks
        _check_end([], self.ticks, count)
        gate = _Gate(self.head)
        if self.first is not None:
            gate.first, gate.last = (tuple(map(_proved_record, rows)) for rows in (self.first, self.last))
        gate.close()
        return None


def _proved_record(row: str) -> MonitorRecord:
    """The record of a row :class:`_TextGate` proved, as :func:`record_blocks` reads it."""
    tick, wall, session_id, device_id, role, *numbers = row.split(",")
    return MonitorRecord(int(tick), float(wall), session_id, device_id, role, *map(float, numbers))


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


class _Upload:
    """An upload in push form (:meth:`EdgeStore.begin_upload`). Each piece of its trace goes to
    one stage, in turn:

    * compare: while the meta block and the trace so far are a stored session's files byte for
      byte, the pieces are hashed, and at the end acknowledged unproved if the trace ended where
      the stored one does and the hash is its ``digest.txt``;
    * stage: each piece is proved by :class:`_TextGate`, then its received bytes are hashed and
      written to a staging directory, so nothing is re-encoded; :meth:`finish` commits them;
    * refuse: once the text cannot be proved, or its meta block is not the one the encoder writes
      for its values, the decoder takes the trace, and words the refusal.

    When the stage changes, the next one is fed the trace so far first, read back from the
    stored or staged file (those bytes are the ones received): a catch-up, held back in
    :attr:`backlog` and fed a piece at a time by :meth:`step`, before any later piece. Only the
    commit holds the store's lock."""

    def __init__(self, store: EdgeStore, meta: str, values: dict[str, Any], head: SessionDataset):
        self.store, self.head, self.count = store, head, values[_COUNT_KEY]
        self.session_dir = store._session_dir(head.session_id)
        self.meta = meta.encode("utf-8", "surrogatepass")
        self.canonical = meta == format_meta({key: fmt_value(value) for key, value in values.items()})
        self.file = self.stored_digest = self.tmp_dir = self.gate = self.decoder = None
        self.hasher, self.size = hashlib.sha256(self.meta), 0  # the trace's bytes hashed so far
        self.backlog: deque[Iterator[str]] = deque()  # pieces held back, to feed in this order
        try:
            if (self.session_dir / META_FILENAME).read_bytes() == self.meta:
                self.stored_digest = (self.session_dir / EdgeStore.DIGEST_FILENAME).read_bytes().strip()
                self.file = (self.session_dir / TRACE_FILENAME).open("rb")
                return
        except OSError:  # none stored, or a stored file cannot be opened: decided as a new upload is
            pass
        try:
            self._begin()
        except BaseException:
            self.discard()
            raise

    def step(self) -> None:
        """Feed the stage one piece of the backlog."""
        piece = next(self.backlog[0], None)
        if piece is None:
            self.backlog.popleft()
        else:
            self.feed(piece)

    def catch_up(self) -> None:
        while self.backlog:
            self.step()

    def feed(self, piece: str) -> None:
        """Take the trace's next piece, which ends at a line end, once the backlog is fed."""
        if self.decoder is not None:
            self.decoder.feed(piece)
        elif self.stored_digest is not None:
            sent = piece.encode("utf-8", "surrogatepass")
            if self.file.read(len(sent)) != sent:
                return self._unmatched(piece)
            self.hasher.update(sent)
            self.size += len(sent)
        else:
            if (tick := self.gate.feed(piece)) is not None:
                return self._refuse(f"tick {tick}: a row", [piece])
            self.file.write(block := piece.encode("utf-8"))
            self.hasher.update(block)
            self.size += len(block)

    def _unmatched(self, *pieces: str) -> None:
        """Not the stored dataset: decide the upload as a new one, from the trace sent so far."""
        self.file.close()
        self._begin(chain(line_blocks(self.session_dir / TRACE_FILENAME, self.size), pieces))

    def _begin(self, held: Iterable[str] = ()) -> None:
        """Stage the upload, or refuse it if its meta block is not the encoder's; the trace sent
        so far, ``held``, goes first in the backlog."""
        self.stored_digest, self.hasher, self.size = None, hashlib.sha256(self.meta), 0
        if not self.canonical:
            return self._refuse("the meta block", held)
        self.tmp_dir = self.store.data_dir / f"+tmp-{uuid.uuid4().hex}"  # no session id has a '+'
        self.tmp_dir.mkdir()
        (self.tmp_dir / META_FILENAME).write_bytes(self.meta)
        self.gate, self.file = _TextGate(self.head), (self.tmp_dir / TRACE_FILENAME).open("wb")
        if held:
            self.backlog.appendleft(iter(held))

    def _refuse(self, what: str, held: Iterable[str]) -> None:
        """Hand the trace to the decoder: the pieces staged so far, read back, then ``held`` go
        first in the backlog. If it refuses nothing, the refusal is that ``what`` is not spelled
        as the encoder writes it."""
        self.what, self.decoder = what, _Decoder(self.head, self.count)
        if self.tmp_dir is not None:
            self.file.close()
            held = chain(line_blocks(self.tmp_dir / TRACE_FILENAME, self.size), held)
        if held:
            self.backlog.appendleft(iter(held))

    def finish(self) -> UploadReceipt | None:
        """After the last piece, with the backlog fed: the receipt, once the dataset is durable
        and indexed; the refusal, raised; or None once an end check has filled the backlog
        (feed it, then finish again)."""
        store, session_id = self.store, self.head.session_id
        if self.stored_digest is not None:
            with self.file:
                ended = not self.file.read(1)
            if ended and self.hasher.hexdigest().encode("utf-8") == self.stored_digest:
                with store._lock:  # the stored dataset, sent again byte for byte
                    if session_id not in store._summaries:
                        store._append_index(self.head)
                return UploadReceipt(session_id, self.count)
            return self._unmatched()
        if self.decoder is None and (tick := self.gate.close(self.count)) is not None:
            return self._refuse(f"tick {tick}: a row", ())
        if self.decoder is not None:
            self.decoder.close()
            raise ValidationFailed(f"{self.what} is not spelled as the encoder writes it")
        self.file.close()
        digest, tmp_dir = self.hasher.hexdigest(), self.tmp_dir
        (tmp_dir / store.DIGEST_FILENAME).write_bytes((digest + "\n").encode("utf-8"))
        for name in (META_FILENAME, TRACE_FILENAME, store.DIGEST_FILENAME):
            _fsync_path(tmp_dir / name)
        with store._lock:
            if self.session_dir.exists():
                # checked as GET checks it: a stored session GET refuses is not acknowledged
                if store._verified(session_id)[1] != digest:
                    raise ConflictingSession(f"session {session_id} already stored with different content")
                # stored, but the index append after the rename failed or never ran
                if session_id not in store._summaries:
                    store._append_index(self.head)
            else:
                tmp_dir.rename(self.session_dir)
                _fsync_path(store.data_dir)
                store._append_index(self.head)
        return UploadReceipt(session_id, self.count)

    def discard(self) -> None:
        """Drop the backlog, close the file the upload holds open and remove its staging
        directory; after a commit, nothing is left to remove."""
        self.backlog.clear()
        if self.file is not None:
            self.file.close()
        if self.tmp_dir is not None:
            shutil.rmtree(self.tmp_dir, ignore_errors=True)


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
        pieces as they arrive: :meth:`begin_upload`'s push form, fed each piece in turn."""
        upload = self.begin_upload(meta, *_head(parse_meta(meta)))
        try:
            for piece in _pieces(trace):
                upload.feed(piece)
                upload.catch_up()
            while (receipt := upload.finish()) is None:
                upload.catch_up()
            return receipt
        finally:
            upload.discard()

    def begin_upload(self, meta: str, values: dict[str, Any], head: SessionDataset) -> _Upload:
        """The upload of a ``meta.txt`` text, parsed as ``values`` and ``head`` (:func:`_head`),
        in push form: feed it the trace's pieces as they arrive, finish it for the receipt, and
        discard it in any case."""
        return _Upload(self, meta, values, head)

    def _verified(self, session_id: str) -> tuple[bytes, str]:
        """A stored session's ``meta.txt`` bytes and digest, once its ``meta.txt`` and
        ``trace.csv`` hash to ``digest.txt`` (else :class:`CorruptSession`)."""
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
        return meta, stored

    def get(self, session_id: str) -> tuple[str, Iterator[bytes]]:
        """The stored ``meta.txt`` text and ``trace.csv``'s blocks, once both hash to ``digest.txt``
        (:meth:`_verified`); the blocks are read as taken: no commit is rewritten."""
        meta, _ = self._verified(session_id)
        return meta.decode("utf-8"), _file_blocks(self._session_dir(session_id) / TRACE_FILENAME)

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


# the errors an edge request is refused with, in one ERR line
_REFUSALS = (ValueError, EnergyShareError)


class _UploadBlock:
    """An UPLOAD's dataset block, read as its bytes arrive (see :meth:`LineServer._answer`): the
    meta block, parsed once, then the trace, fed to the store's upload a piece at a time, each
    piece the whole lines the connection holds. A refusal is answered at the block's ``END``,
    which is read to, so that what follows is read as requests. A line that is not UTF-8, or a
    meta block of more lines than there are meta keys (none of which can be valid), raises at
    once, and the connection closes."""

    def __init__(self, store: EdgeStore, header: str):
        self.store, self.header = store, header  # the UPLOAD line's session id and record count
        self.meta: list[bytes] | None = []  # the meta block's lines, until its blank line
        self.upload: _Upload | None = None
        self.refused: Exception | None = None  # the reply at END
        self.ended = False  # END was read

    @property
    def busy(self) -> bool:
        """Whether the upload has a backlog to feed, a piece each :meth:`take`, before it
        takes more input."""
        return self.upload is not None and bool(self.upload.backlog)

    def take(self, data: bytearray, eof: bool) -> str | None:
        """Use the whole lines ``data`` holds, and delete them: the reply once the block's
        ``END`` is read and the upload finished, else None. ``eof``: the client sends nothing
        more. While :attr:`busy`, feed one piece of the backlog instead."""
        if self.busy:
            self._refusing(self.upload.step)
            if self.busy:
                return None
        if self.ended:
            return self._end()
        while self.meta is not None:
            cut = data.find(b"\n") + 1
            if not (cut or eof):
                return None
            line = bytes(data[:cut or len(data)])
            del data[:len(line)]
            if line in (b"\n", b"END\n", b"END"):
                meta, self.meta = b"".join(self.meta).decode("utf-8"), None
                self._refusing(self._check, meta)
                if line != b"\n":  # the block ends before its blank line
                    self.ended = True
                    return self._end()
            elif not cut:
                raise ValueError("connection closed before END terminator")
            elif len(self.meta) == len(_META):
                raise TooLong(f"a meta block of more than {len(_META)} lines")
            else:
                self.meta.append(line)
        held = b"\n" + data  # a line starts where data does
        end = held.find(b"\nEND\n")
        if end < 0 and eof:
            if not held.endswith(b"\nEND"):
                data.clear()  # the rest of the block: not requests
                raise ValueError("connection closed before END terminator")
            end = len(data) - 3
        used = end if end >= 0 else data.rfind(b"\n") + 1
        piece = data[:used].decode("utf-8")
        del data[:used + 4 if end >= 0 else used]
        if piece and self.refused is None:
            self._refusing(self.upload.feed, piece)
        self.ended = end >= 0
        return self._end() if self.ended and not self.busy else None

    def _check(self, meta: str) -> None:
        values, head = _head(parse_meta(meta))
        if self.header != f"{head.session_id} {values[_COUNT_KEY]}":
            raise ValueError("header session_id and record_count do not match the dataset")
        self.upload = self.store.begin_upload(meta, values, head)

    def _refusing(self, step, *args) -> None:
        """``step(*args)``; a refusal it raises is kept for the reply at END, and the upload
        discarded at once."""
        try:
            with _storage_errors():
                step(*args)
        except _REFUSALS as exc:
            self.refused = exc
            self.close()

    def _end(self) -> str | None:
        if self.refused is not None:
            raise self.refused
        with _storage_errors():
            receipt = self.upload.finish()
        return receipt and f"OK {receipt.session_id} {receipt.record_count}"

    def close(self) -> None:
        """Discard the upload, committed or not (see :meth:`_Upload.discard`)."""
        if self.upload is not None:
            self.upload.discard()


class EdgeServer(LineServer):
    """Line-framed TCP front of an :class:`EdgeStore`."""

    thread_name = "edge"
    handled_errors = _REFUSALS

    def __init__(self, store: EdgeStore, host: str = LOOPBACK_HOST, port: int = 0):
        self.store = store
        super().__init__(host, port)

    def _handle(self, line: str) -> str | Iterator[bytes] | _UploadBlock:
        command, _, rest = line.partition(" ")
        if command == "UPLOAD":
            return _UploadBlock(self.store, rest)
        if command == "LIST":
            return "".join(write_line("SUMMARY", *summary) + "\n" for summary in self.store.list()) + "END"
        if command == "GET":
            session_id = rest.strip()
            with _storage_errors():
                meta, trace = self.store.get(session_id)
            header = f"DATASET {session_id} {parse_meta(meta)[_COUNT_KEY]}"
            # the stored bytes, with no str copy, a block read as the socket takes the last
            return chain([f"{header}\n{meta}\n".encode("utf-8")], trace, [b"END\n"])
        raise ValueError(f"unknown command {command!r}")


# the ERR codes an EdgeClient raises as themselves; any other reply is an EnergyShareError
_EDGE_ERRORS = (ValidationFailed, ConflictingSession, NotFound, CorruptSession, StorageError)


class EdgeClient:
    """Client for the edge TCP protocol (upload / list / get)."""

    def __init__(self, address: str):
        self._addr = parse_addr(address)

    def upload(self, dataset: SessionDataset) -> UploadReceipt:
        """Send the dataset's block, each part on the wire as it is encoded (its trace a block
        of pairs at a time, so the edge decodes one while the next is encoded), and read the
        receipt."""
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
