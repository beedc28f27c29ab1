"""Edge service management: durable storage of uploaded session datasets.

One directory per session under the data dir (``meta.txt`` key-value sidecar plus the trace
CSV), ordered by an append-only ``index.log`` read once at open; LIST is served from memory.
A dataset holds its trace as four columns of measured numbers
(:class:`~energyshare.monitor.TraceColumns`); its record pairs are a view built on access.

Every byte that arrives, from a socket or a file, is cut into pieces of whole lines in one
place, :func:`_take_lines`, under one bound (a line of at most 64 KiB); :class:`_Framer` reads
a dataset block's meta lines and ``END`` over it, for the server's UPLOAD and a client's GET
alike. Every piece then goes through one gate, :class:`_Gate`, the one decoder. A read keeps
the four numbers of each pair it passes (:func:`decode_dataset`: a GET's reply, or
``report.load_run``'s trace file). An UPLOAD is stored as the bytes that arrived, so the
store's upload runs the gate spelled: a pair whose fields are the text the encoder writes
passes on string compares alone, and any other is decoded, so the gate words every refusal.

Uploads are written atomically (temp dir + rename) and acknowledged only after an fsync. An
identical re-upload is idempotent; a different dataset under a stored session id is a
conflict, found by a digest of the canonical encoding. A GET serves the stored bytes in blocks
once they match that digest, so a damaged dataset is refused, and so is an upload over it.
The network face, :class:`EdgeServer`, is a :class:`~energyshare.transport.LineServer`: one
selector loop on one thread serves every connection, and pushes an UPLOAD's trace to the
store's upload (:meth:`EdgeStore.begin_upload`) a piece at a time as it arrives. See
docs/wire-format.md for the exact exchange.
"""

from __future__ import annotations

import hashlib
import math
import os
import shutil
import threading
import uuid
from array import array
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, fields as dataclass_fields, replace
from itertools import chain
from operator import attrgetter
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, NamedTuple

from .battery import DrainParams, Technology, TechnologyParams
from .errors import EnergyShareError
from .monitor import (
    ROLE_CONSUMER,
    ROLE_PROVIDER,
    NO_HEADER,
    MonitorRecord,
    RecordPairs,
    TRACE_HEADER,
    SessionMetrics,
    TraceColumns,
    compute_metrics,
    new_columns,
    records_from_csv_text,  # uncalled: bench/layers.py wraps edge's; its --trace 1 runs need it
    trace_csv_blocks,
    trace_csv_text,
)
from .protocol import EnergyRequest, Reason, RequestKind, make_request
from .transport import LOOPBACK_HOST, READ_SIZE, LineServer, TooLong, exchange, parse_addr, read_to_end
from .transport import reply_line, write_line
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
    """Everything one session uploads: request, parameters, trace, metrics.

    The trace is held as its measured numbers, ``trace``; ``records`` are its pairs, built
    from them on access."""

    session_id: str
    request: EnergyRequest
    provider_id: str
    tech_params: TechnologyParams
    provider_drain: DrainParams
    consumer_drain: DrainParams
    provider_capacity_mah: float
    consumer_capacity_mah: float
    interval_s: float
    trace: TraceColumns
    metrics: SessionMetrics
    terminal_reason: Reason

    @property
    def records(self) -> RecordPairs:
        return RecordPairs(self)

    @property
    def record_count(self) -> int:
        return len(self.trace.provider_charge)


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
    """The gate over a dataset held in memory: its trace as the encoder writes it, decoded as a
    read decodes it. Its rows follow from their positions, so only the ranges and the metrics
    can refuse it."""
    gate = _Gate(dataset, dataset.record_count)
    for block in trace_csv_blocks(dataset.records):
        gate.feed(block)
    gate.close()


_POSITION = ("a row's tick_index, time, session_id, device_id or role is not the one its position in the "
             "dataset gives")
_RANGE = "a time, charge or cumulative out of range, or a level off its charge"
_UNSPELLED = "is not spelled as the encoder writes it"


def _check_metrics(head: SessionDataset, first: tuple[str, str] | None, last: tuple[str, str]) -> None:
    """``head``'s metrics against those its first and last pairs give, each as the text of its
    two rows, read (:func:`_read_record`) once a gate has passed them; ``first`` is None if
    there are none."""
    if first is None:
        raise ValidationFailed("dataset has no records")
    recomputed = compute_metrics([tuple(map(_read_record, rows)) for rows in (first, last)])
    for name in (f.name for f in dataclass_fields(SessionMetrics)):
        stored = getattr(head.metrics, name)
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
    """The dataset a ``meta.txt`` text and a ``trace.csv`` text or its pieces hold, decoded a
    piece at a time by :class:`_Gate`, with the end checks an UPLOAD gets."""
    values, head = _head(parse_meta(meta))
    gate, columns = _Gate(head, values[_COUNT_KEY]), new_columns()[1:]
    for piece in _pieces(trace):
        for column, numbers in zip(columns, gate.feed(piece)):
            column.extend(numbers)
    gate.close()
    return replace(head, trace=TraceColumns(gate.start, *columns))


def _pieces(trace: str | Iterable[str]) -> Iterable[str]:
    """A trace text as its one piece, or its pieces as they are."""
    return [trace] if isinstance(trace, str) else trace


def dataset_from_parts(meta: dict[str, str], records: list[MonitorRecord]) -> SessionDataset:
    """Rebuild a dataset from its sidecar fields and flat record list, without the gate's
    ranges and metrics.

    A missing, unknown or unreadable key is a ``ValueError``; the rows are paired, and a row
    left over and ``record_count`` checked, as :func:`decode_dataset` does (:func:`_check_end`).
    A dataset holds only a row's measured numbers, so a pair whose other fields are not the
    ones its position gives is refused as the gate refuses it; the ranges and the metrics are
    left to :func:`validate_dataset`.
    """
    values, head = _head(meta)
    ticks = len(records) // 2
    _check_end(records[2 * ticks:], ticks, values[_COUNT_KEY])
    providers, consumers = records[::2], records[1::2]
    dataset = replace(head, trace=TraceColumns(
        records[0].wall_time_s if records else 0.0,
        array("d", [p.battery_charge_mah for p in providers]),
        array("d", [c.battery_charge_mah for c in consumers]),
        array("d", [p.cumulative_transferred_mah for p in providers]),
        array("d", [c.cumulative_transferred_mah for c in consumers]),
    ))
    for tick, (p, c, (held_p, held_c)) in enumerate(zip(providers, consumers, dataset.records)):
        if p[:5] != held_p[:5] or c[:5] != held_c[:5]:  # tick, time, session id, device id, role
            raise ValidationFailed(f"tick {tick}: {_POSITION}")
        if p != held_p or c != held_c:  # the level, the one field left that a number gives
            raise ValidationFailed(f"tick {tick}: {_RANGE}")
    return dataset


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
        trace=new_columns(),
        **{name: _PARTS[name](**arg) if name in _PARTS else arg for name, arg in args.items()},
    )


class _Gate:
    """The one dataset gate and decoder, fed a trace text a piece at a time.

    A piece is split into rows with ``str.splitlines``, after the canonical header, and its rows
    are paired by position (a pair may span two pieces). A row that does not read, 8 fields
    and their numbers, is a ``ValueError`` at once, naming it. A pair's fields are checked:
    first those its position gives (tick, time, ids, roles), then the ranges and each level
    against its charge. :meth:`feed` gives the four numbers of the pairs that pass, as columns
    of the piece for the caller to keep or drop, and none after the first refused pair.

    A ``spelled`` gate, an upload's, also proves that each row is the text the encoder writes,
    ended by ``\\n`` alone, and gives no numbers. A pair whose every field is that text (a time
    or level the ``repr`` of the value the gate computes, so ``-0.0`` where it computes ``0.0``
    is not; a tick ``str(tick)``; a charge or cumulative the ``repr`` of the number it reads)
    passes as it is, since each such comparison implies the check it stands in for. Any other
    pair is checked as above, and the first that passes is the :attr:`misspelled` one, unless
    its caller set that first, for a meta block the encoder does not write.
    :meth:`close` makes the checks that follow the last piece, in this order: the header, a
    row left over, read first, and ``count`` (:func:`_check_end`), the first refused pair, the
    metrics, then the first misspelling."""

    def __init__(self, head: SessionDataset, count: int, spelled: bool = False):
        self.head, self.count, self.spelled, self.header = head, count, spelled, True
        self.start: float | None = None  # tick 0's time: every later time follows from it
        self.first = self.last = None  # the first and last pairs' rows
        self.left: list[str] = []  # a row whose pair starts the next piece
        self.ticks = 0  # the pairs read
        self.refused: ValidationFailed | None = None
        self.misspelled: ValidationFailed | None = None
        self.unended: int | None = None  # the first pair with a row not ended by "\n" alone

    def feed(self, piece: str) -> tuple[array, ...]:
        """The provider's and the consumer's charges, and the cumulative out and in, of the
        pairs of ``piece`` that pass."""
        rows, columns = piece.splitlines(), new_columns()[1:]
        if self.spelled and self.unended is None and rows and piece != "\n".join(rows) + "\n":
            # a row ends at another line boundary, or at none: the first, where str.split cuts
            # the piece otherwise, counted among the pairs' rows (the header is -1, so tick 0)
            at = next((at for at, (row, cut) in enumerate(zip(rows, piece.split("\n"))) if row != cut),
                      len(rows) - 1) + len(self.left) - self.header
            self.unended = self.ticks + max(at, 0) // 2
        if self.header:
            if not rows:
                return columns
            if rows[0] != TRACE_HEADER:
                raise ValueError(NO_HEADER)
            self.header = False
            del rows[0]
        if self.left:
            rows = self.left + rows
        self.left = [rows.pop()] if len(rows) % 2 else []
        head, start, refused, isfinite = self.head, self.start, self.refused, math.isfinite
        spelled, unended, misspelled = self.spelled, self.unended, self.misspelled
        session_id, provider_id = head.session_id, head.provider_id
        consumer_id = head.request.consumer_id
        provider_cap, consumer_cap = head.provider_capacity_mah, head.consumer_capacity_mah
        interval_s = head.interval_s
        p_append, c_append, out_append, in_append = (column.append for column in columns)
        ticks, self.ticks = self.ticks, self.ticks + len(rows) // 2
        for tick, p, c in zip(range(ticks, self.ticks), rows[::2], rows[1::2]):
            if spelled and tick != unended:
                try:
                    p_tick, p_wall, p_session, p_device, p_role, p_level, p_charge, p_sum = p.split(",")
                    c_tick, c_wall, c_session, c_device, c_role, c_level, c_charge, c_sum = c.split(",")
                    p_mah, c_mah, p_sum_n, c_sum_n = float(p_charge), float(c_charge), float(p_sum), float(c_sum)
                    if start is None:  # tick 0
                        start, self.first = float(p_wall), (p, c)
                except ValueError:
                    pass
                else:
                    wall = start + tick * interval_s
                    # a level is battery.level_pct_of(charge, capacity), inlined as below
                    if (p_tick == c_tick == str(tick)
                            and p_wall == c_wall == repr(wall if tick else start)
                            and isfinite(wall)
                            and p_session == session_id == c_session and p_device == provider_id
                            and c_device == consumer_id and p_role == ROLE_PROVIDER and c_role == ROLE_CONSUMER
                            and 0.0 <= p_mah <= provider_cap and 0.0 <= c_mah <= consumer_cap
                            and repr(p_mah) == p_charge and repr(c_mah) == c_charge
                            and p_level == repr(level if (level := 100.0 * p_mah / provider_cap) <= 100.0 else 100.0)
                            and c_level == repr(level if (level := 100.0 * c_mah / consumer_cap) <= 100.0 else 100.0)
                            and repr(p_sum_n) == p_sum and repr(c_sum_n) == c_sum
                            and isfinite(p_sum_n) and isfinite(c_sum_n)):
                        continue
            try:
                row = p
                p_tick, p_wall, p_session, p_device, p_role, p_level, p_charge, p_sum = p.split(",")
                tick_n, wall_n = int(p_tick), float(p_wall)
                p_level_n, p_mah, p_sum_n = float(p_level), float(p_charge), float(p_sum)
                row = c
                c_tick, c_wall, c_session, c_device, c_role, c_level, c_charge, c_sum = c.split(",")
                c_tick_n = tick_n if c_tick == p_tick else int(c_tick)
                c_wall_n = wall_n if c_wall == p_wall else float(c_wall)
                c_level_n, c_mah, c_sum_n = float(c_level), float(c_charge), float(c_sum)
            except ValueError as exc:  # not 8 fields, or a number that does not read
                raise ValueError(f"trace row {row!r}: {exc}") from None
            if start is None:  # tick 0
                start, self.first = wall_n, (p, c)
            if refused is not None:
                continue
            wall = start + tick * interval_s
            if not (tick_n == tick == c_tick_n and wall_n == wall == c_wall_n
                    and p_session == session_id == c_session and p_device == provider_id
                    and c_device == consumer_id and p_role == ROLE_PROVIDER and c_role == ROLE_CONSUMER):
                refused = ValidationFailed(f"tick {tick}: {_POSITION}")
            # a level is checked against battery.level_pct_of(charge, capacity), inlined
            elif not (
                isfinite(wall)
                and 0.0 <= p_mah <= provider_cap
                and 0.0 <= c_mah <= consumer_cap
                and p_level_n == (level if (level := 100.0 * p_mah / provider_cap) <= 100.0 else 100.0)
                and c_level_n == (level if (level := 100.0 * c_mah / consumer_cap) <= 100.0 else 100.0)
                and isfinite(p_sum_n)
                and isfinite(c_sum_n)
            ):
                refused = ValidationFailed(f"tick {tick}: {_RANGE}")
            elif spelled:  # it decodes, so a field is not the text the encoder writes
                misspelled = misspelled or ValidationFailed(f"tick {tick}: a row {_UNSPELLED}")
            else:
                p_append(p_mah)
                c_append(c_mah)
                out_append(p_sum_n)
                in_append(c_sum_n)
        self.start, self.refused, self.misspelled = start, refused, misspelled
        if rows:
            self.last = (rows[-2], rows[-1])
        return columns

    def close(self) -> None:
        if self.header:
            raise ValueError(NO_HEADER)
        for row in self.left:
            _read_record(row)
        _check_end(self.left, self.ticks, self.count)
        if self.refused is not None:
            raise self.refused
        _check_metrics(self.head, self.first, self.last)
        if self.misspelled is not None:
            raise self.misspelled


def _check_end(left: list, ticks: int, count: int) -> None:
    """A trace's end, after its ``ticks`` pairs: a row ``left`` without its pair is
    :class:`ValidationFailed`, a pair total other than ``count`` a ``ValueError``."""
    if left:
        raise ValidationFailed(f"tick {ticks}: a row without its pair")
    if ticks != count:
        raise ValueError(f"{_COUNT_KEY} is {count!r}, the trace holds {ticks} pairs")


def _read_record(row: str) -> MonitorRecord:
    """The record of a row, or a ``ValueError`` naming the row if it does not read."""
    try:
        tick, wall, session_id, device_id, role, level, charge, cumulative = row.split(",")
        return MonitorRecord(int(tick), float(wall), session_id, device_id, role,
                             float(level), float(charge), float(cumulative))
    except ValueError as exc:  # not 8 fields, or a number that does not read
        raise ValueError(f"trace row {row!r}: {exc}") from None


def dataset_digest(dataset: SessionDataset) -> str:
    """SHA-256 of the canonical encoding: the meta block, then the trace CSV."""
    return hashlib.sha256("".join(encode_dataset(dataset)).encode("utf-8")).hexdigest()


# --- file-backed store ----------------------------------------------------------


def _file_blocks(path: Path, size: float = math.inf) -> Iterator[bytes]:
    """A file's bytes, or its first ``size``, 64 KiB at a time, read as they are taken."""
    with path.open("rb") as file:
        while block := file.read(min(READ_SIZE, size - file.tell())):
            yield block


def file_pieces(path: Path, size: float = math.inf) -> Iterator[str]:
    """A file's UTF-8 text, or its first ``size`` bytes', in pieces of whole lines (the last perhaps
    unended) that :func:`_take_lines` cuts from its blocks. A file holds no block: ``END`` is a line."""
    data = bytearray()
    for block in _file_blocks(path, size):
        data += block
        yield _take_lines(data)
    yield _take_lines(data, len(data))


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
    * stage: each piece is proved by a spelled :class:`_Gate`, which words every refusal, and
      while every pair so far is proved its received bytes are hashed and written to a staging
      directory, so nothing is re-encoded; :meth:`finish` commits them once the gate's end checks
      pass. A meta block that is not the one the encoder writes for its values is the text's
      first misspelling, and nothing is staged.

    When the compare stage ends, the stage is fed the trace so far first, read back from the
    stored file (those bytes are the ones received): a catch-up, held back in :attr:`backlog`
    and fed a piece at a time by :meth:`step`, before any later piece. Only the commit holds
    the store's lock."""

    def __init__(self, store: EdgeStore, meta: str, values: dict[str, Any], head: SessionDataset):
        self.store, self.head, self.count = store, head, values[_COUNT_KEY]
        self.session_dir = store._session_dir(head.session_id)
        self.meta = meta.encode("utf-8", "surrogatepass")
        self.canonical = meta == format_meta({key: fmt_value(value) for key, value in values.items()})
        self.file = self.stored_digest = self.tmp_dir = self.gate = None
        self.hasher, self.size = hashlib.sha256(self.meta), 0  # size: the trace's bytes compared
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
        if self.stored_digest is not None:
            sent = piece.encode("utf-8", "surrogatepass")
            if self.file.read(len(sent)) != sent:
                return self._unmatched(piece)
            self.hasher.update(sent)
            self.size += len(sent)
            return
        self.gate.feed(piece)
        if self.file is None:
            return
        if self.gate.refused or self.gate.misspelled:  # nothing from the first pair not proved on is staged
            self.file.close()
            self.file = None
        else:
            self.file.write(block := piece.encode("utf-8"))
            self.hasher.update(block)

    def _unmatched(self, *pieces: str) -> None:
        """Not the stored dataset: decide the upload as a new one, from the trace sent so far."""
        self.file.close()
        self._begin(chain(file_pieces(self.session_dir / TRACE_FILENAME, self.size), pieces))

    def _begin(self, held: Iterable[str] = ()) -> None:
        """Prove the upload with a spelled gate, and stage it if its meta block is the encoder's;
        the trace sent so far, ``held``, goes first in the backlog."""
        self.stored_digest, self.hasher = None, hashlib.sha256(self.meta)
        self.gate, self.file = _Gate(self.head, self.count, spelled=True), None
        if self.canonical:
            self.tmp_dir = self.store.data_dir / f"+tmp-{uuid.uuid4().hex}"  # no session id has a '+'
            self.tmp_dir.mkdir()
            (self.tmp_dir / META_FILENAME).write_bytes(self.meta)
            self.file = (self.tmp_dir / TRACE_FILENAME).open("wb")
        else:
            self.gate.misspelled = ValidationFailed(f"the meta block {_UNSPELLED}")
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
        self.gate.close()
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


def _take_lines(data: bytearray, end: int | None = None) -> str:
    """Take out of ``data`` its first ``end`` bytes (ending a line or ``data``), else its longest
    run of whole lines, decoded from UTF-8. :class:`TooLong` if ``data`` holds a line of over
    ``READ_SIZE`` bytes with its newline, or ``READ_SIZE`` bytes of a line it ends inside."""
    at = 0
    while len(data) - at >= READ_SIZE:  # the line from ``at`` must end within READ_SIZE bytes
        at = data.rfind(b"\n", at, at + READ_SIZE) + 1
        if not at:
            raise TooLong()
    if end is None:
        end = data.rfind(b"\n") + 1
    piece = data[:end].decode("utf-8")
    del data[:end]
    return piece


class _Framer:
    """A dataset block's grammar over :func:`_take_lines`, fed the bytes a reader received (see
    :meth:`take`): the meta lines, up to the blank line or ``END`` (no more than the meta keys), then
    the trace in pieces, each the whole lines received, up to ``END``. ``END`` is taken with the
    block's last text, and nothing after it: a server reads the next requests from the buffer."""

    def __init__(self) -> None:
        self.meta, self.ended = True, False  # the meta text is still to take; END was taken

    def take(self, data: bytearray, eof: bool) -> str | None:
        """The block's next text, taken out of ``data``: first the meta text, then each trace
        piece; None while ``data`` holds none. ``eof``: no more bytes come. A block that ends
        before its ``END`` line is a ``ValueError``, and ``data`` is cleared."""
        held = b"\n" + data  # a line starts where data does
        stop = end = held.find(b"\nEND\n")
        if end < 0 and eof and held.endswith(b"\nEND"):
            stop = end = len(data) - 3  # the last line, END, lacks its newline
        if self.meta:
            if (blank := held.find(b"\n\n")) >= 0 and not 0 <= end < blank:
                stop = blank
            if data.count(b"\n", 0, len(data) if stop < 0 else stop) > len(_META):
                raise TooLong(f"a meta block of more than {len(_META)} lines")
        if stop >= 0:
            text = _take_lines(data, stop)
            del data[:4 if stop == end else 1]  # the END or blank line
            self.meta, self.ended = False, stop == end
            return text
        if eof:
            data.clear()  # the rest of the block: not requests
            raise ValueError("connection closed before END terminator")
        return _take_lines(data, 0 if self.meta else None) or None  # no meta line before the blank one


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
    """An UPLOAD's dataset block, framed as its bytes arrive (see :meth:`LineServer._answer`):
    the meta block, parsed once, then the trace, fed to the store's upload a piece at a time.
    A refusal is answered at the block's ``END``, which is read to, so that what follows is read
    as requests; what the framer raises (a line not UTF-8 or too long, a meta block longer
    than any valid one) is answered at once, and the connection closes."""

    def __init__(self, store: EdgeStore, header: str):
        self.store, self.header = store, header  # the UPLOAD line's session id and record count
        self.framer = _Framer()
        self.upload: _Upload | None = None
        self.refused: Exception | None = None  # the reply at END

    @property
    def busy(self) -> bool:
        """Whether the upload has a backlog to feed, a piece a :meth:`take`, before more input."""
        return self.upload is not None and bool(self.upload.backlog)

    def take(self, data: bytearray, eof: bool) -> str | None:
        """Use the whole lines ``data`` holds, and delete them: the reply once the block's
        ``END`` is read and the upload finished, else None. ``eof``: the client sends nothing
        more. While :attr:`busy`, feed one piece of the backlog instead."""
        if self.busy:
            self._refusing(self.upload.step)
        framer = self.framer
        while not (framer.ended or self.busy):
            meta = framer.meta  # the next text is the meta text
            if (text := framer.take(data, eof)) is None:
                return None
            if meta:
                self._refusing(self._check, text)
            elif text and self.refused is None:
                self._refusing(self.upload.feed, text)
        return None if self.busy else self._end()

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


def _block_texts(read: Callable[[int], bytes]) -> Iterator[str]:
    """A dataset block's texts (:meth:`_Framer.take`), its meta text first, taken from the
    bytes of ``read(READ_SIZE)``, called until the block has ended; ``b""`` ends the input."""
    framer, data = _Framer(), bytearray()
    while not framer.ended:
        eof = not (chunk := read(READ_SIZE))
        data += chunk
        while not framer.ended and (text := framer.take(data, eof)) is not None:
            yield text


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
            if (reply := reply_line(stream)) != ok:
                raise LineServer.error_from_reply(reply, _EDGE_ERRORS, EnergyShareError)
            return UploadReceipt(dataset.session_id, dataset.record_count)

        # the header line, meta block, blank line, trace CSV and END, as parts: no joined copy
        block = chain((f"{header}\n", encode_meta(dataset), "\n"), trace_csv_blocks(dataset.records),
                      ["END\n"])
        return exchange(self._addr, block, read, EnergyShareError, EDGE_TIMEOUT_S)

    def list(self) -> list[SessionSummary]:
        def read(stream) -> list[SessionSummary]:
            block = read_to_end(stream, "SUMMARY", _EDGE_ERRORS, EnergyShareError)
            return [summary_from_fields(fields) for fields in block]

        return exchange(self._addr, ["LIST\n"], read, EnergyShareError, EDGE_TIMEOUT_S)

    def get(self, session_id: str) -> SessionDataset:
        def read(stream) -> SessionDataset:
            header = reply_line(stream)
            if not header.startswith("DATASET "):
                raise LineServer.error_from_reply(header, _EDGE_ERRORS, EnergyShareError)
            block = _block_texts(stream.read1)
            dataset = decode_dataset(next(block), block)
            if header != f"DATASET {session_id} {dataset.record_count}" or dataset.session_id != session_id:
                raise EnergyShareError(f"edge reply {header!r} does not hold session {session_id}")
            return dataset

        return exchange(self._addr, [f"GET {session_id}\n"], read, EnergyShareError, EDGE_TIMEOUT_S)
