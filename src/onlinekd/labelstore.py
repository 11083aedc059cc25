"""Append-only columnar soft-label store with snapshot isolation.

One writer (the teacher) appends immutable segments; many readers (the
student fleet) open snapshots. A store directory holds one append-only log,
MANIFEST, with one record per commit, and the writer's WRITER.lock. A
snapshot is pinned to the records committed when it was opened, so readers
that opened at the same commit see the same bytes however far the writer
has advanced since.

The log, all little-endian:

  header         "SLL1" | u32 version=4
  record         u32 n | u32 crc32(n) | payload[n] | u32 crc32
    payload      u64 body_len | deflate(body)
    body         u64 segment_id | u64 teacher_version
                 | u16 n_tasks | (u16 name_len, name utf8, u8 kind)*
                 | u64 n_rows | u64 n_runs | u64 run_first[n_runs]
                 | u64 run_len[n_runs] | f32 values[n_rows] per task

A record's last crc32 covers all its preceding bytes; the length has a crc
of its own, so a flipped length is corruption, not a record that runs past
the end of the log. The body is a raw deflate stream (zlib, wbits -15,
level 6), inflated in bounded chunks to exactly body_len bytes; a decoded
segment's arrays are read-only views of it. A segment's ids are strictly
ascending and stored as maximal runs of consecutive ids: run k holds
run_first[k], ..., run_first[k] + run_len[k] - 1. A stream batch's ids are
one run, 24 bytes whatever its row count. Readers keep the runs as stored.

A commit is one write of one record to the log, opened O_APPEND. A crash
mid-write leaves a torn tail, a last record cut short by the end of the log
or a tail of zeros; readers stop before it, and a writer truncates it,
under its lock, before it appends. A bad crc anywhere else is corruption.
A writer is refused on open, before it writes anything, when a record is
corrupt or the last one does not decode or has another task schema.

One scan, _records, frames the log for the snapshot index, the writer's
open and inspect_store. Each LabelStore handle keeps one growing index of
the segments it has read, in log order, with their id ranges and
precedence keys as numpy columns, and the log offset it has read up to. An
open reads the log from there and decodes only the new records, so it costs
O(new records); a log shorter than the offset rebuilds the index. A
snapshot is an (index, n) pair that copies nothing, and the index never
rewrites a position a snapshot can see.
"""

from __future__ import annotations

import fcntl
import os
import struct
import threading
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import StoreCorruptionError, StoreError, WriterLockError
from .ranker import BINARY, REGRESSION

LOG_MAGIC = b"SLL1"
FORMAT_VERSION = 4
# the log; LevelDB's MANIFEST is a record log too
MANIFEST_NAME = "MANIFEST"
LOCK_NAME = "WRITER.lock"
# what a format-3 MANIFEST, a list of segment file ids, starts with
_V3_MAGIC = b"SLM1"

_KIND_TO_BYTE = {BINARY: 0, REGRESSION: 1}
_BYTE_TO_KIND = {v: k for k, v in _KIND_TO_BYTE.items()}

_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_U8 = struct.Struct("<B")
_HEADER = LOG_MAGIC + _U32.pack(FORMAT_VERSION)
_FRAME = struct.Struct("<II")  # payload length, crc32 of those 4 bytes

_DEFLATE_LEVEL = 6
_INFLATE_CHUNK = 1 << 16
# a deflate stream yields at most 258 bytes per 2 bits of input
_DEFLATE_MAX_RATIO = 1032


def _crc(data: bytes) -> int:
    return zlib.crc32(data) & 0xFFFFFFFF


class _Cursor:
    """Bounds-checked reader over a byte buffer; overruns mean corruption."""

    def __init__(self, data: bytes, path: str, what: str):
        self.data = data
        self.off = 0
        self.path = path
        self.what = what

    def skip(self, n: int) -> int:
        """Move past the next n bytes; returns the offset they start at."""
        start = self.off
        if start + n > len(self.data):
            raise StoreCorruptionError(f"{self.path}: truncated {self.what}")
        self.off = start + n
        return start

    def take(self, n: int) -> bytes:
        start = self.skip(n)
        return bytes(self.data[start : self.off])

    def u8(self) -> int:
        return _U8.unpack_from(self.data, self.skip(1))[0]

    def u16(self) -> int:
        return _U16.unpack_from(self.data, self.skip(2))[0]

    def u64(self) -> int:
        return _U64.unpack_from(self.data, self.skip(8))[0]

    def array(self, dtype: np.dtype, count: int) -> np.ndarray:
        """A read-only view of the next count items."""
        start = self.skip(int(dtype.itemsize) * count)
        arr = np.frombuffer(self.data, dtype, count, start)
        arr.flags.writeable = False
        return arr


def _pack_task_dir(tasks: Sequence[tuple[str, str]]) -> bytes:
    parts = [_U16.pack(len(tasks))]
    for name, kind in tasks:
        raw = name.encode("utf-8")
        parts.append(_U16.pack(len(raw)))
        parts.append(raw)
        parts.append(_U8.pack(_KIND_TO_BYTE[kind]))
    return b"".join(parts)


def _read_task_dir(cur: _Cursor) -> tuple[tuple[str, str], ...]:
    n_tasks = cur.u16()
    tasks = []
    for _ in range(n_tasks):
        name = cur.take(cur.u16()).decode("utf-8")
        kind_byte = cur.u8()
        if kind_byte not in _BYTE_TO_KIND:
            raise StoreCorruptionError(f"{cur.path}: unknown task kind {kind_byte}")
        tasks.append((name, _BYTE_TO_KIND[kind_byte]))
    return tuple(tasks)


def _normalize_tasks(tasks: Sequence[tuple[str, str]]) -> tuple[tuple[str, str], ...]:
    out = []
    for name, kind in tasks:
        if kind not in _KIND_TO_BYTE:
            raise StoreError(f"unknown task kind {kind!r}")
        out.append((str(name), kind))
    if len({n for n, _ in out}) != len(out):
        raise StoreError("duplicate task names in schema")
    if not out:
        raise StoreError("schema needs at least one task")
    return tuple(out)


@dataclass
class SegmentData:
    """One immutable committed segment, fully loaded.

    Its example ids are strictly ascending runs of consecutive ids: run k
    holds run_first[k], ..., run_first[k] + run_len[k] - 1, in the rows from
    run_row[k] on. The run arrays are read-only uint64, and values is one
    read-only float32 row per task, (len(tasks), n_rows), in schema order.
    """

    segment_id: int
    teacher_version: int
    tasks: tuple[tuple[str, str], ...]
    run_first: np.ndarray
    run_len: np.ndarray
    run_row: np.ndarray
    values: np.ndarray

    @property
    def n_rows(self) -> int:
        return int(self.run_row[-1]) + int(self.run_len[-1])

    @property
    def min_id(self) -> int:
        return int(self.run_first[0])

    @property
    def max_id(self) -> int:
        return int(self.run_first[-1]) + int(self.run_len[-1]) - 1


def _id_runs(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first id, length) of each maximal run of consecutive ids."""
    n = ids.shape[0]
    starts = np.flatnonzero(np.concatenate(([n > 0], ids[1:] - ids[:-1] != 1)))
    ends = np.append(starts[1:], n)
    return ids[starts], (ends - starts).astype(np.uint64)


def _example_ids(example_ids) -> np.ndarray:
    """example_ids as a 1-d uint64 array; a scalar is one id. Ids of more
    dimensions, or that are not integers >= 0 (bools, floats, negatives), are
    an error: the cast would wrap or truncate them into other ids."""
    ids = np.asarray(example_ids)
    if ids.ndim > 1:
        raise StoreError(f"example ids must be a 1-d array, got shape {ids.shape}")
    if ids.size and (ids.dtype.kind not in "iu" or (ids.dtype.kind == "i" and ids.min() < 0)):
        raise StoreError(f"example ids must be integers >= 0, got {ids.dtype} {ids.ravel()[:3]}")
    return np.ascontiguousarray(ids, dtype=np.uint64)


def _check_runs(first: np.ndarray, length: np.ndarray, n_rows: int, path: str) -> np.ndarray:
    """The row of each run's first id, read-only; runs that do not describe
    n_rows strictly ascending ids are corruption."""
    if not first.size:
        raise StoreCorruptionError(f"{path}: no id runs")
    if first.size > n_rows:
        raise StoreCorruptionError(f"{path}: more id runs than rows")
    if not length.all():
        raise StoreCorruptionError(f"{path}: empty id run")
    last = first + (length - 1)  # uint64: below first exactly when it wrapped
    if (last < first).any():
        raise StoreCorruptionError(f"{path}: id run wraps past 2**64 - 1")
    # where a run starts at or below the last id before it, the difference
    # wraps, but the first comparison already holds
    if ((first[1:] <= last[:-1]) | (first[1:] - last[:-1] < 2)).any():
        raise StoreCorruptionError(f"{path}: id runs overlap, touch or are not ascending")
    # disjoint runs below 2**64 hold fewer than 2**64 ids, so the sum is exact
    ends = length.cumsum()
    if int(ends[-1]) != n_rows:
        raise StoreCorruptionError(f"{path}: id run lengths do not sum to n_rows")
    rows = ends - length
    rows.flags.writeable = False
    return rows


def encode_segment(
    segment_id: int,
    teacher_version: int,
    tasks: Sequence[tuple[str, str]],
    example_ids: np.ndarray,
    values: np.ndarray,
) -> bytes:
    """The log record of ascending uint64 example ids, with values one
    float32 row per task, (len(tasks), n_rows): its body, deflated and
    framed."""
    first, length = _id_runs(example_ids)
    body = b"".join([
        _U64.pack(segment_id),
        _U64.pack(teacher_version),
        _pack_task_dir(tasks),
        _U64.pack(values.shape[1]),
        _U64.pack(first.size),
        np.ascontiguousarray(first, dtype="<u8").tobytes(),
        np.ascontiguousarray(length, dtype="<u8").tobytes(),
        np.ascontiguousarray(values, dtype="<f4").tobytes(),
    ])
    payload = _U64.pack(len(body)) + zlib.compress(body, _DEFLATE_LEVEL, wbits=-15)
    n = _U32.pack(len(payload))
    data = b"".join([n, _U32.pack(_crc(n)), payload])
    return data + _U32.pack(_crc(data))


def _inflate(stream: memoryview, body_len: int, path: str) -> np.ndarray:
    """Exactly body_len bytes inflated from a raw deflate stream, as a
    uint8 array: arrays read from it keep it alive as their base, where a
    memoryview would add one view object per array.

    It feeds and takes at most _INFLATE_CHUNK bytes at a time, so it holds
    one chunk beside the body and stops one byte past body_len.
    """
    body = np.empty(body_len, dtype=np.uint8)
    into = memoryview(body)
    inflate = zlib.decompressobj(-15)
    pos = fed = 0
    pending = b""
    try:
        while not inflate.eof:
            if not pending and fed < len(stream):
                pending = stream[fed : fed + _INFLATE_CHUNK]
                fed += len(pending)
            out = inflate.decompress(pending, min(_INFLATE_CHUNK, body_len - pos + 1))
            pending = inflate.unconsumed_tail
            if pos + len(out) > body_len:
                raise StoreCorruptionError(f"{path}: body inflates past body_len {body_len}")
            into[pos : pos + len(out)] = out
            pos += len(out)
            if not out and not pending and fed == len(stream) and not inflate.eof:
                raise StoreCorruptionError(f"{path}: deflate stream ends early")
    except zlib.error as e:
        raise StoreCorruptionError(f"{path}: bad deflate stream: {e}") from None
    if inflate.unused_data or fed < len(stream):
        raise StoreCorruptionError(f"{path}: data after the end of the deflate stream")
    if pos != body_len:
        raise StoreCorruptionError(f"{path}: body inflates to {pos} bytes, not body_len {body_len}")
    return body


def decode_segment(payload, path: str) -> SegmentData:
    """The segment in a record's payload, u64 body_len | deflate(body), whose
    crc the caller has checked; path names the record in errors."""
    body_len = _Cursor(payload, path, "record").u64()
    stream = memoryview(payload)[8:]
    if body_len > _DEFLATE_MAX_RATIO * len(stream):
        raise StoreCorruptionError(
            f"{path}: body_len {body_len} is more than {len(stream)} deflate bytes can hold"
        )
    cur = _Cursor(_inflate(stream, body_len, path), path, "body")
    segment_id = cur.u64()
    teacher_version = cur.u64()
    tasks = _read_task_dir(cur)
    if not tasks:
        # the value columns are what bound n_rows by the body's size
        raise StoreCorruptionError(f"{path}: segment has no tasks")
    n_rows = cur.u64()
    if n_rows == 0:
        raise StoreCorruptionError(f"{path}: empty segment")
    n_runs = cur.u64()
    runs = cur.array(np.dtype("<u8"), 2 * n_runs)
    first, length = runs[:n_runs], runs[n_runs:]
    values = cur.array(np.dtype("<f4"), len(tasks) * n_rows).reshape(len(tasks), n_rows)
    if cur.off != len(cur.data):
        raise StoreCorruptionError(f"{path}: trailing bytes after the value block")
    run_row = _check_runs(first, length, n_rows, path)
    return SegmentData(segment_id, teacher_version, tasks, first, length, run_row, values)


def _records(data, start: int, path: Path) -> tuple[list[tuple[memoryview, str]], int, str]:
    """Frame data, the log from byte offset start on (from its header when
    start is 0), into records and check their crcs.

    Returns the payload of each complete record with the name errors give
    it, the offset just past the last of them, and "" or what is corrupt at
    that offset. A record cut short by the end of data, or a tail of zeros,
    ends the scan without error: it is a torn tail, which a crash
    mid-append leaves.
    """
    view = memoryview(data)
    found: list[tuple[memoryview, str]] = []
    off = 0
    if start == 0:
        head = bytes(view[: len(_HEADER)])
        if head != _HEADER:
            if _HEADER.startswith(head) or not any(view):
                return found, 0, ""  # a torn header: nothing is committed
            if head[:4] == _V3_MAGIC:
                what = "a format-3 store (a MANIFEST of seg-*.sls files); regenerate the run"
            elif head[:4] == LOG_MAGIC and len(head) == len(_HEADER):
                what = f"unsupported format version {_U32.unpack_from(head, 4)[0]}"
            else:
                what = "bad log magic"
            return found, 0, f"{path}: {what}"
        off = len(_HEADER)
    while len(view) - off >= _FRAME.size:
        where = f"{path}: record at byte {start + off}"
        n, n_crc = _FRAME.unpack_from(view, off)
        end = off + _FRAME.size + n + 4
        if _crc(view[off : off + 4]) != n_crc:
            if not any(view[off:]):
                break
            bad = "length checksum mismatch"
        elif end > len(view):
            break
        elif _crc(view[off : end - 4]) != _U32.unpack_from(view, end - 4)[0]:
            bad = "checksum mismatch"
        else:
            found.append((view[off + _FRAME.size : end - 4], where))
            off = end
            continue
        return found, start + off, f"{where}: {bad}"
    return found, start + off, ""


def _read_log(path: Path, start: int) -> bytes | None:
    """The log's bytes from offset start on: b"" when there is no log, and
    None when it is shorter than start."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except FileNotFoundError:
        return None if start else b""
    try:
        size = os.fstat(fd).st_size
        return os.pread(fd, size - start, start) if size >= start else None
    finally:
        os.close(fd)


# rows of _SegmentIndex.cols
_MIN_ID, _MAX_ID, _TEACHER_VERSION, _SEGMENT_ID = range(4)


class _SegmentIndex:
    """Segments in log order, with one uint64 column per segment of
    (min id, max id, teacher_version, segment_id), and the log offset just
    past the last record read.

    It only grows at the end, and reallocates its columns when full, so the
    [:, :n] views a Snapshot holds never see a later write.
    """

    def __init__(self):
        self.segments: list[SegmentData] = []
        self.cols = np.zeros((4, 16), dtype=np.uint64)
        # position of the first segment whose schema differs from segment 0
        self.conflict: int | None = None
        self.end = 0

    def extend(self, segments: list[SegmentData], end: int) -> None:
        n, k = len(self.segments), len(segments)
        if n + k > self.cols.shape[1]:
            grown = np.zeros((4, max(2 * self.cols.shape[1], n + k)), dtype=np.uint64)
            grown[:, :n] = self.cols[:, :n]
            self.cols = grown
        self.cols[:, n : n + k] = np.array(
            [(s.min_id, s.max_id, s.teacher_version, s.segment_id) for s in segments],
            dtype=np.uint64,
        ).reshape(k, 4).T
        self.segments.extend(segments)
        if self.conflict is None:
            for pos in range(n, n + k):
                if self.segments[pos].tasks != self.segments[0].tasks:
                    self.conflict = pos
                    break
        self.end = end


class Snapshot:
    """Immutable view over the first n segments of an index, the segments
    committed when it was opened.

    Duplicate example ids across segments resolve to the value from the
    segment with the highest (teacher_version, segment_id).
    """

    def __init__(self, index: _SegmentIndex, n: int):
        if index.conflict is not None and index.conflict < n:
            raise StoreError("segments disagree on task schema")
        self._index = index
        self._n = n
        self.tasks: tuple[tuple[str, str], ...] = index.segments[0].tasks if n else ()
        self._cols = index.cols[:, :n]

    @property
    def segments(self) -> list[SegmentData]:
        return self._index.segments[: self._n]

    def lookup_batch(self, example_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized lookup. Returns the (n,) present mask and the values,
        one float32 row per task of the schema, (len(tasks), n).

        Columns where present is False hold zeros and carry no meaning.
        """
        ids = _example_ids(example_ids)
        n = ids.shape[0]
        present = np.zeros(n, dtype=bool)
        out = np.zeros((len(self.tasks), n), dtype=np.float32)
        if not self._n or n == 0:
            return present, out
        cols = self._cols
        cand = np.flatnonzero((cols[_MAX_ID] >= ids.min()) & (cols[_MIN_ID] <= ids.max()))
        # ascending precedence: later writes overwrite earlier ones
        cand = cand[np.lexsort((cols[_SEGMENT_ID, cand], cols[_TEACHER_VERSION, cand]))]
        for i in cand.tolist():
            seg = self._index.segments[i]
            # each probe's run is the last one starting at or below it; a
            # probe below the first run gets k = -1, which reads the last
            # run and is masked off
            k = seg.run_first.searchsorted(ids, side="right") - 1
            off = ids - seg.run_first[k]
            hit = (k >= 0) & (off < seg.run_len[k])
            if not hit.any():
                continue
            out[:, hit] = seg.values[:, (seg.run_row[k] + off)[hit]]
            present |= hit
        return present, out


class LabelStore:
    """Handle on a store directory; decodes each committed record once."""

    def __init__(self, root):
        self.root = Path(root)
        self.log_path = self.root / MANIFEST_NAME
        self._index = _SegmentIndex()
        self._index_lock = threading.Lock()

    def open_snapshot(self) -> Snapshot:
        """Pin the records committed so far, decoding the ones not yet indexed.

        An existing but empty store yields an empty snapshot; a missing
        directory is an error.
        """
        if not self.root.is_dir():
            raise StoreError(f"store directory missing: {self.root}")
        with self._index_lock:
            index = self._index
            data = _read_log(self.log_path, index.end)
            if data is None:
                # shorter than what this handle has read: start over
                index, data = _SegmentIndex(), _read_log(self.log_path, 0)
            records, end, error = _records(data, index.end, self.log_path)
            if error:
                raise StoreCorruptionError(error)
            index.extend([decode_segment(*record) for record in records], end)
            self._index = index
            return Snapshot(index, len(index.segments))

    def writer(self, tasks: Sequence, *, durable: bool = False) -> "SegmentWriter":
        return SegmentWriter(self, tasks, durable=durable)


class SegmentWriter:
    """Exclusive append handle; use as a context manager.

    durable=True fsyncs the log after each commit, and the directory when
    the writer creates the log, for power-loss safety; against a process
    crash a commit is already all or nothing, since readers skip a torn
    tail.
    """

    def __init__(self, store: LabelStore, tasks: Sequence, *, durable: bool = False):
        self.store = store
        self.tasks = _normalize_tasks(tasks)
        self.durable = durable
        self._lock_fd: int | None = None
        self._log_fd: int | None = None
        self._end = 0  # the log's size after the last commit
        self._next_sid = 1

    def __enter__(self) -> "SegmentWriter":
        self.store.root.mkdir(parents=True, exist_ok=True)
        fd = os.open(self.store.root / LOCK_NAME, os.O_CREAT | os.O_RDWR, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            os.close(fd)
            raise WriterLockError(
                f"another writer holds the lock on {self.store.root}"
            ) from None
        self._lock_fd = fd
        try:
            self._open_log()
        except BaseException:
            self.__exit__()
            raise
        return self

    def _open_log(self) -> None:
        """Check the log, then open it for appends past its torn tail, if any.

        A corrupt record, or a last record that does not decode or has
        another task schema, is refused before anything is written: either
        way every later open_snapshot would fail.
        """
        path = self.store.log_path
        data = _read_log(path, 0)
        records, end, error = _records(data, 0, path)
        if error:
            raise StoreCorruptionError(error)
        if records:
            last = decode_segment(*records[-1])
            if last.tasks != self.tasks:
                raise StoreError(
                    f"writer schema {list(self.tasks)} disagrees with the committed "
                    f"task schema {list(last.tasks)} of {self.store.root}"
                )
            self._next_sid = last.segment_id + 1
        self._log_fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        if end < len(data):
            os.ftruncate(self._log_fd, end)
        if end == 0:
            os.write(self._log_fd, _HEADER)
            end = len(_HEADER)
            if self.durable:
                dirfd = os.open(self.store.root, os.O_RDONLY)
                try:
                    os.fsync(dirfd)
                finally:
                    os.close(dirfd)
        self._end = end

    def __exit__(self, *exc) -> None:
        if self._log_fd is not None:
            os.close(self._log_fd)
            self._log_fd = None
        if self._lock_fd is not None:
            fcntl.flock(self._lock_fd, fcntl.LOCK_UN)
            os.close(self._lock_fd)
            self._lock_fd = None

    def append(
        self,
        example_ids: np.ndarray,
        values: dict[str, np.ndarray],
        teacher_version: int,
    ) -> int:
        """Commit one segment: one write of its record to the log.

        Rows are sorted by example id; duplicate ids within a call are an
        error. Returns the new segment id.
        """
        if self._log_fd is None:
            raise StoreError("writer not open; use it as a context manager")
        sid = self._next_sid
        record = self._segment_record(sid, example_ids, values, teacher_version)
        try:
            if os.write(self._log_fd, record) != len(record):
                raise StoreError(f"{self.store.log_path}: short write")
            if self.durable:
                os.fsync(self._log_fd)
        except BaseException:
            # leave no torn record for this writer's next append to follow
            os.ftruncate(self._log_fd, self._end)
            raise
        self._end += len(record)
        self._next_sid = sid + 1
        return sid

    def _segment_record(
        self,
        segment_id: int,
        example_ids: np.ndarray,
        values: dict[str, np.ndarray],
        teacher_version: int,
    ) -> bytes:
        ids = _example_ids(example_ids)
        if ids.shape[0] == 0:
            raise StoreError("append needs a non-empty id array")
        if (
            isinstance(teacher_version, (bool, np.bool_))
            or not isinstance(teacher_version, (int, np.integer))
            or not 0 <= teacher_version < 2**64
        ):
            raise StoreError(f"teacher_version must be an integer >= 0, not {teacher_version!r}")
        names = {name for name, _ in self.tasks}
        if set(values.keys()) != names:
            raise StoreError(
                f"value columns {sorted(values)} disagree with schema {sorted(names)}"
            )
        order = np.argsort(ids, kind="stable")
        ids = ids[order]
        if not np.all(ids[1:] > ids[:-1]):
            raise StoreError("duplicate example ids within one append")
        block = np.empty((len(self.tasks), ids.shape[0]), dtype=np.float32)
        for row, (name, _) in zip(block, self.tasks):
            col = np.asarray(values[name], dtype=np.float32)
            if col.shape != ids.shape:
                raise StoreError(f"column {name!r} length disagrees with ids")
            if not np.all(np.isfinite(col)):
                raise StoreError(f"column {name!r} has non-finite values")
            row[:] = col[order]
        return encode_segment(segment_id, int(teacher_version), self.tasks, ids, block)


@dataclass
class SegmentInfo:
    segment_id: int
    ok: bool
    error: str
    teacher_version: int = 0
    n_rows: int = 0
    min_id: int = 0
    max_id: int = 0


@dataclass
class StoreReport:
    root: str
    tasks: tuple[tuple[str, str], ...] = ()
    segments: list[SegmentInfo] = field(default_factory=list)
    stray_files: list[str] = field(default_factory=list)
    torn_bytes: int = 0  # after the last complete record
    error: str = ""

    @property
    def ok(self) -> bool:
        return not self.error and all(s.ok for s in self.segments)

    @property
    def total_rows(self) -> int:
        return sum(s.n_rows for s in self.segments if s.ok)


def inspect_store(root) -> StoreReport:
    """Audit a store directory without raising: every record's crcs and
    segment, the task schema, a torn tail and stray files. A torn tail is
    the debris of a crash mid-append, and is reported, not failed; so are
    stray files, though only the log and the lock belong in a store."""
    root = Path(root)
    if not root.is_dir():
        return StoreReport(str(root), error="store directory missing")
    report = StoreReport(str(root))
    report.stray_files = [
        p.name for p in sorted(root.iterdir()) if p.name not in (MANIFEST_NAME, LOCK_NAME)
    ]
    path = root / MANIFEST_NAME
    data = _read_log(path, 0)
    records, end, report.error = _records(data, 0, path)
    if not report.error:
        report.torn_bytes = len(data) - end
    tasks_seen: set[tuple[tuple[str, str], ...]] = set()
    for record in records:
        try:
            seg = decode_segment(*record)
        except StoreCorruptionError as e:
            report.segments.append(SegmentInfo(0, False, str(e)))
            continue
        tasks_seen.add(seg.tasks)
        report.segments.append(
            SegmentInfo(seg.segment_id, True, "", seg.teacher_version, seg.n_rows, seg.min_id,
                        seg.max_id)
        )
    if len(tasks_seen) == 1:
        report.tasks = next(iter(tasks_seen))
    elif len(tasks_seen) > 1:
        report.error = report.error or "segments disagree on task schema"
    return report
