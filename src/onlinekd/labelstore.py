"""Append-only columnar soft-label store with snapshot isolation.

One writer (the teacher) appends immutable segments; many readers (the
student fleet) open snapshots. A snapshot is pinned to the manifest it was
opened against, so every reader sharing a manifest version sees the same
bytes no matter how far the writer has advanced since.

On-disk layout, all little-endian:

  seg-<id>.sls   "SLS1" | u32 version=2 | u64 segment_id | u64 teacher_version
                 | u16 n_tasks | (u16 name_len, name utf8, u8 kind)*
                 | u64 n_rows | u64 n_runs | u64 run_first[n_runs]
                 | u64 run_len[n_runs] | f32 values[n_rows] per task | u32 crc32
  MANIFEST       "SLM1" | u64 manifest_version | u32 n_segments
                 | u64 segment_ids[n] | u32 crc32

The example ids of a segment are strictly ascending and stored as the
maximal runs of consecutive ids: run k holds run_first[k], run_first[k] + 1,
..., run_first[k] + run_len[k] - 1. A stream batch's ids are one run, so a
segment's ids cost 24 bytes whatever its row count; isolated ids cost 16
bytes each. Readers keep the runs as they are stored, never one id per row.
The crc32 covers every preceding byte of the file. Commit order is segment
file first (atomic rename), manifest second (atomic rename), so a crash at
any byte leaves the store readable at the previous manifest version. A
writer is refused on open, before it writes anything, when the newest
committed segment does not load or has another task schema.

One function, load_segment, reads a segment file for every reader: the
snapshot index, the writer's schema check and inspect_store. Each LabelStore
handle keeps one growing index of the segments it has read, in manifest
order, with their id ranges and precedence keys as numpy columns. Opening a
snapshot checks the manifest crc, then decodes only the segments the index
does not hold yet, so an open costs O(new segments) in Python plus one crc
over the manifest bytes; a manifest that does not extend the index rebuilds
it. A snapshot is the first n positions of the index it was opened on, a
(manifest version, index, n) triple that copies nothing, and the index
never rewrites a position a snapshot can see.
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
from .ranker import BINARY, REGRESSION, TaskSpec

SEGMENT_MAGIC = b"SLS1"
MANIFEST_MAGIC = b"SLM1"
FORMAT_VERSION = 2
MANIFEST_NAME = "MANIFEST"
LOCK_NAME = "WRITER.lock"

_KIND_TO_BYTE = {BINARY: 0, REGRESSION: 1}
_BYTE_TO_KIND = {v: k for k, v in _KIND_TO_BYTE.items()}

_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_U8 = struct.Struct("<B")


def _crc(data: bytes) -> int:
    return zlib.crc32(data) & 0xFFFFFFFF


def segment_filename(segment_id: int) -> str:
    return f"seg-{segment_id:016x}.sls"


class _Cursor:
    """Bounds-checked reader over a byte buffer; overruns mean corruption."""

    def __init__(self, data: bytes, path: Path):
        self.data = data
        self.off = 0
        self.path = path

    def take(self, n: int) -> bytes:
        if self.off + n > len(self.data):
            raise StoreCorruptionError(f"{self.path}: truncated file")
        out = self.data[self.off : self.off + n]
        self.off += n
        return out

    def u8(self) -> int:
        return _U8.unpack(self.take(1))[0]

    def u16(self) -> int:
        return _U16.unpack(self.take(2))[0]

    def u32(self) -> int:
        return _U32.unpack(self.take(4))[0]

    def u64(self) -> int:
        return _U64.unpack(self.take(8))[0]

    def array(self, dtype: np.dtype, count: int) -> np.ndarray:
        raw = self.take(int(dtype.itemsize) * count)
        arr = np.frombuffer(raw, dtype=dtype).copy()
        arr.flags.writeable = False
        return arr


def _check_crc(cur: _Cursor) -> None:
    body = cur.data[: cur.off]
    stored = cur.u32()
    if cur.off != len(cur.data):
        raise StoreCorruptionError(f"{cur.path}: trailing bytes after checksum")
    if _crc(body) != stored:
        raise StoreCorruptionError(f"{cur.path}: checksum mismatch")


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


def _normalize_tasks(tasks: Sequence) -> tuple[tuple[str, str], ...]:
    out = []
    for t in tasks:
        if isinstance(t, TaskSpec):
            out.append((t.name, t.kind))
        else:
            name, kind = t
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
    run_row[k] on. The run arrays are read-only uint64.
    """

    segment_id: int
    teacher_version: int
    tasks: tuple[tuple[str, str], ...]
    run_first: np.ndarray
    run_len: np.ndarray
    run_row: np.ndarray
    values: dict[str, np.ndarray]  # float32 per task

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


def _check_runs(first: np.ndarray, length: np.ndarray, n_rows: int, path: Path) -> np.ndarray:
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
    values: dict[str, np.ndarray],
) -> bytes:
    """The segment file for ascending example ids, which it stores as runs."""
    first, length = _id_runs(np.ascontiguousarray(example_ids, dtype=np.uint64))
    parts = [
        SEGMENT_MAGIC,
        _U32.pack(FORMAT_VERSION),
        _U64.pack(segment_id),
        _U64.pack(teacher_version),
        _pack_task_dir(tasks),
        _U64.pack(len(example_ids)),
        _U64.pack(len(first)),
        first.astype("<u8").tobytes(),
        length.astype("<u8").tobytes(),
    ]
    for name, _ in tasks:
        parts.append(np.ascontiguousarray(values[name], dtype="<f4").tobytes())
    body = b"".join(parts)
    return body + _U32.pack(_crc(body))


def decode_segment(data: bytes, path: Path) -> SegmentData:
    cur = _Cursor(data, path)
    if cur.take(4) != SEGMENT_MAGIC:
        raise StoreCorruptionError(f"{path}: bad segment magic")
    version = cur.u32()
    if version != FORMAT_VERSION:
        raise StoreCorruptionError(f"{path}: unsupported format version {version}")
    segment_id = cur.u64()
    teacher_version = cur.u64()
    tasks = _read_task_dir(cur)
    if not tasks:
        # the value columns are what bound n_rows by the file's size
        raise StoreCorruptionError(f"{path}: segment has no tasks")
    n_rows = cur.u64()
    if n_rows == 0:
        raise StoreCorruptionError(f"{path}: empty segment")
    n_runs = cur.u64()
    runs = cur.array(np.dtype("<u8"), 2 * n_runs)
    first, length = runs[:n_runs], runs[n_runs:]
    values = {name: cur.array(np.dtype("<f4"), n_rows) for name, _ in tasks}
    _check_crc(cur)
    run_row = _check_runs(first, length, n_rows, path)
    return SegmentData(segment_id, teacher_version, tasks, first, length, run_row, values)


def load_segment(root: Path, segment_id: int) -> SegmentData:
    """Read and decode seg-<segment_id>.sls under root; a missing file, or a
    header id other than segment_id, is corruption."""
    path = Path(root) / segment_filename(segment_id)
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        raise StoreCorruptionError(f"{path}: segment file missing") from None
    seg = decode_segment(data, path)
    if seg.segment_id != segment_id:
        raise StoreCorruptionError(
            f"{path}: header id {seg.segment_id} disagrees with filename"
        )
    return seg


@dataclass
class ManifestData:
    manifest_version: int
    segment_ids: np.ndarray  # read-only uint64, in commit order


def encode_manifest(manifest: ManifestData) -> bytes:
    body = b"".join([
        MANIFEST_MAGIC,
        _U64.pack(manifest.manifest_version),
        _U32.pack(len(manifest.segment_ids)),
        np.asarray(manifest.segment_ids, dtype="<u8").tobytes(),
    ])
    return body + _U32.pack(_crc(body))


def decode_manifest(data: bytes, path: Path) -> ManifestData:
    cur = _Cursor(data, path)
    if cur.take(4) != MANIFEST_MAGIC:
        raise StoreCorruptionError(f"{path}: bad manifest magic")
    version = cur.u64()
    n = cur.u32()
    ids = np.frombuffer(cur.take(8 * n), dtype="<u8")
    _check_crc(cur)
    # the writer commits rising ids, so the sort is only for hand-made manifests
    if not np.all(ids[1:] > ids[:-1]) and np.unique(ids).size != n:
        raise StoreCorruptionError(f"{path}: duplicate segment ids in manifest")
    return ManifestData(version, ids)


def read_manifest(root: Path) -> ManifestData:
    """The committed manifest; version 0 with no ids when there is none."""
    path = Path(root) / MANIFEST_NAME
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return ManifestData(0, np.frombuffer(b"", dtype="<u8"))
    return decode_manifest(data, path)


# rows of _SegmentIndex.cols
_MIN_ID, _MAX_ID, _TEACHER_VERSION, _SEGMENT_ID = range(4)


class _SegmentIndex:
    """Segments in manifest order, with one uint64 column per segment of
    (min id, max id, teacher_version, segment_id).

    It only grows at the end, and reallocates its columns when full, so the
    [:, :n] views a Snapshot holds never see a later write.
    """

    def __init__(self):
        self.segments: list[SegmentData] = []
        self.cols = np.zeros((4, 16), dtype=np.uint64)
        # position of the first segment whose schema differs from segment 0
        self.conflict: int | None = None

    def extend(self, segments: list[SegmentData]) -> None:
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


class Snapshot:
    """Immutable view over the first n segments of an index, the segments of
    one manifest version.

    Duplicate example ids across segments resolve to the value from the
    segment with the highest (teacher_version, segment_id).
    """

    def __init__(self, manifest_version: int, index: _SegmentIndex, n: int):
        if index.conflict is not None and index.conflict < n:
            raise StoreError("segments disagree on task schema")
        self.manifest_version = manifest_version
        self._index = index
        self._n = n
        self.tasks: tuple[tuple[str, str], ...] = index.segments[0].tasks if n else ()
        self._cols = index.cols[:, :n]

    @property
    def segments(self) -> list[SegmentData]:
        return self._index.segments[: self._n]

    @property
    def task_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.tasks)

    def lookup_batch(self, example_ids: np.ndarray) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """Vectorized lookup. Returns (present mask, per-task float32 arrays).

        Rows where present is False hold zeros and carry no meaning.
        """
        ids = np.ascontiguousarray(example_ids, dtype=np.uint64)
        n = ids.shape[0]
        present = np.zeros(n, dtype=bool)
        out = {name: np.zeros(n, dtype=np.float32) for name in self.task_names}
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
            rows = (seg.run_row[k] + off)[hit]
            for name, _ in seg.tasks:
                out[name][hit] = seg.values[name][rows]
            present |= hit
        return present, out


class LabelStore:
    """Handle on a store directory; decodes each committed segment once."""

    def __init__(self, root):
        self.root = Path(root)
        self._index = _SegmentIndex()
        self._index_lock = threading.Lock()

    def open_snapshot(self) -> Snapshot:
        """Pin the current manifest and load the segments not yet indexed.

        An existing but empty store yields an empty snapshot; a missing
        directory is an error.
        """
        if not self.root.is_dir():
            raise StoreError(f"store directory missing: {self.root}")
        manifest = read_manifest(self.root)
        ids = manifest.segment_ids
        with self._index_lock:
            index = self._index
            n = len(index.segments)
            if n > len(ids) or not np.array_equal(index.cols[_SEGMENT_ID, :n], ids[:n]):
                # not an extension of what this handle has read: start over
                index, n = _SegmentIndex(), 0
            index.extend([load_segment(self.root, sid) for sid in ids[n:].tolist()])
            self._index = index
            return Snapshot(manifest.manifest_version, index, len(ids))

    def writer(self, tasks: Sequence, *, durable: bool = False) -> "SegmentWriter":
        return SegmentWriter(self, tasks, durable=durable)


class SegmentWriter:
    """Exclusive append handle; use as a context manager.

    durable=True adds fsync barriers (file before rename, directory after)
    for power-loss safety; the rename-last protocol alone already makes
    commits atomic against process crashes.
    """

    def __init__(self, store: LabelStore, tasks: Sequence, *, durable: bool = False):
        self.store = store
        self.tasks = _normalize_tasks(tasks)
        self.durable = durable
        self._lock_fd: int | None = None
        self._manifest: ManifestData | None = None
        self._next_sid = 0

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
            self._manifest = read_manifest(self.store.root)
            ids = self._manifest.segment_ids
            # refuse a schema the committed segments do not have, or a newest
            # segment that does not load: either way every later
            # open_snapshot would fail
            if ids.size:
                tasks = load_segment(self.store.root, int(ids[-1])).tasks
                if tasks != self.tasks:
                    raise StoreError(
                        f"writer schema {list(self.tasks)} disagrees with the committed "
                        f"task schema {list(tasks)} of {self.store.root}"
                    )
        except BaseException:
            self.__exit__()
            raise
        self._next_sid = int(ids.max()) + 1 if ids.size else 1
        return self

    def __exit__(self, *exc) -> None:
        if self._lock_fd is not None:
            fcntl.flock(self._lock_fd, fcntl.LOCK_UN)
            os.close(self._lock_fd)
            self._lock_fd = None
        self._manifest = None

    def _require_open(self) -> None:
        if self._lock_fd is None or self._manifest is None:
            raise StoreError("writer not open; use it as a context manager")

    def append(
        self,
        example_ids: np.ndarray,
        values: dict[str, np.ndarray],
        teacher_version: int,
    ) -> int:
        """Commit one segment: stage the file, rename it, publish the manifest.

        Rows are sorted by example id; duplicate ids within a call are an
        error. Returns the new segment id.
        """
        self._require_open()
        sid = self._next_sid
        data = self._prepare(sid, example_ids, values, teacher_version)
        self._publish_file(segment_filename(sid), data)
        self._publish_manifest(
            ManifestData(
                self._manifest.manifest_version + 1,
                np.append(self._manifest.segment_ids, np.uint64(sid)),
            )
        )
        self._next_sid = sid + 1
        return sid

    def _prepare(
        self,
        segment_id: int,
        example_ids: np.ndarray,
        values: dict[str, np.ndarray],
        teacher_version: int,
    ) -> bytes:
        ids = np.asarray(example_ids, dtype=np.uint64)
        if ids.ndim != 1 or ids.shape[0] == 0:
            raise StoreError("append needs a non-empty 1-d id array")
        if teacher_version < 0:
            raise StoreError("teacher_version must be >= 0")
        names = {name for name, _ in self.tasks}
        if set(values.keys()) != names:
            raise StoreError(
                f"value columns {sorted(values)} disagree with schema {sorted(names)}"
            )
        order = np.argsort(ids, kind="stable")
        ids = ids[order]
        if not np.all(ids[1:] > ids[:-1]):
            raise StoreError("duplicate example ids within one append")
        cols: dict[str, np.ndarray] = {}
        for name, _ in self.tasks:
            col = np.asarray(values[name], dtype=np.float32)
            if col.shape != ids.shape:
                raise StoreError(f"column {name!r} length disagrees with ids")
            if not np.all(np.isfinite(col)):
                raise StoreError(f"column {name!r} has non-finite values")
            cols[name] = col[order]
        return encode_segment(segment_id, int(teacher_version), self.tasks, ids, cols)

    def _publish_file(self, name: str, data: bytes) -> None:
        final = self.store.root / name
        tmp = self.store.root / (name + ".tmp")
        with open(tmp, "wb") as f:
            f.write(data)
            f.flush()
            if self.durable:
                os.fsync(f.fileno())
        os.replace(tmp, final)
        if self.durable:
            dirfd = os.open(self.store.root, os.O_RDONLY)
            try:
                os.fsync(dirfd)
            finally:
                os.close(dirfd)

    def _publish_manifest(self, manifest: ManifestData) -> None:
        self._publish_file(MANIFEST_NAME, encode_manifest(manifest))
        self._manifest = manifest


@dataclass
class SegmentInfo:
    segment_id: int
    ok: bool
    error: str = ""
    teacher_version: int = 0
    n_rows: int = 0
    min_id: int = 0
    max_id: int = 0


@dataclass
class StoreReport:
    root: str
    manifest_version: int
    tasks: tuple[tuple[str, str], ...]
    segments: list[SegmentInfo] = field(default_factory=list)
    stray_files: list[str] = field(default_factory=list)
    error: str = ""

    @property
    def ok(self) -> bool:
        return not self.error and all(s.ok for s in self.segments)

    @property
    def total_rows(self) -> int:
        return sum(s.n_rows for s in self.segments if s.ok)


def inspect_store(root) -> StoreReport:
    """Audit a store directory without raising: manifest, per-segment
    checksums, and stray files (leftover .tmp staging is expected debris
    after a crash and is reported, not failed)."""
    root = Path(root)
    if not root.is_dir():
        return StoreReport(str(root), 0, (), error="store directory missing")
    try:
        manifest = read_manifest(root)
    except StoreCorruptionError as e:
        return StoreReport(str(root), 0, (), error=str(e))
    report = StoreReport(str(root), manifest.manifest_version, ())
    segment_ids = manifest.segment_ids.tolist()
    expected = {segment_filename(sid) for sid in segment_ids}
    for p in sorted(root.iterdir()):
        if p.name in (MANIFEST_NAME, LOCK_NAME) or p.name in expected:
            continue
        report.stray_files.append(p.name)
    tasks_seen: set[tuple[tuple[str, str], ...]] = set()
    for sid in segment_ids:
        try:
            seg = load_segment(root, sid)
            tasks_seen.add(seg.tasks)
            report.segments.append(
                SegmentInfo(
                    sid, True, "", seg.teacher_version, seg.n_rows, seg.min_id, seg.max_id
                )
            )
        except StoreCorruptionError as e:
            report.segments.append(SegmentInfo(sid, False, str(e)))
    if len(tasks_seen) == 1:
        report.tasks = next(iter(tasks_seen))
    elif len(tasks_seen) > 1:
        report.error = "segments disagree on task schema"
    return report
