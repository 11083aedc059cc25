"""Label store: log format, commit protocol, snapshots, failure modes."""

import errno
import os
import re
import stat
import struct
import tracemalloc
import zlib

import numpy as np
import pytest

from onlinekd import labelstore
from onlinekd.errors import StoreCorruptionError, StoreError, WriterLockError
from onlinekd.labelstore import (
    LOCK_NAME,
    LabelStore,
    MANIFEST_NAME,
    Snapshot,
    decode_segment,
    inspect_store,
)
from onlinekd.ranker import BINARY, REGRESSION

from oracles import (
    LOG_HEADER,
    assert_same_snapshot,
    log_records,
    replay_store_contents,
    segment_body,
    segment_ids,
    segment_record,
    stored_ids,
)

TASKS = [("ctr", BINARY), ("ltv", REGRESSION)]


def make_store(tmp_path, name="store"):
    return LabelStore(tmp_path / name)


def by_name(snap, block):
    """A lookup_batch block, one row per task of the snapshot's schema, as
    {task name: row}."""
    assert block.shape[0] == len(snap.tasks)
    return {name: row for (name, _), row in zip(snap.tasks, block)}


def lookup_one(snap, eid):
    """One id through lookup_batch: its per-task values as floats, or None."""
    present, cols = snap.lookup_batch(np.array([eid], dtype=np.uint64))
    if not present[0]:
        return None
    return {name: float(col[0]) for name, col in by_name(snap, cols).items()}


def seed_store(store, rows):
    """rows: list of (ids, {task: values}, teacher_version)."""
    with store.writer(TASKS) as w:
        for ids, values, tv in rows:
            w.append(np.asarray(ids, dtype=np.uint64), values, tv)


def crc(data):
    return zlib.crc32(data) & 0xFFFFFFFF


def deflated(body):
    return zlib.compress(body, 6, wbits=-15)


def payload(body, body_len=None, stream=None):
    """A record payload around body: its deflate stream (or stream) behind
    body_len (len(body) by default)."""
    head = struct.pack("<Q", len(body) if body_len is None else body_len)
    return head + (deflated(body) if stream is None else stream)


def framed(data):
    """data as one log record: its length and the length's crc before it,
    the crc of the whole record after it."""
    n = struct.pack("<I", len(data))
    head = n + struct.pack("<I", crc(n)) + data
    return head + struct.pack("<I", crc(head))


def payload_of(record):
    return record[8:-4]


def write_log(root, *records, header=LOG_HEADER):
    """A store directory whose log holds header and records, as bytes."""
    root.mkdir(parents=True, exist_ok=True)
    (root / MANIFEST_NAME).write_bytes(header + b"".join(records))
    return root


def log_bytes(store):
    return (store.root / MANIFEST_NAME).read_bytes()


# the body of a segment, up to its row count
BODY_HEADER = (
    struct.pack("<Q", 7)  # segment id
    + struct.pack("<Q", 42)  # teacher version
    + struct.pack("<H", 2)  # n_tasks
    + struct.pack("<H", 3) + b"ctr" + struct.pack("<B", 0)
    + struct.pack("<H", 3) + b"ltv" + struct.pack("<B", 1)
)


def payload_with_runs(n_rows, run_first, run_len, header=BODY_HEADER, n_tasks=2):
    """A payload with the given id runs and zero values, so a decoder check
    on the runs fires."""
    body = header + struct.pack("<QQ", n_rows, len(run_first))
    body += struct.pack(f"<{len(run_first)}Q", *run_first)
    body += struct.pack(f"<{len(run_len)}Q", *run_len)
    return payload(body + bytes(4 * n_rows * n_tasks))


GOLDEN_BODY = (
    BODY_HEADER
    + struct.pack("<Q", 3)  # n_rows
    + struct.pack("<Q", 2)  # n_runs
    + struct.pack("<QQ", 3, 9)  # run_first
    + struct.pack("<QQ", 1, 2)  # run_len
    + struct.pack("<fff", 0.25, 0.5, 0.75)
    + struct.pack("<fff", 1.5, 2.0, 2.5)
)
# GOLDEN_BODY deflated by zlib 1.2.13 at level 6, raw (wbits -15)
GOLDEN_STREAM = bytes.fromhex(
    "636780002d28cdc4c0cc905c520424734aca1899e1a21000e37342694634790686063b20"
    "61cfc0e000c4078098c1818141c10100"
)


def test_segment_golden_bytes():
    ids = np.array([3, 9, 10], dtype=np.uint64)
    values = {
        "ctr": np.array([0.25, 0.5, 0.75], dtype=np.float32),
        "ltv": np.array([1.5, 2.0, 2.5], dtype=np.float32),
    }
    got = segment_record(7, 42, TASKS, ids, values)
    body = struct.pack("<Q", len(GOLDEN_BODY)) + GOLDEN_STREAM
    n = struct.pack("<I", len(body))
    head = n + struct.pack("<I", crc(n)) + body
    want = head + struct.pack("<I", crc(head))
    assert got == want == framed(payload(GOLDEN_BODY))
    assert segment_body(got) == GOLDEN_BODY
    seg = decode_segment(payload_of(want), "golden")
    assert seg.segment_id == 7 and seg.teacher_version == 42
    assert seg.tasks == tuple(TASKS)
    for runs in (seg.run_first, seg.run_len, seg.run_row):
        assert runs.dtype == np.uint64 and not runs.flags.writeable
    assert seg.run_row.tolist() == [0, 1]
    assert (seg.n_rows, seg.min_id, seg.max_id) == (3, 3, 10)
    assert segment_ids(seg).tolist() == [3, 9, 10]
    assert seg.values.dtype == np.float32 and not seg.values.flags.writeable
    assert seg.values.tolist() == [[0.25, 0.5, 0.75], [1.5, 2.0, 2.5]]


def test_manifest_golden_bytes(tmp_path):
    store = make_store(tmp_path)
    rows = [
        (np.array([5, 1, 3]), {"ctr": np.array([0.5, 0.1, 0.3], np.float32),
                               "ltv": np.array([50.0, 10.0, 30.0], np.float32)}, 4),
        (np.array([8]), {"ctr": np.ones(1, np.float32), "ltv": np.zeros(1, np.float32)}, 2),
    ]
    seed_store(store, rows)
    # the header, "SLL1" and version 4, then one record per commit, its rows
    # sorted by id
    want = b"SLL1" + struct.pack("<I", 4) + segment_record(
        1, 4, TASKS, [1, 3, 5], {"ctr": [0.1, 0.3, 0.5], "ltv": [10.0, 30.0, 50.0]}
    ) + segment_record(2, 2, TASKS, [8], {"ctr": [1.0], "ltv": [0.0]})
    assert log_bytes(store) == want
    assert labelstore.FORMAT_VERSION == 4
    assert sorted(p.name for p in store.root.iterdir()) == [MANIFEST_NAME, LOCK_NAME]


TOP = 2**64 - 1


@pytest.mark.parametrize("ids, runs", [
    ([5], [(5, 1)]),
    (list(range(100, 228)), [(100, 128)]),
    ([0, 2, 4, 6, 1000], [(0, 1), (2, 1), (4, 1), (6, 1), (1000, 1)]),
    ([0, 1, 2, 7, 9, 10, 11, 40], [(0, 3), (7, 1), (9, 3), (40, 1)]),
    ([TOP - 5, TOP - 2, TOP - 1, TOP], [(TOP - 5, 1), (TOP - 2, 3)]),
], ids=["one-id", "consecutive", "isolated", "mixed", "ends-at-u64-max"])
def test_segment_ids_round_trip_as_runs(ids, runs):
    ids = np.array(ids, dtype=np.uint64)
    vals = {name: np.arange(len(ids), dtype=np.float32) for name, _ in TASKS}
    record = segment_record(7, 42, TASKS, ids, vals)
    body = segment_body(record)
    off, k = len(BODY_HEADER), len(runs)
    assert struct.unpack_from("<QQ", body, off) == (len(ids), k)
    first, length = zip(*runs)
    assert struct.unpack_from(f"<{k}Q", body, off + 16) == first
    assert struct.unpack_from(f"<{k}Q", body, off + 16 + 8 * k) == length
    assert len(body) == off + 16 + 16 * k + 4 * len(ids) * len(TASKS)
    seg = decode_segment(payload_of(record), "p")
    assert (seg.n_rows, seg.min_id, seg.max_id) == (len(ids), ids[0], ids[-1])
    assert segment_ids(seg).tolist() == ids.tolist()
    assert seg.values.tolist() == [vals[name].tolist() for name, _ in TASKS]


def test_decode_rejects_malformed_segments():
    ids = np.array([1], dtype=np.uint64)
    vals = {"ctr": np.ones(1, np.float32), "ltv": np.ones(1, np.float32)}
    good = payload_of(segment_record(1, 0, TASKS, ids, vals))
    body = segment_body(framed(good))
    for cut in (0, 2, 7):  # shorter than body_len
        with pytest.raises(StoreCorruptionError, match="truncated record"):
            decode_segment(good[:cut], "p")
    with pytest.raises(StoreCorruptionError, match="truncated body"):
        decode_segment(payload(body[:-6]), "p")
    with pytest.raises(StoreCorruptionError, match="trailing bytes after the value block"):
        decode_segment(payload(body + b"\x00"), "p")
    with pytest.raises(StoreCorruptionError, match="ascending"):
        bad = segment_record(
            1, 0, TASKS, np.array([5, 3], dtype=np.uint64),
            {"ctr": np.zeros(2, np.float32), "ltv": np.zeros(2, np.float32)},
        )
        decode_segment(payload_of(bad), "p")
    with pytest.raises(StoreCorruptionError, match="empty"):
        bad = segment_record(1, 0, TASKS, np.array([], dtype=np.uint64),
                             {"ctr": np.zeros(0, np.float32), "ltv": np.zeros(0, np.float32)})
        decode_segment(payload_of(bad), "p")
    with pytest.raises(StoreCorruptionError, match="task kind"):
        # patch the ctr kind byte (body offset: 8+8+2+2+3 = 23)
        patched = bytearray(body)
        assert patched[23] == 0
        patched[23] = 7
        decode_segment(payload(bytes(patched)), "p")


def test_decode_rejects_malformed_deflate_frames():
    body = segment_body(segment_record(
        1, 0, TASKS, np.arange(40, dtype=np.uint64),
        {"ctr": np.ones(40, np.float32), "ltv": np.ones(40, np.float32)},
    ))
    assert decode_segment(payload(body), "p").n_rows == 40
    # every case below would carry a valid crc, so the frame check fires
    with pytest.raises(StoreCorruptionError, match="bad deflate stream"):
        decode_segment(payload(body, stream=b"\xff" * 16), "p")  # reserved block type
    stream = deflated(body)
    with pytest.raises(StoreCorruptionError, match="ends early"):
        decode_segment(payload(body, stream=stream[: len(stream) // 2]), "p")
    with pytest.raises(StoreCorruptionError, match="inflates past body_len"):
        decode_segment(payload(body, body_len=len(body) - 1), "p")
    with pytest.raises(StoreCorruptionError, match=f"inflates to {len(body)} bytes"):
        decode_segment(payload(body, body_len=len(body) + 1), "p")
    with pytest.raises(StoreCorruptionError, match="more than"):
        decode_segment(payload(body, body_len=2**63), "p")
    with pytest.raises(StoreCorruptionError, match="after the end of the deflate stream"):
        decode_segment(payload(body, stream=stream + deflated(b"more")), "p")
    with pytest.raises(StoreCorruptionError, match="after the end of the deflate stream"):
        decode_segment(payload(body, stream=stream + b"\x00"), "p")


def test_decode_stops_inflating_just_past_body_len():
    # 64 MB of zeros deflate to about 64 KB; a header that claims 1000 bytes
    # must be refused without inflating the rest
    stream = deflated(bytes(64 << 20))
    data = payload(b"", body_len=1000, stream=stream)
    tracemalloc.start()
    try:
        with pytest.raises(StoreCorruptionError, match="inflates past body_len 1000"):
            decode_segment(data, "p")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("n_rows, run_first, run_len, match", [
    (1, [], [], "no id runs"),
    (2, [1, 5, 9], [1, 1, 1], "more id runs than rows"),
    (2, [1, 5], [2, 0], "empty id run"),
    (3, [1, 2], [2, 1], "overlap, touch or are not ascending"),
    (3, [1, 3], [2, 1], "overlap, touch or are not ascending"),
    (2, [5, 1], [1, 1], "overlap, touch or are not ascending"),
    (2, [TOP], [2], "wraps past"),
    (2, [0, TOP], [TOP, 3], "wraps past"),  # lengths sum to 2 mod 2**64
    (3, [1], [2], "do not sum to n_rows"),
    (2, [1, 5], [1, 2], "do not sum to n_rows"),
], ids=["no-runs", "more-runs-than-rows", "empty-run", "overlapping", "touching",
        "unsorted", "wraps", "sum-wraps-to-n_rows", "sum-short", "sum-long"])
def test_decode_rejects_malformed_id_runs(n_rows, run_first, run_len, match):
    with pytest.raises(StoreCorruptionError, match=match):
        decode_segment(payload_with_runs(n_rows, run_first, run_len), "p")


def test_decode_rejects_a_segment_without_tasks():
    # with no value columns nothing would bound n_rows by the body size
    header = BODY_HEADER[:16] + struct.pack("<H", 0)
    data = payload_with_runs(2**62, [0], [2**62], header=header, n_tasks=0)
    with pytest.raises(StoreCorruptionError, match="no tasks"):
        decode_segment(data, "p")


def test_decode_keeps_no_memory_per_row_for_ids():
    n = 1_000_000
    record = segment_record(1, 0, (("ctr", BINARY),), np.arange(n, dtype=np.uint64),
                            {"ctr": np.zeros(n, np.float32)})
    data = payload_of(record)
    tracemalloc.start()
    try:
        seg = decode_segment(data, "p")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the 4 MB value column, inflated once into the body that the arrays
    # view; one uint64 id per row would add 8 MB, and a second copy of the
    # column 4 MB
    assert peak < 4 * n + 2**20
    assert seg.n_rows == n and seg.run_first.size == 1


def one_row_record(sid, tasks, eid, tv=0):
    """The log record of a one-row segment with zero values."""
    return segment_record(sid, tv, tasks, np.array([eid], dtype=np.uint64),
                          {name: np.zeros(1, np.float32) for name, _ in tasks})


def test_every_flipped_byte_of_a_log_is_corruption(tmp_path):
    # each record's crcs cover every byte of it, the length included, and
    # the header is checked: no flip reads as a torn tail or as other data
    root = write_log(tmp_path / "store", *(one_row_record(k, TASKS, k) for k in (1, 2, 3)))
    good = (root / MANIFEST_NAME).read_bytes()
    assert len(LabelStore(root).open_snapshot().segments) == 3
    for i in range(len(good)):
        flipped = bytearray(good)
        flipped[i] ^= 0x41
        (root / MANIFEST_NAME).write_bytes(bytes(flipped))
        with pytest.raises(StoreCorruptionError):
            LabelStore(root).open_snapshot()
        assert not inspect_store(root).ok


def test_corrupted_manifest_detected(tmp_path):
    record = one_row_record(1, TASKS, 1)
    cases = [
        # a format-3 MANIFEST: "SLM1" | u64 manifest_version | u32 n | ids | crc
        (b"SLM1" + struct.pack("<QIQ", 1, 1, 1), "a format-3 store"),
        (b"SLL1" + struct.pack("<I", 3), "unsupported format version 3"),
        (b"SLL1" + struct.pack("<I", 5), "unsupported format version 5"),
        (b"XXXX" + struct.pack("<I", 4), "bad log magic"),
    ]
    for k, (header, match) in enumerate(cases):
        root = write_log(tmp_path / f"s{k}", record, header=header)
        with pytest.raises(StoreCorruptionError, match=match):
            LabelStore(root).open_snapshot()
        before = (root / MANIFEST_NAME).read_bytes()
        with pytest.raises(StoreCorruptionError, match=match):
            with LabelStore(root).writer(TASKS):
                pass
        assert (root / MANIFEST_NAME).read_bytes() == before
        report = inspect_store(root)
        assert not report.ok and match in report.error


def test_writer_append_and_read_back(tmp_path):
    store = make_store(tmp_path)
    with store.writer(TASKS) as w:
        sid = w.append(
            np.array([5, 1, 3], dtype=np.uint64),
            {"ctr": np.array([0.5, 0.1, 0.3], np.float32),
             "ltv": np.array([50.0, 10.0, 30.0], np.float32)},
            teacher_version=4,
        )
        assert sid == 1
        assert log_records(log_bytes(store)) == [segment_record(
            1, 4, TASKS, [1, 3, 5], {"ctr": [0.1, 0.3, 0.5], "ltv": [10.0, 30.0, 50.0]}
        )]
    snap = store.open_snapshot()
    assert len(snap.segments) == 1
    assert len(stored_ids(snap)) == 3
    assert snap.tasks == tuple(TASKS)
    # rows were sorted by example id, values carried along
    assert lookup_one(snap, 1) == {"ctr": np.float32(0.1), "ltv": 10.0}
    assert lookup_one(snap, 3) == {"ctr": np.float32(0.3), "ltv": 30.0}
    assert lookup_one(snap, 5) == {"ctr": 0.5, "ltv": 50.0}
    assert lookup_one(snap, 2) is None
    assert lookup_one(snap, 0) is None
    assert lookup_one(snap, 99) is None


def test_float32_values_round_trip_bit_exact(tmp_path):
    store = make_store(tmp_path)
    rng = np.random.default_rng(3)
    vals = {
        "ctr": rng.random(10000).astype(np.float32),
        "ltv": (rng.standard_normal(10000) * 1e6).astype(np.float32),
    }
    ids = np.arange(10000, dtype=np.uint64)
    seed_store(store, [(ids, vals, 0)])
    snap = store.open_snapshot()
    present, cols = snap.lookup_batch(ids)
    assert present.all()
    assert cols.dtype == np.float32 and cols.shape == (2, 10000)
    for name, col in by_name(snap, cols).items():
        assert np.array_equal(col, vals[name])


def test_append_validation(tmp_path):
    store = make_store(tmp_path)
    ids = np.array([1, 2], dtype=np.uint64)
    ok = {"ctr": np.zeros(2, np.float32), "ltv": np.zeros(2, np.float32)}
    with store.writer(TASKS) as w:
        with pytest.raises(StoreError, match="non-empty"):
            w.append(np.array([], dtype=np.uint64), ok, 0)
        with pytest.raises(StoreError, match="duplicate example ids"):
            w.append(np.array([4, 4], dtype=np.uint64), ok, 0)
        with pytest.raises(StoreError, match="disagree with schema"):
            w.append(ids, {"ctr": np.zeros(2, np.float32)}, 0)
        with pytest.raises(StoreError, match="length"):
            w.append(ids, {"ctr": np.zeros(3, np.float32), "ltv": np.zeros(2, np.float32)}, 0)
        with pytest.raises(StoreError, match="non-finite"):
            w.append(ids, {"ctr": np.array([1, np.nan], np.float32),
                           "ltv": np.zeros(2, np.float32)}, 0)
        with pytest.raises(StoreError, match="teacher_version"):
            w.append(ids, ok, -1)
        # ids and versions that a cast would wrap or truncate into others
        for bad_ids in ([-1], [2.7], [True], np.array([1, -2]), np.array([1.0, 2.0]),
                        np.array([True, False]), [2**70]):
            with pytest.raises(StoreError, match="example ids must be integers >= 0"):
                w.append(np.array(bad_ids) if isinstance(bad_ids, list) else bad_ids,
                         {"ctr": np.zeros(len(bad_ids), np.float32),
                          "ltv": np.zeros(len(bad_ids), np.float32)}, 0)
        for bad_version in (1.9, 2.0, True, np.bool_(True), "3", None, 2**64):
            with pytest.raises(StoreError, match="teacher_version must be an integer"):
                w.append(ids, ok, bad_version)
        # the failed appends committed nothing
        assert log_bytes(store) == LOG_HEADER
    with pytest.raises(StoreError, match="duplicate task names"):
        store.writer([("a", BINARY), ("a", BINARY)])
    with pytest.raises(StoreError, match="at least one"):
        store.writer([])
    closed = store.writer(TASKS)
    with pytest.raises(StoreError, match="not open"):
        closed.append(ids, ok, 0)


def test_writer_lock_excludes_second_writer(tmp_path):
    store = make_store(tmp_path)
    with store.writer(TASKS):
        with pytest.raises(WriterLockError):
            with LabelStore(store.root).writer(TASKS):
                pass
    # released on exit
    with store.writer(TASKS):
        assert log_bytes(store) == LOG_HEADER


def test_segment_numbering_survives_writer_restarts(tmp_path):
    store = make_store(tmp_path)
    ids = lambda k: np.array([k], dtype=np.uint64)
    val = lambda: {"ctr": np.zeros(1, np.float32), "ltv": np.zeros(1, np.float32)}
    with store.writer(TASKS) as w:
        assert w.append(ids(1), val(), 0) == 1
        assert w.append(ids(2), val(), 1) == 2
    with store.writer(TASKS) as w:
        assert w.append(ids(3), val(), 2) == 3
        assert len(log_records(log_bytes(store))) == 3
    snap = store.open_snapshot()
    assert [s.segment_id for s in snap.segments] == [1, 2, 3]


def test_snapshot_isolation_under_concurrent_appends(tmp_path):
    store = make_store(tmp_path)
    seed_store(store, [(np.array([1, 2]), {
        "ctr": np.array([0.1, 0.2], np.float32),
        "ltv": np.array([1.0, 2.0], np.float32)}, 0)])
    old = store.open_snapshot()
    assert len(stored_ids(old)) == 2
    with store.writer(TASKS) as w:
        for k in range(3):
            w.append(np.array([10 + k], dtype=np.uint64),
                     {"ctr": np.ones(1, np.float32), "ltv": np.ones(1, np.float32)},
                     teacher_version=k + 1)
    # the pinned snapshot is oblivious to every later commit
    assert len(old.segments) == 1
    assert len(stored_ids(old)) == 2
    assert lookup_one(old, 10) is None
    assert lookup_one(old, 2) == {"ctr": np.float32(0.2), "ltv": 2.0}
    fresh = store.open_snapshot()
    assert len(fresh.segments) == 4
    assert len(stored_ids(fresh)) == 5
    assert lookup_one(fresh, 12) is not None


def test_interleaved_opens_linearize(tmp_path):
    store = make_store(tmp_path)
    probe = np.arange(20, dtype=np.uint64)
    versions, coverages, rows = [], [], []
    with store.writer(TASKS) as w:
        for k in range(6):
            w.append(np.array([3 * k, 3 * k + 1], dtype=np.uint64),
                     {"ctr": np.zeros(2, np.float32), "ltv": np.zeros(2, np.float32)},
                     teacher_version=k)
            snap = LabelStore(store.root).open_snapshot()
            versions.append(len(snap.segments))
            coverages.append(np.isin(probe, stored_ids(snap)).mean())
            rows.append(len(stored_ids(snap)))
    assert versions == sorted(versions) and len(set(versions)) == len(versions)
    assert all(b >= a for a, b in zip(coverages, coverages[1:]))
    assert all(b >= a for a, b in zip(rows, rows[1:]))


def test_duplicate_resolution_matches_replay_oracle(tmp_path):
    rng = np.random.default_rng(0)
    store = make_store(tmp_path)
    appends = []
    with store.writer(TASKS) as w:
        for _ in range(30):
            n = int(rng.integers(1, 12))
            ids = rng.choice(100, size=n, replace=False).astype(np.uint64)
            vals = {"ctr": rng.random(n).astype(np.float32),
                    "ltv": rng.random(n).astype(np.float32)}
            tv = int(rng.integers(0, 10))  # versions repeat and arrive out of order
            sid = w.append(ids, vals, tv)
            rows = {
                int(i): {"ctr": float(vals["ctr"][j]), "ltv": float(vals["ltv"][j])}
                for j, i in enumerate(ids)
            }
            appends.append((tv, sid, rows))
    snap = store.open_snapshot()
    assert sum(s.run_first.size > 1 for s in snap.segments) > 20
    expected = replay_store_contents(appends)
    # for each segment, 0..99 holds ids below its first run, in the gaps
    # between its runs and above its last; 2**64 - 1 is above every run
    probe = np.append(np.arange(100, dtype=np.uint64), np.uint64(TOP))
    for eid in probe.tolist():
        got = lookup_one(snap, eid)
        if eid in expected:
            assert got == expected[eid]
        else:
            assert got is None
    present, cols = snap.lookup_batch(probe)
    for j, eid in enumerate(probe.tolist()):
        assert present[j] == (eid in expected)
        if present[j]:
            assert {n: float(col[j]) for n, col in by_name(snap, cols).items()} == expected[eid]


def expected_columns(expected, probe):
    """The replay oracle's answer for probe ids, shaped like lookup_batch."""
    present = np.array([eid in expected for eid in probe.tolist()])
    cols = np.array([
        [expected[eid][name] if eid in expected else 0.0 for eid in probe.tolist()]
        for name, _ in TASKS
    ], dtype=np.float32)
    return present, cols


def assert_answers(snap, want, probe):
    present, cols = snap.lookup_batch(probe)
    assert np.array_equal(present, want[0])
    assert snap.tasks == tuple(TASKS)
    assert np.array_equal(cols[:, present], want[1][:, present])


def test_index_matches_replay_oracle_while_it_grows(tmp_path):
    rng = np.random.default_rng(11)
    store = make_store(tmp_path)
    probe = np.arange(400, dtype=np.uint64)
    appends, pinned, capacities = [], [], set()
    with store.writer(TASKS) as w:
        for k in range(70):
            # ranges drift upward but overlap the last few segments
            n = int(rng.integers(1, 20))
            ids = (4 * k + rng.choice(60, size=n, replace=False)).astype(np.uint64)
            vals = {"ctr": rng.random(n).astype(np.float32),
                    "ltv": rng.standard_normal(n).astype(np.float32)}
            tv = int(rng.integers(0, 8))  # repeats and arrives out of order
            sid = w.append(ids, vals, tv)
            appends.append((tv, sid, {
                int(i): {"ctr": float(vals["ctr"][j]), "ltv": float(vals["ltv"][j])}
                for j, i in enumerate(ids)
            }))
            want = expected_columns(replay_store_contents(appends), probe)
            snap = store.open_snapshot()
            capacities.add(store._index.cols.shape[1])
            assert len(snap.segments) == k + 1
            assert_answers(snap, want, probe)
            assert_answers(LabelStore(store.root).open_snapshot(), want, probe)
            pinned.append((snap, [a[1] for a in appends], want))
    assert len(capacities) >= 3  # the index reallocated at least twice
    for snap, sids, want in pinned:
        assert [s.segment_id for s in snap.segments] == sids
        assert_answers(snap, want, probe)


def test_open_rebuilds_when_manifest_does_not_extend_the_index(tmp_path):
    store = make_store(tmp_path)
    seed_store(store, [
        (np.array([k]), {"ctr": np.full(1, k, np.float32), "ltv": np.zeros(1, np.float32)}, 0)
        for k in (1, 2, 3)
    ])
    old = store.open_snapshot()
    # the log cut back to its first two records, shorter than the handle read
    records = log_records(log_bytes(store))
    write_log(store.root, *records[:2])
    snap = store.open_snapshot()
    assert [s.segment_id for s in snap.segments] == [1, 2]
    assert lookup_one(snap, 3) is None
    assert lookup_one(old, 3) == {"ctr": 3.0, "ltv": 0.0}
    # the rebuilt index extends as usual, and ids rise from the last record's
    seed_store(store, [(np.array([5]), {
        "ctr": np.full(1, 5, np.float32), "ltv": np.zeros(1, np.float32)}, 0)])
    snap = store.open_snapshot()
    assert [s.segment_id for s in snap.segments] == [1, 2, 3]
    assert lookup_one(snap, 5) == {"ctr": 5.0, "ltv": 0.0}
    assert lookup_one(snap, 3) is None
    assert_same_snapshot(snap, LabelStore(store.root).open_snapshot(), np.arange(8))


def test_snapshot_before_a_schema_conflict_opens(tmp_path):
    one, two = (one_row_record(sid, TASKS, sid) for sid in (1, 2))
    other = one_row_record(3, [("other", BINARY)], 3)
    root = write_log(tmp_path / "store", one, two)
    store = LabelStore(root)
    before = store.open_snapshot()
    write_log(root, one, two, other)
    with pytest.raises(StoreError, match="disagree on task schema"):
        store.open_snapshot()
    with pytest.raises(StoreError, match="disagree on task schema"):
        LabelStore(root).open_snapshot()
    # the prefix before the conflict still opens, on the same handle too
    write_log(root, one, two)
    snap = store.open_snapshot()
    assert snap.tasks == before.tasks == tuple(TASKS)
    assert [s.segment_id for s in snap.segments] == [1, 2]
    assert lookup_one(snap, 2) == {"ctr": 0.0, "ltv": 0.0}


def test_each_segment_is_decoded_once_per_handle(tmp_path, monkeypatch):
    decoded = []
    real = labelstore.decode_segment

    def counting(data, path):
        seg = real(data, path)
        decoded.append(seg.segment_id)
        return seg

    monkeypatch.setattr(labelstore, "decode_segment", counting)
    store = make_store(tmp_path)
    reader = LabelStore(store.root)
    n = 25
    with store.writer(TASKS) as w:
        for k in range(n):
            w.append(np.array([k], dtype=np.uint64),
                     {"ctr": np.zeros(1, np.float32), "ltv": np.zeros(1, np.float32)}, k)
            assert len(store.open_snapshot().segments) == k + 1
            assert len(reader.open_snapshot().segments) == k + 1
            # each handle decoded the new commit, and only it
            assert decoded[-2:] == [k + 1, k + 1]
    # each handle decoded each commit once
    assert decoded == [sid for sid in range(1, n + 1) for _ in range(2)]
    assert len(store.open_snapshot().segments) == n
    assert len(decoded) == 2 * n


def test_the_writing_handle_sees_what_a_fresh_handle_sees(tmp_path):
    rng = np.random.default_rng(5)
    store = make_store(tmp_path)
    probe = np.arange(300, dtype=np.uint64)
    with store.writer(TASKS) as w:
        for k in range(30):
            n = int(rng.integers(1, 20))
            ids = (5 * k + rng.choice(80, size=n, replace=False)).astype(np.int64)
            w.append(ids, {"ctr": rng.random(n).astype(np.float32),
                           "ltv": rng.standard_normal(n).astype(np.float32)},
                     int(rng.integers(0, 6)))
            assert_same_snapshot(store.open_snapshot(), LabelStore(store.root).open_snapshot(),
                                 probe)


def test_higher_teacher_version_beats_later_segment(tmp_path):
    store = make_store(tmp_path)
    one = np.array([7], dtype=np.uint64)
    seed_store(store, [
        (one, {"ctr": np.array([0.9], np.float32), "ltv": np.array([9.0], np.float32)}, 5),
        (one, {"ctr": np.array([0.1], np.float32), "ltv": np.array([1.0], np.float32)}, 2),
    ])
    snap = store.open_snapshot()
    # segment 2 is newer on disk but carries an older teacher version
    assert lookup_one(snap, 7) == {"ctr": np.float32(0.9), "ltv": 9.0}
    _, cols = snap.lookup_batch(one)
    assert by_name(snap, cols)["ltv"][0] == 9.0
    # equal teacher versions: the later segment wins
    seed_store(store, [
        (one, {"ctr": np.array([0.5], np.float32), "ltv": np.array([5.0], np.float32)}, 5),
    ])
    assert lookup_one(store.open_snapshot(), 7)["ltv"] == 5.0


def test_empty_and_missing_store(tmp_path):
    with pytest.raises(StoreError, match="missing"):
        LabelStore(tmp_path / "nope").open_snapshot()
    root = tmp_path / "empty"
    root.mkdir()
    snap = LabelStore(root).open_snapshot()
    assert len(snap.segments) == 0
    assert len(stored_ids(snap)) == 0
    assert lookup_one(snap, 1) is None
    assert not np.isin(np.array([1, 2], dtype=np.uint64), stored_ids(snap)).any()
    present, out = snap.lookup_batch(np.array([1], dtype=np.uint64))
    assert not present.any() and out.shape == (0, 1)


def test_coverage_fraction(tmp_path):
    store = make_store(tmp_path)
    seed_store(store, [(np.array([0, 1, 2, 3]), {
        "ctr": np.zeros(4, np.float32), "ltv": np.zeros(4, np.float32)}, 0)])
    snap = store.open_snapshot()
    for ids, coverage in (([0, 1, 2, 3], 1.0), ([2, 3, 4, 5], 0.5)):
        probe = np.array(ids, dtype=np.uint64)
        assert np.isin(probe, stored_ids(snap)).mean() == coverage
        assert snap.lookup_batch(probe)[0].mean() == coverage


def test_store_takes_integer_ids_and_versions_of_any_width(tmp_path):
    store = make_store(tmp_path)
    with store.writer(TASKS) as w:
        for k, (dtype, version) in enumerate([
            (np.int64, 0), (np.int8, np.int64(1)), (np.uint32, np.uint8(2)), (np.uint64, 2**64 - 1),
        ]):
            w.append(np.array([10 * k, 10 * k + 1], dtype=dtype),
                     {"ctr": np.full(2, k, np.float32), "ltv": np.zeros(2, np.float32)}, version)
    snap = store.open_snapshot()
    assert [s.teacher_version for s in snap.segments] == [0, 1, 2, 2**64 - 1]
    for dtype in (np.int64, np.uint16, int):
        present, cols = snap.lookup_batch(np.array([0, 11, 21, 31, 5], dtype=dtype))
        assert present.tolist() == [True, True, True, True, False]
        assert cols[0].tolist() == [0, 1, 2, 3, 0]
    assert snap.lookup_batch([])[0].shape == (0,)


def test_lookup_refuses_ids_that_are_not_integers_at_least_zero(tmp_path):
    store = make_store(tmp_path)
    ids = np.array([2, 2**64 - 1], dtype=np.uint64)
    seed_store(store, [(ids, {"ctr": np.ones(2, np.float32), "ltv": np.ones(2, np.float32)}, 0)])
    snap = store.open_snapshot()
    assert snap.lookup_batch(ids)[0].all()
    # -1 would find the 2**64 - 1 row, 2.2 the id 2 row, and True the id 1
    for bad in ([-1], np.array([-1]), [2.2], np.array([2.0]), [True], [2**70]):
        with pytest.raises(StoreError, match="example ids must be integers >= 0"):
            snap.lookup_batch(bad)



def test_lookup_and_append_refuse_ids_of_more_than_one_dimension(tmp_path):
    store = make_store(tmp_path)
    seed_store(store, [(np.array([1, 2]), {"ctr": np.ones(2, np.float32),
                                           "ltv": np.ones(2, np.float32)}, 0)])
    snap = store.open_snapshot()
    assert snap.lookup_batch(np.uint64(2))[0].tolist() == [True]  # a scalar is one id
    four = {"ctr": np.zeros(4, np.float32), "ltv": np.zeros(4, np.float32)}
    with store.writer(TASKS) as w:
        for bad in ([[1, 2]], np.arange(4).reshape(2, 2)):
            with pytest.raises(StoreError, match="must be a 1-d array"):
                snap.lookup_batch(bad)
            with pytest.raises(StoreError, match="must be a 1-d array"):
                w.append(np.asarray(bad), four, 1)
    assert len(store.open_snapshot().segments) == 1

def test_huge_example_ids(tmp_path):
    store = make_store(tmp_path)
    ids = np.array([2**64 - 3, 2**64 - 1], dtype=np.uint64)
    seed_store(store, [(ids, {"ctr": np.array([0.25, 0.75], np.float32),
                              "ltv": np.array([1.0, 2.0], np.float32)}, 0)])
    snap = store.open_snapshot()
    assert lookup_one(snap, 2**64 - 1) == {"ctr": 0.75, "ltv": 2.0}
    assert lookup_one(snap, 2**64 - 2) is None
    present, cols = snap.lookup_batch(ids)
    assert present.all() and by_name(snap, cols)["ctr"][0] == np.float32(0.25)


def test_crash_leftovers_do_not_affect_readers(tmp_path):
    store = make_store(tmp_path)
    seed_store(store, [(np.array([1, 2]), {
        "ctr": np.zeros(2, np.float32), "ltv": np.zeros(2, np.float32)}, 0)])
    committed = log_bytes(store)
    torn = segment_record(2, 1, TASKS, np.array([9], dtype=np.uint64),
                          {"ctr": np.ones(1, np.float32), "ltv": np.ones(1, np.float32)})
    # a crash mid-append leaves a prefix of the record, or zeros where the
    # file grew before its data reached the disk; stray files are debris too
    (store.root / "MANIFEST.tmp").write_bytes(b"")
    for tail in (torn[:3], torn[:8], torn[:-1], bytes(len(torn)), bytes(3)):
        (store.root / MANIFEST_NAME).write_bytes(committed + tail)
        snap = LabelStore(store.root).open_snapshot()
        assert len(snap.segments) == 1
        assert len(stored_ids(snap)) == 2
        assert lookup_one(snap, 9) is None
        report = inspect_store(store.root)
        assert report.ok
        assert report.torn_bytes == len(tail)
        assert report.stray_files == ["MANIFEST.tmp"]
    # the next writer cuts the tail off and commits after the last record
    with LabelStore(store.root).writer(TASKS) as w:
        assert log_bytes(store) == committed
        assert w.append(np.array([20], dtype=np.uint64),
                        {"ctr": np.ones(1, np.float32), "ltv": np.ones(1, np.float32)}, 1) == 2
    assert log_bytes(store).startswith(committed)
    assert lookup_one(LabelStore(store.root).open_snapshot(), 20) is not None
    assert inspect_store(store.root).torn_bytes == 0


def test_a_torn_header_is_an_empty_store(tmp_path):
    for k, header in enumerate((b"", LOG_HEADER[:3], bytes(8), bytes(40))):
        root = write_log(tmp_path / f"s{k}", header=header)
        assert LabelStore(root).open_snapshot().segments == []
        report = inspect_store(root)
        assert report.ok and report.segments == [] and report.torn_bytes == len(header)
        store = LabelStore(root)
        seed_store(store, [(np.array([1]), {
            "ctr": np.zeros(1, np.float32), "ltv": np.zeros(1, np.float32)}, 0)])
        assert log_bytes(store) == LOG_HEADER + one_row_record(1, TASKS, 1)


def test_corrupted_segment_detected(tmp_path):
    store = make_store(tmp_path)
    seed_store(store, [(np.array([1, 2]), {
        "ctr": np.zeros(2, np.float32), "ltv": np.zeros(2, np.float32)}, 0)])
    data = bytearray(log_bytes(store))
    data[-6] ^= 0xFF  # inside the deflated values, before the crc
    (store.root / MANIFEST_NAME).write_bytes(bytes(data))
    with pytest.raises(StoreCorruptionError, match="record at byte 8: checksum mismatch"):
        LabelStore(store.root).open_snapshot()
    report = inspect_store(store.root)
    assert not report.ok
    assert "checksum mismatch" in report.error
    assert report.torn_bytes == 0


def test_a_bad_record_before_a_good_one_is_corruption(tmp_path):
    store = make_store(tmp_path)
    seed_store(store, [
        (np.array([k]), {"ctr": np.zeros(1, np.float32), "ltv": np.zeros(1, np.float32)}, 0)
        for k in (1, 2, 3)
    ])
    records = log_records(log_bytes(store))
    flipped = bytearray(records[1])
    flipped[-6] ^= 0xFF  # inside the deflated values, before the crc
    # a length that claims more than the rest of the log, and one that
    # claims less: the length's crc catches both
    for bad, match in [
        (struct.pack("<I", 10_000) + records[1][4:], "length checksum mismatch"),
        (struct.pack("<I", 5) + records[1][4:], "length checksum mismatch"),
        (bytes(flipped), r"record at byte \d+: checksum mismatch"),
    ]:
        write_log(store.root, records[0], bad, records[2])
        before = log_bytes(store)
        with pytest.raises(StoreCorruptionError, match=match):
            LabelStore(store.root).open_snapshot()
        report = inspect_store(store.root)
        assert not report.ok and re.search(match, report.error)
        # the record before the bad one is still reported
        assert [s.segment_id for s in report.segments] == [1]
        with pytest.raises(StoreCorruptionError, match=match):
            with LabelStore(store.root).writer(TASKS):
                pass
        assert log_bytes(store) == before


def test_schema_disagreement_detected(tmp_path):
    # hand-written: the writer refuses to commit a second schema
    root = write_log(tmp_path / "store", one_row_record(1, TASKS, 1),
                     one_row_record(2, [("other", BINARY)], 2, 1))
    with pytest.raises(StoreError, match="disagree on task schema"):
        LabelStore(root).open_snapshot()
    report = inspect_store(root)
    assert report.error == "segments disagree on task schema"


def test_writer_refuses_a_schema_the_store_does_not_have(tmp_path):
    store = make_store(tmp_path)
    seed_store(store, [(np.array([1]), {
        "ctr": np.zeros(1, np.float32), "ltv": np.zeros(1, np.float32)}, 0)])
    before = {p.name: p.read_bytes() for p in store.root.iterdir()}
    with pytest.raises(StoreError, match="disagrees with the committed task schema"):
        with LabelStore(store.root).writer([("other", BINARY)]) as w:
            w.append(np.array([2], dtype=np.uint64), {"other": np.zeros(1, np.float32)}, 1)
    # nothing was written, the store still opens, and the lock was released
    assert {p.name: p.read_bytes() for p in store.root.iterdir()} == before
    assert LabelStore(store.root).open_snapshot().tasks == tuple(TASKS)
    with store.writer(TASKS) as w:
        assert w.append(np.array([3], dtype=np.uint64), {
            "ctr": np.ones(1, np.float32), "ltv": np.ones(1, np.float32)}, 1) == 2


def test_writer_refuses_a_store_whose_newest_segment_is_corrupt(tmp_path):
    store = make_store(tmp_path)
    seed_store(store, [
        (np.array([k]), {"ctr": np.zeros(1, np.float32), "ltv": np.zeros(1, np.float32)}, 0)
        for k in (1, 2)
    ])
    records = [bytearray(r) for r in log_records(log_bytes(store))]
    records[1][-6] ^= 0xFF  # inside the deflated values, before the crc
    write_log(store.root, *map(bytes, records))
    before = {p.name: p.read_bytes() for p in store.root.iterdir()}
    for _ in range(2):  # the lock is released, so a second writer gets as far
        with pytest.raises(StoreCorruptionError, match="checksum mismatch"):
            with LabelStore(store.root).writer(TASKS) as w:
                w.append(np.array([3], dtype=np.uint64), {
                    "ctr": np.ones(1, np.float32), "ltv": np.ones(1, np.float32)}, 1)
    assert {p.name: p.read_bytes() for p in store.root.iterdir()} == before


def test_writer_refuses_a_last_record_that_does_not_decode(tmp_path):
    # the crcs hold, but the ctr kind byte (body offset 23) is not a kind
    body = bytearray(segment_body(one_row_record(1, TASKS, 1)))
    body[23] = 7
    root = write_log(tmp_path / "store", framed(payload(bytes(body))))
    before = (root / MANIFEST_NAME).read_bytes()
    with pytest.raises(StoreCorruptionError, match="task kind"):
        with LabelStore(root).writer(TASKS):
            pass
    assert (root / MANIFEST_NAME).read_bytes() == before
    report = inspect_store(root)
    assert not report.ok and not report.error
    assert "task kind" in report.segments[0].error


def test_inspect_clean_store(tmp_path):
    store = make_store(tmp_path)
    seed_store(store, [
        (np.array([1, 2]), {"ctr": np.zeros(2, np.float32), "ltv": np.zeros(2, np.float32)}, 3),
        (np.array([5]), {"ctr": np.ones(1, np.float32), "ltv": np.ones(1, np.float32)}, 4),
    ])
    report = inspect_store(store.root)
    assert report.ok
    assert report.torn_bytes == 0
    assert report.total_rows == 3
    assert report.tasks == tuple(TASKS)
    assert [s.segment_id for s in report.segments] == [1, 2]
    assert report.segments[0].teacher_version == 3
    assert report.segments[1].min_id == 5 and report.segments[1].max_id == 5
    assert report.stray_files == []
    assert inspect_store(tmp_path / "nowhere").error == "store directory missing"


def test_a_commit_appends_one_record_and_touches_nothing_else(tmp_path):
    # a commit costs one record whatever the store holds: the log grows by
    # exactly the record, no byte already in it changes, and the store stays
    # two files
    rng = np.random.default_rng(7)
    store = make_store(tmp_path)
    with store.writer(TASKS) as w:
        before = log_bytes(store)
        for k in range(200):
            n = int(rng.integers(1, 30))
            ids = np.sort(rng.choice(10_000, size=n, replace=False)).astype(np.uint64)
            vals = {"ctr": rng.random(n).astype(np.float32),
                    "ltv": rng.standard_normal(n).astype(np.float32)}
            tv = int(rng.integers(0, 5))
            sid = w.append(ids, vals, tv)
            after = log_bytes(store)
            assert after == before + segment_record(sid, tv, TASKS, ids, vals)
            assert sorted(os.listdir(store.root)) == [MANIFEST_NAME, LOCK_NAME]
            before = after
    assert len(store.open_snapshot().segments) == 200


@pytest.mark.parametrize("failure", ["short-write", "error"])
def test_a_failed_append_leaves_no_torn_record(tmp_path, monkeypatch, failure):
    store = make_store(tmp_path)
    one = {"ctr": np.ones(1, np.float32), "ltv": np.ones(1, np.float32)}
    real = os.write

    def half(fd, data):
        written = real(fd, data[: len(data) // 2])
        if failure == "error":
            raise OSError(errno.ENOSPC, "No space left on device")
        return written

    with store.writer(TASKS) as w:
        w.append(np.array([1], dtype=np.uint64), one, 0)
        committed = log_bytes(store)
        monkeypatch.setattr(labelstore.os, "write", half)
        with pytest.raises(StoreError if failure == "short-write" else OSError):
            w.append(np.array([2], dtype=np.uint64), one, 0)
        monkeypatch.undo()
        # the half-written record is gone, so the next commit follows the last
        assert log_bytes(store) == committed
        assert w.append(np.array([3], dtype=np.uint64), one, 0) == 2
    assert [s.segment_id for s in store.open_snapshot().segments] == [1, 2]
    assert inspect_store(store.root).torn_bytes == 0


def test_durable_writer_roundtrip(tmp_path, monkeypatch):
    synced = []
    real = os.fsync

    def counting(fd):
        synced.append(stat.S_ISDIR(os.fstat(fd).st_mode))
        return real(fd)

    monkeypatch.setattr(labelstore.os, "fsync", counting)
    store = make_store(tmp_path)
    one = {"ctr": np.ones(1, np.float32), "ltv": np.ones(1, np.float32)}
    with store.writer(TASKS, durable=True) as w:
        for k in range(3):
            w.append(np.array([k], dtype=np.uint64), one, 0)
    # the directory once, when the log is created, then the log per commit
    assert synced == [True, False, False, False]
    with store.writer(TASKS, durable=True) as w:
        w.append(np.array([9], dtype=np.uint64), one, 0)
    assert synced == [True] + [False] * 4
    with store.writer(TASKS) as w:
        w.append(np.array([10], dtype=np.uint64), one, 0)
    assert len(synced) == 5
    assert len(stored_ids(store.open_snapshot())) == 5


def test_snapshot_schema_guard_direct():
    seg_a, seg_b = (
        decode_segment(payload_of(one_row_record(sid, [(name, BINARY)], sid)), name)
        for sid, name in ((1, "a"), (2, "b"))
    )
    index = labelstore._SegmentIndex()
    index.extend([seg_a, seg_b], 0)
    assert index.conflict == 1
    assert Snapshot(index, 1).tasks == (("a", BINARY),)  # the prefix before the conflict
    with pytest.raises(StoreError):
        Snapshot(index, 2)
