"""Label store: binary format, commit protocol, snapshots, failure modes."""

import struct
import tracemalloc
import zlib

import numpy as np
import pytest

from onlinekd import labelstore
from onlinekd.errors import StoreCorruptionError, StoreError, WriterLockError
from onlinekd.labelstore import (
    LabelStore,
    ManifestData,
    MANIFEST_NAME,
    Snapshot,
    decode_manifest,
    decode_segment,
    encode_manifest,
    encode_segment,
    inspect_store,
    read_manifest,
    segment_filename,
)
from onlinekd.ranker import BINARY, REGRESSION

from oracles import replay_store_contents, segment_ids, stored_ids

TASKS = [("ctr", BINARY), ("ltv", REGRESSION)]


def make_store(tmp_path, name="store"):
    return LabelStore(tmp_path / name)


def lookup_one(snap, eid):
    """One id through lookup_batch: its per-task values as floats, or None."""
    present, cols = snap.lookup_batch(np.array([eid], dtype=np.uint64))
    if not present[0]:
        return None
    return {name: float(col[0]) for name, col in cols.items()}


def seed_store(store, rows):
    """rows: list of (ids, {task: values}, teacher_version)."""
    with store.writer(TASKS) as w:
        for ids, values, tv in rows:
            w.append(np.asarray(ids, dtype=np.uint64), values, tv)


def signed(body):
    return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


SEGMENT_HEADER = (
    b"SLS1"
    + struct.pack("<I", 2)  # format version
    + struct.pack("<Q", 7)  # segment id
    + struct.pack("<Q", 42)  # teacher version
    + struct.pack("<H", 2)  # n_tasks
    + struct.pack("<H", 3) + b"ctr" + struct.pack("<B", 0)
    + struct.pack("<H", 3) + b"ltv" + struct.pack("<B", 1)
)


def segment_with_runs(n_rows, run_first, run_len, header=SEGMENT_HEADER, n_tasks=2):
    """A signed segment with the given id runs and zero values, so a
    decoder check on the runs fires rather than the checksum."""
    body = header + struct.pack("<QQ", n_rows, len(run_first))
    body += struct.pack(f"<{len(run_first)}Q", *run_first)
    body += struct.pack(f"<{len(run_len)}Q", *run_len)
    return signed(body + bytes(4 * n_rows * n_tasks))


def test_segment_golden_bytes():
    ids = np.array([3, 9, 10], dtype=np.uint64)
    values = {
        "ctr": np.array([0.25, 0.5, 0.75], dtype=np.float32),
        "ltv": np.array([1.5, 2.0, 2.5], dtype=np.float32),
    }
    got = encode_segment(7, 42, tuple(TASKS), ids, values)
    body = SEGMENT_HEADER
    body += struct.pack("<Q", 3)  # n_rows
    body += struct.pack("<Q", 2)  # n_runs
    body += struct.pack("<QQ", 3, 9)  # run_first
    body += struct.pack("<QQ", 1, 2)  # run_len
    body += struct.pack("<fff", 0.25, 0.5, 0.75)
    body += struct.pack("<fff", 1.5, 2.0, 2.5)
    want = signed(body)
    assert got == want
    seg = decode_segment(want, "golden")
    assert seg.segment_id == 7 and seg.teacher_version == 42
    assert seg.tasks == tuple(TASKS)
    for runs in (seg.run_first, seg.run_len, seg.run_row):
        assert runs.dtype == np.uint64 and not runs.flags.writeable
    assert seg.run_row.tolist() == [0, 1]
    assert (seg.n_rows, seg.min_id, seg.max_id) == (3, 3, 10)
    assert segment_ids(seg).tolist() == [3, 9, 10]
    assert seg.values["ltv"].tolist() == [1.5, 2.0, 2.5]


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
    data = encode_segment(7, 42, tuple(TASKS), ids, vals)
    off, k = len(SEGMENT_HEADER), len(runs)
    assert struct.unpack_from("<QQ", data, off) == (len(ids), k)
    first, length = zip(*runs)
    assert struct.unpack_from(f"<{k}Q", data, off + 16) == first
    assert struct.unpack_from(f"<{k}Q", data, off + 16 + 8 * k) == length
    assert len(data) == off + 16 + 16 * k + 4 * len(ids) * len(TASKS) + 4
    seg = decode_segment(data, "p")
    assert (seg.n_rows, seg.min_id, seg.max_id) == (len(ids), ids[0], ids[-1])
    assert segment_ids(seg).tolist() == ids.tolist()
    assert seg.values["ltv"].tolist() == vals["ltv"].tolist()


def test_manifest_golden_bytes():
    got = encode_manifest(ManifestData(3, (1, 2)))
    body = b"SLM1" + struct.pack("<Q", 3) + struct.pack("<I", 2)
    body += struct.pack("<QQ", 1, 2)
    want = body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)
    assert got == want
    m = decode_manifest(want, "golden")
    assert m.manifest_version == 3 and m.segment_ids.tolist() == [1, 2]


def test_decode_rejects_malformed_segments():
    ids = np.array([1], dtype=np.uint64)
    vals = {"ctr": np.ones(1, np.float32), "ltv": np.ones(1, np.float32)}
    good = encode_segment(1, 0, tuple(TASKS), ids, vals)
    with pytest.raises(StoreCorruptionError, match="magic"):
        decode_segment(b"XXXX" + good[4:], "p")
    with pytest.raises(StoreCorruptionError, match="truncated"):
        decode_segment(good[:-6], "p")
    with pytest.raises(StoreCorruptionError, match="checksum"):
        flipped = bytearray(good)
        flipped[10] ^= 0xFF
        decode_segment(bytes(flipped), "p")
    with pytest.raises(StoreCorruptionError, match="trailing"):
        decode_segment(good + b"\x00", "p")
    with pytest.raises(StoreCorruptionError, match="unsupported format version 1"):
        body = b"SLS1" + struct.pack("<I", 1) + good[8:-4]
        decode_segment(body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF), "p")
    with pytest.raises(StoreCorruptionError, match="ascending"):
        bad = encode_segment(
            1, 0, tuple(TASKS), np.array([5, 3], dtype=np.uint64),
            {"ctr": np.zeros(2, np.float32), "ltv": np.zeros(2, np.float32)},
        )
        decode_segment(bad, "p")
    with pytest.raises(StoreCorruptionError, match="empty"):
        bad = encode_segment(1, 0, tuple(TASKS), np.array([], dtype=np.uint64),
                             {"ctr": np.zeros(0, np.float32), "ltv": np.zeros(0, np.float32)})
        decode_segment(bad, "p")
    with pytest.raises(StoreCorruptionError, match="task kind"):
        # patch the ctr kind byte (offset: 4+4+8+8+2+2+3 = 31) and re-checksum
        body = bytearray(good[:-4])
        assert body[31] == 0
        body[31] = 7
        decode_segment(bytes(body) + struct.pack("<I", zlib.crc32(bytes(body)) & 0xFFFFFFFF), "p")


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
        decode_segment(segment_with_runs(n_rows, run_first, run_len), "p")


def test_decode_rejects_a_segment_without_tasks():
    # with no value columns nothing would bound n_rows by the file size
    header = SEGMENT_HEADER[:24] + struct.pack("<H", 0)
    data = segment_with_runs(2**62, [0], [2**62], header=header, n_tasks=0)
    with pytest.raises(StoreCorruptionError, match="no tasks"):
        decode_segment(data, "p")


def test_decode_keeps_no_memory_per_row_for_ids():
    n = 1_000_000
    data = encode_segment(1, 0, (("ctr", BINARY),), np.arange(n, dtype=np.uint64),
                          {"ctr": np.zeros(n, np.float32)})
    tracemalloc.start()
    try:
        seg = decode_segment(data, "p")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the 4 MB value column and the bytes it is copied from; one uint64 id
    # per row would add 8 MB
    assert peak < 2 * 4 * n + 2**20
    assert seg.n_rows == n and seg.run_first.size == 1


def test_decode_rejects_malformed_manifests():
    good = encode_manifest(ManifestData(3, (1, 2)))
    with pytest.raises(StoreCorruptionError, match="magic"):
        decode_manifest(b"XXXX" + good[4:], "p")
    for cut in (2, 10, 15, len(good) - 1):
        with pytest.raises(StoreCorruptionError, match="truncated"):
            decode_manifest(good[:cut], "p")
    with pytest.raises(StoreCorruptionError, match="checksum"):
        flipped = bytearray(good)
        flipped[17] ^= 0xFF  # inside the first segment id
        decode_manifest(bytes(flipped), "p")
    with pytest.raises(StoreCorruptionError, match="trailing"):
        decode_manifest(good + b"\x00", "p")
    for ids in ((1, 1), (5, 2, 5)):
        body = b"SLM1" + struct.pack("<QI", 3, len(ids)) + struct.pack(f"<{len(ids)}Q", *ids)
        with pytest.raises(StoreCorruptionError, match="duplicate segment ids"):
            decode_manifest(signed(body), "p")
    # ids out of commit order are legal as long as they are distinct
    unordered = signed(b"SLM1" + struct.pack("<QI", 4, 3) + struct.pack("<3Q", 3, 1, 2))
    assert decode_manifest(unordered, "p").segment_ids.tolist() == [3, 1, 2]


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
        assert read_manifest(store.root).manifest_version == 1
    snap = store.open_snapshot()
    assert snap.manifest_version == 1
    assert len(stored_ids(snap)) == 3
    assert snap.task_names == ("ctr", "ltv")
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
    present, cols = store.open_snapshot().lookup_batch(ids)
    assert present.all()
    for name in ("ctr", "ltv"):
        assert cols[name].dtype == np.float32
        assert np.array_equal(cols[name], vals[name])


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
        # the failed appends committed nothing
        assert read_manifest(store.root).manifest_version == 0
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
        assert read_manifest(store.root).manifest_version == 0


def test_segment_numbering_survives_writer_restarts(tmp_path):
    store = make_store(tmp_path)
    ids = lambda k: np.array([k], dtype=np.uint64)
    val = lambda: {"ctr": np.zeros(1, np.float32), "ltv": np.zeros(1, np.float32)}
    with store.writer(TASKS) as w:
        assert w.append(ids(1), val(), 0) == 1
        assert w.append(ids(2), val(), 1) == 2
    with store.writer(TASKS) as w:
        assert w.append(ids(3), val(), 2) == 3
        assert read_manifest(store.root).manifest_version == 3
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
    assert old.manifest_version == 1
    assert len(stored_ids(old)) == 2
    assert lookup_one(old, 10) is None
    assert lookup_one(old, 2) == {"ctr": np.float32(0.2), "ltv": 2.0}
    fresh = store.open_snapshot()
    assert fresh.manifest_version == 4
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
            versions.append(snap.manifest_version)
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
            assert {n: float(cols[n][j]) for n in ("ctr", "ltv")} == expected[eid]


def expected_columns(expected, probe):
    """The replay oracle's answer for probe ids, shaped like lookup_batch."""
    present = np.array([eid in expected for eid in probe.tolist()])
    cols = {
        name: np.array([expected[eid][name] if eid in expected else 0.0
                        for eid in probe.tolist()], dtype=np.float32)
        for name, _ in TASKS
    }
    return present, cols


def assert_answers(snap, want, probe):
    present, cols = snap.lookup_batch(probe)
    assert np.array_equal(present, want[0])
    for name, _ in TASKS:
        assert np.array_equal(cols[name][present], want[1][name][present])


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
            assert snap.manifest_version == k + 1
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
    # a manifest of the same length that drops segment 2 and adds segment 4
    (store.root / segment_filename(4)).write_bytes(one_row_segment(4, TASKS, 4))
    (store.root / MANIFEST_NAME).write_bytes(encode_manifest(ManifestData(4, (1, 3, 4))))
    snap = store.open_snapshot()
    assert snap.manifest_version == 4
    assert [s.segment_id for s in snap.segments] == [1, 3, 4]
    assert lookup_one(snap, 2) is None
    assert lookup_one(snap, 3) == {"ctr": 3.0, "ltv": 0.0}
    assert lookup_one(snap, 4) == {"ctr": 0.0, "ltv": 0.0}
    assert lookup_one(old, 2) == {"ctr": 2.0, "ltv": 0.0}
    # the rebuilt index extends as usual
    seed_store(store, [(np.array([5]), {
        "ctr": np.full(1, 5, np.float32), "ltv": np.zeros(1, np.float32)}, 0)])
    snap = store.open_snapshot()
    assert [s.segment_id for s in snap.segments] == [1, 3, 4, 5]
    assert lookup_one(snap, 5) == {"ctr": 5.0, "ltv": 0.0}


def test_snapshot_before_a_schema_conflict_opens(tmp_path):
    root = tmp_path / "store"
    root.mkdir()
    for sid in (1, 2):
        (root / segment_filename(sid)).write_bytes(one_row_segment(sid, TASKS, sid))
    (root / segment_filename(3)).write_bytes(one_row_segment(3, [("other", BINARY)], 3))
    store = LabelStore(root)
    (root / MANIFEST_NAME).write_bytes(encode_manifest(ManifestData(2, (1, 2))))
    before = store.open_snapshot()
    (root / MANIFEST_NAME).write_bytes(encode_manifest(ManifestData(3, (1, 2, 3))))
    with pytest.raises(StoreError, match="disagree on task schema"):
        store.open_snapshot()
    with pytest.raises(StoreError, match="disagree on task schema"):
        LabelStore(root).open_snapshot()
    # the prefix before the conflict still opens, on the same handle too
    (root / MANIFEST_NAME).write_bytes(encode_manifest(ManifestData(2, (1, 2))))
    snap = store.open_snapshot()
    assert snap.task_names == before.task_names == ("ctr", "ltv")
    assert [s.segment_id for s in snap.segments] == [1, 2]
    assert lookup_one(snap, 2) == {"ctr": 0.0, "ltv": 0.0}


def test_each_segment_file_is_decoded_once_per_handle(tmp_path, monkeypatch):
    decoded = []
    real = labelstore.load_segment

    def counting(root, segment_id):
        decoded.append(segment_id)
        return real(root, segment_id)

    monkeypatch.setattr(labelstore, "load_segment", counting)
    store = make_store(tmp_path)
    n = 25
    with store.writer(TASKS) as w:
        for k in range(n):
            w.append(np.array([k], dtype=np.uint64),
                     {"ctr": np.zeros(1, np.float32), "ltv": np.zeros(1, np.float32)}, k)
            assert len(store.open_snapshot().segments) == k + 1
    assert len(decoded) == n and len(set(decoded)) == n


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
    assert cols["ltv"][0] == 9.0
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
    assert snap.manifest_version == 0
    assert len(stored_ids(snap)) == 0
    assert lookup_one(snap, 1) is None
    assert not np.isin(np.array([1, 2], dtype=np.uint64), stored_ids(snap)).any()
    present, out = snap.lookup_batch(np.array([1], dtype=np.uint64))
    assert not present.any() and out == {}


def test_coverage_fraction(tmp_path):
    store = make_store(tmp_path)
    seed_store(store, [(np.array([0, 1, 2, 3]), {
        "ctr": np.zeros(4, np.float32), "ltv": np.zeros(4, np.float32)}, 0)])
    snap = store.open_snapshot()
    for ids, coverage in (([0, 1, 2, 3], 1.0), ([2, 3, 4, 5], 0.5)):
        probe = np.array(ids, dtype=np.uint64)
        assert np.isin(probe, stored_ids(snap)).mean() == coverage
        assert snap.lookup_batch(probe)[0].mean() == coverage


def test_huge_example_ids(tmp_path):
    store = make_store(tmp_path)
    ids = np.array([2**64 - 3, 2**64 - 1], dtype=np.uint64)
    seed_store(store, [(ids, {"ctr": np.array([0.25, 0.75], np.float32),
                              "ltv": np.array([1.0, 2.0], np.float32)}, 0)])
    snap = store.open_snapshot()
    assert lookup_one(snap, 2**64 - 1) == {"ctr": 0.75, "ltv": 2.0}
    assert lookup_one(snap, 2**64 - 2) is None
    present, cols = snap.lookup_batch(ids)
    assert present.all() and cols["ctr"][0] == np.float32(0.25)


def test_crash_leftovers_do_not_affect_readers(tmp_path):
    store = make_store(tmp_path)
    seed_store(store, [(np.array([1, 2]), {
        "ctr": np.zeros(2, np.float32), "ltv": np.zeros(2, np.float32)}, 0)])
    # a crash mid-stage leaves a partial tmp file: readers never look at it
    staged = encode_segment(2, 1, tuple(TASKS), np.array([9], dtype=np.uint64),
                            {"ctr": np.ones(1, np.float32), "ltv": np.ones(1, np.float32)})
    (store.root / (segment_filename(2) + ".tmp")).write_bytes(staged[:17])
    # a crash between segment rename and manifest rename leaves an orphan
    # segment: committed reads still come from the old manifest
    (store.root / segment_filename(3)).write_bytes(staged)
    snap = LabelStore(store.root).open_snapshot()
    assert snap.manifest_version == 1
    assert len(stored_ids(snap)) == 2
    assert lookup_one(snap, 9) is None
    report = inspect_store(store.root)
    assert report.ok
    assert segment_filename(2) + ".tmp" in report.stray_files
    assert segment_filename(3) in report.stray_files
    # the next real commit proceeds normally over the debris
    with LabelStore(store.root).writer(TASKS) as w:
        w.append(np.array([20], dtype=np.uint64),
                 {"ctr": np.ones(1, np.float32), "ltv": np.ones(1, np.float32)}, 1)
    assert lookup_one(LabelStore(store.root).open_snapshot(), 20) is not None


def test_corrupted_segment_detected(tmp_path):
    store = make_store(tmp_path)
    seed_store(store, [(np.array([1, 2]), {
        "ctr": np.zeros(2, np.float32), "ltv": np.zeros(2, np.float32)}, 0)])
    path = store.root / segment_filename(1)
    data = bytearray(path.read_bytes())
    data[-6] ^= 0xFF  # inside the last value column, before the crc
    path.write_bytes(bytes(data))
    with pytest.raises(StoreCorruptionError):
        LabelStore(store.root).open_snapshot()
    report = inspect_store(store.root)
    assert not report.ok
    assert not report.segments[0].ok
    assert "checksum" in report.segments[0].error


def test_corrupted_manifest_detected(tmp_path):
    store = make_store(tmp_path)
    seed_store(store, [(np.array([1]), {
        "ctr": np.zeros(1, np.float32), "ltv": np.zeros(1, np.float32)}, 0)])
    path = store.root / MANIFEST_NAME
    data = path.read_bytes()
    path.write_bytes(data[:-3])
    with pytest.raises(StoreCorruptionError):
        LabelStore(store.root).open_snapshot()
    report = inspect_store(store.root)
    assert not report.ok and "truncated" in report.error


def test_segment_file_header_mismatch_detected(tmp_path):
    root = tmp_path / "store"
    root.mkdir()
    seg = encode_segment(5, 0, tuple(TASKS), np.array([1], dtype=np.uint64),
                         {"ctr": np.zeros(1, np.float32), "ltv": np.zeros(1, np.float32)})
    (root / segment_filename(7)).write_bytes(seg)
    (root / MANIFEST_NAME).write_bytes(encode_manifest(ManifestData(1, (7,))))
    with pytest.raises(StoreCorruptionError, match="disagrees"):
        LabelStore(root).open_snapshot()
    report = inspect_store(root)
    assert not report.ok


def test_missing_segment_file_detected(tmp_path):
    store = make_store(tmp_path)
    seed_store(store, [(np.array([1]), {
        "ctr": np.zeros(1, np.float32), "ltv": np.zeros(1, np.float32)}, 0)])
    (store.root / segment_filename(1)).unlink()
    with pytest.raises(StoreCorruptionError, match="missing"):
        LabelStore(store.root).open_snapshot()
    report = inspect_store(store.root)
    assert not report.ok


def one_row_segment(sid, tasks, eid, tv=0):
    """Encoded bytes of a one-row segment with zero values."""
    return encode_segment(sid, tv, tuple(tasks), np.array([eid], dtype=np.uint64),
                          {name: np.zeros(1, np.float32) for name, _ in tasks})


def test_schema_disagreement_detected(tmp_path):
    # hand-written: the writer refuses to commit a second schema
    root = tmp_path / "store"
    root.mkdir()
    (root / segment_filename(1)).write_bytes(one_row_segment(1, TASKS, 1))
    (root / segment_filename(2)).write_bytes(one_row_segment(2, [("other", BINARY)], 2, 1))
    (root / MANIFEST_NAME).write_bytes(encode_manifest(ManifestData(2, (1, 2))))
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
    assert LabelStore(store.root).open_snapshot().task_names == ("ctr", "ltv")
    with store.writer(TASKS) as w:
        assert w.append(np.array([3], dtype=np.uint64), {
            "ctr": np.ones(1, np.float32), "ltv": np.ones(1, np.float32)}, 1) == 2


def test_writer_refuses_a_store_whose_newest_segment_is_corrupt(tmp_path):
    store = make_store(tmp_path)
    seed_store(store, [(np.array([1, 2]), {
        "ctr": np.zeros(2, np.float32), "ltv": np.zeros(2, np.float32)}, 0)])
    path = store.root / segment_filename(1)
    data = bytearray(path.read_bytes())
    data[-6] ^= 0xFF  # inside the last value column, before the crc
    path.write_bytes(bytes(data))
    before = {p.name: p.read_bytes() for p in store.root.iterdir()}
    for _ in range(2):  # the lock is released, so a second writer gets as far
        with pytest.raises(StoreCorruptionError, match="checksum"):
            with LabelStore(store.root).writer(TASKS) as w:
                w.append(np.array([3], dtype=np.uint64), {
                    "ctr": np.ones(1, np.float32), "ltv": np.ones(1, np.float32)}, 1)
    assert {p.name: p.read_bytes() for p in store.root.iterdir()} == before


def test_inspect_clean_store(tmp_path):
    store = make_store(tmp_path)
    seed_store(store, [
        (np.array([1, 2]), {"ctr": np.zeros(2, np.float32), "ltv": np.zeros(2, np.float32)}, 3),
        (np.array([5]), {"ctr": np.ones(1, np.float32), "ltv": np.ones(1, np.float32)}, 4),
    ])
    report = inspect_store(store.root)
    assert report.ok
    assert report.manifest_version == 2
    assert report.total_rows == 3
    assert report.tasks == tuple(TASKS)
    assert [s.segment_id for s in report.segments] == [1, 2]
    assert report.segments[0].teacher_version == 3
    assert report.segments[1].min_id == 5 and report.segments[1].max_id == 5
    assert report.stray_files == []
    assert inspect_store(tmp_path / "nowhere").error == "store directory missing"


def test_durable_writer_roundtrip(tmp_path):
    store = make_store(tmp_path)
    with store.writer(TASKS, durable=True) as w:
        w.append(np.array([1], dtype=np.uint64),
                 {"ctr": np.ones(1, np.float32), "ltv": np.ones(1, np.float32)}, 0)
    assert len(stored_ids(store.open_snapshot())) == 1


def test_snapshot_schema_guard_direct():
    seg_a = decode_segment(
        encode_segment(1, 0, (("a", BINARY),), np.array([1], dtype=np.uint64),
                       {"a": np.zeros(1, np.float32)}), "a")
    seg_b = decode_segment(
        encode_segment(2, 0, (("b", BINARY),), np.array([2], dtype=np.uint64),
                       {"b": np.zeros(1, np.float32)}), "b")
    index = labelstore._SegmentIndex()
    index.extend([seg_a, seg_b])
    assert index.conflict == 1
    assert Snapshot(1, index, 1).task_names == ("a",)  # the prefix before the conflict
    with pytest.raises(StoreError):
        Snapshot(2, index, 2)


def test_read_manifest_missing_is_empty(tmp_path):
    m = read_manifest(tmp_path)
    assert m.manifest_version == 0 and m.segment_ids.size == 0
