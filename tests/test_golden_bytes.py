"""The bytes a run writes are pinned.

Each family default, cut to 40 steps with an eval every 20 steps, runs at
seed 0 through ``onlinekd run``. The test pins the sha256 of its
metrics.csv and one sha256 over every file of its label stores (relative
path, NUL, bytes; paths in sorted order). A refactor of any numeric path,
from the stream draw to the loss, the store and the evaluation, must leave
both unchanged; a change that means to move them updates the pins and says
why.

A third pin covers what the stores hold rather than how their files encode
it: each store's MANIFEST bytes and, for every segment it commits, the
decoded segment id, teacher version, task schema, id runs and values. A
change of segment encoding re-pins the file digest and keeps this one.

The pins hold for one numpy/BLAS build on one CPU family: another BLAS
kernel may round a matmul differently and move them without a fault in
the program. The store file digests also hold for one zlib build (1.2.13):
another deflate implementation may encode the same body in other bytes,
which the content pin then tells apart from a change of content.
"""

import hashlib
import struct

import numpy as np
import pytest
import yaml

from onlinekd.cli import main
from onlinekd.labelstore import MANIFEST_NAME, LabelStore
from onlinekd.pipeline import FAMILY_CUSTOM, FAMILY_DISTILL, FAMILY_OBJECTIVE, FAMILY_SCALE

# family: (metrics.csv sha256, store files sha256)
PINS = {
    FAMILY_CUSTOM: (
        "49c225a4792da720442ee7832510d0704d31ea9f875234faf8565857a0599a0b",
        # a lone control student reads no labels, so its teacher writes none
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    FAMILY_DISTILL: (
        "b8ec26a0f480d3d369992703617c60176a0ac8362ef1d9493e50c67267679cc4",
        "7a2669fe8cee5ce765696a91fd468c72ba04a8768a1c30ed2105319918e114bf",
    ),
    FAMILY_OBJECTIVE: (
        "535e79398e45c907720b6b71ea50ed4f8e7f8cd5c18c71d25a8288240b7350a5",
        "7894183b0feb5a1d1545fb668fa93dd3df2c9e244df4744790340cc0a7b16c15",
    ),
    FAMILY_SCALE: (
        "37f649a18e3f4673b1e4c8839e2888df504b3e05b5d645d501a222a2feb9c405",
        "7d13c7190106921278673dec2a5261e4932cf69f4471863e1f043671acd7ef8b",
    ),
}


def store_digest(stores) -> str:
    h = hashlib.sha256()
    for path in sorted(stores.rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(stores)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


# family: sha256 of the stores' content
CONTENT_PINS = {
    FAMILY_CUSTOM: "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    FAMILY_DISTILL: "4345fc6cdcb5e238da3fbedefaff9e5d9d36b6b4f0d9dcd1d132d99cd4d911a2",
    FAMILY_OBJECTIVE: "95b9ab1d83da6fc356952a9593a595d4dd24780e47458e985a053b96a51438df",
    FAMILY_SCALE: "5ac5a895d44e0314097399de8fc9eee2844b61baf41e30884014b0cee0f035fc",
}


def content_digest(stores) -> str:
    """sha256 over each store's MANIFEST and its decoded segments, stores in
    sorted path order and segments in commit order."""
    h = hashlib.sha256()
    for manifest in sorted(stores.rglob(MANIFEST_NAME)):
        h.update(str(manifest.parent.relative_to(stores)).encode() + b"\0")
        h.update(manifest.read_bytes())
        for seg in LabelStore(manifest.parent).open_snapshot().segments:
            h.update(struct.pack("<QQQQ", seg.segment_id, seg.teacher_version,
                                 seg.run_first.size, seg.n_rows))
            h.update(repr(seg.tasks).encode())
            h.update(np.ascontiguousarray(seg.run_first, dtype="<u8").tobytes())
            h.update(np.ascontiguousarray(seg.run_len, dtype="<u8").tobytes())
            h.update(np.ascontiguousarray(seg.values, dtype="<f4").tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("family", sorted(PINS))
def test_family_default_bytes_are_pinned(tmp_path, family):
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(yaml.safe_dump({"family": family,
                                   "schedule": {"total_steps": 40, "eval_every": 20}}))
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--seeds", "0", "--out", str(out)]) == 0
    got = (
        hashlib.sha256((out / "metrics.csv").read_bytes()).hexdigest(),
        store_digest(out / "stores"),
    )
    assert got == PINS[family]
    assert content_digest(out / "stores") == CONTENT_PINS[family]
