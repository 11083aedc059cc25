"""The bytes a run writes are pinned.

Each family default, cut to 40 steps with an eval every 20 steps, runs at
seed 0 through ``onlinekd run``. The test pins the sha256 of its
metrics.csv and one sha256 over every file of its label stores (relative
path, NUL, bytes; paths in sorted order). A refactor of any numeric path,
from the stream draw to the loss, the store and the evaluation, must leave
both unchanged; a change that means to move them updates the pins and says
why.

A third pin covers what the stores hold rather than how their files encode
it: each store's directory name, its commit count and, for every segment it
commits, the decoded segment id, teacher version, task schema, id runs and
values. A change of store encoding re-pins the file digest and keeps this
one.

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
from onlinekd.labelstore import LabelStore
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
        "013e361c890eac9e7ba160505d4dffb840856ae148625c6011a7aac3c0e00e1a",
    ),
    FAMILY_OBJECTIVE: (
        "535e79398e45c907720b6b71ea50ed4f8e7f8cd5c18c71d25a8288240b7350a5",
        "8b87553a6516c7a051629766ab8c4ab6f6f49ec5de784820b68d141be22144be",
    ),
    FAMILY_SCALE: (
        "37f649a18e3f4673b1e4c8839e2888df504b3e05b5d645d501a222a2feb9c405",
        "0f9e1abf43d680cf11a6d336c9767161d799566f759e376afb850c49624a52b5",
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
    FAMILY_CUSTOM: "24c37f7443b81f23ac9c6f1700b16e170a400689dad413cf261f3792e0bb3560",
    FAMILY_DISTILL: "ca363d9b887a535024df220f8921f8d0df168a031d65793cd77695e6f44ffb17",
    FAMILY_OBJECTIVE: "047bdcc2a5b500d2afea874db0f492f28be712cea8a28818274a5948a9b210d6",
    FAMILY_SCALE: "16fb9b7fdd3a17a37c70c7be35453bd6166c913f8c7f4014c860687815f4ad61",
}


def content_digest(stores) -> str:
    """sha256 over each store directory's name, commit count and decoded
    segments, stores in sorted path order and segments in commit order."""
    h = hashlib.sha256()
    for root in sorted(stores.iterdir()):
        segments = LabelStore(root).open_snapshot().segments
        h.update(str(root.relative_to(stores)).encode() + b"\0")
        h.update(struct.pack("<Q", len(segments)))
        for seg in segments:
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
