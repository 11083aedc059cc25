"""The bytes a run writes are pinned.

Each family default, cut to 40 steps with an eval every 20 steps, runs at
seed 0 through ``onlinekd run``. The test pins the sha256 of its
metrics.csv and one sha256 over every file of its label stores (relative
path, NUL, bytes; paths in sorted order). A refactor of any numeric path,
from the stream draw to the loss, the store and the evaluation, must leave
both unchanged; a change that means to move them updates the pins and says
why.

The pins hold for one numpy/BLAS build on one CPU family: another BLAS
kernel may round a matmul differently and move them without a fault in
the program.
"""

import hashlib

import pytest
import yaml

from onlinekd.cli import main
from onlinekd.pipeline import FAMILY_CUSTOM, FAMILY_DISTILL, FAMILY_OBJECTIVE, FAMILY_SCALE

# family: (metrics.csv sha256, store files sha256)
PINS = {
    FAMILY_CUSTOM: (
        "c75949b1d48ffa36e1eb3811fe1b8211d9902aad0b69601a2f4f860d1b11f72a",
        # a lone control student reads no labels, so its teacher writes none
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    FAMILY_DISTILL: (
        "ea3c5b7a0fda6f03e4004d6d15b9f61bca8f1e89ee4f8eab6a4a68332d5f6a79",
        "33707008c5aacfc017a0e756cb582a0daebdc0c9f28f325f3bbbfaac6cfc8190",
    ),
    FAMILY_OBJECTIVE: (
        "b7a8c721e30da4a82dd4b406452adcbe33b5fbe6eac59b1bb66697614594d4a3",
        "e8398bc7d4d067ad2cdc2ef2b6a5478816a7f48277cb57b2d4f9427be17e2eff",
    ),
    FAMILY_SCALE: (
        "e6aaa8cdd050f9b125190de7c75d3204f7ced82b6d663d2f5a520b44feb3575b",
        "d6eb4422c1a2641622585a2ea17cddea6cacbdb5cd8d379b6e583d875db1da39",
    ),
}


def store_digest(stores) -> str:
    h = hashlib.sha256()
    for path in sorted(stores.rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(stores)).encode() + b"\0" + path.read_bytes())
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
