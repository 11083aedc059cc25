"""Stream simulator: latent geometry, label distributions, drift, forking."""

import numpy as np
import pytest

from onlinekd.datagen import (
    GenConfig,
    fork,
    init_world,
    next_batch,
    true_task_value,
)
from onlinekd.errors import ConfigError
from onlinekd.ranker import BINARY, PET, PST, TaskSpec

from oracles import ref_sigmoid, ref_softplus


def static_config(**kw):
    kw.setdefault("drift_rate", 1.0)  # exactly 1: drift step is skipped
    return GenConfig(**kw)


# rows of Batch.labels under the default tasks
CTR, SAT, LTV, AUX_CLICK = range(4)


def test_config_validation():
    with pytest.raises(ConfigError):
        GenConfig(feature_dim=1)
    with pytest.raises(ConfigError):
        GenConfig(drift_rate=1.5)
    with pytest.raises(ConfigError):
        GenConfig(conflict_angle=-0.1)
    with pytest.raises(ConfigError):
        GenConfig(ltv_noise_sigma=-1.0)
    with pytest.raises(ConfigError):
        GenConfig().task("nope")


def test_init_world_geometry():
    cfg = GenConfig(conflict_angle=2.0 * np.pi / 3.0)
    world = init_world(cfg, 7)
    for name, w in world.latents.items():
        assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-12)
    # PET and PST directions meet at exactly the configured angle
    d = float(np.dot(world.latents["ctr"], world.latents["sat"]))
    assert d == pytest.approx(np.cos(2.0 * np.pi / 3.0), abs=1e-12)
    # other-category tasks get their own directions
    assert abs(np.dot(world.latents["ltv"], world.latents["ctr"])) < 0.9
    assert abs(np.dot(world.latents["aux_click"], world.latents["ltv"])) < 0.9


def test_init_world_category_sharing():
    tasks = (
        TaskSpec("e1", BINARY, PET),
        TaskSpec("e2", BINARY, PET),
        TaskSpec("s1", BINARY, PST),
    )
    world = init_world(GenConfig(conflict_angle=0.5, tasks=tasks), 3)
    assert np.array_equal(world.latents["e1"], world.latents["e2"])
    assert not np.array_equal(world.latents["e1"], world.latents["s1"])


def test_init_world_seed_determinism():
    a = init_world(GenConfig(), 11)
    b = init_world(GenConfig(), 11)
    c = init_world(GenConfig(), 12)
    for name in a.latents:
        assert np.array_equal(a.latents[name], b.latents[name])
    assert not np.array_equal(a.latents["ctr"], c.latents["ctr"])


def test_next_batch_shapes_and_ids():
    world = init_world(static_config(), 0)
    b1 = next_batch(world, 5)
    assert world.t == 1
    b2 = next_batch(world, 3)
    assert world.t == 2
    assert b1.x.shape == (5, 32)
    assert b1.example_ids.dtype == np.uint64
    assert list(b1.example_ids) == [0, 1, 2, 3, 4]
    assert list(b2.example_ids) == [5, 6, 7]
    assert [t.name for t in world.config.tasks] == ["ctr", "sat", "ltv", "aux_click"]
    assert b1.labels.shape == (4, 5) and b1.labels.dtype == np.float64
    assert b2.labels.shape == (4, 3)
    for row in (CTR, SAT, AUX_CLICK):
        assert set(np.unique(b1.labels[row])) <= {0.0, 1.0}
    assert np.all(b1.labels[LTV] > 0.0)
    with pytest.raises(ValueError):
        next_batch(world, 0)


def test_stream_reproducibility_and_independence_from_drift_rate():
    # same (config, seed) => bit-identical stream
    w1 = init_world(GenConfig(drift_rate=0.99), 5)
    w2 = init_world(GenConfig(drift_rate=0.99), 5)
    for _ in range(4):
        a, b = next_batch(w1, 8), next_batch(w2, 8)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.labels, b.labels)
    # a frozen world and a rho=1 world consume identical rng streams
    frozen = init_world(GenConfig(drift_rate=0.5), 5)
    frozen.drift_frozen = True
    unit = init_world(GenConfig(drift_rate=1.0), 5)
    for _ in range(3):
        a, b = next_batch(frozen, 6), next_batch(unit, 6)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.labels, b.labels)


def test_binary_labels_match_conditional_probability():
    world = init_world(static_config(), 123)
    n = 20000
    batch = next_batch(world, n)
    for name, row in (("ctr", CTR), ("sat", SAT)):
        p = true_task_value(world, batch.x, name)  # latents static at rho=1
        resid = batch.labels[row] - p
        bound = 4.0 * np.sqrt(np.mean(p * (1.0 - p)) / n)
        assert abs(resid.mean()) < bound
        # conditional check: high-p and low-p halves separately
        hi = p > np.median(p)
        assert abs(resid[hi].mean()) < 2.0 * bound
        assert abs(resid[~hi].mean()) < 2.0 * bound


def test_regression_noise_is_mean_preserving():
    world = init_world(static_config(ltv_noise_sigma=0.8), 9)
    n = 200000
    batch = next_batch(world, n)
    base = true_task_value(world, batch.x, "ltv")
    ratio = batch.labels[LTV].sum() / base.sum()
    assert ratio == pytest.approx(1.0, abs=0.01)


def test_regression_sigma_zero_is_noise_free():
    world = init_world(static_config(ltv_noise_sigma=0.0), 9)
    batch = next_batch(world, 50)
    np.testing.assert_allclose(
        batch.labels[LTV], true_task_value(world, batch.x, "ltv"), rtol=1e-12
    )


def test_true_task_value_reference():
    world = init_world(static_config(), 2)
    x = np.random.default_rng(0).standard_normal((4, 32))
    for name, ref in [("ctr", ref_sigmoid), ("ltv", ref_softplus)]:
        got = true_task_value(world, x, name)
        for i in range(4):
            margin = 2.0 * float(x[i] @ world.latents[name])
            assert got[i] == pytest.approx(ref(margin), abs=1e-12)


def test_drift_autocorrelation_decays_and_norms_hold():
    # the noise term is a full standard-normal vector, so the per-step
    # correlation is rho / sqrt(rho^2 + (1-rho^2) d), well below rho itself;
    # the contract is decay of the seed-averaged autocorrelation with lag
    d1, d50 = [], []
    for seed in range(100):
        world = init_world(GenConfig(drift_rate=0.999), seed)
        w0 = world.latents["ctr"].copy()
        next_batch(world, 1)
        assert np.linalg.norm(world.latents["ctr"]) == pytest.approx(1.0, abs=1e-12)
        d1.append(float(np.dot(world.latents["ctr"], w0)))
        for _ in range(49):
            next_batch(world, 1)
        assert np.linalg.norm(world.latents["ctr"]) == pytest.approx(1.0, abs=1e-12)
        d50.append(float(np.dot(world.latents["ctr"], w0)))
    assert np.mean(d50) < np.mean(d1)
    assert np.mean(d1) > 0.5  # one step keeps most of the direction
    assert all(x != 1.0 for x in d1)  # but never leaves it untouched


def test_unit_drift_rate_freezes_latents():
    world = init_world(GenConfig(drift_rate=1.0), 6)
    w0 = {k: v.copy() for k, v in world.latents.items()}
    for _ in range(10):
        next_batch(world, 4)
    for name, w in world.latents.items():
        assert np.array_equal(w, w0[name])


def test_fork_leaves_parent_untouched():
    parent = init_world(GenConfig(drift_rate=0.99), 31)
    twin = init_world(GenConfig(drift_rate=0.99), 31)
    next_batch(parent, 5)
    next_batch(twin, 5)
    side = fork(parent, "eval", 0)
    next_batch(side, 100)  # consume plenty from the fork's rng
    a, b = next_batch(parent, 5), next_batch(twin, 5)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.labels, b.labels)


def test_fork_determinism_and_salts():
    world = init_world(GenConfig(drift_rate=0.99), 31)
    next_batch(world, 5)
    f1 = fork(world, "eval", 3)
    f2 = fork(world, "eval", 3)
    f3 = fork(world, "eval", 4)
    b1, b2, b3 = next_batch(f1, 16), next_batch(f2, 16), next_batch(f3, 16)
    assert np.array_equal(b1.x, b2.x)
    assert not np.array_equal(b1.x, b3.x)
    # fork carries the parent's latent state
    assert np.array_equal(f3.latents["ctr"], world.latents["ctr"])


def test_fork_freezes_drift_by_default():
    world = init_world(GenConfig(drift_rate=0.9), 8)
    side = fork(world, "eval", 0)
    w0 = side.latents["ctr"].copy()
    for _ in range(5):
        next_batch(side, 3)
    assert np.array_equal(side.latents["ctr"], w0)
