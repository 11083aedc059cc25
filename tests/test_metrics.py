"""Evaluation metrics: exact AUC equality, bootstrap behavior, paired slates."""

import numpy as np
import pytest

from onlinekd.datagen import GenConfig, init_world
from onlinekd.metrics import (
    OnlineSimConfig,
    bootstrap_ci,
    calibration_ratio,
    draw_slates,
    lift_pct,
    policy_metrics,
    rank_auc,
    rmse,
)

from oracles import argmax_policy_picks, brute_force_auc


def random_auc_instance(rng):
    n = int(rng.integers(2, 200))
    labels = (rng.random(n) < rng.uniform(0.2, 0.8)).astype(float)
    if labels.sum() == 0:
        labels[0] = 1.0
    if labels.sum() == n:
        labels[0] = 0.0
    style = rng.integers(0, 3)
    if style == 0:
        scores = rng.standard_normal(n)  # continuous, no ties
    elif style == 1:
        scores = rng.integers(0, 4, size=n).astype(float)  # heavy ties
    else:
        scores = np.round(rng.standard_normal(n), 1)  # occasional ties
    return scores, labels


def test_rank_auc_equals_brute_force_exactly():
    rng = np.random.default_rng(2024)
    for _ in range(60):
        scores, labels = random_auc_instance(rng)
        assert rank_auc(scores, labels) == brute_force_auc(scores, labels)


def test_rank_auc_known_values():
    assert rank_auc([0.1, 0.9], [0, 1]) == 1.0
    assert rank_auc([0.9, 0.1], [0, 1]) == 0.0
    assert rank_auc([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1]) == 0.5
    # one tie across classes is worth exactly one half-pair
    assert rank_auc([0.3, 0.3, 0.7], [0, 1, 1]) == 0.75


def test_rank_auc_invariant_under_monotone_transforms():
    rng = np.random.default_rng(5)
    scores, labels = random_auc_instance(rng)
    base = rank_auc(scores, labels)
    assert rank_auc(np.exp(scores), labels) == base
    assert rank_auc(np.arctan(scores), labels) == base
    assert rank_auc(3.0 * scores + 7.0, labels) == base


def test_rank_auc_errors():
    with pytest.raises(ValueError, match="both classes"):
        rank_auc([0.1, 0.2], [1, 1])
    with pytest.raises(ValueError, match="0 or 1"):
        rank_auc([0.1, 0.2], [0, 2])
    with pytest.raises(ValueError, match="equal length"):
        rank_auc([0.1], [0, 1])


def test_rmse_and_calibration():
    assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert rmse([3.0, 0.0], [0.0, 0.0]) == pytest.approx(np.sqrt(4.5))
    with pytest.raises(ValueError):
        rmse([], [])
    with pytest.raises(ValueError):
        rmse([1.0], [1.0, 2.0])
    assert calibration_ratio([1.0, 3.0], [2.0, 2.0]) == 1.0
    assert calibration_ratio([4.0, 4.0], [2.0, 2.0]) == 2.0
    with pytest.raises(ValueError):
        calibration_ratio([1.0], [0.0])


def test_rmse_dominates_absolute_mean_error():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(1, 50))
        preds = rng.standard_normal(n) * rng.uniform(0.1, 5)
        labels = rng.standard_normal(n)
        assert rmse(preds, labels) >= abs(float(np.mean(preds - labels))) - 1e-15


def test_bootstrap_ci_behavior():
    samples = np.full(10, 3.25)
    assert bootstrap_ci(samples) == (3.25, 3.25)  # zero width at the constant
    rng = np.random.default_rng(11)
    data = rng.standard_normal(60)
    lo, hi = bootstrap_ci(data, seed=4)
    assert lo < float(data.mean()) < hi
    assert bootstrap_ci(data, seed=4) == (lo, hi)  # seeded determinism
    assert bootstrap_ci(data, seed=5) != (lo, hi)
    with pytest.raises(ValueError, match="at least 10"):
        bootstrap_ci(np.ones(9))


def test_bootstrap_ci_coverage_study():
    # 95% interval should cover the true mean in roughly 95% of trials
    rng = np.random.default_rng(99)
    hits = 0
    trials = 400
    for k in range(trials):
        data = rng.standard_normal(40)
        lo, hi = bootstrap_ci(data, resamples=400, seed=k)
        hits += lo <= 0.0 <= hi
    assert 0.91 <= hits / trials <= 0.98


def test_online_sim_config_validation():
    with pytest.raises(ValueError):
        OnlineSimConfig(slate_size=1)
    with pytest.raises(ValueError):
        OnlineSimConfig(n_slates=0)


def test_draw_slates_shapes_and_truth():
    world = init_world(GenConfig(), 3)
    cfg = OnlineSimConfig(slate_size=4, n_slates=10)
    slates = draw_slates(world, cfg, np.random.default_rng(0))
    assert slates.x.shape == (10, 4, 32)
    assert slates.true_policy.shape == (10, 4)
    from onlinekd.datagen import true_task_value

    want = true_task_value(world, slates.x[2], "ctr")
    np.testing.assert_array_equal(slates.true_policy[2], want)
    with pytest.raises(ValueError, match="does not generate"):
        draw_slates(world, OnlineSimConfig(policy_task="nope"),
                    np.random.default_rng(0))


def test_policy_metrics_matches_loop_oracle():
    world = init_world(GenConfig(), 8)
    cfg = OnlineSimConfig(slate_size=5, n_slates=40)
    rng = np.random.default_rng(2)
    slates = draw_slates(world, cfg, rng)
    scores = rng.standard_normal((40, 5))
    engagement, satisfaction = policy_metrics(slates, scores)
    want = argmax_policy_picks(slates.true_policy, slates.true_satisfaction, scores)
    assert (engagement.tolist(), satisfaction.tolist()) == want
    with pytest.raises(ValueError, match="shape"):
        policy_metrics(slates, scores[:, :3])


def test_lift_pct():
    assert lift_pct(1.1, 1.0) == pytest.approx(10.0)
    assert lift_pct(0.9, 1.0) == pytest.approx(-10.0)
    assert lift_pct(0.37, 0.37) == 0.0
    with pytest.raises(ValueError):
        lift_pct(1.0, 0.0)


def paired_policy_metrics(score_fns, world, cfg, seed):
    """(engagement, satisfaction) means per scorer, every scorer ranking the
    same drawn slates from one flat feature matrix, as the online loop's eval
    does with each block."""
    slates = draw_slates(world, cfg, np.random.default_rng(seed))
    flat = slates.x.reshape(-1, world.config.feature_dim)
    shape = slates.true_policy.shape
    return [
        tuple(float(v.mean()) for v in policy_metrics(slates, fn(flat).reshape(shape)))
        for fn in score_fns
    ]


def test_simulated_online_self_comparison_is_exactly_zero():
    world = init_world(GenConfig(), 21)
    cfg = OnlineSimConfig(slate_size=6, n_slates=50)
    w = np.random.default_rng(0).standard_normal(32)
    fn = lambda x: x @ w
    (e_t, s_t), (e_c, s_c) = paired_policy_metrics([fn, fn], world, cfg, 9)
    assert lift_pct(e_t, e_c) == 0.0
    assert lift_pct(s_t, s_c) == 0.0


def test_simulated_online_is_paired_and_deterministic():
    world = init_world(GenConfig(), 21)
    cfg = OnlineSimConfig(slate_size=6, n_slates=50)
    a = lambda x: x @ np.ones(32)
    b = lambda x: x @ np.arange(32.0)
    r1 = paired_policy_metrics([a, b], world, cfg, 9)
    r2 = paired_policy_metrics([a, b], world, cfg, 9)
    assert r1 == r2


def test_oracle_policy_dominates_any_other_scorer():
    world = init_world(GenConfig(), 4)
    cfg = OnlineSimConfig(slate_size=8, n_slates=500)
    slates = draw_slates(world, cfg, np.random.default_rng(1))
    oracle_engagement, _ = policy_metrics(slates, slates.true_policy)
    # argmax of the objective picks each slate's maximum
    assert np.array_equal(oracle_engagement, slates.true_policy.max(axis=1))
    rng = np.random.default_rng(2)
    for _ in range(5):
        other, _ = policy_metrics(slates, rng.standard_normal(slates.true_policy.shape))
        assert np.all(other <= oracle_engagement)


def test_oracle_policy_beats_random_scorer_decisively():
    world = init_world(GenConfig(), 10)
    cfg = OnlineSimConfig(slate_size=8, n_slates=10000)
    slates = draw_slates(world, cfg, np.random.default_rng(3))
    rng = np.random.default_rng(4)
    random_scores = rng.standard_normal(slates.true_policy.shape)
    picks = np.argmax(random_scores, axis=1)
    rows = np.arange(slates.true_policy.shape[0])
    per_slate_oracle = slates.true_policy.max(axis=1)
    per_slate_random = slates.true_policy[rows, picks]
    diff = per_slate_oracle - per_slate_random
    se = float(diff.std(ddof=1)) / np.sqrt(diff.shape[0])
    assert float(diff.mean()) / se > 5.0
