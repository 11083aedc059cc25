"""Offline and simulated-online evaluation metrics.

The rank AUC uses average-rank tie handling, which makes it equal (bit for
bit) to the brute-force count over all positive/negative pairs with ties
worth one half: average ranks are exact halves in binary floating point, so
both routes form the identical numerator before one identical division.

The slate simulation is paired when every policy scores the same drawn
slates: shared sampling noise then cancels in reported lifts, and a policy
compared against itself yields exactly zero. The online loop draws its slates
in blocks, and the pairing holds block by block: every policy scores a block
before the next one is drawn.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datagen import WorldState, true_task_value


def rank_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Probability a random positive outranks a random negative (ties 0.5).

    Invariant under strictly increasing transforms of the scores. Needs at
    least one positive and one negative label.
    """
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    labels = np.asarray(labels, dtype=np.float64).reshape(-1)
    if scores.shape != labels.shape:
        raise ValueError("scores and labels must have equal length")
    pos_mask = labels == 1.0
    neg_mask = labels == 0.0
    if not np.all(pos_mask | neg_mask):
        raise ValueError("labels must be 0 or 1")
    n_pos = int(pos_mask.sum())
    n_neg = int(neg_mask.sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError("rank AUC needs both classes present")
    order = np.argsort(scores, kind="stable")
    s = scores[order]
    n = s.shape[0]
    starts = np.concatenate(([0], np.flatnonzero(s[1:] != s[:-1]) + 1))
    ends = np.concatenate((starts[1:], [n]))
    # 1-based average rank of each tie group; exact halves in float64
    group_rank = (starts + ends + 1) / 2.0
    ranks = np.empty(n, dtype=np.float64)
    ranks[order] = np.repeat(group_rank, ends - starts)
    rank_sum = float(ranks[pos_mask].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def rmse(preds: np.ndarray, labels: np.ndarray) -> float:
    preds = np.asarray(preds, dtype=np.float64).reshape(-1)
    labels = np.asarray(labels, dtype=np.float64).reshape(-1)
    if preds.shape != labels.shape:
        raise ValueError("preds and labels must have equal length")
    if preds.shape[0] == 0:
        raise ValueError("rmse of an empty batch")
    return float(np.sqrt(np.mean((preds - labels) ** 2)))


def calibration_ratio(preds: np.ndarray, labels: np.ndarray) -> float:
    """mean(prediction) / mean(label); 1.0 is perfectly calibrated in bulk."""
    preds = np.asarray(preds, dtype=np.float64).reshape(-1)
    labels = np.asarray(labels, dtype=np.float64).reshape(-1)
    if preds.shape != labels.shape:
        raise ValueError("preds and labels must have equal length")
    denom = float(labels.mean()) if labels.shape[0] else 0.0
    if denom <= 0.0:
        raise ValueError("calibration ratio needs labels with positive mean")
    return float(preds.mean()) / denom


def bootstrap_ci(
    samples: np.ndarray,
    *,
    resamples: int = 1000,
    seed: int = 0,
) -> tuple[float, float]:
    """Seeded 95% percentile bootstrap CI for the mean of the samples."""
    samples = np.asarray(samples, dtype=np.float64).reshape(-1)
    if samples.shape[0] < 10:
        raise ValueError("bootstrap needs at least 10 samples")
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, samples.shape[0], size=(resamples, samples.shape[0]))
    means = samples[idx].mean(axis=1)
    alpha = (1.0 - 0.95) / 2.0
    lo, hi = np.quantile(means, [alpha, 1.0 - alpha])
    return float(lo), float(hi)


@dataclass(frozen=True)
class OnlineSimConfig:
    """Slate policy simulation: pick-best-by-score over m candidates."""

    slate_size: int = 8
    n_slates: int = 2000
    policy_task: str = "ctr"
    satisfaction_task: str = "sat"

    def __post_init__(self) -> None:
        if self.slate_size < 2:
            raise ValueError("slate_size must be >= 2")
        if self.n_slates < 1:
            raise ValueError("n_slates must be >= 1")


@dataclass
class Slates:
    """Candidate features plus their noise-free task values at draw time."""

    x: np.ndarray  # (n_slates, m, d)
    true_policy: np.ndarray  # (n_slates, m)
    true_satisfaction: np.ndarray  # (n_slates, m)


def draw_slates(world: WorldState, cfg: OnlineSimConfig, rng: np.random.Generator) -> Slates:
    names = {t.name for t in world.config.tasks}
    for task in (cfg.policy_task, cfg.satisfaction_task):
        if task not in names:
            raise ValueError(f"world does not generate task {task!r}")
    d = world.config.feature_dim
    x = rng.standard_normal((cfg.n_slates, cfg.slate_size, d))
    flat = x.reshape(-1, d)
    shape = (cfg.n_slates, cfg.slate_size)
    return Slates(
        x=x,
        true_policy=true_task_value(world, flat, cfg.policy_task).reshape(shape),
        true_satisfaction=true_task_value(world, flat, cfg.satisfaction_task).reshape(shape),
    )


def policy_metrics(slates: Slates, scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-slate engagement and satisfaction of the argmax-score policy.

    Entry i of the first array is slate i's true policy-task value at its
    highest-scored slot, and of the second its true satisfaction-task value
    at the same slot; their means are the policy's engagement and
    satisfaction.
    """
    n, m = slates.true_policy.shape
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != (n, m):
        raise ValueError(f"scores must have shape {(n, m)}")
    picks = np.argmax(scores, axis=1)
    rows = np.arange(n)
    return slates.true_policy[rows, picks], slates.true_satisfaction[rows, picks]


def lift_pct(treatment: float, control: float) -> float:
    """Percent lift; exactly 0.0 when treatment equals control."""
    if control == 0.0:
        raise ValueError("control metric is zero; lift undefined")
    if treatment == control:
        return 0.0
    return (treatment - control) / control * 100.0
