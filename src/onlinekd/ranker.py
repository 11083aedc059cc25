"""Multi-task ranking model: a shared trunk feeding one logit tower per task.

Two distillation wirings are supported. Direct mode reuses each task's
serving logit for the soft-label loss, so teacher targets shape the same
head that serves. Auxiliary mode gives every distilled task a separate
single-layer logit head for the soft loss; teacher knowledge then reaches
the serving path only through the shared trunk, while teacher bias stays
confined to the auxiliary head. Auxiliary heads are training-only and never
serve.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .nncore import (
    IDENTITY,
    Mlp,
    OptState,
    RELU,
    TrainConfig,
    make_mlp,
    mlp_backward,
    mlp_forward,
    optimizer_step,
)

BINARY = "binary"
REGRESSION = "regression"

PET = "pet"
PST = "pst"
OTHER = "other"

NO_DISTILL = "no_distill"
DIRECT = "direct"
AUXILIARY = "auxiliary"

MODES = (NO_DISTILL, DIRECT, AUXILIARY)

# Probability floor keeps sigmoid outputs inside the open interval (0, 1)
# even for saturated logits, and survives the float32 cast in the label store.
PROB_FLOOR = 1e-6


@dataclass(frozen=True)
class TaskSpec:
    name: str
    kind: str
    category: str = OTHER

    def __post_init__(self) -> None:
        if self.kind not in (BINARY, REGRESSION):
            raise ConfigError(f"task {self.name!r}: unknown kind {self.kind!r}")
        if self.category not in (PET, PST, OTHER):
            raise ConfigError(f"task {self.name!r}: unknown category {self.category!r}")


def validate_tasks(tasks: tuple[TaskSpec, ...] | list[TaskSpec]) -> tuple[TaskSpec, ...]:
    tasks = tuple(tasks)
    if not tasks:
        raise ConfigError("at least one task is required")
    names = [t.name for t in tasks]
    if len(set(names)) != len(names):
        raise ConfigError(f"duplicate task names in {names}")
    return tasks


@dataclass(frozen=True)
class ModelConfig:
    """Architecture of one ranking model.

    trunk_widths are the shared-layer widths (all ReLU; the last one is the
    feature width every tower consumes). tower_widths are the hidden widths
    of each per-task head before its single output logit. distill_tasks is
    the subset of task names this model consumes soft labels for; in
    auxiliary mode exactly these tasks get an aux head.
    """

    feature_dim: int
    trunk_widths: tuple[int, ...]
    tower_widths: tuple[int, ...]
    tasks: tuple[TaskSpec, ...]
    mode: str = NO_DISTILL
    distill_tasks: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        validate_tasks(self.tasks)
        if self.mode not in MODES:
            raise ConfigError(f"unknown distillation mode {self.mode!r}")
        if self.feature_dim < 1 or not self.trunk_widths:
            raise ConfigError("feature_dim and trunk_widths must be non-empty")
        names = {t.name for t in self.tasks}
        for name in self.distill_tasks:
            if name not in names:
                raise ConfigError(f"distill task {name!r} is not a declared task")
        if self.mode == NO_DISTILL and self.distill_tasks:
            raise ConfigError("no_distill mode cannot list distill_tasks")

    def task(self, name: str) -> TaskSpec:
        for t in self.tasks:
            if t.name == name:
                return t
        raise KeyError(name)


@dataclass
class RankingModel:
    config: ModelConfig
    trunk: Mlp
    towers: dict[str, Mlp]
    aux_heads: dict[str, Mlp]

    @property
    def mode(self) -> str:
        return self.config.mode

    @property
    def tasks(self) -> tuple[TaskSpec, ...]:
        return self.config.tasks


def build_model(cfg: ModelConfig, rng: np.random.Generator) -> RankingModel:
    """Materialize a seeded model.

    Draw order is trunk, then towers in task order, then aux heads in
    distill-task order, so trunk and tower initializations are bit-identical
    across modes under the same seed.
    """
    trunk = make_mlp([cfg.feature_dim, *cfg.trunk_widths], rng, output_activation=RELU)
    trunk_out = cfg.trunk_widths[-1]
    towers = {
        t.name: make_mlp([trunk_out, *cfg.tower_widths, 1], rng) for t in cfg.tasks
    }
    aux_heads: dict[str, Mlp] = {}
    if cfg.mode == AUXILIARY:
        aux_heads = {name: make_mlp([trunk_out, 1], rng) for name in cfg.distill_tasks}
    return RankingModel(config=cfg, trunk=trunk, towers=towers, aux_heads=aux_heads)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


@dataclass
class PredictionSet:
    """Per-task serving logits plus training-only aux logits.

    prob() is the sigmoid of the hard logit floored into (0, 1); value() is
    the raw logit (regression heads predict on the identity scale).
    """

    hard_logits: dict[str, np.ndarray]
    aux_logits: dict[str, np.ndarray] = field(default_factory=dict)

    def prob(self, task: str) -> np.ndarray:
        return np.clip(_sigmoid(self.hard_logits[task]), PROB_FLOOR, 1.0 - PROB_FLOOR)

    def value(self, task: str) -> np.ndarray:
        return self.hard_logits[task]

    def score(self, task: str, kind: str) -> np.ndarray:
        return self.prob(task) if kind == BINARY else self.value(task)


@dataclass
class _ModelCache:
    trunk_out: np.ndarray
    trunk_cache: object
    tower_caches: dict[str, object]
    aux_caches: dict[str, object]


def _forward(
    model: RankingModel, x: np.ndarray, clip: float | None, job: str | None
) -> tuple[PredictionSet, _ModelCache]:
    trunk_out, trunk_cache = mlp_forward(model.trunk, x, clip, job=job)
    hard: dict[str, np.ndarray] = {}
    tower_caches: dict[str, object] = {}
    for t in model.tasks:
        out, cache = mlp_forward(model.towers[t.name], trunk_out, clip, job=job)
        hard[t.name] = out[:, 0]
        tower_caches[t.name] = cache
    aux: dict[str, np.ndarray] = {}
    aux_caches: dict[str, object] = {}
    for name in model.config.distill_tasks:
        if name in model.aux_heads:
            out, cache = mlp_forward(model.aux_heads[name], trunk_out, clip, job=job)
            aux[name] = out[:, 0]
            aux_caches[name] = cache
    preds = PredictionSet(hard_logits=hard, aux_logits=aux)
    return preds, _ModelCache(trunk_out, trunk_cache, tower_caches, aux_caches)


def model_forward(
    model: RankingModel,
    x: np.ndarray,
    clip: float | None = None,
    *,
    job: str | None = None,
) -> PredictionSet:
    """Serving/evaluation forward pass: one hard logit per task per row,
    aux logits exactly for the distilled tasks in auxiliary mode."""
    preds, _ = _forward(model, x, clip, job)
    return preds


def hard_loss(pred, label, kind: str) -> np.ndarray:
    """Observed-label loss: stable sigmoid cross-entropy from the logit for
    binary tasks, squared error for regression. Elementwise."""
    pred = np.asarray(pred, dtype=np.float64)
    label = np.asarray(label, dtype=np.float64)
    if kind == BINARY:
        return np.logaddexp(0.0, pred) - label * pred
    if kind == REGRESSION:
        return np.square(pred - label)
    raise ConfigError(f"unknown task kind {kind!r}")


def distill_loss(student_value, teacher_value, kind: str) -> np.ndarray:
    """Teacher-target loss, elementwise.

    Binary: cross-entropy between the teacher probability and the student's
    sigmoid, computed from the student logit.
    Regression: squared error between student and teacher values.
    """
    s = np.asarray(student_value, dtype=np.float64)
    t = np.asarray(teacher_value, dtype=np.float64)
    if kind == BINARY:
        if np.any(t <= 0.0) or np.any(t >= 1.0):
            raise ValueError("teacher probability outside (0, 1)")
        return np.logaddexp(0.0, s) - t * s
    if kind == REGRESSION:
        return np.square(s - t)
    raise ConfigError(f"unknown task kind {kind!r}")


@dataclass
class SoftTargets:
    """Teacher values for one task over a batch, with a per-example mask.

    Examples where present is False contribute no soft loss (coverage gap).
    """

    values: np.ndarray
    present: np.ndarray

    def __post_init__(self) -> None:
        if self.values.shape != self.present.shape:
            raise ValueError("soft target values/mask shape mismatch")


@dataclass
class LossBreakdown:
    """Per-task losses and the weighted total, exactly as summed.

    Hard losses are batch means. Soft losses are summed over covered
    examples and normalized by the full batch size, so a coverage gap
    weakens the distillation signal instead of re-weighting survivors.
    """

    hard: dict[str, float]
    soft: dict[str, float]
    alpha: dict[str, float]
    total: float


@dataclass
class LogitSeeds:
    """d(total)/d(logit) per task, already batch-normalized."""

    hard: dict[str, np.ndarray]
    aux: dict[str, np.ndarray]


def total_loss(
    model: RankingModel,
    preds: PredictionSet,
    hard_labels: dict[str, np.ndarray],
    soft_labels: dict[str, SoftTargets] | None,
    alpha: dict[str, float] | None = None,
) -> tuple[LossBreakdown, LogitSeeds]:
    """Joint loss over all tasks plus the gradient seed for every logit.

    In direct mode the soft loss lands on the serving logit; in auxiliary
    mode it lands on the aux logit only, so the serving tower sees hard-label
    gradients exclusively and teacher knowledge flows through the trunk.
    """
    alpha = alpha or {}
    soft_labels = soft_labels or {}
    distillable = set(model.config.distill_tasks)
    for name in soft_labels:
        if model.mode == NO_DISTILL or name not in distillable:
            raise ConfigError(
                f"soft labels supplied for task {name!r} which this model does not distill"
            )
    for name in alpha:
        if name not in distillable:
            raise ConfigError(f"alpha given for non-distilled task {name!r}")

    hard_out: dict[str, float] = {}
    soft_out: dict[str, float] = {}
    alpha_out: dict[str, float] = {}
    hard_seeds: dict[str, np.ndarray] = {}
    aux_seeds: dict[str, np.ndarray] = {}

    n = None
    for t in model.tasks:
        z = preds.hard_logits[t.name]
        n = z.shape[0] if n is None else n
        y = np.asarray(hard_labels[t.name], dtype=np.float64)
        if y.shape != z.shape:
            raise ValueError(f"task {t.name!r}: label shape {y.shape} != logit shape {z.shape}")
        hard_out[t.name] = float(np.mean(hard_loss(z, y, t.kind)))
        if t.kind == BINARY:
            hard_seeds[t.name] = (_sigmoid(z) - y) / n
        else:
            hard_seeds[t.name] = 2.0 * (z - y) / n

    for t in model.tasks:
        targets = soft_labels.get(t.name)
        if targets is None:
            continue
        a = float(alpha.get(t.name, 1.0))
        if model.mode == DIRECT:
            z = preds.hard_logits[t.name]
        else:
            z = preds.aux_logits[t.name]
        present = targets.present.astype(np.float64)
        covered = present.sum()
        if covered == 0.0:
            soft_out[t.name] = 0.0
            alpha_out[t.name] = a
            continue
        # Losses are only evaluated where a teacher value exists; the mask
        # keeps placeholder values out of both the loss and the validation.
        safe_vals = np.where(targets.present, targets.values, 0.5 if t.kind == BINARY else 0.0)
        per_example = distill_loss(z, safe_vals, t.kind) * present
        soft_out[t.name] = float(per_example.sum() / n)
        alpha_out[t.name] = a
        if a == 0.0:
            continue
        if t.kind == BINARY:
            seed = a * (_sigmoid(z) - safe_vals) * present / n
        else:
            seed = a * 2.0 * (z - safe_vals) * present / n
        if model.mode == DIRECT:
            hard_seeds[t.name] = hard_seeds[t.name] + seed
        else:
            aux_seeds[t.name] = seed

    total = 0.0
    for t in model.tasks:
        total += hard_out[t.name]
    for name, value in soft_out.items():
        total += alpha_out[name] * value
    breakdown = LossBreakdown(hard=hard_out, soft=soft_out, alpha=alpha_out, total=total)
    return breakdown, LogitSeeds(hard=hard_seeds, aux=aux_seeds)


@dataclass
class ModelGrads:
    trunk: list[tuple[np.ndarray, np.ndarray]]
    towers: dict[str, list[tuple[np.ndarray, np.ndarray]]]
    aux: dict[str, list[tuple[np.ndarray, np.ndarray]]]


def compute_loss_and_grads(
    model: RankingModel,
    x: np.ndarray,
    hard_labels: dict[str, np.ndarray],
    soft_labels: dict[str, SoftTargets] | None = None,
    alpha: dict[str, float] | None = None,
    clip: float | None = None,
    *,
    job: str | None = None,
) -> tuple[LossBreakdown, ModelGrads, PredictionSet]:
    """One full forward/backward pass: joint loss and exact gradients for
    every component (trunk, towers, aux heads)."""
    preds, cache = _forward(model, x, clip, job)
    breakdown, seeds = total_loss(model, preds, hard_labels, soft_labels, alpha)

    trunk_out_grad = np.zeros_like(cache.trunk_out)
    tower_grads: dict[str, list[tuple[np.ndarray, np.ndarray]]] = {}
    for t in model.tasks:
        seed = seeds.hard[t.name][:, None]
        grads, input_grad = mlp_backward(model.towers[t.name], cache.tower_caches[t.name], seed)
        tower_grads[t.name] = grads
        trunk_out_grad += input_grad

    aux_grads: dict[str, list[tuple[np.ndarray, np.ndarray]]] = {}
    for name, head in model.aux_heads.items():
        seed_vec = seeds.aux.get(name)
        if seed_vec is None:
            # No covered soft labels this step: aux head gets exact zeros so
            # optimizer moments still decay in lockstep.
            aux_grads[name] = [
                (np.zeros_like(layer.weights), np.zeros_like(layer.bias))
                for layer in head.layers
            ]
            continue
        grads, input_grad = mlp_backward(head, cache.aux_caches[name], seed_vec[:, None])
        aux_grads[name] = grads
        trunk_out_grad += input_grad

    trunk_grads, _ = mlp_backward(model.trunk, cache.trunk_cache, trunk_out_grad)
    return breakdown, ModelGrads(trunk=trunk_grads, towers=tower_grads, aux=aux_grads), preds


@dataclass
class ModelOptimizer:
    """Adam state for every component of a RankingModel, stepped in lockstep."""

    trunk: OptState
    towers: dict[str, OptState]
    aux: dict[str, OptState]

    @classmethod
    def for_model(cls, model: RankingModel) -> "ModelOptimizer":
        return cls(
            trunk=OptState.for_mlp(model.trunk),
            towers={name: OptState.for_mlp(m) for name, m in model.towers.items()},
            aux={name: OptState.for_mlp(m) for name, m in model.aux_heads.items()},
        )


def apply_gradients(
    model: RankingModel,
    grads: ModelGrads,
    opt: ModelOptimizer,
    cfg: TrainConfig,
    *,
    job: str | None = None,
) -> None:
    optimizer_step(model.trunk, grads.trunk, opt.trunk, cfg, job=job)
    for t in model.tasks:
        optimizer_step(model.towers[t.name], grads.towers[t.name], opt.towers[t.name], cfg, job=job)
    for name in model.aux_heads:
        optimizer_step(model.aux_heads[name], grads.aux[name], opt.aux[name], cfg, job=job)
