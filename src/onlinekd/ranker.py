"""Multi-task ranking model: a shared trunk feeding one logit tower per task.

Two distillation wirings are supported. Direct mode reuses each task's
serving logit for the soft-label loss, so teacher targets shape the same
head that serves. Auxiliary mode gives every distilled task a separate
single-layer logit head for the soft loss; teacher knowledge then reaches
the serving path only through the shared trunk, while teacher bias stays
confined to the auxiliary head. Auxiliary heads are training-only and never
serve.

The towers are the members of one stacked MLP, one row of an (n_tasks, P)
parameter buffer each, and the aux heads likewise share an (n_aux, P)
buffer; model.towers and model.aux_heads hold per-row views of them, which
the optimizer steps one component at a time. The forward and backward
passes run each stack in one call, and the loss builds its gradient seeds
on (row, batch) arrays, one row per task.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigError
from .nncore import (
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
    """Trunk, task towers and (auxiliary mode) aux heads of one model.

    tower_stack stacks one tower per task (task order), aux_stack one aux
    head per distilled task (distill order; None without aux heads), and
    towers/aux_heads map each task to the Mlp over its row. soft_names are
    the rows the soft loss lands on: the towers in direct mode, else the aux
    heads. binary and soft_binary mark their cross-entropy rows, (rows, 1).
    """

    config: ModelConfig
    trunk: Mlp
    tower_stack: Mlp
    aux_stack: Mlp | None
    towers: dict[str, Mlp] = field(init=False)
    aux_heads: dict[str, Mlp] = field(init=False)
    soft_names: tuple[str, ...] = field(init=False)
    binary: np.ndarray = field(init=False, repr=False)
    soft_binary: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        names = tuple(t.name for t in self.config.tasks)
        aux_names = self.config.distill_tasks if self.aux_stack is not None else ()
        self.towers = {name: self.tower_stack.member(i) for i, name in enumerate(names)}
        self.aux_heads = {name: self.aux_stack.member(i) for i, name in enumerate(aux_names)}
        self.soft_names = names if self.mode == DIRECT else aux_names
        binary = {t.name: t.kind == BINARY for t in self.config.tasks}
        self.binary = np.array([binary[n] for n in names], dtype=bool)[:, None]
        self.soft_binary = np.array([binary[n] for n in self.soft_names], dtype=bool)[:, None]

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
    towers = make_mlp([trunk_out, *cfg.tower_widths, 1], rng, members=len(cfg.tasks))
    aux = None
    if cfg.mode == AUXILIARY and cfg.distill_tasks:
        aux = make_mlp([trunk_out, 1], rng, members=len(cfg.distill_tasks))
    return RankingModel(config=cfg, trunk=trunk, tower_stack=towers, aux_stack=aux)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """1/(1+e^-z) for z >= 0 and e^z/(1+e^z) below, without overflow."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


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


def model_forward(
    model: RankingModel,
    x: np.ndarray,
    clip: float | None = None,
    *,
    job: str | None = None,
) -> PredictionSet:
    """Serving/evaluation forward pass: one hard logit per task per row,
    aux logits exactly for the distilled tasks in auxiliary mode.

    No backward pass follows, so each stack's cache is dropped before the
    next stack runs; every tower and aux head is still computed and checked.
    """
    trunk_out = mlp_forward(model.trunk, x, clip, job=job)[0]
    out = mlp_forward(model.tower_stack, trunk_out, clip, job=job)[0]
    hard = dict(zip(model.towers, out[..., 0]))
    aux = {}
    if model.aux_stack is not None:
        out = mlp_forward(model.aux_stack, trunk_out, clip, job=job)[0]
        aux = dict(zip(model.aux_heads, out[..., 0]))
    return PredictionSet(hard_logits=hard, aux_logits=aux)


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


def _check_probabilities(p: np.ndarray) -> None:
    if np.any(p <= 0.0) or np.any(p >= 1.0):
        raise ValueError("teacher probability outside (0, 1)")


def distill_loss(student_value, teacher_value, kind: str) -> np.ndarray:
    """Teacher-target loss, elementwise.

    Binary: cross-entropy between the teacher probability and the student's
    sigmoid, computed from the student logit.
    Regression: squared error between student and teacher values.
    """
    s = np.asarray(student_value, dtype=np.float64)
    t = np.asarray(teacher_value, dtype=np.float64)
    if kind == BINARY:
        _check_probabilities(t)
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
    The four values are filled in by evaluate() on the first read of any
    of them, so a training step that never reads them does not pay for them.
    """

    evaluate: Callable[[], tuple[dict, dict, dict, float]] = field(repr=False)
    hard: dict[str, float] = field(init=False)
    soft: dict[str, float] = field(init=False)
    alpha: dict[str, float] = field(init=False)
    total: float = field(init=False)

    def __getattr__(self, name: str):
        # Reached only while the values are unset: fill all four, then read.
        if name not in ("hard", "soft", "alpha", "total"):
            raise AttributeError(name)
        self.hard, self.soft, self.alpha, self.total = self.evaluate()
        return getattr(self, name)


@dataclass
class LogitSeeds:
    """d(total)/d(logit), already batch-normalized.

    hard is (n_tasks, batch), including the soft seeds in direct mode; aux
    is (n_aux, batch), None without aux heads. soft_active flags the rows of
    model.soft_names that got a soft seed (a covered label, nonzero alpha).
    """

    hard: np.ndarray
    aux: np.ndarray | None
    soft_active: np.ndarray


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
    Labels are checked here, on every call: label shapes, distilled task
    names, and that every covered binary teacher value lies in (0, 1).
    """
    alpha = alpha or {}
    soft_labels = soft_labels or {}
    distillable = set(model.config.distill_tasks)
    for name in [*soft_labels, *alpha]:
        if name not in distillable:
            raise ConfigError(f"soft labels or alpha given for non-distilled task {name!r}")

    z = np.stack([preds.hard_logits[name] for name in model.towers])
    for name in model.towers:
        if np.shape(hard_labels[name]) != z.shape[1:]:
            raise ValueError(f"task {name!r}: label shape != logit shape {z.shape[1:]}")
    y = np.asarray(np.stack([hard_labels[name] for name in model.towers]), dtype=np.float64)
    n = z.shape[1]
    sig = _sigmoid(z)
    hard = (np.where(model.binary, sig, z) - y) * np.where(model.binary, 1.0, 2.0) / n

    rows = len(model.soft_names)
    active = np.zeros(rows, dtype=bool)
    aux = np.zeros((rows, n)) if model.mode == AUXILIARY else None
    soft_rows: dict[str, tuple[int, float]] = {}  # task -> (soft row, alpha)
    zs = safe = mask = None
    if soft_labels:
        values, present, weight = np.zeros((rows, n)), np.zeros((rows, n), bool), np.zeros((rows, 1))
        for r, name in enumerate(model.soft_names):
            if name in soft_labels:
                values[r] = soft_labels[name].values
                present[r] = soft_labels[name].present
                weight[r] = a = float(alpha.get(name, 1.0))
                soft_rows[name] = (r, a)
        mask = present.astype(np.float64)
        # Placeholders keep absent values out of both the loss and the check.
        binary = model.soft_binary
        safe = np.where(present, values, np.where(binary, 0.5, 0.0))
        _check_probabilities(safe[binary[:, 0]])
        if model.mode == DIRECT:
            zs, sig_s = z, sig
        else:
            zs = np.stack([preds.aux_logits[name] for name in model.soft_names])
            sig_s = _sigmoid(zs)
        active = (mask.sum(axis=1) > 0.0) & (weight[:, 0] != 0.0)
        scale = weight * np.where(binary, 1.0, 2.0)
        seed = scale * (np.where(binary, sig_s, zs) - safe) * mask / n
        if model.mode == DIRECT:
            np.add(hard, seed, out=hard, where=active[:, None])
        else:
            aux = seed

    def evaluate():
        hard_out = {
            t.name: float(np.mean(hard_loss(zt, yt, t.kind)))
            for t, zt, yt in zip(model.tasks, z, y)
        }
        soft_out, alpha_out = {}, {}
        for t in model.tasks:
            if t.name in soft_rows:
                r, alpha_out[t.name] = soft_rows[t.name]
                loss = (distill_loss(zs[r], safe[r], t.kind) * mask[r]).sum() / n
                soft_out[t.name] = float(loss) if mask[r].any() else 0.0
        total = 0.0  # hard losses in task order, then alpha-weighted soft losses
        for value in [*hard_out.values(), *(alpha_out[k] * v for k, v in soft_out.items())]:
            total += value
        return hard_out, soft_out, alpha_out, total

    return LossBreakdown(evaluate), LogitSeeds(hard=hard, aux=aux, soft_active=active)


@dataclass
class ModelGrads:
    """Each component's gradient, laid out like its Mlp's params."""

    trunk: np.ndarray
    towers: dict[str, np.ndarray]
    aux: dict[str, np.ndarray]


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
    trunk_out, trunk_cache = mlp_forward(model.trunk, x, clip, job=job)
    out, tower_cache = mlp_forward(model.tower_stack, trunk_out, clip, job=job)
    hard = dict(zip(model.towers, out[..., 0]))
    aux, aux_cache = {}, None
    if model.aux_stack is not None:
        out, aux_cache = mlp_forward(model.aux_stack, trunk_out, clip, job=job)
        aux = dict(zip(model.aux_heads, out[..., 0]))
    preds = PredictionSet(hard_logits=hard, aux_logits=aux)
    breakdown, seeds = total_loss(model, preds, hard_labels, soft_labels, alpha)

    tower_grads, tower_in = mlp_backward(model.tower_stack, tower_cache, seeds.hard[..., None])
    trunk_out_grad = np.zeros_like(trunk_out)
    for input_grad in tower_in:
        trunk_out_grad += input_grad

    aux_grads: dict[str, np.ndarray] = {}
    if model.aux_stack is not None:
        grads, aux_in = mlp_backward(model.aux_stack, aux_cache, seeds.aux[..., None])
        # A head with no seed this step gets exact zeros, so its optimizer
        # moments still decay in lockstep, and adds nothing to the trunk.
        grads[~seeds.soft_active] = 0.0
        for input_grad, active in zip(aux_in, seeds.soft_active):
            if active:
                trunk_out_grad += input_grad
        aux_grads = dict(zip(model.aux_heads, grads))

    trunk_grads = mlp_backward(model.trunk, trunk_cache, trunk_out_grad, input_grad=False)[0]
    towers = dict(zip(model.towers, tower_grads))
    return breakdown, ModelGrads(trunk=trunk_grads, towers=towers, aux=aux_grads), preds


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
    for name, tower in model.towers.items():
        optimizer_step(tower, grads.towers[name], opt.towers[name], cfg, job=job)
    for name, head in model.aux_heads.items():
        optimizer_step(head, grads.aux[name], opt.aux[name], cfg, job=job)
