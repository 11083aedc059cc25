"""Multi-task ranking model: a shared trunk feeding one logit tower per task.

Two distillation wirings are supported. Direct mode reuses each task's
serving logit for the soft-label loss, so teacher targets shape the same
head that serves. Auxiliary mode gives every distilled task a separate
single-layer logit head for the soft loss; teacher knowledge then reaches
the serving path only through the shared trunk, while teacher bias stays
confined to the auxiliary head. Auxiliary heads are training-only and never
serve.

Every per-task quantity is one task-major array, one row per task: the
towers are the members of one stacked MLP, one row of an (n_tasks, P)
parameter buffer each, and the aux heads likewise share an (n_aux, P)
buffer. The forward pass returns the hard logits as one (n_tasks, batch)
array in task order and the aux logits as one (n_distill, batch) array in
distill order; the loss takes the hard labels as (n_tasks, batch) and the
teacher values as (n_distill, batch) with one present mask over the batch,
and builds its gradient seeds on those rows. The trunk and the two stacks
view one flat buffer, model.params, which one gradient and one Adam state
share, so the optimizer steps a whole model in one pass.

A training step computes the gradients of the joint loss (defined in
total_loss) and nothing else: no loss value is evaluated on the step path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    mode: str
    distill_tasks: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        validate_tasks(self.tasks)
        if self.mode not in MODES:
            raise ConfigError(f"unknown distillation mode {self.mode!r}")
        if self.feature_dim < 1 or not self.trunk_widths:
            raise ConfigError("feature_dim and trunk_widths must be non-empty")
        if min(self.trunk_widths + self.tower_widths) < 1:
            raise ConfigError("trunk and tower widths must be >= 1")
        names = {t.name for t in self.tasks}
        for name in self.distill_tasks:
            if name not in names:
                raise ConfigError(f"distill task {name!r} is not a declared task")
        if len(set(self.distill_tasks)) != len(self.distill_tasks):
            raise ConfigError(f"duplicate distill tasks in {list(self.distill_tasks)}")
        if self.mode == NO_DISTILL and self.distill_tasks:
            raise ConfigError("no_distill mode cannot list distill_tasks")
        if self.mode != NO_DISTILL and not self.distill_tasks:
            raise ConfigError(f"{self.mode} mode needs at least one distill task")


@dataclass
class RankingModel:
    """Trunk, task towers and (auxiliary mode) aux heads of one model.

    tower_stack stacks one tower per task (task order), aux_stack one aux
    head per distilled task (distill order; None without aux heads).
    params is the one flat buffer the three view, laid out as the trunk's
    params, then the tower stack's rows, then the aux stack's; starts,
    sizes and layer_names give each of its layers' offset, length and name
    ("tower ctr layer 1"), as an Mlp's do. distill_rows holds the tower row
    of each distilled task, in distill order. binary marks the
    cross-entropy rows of the towers, (n_tasks, 1).
    """

    config: ModelConfig
    trunk: Mlp
    tower_stack: Mlp
    aux_stack: Mlp | None
    params: np.ndarray = field(init=False, repr=False)
    starts: np.ndarray = field(init=False, repr=False)
    sizes: np.ndarray = field(init=False, repr=False)
    layer_names: list[str] = field(init=False, repr=False)
    distill_rows: np.ndarray = field(init=False, repr=False)
    binary: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        names = [t.name for t in self.config.tasks]
        groups = [(self.trunk, ["trunk"]), (self.tower_stack, [f"tower {n}" for n in names])]
        if self.aux_stack is not None:
            groups.append((self.aux_stack, [f"aux {n}" for n in self.config.distill_tasks]))
        self.params = np.empty(sum(mlp.params.size for mlp, _ in groups))
        starts, self.layer_names, at = [], [], 0
        for mlp, rows in groups:
            block = self.params[at:at + mlp.params.size].reshape(mlp.params.shape)
            # the passed-in params path copies mlp's values into block and
            # rebinds its layers' arrays, which mlp shares, to views of it
            mlp.params = Mlp(mlp.layers, block).params
            for row in rows:
                starts.append(at + mlp.starts)
                self.layer_names += [f"{row} {name}" for name in mlp.layer_names]
                at += mlp.params.shape[-1]
        self.starts = np.concatenate(starts)
        self.sizes = np.concatenate([mlp.sizes for mlp, rows in groups for _ in rows])
        self.distill_rows = np.array([names.index(n) for n in self.config.distill_tasks], int)
        self.binary = np.array([t.kind == BINARY for t in self.config.tasks])[:, None]

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
    if cfg.mode == AUXILIARY:
        aux = make_mlp([trunk_out, 1], rng, members=len(cfg.distill_tasks))
    return RankingModel(config=cfg, trunk=trunk, tower_stack=towers, aux_stack=aux)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """1/(1+e^-z) for z >= 0 and e^z/(1+e^z) below, without overflow."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def task_score(z: np.ndarray, kind: str) -> np.ndarray:
    """A task's prediction from its hard logits: for binary tasks the sigmoid
    floored into (0, 1), for regression the raw logit (regression heads
    predict on the identity scale)."""
    if kind == BINARY:
        return np.clip(_sigmoid(z), PROB_FLOOR, 1.0 - PROB_FLOOR)
    return z


def model_forward(
    model: RankingModel,
    x: np.ndarray,
    clip: float | None = None,
    *,
    job: str | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Serving/evaluation forward pass: the hard logits, (n_tasks, n) in task
    order, and the aux logits, (n_distill, n) in distill order, or None
    without aux heads.

    No backward pass follows, so each stack's cache is dropped before the
    next stack runs; every tower and aux head is still computed and checked.
    """
    trunk_out = mlp_forward(model.trunk, x, clip, job=job)[0]
    hard = mlp_forward(model.tower_stack, trunk_out, clip, job=job)[0][..., 0]
    aux = None
    if model.aux_stack is not None:
        aux = mlp_forward(model.aux_stack, trunk_out, clip, job=job)[0][..., 0]
    return hard, aux


def _check_probabilities(p: np.ndarray) -> None:
    if np.any(p <= 0.0) or np.any(p >= 1.0):
        raise ValueError("teacher probability outside (0, 1)")


@dataclass
class LogitSeeds:
    """d(total)/d(logit), already batch-normalized.

    hard is (n_tasks, batch), including the soft seeds in direct mode; aux
    is (n_distill, batch), None without aux heads. soft_active flags the
    distilled tasks, in distill order, that got a soft seed (a covered
    label, nonzero alpha).
    """

    hard: np.ndarray
    aux: np.ndarray | None
    soft_active: np.ndarray


def total_loss(
    model: RankingModel,
    z: np.ndarray,
    z_aux: np.ndarray | None,
    labels: np.ndarray,
    soft: np.ndarray | None = None,
    present: np.ndarray | None = None,
    alpha: np.ndarray | None = None,
) -> LogitSeeds:
    """The gradient seed of the joint loss for every logit.

    The joint loss sums every task's hard loss, the batch mean of the
    sigmoid cross-entropy from the logit (binary) or the squared error
    (regression), and every distilled task's soft loss times its alpha. A
    soft loss is the same per-row loss against the teacher value, summed
    over the covered examples and divided by the full batch size, so a
    coverage gap weakens the distillation signal instead of re-weighting
    the covered examples.

    z and labels are the hard logits and labels, (n_tasks, n) in task order;
    z_aux is what model_forward returns beside z. soft holds the teacher
    values of the distilled tasks, (n_distill, n) in distill order, present
    the (n,) mask of the examples they cover, and alpha the (n_distill,)
    weight of each task's soft loss (1 when None). Without soft there is no
    soft loss. In direct mode the soft loss lands on the serving logit; in
    auxiliary mode it lands on the aux logit only, so the serving tower sees
    hard-label gradients exclusively and teacher knowledge flows through the
    trunk. Checked on every call: the shapes, and that every covered binary
    teacher value lies in (0, 1).
    """
    if np.shape(labels) != z.shape:
        raise ValueError(f"label shape {np.shape(labels)} != logit shape {z.shape}")
    y = np.asarray(labels, dtype=np.float64)
    n = z.shape[1]
    sig = _sigmoid(z)
    hard = (np.where(model.binary, sig, z) - y) * np.where(model.binary, 1.0, 2.0) / n

    rows = model.distill_rows
    active = np.zeros(rows.size, dtype=bool)
    aux = np.zeros((rows.size, n)) if model.mode == AUXILIARY else None
    if soft is not None:
        weight = np.ones(rows.size) if alpha is None else np.asarray(alpha, dtype=np.float64)
        if (np.shape(soft), np.shape(present), weight.shape) != ((rows.size, n), (n,), rows.shape):
            raise ValueError(
                f"soft {np.shape(soft)}, present {np.shape(present)} and alpha "
                f"{weight.shape} do not fit {rows.size} distilled tasks x {n} rows"
            )
        # Placeholders keep absent values out of both the seeds and the check.
        binary = model.binary[rows]
        safe = np.where(present, soft, np.where(binary, 0.5, 0.0))
        _check_probabilities(safe[binary[:, 0]])
        if model.mode == DIRECT:
            zs, sig_s = z[rows], sig[rows]
        else:
            zs, sig_s = z_aux, _sigmoid(z_aux)
        active = (weight != 0.0) & present.any()
        scale = weight[:, None] * np.where(binary, 1.0, 2.0)
        seed = scale * (np.where(binary, sig_s, zs) - safe) * present.astype(np.float64) / n
        if model.mode == DIRECT:
            hard[rows[active]] += seed[active]
        else:
            aux = seed
    return LogitSeeds(hard=hard, aux=aux, soft_active=active)


def compute_loss_and_grads(
    model: RankingModel,
    x: np.ndarray,
    labels: np.ndarray,
    soft: np.ndarray | None = None,
    present: np.ndarray | None = None,
    alpha: np.ndarray | None = None,
    clip: float | None = None,
    *,
    job: str | None = None,
) -> np.ndarray:
    """One full forward/backward pass: the exact gradient of the joint loss,
    laid out like model.params. The labels, soft targets and alpha are laid
    out as total_loss takes them."""
    trunk_out, trunk_cache = mlp_forward(model.trunk, x, clip, job=job)
    z, tower_cache = mlp_forward(model.tower_stack, trunk_out, clip, job=job)
    z_aux, aux_cache = None, None
    if model.aux_stack is not None:
        z_aux, aux_cache = mlp_forward(model.aux_stack, trunk_out, clip, job=job)
        z_aux = z_aux[..., 0]
    seeds = total_loss(model, z[..., 0], z_aux, labels, soft, present, alpha)

    tower_grads, tower_in = mlp_backward(model.tower_stack, tower_cache, seeds.hard[..., None])
    trunk_out_grad = np.zeros_like(trunk_out)
    for input_grad in tower_in:
        trunk_out_grad += input_grad

    aux_grads = np.empty(0)
    if model.aux_stack is not None:
        aux_grads, aux_in = mlp_backward(model.aux_stack, aux_cache, seeds.aux[..., None])
        # A head with no seed this step gets exact zeros, so its optimizer
        # moments still decay in lockstep, and adds nothing to the trunk.
        aux_grads[~seeds.soft_active] = 0.0
        for input_grad, active in zip(aux_in, seeds.soft_active):
            if active:
                trunk_out_grad += input_grad

    trunk_grads = mlp_backward(model.trunk, trunk_cache, trunk_out_grad, input_grad=False)[0]
    return np.concatenate([trunk_grads, tower_grads.ravel(), aux_grads.ravel()])


def apply_gradients(
    model: RankingModel,
    grads: np.ndarray,
    opt: OptState,
    cfg: TrainConfig,
    *,
    job: str | None = None,
) -> None:
    """One Adam step over the whole model; grads and opt are laid out like
    model.params, and Clippy still clips each layer on its own."""
    optimizer_step(model, grads, opt, cfg, job=job)
