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
and builds its gradient seeds on those rows.

Models train as a ModelStack: models of one trunk, tower and task layout
in one buffer, laid out block by block (every member's trunk, then every
member's towers, then only the real aux heads), which one gradient and one
Adam state share, so one forward, one loss, one backward and one optimizer
pass step every member. The stack owns the layout; each model's trunk,
towers and aux heads view its rows. Each stacked matmul makes one gemm per
member (per aux head) on that member's own operands, so a member's bits
are those of the member trained alone, as a stack of one. The teacher is
such a stack of one; model_forward serves and evaluates one model at a
time, on its views.

A training step computes the gradients of the joint loss (defined in
total_loss) and nothing else: no loss value is evaluated on the step path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .nncore import (
    Layer,
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
    head per distilled task (distill order; None without aux heads). Each
    holds its own parameters until the model joins a ModelStack, which
    points all three at views of the member's rows of its blocks.
    """

    config: ModelConfig
    trunk: Mlp
    tower_stack: Mlp
    aux_stack: Mlp | None

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


def _stacked_view(template: Mlp, params: np.ndarray) -> Mlp:
    """An Mlp with template's layers over params, a stacked buffer laid out
    like template's rows, keeping the values params holds."""
    views = template.split(params)
    return Mlp([Layer(w, b, l.activation) for l, (w, b) in zip(template.layers, views)], params)


@dataclass
class ModelStack:
    """Ranking models of one trunk, tower and task layout, trained as one.

    members are the models and jobs the name each one's divergence is
    raised with. params is laid out block by block, and trunk, towers and
    aux are the stacked MLPs over its blocks: every member's trunk (S,
    P_trunk), then every member's towers (S, n_tasks, P_tower), then the
    real aux heads (R, P_aux; aux is None when no member has any). The R
    aux rows are member by member, each in its member's distill order, and
    aux_member gives each row's member. Every member's trunk, tower_stack
    and aux_stack view its rows, so its params are always the stack's.
    starts, sizes, layer_names and layer_jobs give each layer row's offset,
    length, name ("tower ctr layer 1") and job, in buffer order.

    The soft rows are one per (member, distilled task), member by member in
    each member's distill order: the layout of the soft targets, alpha and
    the soft seeds. direct_rows and aux_rows pick the soft rows of
    direct-mode and auxiliary-mode members; direct_at gives the (member,
    tower) of each direct row, and the aux rows are the aux heads in order.
    binary marks the cross-entropy towers, (n_tasks, 1). soft_binary marks
    the cross-entropy soft rows, soft_scale holds each row's loss scale (1
    binary, 2 squared error) and placeholder its value where no teacher
    label is present.
    """

    members: list[RankingModel]
    jobs: list[str]
    params: np.ndarray = field(init=False, repr=False)
    trunk: Mlp = field(init=False, repr=False)
    towers: Mlp = field(init=False, repr=False)
    aux: Mlp | None = field(init=False, repr=False)
    aux_member: np.ndarray = field(init=False, repr=False)
    starts: np.ndarray = field(init=False, repr=False)
    sizes: np.ndarray = field(init=False, repr=False)
    layer_names: list[str] = field(init=False, repr=False)
    layer_jobs: list[str] = field(init=False, repr=False)
    binary: np.ndarray = field(init=False, repr=False)
    hard_scale: np.ndarray = field(init=False, repr=False)
    direct_rows: np.ndarray = field(init=False, repr=False)
    direct_at: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)
    aux_rows: np.ndarray = field(init=False, repr=False)
    soft_binary: np.ndarray = field(init=False, repr=False)
    soft_scale: np.ndarray = field(init=False, repr=False)
    placeholder: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        first = self.members[0]
        layout = lambda c: (c.feature_dim, c.trunk_widths, c.tower_widths, c.tasks)
        for model, job in zip(self.members, self.jobs, strict=True):
            if layout(model.config) != layout(first.config):
                raise ConfigError(
                    f"job {job!r}: its features, trunk, towers or tasks differ from "
                    f"{self.jobs[0]!r}'s, so the two cannot train as one stack"
                )
        names = [t.name for t in first.tasks]
        member, tower, has_aux = [], [], []
        for s, model in enumerate(self.members):
            distill = model.config.distill_tasks
            member += [s] * len(distill)
            tower += [names.index(n) for n in distill]
            has_aux += [model.aux_stack is not None] * len(distill)
        member, tower, has_aux = (np.array(a, int) for a in (member, tower, has_aux))
        self.direct_rows, self.aux_rows = np.flatnonzero(has_aux == 0), np.flatnonzero(has_aux)
        self.direct_at = (member[self.direct_rows], tower[self.direct_rows])
        self.aux_member = member[self.aux_rows]

        shapes = [(len(self.members), first.trunk.params.size),
                  (len(self.members), *first.tower_stack.params.shape),
                  (self.aux_member.size, first.trunk.out_dim + 1)]
        ends = np.cumsum([np.prod(shape) for shape in shapes])
        self.params = np.empty(ends[-1])
        trunk, towers, aux = (
            block.reshape(shape) for block, shape in zip(np.split(self.params, ends[:-1]), shapes)
        )
        # the passed-in params path copies each model's values into its rows
        # and rebinds its layers' arrays to views of them
        row = 0
        for s, model in enumerate(self.members):
            model.trunk = Mlp(model.trunk.layers, trunk[s])
            model.tower_stack = Mlp(model.tower_stack.layers, towers[s])
            if model.aux_stack is not None:
                heads_at = aux[row:row + len(model.config.distill_tasks)]
                model.aux_stack = Mlp(model.aux_stack.layers, heads_at)
                row += len(heads_at)
        self.trunk = _stacked_view(first.trunk, trunk)
        self.towers = _stacked_view(first.tower_stack, towers)
        heads = [m.aux_stack for m in self.members if m.aux_stack is not None]
        self.aux = _stacked_view(heads[0], aux) if heads else None

        rows = [(self.trunk, [("trunk", job) for job in self.jobs]),
                (self.towers, [(f"tower {n}", job) for job in self.jobs for n in names])]
        if self.aux is not None:
            rows.append((self.aux, [(f"aux {names[t]}", self.jobs[s])
                                    for t, s in zip(tower[self.aux_rows], self.aux_member)]))
        starts, self.layer_names, self.layer_jobs, at = [], [], [], 0
        for mlp, labels in rows:
            for label, job in labels:
                starts.append(at + mlp.starts)
                self.layer_names += [f"{label} {name}" for name in mlp.layer_names]
                self.layer_jobs += [job] * len(mlp.layer_names)
                at += mlp.params.shape[-1]
        self.starts = np.concatenate(starts)
        self.sizes = np.concatenate([mlp.sizes for mlp, labels in rows for _ in labels])
        self.binary = np.array([t.kind == BINARY for t in first.tasks])[:, None]
        self.hard_scale = np.where(self.binary, 1.0, 2.0)
        self.soft_binary = self.binary[tower, 0]
        self.soft_scale = np.where(self.soft_binary, 1.0, 2.0)[:, None]
        self.placeholder = np.where(self.soft_binary, 0.5, 0.0)[:, None]


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """1/(1+e^-z) for z >= 0 and e^z/(1+e^z) below, without overflow."""
    e = np.abs(z)
    np.negative(e, out=e)
    np.exp(e, out=e)
    p = np.where(z >= 0, 1.0, e)
    e += 1.0
    p /= e
    return p


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
    """d(total)/d(logit), already batch-normalized, of a stack.

    hard is (members, n_tasks, batch), including the soft seeds of
    direct-mode members; aux is (R, batch), one row per aux head of the
    stack in its order, None when the stack has no aux heads.
    soft_active flags the soft rows that got a soft seed (a covered label,
    nonzero alpha).
    """

    hard: np.ndarray
    aux: np.ndarray | None
    soft_active: np.ndarray


def total_loss(
    stack: ModelStack,
    z: np.ndarray,
    z_aux: np.ndarray | None,
    labels: np.ndarray,
    soft: np.ndarray | None = None,
    present: np.ndarray | None = None,
    alpha: np.ndarray | None = None,
) -> LogitSeeds:
    """The gradient seed of every member's joint loss for every logit.

    A member's joint loss sums every task's hard loss, the batch mean of
    the sigmoid cross-entropy from the logit (binary) or the squared error
    (regression), and every distilled task's soft loss times its alpha. A
    soft loss is the same per-row loss against the teacher value, summed
    over the covered examples and divided by the full batch size, so a
    coverage gap weakens the distillation signal instead of re-weighting
    the covered examples.

    z is the stack's hard logits, (members, n_tasks, n) in task order, and
    z_aux its aux logits, (R, n) in the order of its aux heads; labels are
    the hard labels every member shares, (n_tasks, n). soft holds the
    teacher value of each soft row, (soft rows, n), present the (n,) mask
    of the examples they cover, and alpha the weight of each soft row (1
    when None). Without soft there is no soft loss. A direct-mode member's soft loss
    lands on its serving logit; an auxiliary-mode member's lands on its aux
    logit only, so its serving tower sees hard-label gradients exclusively
    and teacher knowledge flows through the trunk. Checked on every call:
    the shapes, and that every covered binary teacher value lies in (0, 1).
    """
    if np.shape(labels) != z.shape[1:]:
        raise ValueError(f"label shape {np.shape(labels)} != logit shape {z.shape[1:]}")
    n = z.shape[-1]
    hard = np.where(stack.binary, _sigmoid(z), z)
    hard -= labels
    hard *= stack.hard_scale
    hard /= n

    rows = stack.soft_binary.size
    active = np.zeros(rows, dtype=bool)
    aux = None if z_aux is None else np.zeros_like(z_aux)
    if soft is not None:
        weight = np.ones(rows) if alpha is None else np.asarray(alpha, dtype=np.float64)
        if (np.shape(soft), np.shape(present), weight.shape) != ((rows, n), (n,), (rows,)):
            raise ValueError(
                f"soft {np.shape(soft)}, present {np.shape(present)} and alpha "
                f"{weight.shape} do not fit {rows} distilled tasks x {n} rows"
            )
        # Placeholders keep absent values out of both the seeds and the check.
        safe = np.where(present, soft, stack.placeholder)
        _check_probabilities(safe[stack.soft_binary])
        zs = np.empty((rows, n))
        if stack.direct_rows.size:
            zs[stack.direct_rows] = z[stack.direct_at]
        if z_aux is not None:
            zs[stack.aux_rows] = z_aux
        active = (weight != 0.0) & present.any()
        seed = np.where(stack.soft_binary[:, None], _sigmoid(zs), zs)
        seed -= safe
        seed *= weight[:, None] * stack.soft_scale
        seed *= present
        seed /= n
        if stack.direct_rows.size:
            hit = active[stack.direct_rows]
            hard[tuple(at[hit] for at in stack.direct_at)] += seed[stack.direct_rows[hit]]
        if aux is not None:
            aux = seed[stack.aux_rows]
    return LogitSeeds(hard=hard, aux=aux, soft_active=active)


def compute_loss_and_grads(
    stack: ModelStack,
    x: np.ndarray,
    labels: np.ndarray,
    soft: np.ndarray | None = None,
    present: np.ndarray | None = None,
    alpha: np.ndarray | None = None,
    clip: float | None = None,
) -> np.ndarray:
    """One forward/backward pass of every member on the batch x: the exact
    gradient of each member's joint loss, laid out like stack.params. The
    labels, soft targets and alpha are laid out as total_loss takes them.

    Each of the trunk, the towers and the aux heads runs once for the whole
    stack; a non-finite output raises naming the first member it shows in.
    """
    trunk_out, trunk_cache = mlp_forward(stack.trunk, x, clip, job=stack.jobs)
    z, tower_cache = mlp_forward(stack.towers, trunk_out[:, None], clip, job=stack.jobs)
    z_aux, aux_cache = None, None
    if stack.aux is not None:  # each aux head on its member's trunk output
        aux_jobs = [stack.jobs[s] for s in stack.aux_member]
        z_aux, aux_cache = mlp_forward(stack.aux, trunk_out[stack.aux_member], clip, job=aux_jobs)
        z_aux = z_aux[..., 0]
    seeds = total_loss(stack, z[..., 0], z_aux, labels, soft, present, alpha)

    tower_grads, tower_in = mlp_backward(stack.towers, tower_cache, seeds.hard[..., None])
    trunk_out_grad = tower_in.sum(axis=1)  # task by task, as the towers' order
    grads = [tower_grads]
    if stack.aux is not None:
        # A head with no seed this step gets exact zeros, so its optimizer
        # moments still decay in lockstep, and adds nothing to the trunk.
        active = seeds.soft_active[stack.aux_rows]
        if active.any():
            aux_grads, aux_in = mlp_backward(stack.aux, aux_cache, seeds.aux[..., None])
            aux_grads[~active] = 0.0
            for r in np.flatnonzero(active):  # head by head, in order
                trunk_out_grad[stack.aux_member[r]] += aux_in[r]
        else:
            aux_grads = np.zeros(stack.aux.params.shape)
        grads.append(aux_grads)

    trunk_grads = mlp_backward(stack.trunk, trunk_cache, trunk_out_grad, input_grad=False)[0]
    return np.concatenate([trunk_grads.ravel(), *(g.ravel() for g in grads)])


def apply_gradients(stack: ModelStack, grads: np.ndarray, opt: OptState, cfg: TrainConfig) -> None:
    """One Adam step over the whole stack; grads and opt are laid out like
    stack.params, and Clippy still clips each member's layers on their own.
    A non-finite gradient raises naming its layer and member."""
    optimizer_step(stack, grads, opt, cfg, job=stack.layer_jobs)
