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
view one flat buffer, model.params.

Models train as a ModelStack: models of one trunk, tower and task layout
copied into one buffer, which one gradient and one Adam state share, with
a member axis on the trunk, the towers and the aux heads, so one forward,
one loss, one backward and one optimizer pass step every member. Each
stacked matmul makes one gemm per member on that member's own operands,
so a member's bits are those of the member trained alone, as a stack of
one. The teacher is such a stack of one; model_forward serves and
evaluates one model at a time.

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
        self.bind(np.empty(sum(mlp.params.size for mlp, _ in groups)))
        starts, self.layer_names, at = [], [], 0
        for mlp, rows in groups:
            for row in rows:
                starts.append(at + mlp.starts)
                self.layer_names += [f"{row} {name}" for name in mlp.layer_names]
                at += mlp.params.shape[-1]
        self.starts = np.concatenate(starts)
        self.sizes = np.concatenate([mlp.sizes for mlp, rows in groups for _ in rows])
        self.distill_rows = np.array([names.index(n) for n in self.config.distill_tasks], int)
        self.binary = np.array([t.kind == BINARY for t in self.config.tasks])[:, None]

    def bind(self, params: np.ndarray) -> None:
        """Make params, a flat buffer of this model's size, the model's own:
        copy the values in and rebind the trunk and the stacks to views of it."""
        at = 0
        for mlp in (self.trunk, self.tower_stack, self.aux_stack):
            if mlp is None:
                continue
            block = params[at:at + mlp.params.size].reshape(mlp.params.shape)
            # the passed-in params path copies mlp's values into block and
            # rebinds its layers' arrays, which mlp shares, to views of it
            mlp.params = Mlp(mlp.layers, block).params
            at += mlp.params.size
        self.params = params

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


def _stacked_view(template: Mlp, params: np.ndarray) -> Mlp:
    """An Mlp with template's layers over params, a stacked buffer laid out
    like template's rows, keeping the values params holds."""
    views = template.split(params)
    return Mlp([Layer(w, b, l.activation) for l, (w, b) in zip(template.layers, views)], params)


@dataclass
class ModelStack:
    """Ranking models of one trunk, tower and task layout, trained as one.

    members are the models and jobs the name each one's divergence is
    raised with. params holds every member's params in member order, each
    member's block padded with zeros to the size of the member with most
    aux heads, and every member is rebound to view its block, so its
    params are always the stack's. Over params, trunk stacks the members' trunks
    (S,), towers their towers (S, n_tasks) and aux, None when no member has
    aux heads, their aux heads (S, most aux heads): a member with fewer
    heads owns zero slots, which compute zero logits and take no gradient.
    starts, sizes, layer_names and layer_jobs give each member layer's
    offset, length (its member's padding counted in its member's last
    layer), name and job, as a RankingModel's do.

    The soft rows are one per (member, distilled task), member by member in
    each member's distill order: the layout of the soft targets, alpha and
    the soft seeds. direct_rows and aux_rows pick the soft rows of
    direct-mode and auxiliary-mode members, direct_at gives the (member,
    tower) and aux_at the (member, aux slot) of each. soft_binary marks the
    cross-entropy soft rows, soft_scale holds each row's loss scale (1
    binary, 2 squared error) and placeholder its value where no teacher
    label is present.
    """

    members: list[RankingModel]
    jobs: list[str]
    params: np.ndarray = field(init=False, repr=False)
    trunk: Mlp = field(init=False, repr=False)
    towers: Mlp = field(init=False, repr=False)
    aux: Mlp | None = field(init=False, repr=False)
    starts: np.ndarray = field(init=False, repr=False)
    sizes: np.ndarray = field(init=False, repr=False)
    layer_names: list[str] = field(init=False, repr=False)
    layer_jobs: list[str] = field(init=False, repr=False)
    binary: np.ndarray = field(init=False, repr=False)
    hard_scale: np.ndarray = field(init=False, repr=False)
    direct_rows: np.ndarray = field(init=False, repr=False)
    direct_at: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)
    aux_rows: np.ndarray = field(init=False, repr=False)
    aux_at: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)
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
        heads = [m for m in self.members if m.aux_stack is not None]
        n_aux = max((len(m.config.distill_tasks) for m in heads), default=0)
        trunk_size, tower_shape = first.trunk.params.size, first.tower_stack.params.shape
        towers_at = trunk_size + tower_shape[0] * tower_shape[1]
        head_size = first.trunk.out_dim + 1
        width = towers_at + n_aux * head_size
        self.params = np.zeros(len(self.members) * width)
        rows = self.params.reshape(len(self.members), width)
        starts, sizes, self.layer_names, self.layer_jobs = [], [], [], []
        member, tower, slot, has_aux = [], [], [], []
        for s, (model, job) in enumerate(zip(self.members, self.jobs)):
            model.bind(rows[s, :model.params.size])
            starts.append(model.starts + s * width)
            sizes.append(model.sizes.copy())
            sizes[-1][-1] += width - model.params.size
            self.layer_names += model.layer_names
            self.layer_jobs += [job] * len(model.layer_names)
            member += [s] * model.distill_rows.size
            tower += model.distill_rows.tolist()
            slot += range(model.distill_rows.size)
            has_aux += [model.aux_stack is not None] * model.distill_rows.size
        self.starts, self.sizes = np.concatenate(starts), np.concatenate(sizes)
        self.trunk = _stacked_view(first.trunk, rows[:, :trunk_size])
        towers = rows[:, trunk_size:towers_at].reshape(len(rows), *tower_shape)
        self.towers = _stacked_view(first.tower_stack, towers)
        self.aux = None
        if heads:
            aux = rows[:, towers_at:].reshape(len(rows), n_aux, head_size)
            self.aux = _stacked_view(heads[0].aux_stack, aux)
        self.binary = first.binary
        self.hard_scale = np.where(self.binary, 1.0, 2.0)
        member, tower, slot, has_aux = (np.array(a, int) for a in (member, tower, slot, has_aux))
        self.direct_rows, self.aux_rows = np.flatnonzero(has_aux == 0), np.flatnonzero(has_aux)
        self.direct_at = (member[self.direct_rows], tower[self.direct_rows])
        self.aux_at = (member[self.aux_rows], slot[self.aux_rows])
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
    direct-mode members; aux is (members, aux slots, batch), zero in the
    slots without a head, None when the stack has no aux heads.
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
    z_aux its aux logits, (members, aux slots, n); labels are the hard
    labels every member shares, (n_tasks, n). soft holds the teacher value
    of each soft row, (soft rows, n), present the (n,) mask of the examples
    they cover, and alpha the weight of each soft row (1 when None).
    Without soft there is no soft loss. A direct-mode member's soft loss
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
            zs[stack.aux_rows] = z_aux[stack.aux_at]
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
            aux[stack.aux_at] = seed[stack.aux_rows]
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
    heads_in = trunk_out[:, None]  # each member's trunk output, for each of its heads
    z, tower_cache = mlp_forward(stack.towers, heads_in, clip, job=stack.jobs)
    z_aux, aux_cache = None, None
    if stack.aux is not None:
        z_aux, aux_cache = mlp_forward(stack.aux, heads_in, clip, job=stack.jobs)
        z_aux = z_aux[..., 0]
    seeds = total_loss(stack, z[..., 0], z_aux, labels, soft, present, alpha)

    tower_grads, tower_in = mlp_backward(stack.towers, tower_cache, seeds.hard[..., None])
    trunk_out_grad = tower_in.sum(axis=1)  # task by task, as the towers' order
    grads = [tower_grads]
    if stack.aux is not None:
        # A head with no seed this step gets exact zeros, so its optimizer
        # moments still decay in lockstep, and adds nothing to the trunk.
        active = np.zeros(stack.aux.params.shape[:-1], dtype=bool)
        active[stack.aux_at] = seeds.soft_active[stack.aux_rows]
        if active.any():
            aux_grads, aux_in = mlp_backward(stack.aux, aux_cache, seeds.aux[..., None])
            aux_grads[~active] = 0.0
            for member, head in zip(*np.nonzero(active)):
                trunk_out_grad[member] += aux_in[member, head]
        else:
            aux_grads = np.zeros(stack.aux.params.shape)
        grads.append(aux_grads)

    trunk_grads = mlp_backward(stack.trunk, trunk_cache, trunk_out_grad, input_grad=False)[0]
    members = trunk_grads.shape[0]
    return np.concatenate([trunk_grads, *(g.reshape(members, -1) for g in grads)], axis=1).ravel()


def apply_gradients(stack: ModelStack, grads: np.ndarray, opt: OptState, cfg: TrainConfig) -> None:
    """One Adam step over the whole stack; grads and opt are laid out like
    stack.params, and Clippy still clips each member's layers on their own.
    A non-finite gradient raises naming its layer and member."""
    optimizer_step(stack, grads, opt, cfg, job=stack.layer_jobs)
