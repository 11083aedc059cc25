"""Online distillation pipeline.

One teacher trains continuously on the stream, publishes soft labels for
selected tasks into the columnar store, and a fleet of students trains on
the same stream consuming those labels through per-step snapshots. The
students of a run train as one ranker.ModelStack, but no student reads
another's state: every stacked kernel computes each member's values exactly
as a run of that member alone would, so a student's trajectory depends only
on its own init, the stream, and the store bytes, and adding or removing
fleet members cannot change anyone else's params.

Per step t:
  1. draw batch_t from the stream
  2. teacher takes one gradient step on batch_t hard labels unless frozen
  3. on write steps, teacher infers on batch_t and appends one segment; a
     frozen teacher keeps writing (stale) labels
  4. when any student distills, open one snapshot and look batch_t up in
     it once; every student of the step shares that lookup
  5. the student stack trains on batch_t in one step: hard labels plus
     whatever soft labels the snapshot covers (coverage < 1 when writes are
     throttled)

Every model trains in a stack: the teacher in a stack of its one model, the
students in one stack built by run_online. Each training step of a stack
makes one forward, one loss, one backward and one optimizer pass for all
its members, taking the gradients of each member's joint loss and applying
them; no loss value is computed.

Labels travel task-major from the stream to the loss: a batch's hard labels
are one (n_tasks, batch) array in stream-task order, which every model's
towers share, and a snapshot lookup returns one (store tasks, batch) block
of teacher values beside one present mask. The store's schema is the
teacher's write_tasks; run_online works out once which store row each soft
row of the student stack reads (student by student, each in its distill
order), and each step gathers those rows into one fresh block beside the
mask as it is.

A segment's teacher_version is the teacher's optimizer step count at the
write. Because every student of a step takes its soft labels from the same
lookup, the whole fleet consumes byte-identical soft labels; each student's
rows of the gathered block are its own copy beside the one read-only
present mask, so no student can change another's.
"""

from __future__ import annotations

import csv
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .datagen import (
    Batch,
    GenConfig,
    WorldState,
    _domain,
    fork,
    init_world,
    next_batch,
    true_task_value,
)
from .errors import ConfigError, DivergenceError, SchemaError, StoreError
from .labelstore import LabelStore, inspect_store
from .metrics import (
    OnlineSimConfig,
    calibration_ratio,
    draw_slates,
    policy_metrics,
    rank_auc,
    rmse,
)
from .nncore import OptState, TrainConfig
from .ranker import (
    AUXILIARY,
    BINARY,
    DIRECT,
    NO_DISTILL,
    PET,
    PST,
    REGRESSION,
    ModelConfig,
    ModelStack,
    RankingModel,
    apply_gradients,
    build_model,
    compute_loss_and_grads,
    model_forward,
    task_score,
)

CSV_HEADER = ("step", "job", "task", "metric", "value")
JOB_LEVEL_TASK = "-"
# candidate rows per block of the online simulation, which draws and scores
# its slates one block at a time so that its memory does not grow with n_slates
_EVAL_ROWS = 4096


def model_init_rng(seed: int, job_name: str) -> np.random.Generator:
    """Init generator keyed by (seed, job name) only, so a job's starting
    params never depend on which other jobs share the run."""
    return np.random.default_rng(
        np.random.SeedSequence([seed, _domain("model-init"), _domain(job_name)])
    )


# ---------------------------------------------------------------------------
# metric rows


@dataclass
class MetricRow:
    step: int
    job: str
    task: str
    metric: str
    value: float


class MetricsLog:
    def __init__(self, rows: list[MetricRow] | None = None):
        self.rows: list[MetricRow] = rows if rows is not None else []

    def add(self, step, job, task, metric, value) -> None:
        self.rows.append(MetricRow(step, job, task, metric, float(value)))


def write_metrics_csv(path, rows) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(CSV_HEADER)
        w.writerows((r.step, r.job, r.task, r.metric, repr(r.value)) for r in rows)


def read_metrics_csv(path) -> list[MetricRow]:
    try:
        with open(path, newline="") as f:
            records = list(csv.reader(f))
    except (OSError, UnicodeDecodeError, csv.Error) as e:
        raise SchemaError(f"cannot read {path}: {e}") from None
    header = records[0] if records else None
    if header is None or tuple(header) != CSV_HEADER:
        raise SchemaError(
            f"{path}: expected header {','.join(CSV_HEADER)}, "
            f"got {','.join(header) if header else '<empty>'}"
        )
    rows = []
    for line_no, rec in enumerate(records[1:], start=2):
        if not rec:
            continue
        if len(rec) != len(CSV_HEADER):
            raise SchemaError(f"{path}:{line_no}: wrong column count")
        step, job, task, metric, value = rec
        try:
            rows.append(MetricRow(int(step), job, task, metric, float(value)))
        except ValueError as e:
            raise SchemaError(f"{path}:{line_no}: {e}") from None
    return rows


# ---------------------------------------------------------------------------
# jobs


@dataclass
class TeacherJob:
    """The continuously trained writer job. It trains as stack, a stack of
    its one model, and opt is that stack's Adam state, laid out like
    stack.params."""

    name: str
    model: RankingModel
    train: TrainConfig
    write_tasks: tuple[str, ...]
    write_every: int
    freeze_at: int | None
    bias: dict[str, float]
    stack: ModelStack = field(init=False, repr=False)
    opt: OptState = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.stack = ModelStack([self.model], [self.name])
        self.opt = OptState.for_params(self.stack.params)
        names = {t.name for t in self.model.tasks}
        for task in self.write_tasks:
            if task not in names:
                raise ConfigError(f"write task {task!r} not in model tasks")

    @property
    def version(self) -> int:
        """Teacher version written into segments: its update count."""
        return self.opt.step


@dataclass
class StudentJob:
    """A distilling or plain student: one member of its run's student stack,
    which run_online builds and steps. alpha maps distilled tasks to their
    soft-loss weight (1 when absent); distill_alpha holds it as one weight
    per distilled task, in distill order."""

    name: str
    model: RankingModel
    train: TrainConfig
    alpha: dict[str, float]
    distill_alpha: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.distill_alpha = np.array([float(self.alpha.get(t, 1.0)) for t in self.distill_tasks])

    @property
    def distill_tasks(self) -> tuple[str, ...]:
        return self.model.config.distill_tasks


@dataclass(frozen=True)
class ScheduleConfig:
    total_steps: int
    batch_size: int = 256
    eval_every: int = 200  # 0 means final eval only
    eval_batches: int = 4
    online_sim: OnlineSimConfig | None = None
    online_sim_every: int = 0  # 0 means final eval point only
    durable_store: bool = False

    def __post_init__(self) -> None:
        if self.total_steps < 1:
            raise ConfigError("total_steps must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.eval_every < 0 or self.eval_batches < 1:
            raise ConfigError("bad eval schedule")
        if self.online_sim_every < 0:
            raise ConfigError(f"online_sim_every must be >= 0, got {self.online_sim_every}")


# ---------------------------------------------------------------------------
# core loop


def _teacher_write(teacher: TeacherJob, writer, batch: Batch) -> None:
    z, _ = model_forward(
        teacher.model, batch.x, clip=teacher.train.activation_clip, job=teacher.name
    )
    values = {
        t.name: task_score(zt, t.kind).astype(np.float32)
        for t, zt in zip(teacher.model.tasks, z)
        if t.name in teacher.write_tasks
    }
    writer.append(batch.example_ids, values, teacher_version=teacher.version)


def _teacher_train(teacher: TeacherJob, batch: Batch, t: int) -> None:
    if teacher.freeze_at is not None and t >= teacher.freeze_at:
        return
    labels = batch.labels
    if teacher.bias:
        factors = [teacher.bias.get(t.name, 1.0) for t in teacher.model.tasks]
        labels = labels * np.array(factors)[:, None]
    grads = compute_loss_and_grads(
        teacher.stack, batch.x, labels, clip=teacher.train.activation_clip
    )
    apply_gradients(teacher.stack, grads, teacher.opt, teacher.train)


def _simulate_online(
    log: MetricsLog,
    step: int,
    ev: WorldState,
    rng: np.random.Generator,
    sim: OnlineSimConfig,
    jobs: list[tuple[str, RankingModel, TrainConfig]],
) -> None:
    """Engagement and satisfaction rows of every job's argmax policy.

    The slates are drawn and scored one block of at most _EVAL_ROWS
    candidate rows at a time (one slate when a slate is longer). The blocks
    come from rng in order and every job scores each block, so the draws and
    each job's per-slate picks are those of one draw of all n_slates, and one
    mean per job over its picks gives the same sums.
    """
    per = max(1, _EVAL_ROWS // sim.slate_size)
    picked = np.empty((len(jobs), 2, sim.n_slates))
    policy = ev.config.task(sim.policy_task)
    row = ev.config.tasks.index(policy)
    for lo in range(0, sim.n_slates, per):
        hi = min(lo + per, sim.n_slates)
        slates = draw_slates(ev, replace(sim, n_slates=hi - lo), rng)
        flat = slates.x.reshape(-1, ev.config.feature_dim)
        for j, (name, model, train) in enumerate(jobs):
            z, _ = model_forward(model, flat, clip=train.activation_clip, job=name)
            scores = task_score(z[row], policy.kind).reshape(hi - lo, sim.slate_size)
            picked[j, 0, lo:hi], picked[j, 1, lo:hi] = policy_metrics(slates, scores)
    for (name, _, _), (engagement, satisfaction) in zip(jobs, picked):
        log.add(step, name, JOB_LEVEL_TASK, "engagement", engagement.mean())
        log.add(step, name, JOB_LEVEL_TASK, "satisfaction", satisfaction.mean())


def _eval_point(
    log: MetricsLog,
    step: int,
    eval_idx: int,
    world: WorldState,
    teacher: TeacherJob,
    students: list[StudentJob],
    sched: ScheduleConfig,
    run_online_sim: bool,
) -> None:
    ev = fork(world, "eval", eval_idx)
    batches = [next_batch(ev, sched.batch_size) for _ in range(sched.eval_batches)]
    x = np.concatenate([b.x for b in batches])
    y = np.concatenate([b.labels for b in batches], axis=1)
    for t, labels in zip(world.config.tasks, y):
        if t.kind == BINARY and labels.min() == labels.max():
            raise ConfigError(
                f"the eval set at step {step} holds only one class of binary task "
                f"{t.name!r}: {labels.size} rows (batch_size {sched.batch_size} x "
                f"eval_batches {sched.eval_batches}) are too few for its AUC"
            )
    true_reg = {
        t.name: true_task_value(ev, x, t.name)
        for t in world.config.tasks
        if t.kind != BINARY
    }
    jobs: list[tuple[str, RankingModel, TrainConfig]] = [
        (teacher.name, teacher.model, teacher.train)
    ]
    jobs += [(s.name, s.model, s.train) for s in students]
    for name, model, train in jobs:
        z, _ = model_forward(model, x, clip=train.activation_clip, job=name)
        for spec, zt, yt in zip(model.tasks, z, y):
            value = task_score(zt, spec.kind)
            if spec.kind == BINARY:
                log.add(step, name, spec.name, "auc", rank_auc(zt, yt))
                log.add(step, name, spec.name, "calibration", calibration_ratio(value, yt))
            else:
                log.add(step, name, spec.name, "rmse", rmse(value, yt))
                log.add(step, name, spec.name, "rmse_true", rmse(value, true_reg[spec.name]))
                log.add(step, name, spec.name, "calibration", calibration_ratio(value, yt))
    log.add(step, teacher.name, JOB_LEVEL_TASK, "teacher_version", teacher.version)
    if run_online_sim and sched.online_sim is not None:
        rng = world.derive_rng("slates", eval_idx)
        _simulate_online(log, step, ev, rng, sched.online_sim, jobs)


def run_online(
    world: WorldState,
    teacher: TeacherJob,
    students: list[StudentJob],
    sched: ScheduleConfig,
    store_root,
) -> MetricsLog:
    """Drive the full loop; returns the metrics log.

    store_root must hold no committed segments: students would read them as
    if this run's teacher had written them.
    """
    for job in [teacher, *students]:
        if job.model.tasks != world.config.tasks:
            raise ConfigError(f"job {job.name!r}: its tasks are not the stream's, in order")
    if teacher.write_every < 1:
        raise ConfigError(
            f"teacher {teacher.name!r}: write_every must be >= 1, got {teacher.write_every}"
        )
    regression = {t.name for t in world.config.tasks if t.kind == REGRESSION}
    for task in teacher.bias:
        if task not in regression:
            raise ConfigError(
                f"teacher {teacher.name!r}: bias on {task!r}, which is not a regression "
                "task of the stream"
            )
    for s in students:
        for task in s.distill_tasks:
            if task not in teacher.write_tasks:
                raise ConfigError(
                    f"student {s.name!r} distills {task!r}, which teacher "
                    f"{teacher.name!r} does not write"
                )
        if s.train != students[0].train:
            raise ConfigError(
                f"student {s.name!r}: its training config differs from "
                f"{students[0].name!r}'s; a run's students train as one stack"
            )
    fleet = None
    if students:  # the student stack, its Adam state, training config and alphas
        fleet = ModelStack([s.model for s in students], [s.name for s in students])
        fleet_opt, train = OptState.for_params(fleet.params), students[0].train
        alpha = np.concatenate([s.distill_alpha for s in students])
    # the store row each soft row of the fleet reads, of the schema teacher.write_tasks
    store_rows = np.array(
        [teacher.write_tasks.index(t) for s in students for t in s.distill_tasks], int
    )
    store_root = Path(store_root)
    store_root.mkdir(parents=True, exist_ok=True)
    if inspect_store(store_root).segments:
        raise StoreError(f"store {store_root} already holds segments; use an empty directory")
    store = LabelStore(store_root)
    distilling = store_rows.size > 0
    log = MetricsLog()
    cov_sum, cov_n = 0.0, 0  # every distilling student reads the step's one lookup
    eval_idx = 0
    present = values = None
    write_schema = [(n, world.config.task(n).kind) for n in teacher.write_tasks]
    with (
        store.writer(write_schema, durable=sched.durable_store)
        if write_schema
        else nullcontext()
    ) as writer:
        for t in range(sched.total_steps):
            batch = next_batch(world, sched.batch_size)
            _teacher_train(teacher, batch, t)
            if writer is not None and t % teacher.write_every == 0:
                _teacher_write(teacher, writer, batch)
            if distilling:
                present, values = store.open_snapshot().lookup_batch(batch.example_ids)
                present.flags.writeable = False
                cov_sum += float(present.mean())
                cov_n += 1
            if fleet is not None:
                soft = values[store_rows] if distilling else None
                grads = compute_loss_and_grads(
                    fleet, batch.x, batch.labels, soft, present, alpha, train.activation_clip
                )
                apply_gradients(fleet, grads, fleet_opt, train)
            final = t == sched.total_steps - 1
            periodic = sched.eval_every > 0 and (t + 1) % sched.eval_every == 0
            if final or periodic:
                eval_idx += 1
                sim_due = sched.online_sim is not None and (
                    final
                    or (
                        sched.online_sim_every > 0
                        and eval_idx % sched.online_sim_every == 0
                    )
                )
                _eval_point(log, t + 1, eval_idx, world, teacher, students, sched, sim_due)
                if cov_n:
                    for s in students:
                        if s.distill_tasks:
                            log.add(t + 1, s.name, JOB_LEVEL_TASK, "coverage", cov_sum / cov_n)
                    cov_sum, cov_n = 0.0, 0
    return log


# ---------------------------------------------------------------------------
# experiment families


FAMILY_DISTILL = "distill-strategy"
FAMILY_SCALE = "teacher-scale"
FAMILY_OBJECTIVE = "objective-selection"
FAMILY_CUSTOM = "custom"
FAMILIES = (FAMILY_DISTILL, FAMILY_SCALE, FAMILY_OBJECTIVE, FAMILY_CUSTOM)

CONTROL_NAME = "control"
TEACHER_NAME = "teacher"  # the custom family's one teacher


@dataclass
class StudentDef:
    name: str
    mode: str = NO_DISTILL
    distill: tuple[str, ...] = ()
    alpha: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.mode == "none":  # the YAML spelling of no distillation
            self.mode = NO_DISTILL
        for task in self.alpha:
            if task not in self.distill:
                raise ConfigError(
                    f"student {self.name!r}: alpha set for non-distilled task {task!r}"
                )


@dataclass
class TeacherDef:
    name: str
    scale: int
    write_tasks: tuple[str, ...]


@dataclass
class RunDef:
    run_id: str
    teacher: TeacherDef
    students: list[StudentDef]


@dataclass
class ExperimentConfig:
    family: str
    seeds: tuple[int, ...]
    gen: GenConfig
    schedule: ScheduleConfig
    teacher_trunk: tuple[int, ...] = (48, 24)
    student_trunk: tuple[int, ...] = (32, 16)
    tower_widths: tuple[int, ...] = (12,)
    teacher_train: TrainConfig = field(default_factory=TrainConfig)
    student_train: TrainConfig = field(default_factory=TrainConfig)
    teacher_scales: tuple[int, ...] = (2,)  # one scale outside teacher-scale
    distill_tasks: tuple[str, ...] = ()
    distill_mode: str = AUXILIARY
    alpha: dict[str, float] = field(default_factory=dict)
    bias: dict[str, float] = field(default_factory=dict)
    freeze_at: int | None = None
    write_every: int = 1
    students: tuple[StudentDef, ...] = ()

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown family {self.family!r}; pick one of {FAMILIES}")
        if not self.seeds:
            raise ConfigError("need at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"seeds: duplicate seeds in {list(self.seeds)}")
        if min(self.seeds) < 0:
            raise ConfigError(f"seeds: must be >= 0, got {min(self.seeds)}")
        if len(set(self.teacher_scales)) != len(self.teacher_scales):  # one run each
            raise ConfigError("model.teacher_scales: duplicate scales")
        if any(s < 1 for s in self.teacher_scales):
            raise ConfigError(
                f"model.teacher_scales: scales must be >= 1, got {list(self.teacher_scales)}"
            )
        if self.family != FAMILY_SCALE and len(self.teacher_scales) != 1:
            raise ConfigError(
                f"model.teacher_scales: the {self.family} family takes exactly one scale"
            )
        widths = {
            "model.teacher_trunk": self.teacher_trunk,
            "model.student_trunk": self.student_trunk,
            "model.tower": self.tower_widths,
        }
        for path, values in widths.items():
            if any(w < 1 for w in values):
                raise ConfigError(f"{path}: widths must be >= 1, got {list(values)}")
        if self.freeze_at is not None and self.freeze_at < 0:
            raise ConfigError(f"teacher.freeze_at: must be >= 0, got {self.freeze_at}")
        if self.write_every < 1:
            raise ConfigError(f"teacher.write_every: must be >= 1, got {self.write_every}")
        names = {t.name for t in self.gen.tasks}
        for task in self.distill_tasks:
            if task not in names:
                raise ConfigError(f"distill.tasks: task {task!r} not generated by the stream")
        for path, tasks in (("distill.alpha", self.alpha), ("teacher.bias", self.bias)):
            for task in tasks:
                if task not in names:
                    raise ConfigError(f"{path}: unknown task {task!r}")
        for task in self.bias:
            if self.gen.task(task).kind == BINARY:
                raise ConfigError(
                    f"teacher.bias: label bias is multiplicative and only fits "
                    f"regression tasks, not {task!r}"
                )
        sim = self.schedule.online_sim
        if sim is not None:
            for task in (sim.policy_task, sim.satisfaction_task):
                if task not in names:
                    raise ConfigError(
                        f"schedule.online_sim: task {task!r} not generated by the stream"
                    )
        if self.distill_mode not in (DIRECT, AUXILIARY):
            raise ConfigError("distill_mode must be a distillation mode")
        taken = {TEACHER_NAME}
        for i, sdef in enumerate(self.students):
            if sdef.name in taken:
                raise ConfigError(f"students[{i}]: job name {sdef.name!r} is already taken")
            taken.add(sdef.name)
        # the checks every student's model would otherwise fail mid-run; a
        # custom run's students are the students list, the others' come from
        # distill.tasks
        for run in build_runs(self):
            for i, sdef in enumerate(run.students):
                try:
                    _student_model_config(self, sdef)
                except ConfigError as e:
                    where = f"students[{i}]" if self.family == FAMILY_CUSTOM else "distill.tasks"
                    raise ConfigError(f"{where}: {e}") from None


def _alpha_map(cfg: ExperimentConfig, tasks: tuple[str, ...]) -> dict[str, float]:
    return {t: cfg.alpha.get(t, 1.0) for t in tasks}


def _run(cfg: ExperimentConfig, run_id, teacher_name, scale, students) -> RunDef:
    """A run whose teacher writes the tasks its students distill, in stream
    order."""
    distilled = {t for s in students for t in s.distill}
    write = tuple(t.name for t in cfg.gen.tasks if t.name in distilled)
    return RunDef(run_id, TeacherDef(teacher_name, scale, write), students)


def build_runs(cfg: ExperimentConfig) -> list[RunDef]:
    """Expand a family into concrete runs (teacher + student set per run)."""
    tasks, mode = cfg.distill_tasks, cfg.distill_mode
    if cfg.family == FAMILY_SCALE:
        runs = []
        for scale in cfg.teacher_scales:
            students = [StudentDef(f"student-{scale}x", mode, tasks, _alpha_map(cfg, tasks))]
            if scale == min(cfg.teacher_scales):  # control rides along in the base run
                students.insert(0, StudentDef(CONTROL_NAME))
            runs.append(_run(cfg, f"t{scale}x", f"teacher-{scale}x", scale, students))
        return runs
    if cfg.family == FAMILY_DISTILL:
        students = [
            StudentDef(CONTROL_NAME),
            StudentDef("direct", DIRECT, tasks, _alpha_map(cfg, tasks)),
            StudentDef("auxiliary", AUXILIARY, tasks, _alpha_map(cfg, tasks)),
        ]
    elif cfg.family == FAMILY_OBJECTIVE:
        all_tasks = tuple(t.name for t in cfg.gen.tasks)
        pet = tuple(t.name for t in cfg.gen.tasks if t.category == PET)
        pst = tuple(t.name for t in cfg.gen.tasks if t.category == PST)
        if not pet or not pst:
            raise ConfigError("stream.tasks: objective-selection needs PET and PST tasks")
        students = [
            StudentDef(CONTROL_NAME),
            StudentDef("pet", mode, pet, _alpha_map(cfg, pet)),
            StudentDef("pet-pst", mode, pet + pst, _alpha_map(cfg, pet + pst)),
            StudentDef("pet-pst-others", mode, all_tasks, _alpha_map(cfg, all_tasks)),
        ]
    elif cfg.students:  # custom: explicit students, one run
        students = list(cfg.students)
    else:
        raise ConfigError("students: the custom family needs at least one student")
    (scale,) = cfg.teacher_scales
    return [_run(cfg, "main", TEACHER_NAME, scale, students)]


def make_teacher_job(cfg: ExperimentConfig, tdef: TeacherDef, seed: int) -> TeacherJob:
    """tdef's teacher with the config's label bias, freeze step and write cadence."""
    mc = ModelConfig(
        feature_dim=cfg.gen.feature_dim,
        trunk_widths=tuple(w * tdef.scale for w in cfg.teacher_trunk),
        tower_widths=cfg.tower_widths,
        tasks=cfg.gen.tasks,
        mode=NO_DISTILL,
    )
    model = build_model(mc, model_init_rng(seed, tdef.name))
    return TeacherJob(
        name=tdef.name,
        model=model,
        train=cfg.teacher_train,
        write_tasks=tuple(tdef.write_tasks),
        write_every=cfg.write_every,
        freeze_at=cfg.freeze_at,
        bias=dict(cfg.bias),
    )


def _student_model_config(cfg: ExperimentConfig, sdef: StudentDef) -> ModelConfig:
    return ModelConfig(
        feature_dim=cfg.gen.feature_dim,
        trunk_widths=cfg.student_trunk,
        tower_widths=cfg.tower_widths,
        tasks=cfg.gen.tasks,
        mode=sdef.mode,
        distill_tasks=tuple(sdef.distill),
    )


def make_student_job(cfg: ExperimentConfig, sdef: StudentDef, seed: int) -> StudentJob:
    model = build_model(_student_model_config(cfg, sdef), model_init_rng(seed, sdef.name))
    return StudentJob(
        name=sdef.name,
        model=model,
        train=cfg.student_train,
        alpha=dict(sdef.alpha),
    )


def seed_job_name(seed: int, job: str) -> str:
    return f"s{seed}/{job}"


def split_job_name(job: str) -> tuple[int, str]:
    """Inverse of seed_job_name. A name without the s<seed>/ prefix, as in
    a CSV written from a bare run_online log, comes back whole with seed -1."""
    prefix, sep, rest = job.partition("/")
    if sep and prefix.startswith("s") and prefix[1:].isdigit():
        return int(prefix[1:]), rest
    return -1, job


def run_experiment(
    cfg: ExperimentConfig, work_dir, *, threads: int = 1, progress=None
) -> MetricsLog:
    """Execute family runs for every seed; returns the combined log with
    jobs renamed to s<seed>/<job>, as is the job of a DivergenceError.
    threads parallelizes (seed, run) cells."""
    if threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")
    work_dir = Path(work_dir)
    runs = build_runs(cfg)
    cells = [(seed, run) for seed in cfg.seeds for run in runs]

    def exec_cell(cell) -> list[MetricRow]:
        seed, run = cell
        world = init_world(cfg.gen, seed)
        teacher = make_teacher_job(cfg, run.teacher, seed)
        students = [make_student_job(cfg, sdef, seed) for sdef in run.students]
        store_root = work_dir / f"{run.run_id}-s{seed}"
        try:
            log = run_online(world, teacher, students, cfg.schedule, store_root)
        except DivergenceError as e:  # every model of a cell raises with its job
            raise DivergenceError(str(e), job=seed_job_name(seed, e.job)) from e
        if progress is not None:
            progress(f"finished run {run.run_id} seed {seed}")
        for r in log.rows:
            r.job = seed_job_name(seed, r.job)
        return log.rows

    rows: list[MetricRow] = []
    if threads > 1 and len(cells) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for chunk in pool.map(exec_cell, cells):
                rows.extend(chunk)
    else:
        for cell in cells:
            rows.extend(exec_cell(cell))
    rows.sort(key=lambda r: (r.step, r.job, r.task, r.metric))
    return MetricsLog(rows)
