"""Online distillation pipeline.

One teacher trains continuously on the stream, publishes soft labels for
selected tasks into the columnar store, and a fleet of students trains on
the same stream consuming those labels through per-step snapshots. Students
never touch each other's state; a student's trajectory depends only on its
own init, the stream, and the store bytes, so adding or removing fleet
members cannot change anyone else's params.

Per step t:
  1. draw batch_t from the stream
  2. teacher takes one gradient step on batch_t hard labels unless frozen
  3. on write steps, teacher infers on batch_t and appends one segment; a
     frozen teacher keeps writing (stale) labels
  4. open one snapshot, shared by every student this step
  5. students train on batch_t: hard labels plus whatever soft labels the
     snapshot covers (coverage < 1 when writes are throttled)

A segment's teacher_version is the teacher's optimizer step count at the
write. Because every student of a step looks its batch up in the same
snapshot, the whole fleet consumes byte-identical soft labels; the tests
audit this by wrapping _soft_targets_for, through which every student's
soft targets pass.
"""

from __future__ import annotations

import csv
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
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
from .errors import ConfigError, SchemaError, StoreError
from .labelstore import LabelStore, Snapshot, read_manifest
from .metrics import (
    OnlineSimConfig,
    calibration_ratio,
    draw_slates,
    policy_metrics,
    rank_auc,
    rmse,
)
from .nncore import TrainConfig
from .ranker import (
    AUXILIARY,
    BINARY,
    DIRECT,
    MODES,
    NO_DISTILL,
    PET,
    PST,
    ModelConfig,
    ModelOptimizer,
    RankingModel,
    SoftTargets,
    apply_gradients,
    build_model,
    compute_loss_and_grads,
    model_forward,
)

CSV_HEADER = ("step", "job", "task", "metric", "value", "lo", "hi")
JOB_LEVEL_TASK = "-"


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
    lo: float | None = None
    hi: float | None = None


class MetricsLog:
    def __init__(self, rows: list[MetricRow] | None = None):
        self.rows: list[MetricRow] = rows if rows is not None else []

    def add(self, step, job, task, metric, value, lo=None, hi=None) -> None:
        self.rows.append(MetricRow(step, job, task, metric, float(value), lo, hi))


def write_metrics_csv(path, rows) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(CSV_HEADER)
        for r in rows:
            w.writerow(
                [
                    r.step,
                    r.job,
                    r.task,
                    r.metric,
                    repr(r.value),
                    "" if r.lo is None else repr(r.lo),
                    "" if r.hi is None else repr(r.hi),
                ]
            )


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
        step, job, task, metric, value, lo, hi = rec
        try:
            rows.append(
                MetricRow(
                    int(step),
                    job,
                    task,
                    metric,
                    float(value),
                    float(lo) if lo else None,
                    float(hi) if hi else None,
                )
            )
        except ValueError as e:
            raise SchemaError(f"{path}:{line_no}: {e}") from None
    return rows


# ---------------------------------------------------------------------------
# jobs


@dataclass
class TeacherJob:
    """The continuously trained writer job."""

    name: str
    model: RankingModel
    opt: ModelOptimizer
    train: TrainConfig
    write_tasks: tuple[str, ...]
    write_every: int = 1
    freeze_at: int | None = None
    bias: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        names = {t.name for t in self.model.tasks}
        for task in self.write_tasks:
            if task not in names:
                raise ConfigError(f"write task {task!r} not in model tasks")
        for task in self.bias:
            spec = self.model.config.task(task)
            if spec.kind == BINARY:
                raise ConfigError(
                    f"label bias is multiplicative and only fits regression "
                    f"tasks, not {task!r}"
                )
        if self.write_every < 1:
            raise ConfigError("write_every must be >= 1")

    @property
    def version(self) -> int:
        """Teacher version written into segments: its update count."""
        return self.opt.trunk.step


@dataclass
class StudentJob:
    name: str
    model: RankingModel
    opt: ModelOptimizer
    train: TrainConfig
    alpha: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        distilled = set(self.model.config.distill_tasks)
        for task in self.alpha:
            if task not in distilled:
                raise ConfigError(f"alpha set for non-distilled task {task!r}")

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


# ---------------------------------------------------------------------------
# core loop


def _teacher_write(teacher: TeacherJob, writer, batch: Batch) -> None:
    preds = model_forward(
        teacher.model, batch.x, clip=teacher.train.activation_clip, job=teacher.name
    )
    values = {}
    for name in teacher.write_tasks:
        kind = teacher.model.config.task(name).kind
        values[name] = preds.score(name, kind).astype(np.float32)
    writer.append(batch.example_ids, values, teacher_version=teacher.version)


def _teacher_train(teacher: TeacherJob, batch: Batch, t: int) -> None:
    if teacher.freeze_at is not None and t >= teacher.freeze_at:
        return
    labels = dict(batch.labels)
    for task, factor in teacher.bias.items():
        labels[task] = labels[task] * factor
    _, grads, _ = compute_loss_and_grads(
        teacher.model,
        batch.x,
        labels,
        clip=teacher.train.activation_clip,
        job=teacher.name,
    )
    apply_gradients(teacher.model, grads, teacher.opt, teacher.train, job=teacher.name)


def _soft_targets_for(
    student: StudentJob, snapshot: Snapshot, batch: Batch
) -> tuple[dict[str, SoftTargets], float]:
    """The student's soft targets for this batch, and their coverage."""
    present, values = snapshot.lookup_batch(batch.example_ids)
    present.flags.writeable = False  # one mask, shared by every task's targets
    soft = {
        task: SoftTargets(values=values[task].astype(np.float64), present=present)
        for task in student.distill_tasks
    }
    return soft, float(present.mean()) if batch.n else 0.0


def _student_step(student: StudentJob, batch: Batch, snapshot: Snapshot) -> float:
    soft, coverage = {}, 0.0
    if student.distill_tasks:
        soft, coverage = _soft_targets_for(student, snapshot, batch)
    _, grads, _ = compute_loss_and_grads(
        student.model,
        batch.x,
        batch.labels,
        soft_labels=soft,
        alpha=student.alpha,
        clip=student.train.activation_clip,
        job=student.name,
    )
    apply_gradients(student.model, grads, student.opt, student.train, job=student.name)
    return coverage


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
    hard = {
        t.name: np.concatenate([b.labels[t.name] for b in batches])
        for t in world.config.tasks
    }
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
        preds = model_forward(model, x, clip=train.activation_clip, job=name)
        for spec in model.tasks:
            if spec.kind == BINARY:
                log.add(step, name, spec.name, "auc",
                        rank_auc(preds.hard_logits[spec.name], hard[spec.name]))
                log.add(step, name, spec.name, "calibration",
                        calibration_ratio(preds.prob(spec.name), hard[spec.name]))
            else:
                value = preds.value(spec.name)
                log.add(step, name, spec.name, "rmse", rmse(value, hard[spec.name]))
                log.add(step, name, spec.name, "rmse_true",
                        rmse(value, true_reg[spec.name]))
                log.add(step, name, spec.name, "calibration",
                        calibration_ratio(value, hard[spec.name]))
    log.add(step, teacher.name, JOB_LEVEL_TASK, "teacher_version", teacher.version)
    if run_online_sim and sched.online_sim is not None:
        sim = sched.online_sim
        slates = draw_slates(ev, sim, world.derive_rng("slates", eval_idx))
        flat = slates.x.reshape(-1, world.config.feature_dim)
        shape = slates.true_policy.shape
        for name, model, train in jobs:
            preds = model_forward(model, flat, clip=train.activation_clip, job=name)
            kind = model.config.task(sim.policy_task).kind
            scores = preds.score(sim.policy_task, kind)
            engagement, satisfaction = policy_metrics(slates, scores.reshape(shape))
            log.add(step, name, JOB_LEVEL_TASK, "engagement", engagement)
            log.add(step, name, JOB_LEVEL_TASK, "satisfaction", satisfaction)


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
    names = [teacher.name] + [s.name for s in students]
    if len(set(names)) != len(names):
        raise ConfigError("job names must be unique")
    for s in students:
        for task in s.distill_tasks:
            if task not in teacher.write_tasks:
                raise ConfigError(
                    f"student {s.name!r} distills {task!r}, which teacher "
                    f"{teacher.name!r} does not write"
                )
    store_root = Path(store_root)
    store_root.mkdir(parents=True, exist_ok=True)
    if read_manifest(store_root).segment_ids.size:
        raise StoreError(f"store {store_root} already holds segments; use an empty directory")
    store = LabelStore(store_root)
    log = MetricsLog()
    cov_sum = {s.name: 0.0 for s in students}
    cov_n = {s.name: 0 for s in students}
    eval_idx = 0
    task_specs = {t.name: t for t in teacher.model.tasks}
    write_schema = [task_specs[n] for n in teacher.write_tasks]
    writer_cm = (
        store.writer(write_schema, durable=sched.durable_store)
        if teacher.write_tasks
        else None
    )
    try:
        writer = writer_cm.__enter__() if writer_cm is not None else None
        for t in range(sched.total_steps):
            batch = next_batch(world, sched.batch_size)
            _teacher_train(teacher, batch, t)
            if writer is not None and t % teacher.write_every == 0:
                _teacher_write(teacher, writer, batch)
            snapshot = store.open_snapshot()
            for student in students:
                coverage = _student_step(student, batch, snapshot)
                if student.distill_tasks:
                    cov_sum[student.name] += coverage
                    cov_n[student.name] += 1
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
                for s in students:
                    if s.distill_tasks and cov_n[s.name]:
                        log.add(
                            t + 1, s.name, JOB_LEVEL_TASK, "coverage",
                            cov_sum[s.name] / cov_n[s.name],
                        )
                        cov_sum[s.name] = 0.0
                        cov_n[s.name] = 0
    finally:
        if writer_cm is not None:
            writer_cm.__exit__(None, None, None)
    return log


# ---------------------------------------------------------------------------
# experiment families


FAMILY_DISTILL = "distill-strategy"
FAMILY_SCALE = "teacher-scale"
FAMILY_OBJECTIVE = "objective-selection"
FAMILY_CUSTOM = "custom"
FAMILIES = (FAMILY_DISTILL, FAMILY_SCALE, FAMILY_OBJECTIVE, FAMILY_CUSTOM)

CONTROL_NAME = "control"


@dataclass
class StudentDef:
    name: str
    mode: str = NO_DISTILL
    distill: tuple[str, ...] = ()
    alpha: dict[str, float] = field(default_factory=dict)
    scale: int = 1

    def __post_init__(self) -> None:
        if self.mode == "none":  # the YAML spelling of no distillation
            self.mode = NO_DISTILL
        if self.mode not in MODES:
            raise ConfigError(f"unknown student mode {self.mode!r}")
        if self.mode == NO_DISTILL and self.distill:
            raise ConfigError(f"student {self.name!r}: distill tasks without a distill mode")
        if self.mode != NO_DISTILL and not self.distill:
            raise ConfigError(f"student {self.name!r}: distill mode without distill tasks")


@dataclass
class TeacherDef:
    name: str = "teacher"
    scale: int = 2
    write_tasks: tuple[str, ...] = ()
    bias: dict[str, float] = field(default_factory=dict)
    freeze_at: int | None = None


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
            raise ConfigError("duplicate seeds")
        if min(self.seeds) < 0:
            raise ConfigError(f"seeds: must be >= 0, got {min(self.seeds)}")
        if len(set(self.teacher_scales)) != len(self.teacher_scales):  # one run each
            raise ConfigError("model.teacher_scales: duplicate scales")
        if self.family != FAMILY_SCALE and len(self.teacher_scales) != 1:
            raise ConfigError(
                f"model.teacher_scales: the {self.family} family takes exactly one scale"
            )
        names = {t.name for t in self.gen.tasks}
        for task in self.distill_tasks:
            if task not in names:
                raise ConfigError(f"distill task {task!r} not generated by the stream")
        for task in list(self.alpha) + list(self.bias):
            if task not in names:
                raise ConfigError(f"unknown task {task!r} in alpha/bias")
        sim = self.schedule.online_sim
        if sim is not None:
            for task in (sim.policy_task, sim.satisfaction_task):
                if task not in names:
                    raise ConfigError(
                        f"schedule.online_sim: task {task!r} not generated by the stream"
                    )
        if self.distill_mode not in (DIRECT, AUXILIARY):
            raise ConfigError("distill_mode must be a distillation mode")


def _alpha_map(cfg: ExperimentConfig, tasks: tuple[str, ...]) -> dict[str, float]:
    return {t: cfg.alpha.get(t, 1.0) for t in tasks}


def _run(cfg: ExperimentConfig, run_id, teacher_name, scale, students) -> RunDef:
    """A run whose teacher writes the tasks its students distill, in stream
    order, with the config's label bias and freeze step."""
    distilled = {t for s in students for t in s.distill}
    write = tuple(t.name for t in cfg.gen.tasks if t.name in distilled)
    teacher = TeacherDef(teacher_name, scale, write, dict(cfg.bias), cfg.freeze_at)
    return RunDef(run_id, teacher, students)


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
            raise ConfigError("objective-selection needs PET and PST tasks in the stream")
        students = [
            StudentDef(CONTROL_NAME),
            StudentDef("pet", mode, pet, _alpha_map(cfg, pet)),
            StudentDef("pet-pst", mode, pet + pst, _alpha_map(cfg, pet + pst)),
            StudentDef("pet-pst-others", mode, all_tasks, _alpha_map(cfg, all_tasks)),
        ]
    elif cfg.students:  # custom: explicit students, one run
        students = list(cfg.students)
    else:
        raise ConfigError("custom family needs an explicit students list")
    (scale,) = cfg.teacher_scales
    return [_run(cfg, "main", "teacher", scale, students)]


def _scaled(widths: tuple[int, ...], scale: int) -> tuple[int, ...]:
    if scale < 1:
        raise ConfigError("width multiplier must be >= 1")
    return tuple(w * scale for w in widths)


def make_teacher_job(cfg: ExperimentConfig, tdef: TeacherDef, seed: int) -> TeacherJob:
    mc = ModelConfig(
        feature_dim=cfg.gen.feature_dim,
        trunk_widths=_scaled(cfg.teacher_trunk, tdef.scale),
        tower_widths=cfg.tower_widths,
        tasks=cfg.gen.tasks,
        mode=NO_DISTILL,
    )
    model = build_model(mc, model_init_rng(seed, tdef.name))
    return TeacherJob(
        name=tdef.name,
        model=model,
        opt=ModelOptimizer.for_model(model),
        train=cfg.teacher_train,
        write_tasks=tuple(tdef.write_tasks),
        write_every=cfg.write_every,
        freeze_at=tdef.freeze_at,
        bias=dict(tdef.bias),
    )


def make_student_job(cfg: ExperimentConfig, sdef: StudentDef, seed: int) -> StudentJob:
    mc = ModelConfig(
        feature_dim=cfg.gen.feature_dim,
        trunk_widths=_scaled(cfg.student_trunk, sdef.scale),
        tower_widths=cfg.tower_widths,
        tasks=cfg.gen.tasks,
        mode=sdef.mode,
        distill_tasks=tuple(sdef.distill),
    )
    model = build_model(mc, model_init_rng(seed, sdef.name))
    return StudentJob(
        name=sdef.name,
        model=model,
        opt=ModelOptimizer.for_model(model),
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
    jobs renamed to s<seed>/<job>. threads parallelizes (seed, run) cells."""
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
        log = run_online(world, teacher, students, cfg.schedule, store_root)
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
