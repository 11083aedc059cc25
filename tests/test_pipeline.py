"""Online distillation loop: scheduling, isolation, determinism, experiments."""

import dataclasses
import re
import struct
import tracemalloc

import numpy as np
import pytest

from onlinekd.cli import default_experiment
from onlinekd.datagen import GenConfig, fork, init_world, next_batch
from onlinekd.errors import ConfigError, DivergenceError, SchemaError, StoreError
from onlinekd.labelstore import MANIFEST_NAME, LabelStore, Snapshot, inspect_store
from onlinekd.metrics import OnlineSimConfig
from onlinekd.nncore import ClippyConfig, OptState, TrainConfig
from onlinekd import pipeline, ranker
from onlinekd.pipeline import (
    CONTROL_NAME,
    CSV_HEADER,
    ExperimentConfig,
    FAMILIES,
    FAMILY_CUSTOM,
    FAMILY_DISTILL,
    FAMILY_OBJECTIVE,
    FAMILY_SCALE,
    JOB_LEVEL_TASK,
    MetricsLog,
    ScheduleConfig,
    StudentDef,
    StudentJob,
    TeacherJob,
    build_runs,
    make_student_job,
    make_teacher_job,
    model_init_rng,
    read_metrics_csv,
    run_experiment,
    run_online,
    seed_job_name,
    split_job_name,
    write_metrics_csv,
)
from onlinekd.ranker import (
    AUXILIARY,
    DIRECT,
    NO_DISTILL,
    ModelConfig,
    ModelStack,
    apply_gradients,
    build_model,
    compute_loss_and_grads,
)

from oracles import (
    assert_same_blocks,
    assert_same_params,
    audit_fleet,
    log_records,
    metric_value,
    model_blocks,
    one_shot_policy_metrics,
    segment_body,
    soft_target_records,
    stored_ids,
)

GEN = GenConfig(feature_dim=8)


def make_teacher(
    seed=0, *, name="teacher", write=("ctr", "ltv"), gen=GEN, write_every=1, freeze_at=None
):
    mc = ModelConfig(gen.feature_dim, (10,), (6,), gen.tasks, NO_DISTILL)
    model = build_model(mc, model_init_rng(seed, name))
    return TeacherJob(
        name=name,
        model=model,
        train=TrainConfig(base_lr=0.05),
        write_tasks=tuple(write),
        write_every=write_every,
        freeze_at=freeze_at,
        bias={},
    )


def make_student(seed=0, *, name, mode=NO_DISTILL, distill=(), alpha=None, gen=GEN):
    mc = ModelConfig(gen.feature_dim, (8,), (5,), gen.tasks, mode, tuple(distill))
    model = build_model(mc, model_init_rng(seed, name))
    return StudentJob(
        name=name,
        model=model,
        train=TrainConfig(base_lr=0.05),
        alpha=alpha or {},
    )


def sched(total, **kw):
    kw.setdefault("batch_size", 24)
    kw.setdefault("eval_every", 0)
    kw.setdefault("eval_batches", 2)
    return ScheduleConfig(total_steps=total, **kw)


# ---------------------------------------------------------------------------
# metric rows and CSV


def test_metrics_log_roundtrip_and_schema(tmp_path):
    log = MetricsLog()
    log.add(5, "s0/teacher", "ctr", "auc", 1.0 / 3.0)
    log.add(5, "s0/direct", JOB_LEVEL_TASK, "engagement", 0.7131)
    path = tmp_path / "m.csv"
    write_metrics_csv(path, log.rows)
    text = path.read_text().splitlines()
    assert text[0] == ",".join(CSV_HEADER)
    back = read_metrics_csv(path)
    assert back == log.rows
    assert back[0].value == 1.0 / 3.0  # repr() round-trips full precision
    assert metric_value(log, job="s0/teacher", task="ctr", metric="auc") == 1.0 / 3.0
    with pytest.raises(KeyError):
        metric_value(log, job="nope", metric="auc")
    path2 = tmp_path / "bad.csv"
    path2.write_text("step,job,oops\n")
    with pytest.raises(SchemaError, match="header"):
        read_metrics_csv(path2)
    # a csv from before the lo/hi columns were dropped is refused, not misread
    path2.write_text("step,job,task,metric,value,lo,hi\n5,s0/teacher,ctr,auc,0.5,,\n")
    with pytest.raises(SchemaError, match="expected header step,job,task,metric,value, got"):
        read_metrics_csv(path2)
    path3 = tmp_path / "short.csv"
    path3.write_text(",".join(CSV_HEADER) + "\n1,j,t\n")
    with pytest.raises(SchemaError, match="column count"):
        read_metrics_csv(path3)


def test_model_init_rng_is_job_keyed():
    a = model_init_rng(3, "teacher").standard_normal(4)
    b = model_init_rng(3, "teacher").standard_normal(4)
    c = model_init_rng(3, "student").standard_normal(4)
    d = model_init_rng(4, "teacher").standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_job_validation():
    with pytest.raises(ConfigError, match="write task"):
        make_teacher(write=("nope",))
    # a run's teacher takes its bias and write cadence from the config,
    # which checks them at load
    with pytest.raises(ConfigError, match="teacher.bias: .*regression"):
        exp_cfg(FAMILY_DISTILL, distill_tasks=("ltv",), bias={"ctr": 1.3})
    exp_cfg(FAMILY_DISTILL, distill_tasks=("ltv",), bias={"ltv": 1.3})  # regression is fine
    with pytest.raises(ConfigError, match="teacher.bias: unknown task 'nope'"):
        exp_cfg(FAMILY_DISTILL, distill_tasks=("ltv",), bias={"nope": 1.3})
    with pytest.raises(ConfigError, match="teacher.write_every: must be >= 1"):
        exp_cfg(FAMILY_DISTILL, distill_tasks=("ltv",), write_every=0)
    with pytest.raises(ConfigError, match="non-distilled"):
        StudentDef("s", DIRECT, ("ctr",), {"ltv": 0.5})
    with pytest.raises(ConfigError):
        ScheduleConfig(total_steps=0)
    with pytest.raises(ConfigError):
        ScheduleConfig(total_steps=5, eval_every=-1)


def test_custom_students_need_unique_job_names():
    # each job of a run keys its metric rows by name, the teacher's too
    for names in (("a", "a"), ("teacher",)):
        with pytest.raises(ConfigError, match=rf"students\[{len(names) - 1}\]: job name"):
            exp_cfg(FAMILY_CUSTOM, students=tuple(StudentDef(n) for n in names))


def test_run_online_rejects_a_student_distilling_an_unwritten_task(tmp_path):
    world = init_world(GEN, 0)
    teacher = make_teacher(write=("ctr", "ltv"))
    student = make_student(name="aux", mode=AUXILIARY, distill=("sat",))
    with pytest.raises(ConfigError, match="'aux' distills 'sat'"):
        run_online(world, teacher, [student], sched(2), tmp_path / "s")
    assert teacher.version == 0 and not (tmp_path / "s").exists()


@pytest.mark.parametrize(
    "attr, value, error",
    [
        ("write_every", 0, "write_every must be >= 1, got 0"),
        ("bias", {"nope": 2.0}, "bias on 'nope', which is not a regression task"),
        ("bias", {"ctr": 1.3}, "bias on 'ctr', which is not a regression task"),
    ],
)
def test_run_online_checks_a_hand_built_teachers_cadence_and_bias(tmp_path, attr, value, error):
    # a config's teacher is checked at load; one built by hand is checked here
    world = init_world(GEN, 0)
    teacher = make_teacher()
    setattr(teacher, attr, value)
    with pytest.raises(ConfigError, match=f"teacher 'teacher': {error}"):
        run_online(world, teacher, [make_student(name="control")], sched(2), tmp_path / "s")
    assert teacher.version == 0 and not (tmp_path / "s").exists()


def test_run_online_refuses_a_store_with_segments(tmp_path):
    def run(root):
        world = init_world(GEN, 4)
        student = make_student(4, name="aux", mode=AUXILIARY, distill=("ctr",))
        return run_online(world, make_teacher(4), [student], sched(3), root)

    run(tmp_path / "store")
    with pytest.raises(StoreError, match="already holds segments"):
        run(tmp_path / "store")
    # a store directory that exists but holds no commit is accepted
    (tmp_path / "empty").mkdir()
    run(tmp_path / "empty")


def test_run_online_basic_end_to_end(tmp_path):
    world = init_world(GEN, 1)
    teacher = make_teacher(1)
    students = [
        make_student(1, name=CONTROL_NAME),
        make_student(1, name="aux", mode=AUXILIARY, distill=("ctr", "ltv")),
    ]
    log = run_online(world, teacher, students, sched(10), tmp_path / "store")
    assert max(r.step for r in log.rows) == 10
    # one segment per step at write_every=1
    snap = LabelStore(tmp_path / "store").open_snapshot()
    assert len(snap.segments) == 10
    assert len(stored_ids(snap)) == 10 * 24
    assert [name for name, _ in snap.tasks] == ["ctr", "ltv"]
    # teacher took one update per step
    assert metric_value(log, job="teacher", metric="teacher_version") == 10.0
    # full coverage for the distilling student, no coverage row for control
    assert metric_value(log, job="aux", metric="coverage") == 1.0
    assert not [r for r in log.rows if (r.job, r.metric) == (CONTROL_NAME, "coverage")]
    # per-task offline metrics for every job
    for job in ("teacher", CONTROL_NAME, "aux"):
        for task in ("ctr", "sat", "aux_click"):
            auc = metric_value(log, job=job, task=task, metric="auc")
            assert 0.0 <= auc <= 1.0
            metric_value(log, job=job, task=task, metric="calibration")
        assert metric_value(log, job=job, task="ltv", metric="rmse") > 0.0
        metric_value(log, job=job, task="ltv", metric="rmse_true")
        metric_value(log, job=job, task="ltv", metric="calibration")
    # teacher version increases monotonically across segments
    versions = [s.teacher_version for s in snap.segments]
    assert versions == sorted(versions)


def test_students_share_one_lookup_per_step_but_not_its_values(tmp_path, monkeypatch):
    lookups = []
    real = Snapshot.lookup_batch

    def counted(snapshot, ids):
        lookups.append(len(ids))
        return real(snapshot, ids)

    monkeypatch.setattr(Snapshot, "lookup_batch", counted)
    students = [
        make_student(5, name=CONTROL_NAME),
        make_student(5, name="a", mode=AUXILIARY, distill=("ctr", "ltv")),
        make_student(5, name="b", mode=DIRECT, distill=("ltv",)),
    ]

    def perturb(step, name, soft):
        if name == "a":  # a runs before b; halving a's copy leaves b's alone
            soft *= 0.5

    with soft_target_records(monkeypatch, perturb) as records:
        run_online(init_world(GEN, 5), make_teacher(5), students, sched(4), tmp_path / "s")
    assert lookups == [24] * 4
    for step in range(4):
        a, b = records[step]["a"], records[step]["b"]
        assert a[1] is b[1] and not a[1].flags.writeable  # one shared mask
        # b distills ltv, which is a's second row
        assert a[1].all() and np.array_equal(2 * a[2][1], b[2][0])


def test_a_run_without_a_distilling_student_opens_no_snapshot(tmp_path, monkeypatch):
    opened = []
    real = LabelStore.open_snapshot

    def counted(store):
        opened.append(store.root)
        return real(store)

    monkeypatch.setattr(LabelStore, "open_snapshot", counted)
    students = [make_student(6, name=CONTROL_NAME), make_student(6, name="plain")]
    log = run_online(init_world(GEN, 6), make_teacher(6), students, sched(4), tmp_path / "s")
    assert opened == []
    assert len(inspect_store(tmp_path / "s").segments) == 4  # the teacher still writes
    assert not [r for r in log.rows if r.metric == "coverage"]


def test_periodic_evals_and_online_sim(tmp_path):
    world = init_world(GEN, 2)
    teacher = make_teacher(2)
    student = make_student(2, name="aux", mode=AUXILIARY, distill=("ctr",))
    schedule = sched(
        12,
        eval_every=5,
        online_sim=OnlineSimConfig(slate_size=4, n_slates=40),
        online_sim_every=0,  # final point only
    )
    log = run_online(world, teacher, [student], schedule, tmp_path / "store")
    eval_steps = sorted({r.step for r in log.rows if r.metric == "auc"})
    assert eval_steps == [5, 10, 12]
    assert sorted({r.step for r in log.rows if r.metric == "coverage"}) == [5, 10, 12]
    # engagement/satisfaction only at the final point, for teacher and student
    for job in ("teacher", "aux"):
        rows = [r for r in log.rows if (r.job, r.metric) == (job, "engagement")]
        assert [r.step for r in rows] == [12]
        metric_value(log, job=job, metric="satisfaction", step=12)
    # evals at different steps see different held-out draws
    auc5 = metric_value(log, job="teacher", task="ctr", metric="auc", step=5)
    auc12 = metric_value(log, job="teacher", task="ctr", metric="auc", step=12)
    assert auc5 != auc12


def _sim_eval_point(n_slates, slate_size, students=()):
    """The rows of one eval point (index 1, step 7) that runs the simulator."""
    world = init_world(GEN, 4)
    teacher = make_teacher(4)
    sim = OnlineSimConfig(slate_size=slate_size, n_slates=n_slates)
    log = MetricsLog()
    pipeline._eval_point(log, 7, 1, world, teacher, list(students),
                         sched(7, online_sim=sim), True)
    jobs = [(j.name, j.model, j.train) for j in [teacher, *students]]
    return log, world, sim, jobs


PER_BLOCK = pipeline._EVAL_ROWS // 8  # slates of 8 candidates per block


@pytest.mark.parametrize(
    "slate_size, n_slates",
    [
        (8, 1),
        (8, PER_BLOCK - 1),
        (8, PER_BLOCK),
        (8, PER_BLOCK + 1),
        (8, 2 * PER_BLOCK + 3),
        (pipeline._EVAL_ROWS + 1, 3),  # every block is one slate
    ],
)
def test_blocked_online_sim_equals_one_shot_oracle(slate_size, n_slates):
    student = make_student(4, name="aux", mode=AUXILIARY, distill=("ctr",))
    log, world, sim, jobs = _sim_eval_point(n_slates, slate_size, [student])
    want = one_shot_policy_metrics(
        fork(world, "eval", 1), sim, world.derive_rng("slates", 1), jobs
    )
    for name, (engagement, satisfaction) in want.items():
        assert metric_value(log, job=name, metric="engagement") == engagement
        assert metric_value(log, job=name, metric="satisfaction") == satisfaction


def test_online_sim_memory_does_not_grow_with_n_slates():
    peaks = []
    for n_slates in (4000, 40000):
        tracemalloc.start()
        try:
            _sim_eval_point(n_slates, 8)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # the picked values (16 B per slate and job) are all that grows
    assert abs(peaks[1] - peaks[0]) < 2**20, peaks


def test_write_cadence_and_delay_coverage(tmp_path, monkeypatch):
    # throttled writes: every third step, so one third of batches are covered
    world = init_world(GEN, 3)
    teacher = make_teacher(3, write_every=3)
    student = make_student(3, name="aux", mode=AUXILIARY, distill=("ctr",))
    with soft_target_records(monkeypatch) as records:
        log = run_online(world, teacher, [student], sched(9), tmp_path / "a")
    masks = [records[t]["aux"][1] for t in range(9)]
    assert len(LabelStore(tmp_path / "a").open_snapshot().segments) == 3
    # oracle cadence: step t covered iff t % 3 == 0 (write lands before lookup)
    for t, mask in enumerate(masks):
        assert mask.all() == (t % 3 == 0)
        assert mask.any() == (t % 3 == 0)
    assert metric_value(log, job="aux", metric="coverage") == pytest.approx(3.0 / 9.0, abs=1e-15)


def test_nodistill_student_matches_plain_training_loop(tmp_path):
    seed = 7
    world = init_world(GEN, seed)
    teacher = make_teacher(seed)
    student = make_student(seed, name="solo")
    run_online(world, teacher, [student], sched(8, eval_every=3), tmp_path / "s")

    twin_world = init_world(GEN, seed)
    mc = ModelConfig(GEN.feature_dim, (8,), (5,), GEN.tasks, NO_DISTILL)
    model = build_model(mc, model_init_rng(seed, "solo"))
    stack = ModelStack([model], ["solo"])
    opt = OptState.for_params(stack.params)
    train = TrainConfig(base_lr=0.05)
    for _ in range(8):
        batch = next_batch(twin_world, 24)
        grads = compute_loss_and_grads(stack, batch.x, batch.labels)
        apply_gradients(stack, grads, opt, train)
    assert_same_params(student.model, model)


def test_a_student_stack_equals_each_student_trained_alone(tmp_path, monkeypatch):
    # control, direct, and auxiliary members with one and with two aux heads,
    # one zero alpha, writes every second step (coverage < 1) and an
    # activation clip small enough to saturate
    train = TrainConfig(base_lr=0.05, warmup_steps=3, activation_clip=0.5,
                        clippy=ClippyConfig())
    specs = {
        CONTROL_NAME: (NO_DISTILL, (), {}),
        "direct": (DIRECT, ("ltv", "ctr"), {"ctr": 0.0}),
        "aux-1": (AUXILIARY, ("ctr",), {}),
        "aux-2": (AUXILIARY, ("ltv", "ctr"), {"ltv": 0.7}),
    }

    def student(name):
        mode, distill, alpha = specs[name]
        mc = ModelConfig(GEN.feature_dim, (8, 6), (5,), GEN.tasks, mode, distill)
        return StudentJob(name, build_model(mc, model_init_rng(17, name)), train, alpha)

    kept = {}
    apply = pipeline.apply_gradients

    def keep(stack, grads, opt, cfg):
        kept[tuple(stack.jobs)] = stack, opt
        apply(stack, grads, opt, cfg)

    monkeypatch.setattr(pipeline, "apply_gradients", keep)
    steps = 11

    def run(members, root):
        teacher = make_teacher(17, write_every=2)
        log = run_online(init_world(GEN, 17), teacher, members, sched(steps), root)
        return log, *kept[tuple(s.name for s in members)]

    fleet = [student(name) for name in specs]
    log, stack, fleet_opt = run(fleet, tmp_path / "fleet")
    assert metric_value(log, job="direct", metric="coverage") == 6 / steps
    sizes = 0
    for s, member in enumerate(fleet):
        alone = student(member.name)
        _, solo, opt = run([alone], tmp_path / member.name)
        # every trunk, tower and aux block, and the member's Adam state
        assert_same_params(member.model, alone.model)
        assert opt.step == fleet_opt.step == steps
        for got, want in ((fleet_opt.m, opt.m), (fleet_opt.v, opt.v)):
            assert_same_blocks(model_blocks(stack, got)[s], model_blocks(solo, want)[0])
        sizes += solo.params.size
    assert fleet_opt.m.size == sizes  # the stack holds its members' state and nothing else


@pytest.mark.parametrize("change", ["features", "trunk", "tower", "tasks", "train"])
def test_run_online_refuses_students_that_cannot_stack(tmp_path, change):
    mc = ModelConfig(GEN.feature_dim, (8,), (5,), GEN.tasks, NO_DISTILL)
    mc = {
        "features": dataclasses.replace(mc, feature_dim=9),
        "trunk": dataclasses.replace(mc, trunk_widths=(8, 4)),
        "tower": dataclasses.replace(mc, tower_widths=(6,)),
        "tasks": dataclasses.replace(mc, tasks=GEN.tasks[::-1]),
    }.get(change, mc)
    train = TrainConfig(base_lr=0.05, activation_clip=2.0 if change == "train" else None)
    odd = StudentJob("odd", build_model(mc, model_init_rng(0, "odd")), train, {})
    teacher = make_teacher()
    with pytest.raises(ConfigError, match="'odd'"):
        run_online(init_world(GEN, 0), teacher, [make_student(name=CONTROL_NAME), odd],
                   sched(2), tmp_path / "s")
    assert teacher.version == 0 and not (tmp_path / "s").exists()


def test_teacher_params_independent_of_fleet_and_writes(tmp_path):
    seed = 11
    world_a = init_world(GEN, seed)
    teacher_a = make_teacher(seed)
    students = [
        make_student(seed, name="aux", mode=AUXILIARY, distill=("ctr",)),
        make_student(seed, name=CONTROL_NAME),
    ]
    run_online(world_a, teacher_a, students, sched(6), tmp_path / "a")

    world_b = init_world(GEN, seed)
    teacher_b = make_teacher(seed, write=())  # no writes, no students at all
    run_online(world_b, teacher_b, [], sched(6), tmp_path / "b")
    for got, want in zip(teacher_a.model.trunk.layers, teacher_b.model.trunk.layers):
        assert np.array_equal(got.weights, want.weights)
    # and the no-write run committed nothing
    assert not (tmp_path / "b" / MANIFEST_NAME).exists()


def test_alpha_zero_direct_is_bit_identical_to_control(tmp_path):
    seed = 13

    def run_with(mode, distill, alpha, root):
        world = init_world(GEN, seed)
        teacher = make_teacher(seed)
        student = make_student(seed, name="probe", mode=mode, distill=distill, alpha=alpha)
        log = run_online(world, teacher, [student], sched(7), root)
        return student, log

    direct, log_d = run_with(DIRECT, ("ctr", "ltv"), {"ctr": 0.0, "ltv": 0.0}, tmp_path / "d")
    control, log_c = run_with(NO_DISTILL, (), {}, tmp_path / "c")
    # the trunk and the towers: neither student has aux heads
    assert_same_params(direct.model, control.model)
    # identical held-out metrics too
    for task in ("ctr", "sat", "aux_click"):
        assert metric_value(log_d, job="probe", task=task, metric="auc") == metric_value(
            log_c, job="probe", task=task, metric="auc"
        )


def test_frozen_teacher_stops_training_but_keeps_writing(tmp_path):
    world = init_world(GEN, 5)
    teacher = make_teacher(5, freeze_at=4)
    student = make_student(5, name="aux", mode=AUXILIARY, distill=("ctr",))
    log = run_online(world, teacher, [student], sched(10), tmp_path / "s")
    assert metric_value(log, job="teacher", metric="teacher_version") == 4.0
    snap = LabelStore(tmp_path / "s").open_snapshot()
    assert len(snap.segments) == 10  # stale labels keep flowing
    assert {s.teacher_version for s in snap.segments[4:]} == {4}
    assert metric_value(log, job="aux", metric="coverage") == 1.0


@pytest.mark.parametrize("freeze_at", [None, 4])
def test_each_model_takes_one_optimizer_pass_per_step(tmp_path, monkeypatch, freeze_at):
    # one pass per stack and step: the teacher's, unless it is frozen, and
    # the one of the students' stack, which steps every student
    calls = []
    step = ranker.optimizer_step

    def counted(stack, grads, state, cfg, *, job):
        calls.append((tuple(stack.jobs), state.step))
        step(stack, grads, state, cfg, job=job)

    monkeypatch.setattr(ranker, "optimizer_step", counted)
    world = init_world(GEN, 3)
    teacher = make_teacher(3, freeze_at=freeze_at)
    students = [
        make_student(3, name="aux", mode=AUXILIARY, distill=("ctr", "ltv")),
        make_student(3, name=CONTROL_NAME),
    ]
    steps = 10
    run_online(world, teacher, students, sched(steps), tmp_path / "s")
    trained = steps if freeze_at is None else freeze_at
    assert len(calls) == steps * 2 - (steps - trained)
    teacher_calls = [c for c in calls if c[0] == ("teacher",)]
    assert teacher_calls == [(("teacher",), t) for t in range(trained)]
    fleet_calls = [c for c in calls if c[0] == ("aux", CONTROL_NAME)]
    assert fleet_calls == [(("aux", CONTROL_NAME), t) for t in range(steps)]
    assert teacher.version == trained


def test_frozen_teacher_auc_decays_under_drift(tmp_path):
    # average teacher AUC at step T drops below its own step-T/2 value once
    # training freezes halfway and the latents keep drifting
    gen = GenConfig(feature_dim=16, drift_rate=0.999)
    total, half = 160, 80
    mid, end = [], []
    for seed in range(10):
        world = init_world(gen, seed)
        teacher = make_teacher(seed, gen=gen, freeze_at=half)
        log = run_online(
            world, teacher, [], sched(total, batch_size=64, eval_every=half,
                                       eval_batches=4),
            tmp_path / f"s{seed}",
        )
        mid.append(metric_value(log, job="teacher", task="ctr", metric="auc", step=half))
        end.append(metric_value(log, job="teacher", task="ctr", metric="auc", step=total))
    assert float(np.mean(end)) < float(np.mean(mid))


def test_divergence_reports_job_identity(tmp_path):
    world = init_world(GEN, 6)
    teacher = make_teacher(6)
    student = make_student(6, name="fragile")
    student.model.trunk.layers[0].weights[0, 0] = np.inf
    with pytest.raises(DivergenceError) as err:
        run_online(world, teacher, [student], sched(3), tmp_path / "s")
    assert err.value.job == "fragile"


def diverging_config(member):
    """A seed-3 config whose one run holds member: distill-strategy's
    direct, or aux-2, the second of two auxiliary members, whose aux rows
    start at 1 and whose member index is 2."""
    if member == "direct":
        return exp_cfg(FAMILY_DISTILL, seeds=(3,), distill_tasks=("ltv",))
    students = (StudentDef(CONTROL_NAME), StudentDef("aux-1", AUXILIARY, ("ctr",)),
                StudentDef("aux-2", AUXILIARY, ("ltv", "ctr")))
    return exp_cfg(FAMILY_CUSTOM, seeds=(3,), students=students)


def test_run_experiment_names_the_seed_and_job_that_diverged(tmp_path, monkeypatch):
    compute = pipeline.compute_loss_and_grads
    poison = {}

    def poisoned(stack, *args, **kwargs):  # the stack's forward then raises for the member
        if poison["member"] in stack.jobs:  # the members view the stack's buffer
            model = stack.members[stack.jobs.index(poison["member"])]
            # direct's trunk, or aux-2's ltv aux head (its first); NaN, as
            # inf times a dead unit's 0 would warn
            (model.aux_stack or model.trunk).layers[0].weights[0, 0] = np.nan
        return compute(stack, *args, **kwargs)

    monkeypatch.setattr(pipeline, "compute_loss_and_grads", poisoned)
    for member in ("direct", "aux-2"):
        poison["member"] = member
        with pytest.raises(DivergenceError, match="^non-finite values in mlp output$") as err:
            run_experiment(diverging_config(member), tmp_path / member)
        assert err.value.job == f"s3/{member}"


def test_run_experiment_names_the_member_whose_gradient_diverged(tmp_path, monkeypatch):
    compute, apply = pipeline.compute_loss_and_grads, pipeline.apply_gradients
    seen = {}

    def poisoned(stack, *args, **kwargs):  # at the third step, in the member's layer
        grads = compute(stack, *args, **kwargs)
        member, name = seen["poison"]
        if member in stack.jobs and seen["calls"] == 2:
            layer = [k for k, (n, job) in enumerate(zip(stack.layer_names, stack.layer_jobs))
                     if (n, job) == (name, member)]
            grads[stack.starts[layer[0]] + 3] = np.nan
        return grads

    def watched(stack, grads, opt, train):
        if seen["poison"][0] in stack.jobs:
            seen["calls"] += 1
            seen["stack"], seen["opt"] = stack, opt
            seen["before"] = [a.copy() for a in (stack.params, opt.m, opt.v)] + [opt.step]
        apply(stack, grads, opt, train)

    monkeypatch.setattr(pipeline, "compute_loss_and_grads", poisoned)
    monkeypatch.setattr(pipeline, "apply_gradients", watched)
    for member, name in (("direct", "tower ctr layer 1"), ("aux-2", "aux ltv layer 0")):
        seen.update(poison=(member, name), calls=0)
        with pytest.raises(DivergenceError, match=f"^non-finite gradient in {name}$") as err:
            run_experiment(diverging_config(member), tmp_path / member)
        assert err.value.job == f"s3/{member}"
        # nothing of the stack moved: every member's params and its Adam state
        stack, opt = seen["stack"], seen["opt"]
        params, m, v, step = seen["before"]
        assert step == opt.step == 2
        for got, want in ((stack.params, params), (opt.m, m), (opt.v, v)):
            assert np.array_equal(got, want)


def test_fleet_consistency_and_rerun_identity(tmp_path, monkeypatch):
    def build(k):
        world = init_world(GEN, 9)
        teacher = make_teacher(9)
        students = [
            make_student(9, name=f"member-{i}", mode=AUXILIARY, distill=("ctr", "ltv"))
            for i in range(k)
        ]
        return world, teacher, students

    world, teacher, first = build(4)
    report = audit_fleet(monkeypatch, world, teacher, first, sched(12), tmp_path / "first")
    assert report.ok and report.violations == []
    assert report.fleet_size == 4
    assert report.segments_committed == 12
    assert report.mean_coverage == 1.0

    world, teacher, second = build(4)
    report_again = audit_fleet(
        monkeypatch, world, teacher, second, sched(12), tmp_path / "again"
    )
    assert report_again.ok
    # a rerun changes nothing: every member's params are bit-identical
    for one, two in zip(first, second):
        for got, want in zip(one.model.trunk.layers, two.model.trunk.layers):
            assert np.array_equal(got.weights, want.weights)
    # members share labels, not parameters (inits are name-keyed)
    a, b = second[0], second[1]
    assert not np.array_equal(a.model.trunk.layers[0].weights, b.model.trunk.layers[0].weights)
    with pytest.raises(ConfigError, match="at least 2"):
        world, teacher, students = build(1)
        audit_fleet(monkeypatch, world, teacher, students, sched(2), tmp_path / "x")


def test_fleet_twins_with_shared_init_end_identical(tmp_path, monkeypatch):
    # two members seeded identically differ only in name; they must consume
    # the same labels and finish with the same parameters
    world = init_world(GEN, 21)
    teacher = make_teacher(21)
    twins = []
    for name in ("twin-a", "twin-b"):
        mc = ModelConfig(GEN.feature_dim, (8,), (5,), GEN.tasks, AUXILIARY, ("ctr",))
        model = build_model(mc, model_init_rng(21, "twin"))
        twins.append(StudentJob(
            name=name,
            model=model,
            train=TrainConfig(base_lr=0.05),
            alpha={"ctr": 0.5},
        ))
    report = audit_fleet(monkeypatch, world, teacher, twins, sched(10), tmp_path / "s")
    assert report.ok
    a, b = twins
    # the trunk, the towers, then the aux head
    assert_same_params(a.model, b.model)


def test_fleet_audit_reports_a_perturbed_member(tmp_path, monkeypatch):
    # one member's soft labels altered at one step: the audit names that step
    def perturb(t, name, soft):
        if (t, name) == (5, "member-2"):
            soft[0, 0] += 0.25  # ctr, the first distilled task

    world = init_world(GEN, 9)
    students = [
        make_student(9, name=f"member-{i}", mode=AUXILIARY, distill=("ctr", "ltv"))
        for i in range(3)
    ]
    report = audit_fleet(monkeypatch, world, make_teacher(9), students, sched(8),
                         tmp_path / "s", perturb=perturb)
    assert not report.ok
    assert len(report.violations) == 1
    assert report.violations[0].startswith("step 5: digests diverge")


# ---------------------------------------------------------------------------
# experiment families


def exp_cfg(family, **kw):
    kw.setdefault("seeds", (0,))
    kw.setdefault("gen", GEN)
    kw.setdefault("schedule", sched(5, batch_size=16))
    kw.setdefault("teacher_trunk", (10,))
    kw.setdefault("student_trunk", (8,))
    kw.setdefault("tower_widths", (5,))
    if family == FAMILY_SCALE:  # the sweep and distill task of the family defaults
        kw.setdefault("teacher_scales", (1, 2, 4))
        kw.setdefault("distill_tasks", ("ctr",))
    return ExperimentConfig(family=family, **kw)


def test_build_runs_distill_family():
    cfg = exp_cfg(FAMILY_DISTILL, distill_tasks=("ctr", "ltv"), bias={"ltv": 1.3})
    runs = build_runs(cfg)
    assert len(runs) == 1
    run = runs[0]
    assert run.teacher.write_tasks == ("ctr", "ltv")
    assert make_teacher_job(cfg, run.teacher, 0).bias == {"ltv": 1.3}
    names = [s.name for s in run.students]
    assert names == [CONTROL_NAME, "direct", "auxiliary"]
    assert [s.mode for s in run.students] == [NO_DISTILL, DIRECT, AUXILIARY]
    assert run.students[1].distill == ("ctr", "ltv")


def test_build_runs_scale_family():
    runs = build_runs(exp_cfg(FAMILY_SCALE, teacher_scales=(1, 2, 4)))
    assert [r.run_id for r in runs] == ["t1x", "t2x", "t4x"]
    assert [r.teacher.scale for r in runs] == [1, 2, 4]
    # control rides along in the base run only
    assert [s.name for s in runs[0].students] == [CONTROL_NAME, "student-1x"]
    assert [s.name for s in runs[1].students] == ["student-2x"]


def test_build_runs_objective_family():
    runs = build_runs(exp_cfg(FAMILY_OBJECTIVE))
    (run,) = runs
    by_name = {s.name: s for s in run.students}
    assert set(by_name) == {CONTROL_NAME, "pet", "pet-pst", "pet-pst-others"}
    assert by_name["pet"].distill == ("ctr",)
    assert by_name["pet-pst"].distill == ("ctr", "sat")
    assert set(by_name["pet-pst-others"].distill) == {"ctr", "sat", "ltv", "aux_click"}
    assert run.teacher.write_tasks == ("ctr", "sat", "ltv", "aux_click")


def test_build_runs_custom_and_validation():
    with pytest.raises(ConfigError, match="students: the custom family needs"):
        exp_cfg(FAMILY_CUSTOM)
    runs = build_runs(exp_cfg(
        FAMILY_CUSTOM,
        students=(StudentDef("a", AUXILIARY, ("ctr",)), StudentDef("b")),
    ))
    assert runs[0].teacher.write_tasks == ("ctr",)
    with pytest.raises(ConfigError, match="unknown family"):
        exp_cfg("nonsense")
    with pytest.raises(ConfigError, match="duplicate seeds"):
        exp_cfg(FAMILY_DISTILL, seeds=(1, 1))
    with pytest.raises(ConfigError, match="not generated"):
        exp_cfg(FAMILY_DISTILL, distill_tasks=("nope",))
    with pytest.raises(ConfigError, match="distill_mode"):
        exp_cfg(FAMILY_DISTILL, distill_mode=NO_DISTILL)
    # a student's mode and distill tasks are checked by its model's config,
    # at load
    for sdef, error in (
        (StudentDef("s", mode="magic"), "unknown distillation mode 'magic'"),
        (StudentDef("s", distill=("ctr",)), "no_distill mode cannot list distill_tasks"),
        (StudentDef("s", mode=DIRECT), "direct mode needs at least one distill task"),
    ):
        with pytest.raises(ConfigError, match=re.escape(f"students[0]: {error}")):
            exp_cfg(FAMILY_CUSTOM, students=(sdef,))


@pytest.mark.parametrize("family", FAMILIES)
def test_bias_and_freeze_at_reach_every_teacher(family):
    cfg = exp_cfg(
        family,
        distill_tasks=("ctr",),
        bias={"ltv": 1.5},
        freeze_at=3,
        students=(StudentDef("pupil", AUXILIARY, ("ctr",)),),
    )
    for run in build_runs(cfg):
        teacher = make_teacher_job(cfg, run.teacher, seed=0)
        assert (teacher.bias, teacher.freeze_at) == ({"ltv": 1.5}, 3), run.run_id


def test_custom_teacher_writes_what_its_students_distill(tmp_path):
    cfg = exp_cfg(
        FAMILY_CUSTOM,
        students=(StudentDef("pupil", AUXILIARY, ("sat",)), StudentDef(CONTROL_NAME)),
    )
    (run,) = build_runs(cfg)
    assert run.teacher.write_tasks == ("sat",)
    run_experiment(cfg, tmp_path)
    snapshot = LabelStore(tmp_path / "main-s0").open_snapshot()
    assert [name for name, _ in snapshot.tasks] == ["sat"]
    assert len(stored_ids(snapshot)) == 5 * 16


def test_make_jobs_scale_models():
    cfg = exp_cfg(FAMILY_SCALE)
    runs = build_runs(cfg)
    t1 = make_teacher_job(cfg, runs[0].teacher, seed=0)
    t4 = make_teacher_job(cfg, runs[2].teacher, seed=0)
    assert t4.model.config.trunk_widths == (40,)
    assert t4.model.trunk.layers[0].fan_out > t1.model.trunk.layers[0].fan_out
    s = make_student_job(cfg, runs[1].students[0], seed=0)
    assert s.model.config.trunk_widths == (8,)
    assert s.model.config.mode == AUXILIARY


def test_seed_job_name_roundtrip():
    assert seed_job_name(3, "teacher") == "s3/teacher"
    assert split_job_name("s3/teacher") == (3, "teacher")
    assert split_job_name("s12/student-2x") == (12, "student-2x")


def test_run_experiment_rows_sorted_and_threaded_identical(tmp_path):
    cfg = exp_cfg(
        FAMILY_CUSTOM,
        seeds=(0, 1),
        students=(StudentDef("aux", AUXILIARY, ("ctr",)), StudentDef(CONTROL_NAME)),
    )
    log1 = run_experiment(cfg, tmp_path / "w1", threads=1)
    log2 = run_experiment(cfg, tmp_path / "w2", threads=2)
    key = lambda r: (r.step, r.job, r.task, r.metric)
    assert [key(r) for r in log1.rows] == sorted(key(r) for r in log1.rows)
    assert [(key(r), r.value) for r in log1.rows] == [(key(r), r.value) for r in log2.rows]
    jobs = {r.job for r in log1.rows}
    assert jobs == {
        "s0/teacher", "s0/aux", "s0/control", "s1/teacher", "s1/aux", "s1/control"
    }
    # per-seed store directories exist and committed segments
    assert (tmp_path / "w1" / "main-s0" / "MANIFEST").exists()
    assert (tmp_path / "w1" / "main-s1" / "MANIFEST").exists()


@pytest.mark.parametrize("threads", [0, -1])
def test_run_experiment_rejects_threads_below_one(tmp_path, threads):
    cfg = exp_cfg(FAMILY_CUSTOM, seeds=(0,), students=(StudentDef(CONTROL_NAME),))
    with pytest.raises(ConfigError, match="threads must be >= 1"):
        run_experiment(cfg, tmp_path / "w", threads=threads)
    assert not (tmp_path / "w").exists()


def _segment_layout(body: bytes) -> tuple[int, int, int, int]:
    """(n_tasks, name bytes, n_rows, n_runs) of a segment body, read with
    struct alone so the check does not lean on the decoder under test."""
    off = 8 + 8
    (n_tasks,) = struct.unpack_from("<H", body, off)
    off += 2
    names = 0
    for _ in range(n_tasks):
        (name_len,) = struct.unpack_from("<H", body, off)
        off += 2 + name_len + 1
        names += name_len
    n_rows, n_runs = struct.unpack_from("<QQ", body, off)
    return n_tasks, names, n_rows, n_runs


@pytest.mark.parametrize("family", FAMILIES)
def test_family_default_segments_hold_one_id_run(tmp_path, family):
    # the store's id saving rests on each commit being one stream batch,
    # whose ids are consecutive: every segment is exactly one run
    cfg = default_experiment(family, (0,))
    cfg = dataclasses.replace(
        cfg, schedule=dataclasses.replace(cfg.schedule, total_steps=3, eval_every=0)
    )
    if family == FAMILY_CUSTOM:
        # the custom default's lone control student distills nothing, so its
        # teacher writes nothing; give it a student that reads the store
        cfg = dataclasses.replace(
            cfg, students=cfg.students + (StudentDef("direct", DIRECT, ("ltv",)),)
        )
    run_experiment(cfg, tmp_path)
    # log_records checks the header, version 4, and segment_body each frame
    records = [r for log in sorted(tmp_path.glob(f"*/{MANIFEST_NAME}"))
               for r in log_records(log.read_bytes())]
    assert len(records) == 3 * len(build_runs(cfg))
    for record in records:
        body = segment_body(record)
        n_tasks, names, n_rows, n_runs = _segment_layout(body)
        assert n_runs == 1
        assert n_rows == cfg.schedule.batch_size
        header = 8 + 8 + 2 + 3 * n_tasks + names
        assert len(body) == header + 8 + 8 + 16 * n_runs + 4 * n_rows * n_tasks
