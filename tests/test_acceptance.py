"""End-to-end acceptance suite.

One test per acceptance criterion, in order. Each test prints a single
[acceptance] PASS/FAIL line (visible with pytest -s and in failure output)
and enforces its wall-clock budget. Expected values come from independent
oracles in oracles.py; the experiment-level checks are directional claims
evaluated over 10 fixed seeds, so with a pinned config they are exact
reproducible measurements, not statistical gambles.
"""

import shutil
import time
from dataclasses import replace

import numpy as np

from onlinekd.cli import default_experiment
from onlinekd.datagen import GenConfig, init_world
from onlinekd.labelstore import LabelStore, MANIFEST_NAME, inspect_store
from onlinekd.metrics import (
    OnlineSimConfig,
    bootstrap_ci,
    draw_slates,
    lift_pct,
    policy_metrics,
    rank_auc,
)
from onlinekd.nncore import AdamConfig, ClippyConfig, TrainConfig
from onlinekd.pipeline import (
    FAMILY_DISTILL,
    FAMILY_OBJECTIVE,
    FAMILY_SCALE,
    ExperimentConfig,
    ScheduleConfig,
    StudentDef,
    TeacherDef,
    make_student_job,
    make_teacher_job,
    model_init_rng,
    run_experiment,
    run_online,
    split_job_name,
)
from onlinekd.ranker import (
    AUXILIARY,
    BINARY,
    DIRECT,
    MODES,
    NO_DISTILL,
    ModelConfig,
    REGRESSION,
    build_model,
    compute_loss_and_grads,
    model_forward,
    task_score,
)

from oracles import (
    audit_fleet,
    brute_force_auc,
    metric_value,
    model_blocks,
    numeric_gradient,
    ref_total_loss,
    relative_error,
    segment_record,
    stored_ids,
)

SEEDS = tuple(range(10))
CI_RESAMPLES = 2000
CI_SEED = 1234


def _verdict(name, ok, detail):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def _train(base_lr, warmup, clip):
    return TrainConfig(
        base_lr=base_lr,
        warmup_steps=warmup,
        activation_clip=clip,
        clippy=ClippyConfig(),
        adam=AdamConfig(),
    )


def _grab(log, metric, task, step):
    """Final-step metric keyed by (job name, seed)."""
    out = {}
    for r in log.rows:
        if r.metric == metric and r.task == task and r.step == step:
            seed, name = split_job_name(r.job)
            out[(name, seed)] = r.value
    return out


def _jitter_biases(model, rng):
    # move zero-init biases off the exact ReLU kink where a central
    # difference and the subgradient convention legitimately disagree
    for layers in model_blocks(model, model.params).values():
        for _, bias in layers:
            bias += rng.uniform(0.01, 0.05, size=bias.shape)


# --- 1. gradient correctness ------------------------------------------------


def test_c1_gradient_correctness():
    t0 = time.time()
    rng = np.random.default_rng(7)
    tasks = GenConfig(feature_dim=4).tasks
    names = [t.name for t in tasks]
    worst = 0.0
    for i in range(20):
        mode = MODES[i % len(MODES)]
        dim = int(rng.integers(3, 9))
        trunk = tuple(int(w) for w in rng.integers(2, 17, size=rng.integers(1, 3)))
        tower = (int(rng.integers(2, 7)),)
        distill = ()
        if mode != NO_DISTILL:
            k = int(rng.integers(1, 4))
            distill = tuple(sorted(rng.choice(names, size=k, replace=False)))
        mc = ModelConfig(dim, trunk, tower, tasks, mode, distill)
        model = build_model(mc, np.random.default_rng(100 + i))
        _jitter_biases(model, rng)

        n = int(rng.integers(6, 11))
        x = rng.standard_normal((n, dim))
        hard = np.empty((len(tasks), n))
        for row, t in zip(hard, tasks):
            if t.kind == BINARY:
                row[:] = rng.integers(0, 2, n)
            else:
                row[:] = rng.standard_normal(n)
        soft = present = alpha = None
        clip = float(rng.uniform(2.0, 6.0)) if rng.random() < 0.5 else None
        if distill:
            # one coverage mask for every distilled task, as a store lookup gives
            present = rng.random(n) < 0.75
            soft, alpha = np.empty((len(distill), n)), np.empty(len(distill))
            kinds = {t.name: t.kind for t in tasks}
            for d, name in enumerate(distill):
                soft[d] = (rng.uniform(0.05, 0.95, n) if kinds[name] == BINARY
                           else rng.standard_normal(n))
                alpha[d] = rng.uniform(0.2, 1.5)

        def loss():
            logits = model_forward(model, x, clip)
            return ref_total_loss(model, *logits, hard, soft, present, alpha)

        grads = compute_loss_and_grads(model, x, hard, soft, present, alpha, clip)
        params, grad_blocks = model_blocks(model, model.params), model_blocks(model, grads)
        arrays, analytic = [], []
        for key in params:
            for (w, b), (gw, gb) in zip(params[key], grad_blocks[key], strict=True):
                arrays.extend([w, b])
                analytic.extend([gw, gb])
        numeric = numeric_gradient(loss, arrays, eps=1e-6)
        worst = max(worst, relative_error(numeric, analytic))

    elapsed = time.time() - t0
    ok = worst < 1e-4 and elapsed < 60.0
    assert _verdict(
        "gradient-correctness", ok,
        f"20 configs, worst rel err {worst:.2e}, {elapsed:.1f}s",
    )


# --- 2. AUC oracle equivalence ----------------------------------------------


def test_c2_auc_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(11)
    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(2, 201))
        scores = rng.integers(0, 12, n) / 4.0
        labels = rng.integers(0, 2, n)
        if labels.min() == labels.max():
            labels[int(rng.integers(n))] = 1 - labels[0]
        if rank_auc(scores, labels) != brute_force_auc(scores, labels):
            mismatches += 1
    elapsed = time.time() - t0
    ok = mismatches == 0 and elapsed < 10.0
    assert _verdict(
        "auc-oracle-equivalence", ok,
        f"1000 instances, {mismatches} mismatches, {elapsed:.1f}s",
    )


# --- 3. bias leakage: auxiliary isolates, direct inherits --------------------


def test_c3_bias_leakage_direction(tmp_path):
    t0 = time.time()
    cfg = default_experiment(FAMILY_DISTILL, SEEDS)
    log = run_experiment(cfg, tmp_path)
    T = cfg.schedule.total_steps
    rmse = _grab(log, "rmse", "ltv", T)
    calib = _grab(log, "calibration", "ltv", T)

    med = {v: float(np.median([rmse[(v, s)] for s in SEEDS]))
           for v in ("control", "direct", "auxiliary")}
    a_ok = med["auxiliary"] < med["direct"]
    b_hits = sum(
        1 for s in SEEDS
        if abs(calib[("auxiliary", s)] - 1.0) < abs(calib[("direct", s)] - 1.0)
    )
    rel = [abs(rmse[("direct", s)] - rmse[("control", s)]) / rmse[("control", s)]
           for s in SEEDS]
    c_med = float(np.median(rel))

    elapsed = time.time() - t0
    ok = a_ok and b_hits >= 8 and c_med < 0.01 and elapsed < 600.0
    assert _verdict(
        "bias-leakage-direction", ok,
        f"median rmse aux {med['auxiliary']:.4f} vs direct {med['direct']:.4f}, "
        f"calib {b_hits}/10, direct-control gap {100 * c_med:.2f}%, {elapsed:.0f}s",
    )


# --- 4. teacher scale lifts students ------------------------------------------


def test_c4_teacher_scale_direction(tmp_path):
    t0 = time.time()
    cfg = default_experiment(FAMILY_SCALE, SEEDS)
    log = run_experiment(cfg, tmp_path)
    T = cfg.schedule.total_steps

    # teacher quality score: mean AUC over the binary tasks
    mean_auc = {}
    for task in ("ctr", "sat", "aux_click"):
        for key, val in _grab(log, "auc", task, T).items():
            mean_auc.setdefault(key, []).append(val)
    mean_auc = {k: float(np.mean(v)) for k, v in mean_auc.items()}
    a_hits = sum(
        1 for s in SEEDS
        if mean_auc[("teacher-4x", s)] >= mean_auc[("teacher-2x", s)]
        >= mean_auc[("teacher-1x", s)]
    )

    auc = _grab(log, "auc", "ctr", T)
    b_hits = sum(1 for s in SEEDS if auc[("student-2x", s)] > auc[("control", s)])

    eng = _grab(log, "engagement", "-", T)
    lifts = np.array([
        lift_pct(eng[("student-2x", s)], eng[("control", s)]) for s in SEEDS
    ])
    lo, hi = bootstrap_ci(lifts, resamples=CI_RESAMPLES, seed=CI_SEED)
    c_ok = float(np.mean(lifts)) > 0.0 and lo > 0.0

    elapsed = time.time() - t0
    ok = a_hits >= 8 and b_hits >= 8 and c_ok and elapsed < 1200.0
    assert _verdict(
        "teacher-scale-direction", ok,
        f"teacher AUC monotone {a_hits}/10, student>control {b_hits}/10, "
        f"lift CI [{lo:.2f},{hi:.2f}]%, {elapsed:.0f}s",
    )


# --- 5. objective selection trades engagement for satisfaction ----------------


def test_c5_objective_selection_direction(tmp_path):
    t0 = time.time()
    cfg = default_experiment(FAMILY_OBJECTIVE, SEEDS)
    log = run_experiment(cfg, tmp_path)
    T = cfg.schedule.total_steps
    sat = _grab(log, "satisfaction", "-", T)
    eng = _grab(log, "engagement", "-", T)

    sat_hits = sum(1 for s in SEEDS if sat[("pet-pst", s)] >= sat[("pet", s)])
    lifts = [lift_pct(eng[("pet", s)], eng[("control", s)]) for s in SEEDS]
    lift_hits = sum(1 for l in lifts if l > 0.0)

    elapsed = time.time() - t0
    ok = sat_hits >= 7 and lift_hits >= 8 and elapsed < 1200.0
    assert _verdict(
        "objective-selection-direction", ok,
        f"satisfaction ordering {sat_hits}/10, engagement lift>0 {lift_hits}/10, "
        f"{elapsed:.0f}s",
    )


# --- 6. a frozen teacher goes stale under drift --------------------------------


def test_c6_teacher_staleness(tmp_path):
    t0 = time.time()
    total = 400
    gen = GenConfig(feature_dim=8, drift_rate=0.999, ltv_noise_sigma=0.8)
    sched = ScheduleConfig(
        total_steps=total, batch_size=128, eval_every=total // 2, eval_batches=32
    )
    base = ExperimentConfig(
        family="custom",
        seeds=SEEDS,
        gen=gen,
        schedule=sched,
        teacher_trunk=(12, 6),
        student_trunk=(12, 6),
        tower_widths=(12,),
        teacher_train=_train(0.02, 20, 6.0),
        student_train=_train(0.02, 20, None),
        distill_tasks=("ctr",),
        distill_mode=DIRECT,
        students=(StudentDef("pupil", DIRECT, ("ctr",), {"ctr": 2.0}),),
    )
    wins = 0
    for seed in SEEDS:
        finals = {}
        for tag, freeze in (("live", None), ("frozen", total // 2)):
            world = init_world(gen, seed)
            teacher = make_teacher_job(
                replace(base, freeze_at=freeze), TeacherDef("teacher", 1, ("ctr",)), seed
            )
            student = make_student_job(base, base.students[0], seed)
            log = run_online(
                world, teacher, [student], sched, tmp_path / f"{tag}-{seed}"
            )
            finals[tag] = metric_value(log, job="pupil", metric="auc", task="ctr", step=total)
        wins += finals["frozen"] < finals["live"]

    elapsed = time.time() - t0
    ok = wins >= 8 and elapsed < 600.0
    assert _verdict(
        "teacher-staleness", ok,
        f"frozen teacher worse in {wins}/10 seeds, {elapsed:.0f}s",
    )


# --- 7. store consistency and crash safety -------------------------------------


STORE_TASKS = [("ctr", BINARY), ("ltv", REGRESSION)]


def _crash_base_store(root, rng):
    """Committed store with 10 segments of 20 rows each."""
    store = LabelStore(root)
    expected = {}
    with store.writer(STORE_TASKS) as w:
        for k in range(10):
            ids = np.arange(k * 20, (k + 1) * 20, dtype=np.uint64)
            vals = {
                "ctr": rng.uniform(0.05, 0.95, 20).astype(np.float32),
                "ltv": rng.standard_normal(20).astype(np.float32),
            }
            w.append(ids, vals, teacher_version=k + 1)
            for j, eid in enumerate(ids):
                expected[int(eid)] = {t: float(vals[t][j]) for t in vals}
    return expected


def _check_store_intact(root, expected, commits):
    store = LabelStore(root)
    snap = store.open_snapshot()
    assert len(snap.segments) == commits
    assert len(stored_ids(snap)) == len(expected)
    ids = np.array(sorted(expected), dtype=np.uint64)
    present, cols = snap.lookup_batch(ids)
    assert present.all()
    assert snap.tasks == tuple(STORE_TASKS)
    for (task, _), col in zip(STORE_TASKS, cols, strict=True):
        want = np.array([expected[int(i)][task] for i in ids], dtype=np.float32)
        assert np.array_equal(col, want)
    report = inspect_store(root)
    assert report.ok, report.error or report.segments


def test_c7_store_consistency_and_crash_safety(tmp_path, monkeypatch):
    t0 = time.time()

    # (a) 4 students, 1 writer, >= 200 segments, byte-identical consumption
    gen = GenConfig(feature_dim=8, drift_rate=0.999, ltv_noise_sigma=0.8)
    sched = ScheduleConfig(total_steps=200, batch_size=24, eval_every=0, eval_batches=2)
    base = ExperimentConfig(
        family="custom",
        seeds=(0,),
        gen=gen,
        schedule=sched,
        teacher_trunk=(10,),
        student_trunk=(8,),
        tower_widths=(5,),
        teacher_train=_train(0.05, 10, 6.0),
        student_train=_train(0.05, 10, None),
        distill_tasks=("ctr",),
        students=(
            StudentDef("fleet-a", AUXILIARY, ("ctr",), {"ctr": 1.0}),
            StudentDef("fleet-b", AUXILIARY, ("ctr",), {"ctr": 1.0}),
            StudentDef("fleet-c", AUXILIARY, ("ctr",), {"ctr": 1.0}),
            StudentDef("fleet-d", AUXILIARY, ("ctr",), {"ctr": 1.0}),
        ),
    )
    world = init_world(gen, 0)
    teacher = make_teacher_job(base, TeacherDef("teacher", 1, ("ctr",)), 0)
    students = [make_student_job(base, sdef, 0) for sdef in base.students]
    report = audit_fleet(monkeypatch, world, teacher, students, sched, tmp_path / "fleet")
    fleet_ok = (
        report.ok
        and report.fleet_size == 4
        and report.segments_committed >= 200
        and not report.violations
    )

    # (b) 100 crash points: a torn in-flight append must never damage the
    # committed prefix. The log ends in a prefix of the appended record, cut
    # at 0 bytes, inside its length, the length's crc and the record's crc,
    # and at random offsets in between, or in zeros where the record should
    # be. Each reads back the committed prefix bit for bit; then a writer
    # truncates the tail and appends, and a new handle sees the new record.
    rng = np.random.default_rng(23)
    base_root = tmp_path / "crash-base"
    expected = _crash_base_store(base_root, rng)
    base_log = (base_root / MANIFEST_NAME).read_bytes()
    sid = 11
    new_ids = np.arange(1000, 1030, dtype=np.uint64)
    new_vals = {
        "ctr": rng.uniform(0.05, 0.95, 30).astype(np.float32),
        "ltv": rng.standard_normal(30).astype(np.float32),
    }
    record = segment_record(sid, 99, STORE_TASKS, new_ids, new_vals)
    n = len(record)
    cuts = [0, 1, 2, 3, 4, 5, 6, 7, n - 4, n - 3, n - 2, n - 1]
    cuts += rng.integers(8, n - 4, size=87).tolist()
    tails = [record[:cut] for cut in cuts] + [bytes(n)]
    assert len(tails) == 100
    crashes_ok = 0
    for case, tail in enumerate(tails):
        root = tmp_path / f"crash-{case}"
        shutil.copytree(base_root, root)
        (root / MANIFEST_NAME).write_bytes(base_log + tail)
        _check_store_intact(root, expected, 10)
        assert inspect_store(root).torn_bytes == len(tail)
        with LabelStore(root).writer(STORE_TASKS) as w:
            assert w.append(new_ids, new_vals, teacher_version=99) == sid
        assert (root / MANIFEST_NAME).read_bytes() == base_log + record
        present, cols = LabelStore(root).open_snapshot().lookup_batch(new_ids)
        assert present.all()
        assert np.array_equal(cols, np.array([new_vals[t] for t, _ in STORE_TASKS]))
        crashes_ok += 1

    # (c) 1e6 random f32 payloads survive a store round trip bit-exactly
    n = 1_000_000
    bits = rng.integers(0, 2**32, size=n, dtype=np.uint64).astype(np.uint32)
    vals = bits.view(np.float32).copy()
    bad = ~np.isfinite(vals)
    while bad.any():
        rebits = rng.integers(0, 2**32, size=int(bad.sum()), dtype=np.uint64)
        vals[bad] = rebits.astype(np.uint32).view(np.float32)
        bad = ~np.isfinite(vals)
    big_root = tmp_path / "roundtrip"
    store = LabelStore(big_root)
    with store.writer([("ltv", REGRESSION)]) as w:
        w.append(np.arange(n, dtype=np.uint64), {"ltv": vals}, teacher_version=1)
    present, cols = store.open_snapshot().lookup_batch(np.arange(n, dtype=np.uint64))
    roundtrip_ok = bool(present.all()) and cols.tobytes() == vals.tobytes()

    elapsed = time.time() - t0
    ok = fleet_ok and crashes_ok == 100 and roundtrip_ok and elapsed < 300.0
    assert _verdict(
        "store-consistency-crash-safety", ok,
        f"fleet {report.segments_committed} segments ok={fleet_ok}, "
        f"crash points {crashes_ok}/100, f32 roundtrip {roundtrip_ok}, {elapsed:.0f}s",
    )


# --- 8. degeneracy identities ---------------------------------------------------


def test_c8_degeneracy_identities(tmp_path):
    t0 = time.time()

    # alpha=0 direct distillation must be bit-identical to no distillation
    gen = GenConfig(feature_dim=8, drift_rate=0.999, ltv_noise_sigma=0.8)
    sched = ScheduleConfig(total_steps=30, batch_size=16, eval_every=0, eval_batches=2)
    base = ExperimentConfig(
        family="custom",
        seeds=(0,),
        gen=gen,
        schedule=sched,
        teacher_trunk=(10,),
        student_trunk=(8,),
        tower_widths=(5,),
        teacher_train=_train(0.05, 5, 6.0),
        student_train=_train(0.05, 5, None),
        distill_tasks=("ctr",),
        distill_mode=DIRECT,
        students=(StudentDef("mirror", DIRECT, ("ctr",), {"ctr": 0.0}),),
    )
    finals = {}
    for tag, sdef in (
        ("direct0", StudentDef("mirror", DIRECT, ("ctr",), {"ctr": 0.0})),
        ("plain", StudentDef("mirror")),
    ):
        world = init_world(gen, 3)
        teacher = make_teacher_job(base, TeacherDef("teacher", 1, ("ctr",)), 3)
        student = make_student_job(base, sdef, 3)
        run_online(world, teacher, [student], sched, tmp_path / tag)
        finals[tag] = student.model
    m0, m1 = finals["direct0"], finals["plain"]
    # trunk and towers: neither model has aux heads
    b0, b1 = model_blocks(m0, m0.params), model_blocks(m1, m1.params)
    alpha_zero_ok = list(b0) == list(b1) and all(
        np.array_equal(w0, w1) and np.array_equal(bias0, bias1)
        for key in b0
        for (w0, bias0), (w1, bias1) in zip(b0[key], b1[key], strict=True)
    )

    # a model compared against itself shows exactly zero lift
    mc = ModelConfig(gen.feature_dim, (8,), (5,), gen.tasks, NO_DISTILL)
    model = build_model(mc, model_init_rng(5, "self"))
    world = init_world(gen, 5)

    slates = draw_slates(
        world, OnlineSimConfig(slate_size=8, n_slates=200), np.random.default_rng(5)
    )
    flat = slates.x.reshape(-1, gen.feature_dim)

    def score():
        z, _ = model_forward(model, flat)
        return task_score(z[0], BINARY).reshape(slates.true_policy.shape)  # ctr is task 0

    e_t, s_t = policy_metrics(slates, score())
    e_c, s_c = policy_metrics(slates, score())
    zero_lift_ok = (
        np.array_equal(e_t, e_c)
        and np.array_equal(s_t, s_c)
        and lift_pct(float(e_t.mean()), float(e_c.mean())) == 0.0
        and lift_pct(float(s_t.mean()), float(s_c.mean())) == 0.0
        and lift_pct(3.7, 3.7) == 0.0
    )

    # a snapshot opened before an append never observes it
    store = LabelStore(tmp_path / "iso")
    rng = np.random.default_rng(9)
    with store.writer(STORE_TASKS) as w:
        w.append(
            np.arange(10, dtype=np.uint64),
            {"ctr": rng.uniform(0.1, 0.9, 10).astype(np.float32),
             "ltv": rng.standard_normal(10).astype(np.float32)},
            teacher_version=1,
        )
        before = store.open_snapshot()
        w.append(
            np.arange(100, 120, dtype=np.uint64),
            {"ctr": rng.uniform(0.1, 0.9, 20).astype(np.float32),
             "ltv": rng.standard_normal(20).astype(np.float32)},
            teacher_version=2,
        )
        after = store.open_snapshot()
    probe = np.array([105], dtype=np.uint64)
    iso_ok = (
        len(stored_ids(before)) == 10
        and not before.lookup_batch(probe)[0][0]
        and len(stored_ids(after)) == 30
        and after.lookup_batch(probe)[0][0]
    )

    elapsed = time.time() - t0
    ok = alpha_zero_ok and zero_lift_ok and iso_ok and elapsed < 60.0
    assert _verdict(
        "degeneracy-identities", ok,
        f"alpha0 bitwise {alpha_zero_ok}, self-lift zero {zero_lift_ok}, "
        f"snapshot isolation {iso_ok}, {elapsed:.1f}s",
    )
