"""Command line front end.

Subcommands:
  run <config.yaml>   execute an experiment family, write metrics.csv,
                      report.md, and run_manifest.json
  inspect <store>     audit a label store directory (manifest, checksums)
  replay <csv>        rebuild report.md from a previously written metrics.csv

Exit codes: 0 success, 1 config/usage error, 2 runtime divergence,
3 store corruption.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np
import yaml

from .datagen import DEFAULT_TASKS, GenConfig
from .errors import ConfigError, DivergenceError, SchemaError, StoreCorruptionError
from .labelstore import inspect_store
from .metrics import OnlineSimConfig, bootstrap_ci, lift_pct
from .nncore import AdamConfig, ClippyConfig, TrainConfig
from .pipeline import (
    CONTROL_NAME,
    FAMILIES,
    FAMILY_CUSTOM,
    FAMILY_DISTILL,
    FAMILY_OBJECTIVE,
    FAMILY_SCALE,
    JOB_LEVEL_TASK,
    ExperimentConfig,
    MetricRow,
    ScheduleConfig,
    StudentDef,
    build_runs,
    read_metrics_csv,
    run_experiment,
    split_job_name,
    write_metrics_csv,
)
from .ranker import NO_DISTILL, TaskSpec

_CI_SEED = 1234
_CI_RESAMPLES = 2000


# ---------------------------------------------------------------------------
# family defaults: one place for the tuned knobs the subcommands and the
# acceptance suite share


def _train(base_lr, warmup, clip):
    return TrainConfig(
        base_lr=base_lr,
        warmup_steps=warmup,
        activation_clip=clip,
        clippy=ClippyConfig(),
        adam=AdamConfig(),
    )


def default_experiment(family: str, seeds: tuple[int, ...]) -> ExperimentConfig:
    """Tuned baseline configuration for each experiment family."""
    if family == FAMILY_DISTILL:
        # bias-leakage setup: stationary stream, teacher trained on inflated
        # LTV labels; long horizon so student calibration has converged
        return ExperimentConfig(
            family=family,
            seeds=seeds,
            gen=GenConfig(feature_dim=24, drift_rate=1.0, ltv_noise_sigma=0.8),
            schedule=ScheduleConfig(
                total_steps=3000, batch_size=192, eval_every=1000, eval_batches=10
            ),
            teacher_trunk=(48, 24),
            student_trunk=(32, 16),
            tower_widths=(12,),
            teacher_train=_train(0.02, 50, 6.0),
            student_train=_train(0.02, 50, None),
            teacher_scale=2,
            distill_tasks=("ltv",),
            alpha={"ltv": 0.6},
            bias={"ltv": 1.3},
        )
    if family == FAMILY_SCALE:
        # capacity-starved base teacher: a (6, 3) trunk feeds four task towers
        # through a 3-dim bottleneck, so doubling width genuinely helps; the
        # short horizon keeps teachers in the regime where scale separates
        return ExperimentConfig(
            family=family,
            seeds=seeds,
            gen=GenConfig(feature_dim=24, drift_rate=1.0, ltv_noise_sigma=0.8),
            schedule=ScheduleConfig(
                total_steps=250,
                batch_size=128,
                eval_every=125,
                eval_batches=32,
                online_sim=OnlineSimConfig(slate_size=8, n_slates=3000),
            ),
            teacher_trunk=(6, 3),
            student_trunk=(12, 6),
            tower_widths=(12,),
            teacher_train=_train(0.02, 20, 6.0),
            student_train=_train(0.02, 20, None),
            teacher_scales=(1, 2, 4),
            distill_tasks=("ctr",),
            alpha={"ctr": 2.0},
        )
    if family == FAMILY_OBJECTIVE:
        # students are kept in the under-trained regime where distillation
        # dominates the label signal: the engagement/satisfaction trade-off
        # between objective sets shows up in trunk geometry, not at convergence
        return ExperimentConfig(
            family=family,
            seeds=seeds,
            gen=GenConfig(
                feature_dim=24,
                drift_rate=1.0,
                ltv_noise_sigma=0.8,
                conflict_angle=2.0 * np.pi / 3.0,
            ),
            schedule=ScheduleConfig(
                total_steps=250,
                batch_size=128,
                eval_every=125,
                eval_batches=16,
                online_sim=OnlineSimConfig(slate_size=8, n_slates=4000),
            ),
            teacher_trunk=(32, 16),
            student_trunk=(12, 6),
            tower_widths=(12,),
            teacher_train=_train(0.02, 20, 6.0),
            student_train=_train(0.02, 20, None),
            teacher_scale=2,
            alpha={"ctr": 2.0, "sat": 2.0},
        )
    if family == FAMILY_CUSTOM:
        return ExperimentConfig(
            family=family,
            seeds=seeds,
            gen=GenConfig(feature_dim=24, drift_rate=0.999, ltv_noise_sigma=0.8),
            schedule=ScheduleConfig(
                total_steps=400, batch_size=192, eval_every=100, eval_batches=6
            ),
            teacher_train=_train(0.02, 50, 6.0),
            student_train=_train(0.02, 50, None),
            students=(StudentDef(CONTROL_NAME),),
        )
    raise ConfigError(f"unknown family {family!r}; pick one of {FAMILIES}")


# ---------------------------------------------------------------------------
# YAML -> ExperimentConfig


def _expect(raw, key, typ, where):
    val = raw[key]
    if typ is float and isinstance(val, int) and not isinstance(val, bool):
        val = float(val)
    if not isinstance(val, typ) or isinstance(val, bool) and typ is not bool:
        raise ConfigError(f"{where}.{key}: expected {typ.__name__}, got {type(val).__name__}")
    return val


def _check_keys(raw, allowed, where):
    unknown = sorted(set(raw) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown keys under {where}: {', '.join(unknown)}")


def _int_tuple(raw, key, where):
    val = raw[key]
    if not isinstance(val, (list, tuple)) or not val or not all(
        isinstance(v, int) and not isinstance(v, bool) for v in val
    ):
        raise ConfigError(f"{where}.{key}: expected a non-empty list of ints")
    return tuple(val)


def _parse_tasks(raw_tasks) -> tuple[TaskSpec, ...]:
    specs = []
    for i, item in enumerate(raw_tasks):
        if not isinstance(item, dict):
            raise ConfigError(f"stream.tasks[{i}]: expected a mapping")
        _check_keys(item, ("name", "kind", "category"), f"stream.tasks[{i}]")
        if "name" not in item or "kind" not in item:
            raise ConfigError(f"stream.tasks[{i}]: name and kind are required")
        specs.append(
            TaskSpec(
                name=str(item["name"]),
                kind=str(item["kind"]),
                category=str(item.get("category", "other")),
            )
        )
    return tuple(specs)


def _parse_train(raw, where, base: TrainConfig) -> TrainConfig:
    _check_keys(
        raw, ("base_lr", "warmup_steps", "activation_clip", "clippy", "adam"), where
    )
    clippy = base.clippy
    if "clippy" in raw:
        c = raw["clippy"]
        if c is None:
            clippy = None
        else:
            _check_keys(c, ("sigma_rel", "sigma_abs"), f"{where}.clippy")
            clippy = ClippyConfig(
                sigma_rel=float(c.get("sigma_rel", 0.1)),
                sigma_abs=float(c.get("sigma_abs", 1e-3)),
            )
    adam = base.adam
    if "adam" in raw:
        a = raw["adam"]
        _check_keys(a, ("beta1", "beta2", "epsilon"), f"{where}.adam")
        adam = AdamConfig(
            beta1=float(a.get("beta1", 0.9)),
            beta2=float(a.get("beta2", 0.999)),
            epsilon=float(a.get("epsilon", 1e-8)),
        )
    clip = base.activation_clip
    if "activation_clip" in raw:
        clip = None if raw["activation_clip"] is None else float(raw["activation_clip"])
    return TrainConfig(
        base_lr=float(raw.get("base_lr", base.base_lr)),
        warmup_steps=int(raw.get("warmup_steps", base.warmup_steps)),
        activation_clip=clip,
        clippy=clippy,
        adam=adam,
    )


def _parse_students(raw_students) -> tuple[StudentDef, ...]:
    out = []
    for i, item in enumerate(raw_students):
        if not isinstance(item, dict):
            raise ConfigError(f"students[{i}]: expected a mapping")
        _check_keys(item, ("name", "mode", "distill", "alpha", "scale"), f"students[{i}]")
        if "name" not in item:
            raise ConfigError(f"students[{i}]: name is required")
        alpha = item.get("alpha", {})
        if not isinstance(alpha, dict):
            raise ConfigError(f"students[{i}].alpha: expected a mapping")
        mode = str(item.get("mode", NO_DISTILL))
        if mode == "none":
            mode = NO_DISTILL
        out.append(
            StudentDef(
                name=str(item["name"]),
                mode=mode,
                distill=tuple(str(t) for t in item.get("distill", ())),
                alpha={str(k): float(v) for k, v in alpha.items()},
                scale=int(item.get("scale", 1)),
            )
        )
    return tuple(out)


_TOP_KEYS = (
    "family", "seeds", "stream", "schedule", "model", "training",
    "distill", "teacher", "students",
)


def build_config(raw: dict, seeds_override: tuple[int, ...] | None = None) -> ExperimentConfig:
    """Resolve a parsed YAML mapping against family defaults."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    _check_keys(raw, _TOP_KEYS, "config")
    if "family" not in raw:
        raise ConfigError("config.family is required")
    family = _expect(raw, "family", str, "config")
    seeds = seeds_override
    if seeds is None:
        raw_seeds = raw.get("seeds", list(range(10)))
        if not isinstance(raw_seeds, list) or not all(
            isinstance(s, int) and not isinstance(s, bool) for s in raw_seeds
        ):
            raise ConfigError("config.seeds: expected a list of ints")
        seeds = tuple(raw_seeds)
    base = default_experiment(family, seeds)
    gen = base.gen
    if "stream" in raw:
        s = raw["stream"]
        _check_keys(
            s,
            ("feature_dim", "drift_rate", "logit_scale", "ltv_noise_sigma",
             "conflict_angle", "tasks"),
            "stream",
        )
        gen = GenConfig(
            feature_dim=int(s.get("feature_dim", gen.feature_dim)),
            drift_rate=float(s.get("drift_rate", gen.drift_rate)),
            logit_scale=float(s.get("logit_scale", gen.logit_scale)),
            ltv_noise_sigma=float(s.get("ltv_noise_sigma", gen.ltv_noise_sigma)),
            conflict_angle=float(s.get("conflict_angle", gen.conflict_angle)),
            tasks=_parse_tasks(s["tasks"]) if "tasks" in s else gen.tasks,
        )
    sched = base.schedule
    if "schedule" in raw:
        s = raw["schedule"]
        _check_keys(
            s,
            ("total_steps", "batch_size", "eval_every", "eval_batches",
             "online_sim", "online_sim_every", "durable_store"),
            "schedule",
        )
        sim = sched.online_sim
        if "online_sim" in s:
            o = s["online_sim"]
            if o is None:
                sim = None
            else:
                _check_keys(
                    o, ("slate_size", "n_slates", "policy_task", "satisfaction_task"),
                    "schedule.online_sim",
                )
                sim = OnlineSimConfig(
                    slate_size=int(o.get("slate_size", 8)),
                    n_slates=int(o.get("n_slates", 2000)),
                    policy_task=str(o.get("policy_task", "ctr")),
                    satisfaction_task=str(o.get("satisfaction_task", "sat")),
                )
        sched = ScheduleConfig(
            total_steps=int(s.get("total_steps", sched.total_steps)),
            batch_size=int(s.get("batch_size", sched.batch_size)),
            eval_every=int(s.get("eval_every", sched.eval_every)),
            eval_batches=int(s.get("eval_batches", sched.eval_batches)),
            online_sim=sim,
            online_sim_every=int(s.get("online_sim_every", sched.online_sim_every)),
            durable_store=bool(s.get("durable_store", sched.durable_store)),
        )
    teacher_trunk = base.teacher_trunk
    student_trunk = base.student_trunk
    tower = base.tower_widths
    teacher_scale = base.teacher_scale
    teacher_scales = base.teacher_scales
    if "model" in raw:
        m = raw["model"]
        _check_keys(
            m,
            ("teacher_trunk", "student_trunk", "tower", "teacher_scale", "teacher_scales"),
            "model",
        )
        if "teacher_trunk" in m:
            teacher_trunk = _int_tuple(m, "teacher_trunk", "model")
        if "student_trunk" in m:
            student_trunk = _int_tuple(m, "student_trunk", "model")
        if "tower" in m:
            tower = _int_tuple(m, "tower", "model")
        if "teacher_scale" in m:
            teacher_scale = _expect(m, "teacher_scale", int, "model")
        if "teacher_scales" in m:
            teacher_scales = _int_tuple(m, "teacher_scales", "model")
    teacher_train = base.teacher_train
    student_train = base.student_train
    if "training" in raw:
        tr = raw["training"]
        _check_keys(tr, ("teacher", "student"), "training")
        if "teacher" in tr:
            teacher_train = _parse_train(tr["teacher"], "training.teacher", teacher_train)
        if "student" in tr:
            student_train = _parse_train(tr["student"], "training.student", student_train)
    distill_tasks = base.distill_tasks
    distill_mode = base.distill_mode
    alpha = dict(base.alpha)
    if "distill" in raw:
        d = raw["distill"]
        _check_keys(d, ("mode", "tasks", "alpha"), "distill")
        if "tasks" in d:
            distill_tasks = tuple(str(t) for t in d["tasks"])
        if "mode" in d:
            distill_mode = str(d["mode"])
        if "alpha" in d:
            if not isinstance(d["alpha"], dict):
                raise ConfigError("distill.alpha: expected a mapping")
            alpha = {str(k): float(v) for k, v in d["alpha"].items()}
    bias = dict(base.bias)
    freeze_at = base.freeze_at
    label_delay = base.label_delay
    write_every = base.write_every
    if "teacher" in raw:
        te = raw["teacher"]
        _check_keys(te, ("bias", "freeze_at", "label_delay", "write_every"), "teacher")
        if "bias" in te:
            if not isinstance(te["bias"], dict):
                raise ConfigError("teacher.bias: expected a mapping")
            bias = {str(k): float(v) for k, v in te["bias"].items()}
        if "freeze_at" in te:
            freeze_at = None if te["freeze_at"] is None else int(te["freeze_at"])
        if "label_delay" in te:
            label_delay = int(te["label_delay"])
        if "write_every" in te:
            write_every = int(te["write_every"])
    students = base.students
    if "students" in raw:
        students = _parse_students(raw["students"])
    return ExperimentConfig(
        family=family,
        seeds=seeds,
        gen=gen,
        schedule=sched,
        teacher_trunk=teacher_trunk,
        student_trunk=student_trunk,
        tower_widths=tower,
        teacher_train=teacher_train,
        student_train=student_train,
        teacher_scale=teacher_scale,
        teacher_scales=teacher_scales,
        distill_tasks=distill_tasks,
        distill_mode=distill_mode,
        alpha=alpha,
        bias=bias,
        freeze_at=freeze_at,
        label_delay=label_delay,
        write_every=write_every,
        students=students,
    )


def load_config(path, seeds_override=None) -> ExperimentConfig:
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as e:
        raise ConfigError(f"{path}: invalid YAML: {e}") from None
    return build_config(raw if raw is not None else {}, seeds_override)


def config_digest(cfg: ExperimentConfig) -> str:
    """Stable hash of the fully resolved configuration."""
    blob = json.dumps(asdict(cfg), sort_keys=True, default=_json_fallback)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _json_fallback(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


# ---------------------------------------------------------------------------
# report rendering


def _fmt(v: float) -> str:
    return f"{v:.4f}"


def _fmt_ci(values: list[float]) -> str:
    mean = float(np.mean(values))
    if len(values) < 10:  # bootstrap floor; below it report the bare mean
        return _fmt(mean)
    lo, hi = bootstrap_ci(
        np.asarray(values), resamples=_CI_RESAMPLES, seed=_CI_SEED
    )
    return f"{_fmt(mean)} [{_fmt(lo)}, {_fmt(hi)}]"


def _infer_family(variants: list[str]) -> str:
    if "direct" in variants and "auxiliary" in variants:
        return FAMILY_DISTILL
    if any(v.startswith("student-") for v in variants):
        return FAMILY_SCALE
    if "pet-pst" in variants:
        return FAMILY_OBJECTIVE
    return FAMILY_CUSTOM


def build_report(
    rows: list[MetricRow],
    *,
    heading: str = "Experiment report",
    family: str | None = None,
) -> str:
    if not rows:
        raise SchemaError("no metric rows to report")
    final = max(r.step for r in rows)
    by_cell: dict[tuple[str, str, str], dict[int, float]] = {}
    for r in rows:
        if r.step != final:
            continue
        seed, variant = split_job_name(r.job)
        by_cell.setdefault((variant, r.task, r.metric), {})[seed] = r.value
    variants = sorted({v for v, _, _ in by_cell})
    if CONTROL_NAME in variants:
        variants.remove(CONTROL_NAME)
        variants.insert(0, CONTROL_NAME)
    if family is None:
        family = _infer_family(variants)
    if family == FAMILY_DISTILL:
        canon = [CONTROL_NAME, "direct", "auxiliary"]
        variants.sort(key=lambda v: (canon.index(v) if v in canon else len(canon), v))
    seeds = sorted({s for cells in by_cell.values() for s in cells})
    offline_cols = sorted(
        {
            (task, metric)
            for _, task, metric in by_cell
            if task != JOB_LEVEL_TASK and metric != "rmse_true"
        }
    )
    lines = [f"# {heading}", ""]
    lines.append(f"Final step: {final}. Seeds: {', '.join(str(s) for s in seeds)}.")
    lines.append("")

    def cell_text(variant, col):
        per_seed = by_cell.get((variant, *col), {})
        return _fmt_ci([per_seed[s] for s in sorted(per_seed)]) if per_seed else "-"

    if offline_cols:
        lines.append("## Offline metrics at final step")
        lines.append("")
        lines.append("Mean over seeds, bracketed 95% bootstrap CI.")
        lines.append("")
        if family == FAMILY_DISTILL:
            # variants across the top, one metric per row
            lines.append("| metric | " + " | ".join(variants) + " |")
            lines.append("|" + "---|" * (len(variants) + 1))
            for col in offline_cols:
                cells = [cell_text(v, col) for v in variants]
                lines.append(f"| {col[0]}.{col[1]} | " + " | ".join(cells) + " |")
        else:
            lines.append(
                "| variant | " + " | ".join(f"{t}.{m}" for t, m in offline_cols) + " |"
            )
            lines.append("|" + "---|" * (len(offline_cols) + 1))
            for v in variants:
                cells = [cell_text(v, col) for col in offline_cols]
                lines.append(f"| {v} | " + " | ".join(cells) + " |")
        lines.append("")
    has_control = CONTROL_NAME in variants
    if has_control and len(variants) > 1 and offline_cols:
        lines.append("## Paired deltas vs control")
        lines.append("")
        lines.append("Per-seed difference (variant minus control) on the shared eval stream.")
        lines.append("")
        lines.append("| variant | " + " | ".join(f"{t}.{m}" for t, m in offline_cols) + " |")
        lines.append("|" + "---|" * (len(offline_cols) + 1))
        for v in variants:
            if v == CONTROL_NAME:
                continue
            cells = []
            for col in offline_cols:
                mine = by_cell.get((v, *col), {})
                ctrl = by_cell.get((CONTROL_NAME, *col), {})
                shared = sorted(set(mine) & set(ctrl))
                cells.append(
                    _fmt_ci([mine[s] - ctrl[s] for s in shared]) if shared else "-"
                )
            lines.append(f"| {v} | " + " | ".join(cells) + " |")
        lines.append("")
    engagement = {
        v: by_cell.get((v, JOB_LEVEL_TASK, "engagement"), {}) for v in variants
    }
    if any(engagement.values()):
        lines.append("## Simulated online policy metrics")
        lines.append("")
        lines.append("Argmax policy over shared slates; lifts are paired per seed vs control.")
        lines.append("")
        lines.append("| variant | engagement | satisfaction | engagement lift % | satisfaction lift % |")
        lines.append("|---|---|---|---|---|")
        ctrl_e = engagement.get(CONTROL_NAME, {})
        ctrl_s = by_cell.get((CONTROL_NAME, JOB_LEVEL_TASK, "satisfaction"), {})
        for v in variants:
            e = engagement[v]
            s = by_cell.get((v, JOB_LEVEL_TASK, "satisfaction"), {})
            if not e:
                continue
            row = [v, _fmt_ci([e[k] for k in sorted(e)]), _fmt_ci([s[k] for k in sorted(s)])]
            if v != CONTROL_NAME and ctrl_e:
                shared = sorted(set(e) & set(ctrl_e))
                row.append(_fmt_ci([lift_pct(e[k], ctrl_e[k]) for k in shared]))
                shared_s = sorted(set(s) & set(ctrl_s))
                row.append(_fmt_ci([lift_pct(s[k], ctrl_s[k]) for k in shared_s]))
            else:
                row.extend(["-", "-"])
            lines.append("| " + " | ".join(row) + " |")
        lines.append("")
    coverage = {v: by_cell.get((v, JOB_LEVEL_TASK, "coverage"), {}) for v in variants}
    if any(coverage.values()):
        lines.append("## Soft-label coverage")
        lines.append("")
        lines.append("| variant | mean coverage |")
        lines.append("|---|---|")
        for v in variants:
            if coverage[v]:
                vals = [coverage[v][k] for k in sorted(coverage[v])]
                lines.append(f"| {v} | {float(np.mean(vals)):.3f} |")
        lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# subcommands


def _parse_seed_list(text: str) -> tuple[int, ...]:
    out: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "-" in part[1:]:
            a, _, b = part.partition("-")
            lo, hi = int(a), int(b)
            if hi < lo:
                raise ConfigError(f"bad seed range {part!r}")
            out.extend(range(lo, hi + 1))
        else:
            out.append(int(part))
    if not out:
        raise ConfigError("empty seed list")
    if len(set(out)) != len(out):
        raise ConfigError("duplicate seeds")
    return tuple(out)


def cmd_run(args) -> int:
    seeds = _parse_seed_list(args.seeds) if args.seeds else None
    cfg = load_config(args.config, seeds)
    digest = config_digest(cfg)
    out_dir = Path(args.out) if args.out else Path(f"runs/{cfg.family}-{digest[:8]}")
    out_dir.mkdir(parents=True, exist_ok=True)
    stores = out_dir / "stores"
    if stores.exists():  # a rerun must not read the segments of an earlier run
        shutil.rmtree(stores)
    t0 = time.monotonic()
    log = run_experiment(
        cfg,
        stores,
        threads=args.threads,
        progress=(lambda msg: print(msg, flush=True)) if args.verbose else None,
    )
    elapsed = time.monotonic() - t0
    write_metrics_csv(out_dir / "metrics.csv", log.rows)
    report = build_report(log.rows, heading=f"{cfg.family} report", family=cfg.family)
    (out_dir / "report.md").write_text(report)
    manifest = {
        "family": cfg.family,
        "seeds": list(cfg.seeds),
        "runs": [r.run_id for r in build_runs(cfg)],
        "config_sha256": digest,
        "metric_rows": len(log.rows),
        "elapsed_seconds": round(elapsed, 3),
    }
    (out_dir / "run_manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    print(f"wrote {out_dir}/metrics.csv ({len(log.rows)} rows), report.md, run_manifest.json")
    return 0


def cmd_inspect(args) -> int:
    report = inspect_store(args.store_dir)
    if report.error and "missing" in report.error:
        print(f"error: {report.error}", file=sys.stderr)
        return 1
    print(f"store: {report.root}")
    print(f"manifest version: {report.manifest_version}")
    tasks = ", ".join(f"{n}({k})" for n, k in report.tasks) or "-"
    print(f"segments: {len(report.segments)}  rows: {report.total_rows}  tasks: {tasks}")
    for seg in report.segments:
        if seg.ok:
            print(
                f"  seg {seg.segment_id}: teacher_version={seg.teacher_version} "
                f"rows={seg.n_rows} ids=[{seg.min_id}, {seg.max_id}] ok"
            )
        else:
            print(f"  seg {seg.segment_id}: CORRUPT ({seg.error})")
    if report.stray_files:
        print(f"stray files: {', '.join(report.stray_files)}")
    if report.ok:
        print("status: OK")
        return 0
    print(f"status: CORRUPT{' (' + report.error + ')' if report.error else ''}")
    return 3


def cmd_replay(args) -> int:
    rows = read_metrics_csv(args.csv)
    report = build_report(rows, heading="Replayed report")
    out = Path(args.out) if args.out else Path(args.csv).parent / "report.md"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(report)
    print(report)
    print(f"wrote {out}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="onlinekd",
        description="online multi-task distillation testbed: continuous teacher, "
        "columnar soft-label store, student fleet",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute an experiment family from a YAML config")
    p_run.add_argument("config", help="path to the YAML experiment config")
    p_run.add_argument("--seeds", help="override seeds, e.g. 0,1,2 or 0-9")
    p_run.add_argument("--out", help="output directory (default runs/<family>-<hash>)")
    p_run.add_argument("--threads", type=int, default=1, help="parallel run cells")
    p_run.add_argument("--verbose", action="store_true", help="print per-run progress")
    p_run.set_defaults(fn=cmd_run)
    p_inspect = sub.add_parser("inspect", help="audit a label store directory")
    p_inspect.add_argument("store_dir")
    p_inspect.set_defaults(fn=cmd_inspect)
    p_replay = sub.add_parser("replay", help="rebuild a report from metrics.csv")
    p_replay.add_argument("csv")
    p_replay.add_argument("--out", help="report path (default: alongside the csv)")
    p_replay.set_defaults(fn=cmd_replay)
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except SchemaError as e:
        print(f"schema error: {e}", file=sys.stderr)
        return 1
    except DivergenceError as e:
        print(f"runtime divergence: {e}", file=sys.stderr)
        return 2
    except StoreCorruptionError as e:
        print(f"store corruption: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
