"""Command line front end.

Subcommands:
  run <config.yaml>   execute an experiment family, write metrics.csv,
                      report.md, and run_manifest.json
  inspect <store>     audit a label store directory (checksums, torn tail)
  replay <csv>        rebuild report.md from a previously written metrics.csv,
                      laid out for the family named by the run_manifest.json
                      beside it (the generic layout for a bare csv)

Exit codes: 0 success, 1 config/usage error, 2 runtime divergence,
3 store corruption.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import operator
import shutil
import sys
import time
from dataclasses import MISSING, asdict, fields, is_dataclass, replace
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin, get_type_hints

import numpy as np
import yaml

from .datagen import GenConfig
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
#
# A config is the family's defaults with the YAML's values laid over them.
# Each YAML key names one dataclass field: _YAML_FIELDS holds the top level,
# where the YAML name differs or where one section (model, training, distill,
# teacher) groups several ExperimentConfig fields; below it the YAML keys are
# the field names. Every value is checked against its field's type hint.

_YAML_FIELDS = {
    "family": "family",
    "seeds": "seeds",
    "stream": "gen",
    "schedule": "schedule",
    "model": {
        "teacher_trunk": "teacher_trunk",
        "student_trunk": "student_trunk",
        "tower": "tower_widths",
        "teacher_scales": "teacher_scales",
    },
    "training": {"teacher": "teacher_train", "student": "student_train"},
    "distill": {"mode": "distill_mode", "tasks": "distill_tasks", "alpha": "alpha"},
    "teacher": {"bias": "bias", "freeze_at": "freeze_at", "write_every": "write_every"},
    "students": "students",
}

# The keys of _YAML_FIELDS a family does not read; setting one is an error.
_UNREAD = {
    FAMILY_DISTILL: ("distill.mode", "students"),  # it runs both modes
    FAMILY_SCALE: ("students",),
    FAMILY_OBJECTIVE: ("distill.tasks", "students"),  # the task sets are the sweep
    FAMILY_CUSTOM: ("distill.mode", "distill.tasks", "distill.alpha"),  # per student
}


def _check_keys(raw, allowed, where):
    unknown = sorted(set(raw) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown keys under {where}: {', '.join(unknown)}")


def _value(hint, raw, base, where):
    """raw checked against a field's type hint; a mapping onto a dataclass
    overrides only the keys it names in base (a fresh instance if None)."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is UnionType:  # X | None
        if raw is None:
            return None
        (hint,) = [a for a in args if a is not type(None)]
        return _value(hint, raw, base, where)
    if is_dataclass(hint):
        return _override(hint if base is None else base, raw, where)
    if origin is tuple:  # tuple[X, ...]
        if not isinstance(raw, list) or args[0] is int and not raw:
            raise ConfigError(
                f"{where}: expected a {'non-empty list of ints' if args[0] is int else 'list'}"
            )
        return tuple(_value(args[0], v, None, f"{where}[{i}]") for i, v in enumerate(raw))
    if origin is dict:  # dict[str, float]
        if not isinstance(raw, dict):
            raise ConfigError(f"{where}: expected a mapping")
        return {
            _value(args[0], k, None, where): _value(args[1], v, None, f"{where}.{k}")
            for k, v in raw.items()
        }
    if hint is float and isinstance(raw, (int, str)) and not isinstance(raw, bool):
        try:  # ints widen; PyYAML reads 1e-9 (no dot) as a string
            raw = float(raw)
        except (OverflowError, ValueError):
            pass
    if isinstance(raw, bool) and hint is not bool or not isinstance(raw, hint) or (
        hint is float and not math.isfinite(raw)
    ):
        raise ConfigError(f"{where}: expected {hint.__name__}, got {raw!r}")
    return raw


def _changes(cls, base, raw, where, names) -> dict:
    if not isinstance(raw, dict):
        raise ConfigError(f"{where}: expected a mapping")
    _check_keys(raw, names, where)
    hints = get_type_hints(cls)
    out = {}
    for key, val in raw.items():
        name, path = names[key], key if where == "config" else f"{where}.{key}"
        if isinstance(name, dict):  # a YAML section of several fields
            out.update(_changes(cls, base, val, path, name))
        else:
            out[name] = _value(hints[name], val, getattr(base, name, None), path)
    return out


def _override(base, raw, where, names=None):
    """base, a dataclass instance or type, with the fields raw names replaced;
    validation errors of the dataclass come back as ConfigError at where."""
    fresh = isinstance(base, type)
    cls = base if fresh else type(base)
    changes = _changes(cls, base, raw, where, names or {f.name: f.name for f in fields(cls)})
    required = [f.name for f in fields(cls) if f.default is f.default_factory is MISSING]
    if fresh and not set(required) <= set(changes):
        raise ConfigError(f"{where}: {' and '.join(required)} required")
    try:
        return cls(**changes) if fresh else replace(base, **changes)
    except (ConfigError, TypeError, ValueError) as e:
        raise ConfigError(f"{where}: {e}") from None


def build_config(raw: dict, seeds_override: tuple[int, ...] | None = None) -> ExperimentConfig:
    """Resolve a parsed YAML mapping against family defaults."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    if "family" not in raw:
        raise ConfigError("config.family is required")
    family = _value(str, raw["family"], None, "config.family")
    seeds = tuple(range(10)) if seeds_override is None else seeds_override
    base = default_experiment(family, seeds)
    for path in _UNREAD[family]:
        section, _, key = path.partition(".")
        value = raw.get(section)
        if section in raw and (not key or isinstance(value, dict) and key in value):
            raise ConfigError(f"{path}: the {family} family does not read this key")
    if seeds_override is not None:
        raw = {k: v for k, v in raw.items() if k != "seeds"}
    return _override(base, raw, "config", _YAML_FIELDS)


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
    blob = json.dumps(asdict(cfg), sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


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


def _offline(task, metric):
    return task != JOB_LEVEL_TASK and metric != "rmse_true"


def _job_level(*names):
    return lambda task, metric: task == JOB_LEVEL_TASK and metric in names


def _mean_3f(values):
    return f"{float(np.mean(values)):.3f}"


# One entry per report section: title, the note under it, the filter that
# picks its (task, metric) columns, and its stats. A stat is a header format,
# a pairing (None, or how a seed's value combines with control's on the same
# seed; control's own row has nothing to pair with) and how the resulting
# per-seed values are shown. A cell with no values reads "-", a variant whose
# cells all read "-" gets no row, and a section with no rows is left out.
_OFFLINE = "Offline metrics at final step"
_SECTIONS = (
    (
        _OFFLINE,
        "Mean over seeds, bracketed 95% bootstrap CI.",
        _offline,
        (("{}", None, _fmt_ci),),
    ),
    (
        "Paired deltas vs control",
        "Per-seed difference (variant minus control) on the shared eval stream.",
        _offline,
        (("{}", operator.sub, _fmt_ci),),
    ),
    (
        "Simulated online policy metrics",
        "Argmax policy over shared slates; lifts are paired per seed vs control.",
        _job_level("engagement", "satisfaction"),
        (("{}", None, _fmt_ci), ("{} lift %", lift_pct, _fmt_ci)),
    ),
    ("Soft-label coverage", None, _job_level("coverage"), (("mean {}", None, _mean_3f),)),
)

# The only family knowledge in the report: a family listed here orders its
# variants as given (any others after them, by name) and prints the named
# section with one metric per row and the variants across the top.
_FAMILY_LAYOUT = {FAMILY_DISTILL: ((CONTROL_NAME, "direct", "auxiliary"), _OFFLINE)}


def _table(corner, head, rows) -> list[str]:
    lines = ["| " + " | ".join([corner, *head]) + " |", "|" + "---|" * (len(head) + 1)]
    return lines + ["| " + " | ".join([label, *cells]) + " |" for label, cells in rows]


def build_report(rows: list[MetricRow], *, family: str | None = None) -> str:
    """report.md for the final step of rows; family picks the heading and
    the layout (the generic one when None)."""
    if not rows:
        raise SchemaError("no metric rows to report")
    final = max(r.step for r in rows)
    by_cell: dict[tuple[str, str, str], dict[int, float]] = {}
    for r in rows:
        if r.step != final:
            continue
        seed, variant = split_job_name(r.job)
        by_cell.setdefault((variant, r.task, r.metric), {})[seed] = r.value
    order, transposed = _FAMILY_LAYOUT.get(family, ((CONTROL_NAME,), None))
    variants = sorted(
        {v for v, _, _ in by_cell},
        key=lambda v: (order.index(v) if v in order else len(order), v),
    )
    seeds = sorted({s for cells in by_cell.values() for s in cells})
    keys = sorted({(t, m) for _, t, m in by_cell})

    def cell(v, col, pair, show) -> str:
        mine = by_cell.get((v, *col), {})
        if pair is not None:
            ctrl = by_cell.get((CONTROL_NAME, *col), {}) if v != CONTROL_NAME else {}
            mine = {s: pair(mine[s], ctrl[s]) for s in mine.keys() & ctrl.keys()}
        return show([mine[s] for s in sorted(mine)]) if mine else "-"

    lines = [f"# {family or 'Experiment'} report", ""]
    lines += [f"Final step: {final}. Seeds: {', '.join(str(s) for s in seeds)}.", ""]
    for title, note, picks, stats in _SECTIONS:
        cols = [(t, m) for t, m in keys if picks(t, m)]
        head = [
            header.format(m if t == JOB_LEVEL_TASK else f"{t}.{m}")
            for header, _, _ in stats
            for t, m in cols
        ]
        table = []
        for v in variants:
            cells = [cell(v, col, pair, show) for _, pair, show in stats for col in cols]
            if any(c != "-" for c in cells):
                table.append((v, cells))
        if not table:
            continue
        lines += [f"## {title}", ""] + ([note, ""] if note else [])
        if title == transposed:
            shown = [v for v, _ in table]
            lines += _table("metric", shown, zip(head, zip(*(c for _, c in table))))
        else:
            lines += _table("variant", head, table)
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
        try:
            if "-" in part[1:]:
                a, _, b = part.partition("-")
                lo, hi = int(a), int(b)
            else:
                lo = hi = int(part)
        except ValueError:
            raise ConfigError(f"bad seed {part!r}") from None
        if hi < lo:
            raise ConfigError(f"bad seed range {part!r}")
        out.extend(range(lo, hi + 1))
    if not out:
        raise ConfigError("empty seed list")
    return tuple(out)


def cmd_run(args) -> int:
    if args.threads < 1:
        raise ConfigError(f"--threads must be >= 1, got {args.threads}")
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
    report = build_report(log.rows, family=cfg.family)
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
    if not Path(args.store_dir).is_dir():
        print(f"error: store directory missing: {args.store_dir}", file=sys.stderr)
        return 1
    report = inspect_store(args.store_dir)
    print(f"store: {report.root}")
    tasks = ", ".join(f"{n}({k})" for n, k in report.tasks) or "-"
    print(f"segments: {len(report.segments)}  rows: {report.total_rows}  tasks: {tasks}")
    for commit, seg in enumerate(report.segments, 1):
        if seg.ok:
            print(
                f"  seg {seg.segment_id}: teacher_version={seg.teacher_version} "
                f"rows={seg.n_rows} ids=[{seg.min_id}, {seg.max_id}] ok"
            )
        else:
            print(f"  commit {commit}: CORRUPT ({seg.error})")
    if report.torn_bytes:
        print(f"torn tail: {report.torn_bytes} bytes after commit {len(report.segments)}")
    if report.stray_files:
        print(f"stray files: {', '.join(report.stray_files)}")
    if report.ok:
        print("status: OK")
        return 0
    print(f"status: CORRUPT{' (' + report.error + ')' if report.error else ''}")
    return 3


def _run_family(manifest: Path) -> str | None:
    """The family named by the run_manifest.json that run wrote; None when
    there is no manifest."""
    if not manifest.exists():
        return None
    try:
        family = json.loads(manifest.read_bytes()).get("family")
    except (OSError, ValueError, AttributeError) as e:
        raise SchemaError(f"{manifest}: cannot read the run's family: {e}") from None
    if family not in FAMILIES:
        raise SchemaError(f"{manifest}: unknown family {family!r}")
    return family


def cmd_replay(args) -> int:
    rows = read_metrics_csv(args.csv)
    family = _run_family(Path(args.csv).parent / "run_manifest.json")
    report = build_report(rows, family=family)
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
        where = f"{e.job}: " if e.job else ""
        print(f"runtime divergence: {where}{e}", file=sys.stderr)
        return 2
    except StoreCorruptionError as e:
        print(f"store corruption: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
