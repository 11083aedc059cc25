"""Workloads, correctness gate and metrics of the onlinekd benchmark.

Every workload runs one experiment family's shipped defaults
(``cli.default_experiment``) through the program's public entry point:
``onlinekd run``, called in-process through ``cli.main`` with a fresh, empty
output directory, followed by ``labelstore.inspect_store`` over every store
the run wrote. A run of the benchmark repeats that invocation with one seed
list (derived from the benchmark seed) until its time budget is used, so
every repeat must reproduce the same ``metrics.csv`` bytes.

Reusing an output directory is a known defect (ROADMAP.md, "same bytes
whatever the run history"): a second ``onlinekd run`` into the same
directory reads the first run's segments. This benchmark always starts from
an empty directory, so it neither measures that defect nor fixes it.
"""

from __future__ import annotations

import contextlib
import csv
import fcntl
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from onlinekd import cli, labelstore, pipeline
from onlinekd.ranker import BINARY

import tracer as tr

SETUP_PROBES = 7
# The audit is read-only, so each invocation repeats it at least
# AUDIT_REPEATS times and for at least AUDIT_SECONDS, and a run reports the
# median over all repeats: one audit of a small store takes tens of
# milliseconds and spreads by a third from one repeat to the next.
AUDIT_REPEATS = 5
AUDIT_SECONDS = 0.5
PROBE_SCRIPT = Path(__file__).resolve().parent / "setup_probe.py"

# Timings other than setup_s are in units of the reference kernel
# (tracer.reference_s, "ref"), sampled by tracer.ReferenceSampler; the detail
# line also carries them in seconds.
# The step-time p99 and the store audit time are in the detail line only:
# from run to run on a shared 2-core machine they moved by a fifth to a
# third of their median, too much to gate a change on.
END_TO_END = {
    "setup_s": "s",
    "wall_ref": "ref",
    "steps_per_kref": "1/kref",
    "step_ref.p50": "ref",
    "peak_rss_mb": "MB",
    "store_bytes": "B",
    "store_files": "count",
    "cells_ok_frac": "fraction",
}

PER_LAYER = {
    "datagen.next_batch.ms_per_step": "ms",
    "nncore.mlp_forward.ms_per_step": "ms",
    "nncore.mlp_backward.ms_per_step": "ms",
    "nncore.optimizer_step.ms_per_step": "ms",
    "nncore.optimizer_step.calls_per_step": "count",
    "ranker.compute_loss_and_grads.self_ms_per_step": "ms",
    "ranker.apply_gradients.self_ms_per_step": "ms",
    "ranker.model_forward.ms_per_step": "ms",
    "labelstore.append.ms.first": "ms",
    "labelstore.append.ms.last": "ms",
    "labelstore.open_snapshot.ms.first": "ms",
    "labelstore.open_snapshot.ms.last": "ms",
    "labelstore.lookup_batch.ms.first": "ms",
    "labelstore.lookup_batch.ms.last": "ms",
    "labelstore.store_ms.growth": "ratio",
    "labelstore.bytes_per_commit": "B",
    "labelstore.manifest_bytes.final": "B",
    "labelstore.snapshot_segments.final": "count",
    "labelstore.lookup.coverage": "fraction",
    "labelstore.inspect_store.ms": "ms",
    "metrics.ms_per_eval": "ms",
    "metrics.draw_slates.ms": "ms",
    "pipeline.step.self_ms": "ms",
    "pipeline.cell_concurrency": "ratio",
    "cli.load_config.ms": "ms",
    "cli.build_report.ms": "ms",
    "pipeline.write_metrics_csv.ms": "ms",
    **{f"share.{layer}": "fraction" for layer in tr.LAYERS},
    "trace.overhead_s": "s",
    "trace.overhead_frac": "fraction",
}

# Counters that do not depend on timing: for one workload and seed list they
# must come out the same in every invocation and every run.
EXACT_END_TO_END = ("store_bytes", "store_files")
EXACT_PER_LAYER = (
    "labelstore.bytes_per_commit",
    "labelstore.manifest_bytes.final",
    "labelstore.snapshot_segments.final",
    "nncore.optimizer_step.calls_per_step",
)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


@dataclass(frozen=True)
class Workload:
    name: str
    family: str
    seeds_per_run: int
    threads: int = 1  # 0 means one per CPU this process may run on
    overrides: dict = field(default_factory=dict)  # YAML keys over the family defaults

    def seeds(self, seed: int) -> tuple[int, ...]:
        k = self.seeds_per_run
        return tuple(range(seed * k, seed * k + k))

    def raw_config(self) -> dict:
        return {"family": self.family, **self.overrides}

    def thread_count(self) -> int:
        return self.threads or nproc()


# Why each workload is here is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("distill-long", "distill-strategy", seeds_per_run=1),
        Workload("objective-fleet", "objective-selection", seeds_per_run=3),
        Workload("scale-sweep", "teacher-scale", seeds_per_run=2, threads=0),
    )
}


def eval_steps(sched: pipeline.ScheduleConfig) -> list[int]:
    """Steps (1-based) at which run_online evaluates: every eval_every steps
    and at the final step."""
    steps = sched.total_steps
    return [
        t + 1
        for t in range(steps)
        if t == steps - 1 or (sched.eval_every > 0 and (t + 1) % sched.eval_every == 0)
    ]


def expected_rows(cfg: pipeline.ExperimentConfig, run: pipeline.RunDef) -> int:
    """Metric rows one (seed, run) cell must write, counted from the family's
    schedule and job list: per eval point, every job's per-task metrics
    (2 for binary tasks, 3 for regression), the teacher version and one
    coverage row per distilling student; per simulator point, engagement and
    satisfaction for every job."""
    sched = cfg.schedule
    evals = eval_steps(sched)
    jobs = 1 + len(run.students)
    per_job = sum(2 if task.kind == BINARY else 3 for task in cfg.gen.tasks)
    distilling = sum(1 for s in run.students if s.distill)
    sims = 0
    if sched.online_sim is not None:
        sims = sum(
            1
            for i, step in enumerate(evals, start=1)
            if step == sched.total_steps
            or (sched.online_sim_every > 0 and i % sched.online_sim_every == 0)
        )
    return len(evals) * (jobs * per_job + 1 + distilling) + sims * 2 * jobs


@dataclass
class Invocation:
    """One `onlinekd run` and what the gate and the metrics read from it."""

    seeds: tuple[int, ...]
    cells: list[tuple[int, str]]
    start: float = 0.0  # tracer.clock() when cli.main was called
    wall_s: float = 0.0
    digest: str = ""
    audits: list[tuple[float, float]] = field(default_factory=list)  # (start, end) per repeat
    store_bytes: int = 0
    store_files: int = 0
    manifest_bytes: list[int] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)  # each fails every cell
    failed_cells: dict = field(default_factory=dict)  # (seed, run id) -> reason

    @property
    def failed(self) -> int:
        return len(self.cells) if self.problems else len(self.failed_cells)

    def reasons(self) -> list[str]:
        return self.problems + [
            f"{run_id}-s{seed}: {why}" for (seed, run_id), why in self.failed_cells.items()
        ]


def _run_argv(workload: Workload, seeds, root: Path) -> list[str]:
    """Arguments of `onlinekd run` into the fresh directory root/out; writes
    the workload's YAML config into root."""
    root.mkdir(parents=True)
    config = root / "config.yaml"
    config.write_text(yaml.safe_dump(workload.raw_config()))
    return [
        "run", str(config),
        "--seeds", ",".join(str(s) for s in seeds),
        "--out", str(root / "out"),
        "--threads", str(workload.thread_count()),
    ]


def invoke(workload: Workload, seeds: tuple[int, ...], root: Path, around) -> Invocation:
    """Run `onlinekd run` once inside the context around(), then gate it."""
    cfg = cli.build_config(workload.raw_config(), seeds)
    runs = pipeline.build_runs(cfg)
    inv = Invocation(seeds, [(seed, run.run_id) for seed in seeds for run in runs])
    argv = _run_argv(workload, seeds, root)
    inv.start = tr.clock()
    try:
        with contextlib.redirect_stdout(io.StringIO()), around():
            code = cli.main(argv)
    except Exception:  # a raising cell fails the invocation; keep measuring the rest
        inv.problems.append("onlinekd run raised:\n" + traceback.format_exc())
        code = 0
    inv.wall_s = tr.clock() - inv.start
    if code != 0:
        inv.problems.append(f"onlinekd run exited with {code}")
    try:
        _gate_outputs(inv, cfg, runs, root / "out")
    finally:
        shutil.rmtree(root)
    return inv


def _gate_outputs(inv: Invocation, cfg, runs, out: Path) -> None:
    csv_path = out / "metrics.csv"
    if not csv_path.is_file():
        inv.problems.append("no metrics.csv")
        return
    data = csv_path.read_bytes()
    inv.digest = hashlib.sha256(data).hexdigest()
    run_of_job = {
        pipeline.seed_job_name(seed, job): (seed, run.run_id)
        for seed in inv.seeds
        for run in runs
        for job in [run.teacher.name] + [s.name for s in run.students]
    }
    counts = dict.fromkeys(inv.cells, 0)
    reader = csv.reader(io.StringIO(data.decode("utf-8")))
    next(reader, None)
    for row in reader:
        cell = run_of_job.get(row[1]) if len(row) > 1 else None
        if cell is None:
            inv.problems.append(f"metrics.csv row for an unknown job: {row}")
            return
        counts[cell] += 1
    run_by_id = {run.run_id: run for run in runs}
    for seed, run_id in inv.cells:
        got, want = counts[(seed, run_id)], expected_rows(cfg, run_by_id[run_id])
        if got != want:
            inv.failed_cells[(seed, run_id)] = f"{got} metric rows, want {want}"
    stores = out / "stores"
    first = tr.clock()
    while len(inv.audits) < AUDIT_REPEATS or tr.clock() - first < AUDIT_SECONDS:
        t0 = tr.clock()
        reports = {
            (seed, run_id): labelstore.inspect_store(stores / f"{run_id}-s{seed}")
            for seed, run_id in inv.cells
        }
        inv.audits.append((t0, tr.clock()))
    for cell, report in reports.items():
        if not report.ok or report.stray_files:
            inv.failed_cells[cell] = (
                f"store audit: ok={report.ok} error={report.error!r} "
                f"stray={report.stray_files}"
            )
    files = [p for p in stores.rglob("*") if p.is_file()]
    inv.store_files = len(files)
    inv.store_bytes = sum(p.stat().st_size for p in files)
    inv.manifest_bytes = [
        p.stat().st_size for p in files if p.name == labelstore.MANIFEST_NAME
    ]


def program_digest(workload: Workload, dirs=None) -> str:
    """sha256 over the workload's definition and the sources of onlinekd and
    of this benchmark: the ledger only compares runs of the same code."""
    dirs = dirs or (Path(cli.__file__).resolve().parent, Path(__file__).resolve().parent)
    h = hashlib.sha256(repr(workload).encode())
    for d in map(Path, dirs):
        for path in sorted(d.rglob("*.py")):
            h.update(b"\0" + str(path.relative_to(d)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def ledger_key(workload: Workload, seeds, dirs=None) -> str:
    return (
        f"{workload.name}:seeds={','.join(str(s) for s in seeds)}"
        f":program={program_digest(workload, dirs)[:16]}"
    )


def check_ledger(path: Path, key: str, values: dict) -> list[str]:
    """Compare values with those recorded under key by earlier invocations,
    in this run or an earlier run of the same code from the same checkout;
    record the ones not seen before. Returns the mismatches.

    Benchmark processes may run at once, so the read-modify-write holds an
    exclusive lock on a file next to the ledger.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path.with_name(path.name + ".lock"), "a") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        entries = json.loads(path.read_text()) if path.is_file() else {}
        known = entries.setdefault(key, {})
        mismatches = [
            f"{key}: {name} is {value!r}, earlier runs gave {known[name]!r}"
            for name, value in values.items()
            if name in known and known[name] != value
        ]
        for name, value in values.items():
            known.setdefault(name, value)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        tmp.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n")
        os.replace(tmp, path)
    return mismatches


def _percentile(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q)) if values.size else 0.0


def summary(values) -> dict:
    """Median, quartiles and sample count of a list of timings."""
    values = [float(v) for v in values]
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def peak_rss_mb() -> float:
    """High-water resident set of this process plus that of its largest
    finished child (cells run in worker processes), in MB."""
    kib = sum(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )
    return kib / 1024.0


def setup_seconds(workload: Workload, seeds, root: Path) -> float:
    """Process start to the first training step of `onlinekd run`, measured
    in a fresh interpreter (setup_probe.py)."""
    src = Path(cli.__file__).resolve().parents[1]
    argv = [sys.executable, str(PROBE_SCRIPT), str(src), *_run_argv(workload, seeds, root)]
    try:
        t0 = time.monotonic()
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed ({proc.returncode}): {proc.stderr.strip()}")
        return float(proc.stdout.split()[-1]) - t0
    finally:
        shutil.rmtree(root)


@dataclass
class Result:
    attempted: int
    failed: int
    problems: list[str]  # why each failure happened
    metrics: dict[str, float]
    detail: dict

    @property
    def correct(self) -> bool:
        return self.failed == 0


def _repeat(seconds: float, once) -> list:
    """Call once() at least once, and again while the next call, if it takes
    as long as the last, would end at most half a call past the budget: on
    average a run then lasts the budget."""
    out = []
    start = tr.clock()
    while True:
        t0 = tr.clock()
        out.append(once(len(out)))
        now = tr.clock()
        if now - start + (now - t0) / 2 > seconds:
            return out


def _gate(invocations, ledger: Path, key: str, exact=None) -> tuple[int, int, list[str]]:
    """Check each invocation's digest and exact counters against the ledger;
    return (cells attempted, cells failed, reasons)."""
    exact = exact or [{}] * len(invocations)
    for inv, counters in zip(invocations, exact):
        if inv.problems:
            continue
        values = {"metrics.csv sha256": inv.digest, **counters}
        values.update({name: getattr(inv, name) for name in EXACT_END_TO_END})
        inv.problems.extend(check_ledger(ledger, key, values))
    attempted = sum(len(inv.cells) for inv in invocations)
    failed = sum(inv.failed for inv in invocations)
    return attempted, failed, [r for inv in invocations for r in inv.reasons()]


def _step_spans(tracer: tr.Tracer, inv: Invocation, want: int) -> tuple[np.ndarray, np.ndarray]:
    """(start, end) of every training step the tracer saw; a shortfall fails
    the invocation, since its step times cannot be measured."""
    spans = tracer.spans()
    steps = spans.named(tr.STEP)
    if int(steps.sum()) != want and not inv.problems:
        inv.problems.append(
            f"the step probe saw {int(steps.sum())} of {want} training steps: cells that "
            "run outside the benchmark process are not probed (README, 'Where cells run')"
        )
    return spans.start[steps], spans.end[steps]


def measure(workload: Workload, seed: int, seconds: float, work: Path) -> Result:
    """End-to-end run: untraced invocations, then the setup probes."""
    seeds = workload.seeds(seed)
    cfg = cli.build_config(workload.raw_config(), seeds)
    tracers: list[tr.Tracer] = []
    rss_mb = []

    def once(i):
        tracers.append(tr.Tracer())
        inv = invoke(workload, seeds, work / f"inv-{i}",
                     lambda: tracers[-1].installed(steps_only=True))
        if not rss_mb:  # after a fixed amount of work: one invocation
            rss_mb.append(peak_rss_mb())
        return inv

    with tr.ReferenceSampler() as sampler:
        invs = _repeat(seconds, once)
    want_steps = cfg.schedule.total_steps * len(invs[0].cells)
    steps = [_step_spans(t, inv, want_steps) for t, inv in zip(tracers, invs)]
    attempted, failed, problems = _gate(
        invs, work.parent / "ledger.json", ledger_key(workload, seeds)
    )
    setup = []
    for i in range(SETUP_PROBES):
        try:
            setup.append(setup_seconds(workload, seeds, work / f"probe-{i}"))
        except (RuntimeError, ValueError, IndexError, subprocess.TimeoutExpired) as e:
            problems.append(f"setup probe {i}: {e}")
    # A failed probe is one failed attempt of its own.
    attempted += SETUP_PROBES
    failed += SETUP_PROBES - len(setup)

    step_ref = np.concatenate([sampler.in_reference_units(*se) for se in steps])
    step_ms = np.concatenate([e - s for s, e in steps]) * 1e3
    wall_ref = [sampler.span_in_reference_units(inv.start, inv.start + inv.wall_s)
                for inv in invs]
    audits = [a for inv in invs for a in inv.audits]
    timings = {
        "setup_s": setup or [0.0],
        "wall_ref": wall_ref,
        "steps_per_kref": [1e3 * want_steps / w for w in wall_ref],
        "audit_ref": [sampler.span_in_reference_units(*a) for a in audits] or [0.0],
        "wall_s": [inv.wall_s for inv in invs],
        "audit_s": [e - s for s, e in audits] or [0.0],
        "reference_ms": list(1e3 * sampler.seconds),
    }
    metrics = {name: summary(v)["median"] for name, v in timings.items()}
    metrics.update(
        {
            "step_ref.p50": _percentile(step_ref, 50),
            "peak_rss_mb": rss_mb[0],
            "store_bytes": float(statistics.median(inv.store_bytes for inv in invs)),
            "store_files": float(statistics.median(inv.store_files for inv in invs)),
            "cells_ok_frac": (attempted - failed) / attempted,
        }
    )
    detail = {
        "timings": {name: summary(v) for name, v in timings.items()},
        "step_ref": {"p50": metrics["step_ref.p50"], "p99": _percentile(step_ref, 99),
                     "n": int(step_ref.size)},
        "step_ms": {"p50": _percentile(step_ms, 50), "p99": _percentile(step_ms, 99),
                    "n": int(step_ms.size)},
        "digests": [inv.digest for inv in invs],
    }
    return Result(attempted, failed, problems, {k: metrics[k] for k in END_TO_END}, detail)


def _layer_metrics(tracer: tr.Tracer, inv: Invocation, cfg, spans: tr.Spans) -> dict:
    steps = int(spans.named(tr.STEP).sum())
    cells = int(spans.named(tr.RUN_ONLINE).sum())
    want = cfg.schedule.total_steps * len(inv.cells)
    if steps != want:
        inv.problems.append(
            f"the tracer saw {steps} of {want} training steps: cells that run outside "
            "the benchmark process are not traced (README, 'Where cells run')"
        )
        return {}
    dur = spans.duration

    def total_ms(*names):
        return float(dur[spans.named(*names)].sum()) * 1e3

    def mean_ms(name):
        d = dur[spans.named(name)]
        return float(d.mean()) * 1e3 if d.size else 0.0

    def self_ms(name):
        return float(spans.self_s[spans.named(name)].sum()) * 1e3

    total_steps = cfg.schedule.total_steps
    tenth = max(1, total_steps // 10)
    first = (spans.t >= 0) & (spans.t < tenth)
    last = spans.t >= total_steps - tenth

    def window_median_ms(name, window):
        d = dur[spans.named(name) & window]
        return float(np.median(d)) * 1e3 if d.size else 0.0

    store = spans.named(*tr.STORE_SPANS)
    store_first = float(dur[store & first].sum())
    evals = len(eval_steps(cfg.schedule)) * cells
    wall = float(dur[spans.named("cli.main")].sum())
    layer_self = spans.layer_self_s()
    all_self = sum(layer_self.values())
    snap_counts = list(tracer.last_snapshot_segments.values())
    out = {
        "datagen.next_batch.ms_per_step": total_ms(tr.NEXT_BATCH) / steps,
        "nncore.mlp_forward.ms_per_step": total_ms("nncore.mlp_forward") / steps,
        "nncore.mlp_backward.ms_per_step": total_ms("nncore.mlp_backward") / steps,
        "nncore.optimizer_step.ms_per_step": total_ms("nncore.optimizer_step") / steps,
        "nncore.optimizer_step.calls_per_step":
            float(spans.named("nncore.optimizer_step").sum()) / steps,
        "ranker.compute_loss_and_grads.self_ms_per_step":
            self_ms("ranker.compute_loss_and_grads") / steps,
        "ranker.apply_gradients.self_ms_per_step": self_ms("ranker.apply_gradients") / steps,
        "ranker.model_forward.ms_per_step": total_ms("ranker.model_forward") / steps,
        "labelstore.store_ms.growth":
            float(dur[store & last].sum()) / store_first if store_first else 0.0,
        "labelstore.bytes_per_commit":
            float(np.mean(tracer.commit_bytes)) if tracer.commit_bytes else 0.0,
        "labelstore.manifest_bytes.final":
            float(np.mean(inv.manifest_bytes)) if inv.manifest_bytes else 0.0,
        "labelstore.snapshot_segments.final": float(np.mean(snap_counts)) if snap_counts else 0.0,
        "labelstore.lookup.coverage":
            tracer.lookup_present / tracer.lookup_rows if tracer.lookup_rows else 0.0,
        "metrics.ms_per_eval": total_ms(*tr.EVAL_METRIC_SPANS) / evals,
        "metrics.draw_slates.ms": mean_ms("metrics.draw_slates"),
        "pipeline.step.self_ms": self_ms(tr.STEP) / steps,
        "pipeline.cell_concurrency": float(dur[spans.named(tr.RUN_ONLINE)].sum()) / wall,
        "cli.load_config.ms": mean_ms("cli.load_config"),
        "cli.build_report.ms": mean_ms("cli.build_report"),
        "pipeline.write_metrics_csv.ms": mean_ms("pipeline.write_metrics_csv"),
        # untraced: the audit runs after the tracer is removed
        "labelstore.inspect_store.ms": float(np.median([e - s for s, e in inv.audits])) * 1e3,
    }
    for name in (tr.APPEND, tr.OPEN_SNAPSHOT, tr.LOOKUP_BATCH):
        out[f"{name}.ms.first"] = window_median_ms(name, first)
        out[f"{name}.ms.last"] = window_median_ms(name, last)
    for layer, seconds in layer_self.items():
        out[f"share.{layer}"] = seconds / all_self
    return out


def measure_traced(workload: Workload, seed: int, seconds: float, work: Path,
                   trace_csv: Path | None = None) -> Result:
    """Traced run: one untraced invocation as the overhead reference, then
    traced invocations of the same seeds for the time budget."""
    seeds = workload.seeds(seed)
    cfg = cli.build_config(workload.raw_config(), seeds)
    reference = invoke(workload, seeds, work / "untraced", contextlib.nullcontext)
    tracers: list[tr.Tracer] = []

    def once(i):
        tracer = tr.Tracer()
        tracers.append(tracer)

        @contextlib.contextmanager
        def around():
            with tracer.installed(), tracer.root("cli.main"):
                yield

        return invoke(workload, seeds, work / f"traced-{i}", around)

    traced = _repeat(seconds, once)
    per_inv = []
    n_spans = 0
    written = None
    for tracer, inv in zip(tracers, traced):
        if inv.problems:
            per_inv.append({})
            continue
        spans = tracer.spans()
        n_spans += len(spans.names)
        per_inv.append(_layer_metrics(tracer, inv, cfg, spans))
        if per_inv[-1]:
            written = spans
    if trace_csv is not None and written is not None:
        written.write_csv(trace_csv)
    invs = [reference] + traced
    attempted, failed, problems = _gate(
        invs,
        work.parent / "ledger.json",
        ledger_key(workload, seeds),
        [{}] + [{name: m[name] for name in EXACT_PER_LAYER if name in m} for m in per_inv],
    )
    measured = [m for m in per_inv if m] or [dict.fromkeys(PER_LAYER, 0.0)]
    metrics = {name: float(np.median([m[name] for m in measured])) for name in measured[0]}
    traced_wall = float(np.median([inv.wall_s for inv in traced]))
    metrics["trace.overhead_s"] = traced_wall - reference.wall_s
    metrics["trace.overhead_frac"] = metrics["trace.overhead_s"] / reference.wall_s
    detail = {
        "timings": {"untraced_wall_s": summary([reference.wall_s]),
                    "traced_wall_s": summary([inv.wall_s for inv in traced])},
        "spans": n_spans,
        "digests": [inv.digest for inv in invs],
    }
    return Result(attempted, failed, problems, {k: metrics[k] for k in PER_LAYER}, detail)
