"""onlinekd benchmark: one workload, one seed, one time budget.

    python3 benchmarks/run.py --workload distill-long --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; onlinekd is imported from ./src.
--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of a
traced run. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Scratch output goes to .bench_runs/
in the checkout; the spans of the last traced run of a workload are written
to .bench_runs/trace-<workload>.csv.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_runs"
# One BLAS/OpenMP thread per process, set before numpy loads: on a small box
# extra BLAS threads only compete with the cells for the same cores.
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def git_commit(root: Path) -> str:
    """HEAD's commit, read from .git without running git; a source export
    has no .git and reports unknown."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            head = (git / head[len("ref: "):]).read_text().strip()
        return head
    except OSError:
        return "unknown (not a git checkout)"


def environment(harness) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": harness.nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_commit": git_commit(ROOT),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "onlinekd").is_dir():
        print(f"error: no onlinekd sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness

    workload = harness.WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; pick one of {sorted(harness.WORKLOADS)}")
    scratch = WORK / f"run-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        if args.trace:
            result = harness.measure_traced(
                workload, args.seed, args.seconds, scratch,
                trace_csv=WORK / f"trace-{workload.name}.csv",
            )
            units = harness.PER_LAYER
        else:
            result = harness.measure(workload, args.seed, args.seconds, scratch)
            units = harness.END_TO_END
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for name, value in result.metrics.items():
        print(f"{name:52s} {value:14.6g} {units[name]}")
    for problem in result.problems:
        print(f"FAILED: {problem}")
    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "seeds": list(workload.seeds(args.seed)),
        "trace": args.trace,
        "env": environment(harness),
        **result.detail,
    }
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in result.metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
