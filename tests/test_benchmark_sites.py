"""The package names that benchmarks/ patches or reads still exist.

The benchmark's tracer swaps functions by name (``pipeline.draw_slates``,
``ranker.mlp_forward``, ...) and its harness reads ``labelstore`` names and
the fields of the run definitions directly. A rename in the package then
breaks the benchmark run. These tests catch it in the tier-1 suite instead.
They only import and read benchmarks/tracer.py and benchmarks/harness.py;
nothing under benchmarks/ is changed.
"""

import importlib.util
import sys
from pathlib import Path

import pytest
import yaml

from onlinekd import labelstore, pipeline
from onlinekd.cli import build_config, default_experiment, main
from onlinekd.datagen import init_world
from onlinekd.pipeline import (
    FAMILY_DISTILL,
    FAMILY_OBJECTIVE,
    FAMILY_SCALE,
    ScheduleConfig,
    build_runs,
    make_student_job,
    make_teacher_job,
)

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", BENCHMARKS / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.fixture(scope="module")
def harness():
    spec = importlib.util.spec_from_file_location("benchmark_harness", BENCHMARKS / "harness.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    fresh = "tracer" not in sys.modules
    sys.path.insert(0, str(BENCHMARKS))  # the harness imports its tracer by name
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCHMARKS))
    try:
        yield module
    finally:
        del sys.modules[spec.name]
        if fresh:
            sys.modules.pop("tracer", None)


@pytest.mark.parametrize("steps_only", [False, True])
def test_tracer_installs_and_restores_its_sites(tracer, steps_only):
    sites = [(pipeline, "run_online"), (pipeline, "next_batch")]
    if not steps_only:
        sites += [(owner, attr) for owner, attr, _ in tracer.SITES]
    before = [getattr(owner, attr) for owner, attr in sites]
    with tracer.Tracer().installed(steps_only=steps_only):
        during = [getattr(owner, attr) for owner, attr in sites]
    assert all(a is not b for a, b in zip(before, during))
    assert [getattr(owner, attr) for owner, attr in sites] == before


# metric rows one seed of each shipped family default writes, as
# benchmarks/test_benchmark.py counts them
SHIPPED_ROWS = [(FAMILY_DISTILL, 117), (FAMILY_OBJECTIVE, 108), (FAMILY_SCALE, 152)]


@pytest.mark.parametrize("family, rows", SHIPPED_ROWS)
def test_harness_reads_the_shipped_run_definitions(harness, family, rows):
    cfg = default_experiment(family, (0,))
    runs = build_runs(cfg)
    assert sum(harness.expected_rows(cfg, run) for run in runs) == rows
    # the fields its output gate reads of each run
    for run in runs:
        assert isinstance(run.run_id, str) and isinstance(run.teacher.name, str)
        for student in run.students:
            assert isinstance(student.name, str) and isinstance(student.distill, tuple)


def test_harness_output_gate_accepts_a_run(harness, tmp_path):
    # the gate whose failed cells benchmarks/run.py counts into cells_ok_frac,
    # fed the metrics.csv and stores of a real run
    raw = {"family": FAMILY_DISTILL, "schedule": {"total_steps": 40, "eval_every": 20}}
    seeds = (0, 1)
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump(raw))
    out = tmp_path / "out"
    assert main(["run", str(config), "--seeds", "0,1", "--out", str(out), "--threads", "1"]) == 0
    cfg = build_config(raw, seeds)
    runs = build_runs(cfg)
    inv = harness.Invocation(seeds, [(seed, run.run_id) for seed in seeds for run in runs])
    harness._gate_outputs(inv, cfg, runs, out)
    assert inv.problems == [] and inv.failed_cells == {}
    assert inv.store_files > 0


def test_store_names_the_harness_reads():
    assert isinstance(labelstore.MANIFEST_NAME, str)
    assert callable(labelstore.inspect_store)


def test_tracer_counts_what_the_store_does_in_a_run(tracer, tmp_path):
    # the store wrappers unpack lookup_batch's (present, values) and read
    # Snapshot.segments; a change to either leaves these counters empty
    cfg = default_experiment(FAMILY_DISTILL, (0,))
    (run,) = build_runs(cfg)
    teacher = make_teacher_job(cfg, run.teacher, 0)
    students = [make_student_job(cfg, s, 0) for s in run.students]
    distilling = sum(bool(s.distill_tasks) for s in students)
    steps, batch = 3, 16
    sched = ScheduleConfig(total_steps=steps, batch_size=batch, eval_every=0, eval_batches=4)
    probe = tracer.Tracer()
    with probe.installed():
        pipeline.run_online(init_world(cfg.gen, 0), teacher, students, sched, tmp_path / "s")
    assert distilling == 2
    # one lookup per step, shared by every distilling student
    assert probe.lookup_rows == probe.lookup_present == steps * batch
    assert probe.last_snapshot_segments == {0: steps}
    assert len(probe.commit_bytes) == steps and min(probe.commit_bytes) > 0
