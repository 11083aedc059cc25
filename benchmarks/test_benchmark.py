"""Tests of the benchmark itself, on a tiny custom-family config.

Not part of the tier-1 suite (pyproject's testpaths is tests/); run with

    python3 -m pytest benchmarks/test_benchmark.py
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import run  # noqa: E402
import tracer as tr  # noqa: E402
from onlinekd import labelstore  # noqa: E402

TINY = harness.Workload(
    "tiny",
    "custom",
    seeds_per_run=2,
    overrides={
        "schedule": {
            "total_steps": 30,
            "batch_size": 32,
            "eval_every": 10,
            "eval_batches": 2,
            "online_sim": {"slate_size": 4, "n_slates": 50},
        },
        "students": [
            {"name": "control"},
            {"name": "pupil", "mode": "auxiliary", "distill": ["ctr"]},
        ],
    },
)


@pytest.fixture
def tiny_cli(monkeypatch, tmp_path, capsys):
    """run.main with the tiny workload registered and scratch under tmp_path;
    returns the lines it printed."""
    monkeypatch.setitem(harness.WORKLOADS, TINY.name, TINY)
    monkeypatch.setattr(run, "WORK", tmp_path / "work")

    def call(trace: int) -> list[str]:
        argv = ["--workload", TINY.name, "--seed", "0", "--seconds", "0.1", "--trace", str(trace)]
        assert run.main(argv) == 0
        return capsys.readouterr().out.splitlines()

    return call


@pytest.mark.parametrize("trace, names", [(0, harness.END_TO_END), (1, harness.PER_LAYER)])
def test_every_metric_is_emitted_with_its_unit(tiny_cli, trace, names):
    lines = tiny_cli(trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 2
    assert list(result["metrics"]) == list(names)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == names[name]
        assert isinstance(metric["value"], float)
    detail = json.loads(lines[-2])
    assert detail["env"]["thread_env"]["OPENBLAS_NUM_THREADS"] == "1"
    assert len(set(detail["digests"])) == 1


def test_benchmark_json_lists_every_metric_with_its_unit():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for key, names in (("end_to_end", harness.END_TO_END), ("per_layer", harness.PER_LAYER)):
        assert {m["name"]: m["unit"] for m in spec[key]} == names
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)


def test_end_to_end_values_match_the_config(tiny_cli):
    lines = tiny_cli(0)
    metrics, detail = json.loads(lines[-1])["metrics"], json.loads(lines[-2])
    # 2 seeds x 1 store, each with 30 segments, a MANIFEST and the writer lock
    assert metrics["store_files"]["value"] == 2 * 32
    assert metrics["cells_ok_frac"]["value"] == 1.0
    assert metrics["setup_s"]["value"] > 0 and metrics["wall_ref"]["value"] > 0
    assert detail["step_ref"]["p99"] >= metrics["step_ref.p50"]["value"] > 0
    assert detail["step_ref"]["n"] == 2 * 30
    assert detail["timings"]["audit_ref"]["median"] > 0 and metrics["steps_per_kref"]["value"] > 0


def test_exact_counters_of_a_traced_run(tiny_cli):
    metrics = {k: v["value"] for k, v in json.loads(tiny_cli(1)[-1])["metrics"].items()}
    assert metrics["labelstore.snapshot_segments.final"] == 30
    assert metrics["labelstore.lookup.coverage"] == 1.0
    # teacher and control: trunk + 4 towers; pupil adds its ctr aux head
    assert metrics["nncore.optimizer_step.calls_per_step"] == 5 + 5 + 6
    # the manifest after k commits holds k ids: 4 + 8 + 4 + 8k + 4 bytes
    assert metrics["labelstore.manifest_bytes.final"] == 20 + 8 * 30
    assert sum(metrics[f"share.{layer}"] for layer in tr.LAYERS) == pytest.approx(1.0)


def test_traced_untraced_and_plain_runs_write_the_same_metrics_csv(tmp_path):
    seeds = TINY.seeds(3)
    traced = harness.measure_traced(TINY, 3, 0.1, tmp_path / "bench")
    assert traced.correct
    assert len(traced.detail["digests"]) >= 2
    assert len(set(traced.detail["digests"])) == 1
    config = tmp_path / "tiny.json"  # JSON is valid YAML
    config.write_text(json.dumps(TINY.raw_config()))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update((var, "1") for var in run.BLAS_THREAD_VARS)
    subprocess.run(
        [sys.executable, "-m", "onlinekd.cli", "run", str(config),
         "--seeds", ",".join(map(str, seeds)), "--out", str(tmp_path / "plain")],
        check=True, env=env, capture_output=True, timeout=120,
    )
    plain = hashlib.sha256((tmp_path / "plain" / "metrics.csv").read_bytes()).hexdigest()
    assert traced.detail["digests"][0] == plain


def test_self_times_are_non_negative_and_within_the_wall_time(tmp_path):
    tracer = tr.Tracer()

    @contextlib.contextmanager
    def around():
        with tracer.installed(), tracer.root("cli.main"):
            yield

    inv = harness.invoke(TINY, TINY.seeds(0), tmp_path / "inv", around)
    assert not inv.reasons()
    spans = tracer.spans()
    wall = spans.duration[spans.named("cli.main")].sum()
    assert (spans.self_s >= -1e-9).all()
    assert spans.self_s.sum() <= wall + 1e-9
    steps = spans.named(tr.STEP)
    assert steps.sum() == 2 * 30
    assert set(spans.names[spans.parent[steps]]) == {tr.RUN_ONLINE}
    assert set(spans.t[steps]) == set(range(30))


def test_gate_fails_cells_whose_store_has_stray_files(tmp_path):
    append = labelstore.SegmentWriter.append

    def append_and_litter(writer, *args, **kwargs):
        (writer.store.root / "litter.tmp").write_bytes(b"")
        return append(writer, *args, **kwargs)

    @contextlib.contextmanager
    def around():
        with tr._patched([(labelstore.SegmentWriter, "append", append_and_litter)]):
            yield

    inv = harness.invoke(TINY, TINY.seeds(0), tmp_path / "inv", around)
    assert inv.failed == 2
    assert all("stray" in reason for reason in inv.reasons())


def test_gate_fails_every_cell_of_a_run_that_raises(tmp_path):
    def boom(*args, **kwargs):
        raise RuntimeError("injected")

    @contextlib.contextmanager
    def around():
        with tr._patched([(labelstore.LabelStore, "open_snapshot", boom)]):
            yield

    inv = harness.invoke(TINY, TINY.seeds(0), tmp_path / "inv", around)
    assert inv.failed == len(inv.cells) == 2
    assert "injected" in inv.reasons()[0]


def test_ledger_flags_a_changed_counter(tmp_path):
    ledger = tmp_path / "ledger.json"
    assert harness.check_ledger(ledger, "w:seeds=0", {"store_bytes": 10, "metrics.csv sha256": "aa"}) == []
    assert harness.check_ledger(ledger, "w:seeds=0", {"store_bytes": 10}) == []
    assert harness.check_ledger(ledger, "w:seeds=0", {"store_bytes": 11}) != []
    assert harness.check_ledger(ledger, "w:seeds=1", {"store_bytes": 11}) == []


def test_ledger_keeps_runs_of_different_code_apart(tmp_path):
    program = tmp_path / "program"
    program.mkdir()
    (program / "store.py").write_text("MANIFEST = 'rewrite'\n")
    before = harness.ledger_key(TINY, (0, 1), [program])
    assert harness.ledger_key(TINY, (0, 1), [program]) == before
    (program / "store.py").write_text("MANIFEST = 'log'\n")
    after = harness.ledger_key(TINY, (0, 1), [program])
    assert after != before
    assert harness.ledger_key(TINY, (0, 1)) not in (before, after)
    # a change that alters the counters passes whichever side runs first
    ledger = tmp_path / "ledger.json"
    for key, size in ((before, 100), (after, 60), (before, 100), (after, 60)):
        assert harness.check_ledger(ledger, key, {"store_bytes": size}) == []


def test_concurrent_ledger_writers_lose_no_entry(tmp_path):
    ledger = tmp_path / "ledger.json"
    writers, keys = 6, 15
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=writers) as pool:
            futures = [
                pool.submit(
                    lambda w: [harness.check_ledger(ledger, f"w{w}:k{k}", {"n": k})
                               for k in range(keys)],
                    w,
                )
                for w in range(writers)
            ]
            assert all(f.result(timeout=60) == [[]] * keys for f in futures)
    finally:
        sys.setswitchinterval(interval)
    assert len(json.loads(ledger.read_text())) == writers * keys


def test_cells_the_probes_cannot_see_fail_without_a_crash(tmp_path, monkeypatch):
    """As when cells run in worker processes: timings that the benchmark
    process takes itself are still reported, the step and span metrics are
    not, and every cell counts as failed."""
    monkeypatch.setattr(tr.Tracer, "installed", lambda self, steps_only=False: contextlib.nullcontext(self))
    monkeypatch.setattr(harness, "setup_seconds", lambda *args: 1.0)
    result = harness.measure(TINY, 0, 0.1, tmp_path / "bench")
    assert not result.correct
    assert result.failed == result.attempted - harness.SETUP_PROBES == 2 * len(result.detail["digests"])
    assert "not probed" in result.problems[0]
    assert result.metrics["wall_ref"] > 0 and result.metrics["steps_per_kref"] > 0
    assert result.detail["timings"]["audit_ref"]["median"] > 0
    assert result.metrics["store_files"] == 2 * 32
    traced = harness.measure_traced(TINY, 0, 0.1, tmp_path / "traced")
    assert not traced.correct and traced.failed == traced.attempted - 2
    assert any("not traced" in problem for problem in traced.problems)


def test_a_failed_setup_probe_counts_as_a_failure(tmp_path, monkeypatch):
    def broken(*args):
        raise RuntimeError("setup probe failed (1): boom")

    monkeypatch.setattr(harness, "setup_seconds", broken)
    result = harness.measure(TINY, 0, 0.1, tmp_path / "bench")
    assert not result.correct and result.failed == harness.SETUP_PROBES
    cells = result.attempted - harness.SETUP_PROBES
    assert result.metrics["cells_ok_frac"] == cells / result.attempted


def test_reference_sampler_leaves_out_its_own_busy_time():
    with tr.ReferenceSampler() as sampler:
        t0 = tr.clock()
        while tr.clock() - t0 < 0.3:
            pass
        t1 = tr.clock()
    busy = float(sampler.busy_before(np.array([t1]))[0] - sampler.busy_before(np.array([t0]))[0])
    assert sampler.seconds.size >= 4 and 0 < busy < 0.3
    whole = sampler.span_in_reference_units(t0, t1)
    reference = float(np.median(sampler.seconds))
    assert whole == pytest.approx((t1 - t0 - busy) / reference, rel=0.5)
    # cutting the interval in two does not change its length in reference units
    mid = (t0 + t1) / 2
    halves = sampler.span_in_reference_units(t0, mid) + sampler.span_in_reference_units(mid, t1)
    assert halves == pytest.approx(whole, rel=1e-9)


def test_expected_rows_counts_the_shipped_families():
    from onlinekd import cli, pipeline

    # row counts of one seed of `onlinekd run` at the shipped defaults
    shipped = (("distill-strategy", 117), ("objective-selection", 108), ("teacher-scale", 152))
    for family, rows in shipped:
        cfg = cli.default_experiment(family, (0,))
        assert sum(harness.expected_rows(cfg, r) for r in pipeline.build_runs(cfg)) == rows
