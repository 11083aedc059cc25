"""The package names that benchmarks/ patches or reads still exist.

The benchmark's tracer swaps functions by name (``pipeline.draw_slates``,
``ranker.mlp_forward``, ...) and its harness reads ``labelstore`` names
directly. A rename in the package then breaks the benchmark run. These
tests catch it in the tier-1 suite instead. They only import and read
benchmarks/tracer.py; nothing under benchmarks/ is changed.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from onlinekd import labelstore, pipeline

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


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


def test_store_names_the_harness_reads():
    assert isinstance(labelstore.MANIFEST_NAME, str)
    assert callable(labelstore.inspect_store)
