"""The names the benchmark binds in rrkit must keep resolving.

``bench/tracer.py`` wraps each ``(module, name)`` in its ``TARGETS`` by
``getattr`` when it installs, and ``bench/harness.py`` calls a few library
functions directly, so removing or renaming any of them breaks every
benchmark run although no test under ``tests/`` imports them.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"

# what bench/harness.py and bench/tests call by module attribute
HARNESS_CALLS = [
    ("rrkit", "ModelError"), ("rrkit", "RegionReport"),
    ("rrkit.prob", "FORMS"), ("rrkit.prob", "compose"), ("rrkit.prob", "sample_factors"),
    ("rrkit.prob", "sample_distribution"),
    ("rrkit.regions", "hod_constants"), ("rrkit.regions", "build_system"),
    ("rrkit.regions", "project_to_ratepair"),
    ("rrkit.polytope", "lp_feasible"),
    ("rrkit.verify", "run_check"),
    ("rrkit.cli", "main"),
]


def _tracer_targets():
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return sorted(tracer.TARGETS)


@pytest.mark.parametrize("module, name", _tracer_targets() + HARNESS_CALLS)
def test_bench_binding_resolves(module, name):
    assert hasattr(importlib.import_module(module), name), f"{module}.{name} is gone"

