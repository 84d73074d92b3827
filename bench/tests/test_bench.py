"""Tests of the benchmark itself, on tiny sizes.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import copy
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
from tracer import Tracer, originals_restored  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
rrkit = harness.import_rrkit()


def _bench(tmp_cwd: Path, workload: str, trace: int, script: Path = BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=tmp_cwd, capture_output=True, text=True, timeout=170)


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(harness.WORKLOADS)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", harness.WORKLOADS)
def test_every_named_metric_is_emitted_with_its_unit(workload, trace):
    proc = _bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == declared
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    proc = _bench(tmp_path, "thm4_binary", 0, tmp_path / BENCH.name / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""


def _one_chunk(workload: str, work: Path, tracer=None):
    campaign = harness.Campaign(rrkit, workload, 5, work, tracer)
    campaign.prepare()
    if tracer is None:
        campaign.run_chunk(0)
    else:
        with tracer:
            campaign.run_chunk(0)
    return campaign


@pytest.mark.parametrize("workload", harness.WORKLOADS)
def test_counts_repeat_and_tracing_keeps_results(workload, tmp_path):
    runs = []
    for _ in range(2):
        tracer = Tracer()
        campaign = _one_chunk(workload, tmp_path, tracer)
        summary = tracer.summary()
        runs.append((summary["calls"], summary["counters"], campaign.digest()))
    assert runs[0] == runs[1]
    assert runs[0][0]  # something was traced
    assert _one_chunk(workload, tmp_path).digest() == runs[0][2]


def _bindings():
    mods = [m for name, m in sys.modules.items()
            if m is not None and (name == "rrkit" or name.startswith("rrkit."))]
    return {(m.__name__, k): v for m in mods for k, v in vars(m).items() if callable(v)}


def test_wrappers_are_installed_everywhere_and_removed():
    before = _bindings()
    tracer = Tracer()
    with tracer:
        assert not originals_restored()
        # names imported with ``from .x import f`` are wrapped as well
        assert rrkit.measures.marginalize is rrkit.prob.marginalize
        assert hasattr(rrkit.measures.marginalize, "bench_span")
        assert hasattr(rrkit.verify.contains, "bench_span")
        assert hasattr(rrkit.cli.remove_redundant, "bench_span")
        assert hasattr(rrkit.regions.validate_factorization, "bench_span")
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
    assert originals_restored(tracer)


def test_wrappers_are_removed_when_a_traced_call_raises():
    d = rrkit.prob.sample_distribution(rrkit.prob.FORMS["hk3"],
                                       {n: 2 for n in rrkit.prob.FORMS["hk3"].variables}, 0)
    tracer = Tracer()
    with pytest.raises(rrkit.ModelError):
        with tracer:
            rrkit.measures.entropy(d, ("nope",))
    errors = tracer.summary()["errors"]
    assert errors["prob"] == 1 and errors["measures"] == 1
    assert originals_restored(tracer)


def test_gate_rejects_a_fabricated_failing_report():
    good = rrkit.RegionReport("thm4", 2, 0, {"polytope": 1e-9}, True, (True, True),
                              0.0, ())
    assert harness.check_reports([good]) == []
    failing = dataclasses.replace(good, passed=False, verdicts=(True, False),
                                  failures=({"why": "fabricated"},))
    assert harness.check_reports([failing])
    assert harness.check_reports([dataclasses.replace(good, verdicts=(True, False))])
    assert harness.check_reports([dataclasses.replace(good, check="corollary5")])


def test_gate_rejects_a_vertex_outside_the_projection(tmp_path):
    campaign = _one_chunk("union_wide", tmp_path)
    assert harness.check_unions(rrkit, campaign.unions) == []
    seed, data = campaign.unions[0]
    forged = copy.deepcopy(data)
    forged["per_sample"][0]["vertices"].append([1e3, 1e3])
    assert harness.check_unions(rrkit, [(seed, forged)])
