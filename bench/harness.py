"""One benchmark workload in one fresh process: set up, run, gate, report.

run.py starts this file as a child process, once per measurement:

    python3 bench/harness.py --mode MODE --workload NAME --seed N --seconds S
        --chunks K --spawned T --work DIR --out FILE

MODE is ``setup`` (import and prepare inputs only), ``timed`` (closed loop for
S seconds), ``fixed`` (exactly K chunks, untraced) or ``traced`` (the same K
chunks under the per-layer tracer).  ``--spawned`` is the parent's
``time.monotonic()`` just before the spawn, so set-up time counts from
interpreter start.  The result is written as JSON to FILE.

The workloads call rrkit only through its public functions, and always
through module attributes (``verify.run_check``, ``cli.main``) so the tracer's
wrappers see every call.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import numpy as np

from tracer import Tracer, originals_restored

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("thm4_binary", "identities_binary", "union_wide")
IDENTITY_CHECKS = ("corollary6", "eq14", "corollary1")
# corollary5 is left out: its known criterion-3 failure belongs to tier-1.
GATED_CHECKS = ("thm4",) + IDENTITY_CHECKS
VERIFY_BATCH = 8    # samples per run_check call; even, so Q=1 and Q=2 draws alternate
UNION_SAMPLES = 3   # samples per union invocation
UNION_FORM = "hk3"
# Q=2 and every other alphabet 4: a 2 * 4**8 = 131,072-cell (1 MiB) joint.
UNION_ALPHABETS = {"Q": 2, "U1": 4, "W1": 4, "U2": 4, "W2": 4,
                   "X1": 4, "X2": 4, "Y1": 4, "Y2": 4}
UNION_SHAPE = tuple(UNION_ALPHABETS.values())
VERTEX_TOL = 1e-9


def derive_seed(seed: int, workload: str, index: int) -> int:
    """Distinct 63-bit seed per chunk, so no cross-call cache can replay inputs."""
    digest = hashlib.sha256(f"{workload}:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def import_rrkit():
    """Import rrkit from this checkout's src/, never from anywhere else."""
    if not (SRC / "rrkit" / "__init__.py").is_file():
        raise SystemExit(f"rrkit sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import rrkit
    import rrkit.cli
    import rrkit.verify
    if Path(rrkit.__file__).resolve().parent != SRC / "rrkit":
        raise SystemExit(f"imported rrkit from {rrkit.__file__}, expected {SRC}")
    return rrkit


# --- machine-speed calibration -------------------------------------------------
#
# The host's speed drifts by up to ~70% for seconds to minutes at a time
# (cores shared with other machines), longer than a run, and process CPU time
# drifts with it.  A fixed reference kernel that never touches rrkit
# therefore runs after every chunk, and every timing is scaled to the speed
# at which the kernel takes its nominal time: a chunk's timings are
# multiplied by nominal / (median kernel time around that chunk).  Each
# workload is calibrated with the kernel closest to its own kind of work, as
# interpreter-bound and memory-bound code slow down by different factors.
# The raw figures are reported in the metadata line as well.

class Reference:
    """A fixed calibration kernel.  ``small`` is many small numpy reductions,
    Fraction arithmetic and dict updates.  ``wide`` is reductions over a
    union_wide-sized (1 MiB) table plus a quarter of ``small``, about the
    share of interpreter-bound work in that workload."""

    NOMINAL_S = {"small": 0.0082, "wide": 0.0091}
    REPEATS = 5
    WIDE_AXES = tuple(tuple(a for a in range(9) if (m >> a) & 1) for m in range(1, 512, 37))

    def __init__(self, kind: str):
        self.kind = kind
        self.nominal_s = self.NOMINAL_S[kind]
        self.cube = np.arange(4096, dtype=float).reshape(8, 8, 8, 8) / 4096
        if kind == "wide":
            self.table = np.arange(2 * 4**8, dtype=float).reshape(UNION_SHAPE) / 2**17

    def _small(self, n: int):
        total = 0.0
        for i in range(3 * n):
            total += float(self.cube.sum(axis=i % 4).max())
        f = Fraction(0)
        for i in range(1, 15 * n):
            f += Fraction(i % 7, i % 5 + 1)
        d: dict[int, int] = {}
        for i in range(200 * n):
            d[i % 97] = d.get(i % 97, 0) + i
        return total, f, d

    def run(self):
        if self.kind == "small":
            return self._small(100)
        total = sum(float(self.table.sum(axis=axes).max()) for axes in self.WIDE_AXES)
        return total, self._small(25)

    def time(self) -> float:
        t0 = perf_counter()
        self.run()
        return perf_counter() - t0

    def settled(self) -> float:
        """Median of a few runs, for a one-off measurement such as set-up."""
        return statistics.median(self.time() for _ in range(self.REPEATS))


REFERENCE_KIND = {"thm4_binary": "small", "identities_binary": "small", "union_wide": "wide"}


# --- correctness gate ---------------------------------------------------------

def check_reports(reports) -> list[str]:
    """Problems with verify reports: each must be a gated check that passed
    every verdict."""
    problems = []
    for r in reports:
        where = f"{r.check} seed {r.seed}"
        if r.check not in GATED_CHECKS:
            problems.append(f"{where}: check is not gated by this benchmark")
        elif not r.passed or not all(r.verdicts):
            problems.append(f"{where}: report failed ({sum(map(bool, r.verdicts))}/"
                            f"{len(r.verdicts)} verdicts)")
        elif len(r.verdicts) != r.samples:
            problems.append(f"{where}: {len(r.verdicts)} verdicts for {r.samples} samples")
    return problems


def check_unions(rrkit, unions) -> list[str]:
    """Problems with union outputs: every per-sample vertex must satisfy that
    sample's pre-reduction rate-pair projection within VERTEX_TOL.

    The projection is rebuilt from the library's public pieces (sampling,
    constants, build_system, project_to_ratepair), not through the CLI.
    """
    from rrkit import polytope, prob, regions
    spec = prob.FORMS[UNION_FORM]
    problems = []
    for seed, data in unions:
        if len(data["per_sample"]) != UNION_SAMPLES:
            problems.append(f"union seed {seed}: {len(data['per_sample'])} samples, "
                            f"expected {UNION_SAMPLES}")
        for sample in data["per_sample"]:
            i = sample["index"]
            d = prob.compose(prob.sample_factors(spec, UNION_ALPHABETS, seed, i),
                             spec, UNION_ALPHABETS)
            consts = regions.hod_constants(d)
            raw = regions.project_to_ratepair(regions.build_system(consts, "thm3-quadruple"))
            for v in sample["vertices"]:
                if not polytope.lp_feasible(raw, point=tuple(v), tol=VERTEX_TOL):
                    problems.append(f"union seed {seed} sample {i}: vertex {v} "
                                    "violates the pre-reduction projection")
    return problems


# --- workloads ----------------------------------------------------------------

class Campaign:
    """The operation stream of one workload: chunk j is fixed by (seed, j)."""

    def __init__(self, rrkit, workload: str, seed: int, work: Path, tracer=None):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.rrkit = rrkit
        self.workload = workload
        self.seed = seed
        self.work = work
        self.tracer = tracer
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.samples = 0
        self.reports: list = []
        self.unions: list[tuple[int, dict]] = []

    def prepare(self):
        if self.workload == "union_wide":
            self.scenario = self.work / "union_wide.json"
            self.scenario.write_text(json.dumps({"form": UNION_FORM,
                                                 "alphabets": UNION_ALPHABETS}))
            self.union_out = self.work / "union-out.json"

    def run_chunk(self, j: int):
        seed = derive_seed(self.seed, self.workload, j)
        if self.workload == "union_wide":
            self._union(seed)
        else:
            checks = ("thm4",) if self.workload == "thm4_binary" else IDENTITY_CHECKS
            for check in checks:
                self._verify(check, seed)

    def _timed_map(self, fn, items):
        """The mapper handed to run_check: times each sample call."""
        for i in items:
            self.attempted += 1
            t0 = perf_counter()
            out = fn(i) if self.tracer is None else self.tracer.call("verify.sample", fn, i)
            self.latencies.append(perf_counter() - t0)
            yield out

    def _verify(self, check: str, seed: int):
        try:
            report = self.rrkit.verify.run_check(check, VERIFY_BATCH, seed,
                                                 mapper=self._timed_map)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return
        self.reports.append(report)
        self.samples += len(report.verdicts)

    def _union(self, seed: int):
        argv = ["union", str(self.scenario), "--family", "hod",
                "--samples", str(UNION_SAMPLES), "--seed", str(seed),
                "--out", str(self.union_out)]
        self.attempted += 1
        t0 = perf_counter()
        try:
            code = self.rrkit.cli.main(argv)
        except Exception:
            traceback.print_exc()
            code = None
        elapsed = perf_counter() - t0
        if code != 0:
            self.failed += 1
            return
        self.latencies.append(elapsed)
        data = json.loads(self.union_out.read_text())
        self.unions.append((seed, {"per_sample": data["per_sample"],
                                   "hull_vertices": len(data["vertices"])}))
        self.samples += data["samples"]

    def gate(self) -> list[str]:
        if self.workload == "union_wide":
            return check_unions(self.rrkit, self.unions)
        return check_reports(self.reports)

    def digest(self) -> str:
        """Verdict vectors and per-sample vertex counts, hashed."""
        if self.workload == "union_wide":
            record = [[seed, [len(s["vertices"]) for s in data["per_sample"]],
                       data["hull_vertices"]] for seed, data in self.unions]
        else:
            record = [[r.check, r.seed, "".join("1" if v else "0" for v in r.verdicts)]
                      for r in self.reports]
        return hashlib.sha256(json.dumps(record).encode()).hexdigest()


def _percentile90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8] if len(values) >= 2 \
        else None


def run(mode: str, workload: str, seed: int, seconds: float, chunks: int,
        spawned: float, work: Path) -> dict:
    rrkit = import_rrkit()
    tracer = Tracer() if mode == "traced" else None
    campaign = Campaign(rrkit, workload, seed, work, tracer)
    campaign.prepare()
    setup_s = time.monotonic() - spawned
    # set-up is interpreter-bound (imports) for every workload
    small = Reference("small")
    setup = {"setup_s": setup_s * small.nominal_s / small.settled(), "setup_raw_s": setup_s}
    if mode == "setup":
        return setup
    reference = small if REFERENCE_KIND[workload] == "small" else Reference("wide")
    refs = [reference.time()]      # refs[i] before chunk i, refs[i + 1] after it
    spans = []                     # (duration, first latency, end latency) per chunk
    t_start = perf_counter()
    with tracer if tracer is not None else contextlib.nullcontext():
        while True:
            n0 = len(campaign.latencies)
            t0 = perf_counter()
            campaign.run_chunk(len(spans))
            spans.append((perf_counter() - t0, n0, len(campaign.latencies)))
            refs.append(reference.time())
            if (perf_counter() - t_start >= seconds) if mode == "timed" \
                    else len(spans) >= chunks:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    scales = [reference.nominal_s / statistics.median(refs[max(0, i - 1):i + 3])
              for i in range(len(spans))]
    raw_ms, lat_ms = [], []
    for (_, a, b), scale in zip(spans, scales):
        for x in campaign.latencies[a:b]:
            raw_ms.append(x * 1e3)
            lat_ms.append(x * 1e3 * scale)
    result = {
        **setup,
        "chunks": len(spans),
        "elapsed_s": sum(d * scale for (d, _, _), scale in zip(spans, scales)),
        "elapsed_raw_s": sum(d for d, _, _ in spans),
        "time_scale": statistics.median(scales),
        "reference_s": statistics.median(refs),
        "samples": campaign.samples,
        "attempted": campaign.attempted,
        "failed": campaign.failed,
        "latency_count": len(lat_ms),
        "op_ms_p50": statistics.median(lat_ms) if lat_ms else None,
        "op_ms_p90": _percentile90(lat_ms),
        "op_ms_raw_p50": statistics.median(raw_ms) if raw_ms else None,
        "op_ms_raw_p90": _percentile90(raw_ms),
        "peak_rss_mb": peak_rss_mb,
        "problems": campaign.gate(),
        "digest": campaign.digest(),
    }
    if tracer is not None:
        result["restored"] = originals_restored(tracer)
        result["trace"] = tracer.summary()
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--mode", choices=("setup", "timed", "fixed", "traced"), required=True)
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--chunks", type=int, default=0)
    p.add_argument("--spawned", type=float, required=True)
    p.add_argument("--work", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    result = run(args.mode, args.workload, args.seed, args.seconds, args.chunks,
                 args.spawned, args.work)
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
