"""Per-layer spans and counters around rrkit's public functions.

A Tracer replaces each traced function with a wrapper in every rrkit module
namespace that binds it, so calls made through ``from .x import f`` names
are caught as well as calls through module attributes.  Spans (name, parent,
start, end) are kept in compact in-memory arrays and reduced to per-name
call counts and self times only when ``summary()`` is called.  Nothing in
``src/`` is modified; ``uninstall()`` puts every original back.
"""

from __future__ import annotations

import functools
import sys
import weakref
from array import array
from collections import Counter
from time import perf_counter

# (defining module, function name) -> span name.  The four constants
# functions share one span name so they aggregate as regions.constants.
TARGETS = {
    ("rrkit.prob", "sample_factors"): "prob.sample_factors",
    ("rrkit.prob", "compose"): "prob.compose",
    ("rrkit.prob", "validate_factorization"): "prob.validate_factorization",
    ("rrkit.prob", "marginalize"): "prob.marginalize",
    ("rrkit.measures", "entropy"): "measures.entropy",
    ("rrkit.measures", "cmi"): "measures.cmi",
    ("rrkit.measures", "eval_terms"): "measures.eval_terms",
    ("rrkit.regions", "hod_constants"): "regions.constants",
    ("rrkit.regions", "dmt_constants"): "regions.constants",
    ("rrkit.regions", "rtd_constants"): "regions.constants",
    ("rrkit.regions", "hod1_constants"): "regions.constants",
    ("rrkit.regions", "build_system"): "regions.build_system",
    ("rrkit.regions", "project_to_ratepair"): "regions.project_to_ratepair",
    ("rrkit.polytope", "fm_eliminate"): "polytope.fm_eliminate",
    ("rrkit.polytope", "lp_feasible"): "polytope.lp_feasible",
    ("rrkit.polytope", "contains"): "polytope.contains",
    ("rrkit.polytope", "remove_redundant"): "polytope.remove_redundant",
    ("rrkit.polytope", "vertices2d"): "polytope.vertices2d",
    ("rrkit.polytope", "convex_hull"): "polytope.convex_hull",
    ("rrkit.verify", "run_check"): "verify.run_check",
    ("rrkit.cli", "main"): "cli.main",
}

LAYERS = ("prob", "measures", "regions", "polytope", "verify", "cli")


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def _rrkit_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "rrkit" or name.startswith("rrkit."))]


class Tracer:
    """Spans and counters for one traced run; install, run, uninstall, summarise."""

    def __init__(self):
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._span_name = array("i")
        self._span_parent = array("i")
        self._span_start = array("d")
        self._span_end = array("d")
        self._stack: list[int] = []
        self.counters: Counter = Counter()
        self.errors: Counter = Counter()
        self._bindings: list[tuple[object, str, object]] = []  # (module, name, original)
        self._installed = False
        self._subsets_seen: set = set()
        self._joint_serials: dict[int, tuple[weakref.ref, int]] = {}
        self._next_joint = 0

    # --- spans ----------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self._names)
            self._names.append(name)
        return nid

    def parent_name(self) -> str | None:
        if not self._stack:
            return None
        return self._names[self._span_name[self._stack[-1]]]

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called ``name``; exceptions count as errors."""
        idx = len(self._span_start)
        self._span_name.append(self._name_id(name))
        self._span_parent.append(self._stack[-1] if self._stack else -1)
        self._span_start.append(0.0)
        self._span_end.append(0.0)
        self._stack.append(idx)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.errors[layer_of(name)] += 1
            raise
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self._span_start[idx] = t0
            self._span_end[idx] = t1

    # --- counters measured at the layer boundaries ----------------------------

    def _joint_serial(self, d) -> int:
        """A serial per live joint object, safe against id() reuse."""
        entry = self._joint_serials.get(id(d))
        if entry is None or entry[0]() is not d:
            entry = (weakref.ref(d), self._next_joint)
            self._next_joint += 1
            self._joint_serials[id(d)] = entry
        return entry[1]

    def _before_marginalize(self, d, keep):
        self.counters["marginalize.bytes_in"] += d.table.nbytes
        parent = self.parent_name()
        if parent is not None and layer_of(parent) == "measures":
            self.counters["subset_entropies"] += 1
            self._subsets_seen.add((self._joint_serial(d), frozenset(keep)))

    def _before_fm(self, sys_, var, merge=True):
        if var not in sys_.variables:
            return None
        k = sys_.variables.index(var)
        up = lo = 0
        for r in sys_.rows:
            c = r.coeffs[k]
            if c > 0:
                up += 1
            elif c < 0:
                lo += 1
        self.counters["fm_pairs"] += up * lo
        return len(sys_.rows) - up - lo

    def _after_fm(self, out, passed_through):
        if passed_through is not None:
            self.counters["fm_kept"] += max(0, len(out.rows) - passed_through)

    def _before_lp(self, sys_, point=None, tol=None):
        self.counters["lp_feasible.point_calls" if point is not None
                      else "lp_feasible.free_calls"] += 1

    def _before_redundant(self, sys_, tol=None):
        self.counters["redundant.rows_in"] += len(sys_.rows)

    def _after_redundant(self, out, _):
        self.counters["redundant.rows_out"] += len(out.rows)

    # --- installing and removing wrappers -------------------------------------

    def _wrapper(self, span: str, fn):
        hooks = {
            "prob.marginalize": (self._before_marginalize, None),
            "polytope.fm_eliminate": (self._before_fm, self._after_fm),
            "polytope.lp_feasible": (self._before_lp, None),
            "polytope.remove_redundant": (self._before_redundant, self._after_redundant),
        }
        before, after = hooks.get(span, (None, None))
        call = self.call

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            note = before(*args, **kwargs) if before is not None else None
            out = call(span, fn, *args, **kwargs)
            if after is not None:
                after(out, note)
            return out

        wrapper.bench_span = span
        return wrapper

    def install(self):
        if self._installed:
            raise RuntimeError("tracer is already installed")
        self._installed = True
        modules = _rrkit_modules()
        self._bindings = []
        for (modname, fname), span in TARGETS.items():
            original = getattr(sys.modules[modname], fname)
            wrapper = self._wrapper(span, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._bindings.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._bindings):
            setattr(mod, attr, original)
        self._installed = False

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # --- reduction at the end of the run ----------------------------------------

    def summary(self) -> dict:
        """Per-span-name calls and self time (seconds), plus raw counters."""
        n = len(self._span_start)
        dur = [self._span_end[i] - self._span_start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self._span_parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for i in range(n):
            name = self._names[self._span_name[i]]
            calls[name] += 1
            self_s[name] += dur[i] - child[i]
        counters = dict(self.counters)
        counters["subset_distinct"] = len(self._subsets_seen)
        return {"calls": dict(calls), "self_s": dict(self_s), "counters": counters,
                "errors": {layer: self.errors.get(layer, 0) for layer in LAYERS},
                "spans": n}


def originals_restored(tracer: Tracer | None = None) -> bool:
    """True when no rrkit namespace binds a tracer wrapper and, given a
    tracer, every binding it replaced holds its original again."""
    for mod in _rrkit_modules():
        if any(hasattr(v, "bench_span") for v in vars(mod).values()):
            return False
    if tracer is not None:
        return all(getattr(mod, attr) is original
                   for mod, attr, original in tracer._bindings)
    return True


def layer_metrics(summary: dict, samples: int,
                  time_scale: float = 1.0) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, normalised per sample: name -> (value, unit).

    Self times are multiplied by ``time_scale``, the run's machine-speed factor.
    A ratio whose denominator is 0 (the layer did no such work) reads 0.
    ``prob.marginalize.mb_read`` is computed from input table sizes, not
    measured from memory traffic.
    """
    calls, self_s, ctr = summary["calls"], summary["self_s"], summary["counters"]
    out: dict[str, tuple[float, str]] = {}

    def count(name, value):
        out[name] = (value / samples, "count/sample")

    def ms(name, seconds):
        out[name] = (seconds * time_scale * 1e3 / samples, "ms/sample")

    def ratio(name, num, den):
        out[name] = (num / den if den else 0.0, "ratio")

    def calls_and_self(span):
        count(f"{span}.calls", calls.get(span, 0))
        ms(f"{span}.self_ms", self_s.get(span, 0.0))

    for fn in ("sample_factors", "compose", "validate_factorization", "marginalize"):
        calls_and_self(f"prob.{fn}")
    out["prob.marginalize.mb_read"] = (ctr.get("marginalize.bytes_in", 0) / 1e6 / samples,
                                       "MB/sample")
    for fn in ("entropy", "cmi", "eval_terms"):
        count(f"measures.{fn}.calls", calls.get(f"measures.{fn}", 0))
    ms("measures.self_ms", sum(v for k, v in self_s.items() if layer_of(k) == "measures"))
    count("measures.subset_entropies", ctr.get("subset_entropies", 0))
    ratio("measures.subset_distinct_ratio", ctr.get("subset_distinct", 0),
          ctr.get("subset_entropies", 0))
    for fn in ("constants", "build_system", "project_to_ratepair"):
        calls_and_self(f"regions.{fn}")
    calls_and_self("polytope.fm_eliminate")
    count("polytope.fm_pairs", ctr.get("fm_pairs", 0))
    ratio("polytope.fm_kept_ratio", ctr.get("fm_kept", 0), ctr.get("fm_pairs", 0))
    count("polytope.lp_feasible.free_calls", ctr.get("lp_feasible.free_calls", 0))
    count("polytope.lp_feasible.point_calls", ctr.get("lp_feasible.point_calls", 0))
    ms("polytope.lp_feasible.self_ms", self_s.get("polytope.lp_feasible", 0.0))
    calls_and_self("polytope.contains")
    calls_and_self("polytope.remove_redundant")
    ratio("polytope.irredundant_ratio", ctr.get("redundant.rows_out", 0),
          ctr.get("redundant.rows_in", 0))
    calls_and_self("polytope.vertices2d")
    ms("polytope.convex_hull.self_ms", self_s.get("polytope.convex_hull", 0.0))
    count("verify.samples", calls.get("verify.sample", 0))
    # run_check's own time (argument handling, _merge) is charged to its samples.
    ms("verify.sample.self_ms",
       self_s.get("verify.sample", 0.0) + self_s.get("verify.run_check", 0.0))
    calls_and_self("cli.main")
    for layer in LAYERS:
        out[f"{layer}.errors"] = (float(summary["errors"][layer]), "count")
    return out
