"""Machine checks for the region catalog's reductions and comparisons.

Each check samples input distributions of the relevant factorization form,
evaluates both sides of a claimed reduction/identity/inclusion, and returns
a RegionReport.  Checks are deterministic in (samples, seed), never mutate
their inputs, and record a replayable witness (seed, factor tables, point)
for every failure: the (index, seed, sizes, factors) of the first draw that
failed, in the check's order.  ``prob.sample_factors`` draws every joint.

``CHECKS`` is the one table of checks.  It names each check (thm4, thm6,
corollary1, corollary2-4, corollary3, corollary5, corollary6, eq14, binning;
also the CLI vocabulary) with its per-sample function, whose docstring
states the claim, the fixed arguments and the tolerances its report
records; ``run_check(name, samples, seed)`` runs any of them.  A check that
reads identity or add-on rows beside family constants (corollary1,
corollary3, corollary5, corollary6, eq14) has one ``regions.part_table``,
compiled at import: the constants and the rows together, keyed (part,
label).  Per joint ``regions.evaluate_parts`` guards each family, evaluates
the table once and splits the values by part.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import regions
from .polytope import (TOL, InequalitySystem, contains, fm_eliminate, implies,
                       lp_feasible, remove_redundant)
from .prob import FORMS, compose, sample_factors

TOL_IDENTITY = 1e-12
TOL_ADDON = 1e-9     # single add-on mutual information on a factorized input
TOL_COLLAPSE = 1e-8  # a constant differs from its collapsed form by <= a few add-ons


@dataclass(frozen=True)
class RegionReport:
    """Outcome of one verification campaign."""

    check: str
    samples: int
    seed: int
    tolerances: dict[str, float]
    passed: bool
    verdicts: tuple[bool, ...]
    max_deviation: float
    failures: tuple[dict, ...]
    details: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "check": self.check,
            "samples": self.samples,
            "seed": self.seed,
            "tolerances": dict(self.tolerances),
            "passed": bool(self.passed),
            "verdicts": [bool(v) for v in self.verdicts],
            "max_deviation": float(self.max_deviation),
            "failures": list(self.failures),
            "details": dict(self.details),
        }

    def summary(self) -> str:
        status = "pass" if self.passed else "FAIL"
        n_ok = sum(1 for v in self.verdicts if v)
        return (f"{self.check}: {status} ({n_ok}/{len(self.verdicts)} verdicts, "
                f"max deviation {self.max_deviation:.3e} bits)")


def _draw(form: str, seed: int, index: int, sizes: dict[str, int] | None = None):
    """A joint of ``form`` and the (index, seed, sizes, factors) that replay it;
    ``sizes`` defaults to binary alphabets with |Q| alternating 1/2 by index."""
    if sizes is None:
        sizes = {n: 1 if n == "Q" and index % 2 == 0 else 2 for n in FORMS[form].variables}
    factors = sample_factors(FORMS[form], sizes, seed, index)
    return compose(factors, FORMS[form], sizes), (index, seed, sizes, factors)


def _result(draw, ok: bool, deviation: float, why: str, aggregate: dict | None = None,
            witness=None, failure_deviation: float | None = None,
            tally: dict | None = None, divergent: bool = False) -> dict:
    """One sample's record for ``_merge``: the verdict, the deviation, the
    ``aggregate`` entries (folded by max) and ``tally`` entries (summed) and,
    for a failed sample, a replayable witness of ``draw`` saying ``why`` (of
    a check's draws, the first that failed).  A ``divergent`` sample passes
    but keeps its witness, under details.infeasible_source."""
    record = {"ok": ok, "deviation": deviation, "aggregate": aggregate or {},
              "tally": tally or {}}
    if not ok or divergent:
        index, seed, sizes, factors = draw
        record["divergence" if ok else "failure"] = {
            "sample": index, "seed": seed, "sizes": dict(sizes), "why": why,
            "witness": witness,
            "deviation": deviation if failure_deviation is None else failure_deviation,
            "factors": [f.tolist() for f in factors]}
    return record


def _witness_deviation(sys: InequalitySystem, point) -> float:
    """Largest positive slack violation of the point against the system."""
    if point is None:
        return 0.0
    worst = 0.0
    for r in sys.rows:
        worst = max(worst, sum(float(c) * x for c, x in zip(r.coeffs, point)) - r.bound)
    return worst


def _merge(check: str, samples: int, seed: int, tolerances: dict, results) -> RegionReport:
    """Fold per-sample records into one report: each ``aggregate`` entry
    becomes details[key][name] = the largest value seen over the samples, and
    each ``tally`` entry details[key] = its sum (per name for a Counter)."""
    verdicts, failures, divergences, devs = [], [], [], [0.0]
    details: dict = {}
    tallies: dict = {}
    for res in results:
        verdicts.append(res["ok"])
        devs.append(res["deviation"])
        if "failure" in res:
            failures.append(res["failure"])
        if "divergence" in res:
            divergences.append(res["divergence"])
        for key, val in res["aggregate"].items():
            bucket = details.setdefault(key, {})
            for name, v in val.items():
                bucket[name] = max(bucket[name], v) if name in bucket else v
        for key, n in res["tally"].items():
            tallies[key] = tallies[key] + n if key in tallies else n
    for key, n in tallies.items():
        details[key] = dict(sorted(n.items())) if isinstance(n, Counter) else n
    if divergences:
        details["infeasible_source"] = {"count": len(divergences),
                                        "witnesses": divergences}
    return RegionReport(check, samples, seed, tolerances, all(verdicts),
                        tuple(verdicts), max(devs), tuple(failures), details)


# --- thm4 / thm6: quadruple -> rate-pair equivalence -------------------------

def _equivalence_one(index: int, seed: int, tol_polytope: float, tol_identity: float,
                     family: str, ratepair: str, with_37: bool) -> dict:
    """thm4 / thm6: the projected quadruple region equals the closed-form
    20-row / 11-row rate-pair description (thm4 also checks the two-way
    implication with the 37-row intermediate list).

    Samples whose source system is infeasible (a negative evaluated
    constant) keep an empty projection while the closed-form lists keep a
    sliver; those one-sided divergences are witnessed under
    details.infeasible_source instead of failing the check.
    details.empty_projection counts the samples whose projection is empty
    (their containments hold vacuously), and details.dropped_projection_rows
    how often each projection row was redundant on an equivalent sample."""
    fam = regions._FAMILIES[family]
    d, draw = _draw(fam.form, seed, index)
    consts = regions.constants_for(d, family)
    raw = regions.ratepair_projection(consts)
    listed = regions.build_system(consts, ratepair)
    pairs = [("projection inside closed-form list", listed, raw),
             ("closed-form list inside projection", raw, listed)]
    if with_37:
        b37 = regions.build_system(consts, "thm4-intermediate37")
        pairs += [("projection inside 37-row list", b37, raw),
                  ("37-row list inside projection", raw, b37)]
    problems = []
    for why, outer, inner in pairs:
        ok, witness = contains(outer, inner, tol_polytope)
        if not ok:
            problems.append((why, witness, _witness_deviation(outer, witness)))
    projection_empty = not lp_feasible(raw, tol=tol_polytope)
    tally = {"empty_projection": int(projection_empty), "dropped_projection_rows": Counter()}
    if not problems:
        reduced = remove_redundant(raw, tol_polytope)
        kept = {x.label for x in reduced.rows}
        tally["dropped_projection_rows"] = Counter(r.label for r in raw.rows
                                                   if r.label not in kept)
        return _result(draw, True, 0.0, "",
                       {"reduced_row_count": {"max": float(len(reduced.rows))}}, tally=tally)
    # A negative evaluated constant empties the source system; its projection
    # keeps the pure-constant feasibility rows that the closed-form lists omit, so
    # the closed-form region keeps a spurious sliver.  That one-sided divergence
    # is witnessed and classified, not treated as a reduction defect.
    one_sided = all(why.endswith("inside projection") for why, _, _ in problems)
    why_all = "; ".join(why for why, _, _ in problems)
    divergent = (projection_empty and one_sided
                 and not lp_feasible(regions.build_system(consts, fam.system),
                                     tol=tol_polytope))
    if divergent:
        why_all = f"source system infeasible: {why_all}"
    return _result(draw, divergent, max(p[2] for p in problems), why_all,
                   witness=problems[0][1], tally=tally, divergent=divergent)


# --- corollary1 / corollary3: add-on collapse --------------------------------

# family -> its constants, their cores and the distinct add-ons
_COLLAPSE_TABLES = {family: regions.part_table((family,), core=regions._FAMILIES[family].cores,
                                               addon=regions._FAMILIES[family].addons)
                    for family in ("hod", "hod1")}


def _collapse_one(index: int, seed: int, tol_polytope: float, tol_identity: float,
                  form: str, family: str) -> dict:
    """corollary1 / corollary3: on independent-auxiliary inputs (hk3, for the
    quadruple constants) and product inputs (cmg4, for the simplified ones)
    every correlation/interference/binning add-on vanishes and the constants
    equal their collapsed forms."""
    d, draw = _draw(form, seed, index)
    v = regions.evaluate_parts(d, _COLLAPSE_TABLES[family])
    consts, collapsed, addons = v[family], v["core"], v["addon"]
    worst_addon = max(addons.values())
    collapse_dev = {k: abs(consts[k] - collapsed[k]) for k in collapsed}
    worst_collapse = max(collapse_dev.values())
    term = max(addons, key=addons.get)
    return _result(draw, worst_addon <= TOL_ADDON and worst_collapse <= TOL_COLLAPSE,
                   max(worst_addon, worst_collapse),
                   f"add-on term {term} = {addons[term]:.3e}",
                   {"addons": addons, "collapse": collapse_dev})


# --- corollary2 / corollary4: redundant rate-pair rows -----------------------

REDUNDANT_UNDER_HK = ("11-3", "11-4", "11-5", "11-6", "11-7", "11-8",
                      "11-11", "11-15", "11-16", "11-18", "11-19")
REDUNDANT_UNDER_CMG = ("15-3", "15-9")


def redundant_rows(sys: InequalitySystem, labels, tol: float) -> list[str]:
    """Labels from ``labels`` NOT implied by the system's remaining rows."""
    base = sys.with_rows([r for r in sys.rows if r.label not in labels])
    return [r.label for r in sys.rows if r.label in labels and not implies(base, r, tol)]


def _cor24_one(index: int, seed: int, tol_polytope: float, tol_identity: float) -> dict:
    """corollary2-4: the listed rate-pair rows become redundant on the
    reduced input families, and D1 <= G1, E2 <= G2 hold for the simplified
    constants."""
    d3, draw3 = _draw("hk3", seed, index)
    c3 = regions.hod_constants(d3)
    sys20 = regions.build_system(c3, "thm4-ratepair")
    missed_hk = redundant_rows(sys20, REDUNDANT_UNDER_HK, tol_polytope)
    if missed_hk:
        return _result(draw3, False, 0.0,
                       f"rows not implied under independence: {missed_hk}")
    d4, draw4 = _draw("cmg4", seed, index)
    c4 = regions.hod1_constants(d4)
    sys11 = regions.build_system(c4, "thm6-ratepair")
    missed_cmg = redundant_rows(sys11, REDUNDANT_UNDER_CMG, tol_polytope)
    order_dev = max(c4["D1"] - c4["G1"], c4["E2"] - c4["G2"], 0.0)
    return _result(draw4, not missed_cmg and order_dev <= tol_identity, order_dev,
                   f"rows not implied: {missed_cmg}; ordering excess {order_dev:.3e}",
                   {"orderings": {"D1-G1": c4["D1"] - c4["G1"],
                                  "E2-G2": c4["E2"] - c4["G2"]}})


# --- corollary5: baseline constants vs general constants ---------------------

# both families' constants and each comparison-table line's delta, by baseline label
_COR5_TABLE = regions.part_table(
    ("dmt", "hod"), delta={low: delta for low, (_, delta) in regions.COROLLARY5_TABLE.items()})


def _cor5_one(index: int, seed: int, tol_polytope: float, tol_identity: float) -> dict:
    """corollary5: the 14-line comparison table between the baseline and
    general constants, constant-wise dominance, and rate-pair region
    inclusion.

    Per table line, details.identity_dev holds the worst deviation of
    "baseline = general - delta" and details.dominance_excess the worst
    baseline - general; a sample fails if either exceeds tol_identity or
    the baseline rate-pair region is not inside the general one.
    """
    d, draw = _draw("dmt5", seed, index)
    v = regions.evaluate_parts(d, _COR5_TABLE)
    cd, ch, deltas = v["dmt"], v["hod"], v["delta"]
    identity_dev, dominance_excess = {}, {}
    for low, (high, _) in regions.COROLLARY5_TABLE.items():
        identity_dev[low] = abs(cd[low] - (ch[high] - deltas[low]))
        dominance_excess[low] = cd[low] - ch[high]
    hod_rp = regions.ratepair_projection(regions.BoundConstants("hod", ch))
    dmt_rp = regions.ratepair_projection(regions.BoundConstants("dmt", cd))
    inclusion, witness = contains(hod_rp, dmt_rp, tol_polytope)
    worst_identity = max(identity_dev.values())
    worst_excess = max(dominance_excess.values())
    ok = worst_identity <= tol_identity and worst_excess <= tol_identity and inclusion
    bad = [k for k, v in identity_dev.items() if v > tol_identity]
    why = f"identity deviations above tolerance: {bad}"
    above = [k for k, v in dominance_excess.items() if v > tol_identity]
    if above:
        why += f"; baseline above general: {above}"
    if not inclusion:
        why += "; rate-pair inclusion failed"
    return _result(draw, ok, worst_identity, why,
                   {"identity_dev": identity_dev,
                    "dominance_excess": dominance_excess,
                    "inclusion": {"failed_any": 0.0 if inclusion else 1.0}},
                   witness, max(worst_identity, worst_excess))


# --- corollary6: split-private-message relations -----------------------------

# the split bounds, the quadruple bounds on the split joint, each line's
# delta and the narrow S1 delta
_COR6_TABLE = regions.part_table(
    ("rtd",), bound=regions.HOD_ON_SPLIT,
    delta={key: delta for key, _, _, delta in regions.COROLLARY6_LINES},
    narrow={"S1": regions.COROLLARY6_NARROW_S1_DELTA})
# the degenerate split draw: binary alphabets with U1b constant
_DEGENERATE_SIZES = {n: 1 if n == "U1b" else 2 for n in FORMS["rtd7"].variables}


def _cor6_one(index: int, seed: int, tol_polytope: float, tol_identity: float) -> dict:
    """corollary6: split-region bounds against the quadruple bounds on the
    merged joint.

    The S1 line is checked with the full I(U2,W2; U1b | W1,U1a) grouping
    (exact); the residual of the narrower I(W2; ...) grouping is reported
    under details.s1_narrow_grouping_residual.
    """
    d, draw = _draw("rtd7", seed, index)
    v = regions.evaluate_parts(d, _COR6_TABLE)
    cr = v["rtd"]
    line_dev = {}
    for key, rtd_label, orient, _ in regions.COROLLARY6_LINES:
        split_bound, dv = v["bound"][key], v["delta"][key]
        if orient > 0:
            line_dev[key] = abs(cr[rtd_label] - (split_bound - dv))
        else:
            line_dev[key] = abs(split_bound - (cr[rtd_label] - dv))
    s1_variant = abs(cr["8-3"] - (v["bound"]["S1"] - v["narrow"]["S1"]))
    # degenerate split part: every bound dominated by its quadruple analogue
    dd, draw_deg = _draw("rtd7", seed, index, _DEGENERATE_SIZES)
    vdeg = regions.evaluate_parts(dd, _COR6_TABLE)
    excess = {key: vdeg["rtd"][lab] - vdeg["bound"][key]
              for key, lab, _, _ in regions.COROLLARY6_LINES}
    worst_dev = max(line_dev.values())
    worst_excess = max(excess.values())
    split_ok = worst_dev <= tol_identity
    return _result(draw_deg if split_ok else draw, split_ok and worst_excess <= tol_identity,
                   worst_dev,
                   f"relation deviation {worst_dev:.3e}, "
                   f"degenerate dominance excess {worst_excess:.3e}",
                   {"line_dev": line_dev,
                    "degenerate_excess": excess,
                    "s1_narrow_grouping_residual": {"max": s1_variant}},
                   failure_deviation=worst_excess if split_ok else worst_dev)


# --- eq14: dual spellings of the simplified constants ------------------------

# eq14's superposition draw: each |X| a multiple of its |W|
_SUPERPOSITION_SIZES = {"Q": 2, "W1": 2, "X1": 4, "W2": 2, "X2": 4, "Y1": 2, "Y2": 2}


def _superposition_draw(seed: int, index: int):
    """A hod12 joint with W1 recoverable from X1 and W2 from X2 (Cover
    superposition) and its replay record: p(X1|Q,W1) and p(X2|Q,W2,W1,X1)
    (W on axis 1, X last) keep only x mod |W| = w, each slice renormalised;
    a simplex-uniform slice restricted to one class is uniform on that class."""
    spec, sizes = FORMS["hod12"], _SUPERPOSITION_SIZES
    factors = sample_factors(spec, sizes, seed, index)
    for i in (2, 4):  # p(X1|Q,W1) and p(X2|Q,W2,W1,X1)
        t = factors[i]
        w = np.arange(t.shape[1]).reshape((1, -1) + (1,) * (t.ndim - 2))
        t = np.where(np.arange(t.shape[-1]) % t.shape[1] == w, t, 0.0)
        factors[i] = t / t.sum(axis=-1, keepdims=True)
    return compose(factors, spec, sizes), (index, seed, sizes, factors)


# the simplified constants, their auxiliary-variable spellings and the
# recoverability residual (the A1 gap)
_EQ14_TABLE = regions.part_table(("hod1",), uform=regions.EQ14_UFORM,
                                 residual={"A1": (regions.EQ14_MARKOV_RESIDUAL,)})


def _eq14_one(index: int, seed: int, tol_polytope: float, tol_identity: float) -> dict:
    """eq14: both spellings of each simplified constant agree whenever the
    public messages are deterministic functions of the channel inputs; on
    generic inputs the per-constant gaps are measured and reported, with the
    A1 gap checked against the recoverability residual I(W2;W1|Q,X1)."""
    # generic draw: measure every deviation and the recoverability residual
    d, draw = _draw("hod12", seed, index)
    v = regions.evaluate_parts(d, _EQ14_TABLE)
    dev = {k: abs(v["uform"][k] - v["hod1"][k]) for k in regions.EQ14_UFORM}
    markov = v["residual"]["A1"]
    # the A1 gap equals the recoverability residual identically; E1 is the
    # same expression on both sides
    a1_gap_dev = abs(dev["A1"] - markov)
    generic_ok = dev["E1"] <= tol_identity and a1_gap_dev <= tol_identity
    why = []
    if not generic_ok:
        why.append(f"E1 dev {dev['E1']:.3e}, A1-vs-residual dev {a1_gap_dev:.3e}")
    # superposition draw: all eight spellings must agree
    dsup, draw_sup = _superposition_draw(seed, index)
    vsup = regions.evaluate_parts(dsup, _EQ14_TABLE)
    sup_dev = {k: abs(vsup["uform"][k] - vsup["hod1"][k]) for k in regions.EQ14_UFORM}
    worst_sup = max(sup_dev.values())
    sup_ok = worst_sup <= tol_identity
    if not sup_ok:
        why.append(f"superposition-structure deviation {worst_sup:.3e}")
    return _result(draw_sup if generic_ok else draw, generic_ok and sup_ok, worst_sup,
                   "; ".join(why),
                   {"generic_dev": dev,
                    "superposition_dev": sup_dev,
                    "recoverability_residual": {"max": markov}},
                   failure_deviation=worst_sup if generic_ok else max(dev["E1"], a1_gap_dev))


# --- binning: budget system projects onto the user-2 rows --------------------

# the user-2 quadruple rows by their rate vector over the budget rates (S2, T2, T1)
_USER2_PATTERN = {tuple(rates.get(v, 0) for v in ("S2", "T2", "T1")): label
                  for label, rates in regions._QUAD_RATES.items() if label.endswith("2")}


def _binning_one(index: int, seed: int, tol_polytope: float, tol_identity: float) -> dict:
    """binning: eliminating the budget rates reproduces the user-2 quadruple
    rows with identical coefficient vectors and matching constants."""
    d, draw = _draw("hod9", seed, index)
    budget = regions.binning_budget_system(d)
    projected = fm_eliminate(fm_eliminate(budget, "s2"), "t2")
    consts = regions.hod_constants(d)
    got = {tuple(int(c) for c in r.coeffs): r.bound for r in projected.rows}
    if set(got) != set(_USER2_PATTERN):
        return _result(draw, False, 0.0,
                       f"projected coefficient patterns {sorted(got)} != "
                       f"expected {sorted(_USER2_PATTERN)}")
    dev = {lab: abs(got[pat] - consts[lab]) for pat, lab in _USER2_PATTERN.items()}
    worst = max(dev.values())
    return _result(draw, worst <= tol_identity, worst,
                   f"projected constants deviate by {worst:.3e}", {"constant_dev": dev})


# name -> (per-sample function, fixed arguments, tolerances recorded in the report)
CHECKS = {
    "thm4": (_equivalence_one, dict(family="hod", ratepair="thm4-ratepair", with_37=True),
             ("polytope",)),
    "thm6": (_equivalence_one, dict(family="hod1", ratepair="thm6-ratepair", with_37=False),
             ("polytope",)),
    "corollary1": (_collapse_one, dict(form="hk3", family="hod"), ("addon", "collapse")),
    "corollary2-4": (_cor24_one, {}, ("polytope", "identity")),
    "corollary3": (_collapse_one, dict(form="cmg4", family="hod1"), ("addon", "collapse")),
    "corollary5": (_cor5_one, {}, ("identity", "polytope")),
    "corollary6": (_cor6_one, {}, ("identity",)),
    "eq14": (_eq14_one, {}, ("identity",)),
    "binning": (_binning_one, {}, ("identity",)),
}


def run_check(name: str, samples: int, seed: int,
              tol_polytope: float = TOL,
              tol_identity: float = TOL_IDENTITY, mapper=map) -> RegionReport:
    """Run check ``name`` on ``samples`` draws from ``seed``; ``mapper`` maps
    the per-sample function over the sample indices (a process pool's map
    gives the same report)."""
    if name not in CHECKS:
        raise KeyError(f"unknown check {name!r}; choose from {sorted(CHECKS)}")
    if samples < 1:
        raise ValueError(f"{name} needs at least 1 sample, got {samples}")
    one, fixed, recorded = CHECKS[name]
    tolerances = {"polytope": tol_polytope, "identity": tol_identity,
                  "addon": TOL_ADDON, "collapse": TOL_COLLAPSE}
    results = list(mapper(functools.partial(one, seed=seed, tol_polytope=tol_polytope,
                                            tol_identity=tol_identity, **fixed),
                          range(samples)))
    return _merge(name, samples, seed, {k: tolerances[k] for k in recorded}, results)

