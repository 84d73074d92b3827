"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  Campaign sizes and
tolerances are fixed here; nothing is deferred to later calibration.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse

from rrkit.cli import main
from rrkit.measures import cmi, entropy
from rrkit.polytope import (contains, fm_eliminate, lp_feasible, make_row,
                            nonnegativity_rows, remove_redundant, system)
from rrkit.prob import FORMS, sample_distribution, stream
from rrkit import verify as V

from conftest import binary_sizes

POLYTOPE_TOL = 1e-9
IDENTITY_TOL = 1e-12
FACET_BAND = 1e-7
CAMPAIGN = 200


def _line(n: int, passed: bool, detail: str):
    print(f"criterion {n}: {'PASS' if passed else 'FAIL'} - {detail}")


def _divergences(report):
    info = report.details.get("infeasible_source", {"count": 0, "witnesses": []})
    assert all(w["witness"] is not None for w in info["witnesses"])
    return info["count"]


def test_criterion_1_projection_equivalence_20_rows():
    t0 = time.time()
    r = V.run_check("thm4", CAMPAIGN, 1001, tol_polytope=POLYTOPE_TOL)
    elapsed = time.time() - t0
    div = _divergences(r)
    detail = (f"{sum(r.verdicts)}/{CAMPAIGN} samples equivalent "
              f"(both 20-row and 37-row lists), {r.details['empty_projection']} "
              f"with an empty projection, {div} one-sided divergences "
              f"witnessed at infeasible sources, {elapsed:.0f}s")
    _line(1, r.passed and elapsed < 120, detail)
    assert r.passed, r.failures[:1]
    assert elapsed < 120


def test_criterion_2_projection_equivalence_11_rows():
    r = V.run_check("thm6", CAMPAIGN, 1002, tol_polytope=POLYTOPE_TOL)
    div = _divergences(r)
    _line(2, r.passed, f"{sum(r.verdicts)}/{CAMPAIGN} samples equivalent, "
          f"{r.details['empty_projection']} with an empty projection, "
          f"{div} one-sided divergences witnessed at infeasible sources")
    assert r.passed, r.failures[:1]


def test_criterion_3_identity_table_and_inclusion():
    r = V.run_check("corollary5", CAMPAIGN, 1003,
                    tol_polytope=POLYTOPE_TOL, tol_identity=IDENTITY_TOL)
    dev = r.details["identity_dev"]
    bad = sorted(k for k, v in dev.items() if v > IDENTITY_TOL)
    inclusion_ok = r.details["inclusion"]["failed_any"] == 0.0
    detail = (f"inclusion {'holds' if inclusion_ok else 'fails'}; "
              f"{14 - len(bad)}/14 identities hold"
              + (f"; deviating lines: {bad}" if bad else ""))
    _line(3, r.passed, detail)
    assert r.passed, (
        "table lines deviating from the evaluated constants: "
        f"{dict((k, dev[k]) for k in bad)}")


def test_criterion_4_collapse_and_orderings():
    r1 = V.run_check("corollary1", CAMPAIGN, 1004)
    r3 = V.run_check("corollary3", CAMPAIGN, 1004)
    r24 = V.run_check("corollary2-4", CAMPAIGN, 1004,
                      tol_polytope=POLYTOPE_TOL, tol_identity=IDENTITY_TOL)
    passed = r1.passed and r3.passed and r24.passed
    _line(4, passed,
          f"add-ons max {max(r1.max_deviation, r3.max_deviation):.1e}; "
          f"orderings max excess {r24.max_deviation:.1e}")
    assert r1.passed, r1.failures[:1]
    assert r3.passed, r3.failures[:1]
    assert r24.passed, r24.failures[:1]


def test_criterion_5_split_region_relations():
    r = V.run_check("corollary6", CAMPAIGN, 1005, tol_identity=IDENTITY_TOL)
    worst_exact = max(r.details["line_dev"].values())
    worst_degenerate = max(r.details["degenerate_excess"].values())
    _line(5, r.passed,
          f"8 relations max dev {worst_exact:.1e}; degenerate dominance "
          f"max excess {worst_degenerate:.1e}")
    assert r.passed, r.failures[:1]


def test_criterion_6_binning_budget_projection():
    r = V.run_check("binning", 100, 1006, tol_identity=IDENTITY_TOL)
    _line(6, r.passed, f"coefficients exact on 100 samples, "
          f"constants max dev {r.max_deviation:.1e}")
    assert r.passed, r.failures[:1]


def _random_system(rng):
    variables = ("w", "x", "y", "z")
    rows = []
    for i in range(8):
        coeffs = [Fraction(int(c)) for c in rng.integers(-3, 4, size=4)]
        if all(c == 0 for c in coeffs):
            coeffs[int(rng.integers(0, 4))] = Fraction(1)
        rows.append(make_row(coeffs, float(rng.uniform(-1.0, 3.0)), f"r{i}"))
    for var, sign in (("w", 1), ("w", -1), ("x", 1), ("x", -1)):
        coeffs = {"w": 0, "x": 0, "y": 0, "z": 0}
        coeffs[var] = sign
        rows.append(make_row([coeffs[v] for v in variables], 5.0, f"box{var}{sign}"))
    return system(variables, rows)


def _lifted_feasible_lp(sys, points) -> np.ndarray:
    """Independent oracle: one block-diagonal LP over every point's two
    eliminated variables.  Point p gets free (w_p, x_p) and a slack
    s_p >= 0 with rows A[:, :2] (w_p, x_p) - s_p <= b - A[:, 2:] p; the LP
    minimises the sum of slacks, and p lies in the projection iff its slack
    reaches 0 (s_p <= 1e-9)."""
    a = np.array([[float(c) for c in r.coeffs] for r in sys.rows])
    b = np.array([r.bound for r in sys.rows])
    n = len(points)
    a_ub = scipy.sparse.hstack(
        [scipy.sparse.block_diag([a[:, :2]] * n),
         scipy.sparse.kron(scipy.sparse.eye(n), -np.ones((len(b), 1)))], format="csr")
    b_ub = (b[None, :] - points @ a[:, 2:].T).ravel()
    res = scipy.optimize.linprog(np.r_[np.zeros(2 * n), np.ones(n)], A_ub=a_ub, b_ub=b_ub,
                                 bounds=[(None, None)] * (2 * n) + [(0, None)] * n,
                                 method="highs")
    if res.status != 0:
        raise RuntimeError(f"unexpected LP status {res.status}")
    return res.x[2 * n:] <= 1e-9


def test_criterion_7_projection_oracle_and_redundancy():
    rng = stream(1007)
    disagreements = 0
    checked = 0
    for s in range(50):
        sys = _random_system(rng)
        proj = fm_eliminate(fm_eliminate(sys, "w"), "x")
        red = remove_redundant(proj, POLYTOPE_TOL)
        assert (contains(proj, red, POLYTOPE_TOL)[0]
                and contains(red, proj, POLYTOPE_TOL)[0]), f"system {s}"
        points = rng.uniform(-6.0, 6.0, size=(1000, 2))
        # distance of every point to every facet line, one row per facet
        facets = [r for r in proj.rows if not r.is_constant()]
        distance = np.array([
            np.abs(points[:, 0] * float(r.coeffs[0]) + points[:, 1] * float(r.coeffs[1])
                   - r.bound) / max(math.hypot(*(float(c) for c in r.coeffs)), 1e-30)
            for r in facets]).reshape(len(facets), len(points))
        near_facet = (distance < FACET_BAND).any(axis=0)
        for p, inside, near in zip(points, _lifted_feasible_lp(sys, points), near_facet):
            if near:
                continue
            point = (float(p[0]), float(p[1]))
            checked += 1
            if lp_feasible(proj, point=point, tol=POLYTOPE_TOL) != inside:
                disagreements += 1
    _line(7, disagreements == 0,
          f"{checked} point memberships agree with the LP oracle across 50 "
          f"systems; redundancy removal preserved all solution sets")
    assert disagreements == 0


def test_criterion_8_information_measures():
    rng = stream(1008)
    worst_chain = worst_neg = worst_subadd = 0.0
    for i in range(500):
        d = sample_distribution(FORMS["hod9"], binary_sizes("hod9", q=2),
                                seed=1008, index=i)
        names = list(d.names)
        rng.shuffle(names)
        a, b, c, cond = (names[0],), (names[1],), (names[2],), tuple(names[3:5])
        lhs = cmi(d, a, b + c, cond)
        rhs = cmi(d, a, b, cond) + cmi(d, a, c, b + cond)
        worst_chain = max(worst_chain, abs(lhs - rhs))
        worst_neg = max(worst_neg, -cmi(d, a, b, cond), -entropy(d, a, cond))
        worst_subadd = max(worst_subadd, entropy(d, a + b) - entropy(d, a)
                           - entropy(d, b))
    binary_dev = abs(-(0.25 * math.log2(0.25) + 0.75 * math.log2(0.75)) - 0.811278)
    passed = (worst_chain <= IDENTITY_TOL and worst_neg <= IDENTITY_TOL
              and worst_subadd <= IDENTITY_TOL and binary_dev <= 1e-6)
    _line(8, passed,
          f"chain rule {worst_chain:.1e}, negativity {worst_neg:.1e}, "
          f"subadditivity excess {worst_subadd:.1e}, H(1/4,3/4) dev {binary_dev:.1e}")
    assert worst_chain <= IDENTITY_TOL
    assert worst_neg <= IDENTITY_TOL
    assert worst_subadd <= IDENTITY_TOL
    assert binary_dev <= 1e-6


def test_criterion_9_cli_determinism(tmp_path):
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps({"form": "hk3", "alphabets": {"Q": 2},
                                "sampling": {"count": 8, "seed": 77}}))
    outputs = {}
    for tag in ("first", "second"):
        rep = tmp_path / f"rep-{tag}.json"
        uj = tmp_path / f"union-{tag}.json"
        uc = tmp_path / f"union-{tag}.csv"
        us = tmp_path / f"union-{tag}.svg"
        ps = tmp_path / f"plot-{tag}.svg"
        assert main(["verify", "binning", "--samples", "6", "--seed", "77",
                     "--out", str(rep)]) == 0
        assert main(["union", str(scen), "--family", "hod", "--samples", "8",
                     "--out", str(uj), "--csv", str(uc), "--svg", str(us)]) == 0
        assert main(["plot", str(uj), "--out", str(ps)]) == 0
        outputs[tag] = tuple(p.read_bytes() for p in (rep, uj, uc, us, ps))
    passed = outputs["first"] == outputs["second"]
    _line(9, passed, "verify/union/plot byte-identical across consecutive runs")
    assert passed
