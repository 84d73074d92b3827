"""Differential and property tests for the 2-variable polytope path.

Over two variables, contains, implies, remove_redundant and free
lp_feasible answer off the system's plan and tightest bounds (the lowest
corner, the duality certificate), and build a half-plane intersection only
where neither answers.  The reference is the Fourier-Motzkin oracle
(``fm_oracle``) on the same system lifted to three variables with z <= 0
and -z <= 0, which the library refuses to ask.

The engine answers every 2-variable system on one path, off its plan and
its bounds (the corner, each rest's own corner in redundancy removal, the
per-row question of implies and contains; normals of 2**20 or more read
exactly).  It is checked, answer for answer and error for error, against
the line oracle (``redundancy_oracle``), which holds the line tier the
engine no longer has: the same questions answered from canonical lines and
tightest-bound tables.

A small exact oracle (rational arithmetic over the float bounds, brute-force
vertices) measures how close each decision is to its threshold.  Draws with
a decision within MARGIN_BAND of it are skipped, as criterion 7 skips points
within FACET_BAND of a facet; exact ties are kept and pinned to the
reference's answer.  The FM oracle decides exactly too, so the redundancy
comparisons skip nothing.
"""

import math
import pickle
import random
import sys
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rrkit import polytope
from rrkit.polytope import (_ANGLE_PLANS, Halfspace, UnboundedRegionError, VariableMismatchError,
                            _angle_plan, contains, implies, lp_feasible, make_row,
                            nonnegativity_rows, remove_redundant, system, vertices2d)
from rrkit.prob import FORMS, compose, sample_factors
from rrkit.regions import _FAMILIES, _SYSTEMS, build_system, constants_for, ratepair_projection
from rrkit.verify import _draw, run_check

import fm_oracle as fm
import redundancy_oracle as oracle
from conftest import binary_sizes

VARS = ("x", "y")
TOLS = (0.0, 1e-9)
MARGIN_BAND = Fraction(1, 10**12)
# Far below any nonzero margin these bounds can produce, so a decision that
# flips within it sits exactly on its threshold.
TIE_BAND = Fraction(1, 10**36)
WITNESS_SLACK = 1e-12  # rounding of a float witness vertex

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)


# --- exact oracle -------------------------------------------------------------

def _exact(rows):
    """(a, b, c) rows, a*x + b*y <= c, as exact fractions."""
    return [(Fraction(r.coeffs[0]), Fraction(r.coeffs[1]), Fraction(r.bound)) for r in rows]


def _nonempty(rows) -> bool:
    """Brute force: a pointed region is nonempty iff some vertex is feasible."""
    if any(c < 0 for a, b, c in rows if a == 0 == b):
        return False
    lines = [(a, b, c) for a, b, c in rows if a or b]
    if not lines:
        return True
    inside = lambda x, y: all(a * x + b * y <= c for a, b, c in lines)
    a0, b0, _ = lines[0]
    if any(a0 * b - b0 * a for a, b, _ in lines):
        for i, (a1, b1, c1) in enumerate(lines):
            for a2, b2, c2 in lines[i + 1:]:
                det = a1 * b2 - b1 * a2
                if det and inside((c1 * b2 - b1 * c2) / det, (a1 * c2 - c1 * a2) / det):
                    return True
        return False
    # every normal is parallel to (a0, b0): an interval along that normal
    lo, hi = None, None
    for a, b, c in lines:
        scale = a / a0 if a0 else b / b0
        if scale > 0:
            hi = c / scale if hi is None else min(hi, c / scale)
        else:
            lo = c / scale if lo is None else max(lo, c / scale)
    return lo is None or hi is None or lo <= hi


def _probe(rows, row, tol):
    """rows plus a.x >= b + tol, the negation each containment probe tests."""
    a, b, _ = _exact([row])[0]
    return rows + [(-a, -b, -Fraction(row.bound + tol))]


def _margin(rows) -> str:
    """'clear', 'tie' (exactly on the threshold) or 'near' for an emptiness test."""
    at = lambda shift: _nonempty([(a, b, c + shift) for a, b, c in rows])
    if at(-MARGIN_BAND) == at(MARGIN_BAND):
        return "clear"
    return "tie" if at(-TIE_BAND) != at(TIE_BAND) else "near"


# --- systems --------------------------------------------------------------------

BOUNDS = st.one_of(st.sampled_from([0.0, 1e-17, -1e-17, 1.0, -1.0, 0.5, 2.0]),
                   st.integers(-3, 3).map(float),
                   st.floats(-3.0, 3.0).map(lambda v: round(v, 3)))


@st.composite
def systems(draw, max_rows=6):
    rows = [make_row((draw(st.integers(-2, 2)), draw(st.integers(-2, 2))), draw(BOUNDS), f"r{i}")
            for i in range(draw(st.integers(1, max_rows)))]
    if draw(st.booleans()):
        rows += nonnegativity_rows(VARS)
    if draw(st.booleans()):
        r = draw(st.sampled_from(rows))
        rows.append(Halfspace(r.coeffs, r.bound, "dup"))
    if draw(st.booleans()):  # antiparallel: a strip, a line or nothing
        r = draw(st.sampled_from(rows))
        rows.append(Halfspace(tuple(-c for c in r.coeffs),
                              draw(st.sampled_from([-r.bound, 0.0, 1.0, -1e-17])), "anti"))
    return system(VARS, draw(st.permutations(rows)))


def lift_row(r):
    return Halfspace(r.coeffs + (Fraction(0),), r.bound, r.label)


def lifted_outer(s):
    """The rows over (x, y, z), for the outer side of a lifted containment:
    z <= 0 and -z <= 0 there would touch z = 0 and fail it at tol 0."""
    return system(VARS + ("z",), [lift_row(r) for r in s.rows])


def lifted(s):
    """The same region in (x, y, z) with z pinned to 0, for the FM oracle."""
    outer = lifted_outer(s)
    return outer.with_rows(outer.rows + (make_row((0, 0, 1), 0.0, "z<=0"),
                                         make_row((0, 0, -1), 0.0, "z>=0")))


# --- differential properties ------------------------------------------------------

@SETTINGS
@given(systems(max_rows=8))
def test_free_feasibility_agrees_with_fm(s):
    assume(_margin(_exact(s.rows)) != "near")
    for tol in TOLS:
        assert lp_feasible(s, tol=tol) == fm.feasible(lifted(s), tol)


# Bounds that are small multiples of 5e-10: raised by tol 1e-9 their rows sit
# on, or a multiple of 5e-10 off, the line between meeting and not.
@st.composite
def tiny_systems(draw):
    return system(VARS, [make_row((draw(st.integers(-2, 2)), draw(st.integers(-2, 2))),
                                  draw(st.integers(-4, 4)) * 5e-10, f"r{i}")
                         for i in range(draw(st.integers(1, 6)))])


@SETTINGS
@given(st.one_of(systems(max_rows=8), tiny_systems()))
def test_free_feasibility_is_the_raised_rows_meeting(s):
    """Feasible within tol iff the rows with every bound raised by tol meet,
    over 2 variables and lifted to 3."""
    for tol in (0.0, 1e-9, 1e-6):
        raised = _exact([Halfspace(r.coeffs, r.bound + tol) for r in s.rows])
        if _margin(raised) == "near":
            continue
        assert lp_feasible(s, tol=tol) == _nonempty(raised)
        assert fm.feasible(lifted(s), tol) == _nonempty(raised)


def test_point_and_free_feasibility_agree_within_tol():
    # x <= -1e-9 and x >= 5e-10 miss by 1.5e-9; raised by 1e-9 they meet at x in [-5e-10, 0]
    s = _rows(((1, 0), -1e-9), ((-1, 0), -5e-10), ((0, 1), 1.0), ((0, -1), 0.0))
    assert lp_feasible(s, point=(0.0, 0.5), tol=1e-9)
    assert lp_feasible(s, tol=1e-9) and fm.feasible(lifted(s), 1e-9)
    assert not lp_feasible(s, tol=0.0)
    assert vertices2d(s, 1e-9).kind != "empty"


@SETTINGS
@given(systems(), systems(max_rows=4))
def test_implies_agrees_with_fm(s, other):
    for tol in TOLS:
        for row in other.rows:
            if _margin(_probe(_exact(s.rows), row, tol)) == "near":
                continue
            assert implies(s, row, tol) == fm.implies(lifted(s), lift_row(row), tol)


@SETTINGS
@given(systems(max_rows=4), systems())
def test_contains_agrees_with_fm_and_witness_violates(outer, inner):
    base = _exact(inner.rows)
    for tol in TOLS:
        assume(all(_margin(_probe(base, row, tol)) != "near" for row in outer.rows))
        ok, witness = contains(outer, inner, tol)
        assert ok == fm.contains(lifted_outer(outer), lifted(inner), tol)
        if ok:
            assert witness is None
            continue
        assert lp_feasible(inner, point=witness, tol=tol + WITNESS_SLACK)
        row = next(r for r in outer.rows if _nonempty(_probe(base, r, tol)))
        assert sum(float(c) * v for c, v in zip(row.coeffs, witness)) \
            >= row.bound + tol - WITNESS_SLACK


@SETTINGS
@given(systems(max_rows=4), systems())
def test_lifted_contains_witness_lies_in_inner_and_past_the_outer_row(outer, inner):
    """The witness, lifted to z = 0, is a point of the lifted inner within
    tol, and past the first lifted outer row inner does not imply by at
    least tol; no draw is skipped for its margin."""
    big_inner = lifted(inner)
    for tol in TOLS:
        ok, witness = contains(outer, inner, tol)
        if ok:
            assert witness is None
            continue
        point = (*witness, 0.0)
        assert lp_feasible(big_inner, point=point, tol=tol + WITNESS_SLACK)
        row = next(lift_row(r) for r in outer.rows if not implies(inner, r, tol))
        assert sum(float(c) * v for c, v in zip(row.coeffs, point)) \
            >= row.bound + tol - WITNESS_SLACK


def test_an_empty_inner_is_contained_without_a_probe(monkeypatch):
    """An inner that is empty (a contradiction, or rows that miss) is inside
    any outer without a probe.  One outside the plane still raises as the
    first probe would, and an outer without rows asks nothing of it."""
    outer = _rows(((1, 0), -5.0), ((0, 1), -5.0), ((1, 1), 0.0))
    empties = [system(VARS, [Halfspace((0, 0), -1.0, "c")]),
               _rows(((1, 0), -1.0), ((-1, 0), -1.0))]
    monkeypatch.setattr(polytope, "_outside", lambda *args: pytest.fail("probed"))
    for inner in empties:
        for tol in TOLS:
            assert contains(outer, inner, tol) == (True, None)
    wide = system(("x", "y", "z"), [make_row((1, 0, 0), -1.0), make_row((-1, 0, 0), -1.0)])
    with pytest.raises(VariableMismatchError, match="3 variables and a row of 3 coefficients"):
        contains(wide, wide)
    assert contains(system(wide.variables, []), wide) == (True, None)


@SETTINGS
@given(systems(max_rows=8))
def test_remove_redundant_agrees_with_fm(s):
    """No margin skip: the oracle decides ties and near ties exactly."""
    for tol in TOLS:
        kept = [r.label for r in remove_redundant(s, tol).rows]
        reference = [r.label for r in fm.remove_redundant(lifted(s), tol).rows
                     if not r.label.startswith("z")]
        assert kept == reference


CONTRADICTIONS = (-1.0, -1e-17, -1e-10)  # -1e-10 vanishes once bounds are relaxed by tol


@SETTINGS
@given(systems(max_rows=8),
       st.lists(st.tuples(st.sampled_from(CONTRADICTIONS),
                          st.sampled_from(["first", "middle", "last"])), min_size=1, max_size=3))
def test_remove_redundant_with_contradictions_agrees_with_fm(s, placed):
    rows = list(s.rows)
    for k, (bound, where) in enumerate(placed):
        at = {"first": 0, "middle": len(rows) // 2, "last": len(rows)}[where]
        rows.insert(at, Halfspace((0, 0), bound, f"c{k}"))
    s = system(VARS, rows)
    for tol in TOLS:
        kept = [r.label for r in remove_redundant(s, tol).rows]
        reference = [r.label for r in fm.remove_redundant(lifted(s), tol).rows
                     if not r.label.startswith("z")]
        assert kept == reference


def _reintersecting_greedy(s, tol):
    """remove_redundant's rule with no shortcut: visit the rows in order and
    drop one iff the intersection of the remaining rows never reaches its
    bound + tol.  Wherever the remaining rows meet, also assert that the
    oracle's ``_kept_below`` certifies exactly the rows this drops."""
    s = polytope._relaxed(s, tol)
    lines, alive, i = s._lines, list(range(len(s.rows))), 0
    while i < len(alive):
        row = s.rows[alive[i]]
        rest = [lines[k] for k in alive[:i] + alive[i + 1:]]
        dropped = polytope._reach(polytope._region(rest), row.coeffs, row.bound + tol) is None
        if polytope._region(rest).edges:
            tight = polytope._tight_lines(rest)[0]
            assert oracle._kept_below(tight, row.coeffs, row.bound + tol) == dropped, row
        if dropped:
            del alive[i]
        else:
            i += 1
    return [s.rows[k].label for k in alive]


BIG = st.sampled_from([1 << 20, (1 << 20) + 1, 3 * (1 << 20) + 1, (1 << 40) + 3])


@st.composite
def big_normal_systems(draw):
    """Small systems plus rows with a normal entry of 2**20 or more, whose
    lines carry exact Fraction bounds."""
    rows = list(draw(systems(max_rows=5)).rows)
    for i in range(draw(st.integers(1, 3))):
        big = draw(BIG) * draw(st.sampled_from([1, -1]))
        small = draw(st.integers(-2, 2))
        coeffs = (big, small) if draw(st.booleans()) else (small, big)
        rows.insert(draw(st.integers(0, len(rows))), make_row(coeffs, draw(BOUNDS), f"b{i}"))
    return system(VARS, rows)


CONSTANTS = CONTRADICTIONS + (0.0, 1e-17, 1e-10, 1.0)  # with 0 <= beta too


@SETTINGS
@given(st.one_of(systems(max_rows=8), tiny_systems(), big_normal_systems()),
       st.lists(st.tuples(st.sampled_from(CONSTANTS),
                          st.sampled_from(["first", "middle", "last"])), max_size=3))
def test_remove_redundant_agrees_with_reintersecting_every_row(s, placed):
    """No margin skip: near-threshold decisions and exact ties included."""
    rows = list(s.rows)
    for k, (bound, where) in enumerate(placed):
        at = {"first": 0, "middle": len(rows) // 2, "last": len(rows)}[where]
        rows.insert(at, Halfspace((0, 0), bound, f"c{k}"))
    s = system(VARS, rows)
    for tol in (0.0, 1e-9, 0.5):
        kept = [r.label for r in remove_redundant(s, tol).rows]
        assert kept == _reintersecting_greedy(s, tol)


def test_a_rate_pair_reduction_intersects_once(monkeypatch):
    """An hk3 projection (8 rows, bounded, 5 of them kept) is reduced without
    an intersection: its lowest corner says it meets, and no rest of its rows
    is intersected.  Only reading its region (here) intersects it, once."""
    sizes = binary_sizes("hk3")
    d = compose(sample_factors(FORMS["hk3"], sizes, 1, 0), FORMS["hk3"], sizes)
    raw = ratepair_projection(constants_for(d, "hod"))
    calls = []
    region = polytope._region
    monkeypatch.setattr(polytope, "_region", lambda lines: calls.append(1) or region(lines))
    reduced = remove_redundant(raw)
    assert len(reduced.rows) == 5
    assert len(calls) == 0
    assert len(raw.rows) == 8 and not raw._plane_region.rays
    assert len(calls) == 1


def test_thm4_intersects_only_for_witnesses(monkeypatch):
    """Over 200 thm4 samples, only the samples that fail or diverge build a
    half-plane intersection (their witness probes); every other verdict is
    read off the lowest corner.  The report is the one the intersection
    engine gave."""
    import hashlib
    import json
    region, current, seen = polytope._region, [None], []
    monkeypatch.setattr(polytope, "_region",
                        lambda lines: seen.append(current[0]) or region(lines))

    def mapper(one, indices):
        for index in indices:
            current[0] = index
            yield one(index)
    report = run_check("thm4", 200, 1001, mapper=mapper)
    witnessed = {f["sample"] for f in report.failures} | {
        w["sample"] for w in report.details.get("infeasible_source", {}).get("witnesses", ())}
    assert seen and set(seen) <= witnessed
    assert len(seen) <= 0.05 * 200
    assert hashlib.sha256(json.dumps(report.to_json_dict()).encode()).hexdigest() == \
        "85be4a0ca21cdf2d03035e65dc3b64f98c57061dddea033190586de39ab9c74a"


def test_corollary2_4_intersects_nowhere(monkeypatch):
    """Over 200 corollary2-4 samples, ``implies`` decides whether each listed
    rate-pair row is redundant off the plan and the tightest bounds: no
    half-plane intersection is built, and the report passes."""
    calls, region = [], polytope._region
    monkeypatch.setattr(polytope, "_region", lambda lines: calls.append(1) or region(lines))
    report = run_check("corollary2-4", 200, 1001)
    assert report.passed
    assert calls == []


def test_the_equivalence_checks_reduce_only_projections_that_exist(monkeypatch):
    """Over 200 thm4 and 200 thm6 samples, every projection ``verify``
    reduces is feasible within the check's tol: an empty one adds nothing to
    the union over inputs, so it is not reduced."""
    from rrkit import verify
    calls, reduce = [], verify.remove_redundant
    monkeypatch.setattr(verify, "remove_redundant", lambda s, tol: calls.append(
        (name, lp_feasible(s, tol=tol))) or reduce(s, tol))
    for name, seed in (("thm4", 1001), ("thm6", 1002)):
        run_check(name, 200, seed)
    assert all(feasible for _, feasible in calls)
    assert ("thm6", True) in calls


# --- the lowest corner of a monotone system ---------------------------------------------

MONOTONE_NORMALS = [(1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (3, 2), (0, 0)]
# exact zeros of both signs, round-off, +-tol (a tie once raised by tol) and random
TIE_BOUNDS = st.one_of(st.sampled_from([0.0, -0.0, 1e-17, -1e-17, 1e-9, -1e-9]),
                       st.floats(-2.0, 2.0).map(lambda v: round(v, 3)))


@st.composite
def monotone_systems(draw):
    """Rows with the catalogued rate-pair normals (>= 0 in both entries) or
    the constant row, plus optional, possibly repeated, lower bounds."""
    rows = [make_row(draw(st.sampled_from(MONOTONE_NORMALS)), draw(TIE_BOUNDS), f"r{i}")
            for i in range(draw(st.integers(1, 7)))]
    rows += [make_row(draw(st.sampled_from([(-1, 0), (0, -1)])), draw(TIE_BOUNDS), f"low{k}")
             for k in range(draw(st.integers(0, 4)))]
    return system(VARS, draw(st.permutations(rows)))


def _intersected_feasible(s, tol):
    """lp_feasible read off half-plane intersections alone."""
    meets = lambda t: bool(polytope._region(t._lines).edges)
    return meets(s) or (not any(r.is_constant() and r.bound < -tol for r in s.rows)
                        and meets(polytope._raised(s, tol)))


def _intersected_contains(outer, inner, tol):
    """contains read off inner's half-plane intersection alone, witness included."""
    region = polytope._region(inner._lines)
    if outer.rows and not region.edges:
        return True, None
    for row in outer.rows:
        if (witness := polytope._reach(region, row.coeffs, row.bound + tol)) is not None:
            return False, witness
    return True, None


@SETTINGS
@given(monotone_systems(), systems())
def test_the_lowest_corner_is_the_intersection_verdict(s, general):
    """On a monotone system and its raised copies the corner says whether
    the rows meet, as the intersection does; on any other system it says
    nothing or the same."""
    corner = lambda t: oracle._lowest_corner(*polytope._tight_lines(t._lines))
    for t in (s, *(polytope._raised(s, tol) for tol in TOLS)):
        assert corner(t) == bool(polytope._region(t._lines).edges)
    monotone = all(p >= 0 <= q or (p, q) in ((-1, 0), (0, -1)) for (p, q), _, _ in general.rows)
    verdict = corner(general)
    assert (verdict is None) != monotone
    assert verdict in (None, bool(polytope._region(general._lines).edges))


# Empty at tol 0 and feasible within 1e-9: reduced as its raised rows, where
# 3x+2y's threshold 2e-9 + 1e-9 rounds just past the rest's maximum 3e-9.
RAISED_NEAR_TIE = system(VARS, [make_row((3, 2), 1e-9, "r0"), make_row((1, 1), 0.0, "r1"),
                                make_row((0, -1), -1e-9, "low0"), make_row((-1, 0), 0.0, "low1")])


# The rest of r1 (r2 and low0) reaches x = 1e-9 exactly, r1's bound + tol: a
# tie, so r1 is not implied and stays.  Eliminating x with float sums rounds
# past the tie; the exact oracle keeps r1 as the engine does.
EXACT_TIE = system(VARS, [make_row((1, 0), 0.0, "r0"), make_row((1, 0), 0.0, "r1"),
                          make_row((3, 2), 1e-9, "r2"), make_row((0, -1), 1e-9, "low0")])


@SETTINGS
@given(monotone_systems(), st.one_of(monotone_systems(), systems(max_rows=4)))
@example(RAISED_NEAR_TIE, RAISED_NEAR_TIE)
@example(EXACT_TIE, EXACT_TIE)
def test_monotone_answers_agree_with_the_intersection_and_fm(s, other):
    base = _exact(s.rows)
    for tol in TOLS:
        feasible = lp_feasible(s, tol=tol)
        assert feasible == _intersected_feasible(s, tol)
        if _margin(_exact([Halfspace(r.coeffs, r.bound + tol) for r in s.rows])) != "near":
            assert feasible == fm.feasible(lifted(s), tol)
        ok, witness = contains(other, s, tol)
        assert (ok, witness) == _intersected_contains(other, s, tol)
        if all(_margin(_probe(base, row, tol)) != "near" for row in other.rows):
            assert ok == fm.contains(lifted_outer(other), lifted(s), tol)
        kept = [r.label for r in remove_redundant(s, tol).rows]
        assert kept == _reintersecting_greedy(s, tol)
        assert kept == [r.label for r in fm.remove_redundant(lifted(s), tol).rows
                        if not r.label.startswith("z")]
        relax = tol > 0 and not _intersected_feasible(s, 0.0) and feasible
        relaxed = polytope._raised(s, tol) if relax else s
        poly = _vertices_or_unbounded(s, tol)
        assert (poly is not None and poly.kind == "empty") == \
            (not polytope._region(relaxed._lines).edges)


@SETTINGS
@given(st.one_of(systems(), big_normal_systems()), systems(max_rows=4))
def test_contains_gives_the_intersection_answer_on_any_inner(inner, outer):
    """The duality certificate decides each outer row of any inner that
    meets, monotone or not: the answer and the witness are the ones read off
    inner's intersection row by row."""
    for tol in TOLS:
        assert contains(outer, inner, tol) == _intersected_contains(outer, inner, tol)


WILD_BOUNDS = [1e308, -1e308, math.inf, -math.inf, math.nan]
WILD_NORMALS = MONOTONE_NORMALS + [(-1, 0), (0, -1), (1, -1), (1 << 20, 1)]
WILD_ROWS = st.tuples(st.sampled_from(WILD_NORMALS), st.sampled_from(WILD_BOUNDS))


@SETTINGS
@given(st.one_of(systems(), big_normal_systems(), monotone_systems()), systems(max_rows=4),
       st.lists(WILD_ROWS, max_size=3),
       st.sampled_from(TOLS + (0.5, 1.7e308)))
def test_implies_gives_the_intersection_answer(s, other, wild, tol):
    """implies decides a row as contains decides one outer row (one
    question per row, ``_outside``): the answer, or the error, is contains'
    on the outer system of that row alone and the one read off the
    system's intersection, for rows whose bounds are 1e308 or not finite
    too (a constant row's among them)."""
    asked = [make_row(n, bound, "wild") for n, bound in wild]
    for row in [*other.rows, *asked, *(Halfspace((0, 0), bound, "c") for bound in WILD_BOUNDS)]:
        expected = _outcome(lambda: _intersected_contains(system(VARS, [row]), s, tol)[0])
        assert _outcome(lambda: implies(s, row, tol)) == expected
        assert _outcome(lambda: contains(system(VARS, [row]), s, tol)[0]) == expected


FOREIGN_NORMALS = [(3, -7), (-5, 2), (7, 7), (1 << 20, 1), (0, 0)]


@SETTINGS
@given(systems(), systems(max_rows=4))
def test_no_question_changes_a_cached_plan(s, other):
    """A plan is shared by every system with its pattern: asking about
    normals foreign to it (in ``contains``, ``implies`` and
    ``remove_redundant``) leaves it as ``_plane_plan`` builds it."""
    foreign = [make_row(n, 1.0, "f") for n in FOREIGN_NORMALS]
    outer = system(VARS, [*other.rows, *foreign])
    for tol in TOLS:
        _outcome(lambda: contains(outer, s, tol))
        _outcome(lambda: contains(s, outer, tol))
        for row in outer.rows:
            _outcome(lambda: implies(s, row, tol))
        _outcome(lambda: remove_redundant(s, tol))
        _outcome(lambda: remove_redundant(outer, tol))
    for t in (s, outer):
        assert polytope._plane_plan(t._coeffs).brackets == \
            polytope._plane_plan.__wrapped__(t._coeffs).brackets


def test_the_lowest_corner_reads_unreadable_bounds_as_the_intersection_does():
    """A constant row with a bound that is not finite gets the intersection's
    verdict (a nonzero normal with one is refused by ``_canon``); a bound the
    intersection refuses leaves the system to it, which raises as before."""
    nan, inf = float("nan"), float("inf")
    corner = lambda lines: oracle._lowest_corner(*polytope._tight_lines(lines))
    low = [(-1, 0, 0.0), (0, -1, 0.0)]
    assert corner(low + [(1, 0, 1e308)]) is None
    assert corner(low + [(1, 0, 1e307)]) is True  # a box side of 4e307 fits
    for beta, meets in ((nan, False), (inf, True), (-inf, False)):
        lines = low + [(0, 0, beta), (1, 1, 1.0)]
        assert corner(lines) is bool(polytope._region(lines).edges) is meets
        s = system(VARS, [Halfspace((0, 0), beta, "c"), make_row((1, 1), 1.0),
                          *nonnegativity_rows(VARS)])
        assert s._meets is meets and "_plane_region" not in vars(s)
        for tol in TOLS:
            assert lp_feasible(s, tol=tol) is meets
            assert contains(SHAPES["empty"], s, tol)[0] is not meets
    huge = _rows(((1, 0), 1e308), ((-1, 0), 0.0), ((0, 1), 1.0), ((0, -1), 0.0))
    assert corner(huge._lines) is None
    with pytest.raises(UnboundedRegionError, match="1e\\+308 too large"):
        lp_feasible(huge)
    with pytest.raises(UnboundedRegionError, match="bound inf is not finite"):
        lp_feasible(_rows(((1, 0), inf), ((-1, 0), 0.0)))
    with pytest.raises(UnboundedRegionError, match="1e\\+308 too large"):  # the raised copy's
        lp_feasible(_rows(((1, 1), -1.0), ((-1, 0), 0.0), ((0, -1), 0.0)), tol=1e308)


# --- the plan path against the line oracle -------------------------------------------


def _box_limit(big: int) -> float:
    """The largest bound ``_box_side`` takes for normal entries up to ``big``."""
    x = sys.float_info.max / (8.0 * big * big)
    while polytope._box_side(big, math.nextafter(x, math.inf)) is not None:
        x = math.nextafter(x, math.inf)
    while polytope._box_side(big, x) is None:
        x = math.nextafter(x, -math.inf)
    return x


BOX_BOUNDS = [v for big in (1, 2, 3) for x in (_box_limit(big), math.nextafter(_box_limit(big),
                                                                             math.inf))
              for v in (x, -x)]
PLAN_NORMALS = MONOTONE_NORMALS + [(-1, 0), (0, -1)]
PLAN_TOLS = (0.0, 1e-9, 0.5, 1.7e308)  # the last raises a box-limit bound past the float range


@st.composite
def plan_systems(draw, monotone_only=False):
    """Rows with the catalogued rate-pair normals, lower bounds (at nonzero
    bounds too) and constant rows, with duplicate normals; now and then a
    row that is not monotone, and a monotone row with a normal entry of
    2**20 or more, whose bound is read exactly.  Bounds include ties, -0.0,
    +-1e-17 and, now and then, a ``_box_side`` limit or a non-finite value."""
    rows = [make_row(draw(st.sampled_from(PLAN_NORMALS)), draw(TIE_BOUNDS), f"r{i}")
            for i in range(draw(st.integers(1, 9)))]
    if draw(st.integers(0, 3)) == 0:
        r = draw(st.sampled_from(rows))
        rows.append(Halfspace(r.coeffs, draw(st.sampled_from([r.bound, r.bound + 1.0])), "dup"))
    if not monotone_only and draw(st.integers(0, 3)) == 0:
        rows.append(make_row(draw(st.sampled_from([(1, -1), (-1, -1), (-2, 1)])),
                             draw(TIE_BOUNDS), "tilt"))
    if draw(st.integers(0, 3)) == 0:
        big, small = draw(BIG), draw(st.integers(1, 2))
        rows.append(make_row((big, small) if draw(st.booleans()) else (small, big),
                             draw(TIE_BOUNDS), "big"))
    rare = draw(st.integers(0, 9))
    if rare < 2:
        k = draw(st.integers(0, len(rows) - 1))
        bound = draw(st.sampled_from(BOX_BOUNDS if rare else [math.inf, -math.inf, math.nan]))
        rows[k] = Halfspace(rows[k].coeffs, bound, rows[k].label)
    return system(VARS, draw(st.permutations(rows)))


def _carrying(s):
    """The rows of s as a system that carries its plan and bounds from its
    maker, as ``regions`` and ``_project`` build them."""
    coeffs = tuple(r.coeffs for r in s.rows)
    return polytope._built(s.variables, coeffs, [r.bound for r in s.rows],
                           [r.label for r in s.rows], _plan=polytope._plane_plan(coeffs))


def _rebuilt(s):
    return system(s.variables, s.rows)


def _outcome(ask):
    """ask()'s answer, or the type and text of the error it raised."""
    try:
        return ask()
    except (UnboundedRegionError, ValueError) as e:
        return type(e), str(e)


@SETTINGS
@given(plan_systems())
def test_meets_from_the_plan_is_the_oracle_corner_and_the_intersection(s):
    """Whether the rows meet, off the plan and the bounds, is the corner of
    the tightest lines (the intersection where that says nothing) and the
    intersection's verdict; on the system and its raised copies, with the
    same error where one is raised."""
    for make in (_carrying, _rebuilt):
        for tol in PLAN_TOLS:
            t = polytope._raised(make(s), tol)
            expected = _outcome(lambda: oracle.meets(t))
            assert _outcome(lambda: t._meets) == expected
            if expected in (True, False):
                assert bool(polytope._region(oracle.lines(t)).edges) is expected
            assert _outcome(lambda: lp_feasible(make(s), tol=tol)) == \
                _outcome(lambda: oracle.feasible(make(s), tol))


@SETTINGS
@given(plan_systems(), st.sampled_from(PLAN_TOLS))
def test_the_deletion_filter_keeps_the_oracle_rows(s, tol):
    """remove_redundant keeps exactly the rows the greedy rule keeps with
    each rest's tightest lines, corner and intersection rebuilt, and raises
    where it raises."""
    expected = _outcome(lambda: oracle.remove_redundant(s, tol))
    for make in (_carrying, _rebuilt):
        assert _outcome(lambda: [r.label for r in remove_redundant(make(s), tol).rows]) == expected


@SETTINGS
@given(plan_systems(monotone_only=True), plan_systems(), st.sampled_from(PLAN_TOLS))
def test_contains_by_normal_gives_the_per_row_verdict_and_witness(inner, outer, tol):
    """contains, one question per outer row, gives the verdict, the witness
    and the error of the oracle's test of every outer row in order."""
    for a, b in ((inner, outer), (outer, inner)):
        expected = _outcome(lambda: oracle.contains(a, b, tol))
        for make in (_carrying, _rebuilt):
            assert _outcome(lambda: contains(make(a), make(b), tol)) == expected


@pytest.mark.parametrize("form", ["hod9", "dmt5", "rtd7", "hk3", "hod12", "cmg4"])
def test_rate_pair_projections_agree_with_the_line_oracle(form):
    """Each family's rate-pair projections, and its closed-form lists, on
    drawn joints: meets, redundancy removal and containment as the oracle
    gives them, at tol 0 and 1e-9."""
    sizes = binary_sizes(form)
    for index in range(12):
        d = compose(sample_factors(FORMS[form], sizes, 7, index), FORMS[form], sizes)
        for family, fam in _FAMILIES.items():
            if not FORMS[form].implies(FORMS[fam.form]):
                continue
            c = constants_for(d, family)
            built = [ratepair_projection(c)] + [
                build_system(c, name) for name in ("thm4-ratepair", "thm4-intermediate37",
                                                   "thm6-ratepair")
                if _SYSTEMS[name][0] == family]
            for tol in TOLS:
                for s in built:
                    assert s._meets is oracle.meets(s)
                    assert [r.label for r in remove_redundant(s, tol).rows] == \
                        oracle.remove_redundant(s, tol)
                    for other in built:
                        assert contains(other, s, tol) == oracle.contains(other, s, tol)


def test_a_bound_raised_past_the_float_range_raises_as_the_line_oracle_does():
    """Rows that meet, one of them bounded at 1e307: raised by tol 1.7e308
    that bound is not finite, and redundancy removal and containment raise
    where testing each row in order does."""
    s = _rows(((1, 0), 1e307), ((0, 1), 1.0), ((-1, 0), 0.0), ((0, -1), 0.0))
    for tol in (1e-9, 1.7e308):
        expected = _outcome(lambda: oracle.remove_redundant(s, tol))
        assert _outcome(lambda: [r.label for r in remove_redundant(_rebuilt(s), tol).rows]) \
            == expected
        assert _outcome(lambda: contains(_rebuilt(s), _rebuilt(s), tol)) == \
            _outcome(lambda: oracle.contains(s, s, tol))
    assert expected == (UnboundedRegionError, "row bound inf is not finite")


def test_a_rest_the_box_refuses_raises_as_the_line_oracle_does():
    """Rows that do not meet, whose tightest bounds the box takes: without
    x <= 1 the rest's tightest bound for x is 1e308, past the box, so the
    greedy rule intersects that rest and raises."""
    s = system(VARS, [make_row((1, 1), -1.0, "a"), make_row((1, 0), 1.0, "x"),
                      make_row((1, 0), 1e308, "far"), *nonnegativity_rows(VARS)])
    refused = (UnboundedRegionError, "bound 1e+308 too large for the 2-D intersection")
    for tol in TOLS:
        assert _outcome(lambda: oracle.remove_redundant(s, tol)) == refused
        for make in (_carrying, _rebuilt):
            assert _outcome(lambda: [r.label for r in remove_redundant(make(s), tol).rows]) \
                == refused


def test_a_big_normal_bound_is_read_exactly():
    """Bounds of rows with a normal entry of 2**20 or more are read exactly:
    the witness is the exact meet of the two big rows, rounded once, as the
    line oracle gives it.  Read as floats, its x is off in the last bit."""
    inner = _rows(((3145729, -1), -0.396), ((1, 2), 0.093), ((1, 3145729), -1.617))
    outer = _rows(((1, 1), -1.426))
    expected = (False, [-1.2588513315363565e-07, -5.140302531193459e-07])
    assert oracle.contains(outer, inner, 0.0) == expected
    for make in (_carrying, _rebuilt):
        assert contains(make(outer), make(inner), 0.0) == expected


def test_thm4_canonicalises_no_row_where_no_system_meets(monkeypatch):
    """Over 200 thm4 samples, a sample whose closed-form systems
    (thm4-ratepair, thm4-intermediate37) do not meet makes no canonical
    line (``_canon``) and no tightest-bound table (``_tight_lines``): its
    verdicts are read off the plans and the bounds.  Only witnessed samples
    make any."""
    current, calls = [None], Counter()
    for name in ("_canon", "_tight_lines"):
        fn = getattr(polytope, name)
        monkeypatch.setattr(polytope, name,
                            lambda *args, fn=fn: calls.update([current[0]]) or fn(*args))

    def mapper(one, indices):
        for index in indices:
            current[0] = index
            yield one(index)
    report = run_check("thm4", 200, 1001, mapper=mapper)
    monkeypatch.undo()
    witnessed = {f["sample"] for f in report.failures} | {
        w["sample"] for w in report.details.get("infeasible_source", {}).get("witnesses", ())}
    assert set(calls) <= witnessed
    empty = []
    for index in range(200):
        c = constants_for(_draw("hod9", 1001, index)[0], "hod")
        if not any(build_system(c, name)._meets
                   for name in ("thm4-ratepair", "thm4-intermediate37")):
            empty.append(index)
            assert calls[index] == 0, index
    assert len(empty) >= 150


# --- one region per system ------------------------------------------------------------

QUESTIONS = {
    "free": lambda s, other: [lp_feasible(s, tol=tol) for tol in TOLS],
    "implies": lambda s, other: [implies(s, r, tol) for r in other.rows for tol in TOLS],
    "inner": lambda s, other: [contains(other, s, tol) for tol in TOLS],
    "outer": lambda s, other: [contains(s, other, tol) for tol in TOLS],
    "reduced": lambda s, other: [[r.label for r in remove_redundant(s, tol).rows]
                                 for tol in TOLS],
    "vertices": lambda s, other: [_vertices_or_unbounded(s, tol) for tol in TOLS],
}


@SETTINGS
@given(systems(), systems(max_rows=4))
def test_answers_do_not_depend_on_what_was_asked_before(s, other):
    fresh = lambda: system(s.variables, s.rows)
    expected = {name: ask(fresh(), system(other.variables, other.rows))
                for name, ask in QUESTIONS.items()}
    names = list(QUESTIONS)
    for order in (names, names[::-1]):
        kept = fresh()
        for name in order + order:  # the second round reads only the kept region
            assert QUESTIONS[name](kept, other) == expected[name], name
    lp_feasible(s)
    s._plane_region  # the lowest corner answers lp_feasible; the copy carries a region too
    assert "_meets" in vars(s) and "_plane_region" in vars(s)
    copy = pickle.loads(pickle.dumps(s))
    for name, ask in QUESTIONS.items():
        assert ask(copy, other) == expected[name], name


def test_angle_plan_cache_stops_growing():
    rng = random.Random(12)
    seen = set()
    while len(seen) <= 2 * _ANGLE_PLANS:
        rows = [make_row((rng.randint(-5, 5), rng.randint(-5, 5)), 1.0) for _ in range(6)]
        lp_feasible(system(VARS, rows))
        seen.add(frozenset(r.coeffs for r in rows if any(r.coeffs)))
    assert _angle_plan.cache_info().currsize <= _ANGLE_PLANS
    run_check("thm4", 8, 5)
    misses = _angle_plan.cache_info().misses
    run_check("thm4", 8, 5)
    assert _angle_plan.cache_info().misses == misses


# --- named shapes -------------------------------------------------------------------

def _rows(*spec):
    return system(VARS, [make_row(c, b, f"r{i}") for i, (c, b) in enumerate(spec)])


SHAPES = {
    "empty": _rows(((1, 0), -1.0), ((-1, 0), 0.0)),
    "empty-by-1e-17": _rows(((1, 1), -1e-17), ((-1, 0), 0.0), ((0, -1), 0.0)),
    "point": _rows(((1, 0), 0.0), ((-1, 0), 0.0), ((0, 1), 0.0), ((0, -1), 0.0)),
    "point-three-rows": _rows(((1, 1), 0.0), ((-1, 0), 0.0), ((0, -1), 0.0)),
    "segment": _rows(((1, -1), 0.0), ((-1, 1), 0.0), ((1, 0), 1.0), ((-1, 0), 0.0)),
    "line": _rows(((1, 2), 1.0), ((-1, -2), -1.0)),
    "strip": _rows(((0, 1), 1.0), ((0, -1), 1.0), ((0, 1), 1.0)),
    "half-plane": _rows(((2, -1), 1e-17)),
    "wedge": _rows(((1, -1), 0.0), ((-1, -1), 0.0)),
    "plane": _rows(((0, 0), 0.0)),
    "contradiction": _rows(((0, 0), -1e-17), ((1, 0), 1.0)),
    "triangle": _rows(((1, 1), 1.0), ((-1, 0), 0.0), ((0, -1), 0.0), ((1, 0), 1.0)),
    # normals of size >= 2**20, whose bounds the 2-D path keeps as fractions
    "needle": _rows((((1 << 21) + 1, 1), float(1 << 21)), ((-1, 0), 0.0), ((0, -1), 0.0),
                    ((-(1 << 20), 1 - (1 << 22)), -3.0)),
}
PROBES = [make_row((1, 0), 0.0, "x<=0"), make_row((1, 1), 1.0, "x+y<=1"),
          make_row((0, -1), 1.0, "y>=-1"), make_row((-2, 1), 1e-17, "tilt"),
          make_row((0, 0), 0.0, "vacuous")]


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_named_shapes_agree_with_fm(name):
    s = SHAPES[name]
    ref = lifted(s)
    for tol in TOLS:
        assert lp_feasible(s, tol=tol) == fm.feasible(ref, tol)
        for row in PROBES:
            assert implies(s, row, tol) == fm.implies(ref, lift_row(row), tol)
        for other in SHAPES.values():
            assert contains(other, s, tol)[0] == fm.contains(lifted_outer(other), ref, tol)
            assert contains(s, other, tol)[0] == fm.contains(lifted_outer(s), lifted(other), tol)
        assert [r.label for r in remove_redundant(s, tol).rows] == \
            [r.label for r in fm.remove_redundant(ref, tol).rows if not r.label.startswith("z")]


def test_named_shapes_have_the_expected_kind():
    assert not lp_feasible(SHAPES["empty"], tol=0.0)
    assert not lp_feasible(SHAPES["empty-by-1e-17"], tol=0.0)
    assert lp_feasible(SHAPES["empty-by-1e-17"], tol=1e-9)  # its rows raised by tol meet
    assert vertices2d(SHAPES["point"]).kind == "point"
    assert vertices2d(SHAPES["point-three-rows"]).kind == "point"
    assert vertices2d(SHAPES["segment"]).kind == "segment"
    assert vertices2d(SHAPES["triangle"]).kind == "polygon"
    ok, witness = contains(SHAPES["triangle"], SHAPES["half-plane"])
    assert not ok and lp_feasible(SHAPES["half-plane"], point=witness)


# --- systems that are empty but feasible within tol ---------------------------------

# A uniform-kernel rate-pair projection: every constant is 0 up to round-off,
# so the exact region is empty while the region within tol is the origin.
ORIGIN_BY_ROUNDOFF = [((1, 0), -1.5543122344752192e-15), ((0, 1), -1.2212453270876722e-15),
                      ((1, 1), -1.2212453270876722e-15), ((-1, 0), 0.0),
                      ((0, 0), -9.992007221626409e-16), ((2, 1), -1.2212453270876722e-15),
                      ((0, -1), 0.0), ((1, 2), -1.9984014443252818e-15),
                      ((3, 2), -1.9984014443252818e-15)]


def test_remove_redundant_keeps_a_roundoff_empty_region_bounded():
    raw = _rows(*ORIGIN_BY_ROUNDOFF)
    assert not lp_feasible(raw, tol=0.0) and lp_feasible(raw, tol=1e-9)
    assert vertices2d(raw, 1e-9).kind == "point"
    reduced = remove_redundant(raw, 1e-9)
    poly = vertices2d(reduced, 1e-9)
    assert poly.kind == "point"
    assert all(abs(v) <= 1e-13 for v in poly.vertices[0])
    assert [r.label for r in reduced.rows] == \
        [r.label for r in fm.remove_redundant(lifted(raw), 1e-9).rows
         if not r.label.startswith("z")]


@pytest.mark.parametrize("name", sorted(SHAPES) + ["origin-by-roundoff"])
def test_two_variable_questions_never_eliminate(name, monkeypatch):
    def refuse(*args):
        raise AssertionError("a 2-variable question eliminated a variable")
    monkeypatch.setattr(polytope, "fm_eliminate", refuse)
    monkeypatch.setattr(polytope, "_fm_plan", refuse)
    s = _rows(*ORIGIN_BY_ROUNDOFF) if name not in SHAPES else system(VARS, SHAPES[name].rows)
    for tol in TOLS:
        lp_feasible(s, tol=tol)
        for row in PROBES:
            implies(s, row, tol)
        for other in SHAPES.values():
            contains(other, s, tol)
            contains(s, other, tol)
        remove_redundant(s, tol)
        _vertices_or_unbounded(s, tol)


def test_bounds_past_the_float_range_raise_unbounded_region_error():
    # a box side of 4 * 1e308 overflows; so does a probe at bound 1e308 raised by tol 1e308
    huge = _rows(((1, 0), 1e308), ((-1, 0), 0.0), ((0, 1), 1.0), ((0, -1), 0.0))
    for ask in (lambda: contains(huge, huge), lambda: remove_redundant(huge),
                lambda: lp_feasible(huge), lambda: vertices2d(huge),
                lambda: implies(SHAPES["triangle"], make_row((1, 0), 1e308), 1e308)):
        with pytest.raises(UnboundedRegionError, match="bound"):
            ask()


def test_a_rational_row_scaled_past_the_float_range_raises_unbounded_region_error():
    # x / 3 <= 1e308 is x <= 3e308 once scaled to integers: a system refuses
    # the unscaled row, and make_row's scaled bound is inf
    rest = [Halfspace((-1, 0), 0.0), Halfspace((0, 1), 1.0), Halfspace((0, -1), 0.0)]
    with pytest.raises(ValueError, match="make_row"):
        system(VARS, [Halfspace((Fraction(1, 3), 0), 1e308), *rest])
    s = system(VARS, [make_row((Fraction(1, 3), 0), 1e308), *rest])
    assert s.rows[0] == Halfspace((1, 0), float("inf"))
    for ask in (lp_feasible, remove_redundant, vertices2d):
        with pytest.raises(UnboundedRegionError, match="bound inf is not finite"):
            ask(s)


def test_the_slack_is_tol_not_twice_tol():
    # the unit square overshoots x <= 1 - d by d, with tol < d < 2 * tol
    tol, d = 1e-6, 1.5e-6
    square = [make_row((0, 1), 1.0, "top"), *nonnegativity_rows(VARS)]
    cut, cap = make_row((1, 0), 1.0 - d, "cut"), make_row((1, 0), 1.0, "cap")
    inner, outer = system(VARS, [cap, *square]), system(VARS, [cut, *square])
    assert not implies(inner, cut, tol)
    ok, witness = contains(outer, inner, tol)
    assert not ok and witness[0] >= 1.0 - d + tol
    # the rest of the rows (cap among them) overshoot cut by d, so it stays
    kept = remove_redundant(system(VARS, [cut, cap, *square]), tol)
    assert [r.label for r in kept.rows] == ["cut", "top", "x>=0", "y>=0"]


@pytest.mark.parametrize("tol", [-0.5, -1e-12, float("nan"), float("inf"), True, np.True_])
def test_a_negative_or_nan_tolerance_is_refused(tol):
    # the segment x = 0, 0 <= y <= 1; an infinite tol is refused too, where
    # it would make every answer vacuous
    s = _rows(((1, 0), 0.0), ((-1, 0), 0.0), ((0, 1), 1.0), ((0, -1), 0.0))
    for ask in (lambda: lp_feasible(s, tol=tol), lambda: lp_feasible(s, (0.0, 0.5), tol),
                lambda: implies(s, make_row((0, 1), 2.0), tol), lambda: contains(s, s, tol),
                lambda: remove_redundant(s, tol), lambda: vertices2d(s, tol)):
        with pytest.raises(ValueError, match="tol must be finite and >= 0"):
            ask()
    assert vertices2d(s, 0.0).kind == "segment" and lp_feasible(s, tol=0.0)


def _vertices_or_unbounded(s, tol):
    try:
        return vertices2d(s, tol)
    except UnboundedRegionError:
        return None


def _within(points, others, tol) -> bool:
    return all(any(abs(x - u) <= tol and abs(y - v) <= tol for u, v in others)
               for x, y in points)


@st.composite
def near_degenerate(draw):
    """Rows through one shared point, each bound off by at most 1e-14, plus
    an occasional row that passes the point by 1 and cuts the cone."""
    px, py = draw(st.sampled_from([0.0, 1.0, -0.5, 0.25])), draw(st.sampled_from([0.0, 2.0, 0.75]))
    noise = st.one_of(st.sampled_from([0.0, 1e-14, -1e-14, 1e-15, -1e-15, 5e-16, -5e-16]),
                      st.floats(-1e-14, 1e-14))
    rows = []
    for i in range(draw(st.integers(1, 9))):
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        slack = 1.0 if draw(st.integers(0, 4)) == 0 else draw(noise)
        rows.append(make_row((a, b), a * px + b * py + slack, f"r{i}"))
    return system(VARS, draw(st.permutations(rows)))


@SETTINGS
@given(near_degenerate())
def test_remove_redundant_keeps_the_kind_of_near_degenerate_regions(s):
    tol = 1e-9
    raw = _vertices_or_unbounded(s, tol)
    reduced = _vertices_or_unbounded(remove_redundant(s, tol), tol)
    if raw is None:
        assert reduced is None
        return
    assert reduced is not None and reduced.kind == raw.kind
    assert _within(reduced.vertices, raw.vertices, tol)
    assert _within(raw.vertices, reduced.vertices, tol)


# --- vertices against the exact pairwise enumeration ----------------------------------

def _exact_vertices(s, tol):
    """Every meet of two rows that satisfies all rows exactly, in row-pair
    order, dropping one within tol of a meet already kept: a pairwise search
    in rational arithmetic, independent of the half-plane intersection."""
    rows, pts = _exact(s.rows), []
    for i, (a1, b1, c1) in enumerate(rows):
        for a2, b2, c2 in rows[i + 1:]:
            det = a1 * b2 - b1 * a2
            if det:
                x, y = (c1 * b2 - b1 * c2) / det, (a1 * c2 - c1 * a2) / det
                if all(a * x + b * y <= c for a, b, c in rows) and not _within([(x, y)], pts, tol):
                    pts.append((x, y))
    return pts


@st.composite
def boxed_systems(draw):
    """Rows with normal entries up to 2**20, each line about -1 to 2 from the
    origin, inside the box |x|, |y| <= 2: bounded, so vertices2d answers."""
    entry = st.one_of(st.integers(-3, 3), st.integers(-(1 << 20), 1 << 20))
    rows = [make_row((a, b), (abs(a) + abs(b)) * draw(st.floats(-1.0, 2.0)), f"r{i}")
            for i, (a, b) in enumerate(draw(st.lists(st.tuples(entry, entry), min_size=1,
                                                     max_size=6)))]
    box = [make_row(c, 2.0, f"box{k}") for k, c in enumerate(((1, 0), (0, 1), (-1, 0), (0, -1)))]
    return system(VARS, draw(st.permutations(rows + box)))


@SETTINGS
@given(boxed_systems())
def test_vertices_match_the_exact_pairwise_enumeration(s):
    for tol in TOLS:
        exact = _exact_vertices(s, tol)
        assume(exact or not lp_feasible(s, tol=tol))  # round-off-empty systems: own tests
        poly = vertices2d(s, tol)
        assert poly.kind == {0: "empty", 1: "point", 2: "segment"}.get(len(exact), "polygon")
        assert _within(poly.vertices, exact, tol + WITNESS_SLACK)
        assert _within(exact, poly.vertices, tol + WITNESS_SLACK)


def test_vertices_keep_the_vertex_a_float_probe_missed():
    # the float meet at the fourth vertex exceeds a row by 1.4e-9, past tol
    s = system(VARS, [make_row((181356, 157847), 224694.85714285713),
                      make_row((1024564, 1030399), 1348169.142857143)] + nonnegativity_rows(VARS))
    exact = _exact_vertices(s, 0.0)
    poly = vertices2d(s)
    assert poly.kind == "polygon" and len(poly.vertices) == len(exact) == 4
    assert _within(poly.vertices, exact, 1e-12) and _within(exact, poly.vertices, 1e-12)


def test_vertices_are_empty_where_the_relaxed_region_is_empty():
    # empty, and empty with every bound raised by tol: not feasible within tol
    s = _rows(((-1, -1), 1.055002500888702e-09), ((-1, 4), -2.7338953912216885e-09),
              ((2, 1), 1.0000018139900395e-09), ((-1, -4), -1.8925459868705807e-09))
    assert not lp_feasible(s, tol=1e-9) and not lp_feasible(s, tol=0.0)
    assert vertices2d(s, 1e-9).kind == "empty"


VERTEX_TOLS = (1e-9, 1e-6)  # at tol 0 a float meet may pass a row by round-off


def _vertices_satisfy_rows(s):
    for tol in VERTEX_TOLS:
        poly = _vertices_or_unbounded(s, tol)
        assert poly is None or all(lp_feasible(s, point=v, tol=tol) for v in poly.vertices)


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_named_shape_vertices_satisfy_every_row(name):
    _vertices_satisfy_rows(SHAPES[name])


@SETTINGS
@given(near_degenerate())
def test_near_degenerate_vertices_satisfy_every_row(s):
    _vertices_satisfy_rows(s)
    _vertices_satisfy_rows(remove_redundant(s, 1e-9))


@pytest.mark.parametrize("form", sorted(FORMS))
def test_rate_pair_vertices_satisfy_every_row(form):
    """Each family's rate-pair projection, raw and reduced, on drawn joints
    and on a uniform-kernel joint (every constant 0 up to round-off)."""
    sizes = binary_sizes(form)
    for index in range(6):
        factors = sample_factors(FORMS[form], sizes, 31, index)
        if index == 0:
            factors[-1] = np.full_like(factors[-1], 0.25)
        d = compose(factors, FORMS[form], sizes)
        for family, fam in _FAMILIES.items():
            if FORMS[form].implies(FORMS[fam.form]):
                raw = ratepair_projection(constants_for(d, family))
                _vertices_satisfy_rows(raw)
                _vertices_satisfy_rows(remove_redundant(raw, 1e-9))


# --- the tol-0 vertex contract ---------------------------------------------------------

def _rounded_exact_meet(v, rows) -> bool:
    """Is v, within ``polytope._meet``'s rounding error, the exact meet of two
    of ``rows`` (exact (a, b, c)) that satisfies every row exactly?  Each float
    coordinate is one difference of two products divided by the determinant,
    so it is off by at most 4 units of 2**-53 of those terms, plus a few of
    the least subnormal where a bound is subnormal."""
    unit, tiny = Fraction(4, 2**53), Fraction(2) ** -1070
    for i, (a1, b1, c1) in enumerate(rows):
        for a2, b2, c2 in rows[i + 1:]:
            det = a1 * b2 - b1 * a2
            if not det:
                continue
            x, y = (c1 * b2 - b1 * c2) / det, (a1 * c2 - c1 * a2) / det
            err_x = unit * (abs(c1 * b2) + abs(b1 * c2)) / abs(det) + tiny
            err_y = unit * (abs(a1 * c2) + abs(c1 * a2)) / abs(det) + tiny
            if abs(Fraction(v[0]) - x) <= err_x and abs(Fraction(v[1]) - y) <= err_y and \
                    all(a * x + b * y <= c for a, b, c in rows):
                return True
    return False


@SETTINGS
@given(st.one_of(systems(max_rows=8), near_degenerate()))
def test_tol_zero_vertices_are_rounded_exact_meets(s):
    """At tol 0 a vertex is the float rounding of an exact vertex: the exact
    rational meet of two rows passes the exact point test, though the float
    one may pass a row by round-off (so the float point test can refuse it)."""
    for t in (s, remove_redundant(s, 0.0)):
        poly = _vertices_or_unbounded(t, 0.0)
        if poly is not None:  # bounded cases only
            rows = _exact(t.rows)
            assert all(_rounded_exact_meet(v, rows) for v in poly.vertices)
