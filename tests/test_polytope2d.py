"""Differential and property tests for the 2-variable polytope path.

Over two variables, contains, implies, remove_redundant and free
lp_feasible answer from one half-plane intersection.  The reference is the
Fourier-Motzkin path on the same system lifted to three variables with
z <= 0 and -z <= 0, which never takes the 2-D route.

A small exact oracle (rational arithmetic over the float bounds, brute-force
vertices) measures how close each decision is to its threshold.  Draws with
a decision within MARGIN_BAND of it are skipped, as criterion 7 skips points
within FACET_BAND of a facet; exact ties are kept and pinned to the
reference's answer.
"""

import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rrkit.polytope import (_ANGLE_PLANS, Halfspace, UnboundedRegionError, _angle_plan,
                            contains, implies, lp_feasible, make_row, nonnegativity_rows,
                            remove_redundant, system, vertices2d)
from rrkit.verify import run_check

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
    """The same region in (x, y, z) with z pinned to 0: always the FM path."""
    outer = lifted_outer(s)
    return outer.with_rows(outer.rows + (make_row((0, 0, 1), 0.0, "z<=0"),
                                         make_row((0, 0, -1), 0.0, "z>=0")))


# --- differential properties ------------------------------------------------------

@SETTINGS
@given(systems(max_rows=8))
def test_free_feasibility_agrees_with_fm(s):
    assume(_margin(_exact(s.rows)) != "near")
    for tol in TOLS:
        assert lp_feasible(s, tol=tol) == lp_feasible(lifted(s), tol=tol)


@SETTINGS
@given(systems(), systems(max_rows=4))
def test_implies_agrees_with_fm(s, other):
    for tol in TOLS:
        for row in other.rows:
            if _margin(_probe(_exact(s.rows), row, tol)) == "near":
                continue
            assert implies(s, row, tol) == implies(lifted(s), lift_row(row), tol)


@SETTINGS
@given(systems(max_rows=4), systems())
def test_contains_agrees_with_fm_and_witness_violates(outer, inner):
    base = _exact(inner.rows)
    for tol in TOLS:
        assume(all(_margin(_probe(base, row, tol)) != "near" for row in outer.rows))
        ok, witness = contains(outer, inner, tol)
        assert ok == contains(lifted_outer(outer), lifted(inner), tol)[0]
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
    """Over three variables the witness is find_point's point of the probe:
    inside inner within tol, and past the first outer row inner does not
    imply by at least tol."""
    big_outer, big_inner = lifted_outer(outer), lifted(inner)
    for tol in TOLS:
        ok, witness = contains(big_outer, big_inner, tol)
        if ok:
            assert witness is None
            continue
        assert len(witness) == 3
        assert lp_feasible(big_inner, point=witness, tol=tol + WITNESS_SLACK)
        row = next(r for r in big_outer.rows if not implies(big_inner, r, tol))
        assert sum(float(c) * v for c, v in zip(row.coeffs, witness)) \
            >= row.bound + tol - WITNESS_SLACK


def _exact_greedy_is_clear(s, tol) -> bool:
    """No decision along the exact greedy path is within MARGIN_BAND (ties allowed)."""
    alive = list(s.rows)
    i = 0
    while i < len(alive):
        rest = alive[:i] + alive[i + 1:]
        probe = _probe(_exact(rest), alive[i], tol)
        if _margin(probe) == "near":
            return False
        if _nonempty(probe):
            i += 1
        else:
            alive = rest
    return True


@SETTINGS
@given(systems(max_rows=8))
def test_remove_redundant_agrees_with_fm(s):
    for tol in TOLS:
        if not _exact_greedy_is_clear(s, tol):
            continue
        kept = [r.label for r in remove_redundant(s, tol).rows]
        reference = [r.label for r in remove_redundant(lifted(s), tol).rows
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
        if not _exact_greedy_is_clear(s, tol):
            continue
        kept = [r.label for r in remove_redundant(s, tol).rows]
        reference = [r.label for r in remove_redundant(lifted(s), tol).rows
                     if not r.label.startswith("z")]
        assert kept == reference


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
    assert "_plane_region" in vars(s)
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
        assert lp_feasible(s, tol=tol) == lp_feasible(ref, tol=tol)
        for row in PROBES:
            assert implies(s, row, tol) == implies(ref, lift_row(row), tol)
        for other in SHAPES.values():
            assert contains(other, s, tol)[0] == contains(lifted_outer(other), ref, tol)[0]
            assert contains(s, other, tol)[0] == contains(lifted_outer(s), lifted(other), tol)[0]
        assert [r.label for r in remove_redundant(s, tol).rows] == \
            [r.label for r in remove_redundant(ref, tol).rows if not r.label.startswith("z")]


def test_named_shapes_have_the_expected_kind():
    assert not lp_feasible(SHAPES["empty"], tol=0.0)
    assert not lp_feasible(SHAPES["empty-by-1e-17"], tol=0.0)
    assert lp_feasible(SHAPES["empty-by-1e-17"], tol=1e-9)  # FM's relaxed test
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
        [r.label for r in remove_redundant(lifted(raw), 1e-9).rows if not r.label.startswith("z")]


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
