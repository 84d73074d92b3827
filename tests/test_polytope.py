import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fm_oracle as fm
from conftest import fields as _fields
from rrkit.polytope import (Halfspace, InequalitySystem, UnboundedRegionError,
                            VariableMismatchError, contains, convex_hull,
                            fm_eliminate, implies,
                            lp_feasible, make_row, nonnegativity_rows,
                            remove_redundant, substitute, system,
                            vertices2d)
from rrkit.polytope import _built, _fm_plan, _primitive, _substitution_plan


def rows_of(variables, *triples):
    return system(variables, [make_row(c, b, label) for c, b, label in triples])


def in_plane(*triples):
    """Rows over x alone, given to the system over (x, y) with y's coefficient 0."""
    return rows_of(("x", "y"), *((c + (0,), b, label) for c, b, label in triples))


def test_fm_single_pairing():
    s = rows_of(("T", "R"), ((1, 0), 2.0, "cap"), ((-1, 1), 1.0, "link"),
                ((-1, 0), 0.0, "nonneg"))
    out = fm_eliminate(s, "T")
    assert out.variables == ("R",)
    assert len(out.rows) == 1
    assert out.rows[0].coeffs == (Fraction(1),)
    assert out.rows[0].bound == pytest.approx(3.0)


def test_fm_absent_variable_is_refused():
    s = rows_of(("R",), ((1,), 1.0, "cap"))
    with pytest.raises(VariableMismatchError, match="no variable 'T1'"):
        fm_eliminate(s, "T1")


def test_fm_merges_duplicate_rows():
    s = rows_of(("T", "R"), ((1, 0), 1.0, "a"), ((1, 0), 2.0, "b"),
                ((-1, 1), 0.0, "c"))
    out = fm_eliminate(s, "T")
    # both pairings give R <= bound; tightest survives
    assert len(out.rows) == 1
    assert out.rows[0].bound == pytest.approx(1.0)


def test_fm_order_insensitive_solution_set():
    rng = np.random.default_rng(4)
    for _ in range(20):
        rows = []
        for i in range(8):
            coeffs = rng.integers(-2, 3, size=3)
            rows.append(make_row(coeffs, float(rng.uniform(-0.5, 2.0)), f"r{i}"))
        rows += nonnegativity_rows(("a", "b", "c"))
        s = system(("a", "b", "c"), rows)
        ab = fm_eliminate(fm_eliminate(s, "a"), "b")
        ba = fm_eliminate(fm_eliminate(s, "b"), "a")
        assert fm.contains(ab, ba) and fm.contains(ba, ab)


def test_substitute_rewrites_rows():
    s = rows_of(("S1", "T1"), ((1, 0), 0.5, "13-1"))
    out = substitute(s, "S1", {"R1": Fraction(1), "T1": Fraction(-1)})
    assert set(out.variables) == {"T1", "R1"}
    r = out.rows[0]
    got = dict(zip(out.variables, r.coeffs))
    assert got == {"R1": Fraction(1), "T1": Fraction(-1)}
    assert r.bound == pytest.approx(0.5)


def test_substitute_identity_unchanged():
    s = rows_of(("S1", "T1"), ((1, 1), 0.5, "x"))
    out = substitute(s, "S1", {"S1": Fraction(1)})
    assert [dict(zip(out.variables, r.coeffs)) for r in out.rows] == \
        [dict(zip(s.variables, r.coeffs)) for r in s.rows]


def test_substitute_sign_flip_on_nonnegativity():
    s = system(("S2", "T2"), nonnegativity_rows(("S2", "T2"))[:1])  # S2 >= 0 only
    out = substitute(s, "S2", {"R2": Fraction(1), "T2": Fraction(-1)})
    got = dict(zip(out.variables, out.rows[0].coeffs))
    assert got == {"T2": Fraction(1), "R2": Fraction(-1)}  # T2 <= R2
    assert out.rows[0].bound == 0.0


def test_lp_feasible_point():
    s = rows_of(("x", "y"), ((1, 0), 1.0, "a"), ((0, 1), 1.0, "b"))
    assert lp_feasible(s, point=(0.0, 0.0))
    assert not lp_feasible(s, point=(2.0, 0.0))
    with pytest.raises(VariableMismatchError):
        lp_feasible(s, point=(0.0,))


def test_a_system_refuses_duplicate_variable_names():
    # substituting for one of two x's would turn the other's row x <= 2 into 0 <= 2,
    # and a rate space with a repeated rate would pass a match by variable set
    for variables in (("x", "x"), ("T1", "S1", "T2", "S2", "S2")):
        row = make_row([0] * (len(variables) - 1) + [1], 2.0, "last")
        with pytest.raises(VariableMismatchError, match="duplicate variable names"):
            system(variables, [row])
        with pytest.raises(VariableMismatchError, match="duplicate variable names"):
            InequalitySystem(variables, ())


def test_caller_rows_are_checked_and_rows_built_here_are_not(monkeypatch):
    # two equal systems, so the second keeps no copy the first raised by tol
    s, fresh = (rows_of(("a", "b", "c"), ((1, 1, 0), 2.0, "x"), ((-1, 0, 1), 1.0, "y"),
                        ((0, -1, -1), 0.0, "z")) for _ in range(2))
    for build in (lambda: system(("a",), s.rows), lambda: InequalitySystem(("a", "b"), s.rows),
                  lambda: s.with_rows(s.rows + (make_row((1,), 1.0),))):
        with pytest.raises(VariableMismatchError, match="coefficients for"):
            build()
    asks = (lambda s: fm_eliminate(s, "a"), lambda s: substitute(s, "c", {"a": 1, "d": 2}),
            lambda s: fm_eliminate(fm_eliminate(s, "b"), "a"),
            lambda s: lp_feasible(fm_eliminate(s, "b"), tol=1e-9),
            lambda s: lp_feasible(s, point=(0.5, 0.5, 0.5), tol=1e-9))
    want = [ask(s) for ask in asks]

    def refuse(self):
        raise AssertionError("InequalitySystem.__post_init__ ran")

    monkeypatch.setattr(InequalitySystem, "__post_init__", refuse)
    assert [ask(fresh) for ask in asks] == want


@pytest.mark.parametrize("coeffs", [(2, 2), (Fraction(1, 3), 0), (0.5, 1.0), ("1", "-1"),
                                    (np.int64(1), np.int64(0))],
                         ids=["gcd-2", "third", "floats", "strings", "numpy-ints"])
def test_a_system_and_implies_refuse_a_row_make_row_did_not_scale(coeffs):
    row = Halfspace(coeffs, 1.0, "odd")
    square = rows_of(("x", "y"), ((1, 0), 1.0, "a"), ((0, 1), 1.0, "b"), ((-1, 0), 0.0, "c"),
                     ((0, -1), 0.0, "d"))
    refusal = r"'odd'.*not integers with gcd 1; build it with make_row"
    for ask in (lambda: system(("x", "y"), [row]), lambda: InequalitySystem(("x", "y"), (row,)),
                lambda: square.with_rows(square.rows + (row,)), lambda: implies(square, row)):
        with pytest.raises(ValueError, match=refusal):
            ask()
    scaled = make_row(coeffs, 1.0, "odd")
    assert math.gcd(*scaled.coeffs) == 1 and implies(square, scaled) in (True, False)
    # whole rationals with gcd 1 and the all-zero constant row pass
    ok = system(("x", "y"), [Halfspace((Fraction(1), Fraction(-2)), 1.0), Halfspace((0, 0), -1.0)])
    assert not lp_feasible(ok) and implies(square, Halfspace((Fraction(1), 0), 1.0))


def test_a_system_refuses_a_bound_that_is_not_a_float():
    """A bound just below its float, F with float(F) == 1/3, was read two
    ways: exactly by the duality test, as its float by the intersection.
    Inner x <= F, y <= 1, x, y >= 0 was inside x <= 1/3 at tol 0, and not
    inside (witness (1/3, 1)) once a slack row with a big normal was added;
    implies said it was not.  A system, and implies for its row, refuses
    such a bound; make_row gives its float, and numpy's float64 is one."""
    F = Fraction(1 / 3) - Fraction(1, 10**30)
    assert F < 1 / 3 and float(F) == 1 / 3
    xy = ("x", "y")
    rest = [make_row((0, 1), 1.0, "y<=1"), *nonnegativity_rows(xy)]
    square = system(xy, rest + [make_row((1, 0), 1.0)])
    for bound in (F, 1, np.float32(0.5)):
        odd = Halfspace((1, 0), bound, "x<=F")
        for ask in (lambda: system(xy, [odd, *rest]), lambda: square.with_rows(rest + [odd]),
                    lambda: implies(square, odd)):
            with pytest.raises(ValueError, match=r"'x<=F'.*not a float; build it with make_row"):
                ask()
    outer = system(xy, [make_row((1, 0), 1 / 3, "x<=1/3")])
    slack = make_row((1 << 20, 1), 1e10, "slack")
    for bound in (make_row((1, 0), F).bound, np.float64(1 / 3)):
        inner = system(xy, [Halfspace((1, 0), bound, "x<=F"), *rest])
        for s in (inner, inner.with_rows(inner.rows + (slack,))):
            assert contains(outer, s, 0.0) == (False, [1 / 3, 1.0])
            assert not implies(s, outer.rows[0], 0.0)


def test_make_row_still_scales_rationals_floats_and_strings():
    assert make_row((Fraction(2, 3), -4), 1.0, "q") == Halfspace((1, -6), 1.5, "q")
    assert make_row(["1", "-1"], 2.0, "s") == Halfspace((1, -1), 2.0, "s")
    assert make_row(["1/2", "0.25"], 1.0) == Halfspace((2, 1), 4.0)
    assert make_row((0.5, 1.5), 1.0) == Halfspace((1, 3), 2.0)


def test_subsets_of_checked_rows_skip_the_door(monkeypatch):
    from rrkit import regions
    from rrkit.verify import _draw

    s = rows_of(("x", "y"), ((1, 0), 1.0, "a"), ((1, 0), 2.0, "loose"), ((-1, 0), 0.0, "b"),
                ((0, 1), 1.0, "c"), ((0, -1), 0.0, "d"))
    consts = regions.constants_for(_draw("hod9", 1001, 0)[0], "hod")
    want = (remove_redundant(s), regions.build_system(consts, "thm4-ratepair"))

    def refuse(self):
        raise AssertionError("InequalitySystem.__post_init__ ran")

    monkeypatch.setattr(InequalitySystem, "__post_init__", refuse)
    assert (remove_redundant(s), regions.build_system(consts, "thm4-ratepair")) == want
    assert [r.label for r in want[0].rows] == ["a", "b", "c", "d"]


def test_vertices2d_refuses_a_system_outside_the_plane():
    s = rows_of(("a", "b", "c"), ((1, 0, 0), 1.0, "r"))
    with pytest.raises(VariableMismatchError, match="free questions need 2 variables"):
        vertices2d(s)


def test_lp_feasible_free():
    # 2 <= x <= 1, then 1 <= x <= 2, in the plane; the oracle agrees over x alone
    for (ub, lb), want in (((1.0, -2.0), False), ((2.0, -1.0), True)):
        triples = (((1,), ub, "ub"), ((-1,), lb, "lb"))
        s = in_plane(*triples)
        assert lp_feasible(s) is want
        assert lp_feasible(s, point=(1.5, 0.0)) is want
        assert fm.feasible(rows_of(("x",), *triples)) is want


def test_fm_oracle_checks_the_constant_rows_of_a_zero_variable_system():
    empty = system((), (Halfspace((), -1.0, "0<=-1"),))
    assert not fm.feasible(empty, 0.0) and not fm.feasible(empty)
    assert fm.feasible(empty, 2.0)
    vacuous = system((), (Halfspace((), 1.0, "0<=1"),))
    assert fm.feasible(vacuous, 0.0)
    with pytest.raises(VariableMismatchError):
        lp_feasible(vacuous)


def test_fm_oracle_decides_a_three_variable_system():
    # a triangle in (x, y) with z tied to x + y; every interval is bounded
    s = rows_of(("x", "y", "z"), ((-1, 0, 0), 0.0, "x>=0"), ((0, -1, 0), 0.0, "y>=0"),
                ((1, 1, 0), 1.0, "x+y<=1"), ((1, 1, -1), 0.0, "z>=x+y"),
                ((-1, -1, 1), 0.0, "z<=x+y"))
    assert fm.feasible(s, 0.0) and lp_feasible(s, point=(0.25, 0.5, 0.75), tol=0.0)
    # z reaches 1, so z <= 1 holds with slack tol but not with slack 0
    assert fm.implies(s, make_row((0, 0, 1), 1.0, "z<=1"), 1e-9)
    assert not fm.implies(s, make_row((0, 0, 1), 1.0, "z<=1"), 0.0)
    assert not fm.implies(s, make_row((0, 0, 1), 0.5, "z<=1/2"), 1e-9)
    assert not fm.feasible(s.with_rows(s.rows + (make_row((0, 0, 1), -0.5, "z<=-1/2"),)), 0.0)


def test_projection_agrees_with_grid_oracle():
    # fine-lattice search over the eliminated variable as an independent oracle
    s = rows_of(("T", "R"),
                ((1, 0), 1.0, "t-cap"),
                ((-1, 1), 1.0, "r-minus-t"),
                ((-1, 0), 0.0, "t-nonneg"),
                ((1, 1), 2.5, "mixed"))
    proj = fm_eliminate(s, "T")
    grid = np.linspace(-0.5, 1.5, 2001)
    rng = np.random.default_rng(7)
    for _ in range(300):
        r = float(rng.uniform(-1.0, 3.5))
        member = lp_feasible(proj, point=(r,))
        slacks = [abs(sum(float(c) * x for c, x in zip(row.coeffs, (r,))) - row.bound)
                  for row in proj.rows]
        if min(slacks) < 1e-3:  # skip the lattice's own resolution band
            continue
        lifted = np.array([lp_feasible(s, point=(t, r)) for t in grid])
        assert member == bool(lifted.any())


def test_remove_redundant_simple():
    triples = (((1,), 1.0, "tight"), ((1,), 2.0, "loose"))
    out = remove_redundant(in_plane(*triples))
    assert [r.label for r in out.rows] == ["tight"]
    assert [r.label for r in fm.remove_redundant(rows_of(("x",), *triples)).rows] == ["tight"]


def test_remove_redundant_duplicates_keep_one():
    s = in_plane(((1,), 1.0, "a"), ((1,), 1.0, "b"), ((-1,), 0.0, "c"))
    out = remove_redundant(s)
    labels = [r.label for r in out.rows]
    assert labels.count("a") + labels.count("b") == 1


def test_remove_redundant_preserves_solution_set():
    rng = np.random.default_rng(11)
    for _ in range(15):
        rows = [make_row(rng.integers(-2, 3, size=2), float(rng.uniform(0.1, 2.0)), f"r{i}")
                for i in range(10)]
        rows += nonnegativity_rows(("x", "y"))
        s = system(("x", "y"), rows)
        red = remove_redundant(s)
        assert contains(s, red)[0] and contains(red, s)[0]


def test_contains_self_and_quarter():
    square = system(("x", "y"), [make_row((1, 0), 1.0, "x"), make_row((0, 1), 1.0, "y")]
                    + nonnegativity_rows(("x", "y")))
    quarter = system(("x", "y"), [make_row((1, 0), 0.5, "x"), make_row((0, 1), 0.5, "y")]
                     + nonnegativity_rows(("x", "y")))
    assert contains(square, square)[0]
    assert contains(square, quarter)[0]
    ok, witness = contains(quarter, square)
    assert not ok
    assert lp_feasible(square, point=witness)
    assert not lp_feasible(quarter, point=witness)


def test_contains_variable_mismatch():
    a = system(("x",), [make_row((1,), 1.0, "a")])
    b = system(("y",), [make_row((1,), 1.0, "b")])
    with pytest.raises(VariableMismatchError):
        contains(a, b)


def test_implies_shared_tight_row():
    s = in_plane(((1,), 1.0, "cap"), ((-1,), 0.0, "lo"))
    assert implies(s, make_row((1, 0), 1.0, "same"))
    assert implies(s, make_row((1, 0), 1.5, "looser"))
    assert not implies(s, make_row((1, 0), 0.5, "tighter"))


@pytest.mark.parametrize("n", [1, 3])
def test_free_questions_refuse_systems_outside_the_plane(n):
    variables = ("x", "y", "z")[:n]
    s = system(variables, [make_row((1,) * n, 1.0, "cap")] + nonnegativity_rows(variables))
    probe = make_row((1,) * n, 2.0, "probe")
    for ask in (lambda: lp_feasible(s), lambda: implies(s, probe), lambda: contains(s, s),
                lambda: remove_redundant(s)):
        with pytest.raises(VariableMismatchError, match="2 variables"):
            ask()
    # the point test still takes any number of variables: x + ... <= 1, x, ... >= 0
    assert lp_feasible(s, point=(0.5 / n,) * n) and not lp_feasible(s, point=(1.5 / n,) * n)
    past_cap = (1 + 5e-10, *(0.0,) * (n - 1))
    assert lp_feasible(s, point=past_cap, tol=1e-9) and not lp_feasible(s, point=past_cap, tol=0.0)


def test_free_questions_refuse_a_row_outside_the_plane():
    s = in_plane(((1,), 1.0, "cap"), ((-1,), 0.0, "lo"))
    wide = make_row((1, 0, 0), 2.0, "x<=2 over (x, y, z)")
    with pytest.raises(VariableMismatchError, match="row of 3 coefficients"):
        implies(s, wide)
    with pytest.raises(VariableMismatchError, match="row of 3 coefficients"):
        contains(_built(s.variables, (wide.coeffs,), [wide.bound], [wide.label]), s)


def test_vertices_unit_square():
    square = system(("R1", "R2"),
                    [make_row((1, 0), 1.0, "a"), make_row((0, 1), 1.0, "b")]
                    + nonnegativity_rows(("R1", "R2")))
    poly = vertices2d(square)
    assert poly.kind == "polygon"
    assert sorted(poly.vertices) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    # counterclockwise: signed area positive
    area = 0.0
    v = poly.vertices
    for i in range(len(v)):
        x1, y1 = v[i]
        x2, y2 = v[(i + 1) % len(v)]
        area += x1 * y2 - x2 * y1
    assert area > 0


def test_vertices_triangle():
    tri = system(("R1", "R2"),
                 [make_row((1, 0), 1.0, "a"), make_row((0, 1), 1.0, "b"),
                  make_row((1, 1), 1.0, "c")] + nonnegativity_rows(("R1", "R2")))
    poly = vertices2d(tri)
    assert sorted(poly.vertices) == [(0, 0), (0, 1), (1, 0)]


def test_vertices_empty_and_point():
    empty = system(("R1", "R2"),
                   [make_row((1, 0), -1.0, "bad")] + nonnegativity_rows(("R1", "R2")))
    assert vertices2d(empty).kind == "empty"
    point = system(("R1", "R2"),
                   [make_row((1, 0), 0.0, "a"), make_row((0, 1), 0.0, "b")]
                   + nonnegativity_rows(("R1", "R2")))
    assert vertices2d(point).kind == "point"


def test_vertices_unbounded_raises():
    s = system(("R1", "R2"),
               [make_row((0, 1), 1.0, "y-only")] + nonnegativity_rows(("R1", "R2")))
    with pytest.raises(UnboundedRegionError):
        vertices2d(s)
    # open only towards -R1, where every recession direction has d1 + d2 <= 0
    s = system(("R1", "R2"), [make_row((1, 0), 1.0, "x<=1"), make_row((0, 1), 1.0, "y<=1"),
                              make_row((0, -1), 0.0, "y>=0")])
    with pytest.raises(UnboundedRegionError):
        vertices2d(s)


def test_convex_hull_basic():
    pts = [(0, 0), (1, 0), (1, 1), (0, 1), (0.5, 0.5), (0.2, 0.9)]
    hull = convex_hull(pts)
    assert sorted(hull) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_coefficients_stay_exact():
    s = rows_of(("a", "b", "c"), ((1, 2, -3), 1.0, "r"), ((-2, 1, 1), 0.5, "s"),
                ((0, -1, 2), 0.25, "t"))
    out = fm_eliminate(s, "a")
    for r in out.rows:
        assert all(type(c) is int for c in r.coeffs)
        assert math.gcd(*r.coeffs) == 1


# --- int and exact-rational input give the same integer rows ------------------

PROPERTY = settings(max_examples=120, deadline=None, derandomize=True)
VARS3 = ("x", "y", "z")
small_int = st.integers(-4, 4)
int_rows = st.lists(st.tuples(st.tuples(small_int, small_int, small_int),
                              st.floats(-10.0, 10.0, allow_nan=False)),
                    min_size=1, max_size=7)
# the same rows divided by the gcd of their coefficients, as a system takes them
primitive_rows = int_rows.map(lambda rows: [
    (tuple(c // (math.gcd(*coeffs) or 1) for c in coeffs), bound) for coeffs, bound in rows])


def as_system(rows, kind):
    return system(VARS3, [Halfspace(tuple(kind(c) for c in coeffs), bound, f"r{i}")
                          for i, (coeffs, bound) in enumerate(rows)])


def assert_same_int_rows(a, b):
    assert a.variables == b.variables
    assert len(a.rows) == len(b.rows)
    for ra, rb in zip(a.rows, b.rows):
        assert ra.coeffs == rb.coeffs and ra.label == rb.label
        assert all(type(c) is int for c in ra.coeffs + rb.coeffs)
        assert float(ra.bound).hex() == float(rb.bound).hex()


def assert_primitive_multiple(row, coeffs):
    """row.coeffs are ints with gcd 1, a positive multiple of coeffs."""
    assert all(type(c) is int for c in row.coeffs)
    assert math.gcd(*row.coeffs) == (1 if any(coeffs) else 0)
    k = next((Fraction(c) / e for c, e in zip(row.coeffs, coeffs) if e), Fraction(1))
    assert k > 0 and all(c == k * e for c, e in zip(row.coeffs, coeffs))


def cold(operation, *args):
    """``operation`` planned from scratch: both plan caches emptied first."""
    _fm_plan.cache_clear()
    _substitution_plan.cache_clear()
    return operation(*args)


@PROPERTY
@given(primitive_rows, st.sampled_from(VARS3))
def test_fm_eliminate_int_and_fraction_input_agree(rows, var):
    assert_same_int_rows(cold(fm_eliminate, as_system(rows, int), var),
                         cold(fm_eliminate, as_system(rows, Fraction), var))


@PROPERTY
@given(primitive_rows, st.sampled_from(VARS3),
       st.dictionaries(st.sampled_from(VARS3 + ("w",)), small_int, min_size=1))
def test_substitute_int_and_fraction_input_agree(rows, var, expr):
    frac_expr = {v: Fraction(e) for v, e in expr.items()}
    assert_same_int_rows(cold(substitute, as_system(rows, int), var, expr),
                         cold(substitute, as_system(rows, Fraction), var, frac_expr))


@PROPERTY
@given(primitive_rows, st.sampled_from(VARS3),
       st.dictionaries(st.sampled_from(VARS3 + ("w",)), small_int, min_size=1))
def test_cached_plans_give_the_rows_of_a_cold_cache(rows, var, expr):
    frac_expr = {v: Fraction(e) for v, e in expr.items()}
    operations = {int: [(fm_eliminate, var), (substitute, var, expr)],
                  Fraction: [(fm_eliminate, var), (substitute, var, frac_expr)]}
    for kind, other in ((int, Fraction), (Fraction, int)):
        s, t = as_system(rows, kind), as_system(rows, other)
        for (operation, *args), (_, *other_args) in zip(operations[kind], operations[other]):
            planned = [_fields(r) for r in cold(operation, s, *args).rows]
            assert [_fields(r) for r in operation(s, *args).rows] == planned
            cold(operation, t, *other_args)  # the cache now holds the other kind's plan
            assert [_fields(r) for r in operation(s, *args).rows] == planned


@PROPERTY
@given(int_rows)
def test_make_row_int_and_fraction_input_agree(rows):
    for coeffs, bound in rows:
        a = make_row(coeffs, bound, "r")
        b = make_row([Fraction(c) for c in coeffs], bound, "r")
        assert_same_int_rows(system(VARS3, [a]), system(VARS3, [b]))
        assert_primitive_multiple(a, coeffs)


rationals = st.fractions(min_value=-4, max_value=4, max_denominator=12)


@PROPERTY
@given(st.lists(st.tuples(st.tuples(rationals, rationals, rationals),
                          st.floats(-10.0, 10.0, allow_nan=False)), min_size=1, max_size=6),
       st.sampled_from(VARS3), st.dictionaries(st.sampled_from(VARS3), rationals, min_size=1))
def test_rational_input_becomes_primitive_ints(rows, var, expr):
    for coeffs, bound in rows:
        assert_primitive_multiple(make_row(coeffs, bound), coeffs)
    s = system(VARS3, [make_row(coeffs, bound, f"r{i}") for i, (coeffs, bound) in enumerate(rows)])
    for out in (fm_eliminate(s, var), substitute(s, var, expr)):
        for r in out.rows:
            assert all(type(c) is int for c in r.coeffs)
            assert math.gcd(*r.coeffs) <= 1


# --- elimination's merge against the reference rule -------------------------

VARS4 = ("w", "x", "y", "z")
MERGE_BOUNDS = st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, -1.0, math.nan, math.inf, -math.inf])


@st.composite
def merge_cases(draw):
    """Rows over 2 to 4 variables with coefficients in [-2, 2], so that
    coefficient vectors repeat and constant rows occur, with bounds that tie
    (signed zeros, NaN and infinities among them); and the variables to
    eliminate, in order."""
    variables = VARS4[:draw(st.integers(2, 4))]
    coeffs = st.just((0,) * len(variables)) | st.tuples(*[st.integers(-2, 2)] * len(variables))
    rows = draw(st.lists(st.tuples(coeffs, MERGE_BOUNDS | st.floats(-2.0, 2.0)),
                         min_size=1, max_size=10))
    order = draw(st.permutations(variables))
    return (system(variables, [make_row(c, b, f"r{i}") for i, (c, b) in enumerate(rows)]),
            tuple(order[:draw(st.integers(1, len(order)))]))


def _eliminated_by_the_reference(s, eliminations):
    """Each elimination in turn, its rows made by ``make_row`` in
    ``fm_eliminate``'s order (kept rows, then each upper row with each
    lower) and merged by the oracle's ``_tightest``."""
    variables, rows = s.variables, list(s.rows)
    for var in eliminations:
        k = variables.index(var)
        drop = lambda cs: cs[:k] + cs[k + 1:]
        out = [make_row(drop(r.coeffs), r.bound, r.label) for r in rows if not r.coeffs[k]]
        out += [make_row([-lo.coeffs[k] * a + up.coeffs[k] * b
                          for a, b in zip(drop(up.coeffs), drop(lo.coeffs))],
                         float(-lo.coeffs[k]) * up.bound + float(up.coeffs[k]) * lo.bound,
                         f"fm:{{{up.label}+{lo.label}}}")
                for up in rows if up.coeffs[k] > 0 for lo in rows if lo.coeffs[k] < 0]
        variables, rows = drop(variables), [out[i] for i in fm._tightest(
            [r.coeffs for r in out], [r.bound for r in out])]
    return variables, rows


@settings(max_examples=400, deadline=None, derandomize=True)
@given(merge_cases())
def test_projection_merges_as_the_reference_rule(case):
    from rrkit.polytope import _project
    s, eliminations = case
    variables, rows = _eliminated_by_the_reference(s, eliminations)
    projected = _project(s, (), eliminations)
    assert projected.variables == variables
    assert [_fields(r) for r in projected.rows] == [_fields(r) for r in rows]


def test_constant_row_handling():
    s = system(("x", "y"), (Halfspace((Fraction(0), Fraction(0)), -1.0, "contradiction"),))
    assert not lp_feasible(s)
    s2 = system(("x", "y"), (Halfspace((Fraction(0), Fraction(0)), 1.0, "vacuous"),
                             Halfspace((Fraction(1), Fraction(0)), 1.0, "cap")))
    assert lp_feasible(s2)


# sha256 of _fields over every ratepair_projection row (193 rows) of the
# draws below, as the frozen-dataclass rows gave them.
PROJECTION_ROWS_SHA256 = "a194345a7a0d743baaef004dac17731f7cb8519d27e041a5fd4215e4aaf9a4f5"


def test_halfspace_contract():
    import hashlib

    from rrkit import regions
    from rrkit.verify import _draw

    r = Halfspace((1, -2), 0.5)
    assert (r.coeffs, r.bound, r.label) == ((1, -2), 0.5, "")
    assert r == ((1, -2), 0.5, "") and Halfspace((1, -2), 0.5, "x") != r
    assert not r.is_constant() and Halfspace((0, 0), -1.0, "c").is_constant()
    for name in ("coeffs", "bound", "label"):
        with pytest.raises(AttributeError):
            setattr(r, name, None)

    assert _fields(make_row((2, 4), 3.0, "a")) == ((1, 2), ["int", "int"], "0x1.8000000000000p+0",
                                                   "float", "a")
    assert _fields(make_row((0.5, 1.5), 1.0)) == ((1, 3), ["int", "int"], "0x1.0000000000000p+1",
                                                  "float", "")
    assert _fields(make_row((Fraction(2, 3), -4), 1.0, "q")) == (
        (1, -6), ["int", "int"], "0x1.8000000000000p+0", "float", "q")
    assert [_fields(r) for r in nonnegativity_rows(("R1", "R2", "S")) if r.label != "R2>=0"] == [
        ((-1, 0, 0), ["int"] * 3, "0x0.0p+0", "float", "R1>=0"),
        ((0, 0, -1), ["int"] * 3, "0x0.0p+0", "float", "S>=0")]

    digest, count = hashlib.sha256(), 0
    for family, form in (("hod", "hod9"), ("dmt", "dmt5"), ("rtd", "rtd7"), ("hod1", "hod12")):
        for seed in (1001, 1002):
            for index in range(3):
                c = regions.constants_for(_draw(form, seed, index)[0], family)
                for row in regions.ratepair_projection(c).rows:
                    assert type(row) is Halfspace
                    digest.update(repr(_fields(row)).encode())
                    count += 1
    assert (count, digest.hexdigest()) == (193, PROJECTION_ROWS_SHA256)


@pytest.mark.parametrize("gs", [range(2, 10_001), [2**53 + 1, 2**60 + 3, 3**40, 10**30 + 7]],
                         ids=["small", "beyond-2**53"])
def test_primitive_scale_is_the_float_of_the_exact_factor(gs):
    for g in gs:
        coeffs, scale = _primitive((g, -2 * g))
        assert coeffs == (1, -2)
        assert scale.hex() == float(Fraction(1, g)).hex()
