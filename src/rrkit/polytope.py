"""Linear inequality systems over rate variables, with exact coefficients.

Rows are a.r <= b with primitive integer coefficient vectors (gcd 1) and
floating bounds.
Provides Fourier-Motzkin elimination, substitution, feasibility (point or
free), redundancy removal, containment with witness points, and 2-D vertex
enumeration.

Questions about a 2-variable system (free feasibility, containment,
implication, boundedness, vertices) are answered from one exact half-plane
intersection of its rows, built on first use and kept on the immutable
system; redundancy removal adds one more per facet row.  The order of the
intersection's directions and its recession rays depend only on the set of
integer normals, so they are compiled once per set.
Fourier-Motzkin elimination projects systems down to two variables.  Over
any other number of variables every question goes through one probe
(``_outside``: the system with a row's relaxed negation) and one
cheapest-first elimination loop (``find_point``).
Elimination and substitution each run in two steps: an integer plan from the
coefficient vectors alone (which rows combine, with what multipliers, and
each new row's primitive coefficients and scale), then a float step that
applies it to the bounds.  A plan depends only on the coefficient pattern,
so the most recent plans are cached by it (a bounded cache) and a repeated
pattern (a catalogued system's projection, whatever the joint) costs only
the float step.

Coefficient arithmetic is exact integer arithmetic: rational input (floats or
fractions.Fraction) is scaled to primitive integers when a row is built, and
Fraction remains only where a floating bound must be compared exactly.  Every
comparison against the floating bounds uses an absolute tolerance (default
1e-9).
"""

from __future__ import annotations

import functools
import math
import warnings
from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

TOL = 1e-9

Coeffs = tuple[int, ...]


class VariableMismatchError(ValueError):
    """Two systems do not share the same rate-variable space."""


class UnboundedRegionError(ValueError):
    """2-D vertex enumeration was asked for an unbounded region."""


class Halfspace(NamedTuple):
    """One inequality sum_j coeffs[j] * x_j <= bound.

    A named tuple: it compares equal to the plain (coeffs, bound, label).
    """

    coeffs: Coeffs
    bound: float
    label: str = ""

    def is_constant(self) -> bool:
        return not any(self.coeffs)


def _primitive(coeffs) -> tuple[Coeffs, float]:
    """The coefficients scaled to integers with gcd 1 (direction preserved),
    and the float of the exact factor the bound is multiplied by.

    Scaling a bound by the float of the exact factor gives int rows and the
    same rows given as rationals bitwise equal bounds.
    """
    if all(c.__class__ is int for c in coeffs):
        g = math.gcd(*coeffs) or 1
        return tuple(c // g for c in coeffs), 1 / g
    exact = [Fraction(c) for c in coeffs]
    factor = Fraction(math.lcm(*(c.denominator for c in exact)),
                      math.gcd(*(c.numerator for c in exact)) or 1)
    return tuple(int(c * factor) for c in exact), float(factor)


def make_row(coeffs, bound: float, label: str = "") -> Halfspace:
    c, scale = _primitive(tuple(coeffs))
    return Halfspace(c, float(bound) * scale, label)


@dataclass(frozen=True)
class InequalitySystem:
    """An ordered bundle of halfspaces over named rate variables."""

    variables: tuple[str, ...]
    rows: tuple[Halfspace, ...]

    def __post_init__(self):
        for r in self.rows:
            if len(r.coeffs) != len(self.variables):
                raise VariableMismatchError(
                    f"row {r.label!r} has {len(r.coeffs)} coefficients for "
                    f"{len(self.variables)} variables")

    def with_rows(self, rows) -> "InequalitySystem":
        return InequalitySystem(self.variables, tuple(rows))

    def index(self, var: str) -> int:
        try:
            return self.variables.index(var)
        except ValueError:
            raise VariableMismatchError(f"no variable {var!r} in {self.variables}") from None

    @functools.cached_property
    def _lines(self) -> list:
        """A 2-variable system's rows as canonical lines (``_canon``), in order."""
        return [_canon(r.coeffs, r.bound) for r in self.rows]

    @functools.cached_property
    def _plane_region(self) -> "_Region":
        """The half-plane intersection of a 2-variable system's rows, built
        once: every 2-D question about the system reads it."""
        return _region(self._lines)


def system(variables, rows) -> InequalitySystem:
    return InequalitySystem(tuple(variables), tuple(rows))


def nonnegativity_rows(variables, subset=None) -> list[Halfspace]:
    """-x <= 0 rows for each variable in subset (default all)."""
    return [Halfspace(tuple(-1 if j == i else 0 for j in range(len(variables))), 0.0, f"{v}>=0")
            for i, v in enumerate(variables) if subset is None or v in subset]


def _merge_duplicates(rows) -> list[Halfspace]:
    """Keep one row per coefficient vector (tightest bound wins); drop vacuous."""
    best: dict[Coeffs, Halfspace] = {}  # a replaced row keeps its first place
    for r in rows:
        if r.is_constant() and r.bound >= 0.0:
            continue
        old = best.get(r.coeffs)
        if old is None or r.bound < old.bound:
            best[r.coeffs] = r
    return list(best.values())


_PLANS = 128  # elimination and substitution plans kept per kind; probe
             # systems and user systems are arbitrary, so the caches are bounded


@functools.lru_cache(maxsize=_PLANS)
def _fm_plan(coeff_rows: tuple, k: int) -> tuple[tuple, tuple]:
    """The integer work of eliminating variable ``k`` from rows with these
    coefficient vectors, in the order ``fm_eliminate`` emits its rows.

    Returns (kept, pairs).  A kept row (i, coeffs, scale) is row i without
    variable k; a pair (i, j, mi, mj, coeffs, scale) adds mi times upper
    bound row i to mj times lower bound row j.  ``scale`` is the factor
    ``_primitive`` gives for the new coefficients.
    """
    drop = lambda cs: cs[:k] + cs[k + 1:]
    uppers, lowers, kept = [], [], []
    for i, cs in enumerate(coeff_rows):
        c = cs[k]
        if c > 0:
            uppers.append(i)
        elif c < 0:
            lowers.append(i)
        else:
            kept.append((i, *_primitive(drop(cs))))
    pairs = []
    for i in uppers:
        up = coeff_rows[i]
        cu = up[k]
        for j in lowers:
            lo = coeff_rows[j]
            cl = -lo[k]
            coeffs = tuple(cl * a + cu * b for a, b in zip(drop(up), drop(lo)))
            pairs.append((i, j, float(cl), float(cu), *_primitive(coeffs)))
    return tuple(kept), tuple(pairs)


def fm_eliminate(sys: InequalitySystem, var: str) -> InequalitySystem:
    """Project ``var`` out by pairing each upper bound with each lower bound;
    equal coefficient vectors keep the tightest bound, vacuous rows go."""
    if var not in sys.variables:
        warnings.warn(f"variable {var!r} not in system; elimination is the identity")
        return sys
    k = sys.index(var)
    rows = sys.rows
    kept, pairs = _fm_plan(tuple(r.coeffs for r in rows), k)
    out = [Halfspace(coeffs, rows[i].bound * scale, rows[i].label)
           for i, coeffs, scale in kept]
    for i, j, mi, mj, coeffs, scale in pairs:
        up, lo = rows[i], rows[j]
        out.append(Halfspace(coeffs, (mi * up.bound + mj * lo.bound) * scale,
                             f"fm:{{{up.label}+{lo.label}}}"))
    return InequalitySystem(sys.variables[:k] + sys.variables[k + 1:],
                            tuple(_merge_duplicates(out)))


@functools.lru_cache(maxsize=_PLANS)
def _substitution_plan(variables: tuple, coeff_rows: tuple, k: int, expr: tuple):
    """The integer work of ``substitute`` for variable ``k`` and the items
    ``expr`` of its expression: the new variables and (coeffs, scale) per row."""
    var = variables[k]
    new_vars = list(variables[:k] + variables[k + 1:])
    for v, _ in expr:
        if v not in new_vars:
            new_vars.append(v)
    plan = []
    for cs in coeff_rows:
        c = cs[k]
        out = {v: cs[i] for i, v in enumerate(variables) if v != var}
        for v, e in expr:
            out[v] = out.get(v, 0) + c * e
        plan.append(_primitive(tuple(out.get(v, 0) for v in new_vars)))
    return tuple(new_vars), tuple(plan)


def substitute(sys: InequalitySystem, var: str, expr: dict) -> InequalitySystem:
    """Rewrite every row with ``var := sum expr[v] * v`` (exact, row by row).

    ``expr`` values are ints or exact rationals; each rewritten row is scaled
    to primitive integers.  New variables named in ``expr`` are appended to
    the system in order.
    """
    new_vars, plan = _substitution_plan(sys.variables, tuple(r.coeffs for r in sys.rows),
                                        sys.index(var), tuple(expr.items()))
    return InequalitySystem(new_vars, tuple(Halfspace(coeffs, r.bound * scale, r.label)
                                            for (coeffs, scale), r in zip(plan, sys.rows)))


def _infeasible_constant(rows, tol: float) -> bool:
    return any(r.is_constant() and r.bound < -tol for r in rows)


def _greedy_order(sys: InequalitySystem) -> list[str]:
    """Cheapest-first elimination order (fewest upper*lower pairings)."""
    pairs = [sum(r.coeffs[k] > 0 for r in sys.rows) * sum(r.coeffs[k] < 0 for r in sys.rows)
             for k in range(len(sys.variables))]
    return [sys.variables[k] for k in sorted(range(len(pairs)), key=pairs.__getitem__)]


def lp_feasible(sys: InequalitySystem, point=None, tol: float = TOL) -> bool:
    """Point given: every row satisfied within tol.  No point: any solution?

    Free feasibility of a 2-variable system comes from its half-plane
    intersection; any other system is decided by ``find_point``.  The
    intersection is exact, so at tol 0 it decides alone; a 2-variable system
    it finds empty can still pass elimination's tol-relaxed constant test.
    """
    if point is not None:
        if len(point) != len(sys.variables):
            raise VariableMismatchError(
                f"point has {len(point)} entries for {len(sys.variables)} variables")
        return all(
            sum(float(c) * x for c, x in zip(r.coeffs, point)) <= r.bound + tol
            for r in sys.rows)
    if len(sys.variables) != 2:
        return find_point(sys, tol) is not None
    if sys._plane_region.edges and tol >= 0:
        return True
    return tol != 0 and find_point(sys, tol) is not None


def find_point(sys: InequalitySystem, tol: float = TOL):
    """A point within tol of every row (list of floats, variable order) or None.

    Eliminates the variables cheapest first (``_greedy_order``), giving up as
    soon as a constant row is below -tol, then back-substitutes, last
    eliminated first: each variable takes the midpoint of its interval, or
    sits 1 inside a half-line, or 0 on a free line.
    """
    if _infeasible_constant(sys.rows, tol):
        return None
    stages = []
    cur = sys
    for var in _greedy_order(sys):
        stages.append((var, cur))
        cur = fm_eliminate(cur, var)
        if _infeasible_constant(cur.rows, tol):
            return None
    point: dict[str, float] = {}
    for var, pre in reversed(stages):
        k = pre.index(var)
        lo, hi = -math.inf, math.inf
        for r in pre.rows:
            c = r.coeffs[k]
            if c == 0:
                continue
            partial = sum(float(a) * point[v]
                          for v, a in zip(pre.variables, r.coeffs) if a and v != var)
            limit = (r.bound - partial) / float(c)
            if c > 0:
                hi = min(hi, limit)
            else:
                lo = max(lo, limit)
        if lo == -math.inf and hi == math.inf:
            point[var] = 0.0
        elif lo == -math.inf:
            point[var] = hi - 1.0
        elif hi == math.inf:
            point[var] = lo + 1.0
        else:
            point[var] = (lo + hi) / 2.0
    return [point[v] for v in sys.variables]


def _outside(sys: InequalitySystem, row: Halfspace, tol: float):
    """A point of sys whose left side of ``row`` reaches ``row.bound + tol``,
    or None.  Over 2 variables it is read off the half-plane intersection;
    otherwise it is ``find_point`` of sys and the row's relaxed negation."""
    if len(sys.variables) == 2 == len(row.coeffs):
        return _reach(sys._plane_region, row.coeffs, row.bound + tol)
    negation = Halfspace(tuple(-c for c in row.coeffs), -(row.bound + tol), f"not:{row.label}")
    return find_point(sys.with_rows(sys.rows + (negation,)), tol=0.0)


def implies(sys: InequalitySystem, row: Halfspace, tol: float = TOL) -> bool:
    """Does every solution of sys satisfy the row (within tol slack)?"""
    return _outside(sys, row, tol) is None


def contains(outer: InequalitySystem, inner: InequalitySystem, tol: float = TOL):
    """(True, None) if inner's solution set lies inside outer's.

    On failure returns (False, witness) with a point feasible for inner that
    violates some outer row by at least tol; over 2 variables it is the inner
    vertex maximising that row.
    """
    if outer.variables != inner.variables:
        raise VariableMismatchError(
            f"systems over different variables: {outer.variables} vs {inner.variables}")
    for row in outer.rows:
        witness = _outside(inner, row, tol)
        if witness is not None:
            return False, witness
    return True, None


def remove_redundant(sys: InequalitySystem, tol: float = TOL) -> InequalitySystem:
    """Minimal subsystem with the same solution set (input order preserved).

    Rows are visited in order.  A row is dropped iff the remaining rows are
    infeasible or keep its left side below ``bound + tol``, i.e. the rest
    already imply it.  That is decided exactly (threshold 0) so the slack is
    not cancelled by a feasibility tolerance.

    A system that is empty but feasible within tol (a point or segment that
    round-off pushed just past empty) is reduced as if every bound were tol
    larger.  Otherwise rows would be dropped only because the rest is empty,
    and what is kept could be unbounded.  Kept rows keep their own bounds.
    """
    work = sys
    if tol > 0 and not lp_feasible(sys, tol=0.0) and lp_feasible(sys, tol=tol):
        work = sys.with_rows(Halfspace(r.coeffs, r.bound + tol, r.label) for r in sys.rows)
    keep = _greedy_2d(work, tol) if len(sys.variables) == 2 else _greedy_fm(work, tol)
    return sys.with_rows(sys.rows[k] for k in keep)


def _greedy_fm(sys: InequalitySystem, tol: float) -> list[int]:
    """Indices of the rows remove_redundant keeps, by ``implies``."""
    alive = list(range(len(sys.rows)))
    i = 0
    while i < len(alive):
        trial = alive[:i] + alive[i + 1:]
        if implies(sys.with_rows(sys.rows[k] for k in trial), sys.rows[alive[i]], tol):
            alive = trial
        else:
            i += 1
    return alive


# --- 2-variable systems: one exact half-plane intersection -------------------
#
# Each row becomes a line (p, q, beta): a primitive integer normal and its
# bound scaled by the same positive factor, so the half-plane is unchanged.
# Orientation tests are integer cross products.  Bounds enter decisions only
# through _side, which trusts floating point where its error bound settles the
# sign and otherwise redoes the sum exactly, reading each bound as the exact
# binary fraction it stores.  Float vertex coordinates only rank candidate
# vertices and skip those a proven error bound puts below a threshold.

_BOX = ((1, 0), (0, 1), (-1, 0), (0, -1))
_ANGLE_PLANS = 256  # normal sets whose angle plan is kept; greedy subsets
                    # and user systems are arbitrary, so the cache is bounded
_SMALL = 1 << 20  # |p|, |q| below this: products of cross products with
                  # float bounds round only once


def _canon(coeffs, bound) -> tuple:
    """The row as (p, q, beta) with gcd(p, q) = 1; (0, 0, bound) if constant."""
    p, q = coeffs
    bound = float(bound)
    scale = 1
    if p.__class__ is not int or q.__class__ is not int:  # rationals given directly
        scale = math.lcm(p.denominator, q.denominator)
        p, q = int(p * scale), int(q * scale)
    g = math.gcd(p, q)
    if g == 0:
        return 0, 0, bound
    if g == 1 and scale == 1 and abs(p) < _SMALL > abs(q):
        return p, q, bound
    return p // g, q // g, Fraction(bound) * scale / g


def _cross(a, b) -> int:
    return a[0] * b[1] - a[1] * b[0]


def _side(k, i, j) -> int:
    """Sign of p*x + q*y - beta of line k at the meet of lines i and j."""
    pi, qi, bi = i
    pj, qj, bj = j
    pk, qk, bk = k
    cross_kj = pk * qj - qk * pj
    cross_ik = pi * qk - qi * pk
    det = pi * qj - qi * pj
    if bi.__class__ is float is bj.__class__ is bk.__class__:
        t1, t2, t3 = bi * cross_kj, bj * cross_ik, bk * det
        s = t1 + t2 - t3
        err = 1e-15 * (abs(t1) + abs(t2) + abs(t3))
        if abs(s) > err + 1e-300 or not (t1 or t2 or t3):
            return ((s > 0) - (s < 0)) * (1 if det > 0 else -1)
    s = Fraction(bi) * cross_kj + Fraction(bj) * cross_ik - Fraction(bk) * det
    return ((s > 0) - (s < 0)) * (1 if det > 0 else -1)


def _meet(i, j) -> tuple[float, float]:
    pi, qi, bi = i
    pj, qj, bj = j
    det = pi * qj - qi * pj
    return float(bi * qj - qi * bj) / det + 0.0, float(pi * bj - bi * pj) / det + 0.0


def _by_angle(dirs) -> list:
    """Integer directions sorted counterclockwise from angle 0, exactly."""
    lower = lambda d: d[1] < 0 or (d[1] == 0 and d[0] < 0)
    order = lambda a, b: (lower(a) - lower(b)) or -_cross(a, b)
    return sorted(dirs, key=functools.cmp_to_key(order))


def _rays(dirs) -> list:
    """Generators of the cone {d : n.d <= 0 for every normal n in dirs}.

    ``dirs`` are distinct and sorted by angle.  Where the turn from one
    normal to the next is pi or more, the cone opens into that gap, with its
    edges at right angles to those two normals.
    """
    if len(dirs) < 2:
        return [(-q, p) for p, q in dirs] + [(q, -p) for p, q in dirs] + \
            ([(-p, -q) for p, q in dirs] or list(_BOX))
    out = []
    for n, m in zip(dirs, dirs[1:] + dirs[:1]):
        turn = _cross(n, m)
        if turn < 0 or (turn == 0 and n[0] * m[0] + n[1] * m[1] < 0):
            out += [(-n[1], n[0]), (m[1], -m[0])]
    return out


def _intersect(lines) -> list:
    """Edge lines of the intersection, counterclockwise, or [] when empty.

    ``lines`` has one line per direction, sorted by angle, with every gap
    between neighbours below pi (the box sides see to that).  Preparata and
    Shamos' sort-by-angle intersection with a double-ended queue.
    """
    dq: deque = deque()
    for h in lines:
        while len(dq) > 1 and _side(h, dq[-2], dq[-1]) > 0:
            dq.pop()
        while len(dq) > 1 and _side(h, dq[0], dq[1]) > 0:
            dq.popleft()
        if dq and _cross(dq[-1], h) <= 0:
            return []
        dq.append(h)
    while len(dq) > 2 and _side(dq[0], dq[-2], dq[-1]) > 0:
        dq.pop()
    while len(dq) > 2 and _side(dq[-1], dq[0], dq[1]) > 0:
        dq.popleft()
    if len(dq) < 3 or _cross(dq[-1], dq[0]) <= 0:
        return []
    return list(dq)


class _Region(NamedTuple):
    edges: list   # edge lines counterclockwise, box sides included; [] if empty
    points: list  # points[t]: float meet of edges[t] and edges[t + 1]
    facets: set   # edge lines whose edge has positive length
    rays: tuple   # integer generators of the recession cone; () if bounded
    err: float    # float error of p*x + q*y at a point, per unit of |p| + |q|


# The region of rows that keep a constant row 0 <= beta < 0, for
# _greedy_2d's probes (recession rays are left out; nothing reads them there).
_EMPTY = _Region([], [], set(), (), 0.0)


@functools.lru_cache(maxsize=_ANGLE_PLANS)
def _angle_plan(real: frozenset) -> tuple[tuple, tuple, int]:
    """The integer part of ``_region`` for the normals ``real``: every
    direction (box sides included) sorted by angle, the recession rays, and
    the largest normal entry."""
    dirs = _by_angle(real.union(_BOX))
    rays = tuple(_rays([d for d in dirs if d in real]))
    return tuple(dirs), rays, max((max(abs(p), abs(q)) for p, q in real), default=1)


def _region(lines) -> _Region:
    """Intersect lines (p, q, beta) once, inside a box too large to cut a vertex.

    Any vertex solves two rows with integer normals, so its coordinates are
    at most 2 * max|p, q| * max|beta|; the box sides sit at twice that.  A
    region with recession directions is unbounded, and its box vertices are
    real points of it.
    """
    tight: dict = {}
    consistent = True
    for p, q, beta in lines:
        if p == 0 == q:
            consistent = consistent and beta >= 0
        elif beta < tight.get((p, q), math.inf):
            tight[(p, q)] = beta
    dirs, rays, big = _angle_plan(frozenset(tight))
    side = 4.0 * big * max((abs(float(b)) for b in tight.values()), default=0.0) + 1.0
    edges = (_intersect([(p, q, tight.get((p, q), side)) for p, q in dirs])
             if consistent else [])
    # An edge has positive length iff its first vertex is strictly inside the
    # next edge line; _intersect leaves no vertex outside it.
    facets = {e for t, e in enumerate(edges)
              if _side(edges[(t + 1) % len(edges)], edges[t - 1], e) < 0}
    points = [_meet(e, edges[(t + 1) % len(edges)]) for t, e in enumerate(edges)]
    return _Region(edges, points, facets, rays, 1e-14 * big * side)


def _reach(region: _Region, coeffs, bound: float):
    """A point [x, y] of the region with coeffs.(x, y) >= bound, or None.

    Decided exactly.  The point is the vertex maximising coeffs.(x, y), or,
    when the region is unbounded that way, a vertex moved along the ray.
    """
    if not region.edges:
        return None
    p, q, t = _canon(coeffs, bound)
    points = region.points
    for dx, dy in region.rays:
        gain = p * dx + q * dy
        if gain > 0:
            x, y = points[0]
            step = max(0.0, float(t - (p * x + q * y)) / gain) + 1.0
            return [x + step * dx, y + step * dy]
    if p == 0 == q:
        return list(points[0]) if t <= 0 else None
    values = [p * x + q * y for x, y in points]
    floor = t - (abs(p) + abs(q)) * region.err
    edges, k = region.edges, len(points)
    for i in sorted(range(k), key=values.__getitem__, reverse=True):
        if values[i] < floor:
            break
        if _side((p, q, t), edges[i], edges[(i + 1) % k]) >= 0:
            return list(points[i])
    return None


def _greedy_2d(sys: InequalitySystem, tol: float) -> list[int]:
    """remove_redundant's greedy rule from one intersection per facet row.

    Starts from the system's own region.  While the region of the remaining
    rows is full-dimensional, dropping a row that is not the only copy of one
    of its facets leaves the region as it is, so only those facet rows need
    the rest intersected again.  While the rest keeps a constant row
    0 <= beta with beta < 0, it is empty without an intersection.
    """
    rows, region, lines = sys.rows, sys._plane_region, sys._lines
    copies = Counter(lines)
    contradiction = [p == 0 == q and beta < 0 for p, q, beta in lines]
    contradictions = sum(contradiction)  # among the remaining rows
    alive = list(range(len(rows)))
    i = 0
    while i < len(alive):
        j = alive[i]
        rest = alive[:i] + alive[i + 1:]
        if contradictions > contradiction[j]:
            sub = _EMPTY
        elif len(region.facets) >= 3 and (
                lines[j] not in region.facets or copies[lines[j]] > 1):
            sub = region
        else:
            sub = _region([lines[k] for k in rest])
        if _reach(sub, rows[j].coeffs, rows[j].bound + tol) is None:
            alive, region = rest, sub
            copies[lines[j]] -= 1
            contradictions -= contradiction[j]
        else:
            i += 1
    return alive


@dataclass(frozen=True)
class Polytope2D:
    """Counterclockwise vertex list of a bounded 2-D region."""

    vertices: tuple[tuple[float, float], ...]
    kind: str  # empty | point | segment | polygon


def vertices2d(sys: InequalitySystem, tol: float = TOL) -> Polytope2D:
    """Enumerate vertices of a bounded 2-variable system, counterclockwise."""
    if len(sys.variables) != 2:
        raise VariableMismatchError(f"vertices2d needs 2 variables, got {sys.variables}")
    if not lp_feasible(sys, tol=tol):
        return Polytope2D((), "empty")
    if sys._plane_region.rays:
        raise UnboundedRegionError("region is unbounded; cannot enumerate vertices")
    pts: list[tuple[float, float]] = []
    rows = sys.rows
    for i in range(len(rows)):
        (a1, a2), b1 = rows[i].coeffs, rows[i].bound
        for j in range(i + 1, len(rows)):
            (c1, c2), b2 = rows[j].coeffs, rows[j].bound
            det = a1 * c2 - a2 * c1
            if det == 0:
                continue
            x = (b1 * float(c2) - float(a2) * b2) / float(det) + 0.0
            y = (float(a1) * b2 - b1 * float(c1)) / float(det) + 0.0
            if lp_feasible(sys, point=(x, y), tol=tol):
                if not any(abs(x - p) <= tol and abs(y - q) <= tol for p, q in pts):
                    pts.append((x, y))
    if not pts:
        return Polytope2D((), "empty")
    if len(pts) == 1:
        return Polytope2D(tuple(pts), "point")
    cx = sum(p for p, _ in pts) / len(pts)
    cy = sum(q for _, q in pts) / len(pts)
    pts.sort(key=lambda p: math.atan2(p[1] - cy, p[0] - cx))
    kind = "segment" if len(pts) == 2 else "polygon"
    return Polytope2D(tuple(pts), kind)


def convex_hull(points) -> list[tuple[float, float]]:
    """Andrew monotone chain; counterclockwise, no repeated endpoint."""
    pts = sorted(set((float(x), float(y)) for x, y in points))
    if len(pts) <= 2:
        return pts
    cross = lambda o, a, b: (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])
    lower: list[tuple[float, float]] = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[tuple[float, float]] = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]
