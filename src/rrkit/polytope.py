"""Linear inequality systems over rate variables, with exact coefficients.

Rows are a.r <= b with primitive integer coefficient vectors (gcd 1) and
floating bounds.  Provides Fourier-Motzkin elimination, substitution, a point
test, and, over two variables, free feasibility, redundancy removal,
containment with witness points, and vertex enumeration.  Every question
reads a system's columns (coefficient vectors, bounds, labels), which a
user's system takes from its rows; a system made here or in ``regions``
(``_built``) has its columns preset and makes its rows on first read.

Every region the catalogue compares is a rate-pair region, so the free
questions (feasibility without a point, implication, containment,
redundancy removal) are asked of 2-variable systems only: a system over any
other number of variables, or a row with other than 2 coefficients, raises
VariableMismatchError.  Fourier-Motzkin elimination projects a system down
to the plane first.

The integer half of every 2-D question depends only on the rows'
coefficient vectors, so it is compiled once per pattern (``_plane_plan``, a
bounded cache): the rows per normal, the lower-bound rows -x <= b and
-y <= b, the constant rows, whether the system is monotone (normals >= 0 in
both entries, or lower bounds; every catalogued rate-pair system) and the
pairs of normals that bracket each normal; no question changes it.  A
system's maker attaches it
(``regions`` per description, ``_raised`` from its source); any other
system looks it up once.  Every
question reads the bounds one way (``InequalitySystem._read``): as the
float bounds where every normal entry is below ``_SMALL`` and every bound is
finite, else row by row as ``_canon`` does (exact past ``_SMALL``,
UnboundedRegionError at the first bound that is not finite).  Off the plan
and those bounds, with one path per question:
- whether a monotone system's rows meet is read off its lowest corner
  (``InequalitySystem._meets``; at the origin, whether any bound tested
  there is below 0);
- whether rows that meet reach a row's bound + tol is asked of that one
  row (``_outside``): they do not where the tightest row with its normal,
  or the tightest rows of a bracketing pair, keep its left side below it
  (2-D LP duality, ``_kept``), else the half-plane intersection gives the
  point (``_reach``).  ``implies`` is ``_meets`` and then ``_outside`` of
  its row; containment (``contains``) is inner's ``_meets`` and then
  ``_outside`` of each outer row in order, the first point its witness;
- feasibility within tol has one reader (``_relaxed``): the rows, or, where
  they do not meet, their copy with every bound raised by tol;
- redundancy removal (``_greedy_2d``) drops a row iff the rest of the rows
  still alive does not meet or keeps it; while they do not meet, a rest of
  a monotone system is read off its own lowest corner (``_rest_meets``).
The exact half-plane intersection (``_region``) is built only where no
corner or certificate answers: whether a system that is not monotone meets
and, until its rows meet, each rest of it; each rest of a system with a
bound past the intersection's box (``_box_side``), so that it raises where
the rest's tightest bounds are; a row ``_kept`` does not certify, probed
(``_outside``) for ``implies``' answer or ``contains``' witness; and
vertices.  It is built on first use and kept on the immutable system with
whether its rows meet (``_meets``).
A vertex is the meet of two consecutive edges, solved from the system's own
rows; meets are taken in row-pair order and merged within tol.  The order
of the intersection's directions and its recession rays depend only on the
set of integer normals, so they are compiled once per set.

Elimination and substitution run in one loop (``_project``), which also
projects a catalogued system to the rate pair (``regions.project_to_ratepair``).
Each step takes its integer work from a plan built from the coefficient
vectors alone (which rows combine, with what multipliers, each new row's
primitive coefficients and scale, and an elimination's merge: the new rows
grouped by coefficient vector and its constant rows; ``_fm_plan``) and
cached by that pattern (a bounded cache); per call it computes only the
float bounds, keeps each group's first minimum and labels the rows left.

Coefficient arithmetic is exact integer arithmetic.  ``make_row`` scales
rational input (floats, fractions.Fraction, numeric strings) to primitive
integers and a float bound; a system, and ``implies`` for its row, refuses
any other row.  Fraction remains only where a floating bound must be
compared exactly.  Every comparison against the floating bounds uses an
absolute tolerance (default 1e-9; one that is not an int or a float, a
bool, or not finite and >= 0 is refused).  Feasible within tol means the
rows with every bound raised by tol (``_raised``) meet; an empty system
feasible within tol is read as them (``_relaxed``).  Sums of floats (the
point test, a centroid) fold from the left from 0.0 (``_left_sum``), the
same bits on every Python version.
"""

from __future__ import annotations

import bisect
import functools
import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from sys import float_info
from typing import NamedTuple

TOL = 1e-9

Coeffs = tuple[int, ...]


class VariableMismatchError(ValueError):
    """Two systems do not share the same rate-variable space."""


class UnboundedRegionError(ValueError):
    """2-D vertices of an unbounded region, or 2-D bounds past the float range."""


class Halfspace(NamedTuple):
    """One inequality sum_j coeffs[j] * x_j <= bound; equal to the plain (coeffs, bound, label)."""

    coeffs: Coeffs
    bound: float
    label: str = ""

    def is_constant(self) -> bool:
        return not any(self.coeffs)


def _primitive(coeffs) -> tuple[Coeffs, float]:
    """The one normaliser (``make_row``, the plans): the coefficients scaled to
    integers with gcd 1, direction preserved, and the float of the exact factor
    the bound is multiplied by.  Int rows and the same rows given as rationals
    so get bitwise equal bounds."""
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
    """An ordered bundle of halfspaces over named rate variables; a system
    ``_built`` from its columns makes its rows on first read."""

    variables: tuple[str, ...]
    rows: tuple[Halfspace, ...]

    def __post_init__(self):
        if len(set(self.variables)) != len(self.variables):
            raise VariableMismatchError(f"duplicate variable names in {self.variables}")
        for r in self.rows:
            if len(r.coeffs) != len(self.variables):
                raise VariableMismatchError(
                    f"row {r.label!r} has {len(r.coeffs)} coefficients for "
                    f"{len(self.variables)} variables")
            _check_primitive(r)
            _check_bound(r)

    def __getattr__(self, name):
        """The rows of a system ``_built`` from its columns, zipped on first read."""
        if name != "rows":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        rows = self.__dict__["rows"] = tuple(map(Halfspace._make, zip(
            self._coeffs, self._bounds, self._labels)))
        return rows

    def with_rows(self, rows) -> "InequalitySystem":
        return InequalitySystem(self.variables, tuple(rows))

    def index(self, var: str) -> int:
        try:
            return self.variables.index(var)
        except ValueError:
            raise VariableMismatchError(f"no variable {var!r} in {self.variables}") from None

    @functools.cached_property
    def _coeffs(self) -> tuple:
        """The rows' coefficient vectors, in order."""
        return tuple(r.coeffs for r in self.rows)

    @functools.cached_property
    def _bounds(self) -> list:
        """The rows' bounds, in order."""
        return [r.bound for r in self.rows]

    @functools.cached_property
    def _labels(self) -> list:
        """The rows' labels, in order."""
        return [r.label for r in self.rows]

    @functools.cached_property
    def _plan(self) -> "_PlanePlan":
        """A 2-variable system's ``_plane_plan``, unless its maker attached it."""
        return _plane_plan(self._coeffs)

    @functools.cached_property
    def _read(self) -> list:
        """A 2-variable system's bounds as every 2-D question reads them:
        the float bounds where every normal entry is below ``_SMALL`` and
        every bound is finite, else each row's as ``_canon`` reads it."""
        plan, b = self._plan, self._bounds
        total = sum(b)
        if plan.small and total - total == 0:
            return b
        return [_canon(n, x)[2] for n, x in zip(plan.rows, b)]

    @functools.cached_property
    def _mins(self) -> list:
        """A 2-variable system's tightest bound per normal of its plan."""
        b = self._read
        return [min(map(b.__getitem__, rows)) for rows in self._plan.groups]

    @functools.cached_property
    def _lines(self) -> list:
        """A 2-variable system's rows as canonical lines (p, q, beta), in order."""
        return [(*n, beta) for n, beta in zip(self._plan.rows, self._read)]

    @functools.cached_property
    def _meets(self) -> bool:
        """Do a 2-variable system's rows meet?  Where ``_region`` takes a
        monotone system's tightest bounds (``_roomy``) its lowest corner
        answers: every normal is >= 0 in both entries or a lower bound
        (``_LOWER``), so each other row's left side never decreases in
        either variable and the rows meet iff every one holds at the lowest
        corner (``_corner_fails``; a catalogued rate-pair system's is the
        origin).  Else the half-plane intersection answers."""
        plan, b = self._plan, self._read
        if plan.monotone and (_roomy(plan, b) or _roomy(plan, self._mins)):
            return not _corner_fails(plan.rows, b, plan.checked, *plan.lower)
        return bool(self._plane_region.edges)

    @functools.cached_property
    def _plane_region(self) -> "_Region":
        """The half-plane intersection of a 2-variable system's rows, built
        once: every 2-D question the lowest corner does not settle reads it."""
        return _region(self._lines)


def _check_primitive(row: Halfspace) -> None:
    """Refuse a row whose coefficients are not ints or whole Fractions with gcd 1
    (all zero is a constant row): ``make_row`` is the one place rows are scaled."""
    cs = row.coeffs
    if not (all(c.__class__ is int or c.__class__ is Fraction and c.denominator == 1 for c in cs)
            and math.gcd(*map(int, cs)) < 2):
        raise ValueError(f"row {row.label!r} has coefficients {cs}, not integers with gcd 1; "
                         "build it with make_row")


def _check_bound(row: Halfspace) -> None:
    """Refuse a row bound that is not a float (numpy's float64 is one): the
    2-D questions compare the float a bound stores exactly, so a bound that
    is only near its float (a Fraction) would be read two ways."""
    if not isinstance(row.bound, float):
        raise ValueError(f"row {row.label!r} has bound {row.bound!r}, not a float; "
                         "build it with make_row")


def system(variables, rows) -> InequalitySystem:
    return InequalitySystem(tuple(variables), tuple(rows))


def _built(variables: tuple, coeffs: tuple, bounds: list, labels, **known) -> InequalitySystem:
    """A system over columns whose rows are known to pass ``__post_init__``
    (derived here, compiled by a plan, or taken from a checked system),
    without its checks and without rows until they are read; ``known``
    presets other cached properties (``_plan``)."""
    s = object.__new__(InequalitySystem)
    s.__dict__.update(variables=variables, _coeffs=coeffs, _bounds=bounds, _labels=labels,
                      **known)
    return s


def _left_sum(values) -> float:
    """The sum of floats folded from the left, from 0.0: the sum every
    Python version gives alike (from 3.12 the builtin sum of floats is
    compensated, and may differ in the last bit)."""
    total = 0.0
    for v in values:
        total += v
    return total


def nonnegativity_rows(variables) -> list[Halfspace]:
    """One -x <= 0 row for each variable."""
    return [Halfspace(tuple(-1 if j == i else 0 for j in range(len(variables))), 0.0, f"{v}>=0")
            for i, v in enumerate(variables)]


_PLANS = 128  # elimination and substitution plans kept per kind; probe
             # systems and user systems are arbitrary, so the caches are bounded


class _Step(NamedTuple):
    """The integer work of one Fourier-Motzkin step, in the order its rows
    are emitted: kept rows first, then pairs; and the merge of its rows."""

    variables: tuple  # the variables left
    kept: tuple  # (i, scale): row i without the variable
    pairs: tuple  # (i, j, mi, mj, scale): mi times upper row i plus mj times lower row j
    coeffs: tuple  # each new row's primitive coefficients
    sources: tuple  # each new row's input rows: i, or (i, j) for a pair
    groups: tuple  # the new rows per nonzero coefficient vector, in order of first use
    constants: tuple  # the new constant rows


@functools.lru_cache(maxsize=_PLANS)
def _fm_plan(variables: tuple, coeff_rows: tuple, var: str) -> _Step:
    """Eliminating ``var`` from rows with these coefficient vectors: each
    upper bound row paired with each lower, ``scale`` the factor
    ``_primitive`` gives for the new coefficients; the new rows grouped by
    coefficient vector for the merge (``_project``)."""
    k = variables.index(var)
    drop = lambda cs: cs[:k] + cs[k + 1:]
    uppers, lowers, kept, coeffs = [], [], [], []
    for i, cs in enumerate(coeff_rows):
        c = cs[k]
        if c > 0:
            uppers.append(i)
        elif c < 0:
            lowers.append(i)
        else:
            primitive, scale = _primitive(drop(cs))
            kept.append((i, scale))
            coeffs.append(primitive)
    pairs = []
    for i in uppers:
        up = coeff_rows[i]
        cu = up[k]
        for j in lowers:
            lo = coeff_rows[j]
            cl = -lo[k]
            primitive, scale = _primitive(tuple(cl * a + cu * b
                                                for a, b in zip(drop(up), drop(lo))))
            pairs.append((i, j, float(cl), float(cu), scale))
            coeffs.append(primitive)
    groups: dict = {}
    for i, cs in enumerate(coeffs):
        groups.setdefault(cs, []).append(i)
    constants = tuple(groups.pop((0,) * len(coeffs[0]), ())) if coeffs else ()
    return _Step(drop(variables), tuple(kept), tuple(pairs), tuple(coeffs),
                 tuple(i for i, _ in kept) + tuple(p[:2] for p in pairs),
                 tuple(map(tuple, groups.values())), constants)


@functools.lru_cache(maxsize=_PLANS)
def _substitution_plan(variables: tuple, coeff_rows: tuple, var: str, expr: tuple):
    """Substituting the items ``expr`` for ``var`` in rows with these
    coefficient vectors: the new variables, each row's primitive
    coefficients and each row's scale."""
    k = variables.index(var)
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
    return tuple(new_vars), tuple(cs for cs, _ in plan), tuple(scale for _, scale in plan)


def _project(sys: InequalitySystem, substitutions, eliminations) -> InequalitySystem:
    """Each substitution (var, expr) in turn, then each elimination, as
    ``substitute`` and ``fm_eliminate`` do them one at a time.

    The integer work comes from the plans, cached by coefficient pattern;
    per call only the bounds are computed, each step's rows are merged by
    its plan and ``fm:{a+b}`` labels are written for the rows left.  The
    merge keeps the tightest row of each group, the first on a tie, in the
    place of the group's first row.  A constant row with bound >= 0 (-0.0
    included) is dropped; the tightest of the others is kept in the place
    of the first of them."""
    variables, coeff_rows, bounds, labels = sys.variables, sys._coeffs, sys._bounds, sys._labels
    for var, expr in substitutions:
        variables, coeff_rows, scales = _substitution_plan(variables, coeff_rows, var,
                                                           tuple(expr.items()))
        bounds = [b * scale for b, scale in zip(bounds, scales)]
    for var in eliminations:
        step = _fm_plan(variables, coeff_rows, var)
        out = [bounds[i] * scale for i, scale in step.kept]
        out += [(mi * bounds[i] + mj * bounds[j]) * scale for i, j, mi, mj, scale in step.pairs]
        keep = []
        for group in step.groups:  # its first minimum, as min() takes it (a loop is faster)
            best = group[0]
            for i in group:
                best = i if out[i] < out[best] else best
            keep.append(best)
        if low := [i for i in step.constants if not out[i] >= 0.0]:
            at = bisect.bisect(step.groups, (low[0],))  # the groups sort by their first rows
            keep.insert(at, min(low, key=out.__getitem__))
        bounds = [out[r] for r in keep]
        labels = [labels[src] if src.__class__ is int
                  else f"fm:{{{labels[src[0]]}+{labels[src[1]]}}}"
                  for src in map(step.sources.__getitem__, keep)]
        variables, coeff_rows = step.variables, tuple(map(step.coeffs.__getitem__, keep))
    return _built(variables, coeff_rows, bounds, labels)


def fm_eliminate(sys: InequalitySystem, var: str) -> InequalitySystem:
    """Project ``var`` (VariableMismatchError if absent) out by pairing each upper
    bound with each lower; equal coefficient vectors keep the tightest, vacuous rows go."""
    sys.index(var)
    return _project(sys, (), (var,))


def substitute(sys: InequalitySystem, var: str, expr: dict) -> InequalitySystem:
    """Rewrite every row with ``var := sum expr[v] * v`` (exact, row by row).

    ``expr`` values are ints or exact rationals; each rewritten row is scaled
    to primitive integers.  New variables named in ``expr`` are appended to
    the system in order.
    """
    sys.index(var)
    return _project(sys, ((var, expr),), ())


def _check_tol(tol: float, what: str = "tol") -> None:
    """Refuse a tolerance ``what`` not finite and >= 0 (an int past the float range
    too), and one that is not an int or a float (numpy's float64 is one) or is
    a bool: bounds are only ever raised by tol, by inf every row holds, and a
    report records tol, which JSON must be able to write."""
    if (tol.__class__ is not float and (isinstance(tol, bool) or not isinstance(tol, (int, float)))
            or not 0 <= tol <= float_info.max):  # NaN fails too
        raise ValueError(f"{what} must be finite and >= 0, got {tol}")


def _check_plane(sys: InequalitySystem, coeffs=(0, 0)) -> None:
    """Refuse a free question outside the plane: ``sys`` must have 2
    variables and the row asked about (``coeffs``) 2 coefficients."""
    if len(sys.variables) != 2 or len(coeffs) != 2:
        raise VariableMismatchError(
            f"free questions need 2 variables and 2-coefficient rows; got "
            f"{len(sys.variables)} variables and a row of {len(coeffs)} coefficients")


def lp_feasible(sys: InequalitySystem, point=None, tol: float = TOL) -> bool:
    """Is the system feasible within tol: do its rows with every bound raised
    by tol meet, at ``point`` if one is given?  The point test takes any
    number of variables and compares each left side with ``bound + tol``.
    Without a point the system must have 2, and ``_relaxed``'s rows answer
    (``InequalitySystem._meets``)."""
    _check_tol(tol)
    if point is not None:
        if len(point) != len(sys.variables):
            raise VariableMismatchError(
                f"point has {len(point)} entries for {len(sys.variables)} variables")
        return all(_left_sum(float(c) * x for c, x in zip(cs, point)) <= b + tol
                   for cs, b in zip(sys._coeffs, sys._bounds))
    _check_plane(sys)
    return _relaxed(sys, tol)._meets


def _raised(sys: InequalitySystem, tol: float) -> InequalitySystem:
    """2-variable sys with every bound raised by tol (sys at tol 0), with its plan."""
    if tol == 0:
        return sys
    return _built(sys.variables, sys._coeffs, [b + tol for b in sys._bounds], sys._labels,
                  _plan=sys._plan)


def _relaxed(sys: InequalitySystem, tol: float) -> InequalitySystem:
    """The one reader of feasibility within tol: sys's ``_raised`` copy if
    sys is empty but the copy's rows meet (round-off pushed a point or
    segment just past empty), else sys (no copy for a constant row < -tol)."""
    if tol == 0 or sys._meets or any(sys._bounds[i] < -tol for i in sys._plan.constants):
        return sys
    raised = _raised(sys, tol)
    return raised if raised._meets else sys


def implies(sys: InequalitySystem, row: Halfspace, tol: float = TOL) -> bool:
    """Does every solution of sys satisfy the row (primitive, as in a system) within tol?

    Rows that do not meet imply every row; otherwise sys implies the row iff
    no point of sys reaches its bound + tol (``_outside``), as ``contains``
    decides each outer row."""
    _check_tol(tol)
    _check_primitive(row)
    _check_bound(row)
    _check_plane(sys, row.coeffs)
    return not sys._meets or _outside(sys, row.coeffs, row.bound + tol) is None


def _outside(sys: InequalitySystem, coeffs, t: float):
    """A point [x, y] of 2-variable sys, whose rows meet, with
    coeffs.(x, y) >= float t, or None.  None wherever the duality
    certificate (``_kept``, off sys's plan and tightest bounds) keeps the
    left side below t; only a row it does not certify is probed on the
    half-plane intersection (``_reach``)."""
    plan, mins = sys._plan, sys._mins
    k = plan.index.get(coeffs)
    if _kept(plan, mins, coeffs, t, None if k is None else mins[k]):
        return None
    return _reach(sys._plane_region, coeffs, t)


def contains(outer: InequalitySystem, inner: InequalitySystem, tol: float = TOL):
    """(True, None) if inner's solution set lies inside outer's.

    On failure returns (False, witness): the inner vertex maximising the
    first outer row inner violates by at least tol (moved along a ray when
    inner is unbounded that way).  An empty inner is inside any outer.  For
    an inner that meets, outer's rows are asked in order, each at its own
    bound + tol (``_outside``), so a bound that is not finite raises at its
    own row; the first row with a point of inner past it gives the witness.
    """
    if outer.variables != inner.variables:
        raise VariableMismatchError(
            f"systems over different variables: {outer.variables} vs {inner.variables}")
    _check_tol(tol)
    if not outer._coeffs:
        return True, None
    _check_plane(inner, outer._coeffs[0])  # as the first probe would
    if not inner._meets:
        return True, None
    for n, b in zip(outer._coeffs, outer._bounds):
        if (witness := _outside(inner, n, b + tol)) is not None:
            return False, witness
    return True, None


def remove_redundant(sys: InequalitySystem, tol: float = TOL) -> InequalitySystem:
    """Minimal subsystem of a 2-variable system with the same solution set
    (input order preserved).

    Rows are visited in order.  A row is dropped iff the remaining rows are
    infeasible or keep its left side below ``bound + tol``, i.e. the rest
    already imply it.  That is decided exactly (threshold 0) so the slack is
    not cancelled by a feasibility tolerance.

    A system empty but feasible within tol is reduced as ``_relaxed`` (else
    rows would go only because the rest is empty, and what is kept could be
    unbounded); kept rows keep their own bounds.
    """
    _check_tol(tol)
    _check_plane(sys)
    keep = _greedy_2d(_relaxed(sys, tol), tol)
    pick = lambda column: [column[k] for k in keep]
    return _built(sys.variables, tuple(pick(sys._coeffs)), pick(sys._bounds), pick(sys._labels))


# --- 2-variable systems: one exact half-plane intersection -------------------
#
# Each row is a line (p, q, beta): its primitive integer normal and its bound.
# Orientation tests are integer cross products.  Bounds enter decisions only
# through _side, which trusts floating point where its error bound settles the
# sign and otherwise redoes the sum exactly, reading each bound as the exact
# binary fraction it stores.  Float vertex coordinates only rank candidate
# vertices and skip those a proven error bound puts below a threshold.

_BOX = ((1, 0), (0, 1), (-1, 0), (0, -1))
_ANGLE_PLANS = 256  # normal sets whose angle plan is kept; user systems
                    # (and the rests of an empty one that redundancy
                    # removal intersects) are arbitrary, so it is bounded
_SMALL = 1 << 20  # |p|, |q| below this: products of cross products with
                  # float bounds round only once


def _canon(coeffs, bound) -> tuple:
    """A primitive row as the line (p, q, beta); beta is exact past ``_SMALL``."""
    p, q = coeffs
    bound = float(bound)
    if not math.isfinite(bound) and (p or q):
        raise UnboundedRegionError(f"row bound {bound} is not finite")
    return (p, q, bound) if abs(p) < _SMALL > abs(q) else (p, q, Fraction(bound))


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
    rays: tuple   # integer generators of the recession cone; () if bounded
    err: float    # float error of p*x + q*y at a point, per unit of |p| + |q|


def _tight_lines(lines) -> tuple[dict, bool]:
    """The tightest bound per nonzero normal (the first on a tie), and
    whether every constant row 0 <= beta holds."""
    tight: dict = {}
    consistent = True
    for p, q, beta in lines:
        if p == 0 == q:
            consistent = consistent and beta >= 0
        elif beta < tight.get((p, q), math.inf):
            tight[(p, q)] = beta
    return tight, consistent


def _box_side(big: int, largest: float) -> float | None:
    """Where ``_region`` puts its box sides for normal entries up to ``big``
    and tightest bounds up to ``largest`` in size, or None when a box vertex
    would not be a finite float (``_region`` then refuses the bounds)."""
    side = 4.0 * big * largest + 1.0
    return side if 2.0 * big * side < math.inf else None


_LOWER = ((-1, 0), (0, -1))  # the lower-bound normals: -x <= beta, -y <= beta


class _PlanePlan(NamedTuple):
    """The integer half of every 2-variable question on rows with these
    coefficient vectors; per system only the float bounds are read.  Never
    changed: a normal foreign to it has its pairs computed per question."""

    rows: tuple  # each row's normal
    normals: tuple  # the distinct nonzero normals, in the order rows first use them
    groups: tuple  # groups[k]: the rows with normal normals[k], in order
    index: dict  # normal -> k
    constants: tuple  # the constant rows
    lower: tuple  # the rows -x <= b, and the rows -y <= b
    monotone: bool  # every normal >= 0 in both entries, or a lower bound
    checked: tuple  # the rows a monotone system's corner tests (``_corner_rows``)
    small: bool  # every entry below _SMALL, so _side decides float bounds exactly
    big: int  # the largest normal entry (1 without one), for _box_side
    brackets: tuple  # brackets[k]: the pairs bracketing normals[k] (``_pairs``)


@functools.lru_cache(maxsize=_PLANS)
def _plane_plan(rows: tuple) -> _PlanePlan:
    """``_PlanePlan`` of 2-coefficient rows, cached by their pattern."""
    index: dict = {}
    groups: list = []
    for i, n in enumerate(rows):
        if any(n):
            if n not in index:
                index[n] = len(groups)
                groups.append([])
            groups[index[n]].append(i)
    lower = tuple(tuple(groups[index[n]]) if n in index else () for n in _LOWER)
    normals = tuple(index)
    return _PlanePlan(
        rows, normals, tuple(map(tuple, groups)), index,
        tuple(i for i, n in enumerate(rows) if not any(n)), lower,
        all(n[0] >= 0 <= n[1] or n in _LOWER for n in index),
        tuple(_corner_rows(rows, range(len(rows)), *map(bool, lower))),
        all(abs(c) < _SMALL for n in index for c in n),
        max((max(abs(p), abs(q)) for p, q in index), default=1),
        tuple(_pairs(normals, n) for n in normals))


def _roomy(plan: _PlanePlan, b) -> bool:
    """Are the bounds ``b`` (as ``InequalitySystem._read`` reads them) of
    rows with ``plan`` all within what ``_box_side`` takes, so that the
    tightest bounds of any subset of the rows are too?  A constant row's
    bound (NaN or infinite, perhaps) is not the box's: a False for it only
    costs time."""
    return not b or _box_side(plan.big, max(max(b), -min(b))) is not None


def _corner_rows(normals: tuple, alive, has_x: bool, has_y: bool) -> list:
    """The ``alive`` rows (with ``normals``) a monotone system's lowest
    corner tests: constant rows, and each other row that is not a lower
    bound and uses only variables with one (``has_x``, ``has_y``): a row
    using a variable without one holds as that variable goes toward -inf."""
    return [i for i in alive for p, q in [normals[i]]
            if (p, q) not in _LOWER and not (p and not has_x or q and not has_y)]


def _corner_fails(normals: tuple, b, rows, low_x, low_y) -> list:
    """Those of ``rows`` (``_corner_rows``) that fail at the lowest corner of
    a monotone system with ``normals`` and bounds ``b`` (as
    ``InequalitySystem._read`` reads them) whose lower-bound rows are
    ``low_x`` and ``low_y``: each variable at its largest lower bound
    (-x <= beta sets x >= -beta).  Decided exactly, by ``_side`` at the meet
    of the tightest lower bounds; where the left side is 0 (at the origin,
    and on a constant row, whose bound may be NaN or infinite) a row holds
    iff 0 <= beta."""
    lx = min(map(b.__getitem__, low_x)) if low_x else 0.0
    ly = min(map(b.__getitem__, low_y)) if low_y else 0.0
    if not (lx or ly):
        return [i for i in rows if not b[i] >= 0]
    corner = (-1, 0, lx), (0, -1, ly)
    return [i for i in rows for p, q in [normals[i]]
            if (_side((p, q, b[i]), *corner) > 0 if p * lx or q * ly else not b[i] >= 0)]


def _pairs(normals: tuple, n) -> list:
    """The pairs (k, l) of ``normals`` that bracket the nonzero normal n
    within a turn of less than pi: normals[k] clockwise of n, normals[l]
    counterclockwise.  By 2-D LP duality rows that meet keep n.(x, y) below
    a bound iff their tightest row with normal n does, or the tightest rows
    of such a pair meet below it (``_kept``)."""
    cw = [k for k, u in enumerate(normals) if _cross(u, n) > 0]
    ccw = [l for l, v in enumerate(normals) if _cross(n, v) > 0]
    return [(k, l) for k in cw for l in ccw if _cross(normals[k], normals[l]) > 0]


def _kept(plan: _PlanePlan, mins, n, t, same) -> bool:
    """Do rows that meet, with tightest bound ``mins[k]`` for
    ``plan.normals[k]`` (None: no row, else as ``InequalitySystem._read``
    reads it), keep n.(x, y) below float t?  ``same`` is their tightest
    bound with normal n (None: none).  Decided exactly, without an
    intersection, and without changing the plan.

    By 2-D LP duality (Boyd and Vandenberghe 2004, section 5) an optimum
    needs at most two active rows, so the rows keep the left side below t
    iff their tightest row with normal n does, or the tightest rows of a
    pair bracketing n meet where it is below t: the plan's pairs for one of
    its normals, else ``_pairs`` computed for n.  A constant left side is 0
    everywhere.  t is read as ``_canon`` reads it: exact past ``_SMALL``,
    and UnboundedRegionError where it is not finite."""
    if not any(n):
        return t > 0
    if not (abs(n[0]) < _SMALL > abs(n[1]) and t - t == 0):
        t = _canon(n, t)[2]
    if same is not None and same < t:
        return True
    normals, line, at = plan.normals, (*n, t), plan.index.get(n)
    for k, l in _pairs(normals, n) if at is None else plan.brackets[at]:
        u, v = mins[k], mins[l]
        if u is not None is not v and _side(line, (*normals[k], u), (*normals[l], v)) < 0:
            return True
    return False


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
    tight, consistent = _tight_lines(lines)
    dirs, rays, big = _angle_plan(frozenset(tight))
    largest = max((abs(float(b)) for b in tight.values()), default=0.0)
    side = _box_side(big, largest)
    if side is None:  # a box vertex must be a finite float
        raise UnboundedRegionError(f"bound {largest:g} too large for the 2-D intersection")
    edges = (_intersect([(p, q, tight.get((p, q), side)) for p, q in dirs])
             if consistent else [])
    points = [_meet(e, edges[(t + 1) % len(edges)]) for t, e in enumerate(edges)]
    return _Region(edges, points, rays, 1e-14 * big * side)


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


def _rest_meets(sys: InequalitySystem, rest: list, corner: bool) -> bool:
    """Do the rows ``rest`` of 2-variable sys meet?  Where the corner
    answers for every rest (``corner``: sys is monotone and ``_roomy``)
    the rest's own lowest corner does (``_corner_fails``), else the rest is
    intersected, which raises past the box unless a constant row of the
    rest fails."""
    if corner:
        plan = sys._plan
        lows = [[r for r in rest if r in rows] for rows in plan.lower]
        checked = _corner_rows(plan.rows, rest, *map(bool, lows))
        return not _corner_fails(plan.rows, sys._read, checked, *lows)
    lines = [sys._lines[r] for r in rest]
    return _tight_lines(lines)[1] and bool(_region(lines).edges)


def _greedy_2d(sys: InequalitySystem, tol: float) -> list[int]:
    """remove_redundant's greedy rule: a row is dropped iff the rest of the
    rows still alive does not meet (``_rest_meets``) or keeps it (``_kept``).

    While the alive rows meet, every rest of them meets too, and a row is
    kept below by the rest iff by the tightest other row of its normal or a
    bracketing pair (``_kept``): the tightest bounds change only where a
    row goes."""
    plan, b, bounds = sys._plan, sys._read, sys._bounds
    normals, groups, index = plan.rows, plan.groups, plan.index
    meet = sys._meets  # do the rows still alive meet?
    corner = plan.monotone and _roomy(plan, b)  # the corner answers for every rest
    mins = list(sys._mins)  # the tightest bound per normal of the rows alive
    alive, dead = list(range(len(b))), set()
    i = 0
    while i < len(alive):
        j = alive[i]
        n = normals[j]
        k = index.get(n)
        if k is None:  # same: the rest's tightest bound with j's normal (None: none)
            same = None
        elif b[j] > mins[k]:
            same = mins[k]
        else:  # j is the tightest: the next one
            same = min([b[r] for r in groups[k] if r != j and r not in dead],
                       default=None) if len(groups[k]) > 1 else None
        rest_meets = meet or _rest_meets(sys, alive[:i] + alive[i + 1:], corner)
        if not rest_meets or _kept(plan, mins, n, bounds[j] + tol, same):
            meet = rest_meets
            if k is not None:
                mins[k] = same
            dead.add(j)
            del alive[i]
        else:
            i += 1
    return alive


@dataclass(frozen=True)
class Polytope2D:
    """Counterclockwise vertex list of a bounded 2-D region."""

    vertices: tuple[tuple[float, float], ...]
    kind: str  # empty | point | segment | polygon


def vertices2d(sys: InequalitySystem, tol: float = TOL) -> Polytope2D:
    """Vertices of a bounded 2-variable system (``_check_plane``), counterclockwise.

    Each is the meet of two consecutive edges of ``_relaxed``'s half-plane
    intersection (empty unless feasible within tol), solved from the
    system's own first tightest row with each edge's normal.  Meets are
    taken in row-pair order; one within tol of a meet already kept is
    dropped.  At tol 0 the exact point test may reject a meet by round-off."""
    _check_plane(sys)
    _check_tol(tol)
    relaxed = _relaxed(sys, tol)
    if not relaxed._meets:
        return Polytope2D((), "empty")
    region = relaxed._plane_region
    if region.rays:
        raise UnboundedRegionError("region is unbounded; cannot enumerate vertices")
    plan, lines = sys._plan, sys._lines
    rows = [min(plan.groups[plan.index[e[:2]]], key=sys._read.__getitem__) for e in region.edges]
    pts: list[tuple[float, float]] = []
    for i, j in sorted((min(a, b), max(a, b)) for a, b in zip(rows, rows[1:] + rows[:1])):
        x, y = _meet(lines[i], lines[j])
        if not any(abs(x - p) <= tol and abs(y - q) <= tol for p, q in pts):
            pts.append((x, y))
    cx, cy = (_left_sum(c) / len(pts) for c in zip(*pts))
    pts.sort(key=lambda p: math.atan2(p[1] - cy, p[0] - cx))
    return Polytope2D(tuple(pts), {1: "point", 2: "segment"}.get(len(pts), "polygon"))


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
