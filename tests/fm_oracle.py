"""Yes/no Fourier-Motzkin (FM) answers to the free polytope questions over
any number of variables, decided exactly: the reference for the library's
2-variable answers.  Each float bound, and each float ``bound + tol``, is
read as the exact ``Fraction`` it stores, as ``polytope._side`` reads it,
and eliminated by this module's own loop (not ``polytope.fm_eliminate``),
so a tie stays a tie.  Feasible within tol: the rows with every bound raised
by tol leave no constant row below 0 once every variable is eliminated,
cheapest first.  ``implies`` probes the system with the row's negation at
``bound + tol``.

``_tightest`` is elimination's float merge rule as one scan over a dict of
coefficient vectors: the reference for the merge ``polytope._fm_plan``
compiles per pattern."""

import math
from fractions import Fraction

from rrkit.polytope import TOL, Coeffs, Halfspace


def _tightest(coeff_rows, bounds) -> list[int]:
    """Elimination's merge rule, on rows given as coefficient vectors and
    bounds: the indices of the rows kept, in order.  A vacuous constant row
    (bound >= 0, -0.0 included) is dropped; of the rows sharing a coefficient
    vector the tightest is kept, the first on a tie, in the place of the
    first of them not dropped."""
    best: dict[Coeffs, int] = {}  # a replaced row keeps its first place
    for i, cs in enumerate(coeff_rows):
        b = bounds[i]
        if b >= 0.0 and not any(cs):
            continue
        old = best.get(cs)
        if old is None or b < bounds[old]:
            best[cs] = i
    return list(best.values())


def _raised(s, tol):
    return s.with_rows(Halfspace(r.coeffs, r.bound + tol, r.label) for r in s.rows)


def _exact(rows, tol):
    """The rows as (integer coefficients, the exact value of float bound + tol)."""
    return [(tuple(map(int, r.coeffs)), Fraction(r.bound + tol)) for r in rows]


def _eliminate(rows, k):
    """Variable k out of exact rows: the rows without it, and each upper
    bound row paired with each lower; of the rows with one primitive
    coefficient vector the tightest is kept."""
    out = [row for row in rows if not row[0][k]]
    uppers = [row for row in rows if row[0][k] > 0]
    lowers = [row for row in rows if row[0][k] < 0]
    out += [(tuple(-lo[k] * a + up[k] * b for a, b in zip(up, lo)), -lo[k] * bu + up[k] * bl)
            for up, bu in uppers for lo, bl in lowers]
    tight = {}
    for cs, b in out:
        g = math.gcd(*cs) or 1
        cs, b = tuple(c // g for c in cs), b / g
        if cs not in tight or b < tight[cs]:
            tight[cs] = b
    return list(tight.items())


def _feasible(rows, n) -> bool:
    left = list(range(n))
    while left:
        pairs = lambda k: sum(cs[k] > 0 for cs, _ in rows) * sum(cs[k] < 0 for cs, _ in rows)
        k = min(left, key=pairs)
        rows = _eliminate(rows, k)
        left.remove(k)
    return all(b >= 0 for _, b in rows)


def feasible(s, tol=TOL) -> bool:
    return _feasible(_exact(s.rows, tol), len(s.variables))


def implies(s, row, tol=TOL) -> bool:
    (coeffs, t), = _exact([row], tol)
    negation = (tuple(-c for c in coeffs), -t)
    return not _feasible(_exact(s.rows, 0.0) + [negation], len(s.variables))


def contains(outer, inner, tol=TOL) -> bool:
    return all(implies(inner, r, tol) for r in outer.rows)


def remove_redundant(s, tol=TOL):
    """``polytope.remove_redundant``'s greedy rule, by ``implies``."""
    work = _raised(s, tol) if tol > 0 and not feasible(s, 0.0) and feasible(s, tol) else s
    alive, i = list(range(len(s.rows))), 0
    while i < len(alive):
        rest = alive[:i] + alive[i + 1:]
        if implies(work.with_rows(work.rows[k] for k in rest), work.rows[alive[i]], tol):
            alive = rest
        else:
            i += 1
    return s.with_rows(s.rows[k] for k in alive)
