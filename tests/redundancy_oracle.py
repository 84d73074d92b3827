"""The 2-variable verdicts as the engine gave them before it read systems off
their coefficient-pattern plans: every answer from the rows' canonical lines
(``polytope._canon``) and their tightest-bound tables (``_tight_lines``).
The reference for the plan path's corner, the corner of each rest in
redundancy removal, and the per-row question ``implies`` and ``contains``
share (``polytope._outside``).  It holds its own corner and duality
primitives, the engine's line tier before plans (``_lowest_corner``,
``_kept_below``), and takes only the exact primitives they share from
``polytope``: the canonical line, the exact side test, the box and the
half-plane intersection.

- ``meets``: the lowest corner of the tightest lines (``_lowest_corner``),
  and the half-plane intersection where that gives None.
- ``remove_redundant``: the greedy rule with each rest's tightest lines,
  corner and, where needed, intersection rebuilt row by row.
- ``contains``: each outer row in order, by ``_kept_below`` on inner's
  tightest lines; the first row it fails with a witness gives it.
"""

import math

from rrkit.polytope import (_LOWER, Halfspace, _box_side, _canon, _cross, _reach, _region, _side,
                            _tight_lines)


def _lowest_corner(tight: dict, consistent: bool) -> bool | None:
    """Do the lines of a monotone system, given as ``_tight_lines``, meet?
    Decided exactly, without an intersection; None when the system is not
    monotone or has a bound ``_region`` refuses (``_box_side``).

    Monotone: every normal is >= 0 in both entries, or is a lower bound
    (``_LOWER``).  Each other row's left side then never decreases in either
    variable, so the rows meet iff every one holds at the lowest corner:
    each variable at its largest lower bound, or, without one, toward -inf,
    where every row that uses it holds.  A catalogued rate-pair system's
    corner is the origin; ``_side`` compares exactly."""
    low_x, low_y = tight.get(_LOWER[0]), tight.get(_LOWER[1])
    x = (-1, 0, 0.0 if low_x is None else low_x)
    y = (0, -1, 0.0 if low_y is None else low_y)
    origin = not (x[2] or y[2])  # there a row holds iff 0 <= beta
    holds, big, largest = consistent, 1, 0.0
    for (p, q), beta in tight.items():
        if p < 0 or q < 0:
            if (p, q) not in _LOWER:
                return None
        elif holds and not (p and low_x is None or q and low_y is None):
            holds = beta >= 0 if origin else _side((p, q, beta), x, y) <= 0
        if p > big or q > big:
            big = p if p > q else q
        if beta > largest or -beta > largest:
            largest = abs(beta)
    return None if _box_side(big, float(largest)) is None else holds


def _kept_below(tight: dict, coeffs, bound: float) -> bool:
    """Do rows that meet, given as their tightest bound per normal
    (``_tight_lines``), keep coeffs.(x, y) below ``bound``?  Decided
    exactly, without an intersection.

    By 2-D LP duality an optimum needs at most two active rows, so the rows
    keep the left side below the bound iff the tightest line with its
    normal n does, or two tightest lines whose normals bracket n (within a
    turn of less than pi) meet where it is below the bound.  A constant
    left side is 0 everywhere."""
    p, q, t = _canon(coeffs, bound)
    if p == 0 == q:
        return t > 0
    if tight.get((p, q), math.inf) < t:
        return True
    cw = [(a, b, beta) for (a, b), beta in tight.items() if a * q - b * p > 0]
    ccw = [(a, b, beta) for (a, b), beta in tight.items() if p * b - q * a > 0]
    return any(_cross(u, v) > 0 and _side((p, q, t), u, v) < 0 for u in cw for v in ccw)


def lines(s) -> list:
    return [_canon(r.coeffs, r.bound) for r in s.rows]


def _meets_lines(ls) -> bool:
    corner = _lowest_corner(*_tight_lines(ls))
    return bool(_region(ls).edges) if corner is None else corner


def meets(s) -> bool:
    return _meets_lines(lines(s))


def raised(s, tol):
    return s if tol == 0 else s.with_rows(Halfspace(r.coeffs, r.bound + tol, r.label)
                                          for r in s.rows)


def feasible(s, tol) -> bool:
    return meets(s) or (not any(r.is_constant() and r.bound < -tol for r in s.rows)
                        and meets(raised(s, tol)))


def greedy(s, tol) -> list[int]:
    """The indices of the rows kept, in order."""
    rows, ls = s.rows, lines(s)
    meet = meets(s)  # do the rows still alive meet?
    alive = list(range(len(rows)))
    i = 0
    while i < len(alive):
        j = alive[i]
        rest = alive[:i] + alive[i + 1:]
        others = [ls[k] for k in rest]
        tight, consistent = _tight_lines(others)
        rest_meets = meet or _lowest_corner(tight, consistent)
        if rest_meets is None:
            rest_meets = consistent and bool(_region(others).edges)
        drop = not rest_meets or _kept_below(tight, rows[j].coeffs, rows[j].bound + tol)
        meet = meet or drop and rest_meets
        if drop:
            alive = rest
        else:
            i += 1
    return alive


def remove_redundant(s, tol) -> list[str]:
    """The labels ``polytope.remove_redundant`` keeps."""
    relax = tol > 0 and not meets(s) and feasible(s, tol)
    return [s.rows[k].label for k in greedy(raised(s, tol) if relax else s, tol)]


def contains(outer, inner, tol):
    if not outer.rows:
        return True, None
    ls = lines(inner)
    if not _meets_lines(ls):
        return True, None
    tight = _tight_lines(ls)[0]
    for row in outer.rows:
        if not _kept_below(tight, row.coeffs, row.bound + tol):
            if (witness := _reach(_region(ls), row.coeffs, row.bound + tol)) is not None:
                return False, witness
    return True, None
