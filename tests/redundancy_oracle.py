"""The 2-variable verdicts as the engine gave them before it read systems off
their coefficient-pattern plans: every answer from the rows' canonical lines
(``polytope._canon``) and their tightest-bound tables (``_tight_lines``).
The reference for the plan path's corner, deletion filter and per-normal
containment test, built only on ``polytope``'s line primitives.

- ``meets``: the lowest corner of the tightest lines (``_lowest_corner``),
  and the half-plane intersection where that gives None.
- ``remove_redundant``: the greedy rule with each rest's tightest lines,
  corner and, where needed, intersection rebuilt row by row.
- ``contains``: each outer row in order, by ``_kept_below`` on inner's
  tightest lines; the first row it fails with a witness gives it.
"""

from rrkit.polytope import (Halfspace, _canon, _kept_below, _lowest_corner, _reach, _region,
                            _tight_lines)


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
