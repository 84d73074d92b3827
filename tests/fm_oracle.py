"""Yes/no Fourier-Motzkin (FM) answers to the free polytope questions over
any number of variables, built only on ``polytope.fm_eliminate`` and row
arithmetic: the reference for the library's 2-variable answers.  Feasible
within tol: the rows with every bound raised by tol leave no constant row
below 0 once every variable is eliminated, cheapest first.  ``implies``
probes, exactly, the system with the row's negation relaxed by tol."""

from rrkit.polytope import TOL, Halfspace, fm_eliminate


def _raised(s, tol):
    return s.with_rows(Halfspace(r.coeffs, r.bound + tol, r.label) for r in s.rows)


def feasible(s, tol=TOL) -> bool:
    s = _raised(s, tol)
    pairs = {v: sum(r.coeffs[k] > 0 for r in s.rows) * sum(r.coeffs[k] < 0 for r in s.rows)
             for k, v in enumerate(s.variables)}
    for v in sorted(s.variables, key=pairs.get):
        s = fm_eliminate(s, v)
    return all(r.bound >= 0 for r in s.rows)


def implies(s, row, tol=TOL) -> bool:
    negation = Halfspace(tuple(-c for c in row.coeffs), -(row.bound + tol), f"not:{row.label}")
    return not feasible(s.with_rows(s.rows + (negation,)), 0.0)


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
