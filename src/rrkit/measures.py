"""Entropy and conditional mutual information over joint tables, in bits.

Every term is a fixed integer combination of subset entropies H(S) of one
joint, the entropic-vector view of Yeung (1997): H(A|C) = H(AC) - H(C) and
I(A;B|C) = H(AC) + H(BC) - H(ABC) - H(C), with base-2 logs and 0 log 0 = 0.

``TermTable`` is the compiled core behind every constant and identity table;
term lists read together on one joint go in one table, so they share one
marginal plan.
On first use it compiles its named term lists into the distinct non-empty
subsets they touch and an integer matrix M with one row per list.  Per
subset list, joint variable order and shape one marginal plan is compiled
(the most recent are kept, in a bounded cache): sum out the variables no
term mentions, then, largest subset first, sum each subset from the
smallest planned table that contains it.  A step reading a table of
``_WIDE`` cells or more sums by BLAS products with ones vectors, one per run
of adjacent summed axes (a wide joint is read at memory speed); a smaller
one by ``np.add.reduce``.  Both add in a fixed order for a given
shape, so values are deterministic; the two differ in round-off only.  Per
joint it runs the plan on plain arrays, takes each subset's entropy and
returns M @ h.  Nothing is kept on the joint, so a value never depends on
what was evaluated before.

``entropy``, ``cmi`` and ``eval_term(s)`` are the plain definitions, which
marginalise the full table on every call: the independent reference the core
is tested against.  Round-off can leave a quantity that is 0 in exact
arithmetic slightly negative (about 1e-12); nothing clamps it, so checks
compare such values against their stated tolerances.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .prob import JointDistribution, ModelError, marginalize

# Tables of this many cells or more are summed by contractions (_sum_kernel).
# Timed per plan step over hk3, hod9 and dmt5 joints, np.add.reduce is faster
# below 2**9 cells, the two are close at 2**9 (the contraction faster on 62
# of 81 steps, median 1.2x, but up to 1.5x slower on steps over two runs),
# and from 2**10 on the contraction is faster on nearly every step, by 1.6x
# at 2**10 and about 5x at 2**15 to 2**17.  Binary joints have at most 2**9
# cells, so they keep np.add.reduce and its round-off.  Re-timed on the
# tables rrkit union reads once compose keeps only the variables a family
# mentions (2 cores, numpy 2.4): on the 8,192-cell hod marginal of an hk3
# chain with Q = 2 and every other alphabet 4, the three steps at 2**13
# cells take 64 us by contraction against 153 us by np.add.reduce (1.7x to
# 5x each), and all 28 steps 153 against 240 us.
_WIDE = 2**10


def _plain_entropy(d: JointDistribution, names) -> float:
    p = marginalize(d, names).table.ravel()
    p = p[p > 0.0]
    return float(-np.sum(p * np.log2(p)))


def entropy(d: JointDistribution, vars, given=()) -> float:
    """H(vars | given) in bits, via H(vars given) - H(given)."""
    return eval_term(d, InfoTerm("H", tuple(vars), cond=tuple(given)))


def cmi(d: JointDistribution, a, b, c=()) -> float:
    """I(a ; b | c) in bits, via H(ac) + H(bc) - H(abc) - H(c)."""
    return eval_term(d, InfoTerm("I", tuple(a), tuple(b), tuple(c)))


@dataclass(frozen=True)
class InfoTerm:
    """One signed entropy or mutual-information term.

    kind "H": sign * H(left | cond)
    kind "I": sign * I(left ; right | cond)
    """

    kind: str
    left: tuple[str, ...]
    right: tuple[str, ...] = ()
    cond: tuple[str, ...] = ()
    sign: int = 1

    def __post_init__(self):
        if self.kind not in ("H", "I"):
            raise ValueError(f"kind must be H or I, got {self.kind!r}")
        if self.kind == "I" and not self.right:
            raise ValueError("I-term needs a right-hand variable set")
        if self.sign not in (-1, 1):
            raise ValueError(f"sign must be +/-1, got {self.sign}")

    def describe(self) -> str:
        inner = ",".join(self.left)
        if self.kind == "I":
            inner += ";" + ",".join(self.right)
        if self.cond:
            inner += "|" + ",".join(self.cond)
        return f"{'-' if self.sign < 0 else ''}{self.kind}({inner})"

    def entropy_weights(self) -> tuple[tuple[frozenset, int], ...]:
        """The term as (S, +-1) pairs, one per H(S) it adds or subtracts."""
        a, b, c = frozenset(self.left), frozenset(self.right), frozenset(self.cond)
        if not a or a & b or a & c or b & c:
            raise ValueError(f"{self.describe()}: empty or overlapping variable sets")
        pairs = (((a | c, 1), (c, -1)) if self.kind == "H" else
                 ((a | c, 1), (b | c, 1), (a | b | c, -1), (c, -1)))
        return tuple((s, self.sign * n) for s, n in pairs if s)


def eval_term(d: JointDistribution, t: InfoTerm) -> float:
    """t in bits, each subset entropy marginalised from the full table."""
    return sum(n * _plain_entropy(d, s) for s, n in t.entropy_weights())


def eval_terms(d: JointDistribution, terms) -> float:
    return sum(eval_term(d, t) for t in terms)


class MarginalPlan(NamedTuple):
    """Table 0 is the joint's own; step i sums ``axes`` out of table
    ``source`` to give table i + 1, as ``sums[i](table, axes)``.  Subset j is
    read from table ``reads[j]`` and, laid end to end with the others, starts
    at cell ``offsets[j]``."""

    tables: tuple[frozenset, ...]
    steps: tuple[tuple[int, tuple[int, ...]], ...]
    reads: tuple[int, ...]
    offsets: np.ndarray
    sums: tuple


def _sum_kernel(shape: tuple[int, ...], axes: tuple[int, ...]):
    """The kernel ``(table, axes) -> table`` summing ``axes`` out of a table of
    ``shape``.

    Below ``_WIDE`` cells it is ``np.add.reduce``.  From ``_WIDE`` cells on,
    where that reduction runs many short inner loops and is the slower, it
    is a contraction compiled for ``axes``: each run of adjacent summed
    axes, last run first, is a BLAS product with a ones vector over the
    (a, b, c) view that flattens the run to b, ``(a, b) @ ones`` when c is
    1, else ``ones @ (a, b, c)``.
    """
    if math.prod(shape) < _WIDE:
        return np.add.reduce
    runs: list[list[int]] = []  # [start, stop) of each run, last run first
    for k in sorted(axes, reverse=True):
        if runs and runs[-1][0] == k + 1:
            runs[-1][0] = k
        else:
            runs.append([k, k + 1])
    dims, views = list(shape), []
    for start, stop in runs:
        a, b, c = (math.prod(dims[:start]), math.prod(dims[start:stop]),
                   math.prod(dims[stop:]))
        views.append((a, b, c, np.ones(b)))
        del dims[start:stop]
    kept = tuple(dims)

    def contract(t, _axes):
        for a, b, c, ones in views:
            t = t.reshape(a, b) @ ones if c == 1 else ones @ t.reshape(a, b, c)
        return t.reshape(kept)
    return contract


@functools.lru_cache(maxsize=64)  # tables and shapes are arbitrary, so bounded
def _marginal_plan(subsets: tuple[frozenset, ...], names: tuple[str, ...],
                   shape: tuple[int, ...]) -> MarginalPlan:
    cells = dict(zip(names, shape))
    mentioned = frozenset().union(*subsets)
    if not mentioned <= cells.keys():
        raise ModelError(f"unknown variables {sorted(mentioned - cells.keys())}; "
                         f"have {names}")
    size = lambda s: math.prod(cells[n] for n in s)
    tables, steps, sums = [frozenset(names)], [], []
    for target in ([mentioned] if subsets else []) + list(subsets):  # largest first
        if target not in tables:
            source = min((i for i, s in enumerate(tables) if target <= s),
                         key=lambda i: size(tables[i]))
            kept = [n for n in names if n in tables[source]]
            axes = tuple(i for i, n in enumerate(kept) if n not in target)
            steps.append((source, axes))
            sums.append(_sum_kernel(tuple(cells[n] for n in kept), axes))
            tables.append(target)
    return MarginalPlan(tuple(tables), tuple(steps), tuple(tables.index(s) for s in subsets),
                        np.cumsum([0] + [size(s) for s in subsets[:-1]]), tuple(sums))


class TermTable:
    """Named lists of ``InfoTerm``s, each evaluated as the sum of its terms
    (see the module docstring).  Compiled on first use: building one is cheap."""

    def __init__(self, rows):
        self.rows = {label: tuple(terms) for label, terms in rows.items()}

    @functools.cached_property
    def _weights(self) -> list[Counter]:
        weights = [Counter() for _ in self.rows]
        for row, terms in zip(weights, self.rows.values()):
            for t in terms:
                row.update(dict(t.entropy_weights()))
        return weights

    @functools.cached_property
    def subsets(self) -> tuple[frozenset, ...]:
        """The subsets some row weighs by a nonzero integer, largest first."""
        return tuple(sorted({s for row in self._weights for s, n in row.items() if n},
                            key=lambda s: (-len(s), sorted(s))))

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        """M: one row per list, its integer weights over ``subsets``."""
        return np.array([[row[s] for s in self.subsets] for row in self._weights],
                        dtype=np.int64).reshape(len(self.rows), len(self.subsets))

    def plan(self, d: JointDistribution) -> MarginalPlan:
        """The marginal plan for d's variable order and shape, compiled once
        and kept in a bounded cache that all tables share."""
        return _marginal_plan(self.subsets, d.names, d.table.shape)

    def subset_entropies(self, d: JointDistribution) -> np.ndarray:
        """H(S) in bits on d for every S in ``subsets``, in that order."""
        plan = self.plan(d)
        tables = [d.table]
        for (source, axes), sum_out in zip(plan.steps, plan.sums):
            tables.append(sum_out(tables[source], axes))
        if not plan.reads:
            return np.zeros(0)
        p = np.concatenate([tables[i].ravel() for i in plan.reads])
        plogp = np.log2(p, out=np.zeros(p.shape), where=p > 0.0)
        plogp *= p
        return -np.add.reduceat(plogp, plan.offsets)

    def evaluate(self, d: JointDistribution) -> dict:
        """Each list's value on d, in bits, by label."""
        return dict(zip(self.rows, (self.matrix @ self.subset_entropies(d)).tolist()))
