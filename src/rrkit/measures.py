"""Entropy and conditional mutual information over joint tables, in bits.

Conditional quantities are computed as entropy differences (base-2 logs,
0 log 0 = 0) and returned as computed: round-off can leave a quantity that
is 0 in exact arithmetic slightly negative (about 1e-12), and nothing clamps
it, so checks compare such values against their stated tolerances.

Each subset entropy H(S) is computed once per joint: the first request
marginalises onto S the smallest marginal the joint already holds over a
superset of S (the full table if there is none), and stores both that
marginal and the float in the joint's own memos (keyed by the frozenset of
names, so the order of S does not matter); later requests for the same S on
the same joint read the float back.  ``seed_marginal`` stores one marginal
ahead of a batch of terms, so every subset they need is summed from it.
Which table a subset is summed from depends on what was asked before, so a
value can differ from the full-table sum by a few ulps; the same requests in
the same order on equal joints give bitwise equal floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .prob import JointDistribution, marginalize


def _smallest_superset(d: JointDistribution, key: frozenset) -> JointDistribution:
    """The smallest held marginal of d over a superset of key, else d itself."""
    best = d
    for names, m in d._marginals.items():
        if key <= names and m.table.size < best.table.size:
            best = m
    return best


def seed_marginal(d: JointDistribution, names) -> None:
    """Hold d's marginal onto ``names``, so later subset entropies over those
    variables are summed from it; nothing to do if it covers every variable."""
    key = frozenset(names)
    if key != frozenset(d.names) and key not in d._marginals:
        d._marginals[key] = marginalize(d, key)


def _plain_entropy(d: JointDistribution, names) -> float:
    key = frozenset(names)
    h = d._entropies.get(key)
    if h is None:
        m = d._marginals.get(key)
        if m is None:
            m = d._marginals[key] = marginalize(_smallest_superset(d, key), key)
        p = m.table.ravel()
        p = p[p > 0.0]
        h = d._entropies[key] = float(-np.sum(p * np.log2(p)))
    return h


def entropy(d: JointDistribution, vars, given=()) -> float:
    """H(vars | given) in bits."""
    vars, given = tuple(vars), tuple(given)
    if not vars:
        raise ValueError("entropy needs at least one variable")
    if set(vars) & set(given):
        raise ValueError(f"variables {set(vars) & set(given)} appear on both sides")
    if not given:
        return _plain_entropy(d, vars)
    return _plain_entropy(d, vars + given) - _plain_entropy(d, given)


def cmi(d: JointDistribution, a, b, c=()) -> float:
    """I(a ; b | c) in bits, via H(ac) + H(bc) - H(abc) - H(c)."""
    a, b, c = tuple(a), tuple(b), tuple(c)
    if not a or not b:
        raise ValueError("cmi needs nonempty variable sets on both sides")
    for x, y in ((a, b), (a, c), (b, c)):
        if set(x) & set(y):
            raise ValueError(f"overlapping variable sets: {set(x) & set(y)}")
    h_ac = _plain_entropy(d, a + c)
    h_bc = _plain_entropy(d, b + c)
    h_abc = _plain_entropy(d, a + b + c)
    h_c = _plain_entropy(d, c) if c else 0.0
    return h_ac + h_bc - h_abc - h_c


@dataclass(frozen=True)
class InfoTerm:
    """One signed, scaled entropy or mutual-information term.

    kind "H": coefficient * sign * H(left | cond)
    kind "I": coefficient * sign * I(left ; right | cond)
    """

    kind: str
    left: tuple[str, ...]
    right: tuple[str, ...] = ()
    cond: tuple[str, ...] = ()
    sign: int = 1
    coefficient: Fraction = Fraction(1)

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
        prefix = "-" if self.sign < 0 else ""
        if self.coefficient != 1:
            prefix += f"{self.coefficient}*"
        return f"{prefix}{self.kind}({inner})"


def eval_term(d: JointDistribution, t: InfoTerm) -> float:
    value = entropy(d, t.left, t.cond) if t.kind == "H" else cmi(d, t.left, t.right, t.cond)
    return float(t.coefficient) * t.sign * value


def eval_terms(d: JointDistribution, terms) -> float:
    return sum(eval_term(d, t) for t in terms)
