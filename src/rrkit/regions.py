"""Bound constants and inequality systems for the catalogued rate regions.

Four families of evaluated right-hand sides over a fixed joint: "hod" (the
general binning region's 14 quadruple constants), "dmt" (the 14 baseline
constants), "rtd" (the 8 split-private-message quintuple bounds) and "hod1"
(the 8 simplified constants).  ``_FAMILIES`` is the one place a family is
defined: its guard form, its defining terms in row order, its catalogue row
labels, its own system description and its add-on parts, from which its
collapsed cores and distinct add-ons are derived as plain row dicts.  Its
constants, like the budget bounds, are evaluated as one compiled
``measures.TermTable``: one marginal plan, one entropy per subset and one
integer matrix product per joint.  ``part_table`` compiles a family's
constants together with other named rows (cores, add-ons, identity tables),
keyed (part, label), and ``evaluate_parts`` guards each family, evaluates
such a table once per joint and splits it by part.  ``_SYSTEMS`` maps every
catalogued inequality description (quadruple/quintuple systems, the 20- and
11-row rate-pair systems, the 37-row intermediate list) to its family, rate
variables and rows; one row builder serves them all.  The pre-binning
budget system's projection reproduces the user-2 rows.

Catalogued systems have fixed integer coefficients; only their bounds
depend on the joint.  So each description's rows (primitive coefficients
and scales) are compiled once, on first use, and ``build_system`` computes
only the float bounds per joint.  ``ratepair_projection`` is
``project_to_ratepair`` of a family's own system: substitution and
Fourier-Motzkin elimination, whose integer plans ``polytope`` caches by
coefficient pattern, so per joint only the float bounds are computed there
too.

Every constant is defined only on inputs of its family's guard form, so each
constants call first checks it.  A joint ``compose`` built along a chain
that implies the form (for example ``hk3``, ``dmt5``, ``ic1`` or ``crc2``
under ``hod9``, ``cmg4`` under ``hod12``) passes without a look at its
table.  Every other joint, user-built or composed along a chain that does
not imply the form, is rebuilt by ``validate_factorization`` and refused
above ``CONSTANT_REJECT_TOL``.  The constants do not depend on which way
it went.

Constants are floats in bits; inequality coefficients are primitive integers.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace

from .measures import InfoTerm, TermTable
from .polytope import (Halfspace, InequalitySystem, _primitive, fm_eliminate,
                       make_row, nonnegativity_rows, substitute)
from .prob import FORMS, JointDistribution, ModelError, validate_factorization

CONSTANT_REJECT_TOL = 1e-6  # factorization violation above this rejects the input


def iterm(expr: str, sign: int = 1) -> InfoTerm:
    """Parse "I(A,B;C|D,E)" or "H(A|B)" into an InfoTerm."""
    expr = expr.replace(" ", "")
    kind, rest = expr[0], expr[2:-1]
    body, _, cond = rest.partition("|")
    left, _, right = body.partition(";")
    split = lambda s: tuple(s.split(",")) if s else ()
    return InfoTerm(kind, split(left), split(right), split(cond), sign)


def _terms(*specs) -> tuple[InfoTerm, ...]:
    """Each spec is "expr" or ("-", "expr") for a negated term."""
    return tuple(iterm(s[1], -1) if isinstance(s, tuple) else iterm(s) for s in specs)


# --- general-region constants (rows 10-1..10-14), grouped the way the
#     region is interpreted:
#     value = core + correlation + interference - binning, with every
#     add-on an individually nonnegative mutual information.
HOD_PARTS: dict[str, dict[str, tuple[InfoTerm, ...]]] = {
    "A1": {"interference": _terms("I(W2;U1,W1|Q)"), "core": _terms("I(Y1;U1|Q,W1,W2)")},
    "B1": {"correlation": _terms("I(U1;W1|Q)"), "interference": _terms("I(W2;U1,W1|Q)"),
           "core": _terms("I(Y1;W1|Q,W2,U1)")},
    "C1": {"correlation": _terms("I(U1;W1|Q)"), "core": _terms("I(Y1;W2|Q,U1,W1)")},
    "D1": {"interference": _terms("I(W2;W1,U1|Q)"), "core": _terms("I(Y1;U1,W1|Q,W2)")},
    "E1": {"core": _terms("I(Y1;U1,W2|Q,W1)")},
    "F1": {"correlation": _terms("I(U1;W1|Q)"), "core": _terms("I(Y1;W1,W2|Q,U1)")},
    "G1": {"core": _terms("I(Y1;U1,W1,W2|Q)")},
    "A2": {"correlation": _terms("I(U2;W2|Q)"), "interference": _terms("I(W2,U2;W1|Q)"),
           "core": _terms("I(Y2;U2|Q,W1,W2)"), "binning": _terms("I(U2;U1,W1,W2|Q)")},
    "B2": {"correlation": _terms("I(U2;W2|Q)"), "interference": _terms("I(W1;W2,U2|Q)"),
           "core": _terms("I(Y2;W2|Q,W1,U2)"), "binning": _terms("I(W2;W1,U1|Q)")},
    "C2": {"correlation": _terms("I(U2;W2|Q)"), "interference": _terms("I(W2,U2;W1|Q)"),
           "core": _terms("I(Y2;W1|Q,W2,U2)")},
    "D2": {"correlation": _terms("I(U2;W2|Q)"), "interference": _terms("I(W2,U2;W1|Q)"),
           "core": _terms("I(Y2;U2,W2|Q,W1)"),
           "binning": _terms("I(W2;U1,W1|Q)", "I(U2;U1,W1,W2|Q)")},
    "E2": {"correlation": _terms("I(U2;W2|Q)"), "interference": _terms("I(W2,U2;W1|Q)"),
           "core": _terms("I(Y2;U2,W1|Q,W2)"), "binning": _terms("I(U2;U1,W1,W2|Q)")},
    "F2": {"correlation": _terms("I(U2;W2|Q)"), "interference": _terms("I(W2,U2;W1|Q)"),
           "core": _terms("I(Y2;W1,W2|Q,U2)"), "binning": _terms("I(W2;U1,W1|Q)")},
    "G2": {"correlation": _terms("I(U2;W2|Q)"), "interference": _terms("I(W1;U2,W2|Q)"),
           "core": _terms("I(Y2;U2,W1,W2|Q)"),
           "binning": _terms("I(W2;W1,U1|Q)", "I(U2;U1,W1,W2|Q)")},
}


# --- baseline-region constants (rows 6-1..6-14).
#     Row 6-11 (d2) subtracts U2's binning cost I(U2;U1,W1|Q), as every
#     other constant whose rate sum contains S2 does (a2, e2, g2 here;
#     A2, D2, E2, G2 in the general region).  The source text of this row
#     is not in the repo; the term is inferred: without it d2 >= D2 on every
#     baseline input (data processing over U2 - (Q,U1,W1) - W2), so the
#     baseline region could not sit inside the general one constant-wise.
#     If the source text ever disagrees, row 6-11 and the d2 line of
#     COROLLARY5_TABLE are the two places to look.
DMT_TERMS: dict[str, tuple[InfoTerm, ...]] = {
    "a1": _terms("I(W1,W2;U1|Q)", "I(Y1;U1|Q,W1,W2)"),
    "b1": _terms("I(U1,W2;W1|Q)", "I(Y1;W1|Q,W2,U1)"),
    "c1": _terms("I(Y1;W2|Q,U1,W1)"),
    "d1": _terms("I(W2;W1,U1|Q)", "I(Y1;U1,W1|Q,W2)"),
    "e1": _terms("I(Y1;U1,W2|Q,W1)", "I(U1,W2;W1|Q)", ("-", "I(W2;W1,U1|Q)")),
    "f1": _terms("I(W1,W2;U1|Q)", "I(Y1;W1,W2|Q,U1)", ("-", "I(W2;W1,U1|Q)")),
    "g1": _terms("I(Y1;U1,W1,W2|Q)", ("-", "I(W2;W1,U1|Q)")),
    "a2": _terms("I(U2;W1,W2|Q)", "I(Y2;U2|Q,W1,W2)", ("-", "I(U2;U1,W1|Q)")),
    "b2": _terms("I(W2;W1,U2|Q)", "I(Y2;W2|Q,W1,U2)", ("-", "I(W2;W1,U1|Q)")),
    "c2": _terms("I(W2,U2;W1|Q)", "I(Y2;W1|Q,W2,U2)"),
    "d2": _terms("I(W2,U2;W1|Q)", "I(Y2;U2,W2|Q,W1)", ("-", "I(W2;U1,W1|Q)"),
                 ("-", "I(U2;U1,W1|Q)")),
    "e2": _terms("I(W1,U2;W2|Q)", "I(Y2;U2,W1|Q,W2)", ("-", "I(U2;U1,W1|Q)")),
    "f2": _terms("I(U2;W1,W2|Q)", "I(Y2;W1,W2|Q,U2)", ("-", "I(W2;U1,W1|Q)")),
    "g2": _terms("I(Y2;U2,W1,W2|Q)", ("-", "I(W2;W1,U1|Q)"), ("-", "I(U2;U1,W1|Q)")),
}

# --- split-private-message bounds (rows 8-1..8-8; no time-sharing
#     variable in this family).
RTD_TERMS: dict[str, tuple[InfoTerm, ...]] = {
    "8-1": _terms("I(Y1;W2,W1,U1a,U1b)", ("-", "I(U2;U1b|W1,W2,U1a)")),
    "8-2": _terms("I(Y1;W2,U1a,U1b|W1)", ("-", "I(U2;U1b|W1,W2,U1a)")),
    "8-3": _terms("I(Y1;U1a,U1b|W1,W2)", "I(W2;U1a|W1)", ("-", "I(U2;U1b|W1,W2,U1a)")),
    "8-4": _terms("I(Y1;W2,U1b|W1,U1a)", ("-", "I(U2;U1b|W1,W2,U1a)")),
    "8-5": _terms("I(Y1;U1b|W1,W2,U1a)", "I(W2;U1a|W1)", ("-", "I(U2;U1b|W1,W2,U1a)")),
    "8-6": _terms("I(Y2;W1,W2,U2)", ("-", "I(W2;U1a|W1)"), ("-", "I(U2;U1a|W1,W2)")),
    "8-7": _terms("I(Y2;W2,U2|W1)", ("-", "I(W2;U1a|W1)"), ("-", "I(U2;U1a|W1,W2)")),
    "8-8": _terms("I(Y2;U2|W1,W2)", ("-", "I(U2;U1a|W1,W2)")),
}

# --- simplified-region constants (rows 14-1..14-8); the channel-input
#     expressions are the definition, the auxiliary-variable spellings
#     live in EQ14_UFORM for the verifier.
HOD1_PARTS: dict[str, dict[str, tuple[InfoTerm, ...]]] = {
    "A1": {"interference": _terms("I(W2;X1|Q)"), "core": _terms("I(Y1;X1|W1,W2,Q)")},
    "D1": {"interference": _terms("I(W2;X1|Q)"), "core": _terms("I(Y1;X1|W2,Q)")},
    "E1": {"core": _terms("I(Y1;X1,W2|W1,Q)")},
    "G1": {"core": _terms("I(Y1;X1,W2|Q)")},
    "A2": {"interference": _terms("I(X2;W1|Q)"), "core": _terms("I(Y2;X2|W1,W2,Q)"),
           "binning": _terms("I(X2;X1|Q,W2)")},
    "D2": {"interference": _terms("I(X2;W1|Q)"), "core": _terms("I(Y2;X2|W1,Q)"),
           "binning": _terms("I(W2;X1|Q)", "I(X2;X1|Q,W2)")},
    "E2": {"interference": _terms("I(X2;W1|Q)"), "core": _terms("I(Y2;X2,W1|Q,W2)"),
           "binning": _terms("I(X2;X1|Q,W2)")},
    "G2": {"interference": _terms("I(X2;W1|Q)"), "core": _terms("I(Y2;X2,W1|Q)"),
           "binning": _terms("I(W2;X1|Q)", "I(X2;X1|Q,W2)")},
}


# Auxiliary-variable spellings of the same eight constants with the private
# messages identified with the channel inputs (U1 -> X1, U2 -> X2).
EQ14_UFORM: dict[str, tuple[InfoTerm, ...]] = {
    "A1": _terms("I(Y1;X1|W1,W2,Q)", "I(W2;W1,X1|Q)"),
    "D1": _terms("I(Y1;X1,W1|W2,Q)", "I(W2;W1,X1|Q)"),
    "E1": _terms("I(Y1;X1,W2|W1,Q)"),
    "G1": _terms("I(Y1;X1,W1,W2|Q)"),
    "A2": _terms("I(X2;W2|Q)", "I(W2,X2;W1|Q)", "I(Y2;X2|Q,W1,W2)",
                 ("-", "I(X2;X1,W1,W2|Q)")),
    "D2": _terms("I(X2;W2|Q)", "I(W2,X2;W1|Q)", "I(Y2;X2,W2|Q,W1)",
                 ("-", "I(W2;X1,W1|Q)"), ("-", "I(X2;X1,W1,W2|Q)")),
    "E2": _terms("I(X2;W2|Q)", "I(W2,X2;W1|Q)", "I(Y2;X2,W1|Q,W2)",
                 ("-", "I(X2;X1,W1,W2|Q)")),
    "G2": _terms("I(X2;W2|Q)", "I(W1;X2,W2|Q)", "I(Y2;X2,W1,W2|Q)",
                 ("-", "I(W2;W1,X1|Q)"), ("-", "I(X2;X1,W1,W2|Q)")),
}


@dataclass(frozen=True)
class BoundConstants:
    """Evaluated right-hand sides of one region family, in bits."""

    family: str  # hod | dmt | rtd | hod1
    values: dict[str, float]

    def __getitem__(self, label: str) -> float:
        return self.values[label]


def _signed_terms(parts_by_label) -> dict[str, tuple[InfoTerm, ...]]:
    """Each constant's defining terms from its parts: correlation,
    interference and core added, then every binning cost subtracted."""
    out = {}
    for label, parts in parts_by_label.items():
        added = [t for key in ("correlation", "interference", "core") for t in parts.get(key, ())]
        out[label] = tuple(added) + tuple(replace(t, sign=-1) for t in parts.get("binning", ()))
    return out


@dataclass
class _Family:
    """Everything the package knows about one region family."""

    form: str  # factorization its inputs must satisfy (the guard)
    terms: dict[str, tuple[InfoTerm, ...]]  # defining terms by label, in row order
    eq_prefix: str  # the catalogue labels its rows eq_prefix-1, eq_prefix-2, ...
    system: str  # its own quadruple/quintuple description for build_system
    parts: dict | None = None  # add-on decomposition behind the terms, if any
    equations: dict[str, str] = field(init=False)
    table: TermTable = field(init=False)  # the constants
    cores: dict | None = field(init=False)  # each constant's core terms only, by label
    addons: dict | None = field(init=False)  # each distinct add-on term, by spelling

    def __post_init__(self):
        self.equations = {k: f"{self.eq_prefix}-{i + 1}" for i, k in enumerate(self.terms)}
        self.table = TermTable(self.terms)
        self.cores = self.addons = None
        if self.parts is not None:
            self.cores = {k: p["core"] for k, p in self.parts.items()}
            self.addons = {t.describe(): (t,) for p in self.parts.values()
                           for key in ("correlation", "interference", "binning")
                           for t in p.get(key, ())}


# The one place a family is defined.
_FAMILIES: dict[str, _Family] = {
    "hod": _Family("hod9", _signed_terms(HOD_PARTS), "10", "thm3-quadruple", HOD_PARTS),
    "dmt": _Family("dmt5", DMT_TERMS, "6", "dmt-quadruple"),
    "rtd": _Family("rtd7", RTD_TERMS, "8", "rtd-quintuple"),
    "hod1": _Family("hod12", _signed_terms(HOD1_PARTS), "14", "thm5-quadruple", HOD1_PARTS),
}


def _guarded(d: JointDistribution, form: str):
    """Refuse d unless it factors along ``form``: at once if ``compose`` built d
    along a chain that implies the form, else by the numeric check."""
    if d._spec is not None and d._spec.implies(FORMS[form]):
        return
    ok, worst = validate_factorization(d, FORMS[form])
    if worst > CONSTANT_REJECT_TOL:
        raise ModelError(
            f"distribution violates factorization {form} by {worst:.3g} "
            f"(limit {CONSTANT_REJECT_TOL})")


def part_table(families, **parts) -> TermTable:
    """One compiled table over the constants of ``families`` and the named
    ``parts`` (each a label -> terms dict), its rows keyed (part, label); a
    family's constants are the part named after it."""
    rows = {family: _FAMILIES[family].terms for family in families} | parts
    return TermTable({(part, label): terms for part, by_label in rows.items()
                      for label, terms in by_label.items()})


def evaluate_parts(d: JointDistribution, table: TermTable) -> dict[str, dict[str, float]]:
    """A ``part_table`` on d, split by part, then label.  d is first guarded
    for every family whose constants the table holds."""
    parts: dict[str, dict[str, float]] = {part: {} for part, _ in table.rows}
    for part in parts:
        if part in _FAMILIES:
            _guarded(d, _FAMILIES[part].form)
    for (part, label), value in table.evaluate(d).items():
        parts[part][label] = value
    return parts


def _constants(d: JointDistribution, family: str) -> BoundConstants:
    fam = _FAMILIES[family]
    _guarded(d, fam.form)
    return BoundConstants(family, fam.table.evaluate(d))


def constants_for(d: JointDistribution, family: str) -> BoundConstants:
    """``family``'s constants on d.  ``<family>_constants`` is looked up at call
    time, so a rebinding of that module attribute (a tracer's) sees the call."""
    return globals()[f"{family}_constants"](d)


def hod_constants(d: JointDistribution) -> BoundConstants:
    """All 14 general-region constants A1..G2 (rows 10-1..10-14)."""
    return _constants(d, "hod")


def dmt_constants(d: JointDistribution) -> BoundConstants:
    """All 14 baseline-region constants a1..g2 (rows 6-1..6-14)."""
    return _constants(d, "dmt")


def rtd_constants(d: JointDistribution) -> BoundConstants:
    """The 8 split-private-message bounds (rows 8-1..8-8)."""
    return _constants(d, "rtd")


def hod1_constants(d: JointDistribution) -> BoundConstants:
    """The 8 simplified-region constants, channel-input form (rows 14-1..14-8)."""
    return _constants(d, "hod1")


# --- rate vectors for the quadruple/quintuple rows, keyed by constant label.
_QUAD_VARS = ("T1", "S1", "T2", "S2")
_RATE_PAIR = ("R1", "R2")
_QUAD_RATES = {
    "A1": {"S1": 1}, "B1": {"T1": 1}, "C1": {"T2": 1}, "D1": {"S1": 1, "T1": 1},
    "E1": {"S1": 1, "T2": 1}, "F1": {"T1": 1, "T2": 1}, "G1": {"S1": 1, "T1": 1, "T2": 1},
    "A2": {"S2": 1}, "B2": {"T2": 1}, "C2": {"T1": 1}, "D2": {"S2": 1, "T2": 1},
    "E2": {"S2": 1, "T1": 1}, "F2": {"T1": 1, "T2": 1}, "G2": {"S2": 1, "T1": 1, "T2": 1},
}

_RTD_VARS = ("T1", "S1a", "S1b", "T2", "S2")
_RTD_RATES = {
    "8-1": {"T1": 1, "T2": 1, "S1a": 1, "S1b": 1},
    "8-2": {"T2": 1, "S1a": 1, "S1b": 1},
    "8-3": {"S1a": 1, "S1b": 1},
    "8-4": {"T2": 1, "S1b": 1},
    "8-5": {"S1b": 1},
    "8-6": {"T1": 1, "T2": 1, "S2": 1},
    "8-7": {"T2": 1, "S2": 1},
    "8-8": {"S2": 1},
}

# --- catalogued rate-pair descriptions: (label, rate vector, constant labels).
THM4_ROWS = [
    ("11-1", {"R1": 1}, ["D1"]),
    ("11-2", {"R1": 1}, ["A1", "C2"]),
    ("11-3", {"R1": 1}, ["G1"]),
    ("11-4", {"R1": 1}, ["F2", "A1"]),
    ("11-5", {"R1": 1}, ["C2", "E1"]),
    ("11-6", {"R1": 1}, ["B1", "E1"]),
    ("11-7", {"R1": 1}, ["E2", "A1"]),
    ("11-8", {"R1": 1}, ["F2", "E1"]),
    ("11-9", {"R2": 1}, ["D2"]),
    ("11-10", {"R2": 1}, ["A2", "C1"]),
    ("11-11", {"R2": 1}, ["E1", "A2"]),
    ("11-12", {"R1": 1, "R2": 1}, ["E1", "E2"]),
    ("11-13", {"R1": 1, "R2": 1}, ["G2", "A1"]),
    ("11-14", {"R1": 1, "R2": 1}, ["G1", "A2"]),
    ("11-15", {"R1": 1, "R2": 1}, ["B1", "E1", "A2"]),
    ("11-16", {"R1": 1, "R2": 1}, ["E1", "G2"]),
    ("11-17", {"R1": 2, "R2": 1}, ["G1", "E2", "A1"]),
    ("11-18", {"R1": 2, "R2": 1}, ["F2", "E2", "A1", "A1"]),
    ("11-19", {"R1": 1, "R2": 2}, ["F1", "E1", "A2", "A2"]),
    ("11-20", {"R1": 1, "R2": 2}, ["E1", "G2", "A2"]),
]

THM6_ROWS = [
    ("15-1", {"R1": 1}, ["D1"]),
    ("15-2", {"R1": 1}, ["A1", "E2"]),
    ("15-3", {"R1": 1}, ["G1"]),
    ("15-4", {"R2": 1}, ["D2"]),
    ("15-5", {"R2": 1}, ["A2", "E1"]),
    ("15-6", {"R1": 1, "R2": 1}, ["A1", "G2"]),
    ("15-7", {"R1": 1, "R2": 1}, ["A2", "G1"]),
    ("15-8", {"R1": 1, "R2": 1}, ["E1", "E2"]),
    ("15-9", {"R1": 1, "R2": 1}, ["E1", "G2"]),
    ("15-10", {"R1": 2, "R2": 1}, ["A1", "G1", "E2"]),
    ("15-11", {"R1": 1, "R2": 2}, ["A2", "G2", "E1"]),
]

# The 37-row intermediate list obtained by eliminating T1 and T2 before
# any redundancy removal, in its catalogued order.
INTERMEDIATE37_ROWS = [
    ({"R1": 1}, combo) for combo in (
        ["D1"], ["C2", "A1"], ["A1", "B1"], ["G1"], ["F2", "A1"], ["C2", "E1"],
        ["B1", "E1"], ["F1", "A1"], ["F1", "E1"], ["E2", "A1"], ["F2", "E1"])
] + [
    ({"R2": 1}, combo) for combo in (["D2"], ["A2", "C1"], ["A2", "B2"], ["A2", "E1"])
] + [
    ({"R1": 1, "R2": 1}, combo) for combo in (
        ["E2", "E1"], ["G2", "A1"], ["E2", "A1", "C1"], ["E2", "A1", "B2"],
        ["E2", "A1", "E1"], ["G1", "A2"], ["C2", "E1", "A2"], ["F2", "A1", "A2"],
        ["B1", "E1", "A2"], ["F1", "A1", "A2"], ["G2", "E1"])
] + [
    ({"R1": 2, "R2": 1}, combo) for combo in (
        ["E2", "A1", "G1"], ["E2", "A1", "C2", "E1"], ["E2", "F2", "A1", "A1"],
        ["E2", "A1", "B1", "E1"], ["E2", "F1", "A1", "A1"])
] + [
    ({"R1": 1, "R2": 2}, combo) for combo in (
        ["F1", "E1", "A2", "A2"], ["A2", "G2", "E1"], ["F2", "E1", "A2", "A2"])
] + [
    ({"R1": 3, "R2": 2}, combo) for combo in (
        ["F1", "E1", "E2", "E2", "A1", "A1"], ["F2", "E1", "E2", "E2", "A1", "A1"])
] + [
    ({"R1": 2, "R2": 2}, ["G2", "E1", "E2", "A1"]),
]
_ROWS37 = [(f"37:{i + 1}", rates, combo) for i, (rates, combo) in enumerate(INTERMEDIATE37_ROWS)]


def _own_rows(family: str, rates: dict, prefix: str | None = None) -> list:
    """One row per constant of ``family``, labelled prefix-i (default: its own
    equation labels); rates are keyed by upper-case label (dmt's a1 reads A1's)."""
    fam = _FAMILIES[family]
    prefix = prefix or fam.eq_prefix
    return [(f"{prefix}-{i + 1}", rates[k.upper()], [k]) for i, k in enumerate(fam.terms)]


# description -> (family, rate variables, rows (label, rate vector, constant labels))
_SYSTEMS = {
    "thm3-quadruple": ("hod", _QUAD_VARS, _own_rows("hod", _QUAD_RATES)),
    "dmt-quadruple": ("dmt", _QUAD_VARS, _own_rows("dmt", _QUAD_RATES)),
    "thm5-quadruple": ("hod1", _QUAD_VARS, _own_rows("hod1", _QUAD_RATES, "13")),
    "rtd-quintuple": ("rtd", _RTD_VARS, _own_rows("rtd", _RTD_RATES)),
    "thm4-ratepair": ("hod", _RATE_PAIR, THM4_ROWS),
    "thm6-ratepair": ("hod1", _RATE_PAIR, THM6_ROWS),
    "thm4-intermediate37": ("hod", _RATE_PAIR, _ROWS37),
}


@functools.cache
def _row_plan(description: str) -> tuple:
    """A catalogued description compiled once: its variables, then per row
    (label, primitive coefficients, scale, constant labels), then its
    -x <= 0 rows."""
    variables, rows = _SYSTEMS[description][1:]
    plan = tuple((label, *_primitive(tuple(rates.get(v, 0) for v in variables)),
                  tuple(combo)) for label, rates, combo in rows)
    return variables, plan, tuple(nonnegativity_rows(variables))


def _rows_system(constants: BoundConstants, description: str) -> InequalitySystem:
    """Each row bounds its rate vector by the sum of its constants; then -x <= 0."""
    variables, plan, nonnegative = _row_plan(description)
    values = constants.values
    rows = [Halfspace(coeffs, float(sum(values[k] for k in combo)) * scale, label)
            for label, coeffs, scale, combo in plan]
    return InequalitySystem(variables, tuple(rows) + nonnegative)


def build_system(constants: BoundConstants, description: str) -> InequalitySystem:
    """Assemble a catalogued inequality system from evaluated constants."""
    if description not in _SYSTEMS:
        raise ValueError(f"unknown system description {description!r}")
    family = _SYSTEMS[description][0]
    if constants.family != family:
        raise ValueError(
            f"{description} needs {family!r} constants, got {constants.family!r}")
    return _rows_system(constants, description)


# --- pre-binning decoding budgets at the cognitive receiver, plus the two
#     binning costs linking budget rates (s2, t2) to message rates (S2, T2):
#     (label, rate vector, terms of its bound).
BINNING_COST_W2 = iterm("I(W2;W1,U1|Q)")
BINNING_COST_U2 = iterm("I(U2;U1,W1,W2|Q)")
_BUDGET_ROWS = [
    ("budget-s2", {"s2": 1}, _terms("I(W1;U2,W2|Q)", "I(Y2;U2|Q,W1,W2)", "I(U2;W2|Q)")),
    ("budget-T1", {"T1": 1}, _terms("I(U2;W2|Q)", "I(W2,U2;W1|Q)", "I(Y2;W1|Q,U2,W2)")),
    ("budget-t2", {"t2": 1}, _terms("I(U2;W2|Q)", "I(W1;W2,U2|Q)", "I(Y2;W2|Q,W1,U2)")),
    ("budget-s2T1", {"s2": 1, "T1": 1},
     _terms("I(U2;W2|Q)", "I(W1;W2,U2|Q)", "I(Y2;U2,W1|Q,W2)")),
    ("budget-s2t2", {"s2": 1, "t2": 1},
     _terms("I(U2;W2|Q)", "I(W1;W2,U2|Q)", "I(Y2;U2,W2|Q,W1)")),
    ("budget-T1t2", {"T1": 1, "t2": 1},
     _terms("I(U2;W2|Q)", "I(W1;W2,U2|Q)", "I(Y2;W1,W2|Q,U2)")),
    ("budget-T1s2t2", {"T1": 1, "s2": 1, "t2": 1},
     _terms("I(U2;W2|Q)", "I(W1;W2,U2|Q)", "I(Y2;U2,W1,W2|Q)")),
    ("bin-t2", {"T2": 1, "t2": -1}, (replace(BINNING_COST_W2, sign=-1),)),
    ("bin-s2", {"S2": 1, "s2": -1}, (replace(BINNING_COST_U2, sign=-1),)),
]
_BUDGET_TABLE = TermTable({label: terms for label, _, terms in _BUDGET_ROWS})


def binning_budget_system(d: JointDistribution) -> InequalitySystem:
    """Budget system over (S2, T2, T1, s2, t2); eliminating s2 and t2 must
    reproduce the user-2 rows of the quadruple region."""
    _guarded(d, _FAMILIES["hod"].form)
    variables = ("S2", "T2", "T1", "s2", "t2")
    bounds = _BUDGET_TABLE.evaluate(d)
    return InequalitySystem(variables, tuple(
        make_row([rates.get(v, 0) for v in variables], bounds[label], label)
        for label, rates, _ in _BUDGET_ROWS))


# --- identity tables used by the verifier ------------------------------------

# Baseline constant = general constant minus these terms (catalogued
# comparison table; holds on the baseline input family).  Each line is the
# chain rule on the dmt5 factorization, where I(U1;W1|Q) and
# I(U2;W2|Q,U1,W1) vanish: e.g. F1 - f1 = I(W2;W1|Q) (rows 10-6, 6-6) and
# D2 - d2 = I(U2;W2|Q) (rows 10-11, 6-11; see the note on row 6-11).
COROLLARY5_TABLE: dict[str, tuple[str, tuple[InfoTerm, ...]]] = {
    "a1": ("A1", _terms("I(W2;W1|Q)")),
    "b1": ("B1", _terms("I(W2;U1|Q)")),
    "c1": ("C1", _terms("I(U1;W1|Q)")),
    "d1": ("D1", ()),
    "e1": ("E1", _terms("I(W2;U1|Q)")),
    "f1": ("F1", _terms("I(W2;W1|Q)")),
    "g1": ("G1", _terms("I(W2;U1,W1|Q)")),
    "a2": ("A2", _terms("I(W2;W1|Q)")),
    "b2": ("B2", _terms("I(W1;U2|Q)")),
    "c2": ("C2", _terms("I(U2;W2|Q)")),
    "d2": ("D2", _terms("I(U2;W2|Q)")),
    "e2": ("E2", _terms("I(W1;U2|Q)")),
    "f2": ("F2", _terms("I(W1;W2|Q)")),
    "g2": ("G2", _terms("I(U2;W2|Q)", "I(W1;W2,U2|Q)")),
}

# Quadruple-region bound expressions evaluated on the split-private-message
# joint (private message = (U1a, U1b), no time-sharing variable), for the
# split-region comparison.  Keys name the rate sum being bounded.
HOD_ON_SPLIT: dict[str, tuple[InfoTerm, ...]] = {
    "S1+T1+T2": _terms("I(Y1;U1a,U1b,W1,W2)"),
    "S1": _terms("I(W2;U1a,U1b,W1)", "I(Y1;U1a,U1b|W1,W2)"),
    "S1+T2": _terms("I(Y1;U1a,U1b,W2|W1)"),
    "S1b+T2": _terms("I(Y1;U1b,W2|W1,U1a)"),
    "S1b": _terms("I(W2;U1b,W1,U1a)", "I(Y1;U1b|W1,U1a,W2)"),
    "S2+T1+T2": _terms("I(U2;W2)", "I(W1;U2,W2)", "I(Y2;U2,W1,W2)",
                       ("-", "I(W2;W1,U1a,U1b)"), ("-", "I(U2;U1a,U1b,W1,W2)")),
    "S2+T2": _terms("I(U2;W2)", "I(W2,U2;W1)", "I(Y2;U2,W2|W1)",
                    ("-", "I(W2;U1a,U1b,W1)"), ("-", "I(U2;U1a,U1b,W1,W2)")),
    "S2": _terms("I(U2;W2)", "I(W2,U2;W1)", "I(Y2;U2|W1,W2)",
                 ("-", "I(U2;U1a,U1b,W1,W2)")),
}

# The eight split-region relations: rtd bound = matching quadruple bound
# minus delta (sign +1), or quadruple bound = rtd bound minus delta (-1).
# The S1 line is stated with the full I(U2,W2; U1b | W1,U1a) grouping, which
# is the exact identity; the narrow variant drops U2 there and its residual
# I(U2;U1b|W1,U1a,W2) is reported by the verifier rather than asserted.
COROLLARY6_LINES = [
    ("S1+T1+T2", "8-1", +1, _terms("I(U2;U1b|W1,W2,U1a)")),
    ("S1", "8-3", +1, _terms("I(W2;W1)", "I(U2,W2;U1b|W1,U1a)")),
    ("S1+T2", "8-2", +1, _terms("I(U2;U1b|W1,W2,U1a)")),
    ("S1b+T2", "8-4", +1, _terms("I(U2;U1b|W1,W2,U1a)")),
    ("S1b", "8-5", +1, _terms("I(W2;W1)", "I(U2,W2;U1b|W1,U1a)")),
    ("S2+T1+T2", "8-6", -1, _terms("I(W2,U2;U1b|W1,U1a)")),
    ("S2+T2", "8-7", -1, _terms("I(W2,U2;U1b|W1,U1a)")),
    ("S2", "8-8", -1, _terms(("-", "I(W2;W1)"), "I(U2;U1b|W1,W2,U1a)")),
]

COROLLARY6_NARROW_S1_DELTA = _terms("I(W2;W1)", "I(W2;U1b|W1,U1a)")

# Residual separating the two spellings in the duality table: zero whenever
# the public messages are recoverable from their channel inputs.
EQ14_MARKOV_RESIDUAL = iterm("I(W2;W1|Q,X1)")


# How each rate space reaches (R1, R2): substitutions, then eliminations.
_TO_RATEPAIR = {
    _QUAD_VARS: ((("S1", {"R1": 1, "T1": -1}), ("S2", {"R2": 1, "T2": -1})), ("T1", "T2")),
    _RTD_VARS: ((("S1a", {"R1": 1, "T1": -1, "S1b": -1}), ("S2", {"R2": 1, "T2": -1})),
                ("T1", "S1b", "T2")),
}


def project_to_ratepair(sys: InequalitySystem) -> InequalitySystem:
    """Eliminate the per-message rates, leaving (R1, R2).

    Runs substitution and Fourier-Motzkin elimination on the rows as given.
    Quadruple systems use R1 = S1 + T1, R2 = S2 + T2; the quintuple system
    uses R1 = T1 + S1a + S1b, R2 = T2 + S2.  Substitution appends R1, then
    R2, and the eliminations leave only those two, so the result is over
    ("R1", "R2") whatever the input's variable order.
    """
    for variables, (substitutions, eliminations) in _TO_RATEPAIR.items():
        if set(sys.variables) == set(variables):
            break
    else:
        raise ValueError(f"no rate-pair mapping for variables {sys.variables}")
    s = sys
    for var, expr in substitutions:
        s = substitute(s, var, expr)
    for var in eliminations:
        s = fm_eliminate(s, var)
    return s


def ratepair_projection(constants: BoundConstants) -> InequalitySystem:
    """The family's own quadruple/quintuple system projected to (R1, R2):
    ``project_to_ratepair(build_system(constants, <that system>))``."""
    return project_to_ratepair(_rows_system(constants, _FAMILIES[constants.family].system))
