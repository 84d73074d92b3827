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

The general region is written once, in ``HOD_PARTS`` and ``_QUAD_RATES``;
``_hod_row`` derives its other forms by renaming each variable or rate to a
tuple of them (an empty tuple drops it): ``EQ14_UFORM`` with U1 -> X1, U2 -> X2;
``HOD_ON_SPLIT`` with U1 -> (U1a, U1b) and Q dropped, its two S1b rows with
U1 -> U1b, W1 -> (W1, U1a); the budget rows with S2 -> s2, T2 -> t2.

Catalogued systems have fixed integer coefficients; only their bounds
depend on the joint.  So each description's rows (primitive coefficients,
scales, labels) are compiled once, on first use, and ``build_system``
computes only the float bounds per joint (rows on first read).  ``ratepair_projection`` is
``project_to_ratepair`` of a family's own system, which runs
``polytope``'s one elimination loop on the steps ``_TO_RATEPAIR`` names.

Every constant is defined only on inputs of its family's guard form, so each
constants call first checks it.  A joint ``compose`` or ``prob.draw`` built
along a chain that implies the form (for example ``hk3``, ``dmt5``, ``ic1``
or ``crc2`` under ``hod9``, ``cmg4`` under ``hod12``) passes without a look
at its table, and so does its marginal on the variables the family mentions
(``_Family.variables``; ``keep``).  A marginal of any other
chain is refused.  Every other joint, user-built or composed along a chain
that does not imply the form, is rebuilt by ``validate_factorization`` and
refused above ``CONSTANT_REJECT_TOL``.  The constants do not depend on which
way it went.

Constants are floats in bits; inequality coefficients are primitive integers.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace

from .measures import InfoTerm, TermTable
from .polytope import (InequalitySystem, _built, _plane_plan, _primitive, _project, make_row,
                       nonnegativity_rows)
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
#     expressions are the definition (EQ14_UFORM holds the other spelling).
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

    @functools.cached_property
    def variables(self) -> frozenset:
        """The variables its terms mention."""
        return frozenset().union(*self.table.subsets)


# The one place a family is defined.
_FAMILIES: dict[str, _Family] = {
    "hod": _Family("hod9", _signed_terms(HOD_PARTS), "10", "thm3-quadruple", HOD_PARTS),
    "dmt": _Family("dmt5", DMT_TERMS, "6", "dmt-quadruple"),
    "rtd": _Family("rtd7", RTD_TERMS, "8", "rtd-quintuple"),
    "hod1": _Family("hod12", _signed_terms(HOD1_PARTS), "14", "thm5-quadruple", HOD1_PARTS),
}


def _guarded(d: JointDistribution, form: str):
    """Refuse d unless it factors along ``form``: at once if ``compose`` or
    ``prob.draw`` built d, or its marginal, along a chain that implies the
    form, else by the numeric check, which needs every variable of the form.
    The skip is sound because each built joint's tables were valid: checked by
    ``compose`` (tables from outside, pinned overrides among them) or valid by
    construction (a draw's), so the joint violates the form by round-off only."""
    spec = d._spec
    if spec is not None and spec.implies(FORMS[form]):
        return
    if spec is not None and len(d.names) < len(spec.variables):
        raise ModelError(f"a marginal of a {spec.form} joint cannot be checked against "
                         f"factorization {form}: {spec.form} does not imply {form}")
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


def _hod_row(label: str, names: dict, parts=("correlation", "interference", "core", "binning")):
    """General-region row ``label`` read in another form: its rate vector and
    the terms of its ``parts`` (binning subtracted), with each variable or
    rate v renamed to the tuple ``names[v]``; an empty tuple drops v."""
    rename = lambda vs: tuple(w for v in vs for w in names.get(v, (v,)))
    kept = {part: terms for part, terms in HOD_PARTS[label].items() if part in parts}
    return ({w: c for v, c in _QUAD_RATES[label].items() for w in rename((v,))},
            tuple(replace(t, left=rename(t.left), right=rename(t.right), cond=rename(t.cond))
                  for t in _signed_terms({label: kept})[label]))


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
    """A catalogued description compiled once: its variables, its rows'
    primitive coefficients and labels (its -x <= 0 rows last), each
    catalogued row's scale and constant labels, and the cached properties
    its systems preset (a rate-pair system's ``_plane_plan``)."""
    variables, rows = _SYSTEMS[description][1:]
    scaled = [_primitive(tuple(rates.get(v, 0) for v in variables)) for _, rates, _ in rows]
    nonnegative = nonnegativity_rows(variables)
    coeffs = tuple(cs for cs, _ in scaled) + tuple(r.coeffs for r in nonnegative)
    labels = tuple(label for label, _, _ in rows) + tuple(r.label for r in nonnegative)
    sums = tuple((scale, tuple(combo)) for (_, scale), (_, _, combo) in zip(scaled, rows))
    known = {"_plan": _plane_plan(coeffs)} if len(variables) == 2 else {}
    return variables, coeffs, labels, sums, known


def _rows_system(constants: BoundConstants, description: str) -> InequalitySystem:
    """Each row bounds its rate vector by the sum of its constants, folded
    from the left from 0.0 as ``polytope._left_sum`` does (inline: it is
    the hot loop); then -x <= 0.  Only the bounds are computed: the rows
    are made when first read."""
    variables, coeffs, labels, sums, known = _row_plan(description)
    values, bounds = constants.values, []
    for scale, combo in sums:  # the plan's coefficients are primitive
        total = 0.0
        for k in combo:
            total += values[k]
        bounds.append(total * scale)
    bounds += [0.0] * (len(coeffs) - len(sums))
    return _built(variables, coeffs, bounds, labels, **known)


def build_system(constants: BoundConstants, description: str) -> InequalitySystem:
    """Assemble a catalogued inequality system from evaluated constants."""
    if description not in _SYSTEMS:
        raise ValueError(f"unknown system description {description!r}")
    family = _SYSTEMS[description][0]
    if constants.family != family:
        raise ValueError(
            f"{description} needs {family!r} constants, got {constants.family!r}")
    return _rows_system(constants, description)


# --- pre-binning decoding budgets at the cognitive receiver: (label, rate
#     vector, terms of its bound).  A user-2 row's budget is its general row
#     before binning, over the budget rates s2, t2 in place of S2, T2; then
#     B2's and A2's binning costs link each budget rate to its message rate.
_BUDGET_NAMES = {"S2": ("s2",), "T2": ("t2",)}
_BUDGET_ROWS = [(budget, *_hod_row(label, _BUDGET_NAMES, ("correlation", "interference", "core")))
                for budget, label in (("budget-s2", "A2"), ("budget-T1", "C2"),
                                      ("budget-t2", "B2"), ("budget-s2T1", "E2"),
                                      ("budget-s2t2", "D2"), ("budget-T1t2", "F2"),
                                      ("budget-T1s2t2", "G2"))]
_BUDGET_ROWS += [(f"bin-{rate}", _QUAD_RATES[label] | {rate: -1}, cost)  # T2 - t2 <= -cost
                 for label in ("B2", "A2")
                 for (rate,), cost in [_hod_row(label, _BUDGET_NAMES, ("binning",))]]
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

# The quadruple bounds on the split-private-message joint, keyed by the rate
# sum they bound: the private message U1 is (U1a, U1b) and there is no Q.
# The two S1b bounds read U1b as the private message, of rate S1b, and
# (W1, U1a) as the public one.
_SPLIT_NAMES = {"U1": ("U1a", "U1b"), "Q": ()}
_S1B_NAMES = {"U1": ("U1b",), "W1": ("W1", "U1a"), "S1": ("S1b",), "Q": ()}
HOD_ON_SPLIT: dict[str, tuple[InfoTerm, ...]] = {
    "+".join(rates): terms for rates, terms in (_hod_row(label, names) for label, names in (
        ("G1", _SPLIT_NAMES), ("A1", _SPLIT_NAMES), ("E1", _SPLIT_NAMES), ("E1", _S1B_NAMES),
        ("A1", _S1B_NAMES), ("G2", _SPLIT_NAMES), ("D2", _SPLIT_NAMES), ("A2", _SPLIT_NAMES)))}

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

# The simplified constants' auxiliary-variable spellings: their general
# terms with the private messages read as the channel inputs.
EQ14_UFORM: dict[str, tuple[InfoTerm, ...]] = {
    label: _hod_row(label, {"U1": ("X1",), "U2": ("X2",)})[1] for label in HOD1_PARTS}

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

    Substitution, then Fourier-Motzkin elimination, on the rows as given.
    Quadruple systems use R1 = S1 + T1, R2 = S2 + T2; the quintuple system
    uses R1 = T1 + S1a + S1b, R2 = T2 + S2.  Substitution appends R1, then
    R2, and the eliminations leave only those two, so the result is over
    ("R1", "R2") whatever the input's variable order.  The steps
    (``_TO_RATEPAIR``) run in ``polytope``'s one loop, so the rows are
    bitwise those of ``substitute`` and ``fm_eliminate`` applied in turn.
    """
    for rate_space, (substitutions, eliminations) in _TO_RATEPAIR.items():
        if set(sys.variables) == set(rate_space):
            return _project(sys, substitutions, eliminations)
    raise ValueError(f"no rate-pair mapping for variables {sys.variables}")


def ratepair_projection(constants: BoundConstants) -> InequalitySystem:
    """The family's own quadruple/quintuple system projected to (R1, R2):
    ``project_to_ratepair(build_system(constants, <that system>))``."""
    return project_to_ratepair(_rows_system(constants, _FAMILIES[constants.family].system))
