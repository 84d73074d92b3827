"""Finite-alphabet joint distributions for interference / cognitive radio models.

Dense probability tables over a small set of named variables
(Q, W1, U1, W2, U2, X1, X2, Y1, Y2, plus the split U1a/U1b), with

- chain-structured construction from conditional factor tables (each
  catalogued chain ends in the channel kernel p(y1,y2|x1,x2)), of the full
  joint or, summing variables out along the chain, of a marginal; a full
  joint of at most ``GATHER_CELLS`` cells is one gather through a cached
  index, each cell multiplied in chain order as the per-factor steps do,
- marginalization,
- factorization validation (does a table factor according to a given chain),
  numerically on any table and structurally between chains,
- reproducible sampling of factor tables uniform on the probability simplex,
  one Philox call per draw split across the factors in chain order, from
  each thread's own generator re-keyed per draw; ``draw`` multiplies a
  drawn chain out through ``compose``'s plan in the same pass.

Tables are numpy arrays indexed by the variables in a fixed order; all
values are immutable after construction.  A size is an int >= 1 (``Variable``)
and a joint at most ``MAX_CELLS`` cells: ``sample_factors`` and ``compose``
refuse other sizes, once per size tuple, before they allocate any table
(``compose`` counts the full chain's cells, whatever it keeps).  A joint from
``compose`` or ``marginalize`` is checked once, by its inputs, and keeps its
fresh table read-only without a copy.  A drawn chain is valid by
construction (each slice is exponentials divided by their own sum), so
``draw`` multiplies it out without ``compose``'s table checks; tables from
outside, and a draw's pinned overrides, go through ``compose`` and keep
every check.  A chain's factors are named tuples.
The rules for a draw's inputs live here, the CLI and ``verify`` restating
none: sizes, the cell limit and factor shapes (``_layout``), seed and index
(``_check_stream``) and a campaign's sample count (``_check_samples``).

A joint built by ``compose`` remembers the chain it multiplied (``_spec``),
and so does a marginal ``compose`` summed along a chain (``keep``), which
then has fewer variables than its ``_spec``; every other joint has none.
``FactorizationSpec.implies`` decides by d-separation whether every joint of
one chain also factors along another, so a caller can skip the numeric check
for a composed joint, or for such a marginal, whose chain implies the form it
needs.  ``compose`` accepts conditional slices only within ``SUM_TOL``, and a
drawn slice is within round-off of 1, so such a joint violates the implied
form at round-off level only.
"""

from __future__ import annotations

import functools
import itertools
import math
import threading
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

SUM_TOL = 1e-12          # probability mass checks
FACTORIZATION_TOL = 1e-9  # conditional-independence checks
MAX_CELLS = 2**22         # largest joint table: 32 MiB of float64
# The largest full joint ``compose`` multiplies by one gather (``_Plan.index``).
# Timed per call on hod9, hk3, dmt5, rtd7, ic1 and hod12 chains (2 cores,
# numpy 2.4), checks included: the gather beats the ``_grow`` steps by 1.5x
# to 1.6x on binary chains (128 to 512 cells), 1.25x to 1.4x at 2**10 cells
# and 1.05x to 1.2x at 2**11, and loses from 2**12 on (1.2x slower at 4,096
# cells, 1.4x to 2.1x at 6,561 to 13,122).  Each index is (factors, cells) intp:
# at most 128 KiB a plan for the catalogued chains, which have 8 factors or fewer.
GATHER_CELLS = 2**11

KNOWN_NAMES = ("Q", "U1", "W1", "U2", "W2", "X1", "X2", "Y1", "Y2", "U1a", "U1b")


class ModelError(ValueError):
    """A table violates its probabilistic contract (shape, mass, support)."""


@dataclass(frozen=True)
class Variable:
    """A named finite-alphabet random variable; its size is an ``int`` >= 1."""

    name: str
    size: int

    def __post_init__(self):
        if self.name not in KNOWN_NAMES:
            raise ModelError(f"unknown variable name {self.name!r}")
        if self.size.__class__ is not int or self.size < 1:  # refuses bools and floats
            raise ModelError(f"alphabet size of {self.name} must be an integer of "
                             f"at least 1, got {self.size!r}")


class Factor(NamedTuple):
    """One link of a factorization chain: p(targets | given), a plain tuple."""

    targets: tuple[str, ...]
    given: tuple[str, ...]

    def label(self) -> str:
        head = ",".join(self.targets)
        return f"p({head}|{','.join(self.given)})" if self.given else f"p({head})"


@dataclass(frozen=True)
class FactorizationSpec:
    """A named chain of conditional factors composing a full joint.

    Every variable appears as a target exactly once and each factor may
    condition only on variables produced earlier in the chain.
    """

    form: str
    factors: tuple[Factor, ...]

    def __post_init__(self):
        # the one place factors given as lists become tuples: a chain hashes in C
        object.__setattr__(self, "factors", tuple(Factor(tuple(t), tuple(g))
                                                  for t, g in self.factors))
        seen: list[str] = []
        for f in self.factors:
            for g in f.given:
                if g not in seen:
                    raise ModelError(
                        f"{self.form}: factor {f.label()} conditions on {g} "
                        "before it is generated")
            for t in f.targets:
                if t in seen:
                    raise ModelError(f"{self.form}: {t} targeted twice")
                seen.append(t)
        # the targets in chain order; an attribute, not a field, so ==, hash
        # and repr read only the form and the factors
        object.__setattr__(self, "variables", tuple(seen))

    @functools.lru_cache(maxsize=64)  # every pair of the FORMS, and a bounded rest
    def implies(self, other: FactorizationSpec) -> bool:
        """Does every joint that factors along this chain factor along ``other``?

        Both must cover the same variables, and each factor p(T|G) of
        ``other`` must be a d-separation T _||_ (earlier - G) | G in this
        chain's DAG, where the j-th target of a factor has the factor's
        ``given`` and its earlier targets as parents.  Decided once per pair.
        """
        if set(self.variables) != set(other.variables):
            return False
        parents = {t: set(f.given) | set(f.targets[:j])
                   for f in self.factors for j, t in enumerate(f.targets)}
        earlier: set[str] = set()
        for f in other.factors:
            if not _d_separated(parents, set(f.targets), earlier - set(f.given), set(f.given)):
                return False
            earlier |= set(f.targets)
        return True


def _d_separated(parents: dict[str, set[str]], xs: set[str], ys: set[str],
                 zs: set[str]) -> bool:
    """xs _||_ ys | zs in the DAG given by ``parents``, by the moral ancestral
    graph criterion (Lauritzen, Dawid, Larsen and Leimer 1990): in the
    moralised graph of the ancestors of xs, ys and zs, every path from xs
    to ys passes through zs."""
    ancestral, stack = set(), [*xs, *ys, *zs]
    while stack:
        v = stack.pop()
        if v not in ancestral:
            ancestral.add(v)
            stack.extend(parents[v])
    moral: dict[str, set[str]] = {v: set() for v in ancestral}
    for v in ancestral:
        for p in parents[v]:
            moral[v].add(p)
            moral[p] |= parents[v] | {v}
            moral[p].discard(p)
    reached, stack = set(xs), list(xs)
    while stack:
        for w in moral[stack.pop()] - zs - reached:
            if w in ys:
                return False
            reached.add(w)
            stack.append(w)
    return True


def _chain(form: str, *links: str) -> FactorizationSpec:
    parts = [link.partition("|") for link in links]
    return FactorizationSpec(form, [(head.split(","), tail.split(",") if tail else [])
                                    for head, _, tail in parts])


# The catalogued input-distribution families.  Joint encoder factors
# p(x1 x2 | aux) are realized as two per-sender factors matching the
# superposition/binning encoders that go with each family.
FORMS: dict[str, FactorizationSpec] = {
    "ic1": _chain("ic1", "Q", "U1,W1|Q", "U2,W2|Q",
                  "X1|Q,U1,W1", "X2|Q,U2,W2", "Y1,Y2|X1,X2"),
    "crc2": _chain("crc2", "Q", "U1,W1|Q", "U2,W2|Q,U1,W1",
                   "X1|Q,U1,W1", "X2|Q,U2,W2", "Y1,Y2|X1,X2"),
    "hk3": _chain("hk3", "Q", "U1|Q", "W1|Q", "U2|Q", "W2|Q",
                  "X1|Q,U1,W1", "X2|Q,U2,W2", "Y1,Y2|X1,X2"),
    "cmg4": _chain("cmg4", "Q", "W1|Q", "X1|Q,W1", "W2|Q", "X2|Q,W2",
                   "Y1,Y2|X1,X2"),
    "dmt5": _chain("dmt5", "Q", "W1|Q", "U1|Q", "W2|Q,U1,W1", "U2|Q,U1,W1",
                   "X1|Q,U1,W1", "X2|Q,U2,W2", "Y1,Y2|X1,X2"),
    "rtd7": _chain("rtd7", "W1", "U1a|W1", "W2|W1,U1a", "U2|W1,W2,U1a",
                   "U1b|W1,W2,U1a,U2", "X1|U1a,W1", "X2|W1,W2,U1a,U1b,U2",
                   "Y1,Y2|X1,X2"),
    "hod9": _chain("hod9", "Q", "W1|Q", "U1|Q,W1", "W2|Q,U1,W1", "U2|Q,U1,W1,W2",
                   "X1|Q,W1,U1", "X2|Q,W2,U2", "Y1,Y2|X1,X2"),
    "hod12": _chain("hod12", "Q", "W1|Q", "X1|Q,W1", "W2|Q,W1,X1",
                    "X2|Q,W2,W1,X1", "Y1,Y2|X1,X2"),
}


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """Dense joint probability table over named finite variables.

    Two joints are equal when their variables and tables are exactly equal;
    joints are unhashable.  The constructor checks and copies a table from
    outside.  ``_spec`` is the chain ``compose`` multiplied to build the
    joint, or summed it from for a marginal, and None for every other joint
    (``marginalize``'s too); it is not a dataclass field, so
    ``__eq__`` and ``repr`` do not see it.  A joint holds nothing else:
    ``measures`` keeps its compiled plans per variable order and shape, not
    per joint.
    """

    variables: tuple[Variable, ...]
    table: np.ndarray = field(repr=False)

    def __post_init__(self):
        names = [v.name for v in self.variables]
        if len(set(names)) != len(names):
            raise ModelError(f"duplicate variable names in {names}")
        t = _float_table(self.table, None)
        if t.shape != tuple(v.size for v in self.variables):
            raise ModelError(
                f"table shape {t.shape} does not match alphabets "
                f"{tuple(v.size for v in self.variables)}")
        if t.min(initial=0.0) < -SUM_TOL:
            raise ModelError(f"negative probability {t.min()}")
        if not abs(t.sum() - 1.0) <= SUM_TOL:  # NaN mass fails too
            raise ModelError(f"total mass {t.sum()} != 1")
        t = t.copy()
        t.flags.writeable = False
        self.__dict__.update(table=t, _names=tuple(names), _spec=None)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.variables == other.variables and np.array_equal(self.table, other.table)

    @property
    def names(self) -> tuple[str, ...]:
        return self._names

    def axis(self, name: str) -> int:
        try:
            return self._names.index(name)
        except ValueError:
            raise ModelError(f"unknown variable {name!r}; have {self._names}") from None

    def size(self, name: str) -> int:
        return self.variables[self.axis(name)].size


def _float_table(raw, factor: Factor | None) -> np.ndarray:
    """A table from outside as a float array, or a ModelError naming ``factor`` (None: joint)."""
    try:
        return np.asarray(raw, dtype=float)
    except (TypeError, ValueError) as e:
        what = f"factor {factor.label()}" if factor else "joint"
        raise ModelError(f"{what} table is not a rectangular array of numbers: {e}") from None


def _joint(variables: tuple[Variable, ...], table: np.ndarray,
           spec: FactorizationSpec | None = None) -> JointDistribution:
    """A joint over a fresh C-ordered table that its checked inputs make valid:
    the table is made read-only and kept as is, without ``__post_init__``."""
    table.flags.writeable = False
    d = object.__new__(JointDistribution)
    d.__dict__.update(variables=variables, table=table,
                      _names=tuple(v.name for v in variables), _spec=spec)
    return d


def _shape(spec: FactorizationSpec, sizes: dict[str, int]) -> tuple:
    """The alphabet sizes of spec's variables, in chain order."""
    try:
        return tuple(sizes[n] for n in spec.variables)
    except KeyError as e:
        raise ModelError(f"no alphabet size for {e.args[0]}") from None


@functools.lru_cache(maxsize=64, typed=True)  # typed: a size True or 2.0 is not 1 or 2
def _layout(spec: FactorizationSpec, *shape: int):
    """The chain's ``Variable``s at alphabet sizes ``shape`` (which checks each
    size), refusing a joint of over ``MAX_CELLS`` cells; each table's shape and
    slice of the tables laid end to end; and ``gather``, which regroups the
    entries by target-cell count t into ``(rows, t)`` ``blocks``."""
    variables = tuple(map(Variable, spec.variables, shape))
    if (cells := math.prod(shape)) > MAX_CELLS:
        raise ModelError(
            f"{spec.form} joint would have {cells} cells "
            f"({', '.join(f'{n}={k}' for n, k in zip(spec.variables, shape))}); "
            f"the limit is {MAX_CELLS}")
    sizes = dict(zip(spec.variables, shape))
    shapes = [tuple(sizes[n] for n in f.given + f.targets) for f in spec.factors]
    ts = [math.prod(sizes[n] for n in f.targets) for f in spec.factors]
    cells, groups = [math.prod(s) for s in shapes], list(dict.fromkeys(ts))
    gather = np.argsort(np.repeat([groups.index(t) for t in ts], cells), kind="stable")
    gather.flags.writeable = False
    starts = [0, *itertools.accumulate(cells)]
    ends = [0, *itertools.accumulate(sum(c for c, u in zip(cells, ts) if u == t) for t in groups)]
    blocks = tuple(zip(ends, ends[1:], groups))
    return variables, tuple(shapes), tuple(map(slice, starts, starts[1:])), gather, blocks


def _grow(grown: tuple[str, ...], f: Factor, sizes: dict[str, int]):
    """The step multiplying factor f into a table over ``grown``: its targets
    become new trailing axes, every cell one product."""
    src, new = f.given + f.targets, grown + f.targets
    perm = sorted(range(len(src)), key=lambda j: new.index(src[j]))
    jshape = tuple(sizes[n] for n in grown) + (1,) * len(f.targets)
    bshape = tuple(sizes[n] if n in src else 1 for n in new)
    return lambda joint, t: np.multiply(joint.reshape(jshape), t.transpose(perm).reshape(bshape),
                                        order="C")


def _contract(grown: tuple[str, ...], f: Factor, drop: set[str], sizes: dict[str, int]):
    """The step multiplying factor f into a table over ``grown`` and summing
    ``drop`` out, and the variables of the table it returns.  f's targets in
    ``drop`` are summed out of f first; then, with B f's kept givens, S its
    dropped ones and R the table's other variables, the table's (B, R, S) view
    times f's (B, S, T) view is one matmul per B cell, giving the table over B, R, T."""
    given = [n for n in grown if n in f.given and n not in drop]
    summed = [n for n in grown if n in f.given and n in drop]
    rest = [n for n in grown if n not in f.given]
    targets = [n for n in f.targets if n not in drop]
    src, size = f.given + f.targets, lambda names: math.prod(sizes[n] for n in names)
    fperm = [src.index(n) for n in given + summed + targets + [n for n in f.targets if n in drop]]
    dropped_targets = tuple(range(len(given) + len(summed) + len(targets), len(src)))
    gshape, gperm = tuple(sizes[n] for n in grown), [grown.index(n) for n in given + rest + summed]
    left = (size(given), size(rest), size(summed))
    right = (size(given), size(summed), size(targets))
    out = tuple(given + rest + targets)
    oshape = tuple(sizes[n] for n in out)

    def step(joint, t):
        t = t.transpose(fperm)
        if dropped_targets:
            t = t.sum(axis=dropped_targets)
        product = joint.reshape(gshape).transpose(gperm).reshape(left) @ t.reshape(right)
        return product.reshape(oshape)
    return step, out


class _Plan(NamedTuple):
    """compose's compiled work for one chain, alphabet sizes and kept set:
    what ``_product`` reads (the table checks read ``_layout``)."""

    steps: tuple  # one ``(table, factor table) -> table`` per factor; () with an index
    finish: object  # ``table -> C-ordered table`` in the kept order, or None if grown so
    variables: tuple[Variable, ...]  # the kept variables, in chain order
    # for a full joint of at most ``GATHER_CELLS`` cells, the read-only
    # (factors, cells) offsets of each cell's entry of each factor in the
    # tables laid end to end in chain order (``_layout``'s slices); else None
    index: np.ndarray | None


@functools.lru_cache(maxsize=64, typed=True)  # typed, as ``_layout``
def _elimination(spec: FactorizationSpec, keep: frozenset, *shape: int) -> _Plan:
    """compose's plan at alphabet sizes ``shape`` keeping ``keep``.

    A full joint of at most ``GATHER_CELLS`` cells is one gather: the plan
    holds, per factor, the offset of each cell's entry (``index``), and no
    steps.  Otherwise variable elimination along the chain (Zhang and Poole
    1994): a variable outside ``keep`` is summed out in the step of the last
    factor that reads it, or of its own factor if none does (``_contract``);
    every other step is ``_grow``.  Each step returns the C-ordered table over
    the variables grown so far, transposed at the end only if their order is
    not the kept order; with nothing to drop every step grows, in chain order."""
    variables, shapes, slices, _, _ = _layout(spec, *shape)  # checks the sizes first
    kept = tuple(n for n in spec.variables if n in keep)
    if kept == spec.variables and math.prod(shape) <= GATHER_CELLS:
        cell = np.indices(shape).reshape(len(shape), -1)  # each cell's coordinates, in C order
        index = np.stack([sl.start + np.ravel_multi_index(
                              cell[[spec.variables.index(n) for n in f.given + f.targets]], s)
                          for f, s, sl in zip(spec.factors, shapes, slices)])
        index.flags.writeable = False
        return _Plan((), None, variables, index)
    sizes = dict(zip(spec.variables, shape))
    last = {n: i for i, f in enumerate(spec.factors) for n in f.given + f.targets}
    grown, steps = (), []
    for i, f in enumerate(spec.factors):
        drop = {n for n in f.given + f.targets if last[n] == i and n not in kept}
        if drop:
            step, grown = _contract(grown, f, drop, sizes)
        else:
            step, grown = _grow(grown, f, sizes), grown + f.targets
        steps.append(step)
    order = tuple(grown.index(n) for n in kept)
    finish = None if grown == kept else (
        lambda joint: np.ascontiguousarray(joint.transpose(order)))
    return _Plan(tuple(steps), finish, tuple(v for v in variables if v.name in keep), None)


def _grouped_ok(tables, shapes, gather, blocks) -> np.ndarray | None:
    """The tables laid end to end in chain order if each is a float array of
    its shape, with no entry below ``-SUM_TOL`` and every slice within
    ``SUM_TOL`` of 1, else None.  One slice-sum per block."""
    if any(t.__class__ is not np.ndarray or t.dtype != float for t in tables) or \
            tuple(t.shape for t in tables) != shapes:
        return None
    chain = np.concatenate([t.ravel() for t in tables])
    flat = chain[gather]
    sums = np.concatenate([flat[a:b].reshape(-1, t).sum(axis=1) for a, b, t in blocks])
    ok = flat.min() >= -SUM_TOL and abs(sums - 1.0).max() <= SUM_TOL  # NaN fails both
    return chain if ok else None


def _plan(spec: FactorizationSpec, sizes: dict[str, int], keep) -> tuple[tuple, _Plan]:
    """The chain's shape at ``sizes`` and its plan keeping ``keep`` (None: every
    variable), refusing a variable ``keep`` names outside the chain."""
    shape = _shape(spec, sizes)
    keep = frozenset(spec.variables if keep is None else keep)
    if not keep <= set(spec.variables):
        raise ModelError(f"unknown variables {sorted(keep - set(spec.variables))}; "
                         f"have {spec.variables}")
    return shape, _elimination(spec, keep, *shape)


def _product(spec: FactorizationSpec, shape: tuple, plan: _Plan, tables,
             chain: np.ndarray | None = None) -> JointDistribution:
    """The joint ``plan`` multiplies out of valid factor ``tables`` (``chain``:
    the same tables laid end to end, if at hand), recording ``spec``."""
    if plan.index is not None:  # ((t0 * t1) * t2) ... per cell, as the steps multiply
        if chain is None:
            chain = np.concatenate([t.ravel() for t in tables])
        return _joint(plan.variables, np.multiply.reduce(chain[plan.index]).reshape(shape), spec)
    joint = np.ones(())
    for t, step in zip(tables, plan.steps):
        joint = step(joint, t)
    return _joint(plan.variables, plan.finish(joint) if plan.finish else joint, spec)


def compose(factors: list[np.ndarray], spec: FactorizationSpec,
            sizes: dict[str, int], keep=None) -> JointDistribution:
    """Multiply a chain of conditional tables into the joint over ``keep``
    (default: every variable of the chain).

    ``factors[i]`` corresponds to ``spec.factors[i]`` and is indexed by the
    factor's given variables first (in the listed order), then its targets.
    The checks read the full chain: its alphabet sizes, its cells against
    ``MAX_CELLS`` (both once per size tuple, in ``_layout``) and every factor
    table, whatever ``keep`` drops.  These are the checks for tables from
    outside, pinned overrides among them; ``draw`` skips only the table
    checks, for tables its own draw made.  A full joint of at most
    ``GATHER_CELLS`` cells is one gather from the tables laid end to end
    through the plan's cached index, and one product along the factor axis.
    Any other table grows one factor at a time, each factor's targets
    becoming new trailing axes, and each dropped variable is summed out at
    the last factor that reads it (``_elimination``), so the full joint is
    never built.  With nothing dropped, either way, every cell is multiplied
    in chain order, ``((t0 * t1) * t2) ...``, into a C-ordered table the
    joint keeps without a copy.  The joint, kept variables in chain order,
    records ``spec`` as ``_spec``.
    """
    if len(factors) != len(spec.factors):
        raise ModelError(f"{spec.form} needs {len(spec.factors)} factor tables, got {len(factors)}")
    shape, plan = _plan(spec, sizes, keep)
    _, shapes, _, gather, blocks = _layout(spec, *shape)
    tables, chain = factors, _grouped_ok(factors, shapes, gather, blocks)
    if chain is None:
        tables = []  # converted and checked one by one: the first fault in chain order
        for raw, f, expect in zip(factors, spec.factors, shapes):
            tables.append(t := _float_table(raw, f))
            if t.min(initial=0.0) < -SUM_TOL:
                raise ModelError(f"negative entry {t.min()} in conditional table")
            worst = np.max(np.abs(t.sum(axis=tuple(range(len(f.given), t.ndim))) - 1.0))
            if not worst <= SUM_TOL:  # a NaN entry fails too
                raise ModelError(f"conditional slices must sum to 1; worst deviation {worst}")
            if t.shape != expect:
                raise ModelError(f"factor {f.label()} has shape {t.shape}, expected {expect}")
    return _product(spec, shape, plan, tables, chain)


def marginalize(d: JointDistribution, keep) -> JointDistribution:
    """Sum out every variable not in ``keep`` (order of kept variables preserved)."""
    keep = set(keep)
    for name in keep:
        d.axis(name)
    axes = tuple(i for i, v in enumerate(d.variables) if v.name not in keep)
    return _joint(tuple(v for v in d.variables if v.name in keep),
                  np.asarray(d.table.sum(axis=axes)))  # 0-d when nothing is kept


def _conditional_from(d: JointDistribution, f: Factor, sizes: dict[str, int]) -> np.ndarray:
    """Extract p(targets|given) from d's own marginals.

    On zero-mass conditioning cells the conditional is arbitrary; it is
    filled uniformly so the result is still a valid conditional table.
    """
    m = marginalize(d, set(f.given) | set(f.targets))
    order = list(f.given) + list(f.targets)
    t = m.table.transpose([m.axis(n) for n in order])
    target_axes = tuple(range(len(f.given), t.ndim))
    denom = t.sum(axis=target_axes, keepdims=True)
    cells = int(np.prod([t.shape[a] for a in target_axes]))
    out = np.full_like(t, 1.0 / cells)
    return np.divide(t, denom, out=out, where=denom > 0)


def validate_factorization(d: JointDistribution, spec: FactorizationSpec):
    """Check whether ``d`` factorizes along ``spec``'s chain.

    Rebuilds the joint from d's own conditionals in chain order and compares
    entrywise.  Returns ``(ok, max_violation)``; never raises on violation.
    """
    if set(spec.variables) != set(d.names):
        raise ModelError(
            f"{spec.form} covers {sorted(spec.variables)}, distribution has {sorted(d.names)}")
    sizes = {v.name: v.size for v in d.variables}
    rebuilt = compose([_conditional_from(d, f, sizes) for f in spec.factors], spec, sizes)
    aligned = rebuilt.table.transpose([rebuilt.axis(n) for n in d.names])
    worst = float(np.max(np.abs(aligned - d.table)))
    return worst <= FACTORIZATION_TOL, worst


def stream(seed: int, index: int = 0) -> np.random.Generator:
    """Counter-based random stream: Philox keyed by seed, block per sample index.

    Disjoint 2**128-step counter blocks keep per-sample draws independent and
    reproducible across platforms; ``seed`` must be an int in [0, 2**64) and
    ``index`` an int in [0, 2**128) (``_check_stream``).
    """
    _check_stream(seed, index)
    return np.random.Generator(np.random.Philox(key=seed, counter=index * 2**128))


def _check_stream(seed: int, index: int) -> None:
    """Refuse a seed or index that is no int (``Variable``'s rule: not a bool, a
    float or a numpy integer), a seed outside [0, 2**64) or an index outside
    [0, 2**128)."""
    if seed.__class__ is not int:
        raise ModelError(f"seed must be an integer, got {seed!r}")
    if index.__class__ is not int:
        raise ModelError(f"sample index must be an integer, got {index!r}")
    if not 0 <= seed < 2**64:
        raise ModelError(f"seed must be in [0, 2**64), got {seed}")
    if not 0 <= index < 2**128:
        raise ModelError(f"sample index must be in [0, 2**128), got {index}")


def _check_samples(n: int) -> None:
    """Refuse a campaign's sample count n (stream indices 0..n-1) unless an int >= 1."""
    if n.__class__ is not int or n < 1:  # refuses bools and floats, as ``Variable``
        raise ModelError(f"a campaign needs an integer count of at least 1 sample, got {n!r}")


_thread = threading.local()


def _rekeyed(seed: int, index: int) -> np.random.Generator:
    """``stream(seed, index)`` without building a generator: this thread's own
    Philox, set to that key, that counter and an empty buffer.  Philox is
    counter-based, so the draws are bitwise those of a fresh generator."""
    _check_stream(seed, index)
    gen = getattr(_thread, "generator", None)
    if gen is None:
        gen = _thread.generator = np.random.Generator(np.random.Philox())
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"key": np.array([seed, 0], dtype=np.uint64),
                  "counter": np.array([0, 0, index & (2**64 - 1), index >> 64], dtype=np.uint64)},
        "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
        "has_uint32": 0, "uinteger": 0}
    return gen


def sample_factors(spec: FactorizationSpec, sizes: dict[str, int], seed: int,
                   index: int = 0,
                   overrides: dict[str, np.ndarray] | None = None) -> list[np.ndarray]:
    """Draw one conditional table per chain factor, each slice uniform on the
    simplex (normalized exponentials).  Deterministic in (seed, index).

    One Philox call draws the whole chain, split across the factors in chain
    order (each table in C order), from this thread's generator re-keyed to
    ``stream(seed, index)``'s start (``_rekeyed``).  ``overrides`` maps
    factor labels (e.g. "p(W1|Q)") to fixed tables; a label that names no
    factor of the chain raises ``ModelError``.  The stream position does not
    depend on which factors are overridden.
    """
    if overrides and (unknown := sorted(overrides.keys() - {f.label() for f in spec.factors})):
        raise ModelError(f"override {', '.join(unknown)} names no factor of {spec.form}; "
                         f"its factors are {', '.join(f.label() for f in spec.factors)}")
    _, shapes, slices, gather, blocks = _layout(spec, *_shape(spec, sizes))
    u = _rekeyed(seed, index).random(gather.size)
    e = -np.log1p(-u[gather])
    for a, b, t in blocks:
        block = e[a:b].reshape(-1, t)
        total = block.sum(axis=1, keepdims=True)
        if not total.min() > 0:  # an all-zero slice is drawn as uniform
            block[:], total = np.where(total > 0, block, 1.0), np.where(total > 0, total, float(t))
        block /= total
    u[gather] = e  # back in chain order
    factors = [u[sl].reshape(s) for sl, s in zip(slices, shapes)]
    for i, f in enumerate(spec.factors if overrides else ()):
        if (fixed := overrides.get(f.label())) is not None:
            factors[i] = _float_table(fixed, f)
            if factors[i].shape != shapes[i]:
                raise ModelError(f"override for {f.label()} has shape {factors[i].shape}, "
                                 f"expected {shapes[i]}")
    return factors


def draw(spec: FactorizationSpec, sizes: dict[str, int], seed: int, index: int = 0,
         overrides: dict[str, np.ndarray] | None = None,
         keep=None) -> tuple[JointDistribution, list[np.ndarray]]:
    """``sample_factors``' draw and its joint over ``keep``: bitwise
    ``compose(sample_factors(...), spec, sizes, keep)``, with the factor tables
    that replay it.

    Every drawn slice is exponentials divided by their own sum, so it is
    valid by construction and the tables are multiplied through ``compose``'s
    plan without its table checks, a full-joint gather reading the buffer
    they were drawn in (every table is a view of it, laid end to end in
    chain order).  With pinned ``overrides`` the tables go through
    ``compose`` itself: an outside table keeps every check."""
    factors = sample_factors(spec, sizes, seed, index, overrides)
    if overrides:
        return compose(factors, spec, sizes, keep), factors
    shape, plan = _plan(spec, sizes, keep)
    return _product(spec, shape, plan, factors, factors[0].base), factors


def sample_distribution(spec: FactorizationSpec, sizes: dict[str, int], seed: int,
                        index: int = 0) -> JointDistribution:
    """Draw a joint of the given form; every factor slice uniform on the simplex.

    Deterministic in (seed, index): ``draw``'s joint, so its tables are valid
    by construction and not re-checked; ``draw`` takes pinned tables, which
    ``compose`` checks.
    """
    return draw(spec, sizes, seed, index)[0]
