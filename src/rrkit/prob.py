"""Finite-alphabet joint distributions for interference / cognitive radio models.

Dense probability tables over a small set of named variables
(Q, W1, U1, W2, U2, X1, X2, Y1, Y2, plus the split U1a/U1b), with

- chain-structured construction from conditional factor tables (each
  catalogued chain ends in the channel kernel p(y1,y2|x1,x2)),
- marginalization,
- factorization validation (does a table factor according to a given chain),
  numerically on any table and structurally between chains,
- reproducible sampling of factor tables uniform on the probability simplex,
  one Philox call per draw split across the factors in chain order.

Tables are numpy arrays indexed by the variables in a fixed order; all
values are immutable after construction.  A joint is at most ``MAX_CELLS``
cells: ``sample_factors`` and ``compose`` refuse larger alphabets before
they allocate any table.  A joint from ``compose`` or ``marginalize`` is checked
once, by its inputs, and keeps its fresh table read-only without a copy.

A joint built by ``compose`` remembers the chain it multiplied (``_spec``);
every other joint has none.  ``FactorizationSpec.implies`` decides by
d-separation whether every joint of one chain also factors along another,
so a caller can skip the numeric check for a composed joint whose chain
implies the form it needs.  ``compose`` accepts conditional slices only
within ``SUM_TOL``, so such a joint violates the implied form at round-off
level only.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

SUM_TOL = 1e-12          # probability mass checks
FACTORIZATION_TOL = 1e-9  # conditional-independence checks
MAX_CELLS = 2**22         # largest joint table: 32 MiB of float64

KNOWN_NAMES = ("Q", "U1", "W1", "U2", "W2", "X1", "X2", "Y1", "Y2", "U1a", "U1b")


class ModelError(ValueError):
    """A table violates its probabilistic contract (shape, mass, support)."""


@dataclass(frozen=True)
class Variable:
    """A named finite-alphabet random variable."""

    name: str
    size: int

    def __post_init__(self):
        if self.name not in KNOWN_NAMES:
            raise ModelError(f"unknown variable name {self.name!r}")
        if self.size < 1:
            raise ModelError(f"alphabet size of {self.name} must be >= 1, got {self.size}")


@dataclass(frozen=True)
class Factor:
    """One link of a factorization chain: p(targets | given)."""

    targets: tuple[str, ...]
    given: tuple[str, ...]

    def __post_init__(self):
        # tuples even when built from lists, so chains hash (``implies`` is memoised)
        object.__setattr__(self, "targets", tuple(self.targets))
        object.__setattr__(self, "given", tuple(self.given))

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
        object.__setattr__(self, "factors", tuple(self.factors))
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

    @functools.cache
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
    factors = []
    for link in links:
        head, _, tail = link.partition("|")
        factors.append(Factor(tuple(head.split(",")), tuple(tail.split(",")) if tail else ()))
    return FactorizationSpec(form, tuple(factors))


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
    joint, and None for every other joint; it is not a dataclass field, so
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
        t = np.asarray(self.table, dtype=float)
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


def _joint(variables: tuple[Variable, ...], table: np.ndarray,
           spec: FactorizationSpec | None = None) -> JointDistribution:
    """A joint over a fresh C-ordered table that its checked inputs make valid:
    the table is made read-only and kept as is, without ``__post_init__``."""
    table.flags.writeable = False
    d = object.__new__(JointDistribution)
    d.__dict__.update(variables=variables, table=table,
                      _names=tuple(v.name for v in variables), _spec=spec)
    return d


def _check_cells(what: str, names, sizes: dict[str, int]) -> None:
    """Refuse a joint over ``names`` larger than ``MAX_CELLS``, before allocating."""
    for name in names:
        if name not in sizes:
            raise ModelError(f"no alphabet size for {name}")
    cells = math.prod(sizes[n] for n in names)
    if cells > MAX_CELLS:
        raise ModelError(
            f"{what} joint would have {cells} cells "
            f"({', '.join(f'{n}={sizes[n]}' for n in names)}); "
            f"the limit is {MAX_CELLS}")


@functools.lru_cache(maxsize=64)
def _layout(spec: FactorizationSpec, shape: tuple[int, ...]):
    """Each table's shape, slice of the tables laid end to end, and compose step
    (transpose, joint and broadcast shapes) at alphabet sizes ``shape``; ``gather``
    regroups the entries by target-cell count t into ``(rows, t)`` ``blocks``."""
    sizes, pos = dict(zip(spec.variables, shape)), {n: i for i, n in enumerate(spec.variables)}
    shapes, steps, grown, ts = [], [], (), []
    for f in spec.factors:
        src = f.given + f.targets
        shapes.append(tuple(sizes[n] for n in src))
        steps.append((sorted(range(len(src)), key=lambda j: pos[src[j]]),
                      tuple(sizes[n] for n in grown) + (1,) * len(f.targets),
                      tuple(sizes[n] if n in src else 1 for n in grown + f.targets)))
        grown += f.targets
        ts.append(math.prod(sizes[n] for n in f.targets))
    cells, groups = [math.prod(s) for s in shapes], list(dict.fromkeys(ts))
    gather = np.argsort(np.repeat([groups.index(t) for t in ts], cells), kind="stable")
    gather.flags.writeable = False
    starts = [0, *itertools.accumulate(cells)]
    ends = [0, *itertools.accumulate(sum(c for c, u in zip(cells, ts) if u == t) for t in groups)]
    blocks = tuple((a, b, t) for a, b, t in zip(ends, ends[1:], groups) if b > a)
    return tuple(shapes), tuple(map(slice, starts, starts[1:])), tuple(steps), gather, blocks


def _grouped_tables(factors, shapes, gather, blocks):
    """``factors`` as float tables if each has its shape, no entry below ``-SUM_TOL``
    and every slice within ``SUM_TOL`` of 1, else None; one slice-sum per block."""
    try:
        tables = [np.asarray(raw, dtype=float) for raw in factors]
    except ValueError:  # a ragged table
        return None
    if tuple(t.shape for t in tables) != shapes:
        return None
    flat = np.concatenate([t.ravel() for t in tables])[gather]
    sums = np.concatenate([flat[a:b].reshape(-1, t).sum(axis=1) for a, b, t in blocks])
    ok = flat.min() >= -SUM_TOL and abs(sums - 1.0).max() <= SUM_TOL  # NaN fails both
    return tables if ok else None


def compose(factors: list[np.ndarray], spec: FactorizationSpec,
            sizes: dict[str, int]) -> JointDistribution:
    """Multiply a chain of conditional tables into the full joint.

    ``factors[i]`` corresponds to ``spec.factors[i]`` and is indexed by the
    factor's given variables first (in the listed order), then its targets.
    The table grows one factor at a time, each factor's targets becoming new
    trailing axes, so every cell is multiplied in chain order, into a C-ordered
    table the joint keeps without a copy; the joint records ``spec`` as ``_spec``.
    """
    if len(factors) != len(spec.factors):
        raise ModelError(f"{spec.form} needs {len(spec.factors)} factor tables, got {len(factors)}")
    _check_cells(spec.form, spec.variables, sizes)
    shape = tuple(sizes[n] for n in spec.variables)
    shapes, _, steps, gather, blocks = _layout(spec, shape)
    tables = None if 0 in shape else _grouped_tables(factors, shapes, gather, blocks)
    if tables is None:  # the per-factor checks, in chain order, raise the first fault
        tables = []
        for raw, f, expect in zip(factors, spec.factors, shapes):
            tables.append(t := np.asarray(raw, dtype=float))
            if t.min(initial=0.0) < -SUM_TOL:
                raise ModelError(f"negative entry {t.min()} in conditional table")
            worst = np.max(np.abs(t.sum(axis=tuple(range(len(f.given), t.ndim))) - 1.0))
            if not worst <= SUM_TOL:  # a NaN entry fails too
                raise ModelError(f"conditional slices must sum to 1; worst deviation {worst}")
            if t.shape != expect:
                raise ModelError(f"factor {f.label()} has shape {t.shape}, expected {expect}")
    joint = np.ones(())
    for t, (perm, jshape, bshape) in zip(tables, steps):
        joint = np.multiply(joint.reshape(jshape), t.transpose(perm).reshape(bshape), order="C")
    return _joint(tuple(Variable(n, sizes[n]) for n in spec.variables), joint, spec)


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
    reproducible across platforms; ``seed`` must lie in [0, 2**64) and
    ``index`` in [0, 2**128).
    """
    if not 0 <= seed < 2**64:
        raise ModelError(f"seed must be in [0, 2**64), got {seed}")
    if not 0 <= index < 2**128:
        raise ModelError(f"sample index must be in [0, 2**128), got {index}")
    return np.random.Generator(np.random.Philox(key=seed, counter=index * 2**128))


def sample_factors(spec: FactorizationSpec, sizes: dict[str, int], seed: int,
                   index: int = 0,
                   overrides: dict[str, np.ndarray] | None = None) -> list[np.ndarray]:
    """Draw one conditional table per chain factor, each slice uniform on the
    simplex (normalized exponentials).  Deterministic in (seed, index).

    One Philox call draws the whole chain, split across the factors in chain
    order (each table in C order).  ``overrides`` maps factor labels (e.g.
    "p(W1|Q)") to fixed tables; the stream position does not depend on which
    factors are overridden.
    """
    _check_cells(spec.form, spec.variables, sizes)
    shapes, slices, _, gather, blocks = _layout(spec, tuple(sizes[n] for n in spec.variables))
    u = stream(seed, index).random(gather.size)
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
            factors[i] = np.asarray(fixed, dtype=float)
            if factors[i].shape != shapes[i]:
                raise ModelError(f"override for {f.label()} has shape {factors[i].shape}, "
                                 f"expected {shapes[i]}")
    return factors


def sample_distribution(spec: FactorizationSpec, sizes: dict[str, int], seed: int,
                        index: int = 0) -> JointDistribution:
    """Draw a joint of the given form; every factor slice uniform on the simplex.

    Deterministic in (seed, index); ``sample_factors`` takes pinned tables.
    """
    return compose(sample_factors(spec, sizes, seed, index), spec, sizes)
