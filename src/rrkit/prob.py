"""Finite-alphabet joint distributions for interference / cognitive radio models.

Dense probability tables over a small set of named variables
(Q, W1, U1, W2, U2, X1, X2, Y1, Y2, plus the split U1a/U1b), with

- chain-structured construction from conditional factor tables,
- marginalization / conditioning,
- factorization validation (does a table factor according to a given chain),
  numerically on any table and structurally between chains,
- reproducible sampling of factor tables uniform on the probability simplex,
- channel embedding p(y1,y2|x1,x2).

Tables are numpy arrays indexed by the variables in a fixed order; all
values are immutable after construction.  A joint is at most ``MAX_CELLS``
cells: ``sample_factors``, ``compose`` and ``embed_channel`` refuse larger
alphabets before they allocate any table.

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
import math
from dataclasses import dataclass, field

import numpy as np

SUM_TOL = 1e-12          # probability mass checks
FACTORIZATION_TOL = 1e-9  # conditional-independence checks
MAX_CELLS = 2**22         # largest joint table: 32 MiB of float64

KNOWN_NAMES = ("Q", "U1", "W1", "U2", "W2", "X1", "X2", "Y1", "Y2", "U1a", "U1b")


class ModelError(ValueError):
    """A table violates its probabilistic contract (shape, mass, support)."""


class ZeroProbabilityError(ModelError):
    """Conditioning event has zero probability."""


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

    @property
    def variables(self) -> tuple[str, ...]:
        return tuple(t for f in self.factors for t in f.targets)

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
CHANNEL_FACTOR = Factor(("Y1", "Y2"), ("X1", "X2"))

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
    joints are unhashable.  Each joint carries two private memos, both keyed
    by the frozenset of variable names and filled by ``measures``:
    ``_entropies`` holds subset entropies in bits and ``_marginals`` the
    marginal joints they were summed from, so a later subset can be summed
    from a smaller table than this one.  ``_spec`` is the chain ``compose``
    multiplied to build the joint, and None for every other joint.  None of
    the three is a dataclass field, so ``__eq__`` and ``repr`` do not see
    them, and every new joint (including those returned by ``marginalize``,
    ``condition`` and ``compose``) starts with empty memos.
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
        if abs(t.sum() - 1.0) > SUM_TOL:
            raise ModelError(f"total mass {t.sum()} != 1")
        t = t.copy()
        t.flags.writeable = False
        object.__setattr__(self, "table", t)
        self._start_memos(tuple(names))

    def _start_memos(self, names: tuple[str, ...]) -> None:
        object.__setattr__(self, "_names", names)
        object.__setattr__(self, "_entropies", {})
        object.__setattr__(self, "_marginals", {})
        object.__setattr__(self, "_spec", None)

    @classmethod
    def _trusted(cls, variables: tuple[Variable, ...], table: np.ndarray) -> "JointDistribution":
        """A joint over a read-only table already known to match ``variables``
        and to be a distribution: no checks, no copy.  Only ``marginalize``
        builds joints this way."""
        d = object.__new__(cls)
        object.__setattr__(d, "variables", variables)
        object.__setattr__(d, "table", table)
        d._start_memos(tuple(v.name for v in variables))
        return d

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


def _normalize_conditional(table: np.ndarray, n_given_axes: int) -> np.ndarray:
    """Validate that every conditional slice sums to 1; return as float array."""
    t = np.asarray(table, dtype=float)
    if t.min(initial=0.0) < -SUM_TOL:
        raise ModelError(f"negative entry {t.min()} in conditional table")
    target_axes = tuple(range(n_given_axes, t.ndim))
    sums = t.sum(axis=target_axes)
    if np.max(np.abs(sums - 1.0)) > SUM_TOL:
        raise ModelError(
            f"conditional slices must sum to 1; worst deviation {np.max(np.abs(sums - 1.0))}")
    return t


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


def compose(factors: list[np.ndarray], spec: FactorizationSpec,
            sizes: dict[str, int]) -> JointDistribution:
    """Multiply a chain of conditional tables into the full joint.

    ``factors[i]`` corresponds to ``spec.factors[i]`` and is indexed by the
    factor's given variables first (in the listed order), then its targets.
    The joint records ``spec`` as its ``_spec``.
    """
    if len(factors) != len(spec.factors):
        raise ModelError(f"{spec.form} needs {len(spec.factors)} factor tables, got {len(factors)}")
    _check_cells(spec.form, spec.variables, sizes)
    order = spec.variables
    shape = tuple(sizes[n] for n in order)
    joint = np.ones(shape)
    pos = {n: i for i, n in enumerate(order)}
    for raw, f in zip(factors, spec.factors):
        t = _normalize_conditional(raw, len(f.given))
        expect = tuple(sizes[n] for n in f.given) + tuple(sizes[n] for n in f.targets)
        if t.shape != expect:
            raise ModelError(f"factor {f.label()} has shape {t.shape}, expected {expect}")
        # broadcast the factor into the full variable order
        src = list(f.given) + list(f.targets)
        expanded = np.ones([sizes[n] if n in src else 1 for n in order])
        perm = sorted(range(len(src)), key=lambda i: pos[src[i]])
        expanded[...] = t.transpose(perm).reshape(expanded.shape)
        joint *= expanded
    d = JointDistribution(tuple(Variable(n, sizes[n]) for n in order), joint)
    object.__setattr__(d, "_spec", spec)
    return d


def marginalize(d: JointDistribution, keep) -> JointDistribution:
    """Sum out every variable not in ``keep`` (order of kept variables preserved)."""
    keep = set(keep)
    for name in keep:
        d.axis(name)
    axes = tuple(i for i, v in enumerate(d.variables) if v.name not in keep)
    table = d.table
    if axes:
        table = np.asarray(table.sum(axis=axes))  # a 0-d array when nothing is kept
        table.flags.writeable = False
    return JointDistribution._trusted(tuple(v for v in d.variables if v.name in keep), table)


def condition(d: JointDistribution, given: dict[str, int]) -> JointDistribution:
    """Renormalized slice p(rest | given); errors on a zero-probability event."""
    idx: list = [slice(None)] * len(d.variables)
    for name, value in given.items():
        ax = d.axis(name)
        if not 0 <= value < d.variables[ax].size:
            raise ModelError(f"{name}={value} outside alphabet of size {d.variables[ax].size}")
        idx[ax] = value
    slab = d.table[tuple(idx)]
    mass = slab.sum()
    if mass <= 0.0:
        raise ZeroProbabilityError(f"conditioning event {given} has probability {mass}")
    return JointDistribution(
        tuple(v for v in d.variables if v.name not in given), slab / mass)


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


def _uniform_simplex(rng: np.random.Generator, shape: tuple[int, ...],
                     n_given_axes: int) -> np.ndarray:
    """Conditional table with every slice uniform on the simplex (normalized exponentials)."""
    e = -np.log1p(-rng.random(shape))
    target_axes = tuple(range(n_given_axes, len(shape)))
    total = e.sum(axis=target_axes, keepdims=True)
    flat_cells = int(np.prod([shape[a] for a in target_axes])) if target_axes else 1
    e = np.where(total > 0, e, 1.0)
    total = np.where(total > 0, total, float(flat_cells))
    return e / total


def stream(seed: int, index: int = 0) -> np.random.Generator:
    """Counter-based random stream: Philox keyed by seed, block per sample index.

    Disjoint 2**128-step counter blocks keep per-sample draws independent and
    reproducible across platforms.
    """
    return np.random.Generator(np.random.Philox(key=seed & (2**64 - 1),
                                                counter=index * 2**128))


def sample_factors(spec: FactorizationSpec, sizes: dict[str, int], seed: int,
                   index: int = 0,
                   overrides: dict[str, np.ndarray] | None = None) -> list[np.ndarray]:
    """Draw one conditional table per chain factor, each slice uniform on the
    simplex.  Deterministic in (seed, index).

    ``overrides`` maps factor labels (e.g. "p(W1|Q)") to fixed tables; the
    stream position does not depend on which factors are overridden.
    """
    _check_cells(spec.form, spec.variables, sizes)
    rng = stream(seed, index)
    factors = []
    for f in spec.factors:
        shape = tuple(sizes[n] for n in f.given) + tuple(sizes[n] for n in f.targets)
        drawn = _uniform_simplex(rng, shape, len(f.given))
        fixed = (overrides or {}).get(f.label())
        if fixed is not None:
            fixed = np.asarray(fixed, dtype=float)
            if fixed.shape != shape:
                raise ModelError(f"override for {f.label()} has shape {fixed.shape}, "
                                 f"expected {shape}")
            factors.append(fixed)
        else:
            factors.append(drawn)
    return factors


def sample_distribution(spec: FactorizationSpec, sizes: dict[str, int], seed: int,
                        index: int = 0, kernel: np.ndarray | None = None) -> JointDistribution:
    """Draw a joint of the given form; every factor slice uniform on the simplex.

    Deterministic in (seed, index).  If ``kernel`` is given it is used for the
    channel factor p(y1,y2|x1,x2) instead of a random draw.
    """
    overrides = {CHANNEL_FACTOR.label(): kernel} if kernel is not None else None
    return compose(sample_factors(spec, sizes, seed, index, overrides), spec, sizes)


@dataclass(frozen=True)
class ChannelModel:
    """Memoryless channel kernel p(y1,y2|x1,x2), indexed (x1, x2, y1, y2)."""

    kernel: np.ndarray = field(repr=False)

    def __post_init__(self):
        k = _normalize_conditional(self.kernel, 2)
        if k.ndim != 4:
            raise ModelError(f"kernel must have 4 axes (x1,x2,y1,y2), got {k.ndim}")
        k = k.copy()
        k.flags.writeable = False
        object.__setattr__(self, "kernel", k)

    @property
    def input_sizes(self) -> tuple[int, int]:
        return self.kernel.shape[0], self.kernel.shape[1]

    @property
    def output_sizes(self) -> tuple[int, int]:
        return self.kernel.shape[2], self.kernel.shape[3]


def embed_channel(d: JointDistribution, ch: ChannelModel) -> JointDistribution:
    """Extend d (over ..., X1, X2) with Y1, Y2 drawn through the channel kernel."""
    for name in ("Y1", "Y2"):
        if name in d.names:
            raise ModelError(f"{name} already present")
    a1, a2 = d.axis("X1"), d.axis("X2")
    if (d.variables[a1].size, d.variables[a2].size) != ch.input_sizes:
        raise ModelError(
            f"channel inputs {ch.input_sizes} do not match X alphabets "
            f"{(d.variables[a1].size, d.variables[a2].size)}")
    y1, y2 = ch.output_sizes
    sizes = {v.name: v.size for v in d.variables} | {"Y1": y1, "Y2": y2}
    _check_cells("channel-embedded", tuple(sizes), sizes)
    letters = "abcdefghijklmnop"
    subs = letters[:len(d.variables)]
    out = np.einsum(f"{subs},{subs[a1]}{subs[a2]}yz->{subs}yz", d.table, ch.kernel)
    return JointDistribution(d.variables + (Variable("Y1", y1), Variable("Y2", y2)), out)
