import math

import numpy as np
import pytest

from rrkit.prob import FORMS, Factor, FactorizationSpec, compose


def binary_sizes(form: str, q: int = 2) -> dict[str, int]:
    sizes = {n: 2 for n in FORMS[form].variables}
    if "Q" in sizes:
        sizes["Q"] = q
    return sizes


def uniform_factors(form: str, sizes: dict[str, int]) -> list[np.ndarray]:
    out = []
    for f in FORMS[form].factors:
        shape = tuple(sizes[n] for n in f.given) + tuple(sizes[n] for n in f.targets)
        t = np.ones(shape)
        target_axes = tuple(range(len(f.given), len(shape)))
        out.append(t / t.sum(axis=target_axes, keepdims=True))
    return out


def margin_factors(form: str, sizes: dict[str, int], excess: float = 9e-13) -> list[np.ndarray]:
    """Uniform factors whose every slice sums to 1 + excess: within ``SUM_TOL``
    each, while the product's total mass of about 1 + 8 * excess is not."""
    out = uniform_factors(form, sizes)
    for t, f in zip(out, FORMS[form].factors):
        t.reshape(math.prod(sizes[n] for n in f.given), -1)[:, -1] += excess
    return out


@pytest.fixture
def chain_qwu():
    """Three-variable chain p(q) p(w1|q) p(u1|q,w1) for hand-built tables."""
    return FactorizationSpec("test-chain", (
        Factor(("Q",), ()),
        Factor(("W1",), ("Q",)),
        Factor(("U1",), ("Q", "W1")),
    ))


def delta(n: int) -> np.ndarray:
    """Identity coupling table p(b|a) = 1[b == a], shape (n, n)."""
    return np.eye(n)


def compose_form(form: str, factors, sizes):
    return compose(factors, FORMS[form], sizes)


def fields(r):
    """A row field by field, with the types of its parts and its bound's bits."""
    return (r.coeffs, [type(c).__name__ for c in r.coeffs], r.bound.hex(),
            type(r.bound).__name__, r.label)
