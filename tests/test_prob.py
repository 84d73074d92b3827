import itertools
import math
import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrkit import prob
from rrkit.measures import cmi, entropy
from rrkit.prob import (FORMS, Factor, FactorizationSpec, JointDistribution, ModelError,
                        Variable, compose, marginalize, sample_distribution,
                        sample_factors, stream, validate_factorization)

from conftest import binary_sizes, compose_form, delta, margin_factors, uniform_factors


def test_compose_all_uniform_is_uniform():
    sizes = binary_sizes("hod9", q=2)
    d = compose_form("hod9", uniform_factors("hod9", sizes), sizes)
    assert d.table.shape == (2,) * 9
    np.testing.assert_allclose(d.table, 1.0 / 512, atol=1e-15)


def test_compose_point_mass_marginal():
    sizes = binary_sizes("hod9", q=2)
    factors = uniform_factors("hod9", sizes)
    factors[0] = np.array([1.0, 0.0])
    d = compose_form("hod9", factors, sizes)
    q = marginalize(d, {"Q"})
    np.testing.assert_allclose(q.table, [1.0, 0.0], atol=1e-15)


def test_compose_identity_chain(chain_qwu):
    # p(w1|q) and p(u1|q,w1) identity couplings: mass sits on u1 = w1 = q
    pq = np.array([0.3, 0.7])
    pw = delta(2)
    pu = np.stack([delta(2), delta(2)])  # (q, w1, u1)
    d = compose([pq, pw, pu], chain_qwu, {"Q": 2, "W1": 2, "U1": 2})
    expected = np.zeros((2, 2, 2))
    expected[0, 0, 0] = 0.3
    expected[1, 1, 1] = 0.7
    np.testing.assert_allclose(d.table, expected, atol=1e-15)


def test_compose_rejects_bad_conditional(chain_qwu):
    pq = np.array([0.5, 0.5])
    bad = np.array([[0.9, 0.2], [0.5, 0.5]])  # first slice sums to 1.1
    pu = np.stack([delta(2), delta(2)])
    with pytest.raises(ModelError):
        compose([pq, bad, pu], chain_qwu, {"Q": 2, "W1": 2, "U1": 2})


def test_negative_entry_is_rejected_even_when_its_slice_sums_to_one(chain_qwu):
    pq = np.array([0.5, 0.5])
    bad = np.array([[1.5, -0.5], [0.5, 0.5]])
    pu = np.stack([delta(2), delta(2)])
    with pytest.raises(ModelError, match=r"negative entry -0\.5 in conditional table"):
        compose([pq, bad, pu], chain_qwu, {"Q": 2, "W1": 2, "U1": 2})


def test_nan_entries_are_rejected(chain_qwu):
    pq = np.array([0.5, 0.5])
    pw = np.array([[np.nan, 1.0], [0.5, 0.5]])
    with pytest.raises(ModelError, match="sum to 1"):
        compose([pq, pw, delta(2)], chain_qwu, {"Q": 2, "W1": 2, "U1": 2})
    with pytest.raises(ModelError, match="total mass nan"):
        JointDistribution((Variable("Q", 2),), np.array([np.nan, 1.0]))


def test_compose_rejects_shape_mismatch(chain_qwu):
    pq = np.array([0.5, 0.5])
    pw = delta(2)
    pu = delta(2)  # missing the Q axis
    with pytest.raises(ModelError):
        compose([pq, pw, pu], chain_qwu, {"Q": 2, "W1": 2, "U1": 2})


def test_marginalize_uniform_bits():
    sizes = binary_sizes("hod9", q=2)
    d = compose_form("hod9", uniform_factors("hod9", sizes), sizes)
    m = marginalize(d, {"Q"})
    np.testing.assert_allclose(m.table, [0.5, 0.5], atol=1e-15)


def test_marginalize_all_is_identity():
    d = sample_distribution(FORMS["hod9"], binary_sizes("hod9"), seed=3)
    m = marginalize(d, set(d.names))
    np.testing.assert_allclose(m.table, d.table, atol=0)


def test_marginalize_matches_direct_sum():
    # p(q, u1) must equal p(q) * sum_w1 p(w1|q) p(u1|q,w1), summed by hand
    sizes = binary_sizes("hod9", q=2)
    factors = sample_factors(FORMS["hod9"], sizes, seed=11)
    d = compose_form("hod9", factors, sizes)
    pq, pw1, pu1 = factors[0], factors[1], factors[2]
    expected = np.zeros((2, 2))
    for q in range(2):
        for u in range(2):
            expected[q, u] = pq[q] * sum(
                pw1[q, w] * pu1[q, w, u] for w in range(2))
    m = marginalize(d, {"Q", "U1"})
    table = m.table if m.names == ("Q", "U1") else m.table.T
    np.testing.assert_allclose(table, expected, atol=1e-12)


def test_marginalize_unknown_variable():
    d = sample_distribution(FORMS["hod9"], binary_sizes("hod9"), seed=3)
    with pytest.raises(ModelError):
        marginalize(d, {"U1b"})


def test_marginalize_commutes():
    d = sample_distribution(FORMS["hod9"], binary_sizes("hod9"), seed=5)
    keep = {"Q", "W1", "X1", "Y1"}
    one = marginalize(d, keep | {"U1"})
    two = marginalize(one, keep)
    direct = marginalize(d, keep)
    np.testing.assert_allclose(two.table, direct.table, atol=1e-12)


def test_validate_product_uniform_is_hk():
    sizes = binary_sizes("hk3", q=2)
    d = compose_form("hk3", uniform_factors("hk3", sizes), sizes)
    ok, worst = validate_factorization(d, FORMS["hk3"])
    assert ok and worst < 1e-15


def test_validate_correlated_fails_hk(chain_qwu):
    # U1 = W1 coupling is fine for the general chain, not for independence
    sizes = binary_sizes("hod9", q=1)
    factors = sample_factors(FORMS["hod9"], sizes, seed=2)
    factors[2] = np.broadcast_to(delta(2), (1, 2, 2)).copy()  # p(u1|q,w1) identity
    d = compose_form("hod9", factors, sizes)
    ok9, _ = validate_factorization(d, FORMS["hod9"])
    ok3, worst3 = validate_factorization(d, FORMS["hk3"])
    assert ok9
    assert not ok3 and worst3 > 1e-3
    assert cmi(d, ("U1",), ("W1",), ("Q",)) > 0.5


@pytest.mark.parametrize("form", sorted(FORMS))
def test_compose_validates_for_own_form(form):
    sizes = binary_sizes(form)
    d = sample_distribution(FORMS[form], sizes, seed=17)
    ok, worst = validate_factorization(d, FORMS[form])
    assert ok, f"{form}: violation {worst}"


def test_sample_deterministic_in_seed():
    sizes = binary_sizes("hod9")
    a = sample_distribution(FORMS["hod9"], sizes, seed=42, index=3)
    b = sample_distribution(FORMS["hod9"], sizes, seed=42, index=3)
    c = sample_distribution(FORMS["hod9"], sizes, seed=42, index=4)
    np.testing.assert_array_equal(a.table, b.table)
    assert np.max(np.abs(a.table - c.table)) > 1e-6


@pytest.mark.parametrize("index", [-1, 2**128])
def test_sample_index_out_of_range_is_a_model_error(index):
    with pytest.raises(ModelError, match="sample index"):
        sample_factors(FORMS["hk3"], binary_sizes("hk3"), seed=1, index=index)


@pytest.mark.parametrize("seed", [-1, 2**64, -2**64, 2**64 + 5])
def test_seed_outside_64_bits_is_a_model_error(seed):
    with pytest.raises(ModelError, match=r"seed must be in \[0, 2\*\*64\)"):
        stream(seed)
    with pytest.raises(ModelError, match="seed"):
        sample_factors(FORMS["hk3"], binary_sizes("hk3"), seed=seed, index=0)


def test_seeds_at_the_ends_of_the_range_draw_distinct_streams():
    first, last = stream(0).random(4), stream(2**64 - 1).random(4)
    assert not np.array_equal(first, last)


def test_spec_variables_are_set_once_and_are_not_a_field():
    import dataclasses
    import pickle

    spec = FORMS["hod9"]
    assert spec.variables == tuple(t for f in spec.factors for t in f.targets)
    assert spec.variables is spec.variables
    assert [f.name for f in dataclasses.fields(spec)] == ["form", "factors"]
    twin = FactorizationSpec(spec.form, list(spec.factors))
    assert twin == spec and hash(twin) == hash(spec) and repr(twin) == repr(spec)
    assert "variables" not in repr(spec)
    assert pickle.loads(pickle.dumps(spec)).variables == spec.variables


def test_a_chain_is_plain_tuples_and_survives_pickle():
    import pickle

    spec = FORMS["hk3"]
    listed = FactorizationSpec("hk3", [[[*f.targets], [*f.given]] for f in spec.factors])
    assert listed == spec and hash(listed) == hash(spec)
    assert all(f.__class__ is Factor for f in listed.factors)
    assert Factor(("A",), ()) == (("A",), ()) and hash(Factor(("A",), ())) == hash((("A",), ()))
    copy = pickle.loads(pickle.dumps(spec))
    assert copy == spec and hash(copy) == hash(spec)
    for other in FORMS.values():
        assert copy.implies(other) is spec.implies(other)
        assert other.implies(copy) is other.implies(spec)


def test_samples_pass_own_validation():
    sizes = binary_sizes("hod9")
    for i in range(50):
        d = sample_distribution(FORMS["hod9"], sizes, seed=7, index=i)
        ok, worst = validate_factorization(d, FORMS["hod9"])
        assert ok, worst


def test_hk_samples_have_independent_auxiliaries():
    sizes = binary_sizes("hk3")
    for i in range(50):
        d = sample_distribution(FORMS["hk3"], sizes, seed=7, index=i)
        assert cmi(d, ("U1",), ("W1",), ("Q",)) <= 1e-9


def test_sample_permutation_still_factorizes():
    # relabelling one variable's alphabet permutes the table but keeps the form
    sizes = binary_sizes("hod9")
    d = sample_distribution(FORMS["hod9"], sizes, seed=9)
    ax = d.axis("U2")
    flipped = d.__class__(d.variables, np.flip(d.table, axis=ax))
    ok, worst = validate_factorization(flipped, FORMS["hod9"])
    assert ok, worst


def test_oversized_alphabets_rejected_before_allocating():
    import tracemalloc
    from rrkit.prob import MAX_CELLS
    sizes = dict(binary_sizes("hod9"), Q=64, W1=64, U1=64)  # 2**24 cells
    spec = FORMS["hod9"]
    placeholders = [np.ones(1)] * len(spec.factors)
    tracemalloc.start()
    try:
        with pytest.raises(ModelError, match=f"16777216 cells.*limit is {MAX_CELLS}"):
            sample_factors(spec, sizes, seed=1)
        with pytest.raises(ModelError, match="16777216 cells"):
            compose(placeholders, spec, sizes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def _with_kernel(kernel, seed=13):
    """The hod9 joint whose chain ends in ``kernel`` = p(Y1,Y2|X1,X2)."""
    sizes = binary_sizes("hod9", q=1) | {"Y1": kernel.shape[-2], "Y2": kernel.shape[-1]}
    factors = sample_factors(FORMS["hod9"], sizes, seed=seed)
    return compose(factors[:-1] + [kernel], FORMS["hod9"], sizes)


def test_embed_identity_channel():
    kernel = np.zeros((2, 2, 2, 2))
    for x1 in range(2):
        for x2 in range(2):
            kernel[x1, x2, x1, x2] = 1.0
    e = _with_kernel(kernel)
    assert abs(cmi(e, ("Y1",), ("X1",)) - entropy(e, ("X1",))) < 1e-12


def test_embed_constant_channel():
    e = _with_kernel(np.full((2, 2, 2, 2), 0.25))
    assert cmi(e, ("Y1",), ("X1", "X2")) < 1e-12


def test_embed_binary_symmetric_conditional_entropy():
    # crossover 0.1 on Y1, Y2 deterministic: H(Y1|X1) is the binary entropy
    kernel = np.zeros((2, 2, 2, 1))
    for x1 in range(2):
        for x2 in range(2):
            kernel[x1, x2, x1, 0] = 0.9
            kernel[x1, x2, 1 - x1, 0] = 0.1
    e = _with_kernel(kernel)
    h = -(0.1 * np.log2(0.1) + 0.9 * np.log2(0.9))
    assert abs(entropy(e, ("Y1",), ("X1",)) - h) < 1e-12
    assert abs(h - 0.468996) < 1e-6


def test_embed_preserves_marginal():
    # the kernel factor leaves the joint of the chain before it unchanged
    spec, sizes = FORMS["hod9"], binary_sizes("hod9", q=1)
    factors = sample_factors(spec, sizes, seed=13)
    pre = compose(factors[:-1], FactorizationSpec("pre", spec.factors[:-1]), sizes)
    kernel = sample_factors(spec, sizes, seed=23)[-1]
    e = _with_kernel(kernel)
    m = marginalize(e, set(pre.names))
    table = m.table.transpose([m.axis(n) for n in pre.names])
    np.testing.assert_allclose(table, pre.table, atol=1e-12)


def test_embed_alphabet_mismatch():
    sizes = binary_sizes("hod9", q=1)
    factors = sample_factors(FORMS["hod9"], sizes, seed=13)
    with pytest.raises(ModelError, match=r"p\(Y1,Y2\|X1,X2\) has shape \(3, 2, 2, 2\)"):
        compose(factors[:-1] + [np.full((3, 2, 2, 2), 0.25)], FORMS["hod9"], sizes)


def test_oversized_channel_embedding_rejected_before_allocating():
    import tracemalloc
    from rrkit.prob import MAX_CELLS
    # 2**12 cells before the kernel x |Y1| x |Y2| = 2**24 cells
    sizes = dict(binary_sizes("hod9", q=1), W1=128, Y1=64, Y2=64)
    factors = uniform_factors("hod9", sizes)
    tracemalloc.start()
    try:
        with pytest.raises(ModelError, match=f"16777216 cells.*Y1=64, Y2=64.*limit is {MAX_CELLS}"):
            compose(factors, FORMS["hod9"], sizes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_joint_equality_is_exact_and_unhashable():
    d = sample_distribution(FORMS["hod9"], binary_sizes("hod9"), seed=9)
    assert d == marginalize(d, d.names)
    assert not d != marginalize(d, d.names)
    other = sample_distribution(FORMS["hod9"], binary_sizes("hod9"), seed=10)
    assert d != other
    nudged = d.table.copy()
    nudged.flat[:2] += (1e-16, -1e-16)
    assert d != d.__class__(d.variables, nudged)
    renamed = d.__class__(d.variables[::-1], d.table.transpose())
    assert d != renamed and d != marginalize(d, d.names[:-1])
    assert d != (d.variables, d.table) and d != "hod9" and not d == None  # noqa: E711
    with pytest.raises(TypeError):
        hash(d)


def test_variable_name_guard():
    with pytest.raises(ModelError):
        Variable("Z9", 2)
    with pytest.raises(ModelError):
        Variable("Q", 0)


def _out_of_place_product(factors, spec, sizes) -> np.ndarray:
    """compose's product, one new table per factor."""
    order = spec.variables
    pos = {n: i for i, n in enumerate(order)}
    joint = np.ones(tuple(sizes[n] for n in order))
    for t, f in zip(factors, spec.factors):
        src = list(f.given) + list(f.targets)
        perm = sorted(range(len(src)), key=lambda i: pos[src[i]])
        shape = [sizes[n] if n in src else 1 for n in order]
        joint = joint * np.asarray(t, dtype=float).transpose(perm).reshape(shape)
    return joint


@pytest.mark.parametrize("form, sizes", [
    ("hk3", {"Q": 2, "U1": 4, "W1": 4, "U2": 4, "W2": 4, "X1": 2, "X2": 2, "Y1": 4, "Y2": 4}),
    ("hod9", {"Q": 2, "W1": 3, "U1": 3, "W2": 2, "U2": 3, "X1": 2, "X2": 3, "Y1": 2, "Y2": 3})])
def test_compose_equals_the_out_of_place_product(form, sizes):
    for index in range(4):
        factors = sample_factors(FORMS[form], sizes, seed=606, index=index)
        d = compose(factors, FORMS[form], sizes)
        assert np.array_equal(d.table, _out_of_place_product(factors, FORMS[form], sizes))


def _gather_cases():
    """(id, form, sizes, superposition) for the gather: every chain at binary
    sizes, eq14's superposition draw, and hk3 at and just above
    ``GATHER_CELLS`` cells, past which the ``_grow`` steps multiply."""
    from rrkit.verify import _SUPERPOSITION_SIZES
    for form in sorted(FORMS):
        for q in (1, 2) if "Q" in FORMS[form].variables else ():
            yield f"{form}-Q{q}", form, binary_sizes(form, q), False
    yield "rtd7", "rtd7", binary_sizes("rtd7"), False
    yield "rtd7-U1b1", "rtd7", dict(binary_sizes("rtd7"), U1b=1), False
    yield "eq14-superposition", "hod12", _SUPERPOSITION_SIZES, True
    at = dict(binary_sizes("hk3"), Y2=prob.GATHER_CELLS // 2**8)  # 2**8 cells besides Y2
    yield "hk3-at-the-bound", "hk3", at, False
    yield "hk3-above-the-bound", "hk3", dict(at, W1=3), False


@pytest.mark.parametrize("form, sizes, superposition",
                         [pytest.param(*case, id=name) for name, *case in _gather_cases()])
def test_the_gather_equals_the_out_of_place_product(form, sizes, superposition):
    from rrkit.verify import _superposition_draw
    spec = FORMS[form]
    gathered = math.prod(sizes.values()) <= prob.GATHER_CELLS
    plan = prob._elimination(spec, frozenset(spec.variables), *prob._shape(spec, sizes))
    assert (plan.index is not None) == gathered and (plan.steps == ()) == gathered
    for index in range(6):
        if superposition:
            factors = _superposition_draw(seed=707, index=index)[1][3]
        else:
            factors = sample_factors(spec, sizes, seed=707, index=index)
        # Fortran order takes the grouped check; int, float32 and list
        # tables are converted and checked one by one
        first = np.zeros(sizes[spec.variables[0]], int)
        first[index % first.size] = 1
        mixed = [first, uniform_factors(form, sizes)[1].astype(np.float32),
                 *(t.tolist() for t in factors[2:])]
        for tables in (factors, [np.asfortranarray(t) for t in factors], mixed):
            d = compose(tables, spec, sizes)
            assert d.table.tobytes() == _out_of_place_product(tables, spec, sizes).tobytes()
            assert d.table.flags.c_contiguous


def test_only_a_small_full_plan_holds_an_index_and_it_is_read_only():
    import tracemalloc
    spec = FORMS["hod9"]
    shape = prob._shape(spec, binary_sizes("hod9"))
    full, marginal = (prob._elimination(spec, frozenset(keep), *shape)
                      for keep in (spec.variables, {"Q", "Y1"}))
    assert full.index.shape == (len(spec.factors), 2**9) and full.index.dtype == np.intp
    assert not full.index.flags.writeable and marginal.index is None
    with pytest.raises(ValueError):
        full.index[0, 0] = 0
    big = prob._shape(spec, dict(zip(spec.variables, (4,) * 7 + (8, 8))))  # 2**20 cells
    tracemalloc.start()
    try:
        plan = prob._elimination(spec, frozenset(spec.variables), *big)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert plan.index is None and len(plan.steps) == len(spec.factors)
    assert peak < 2**20  # its index would take 64 MiB


def _mixed_sizes(form: str) -> dict[str, int]:
    """Alphabets 2, 3, 2, ... in chain order, so no two neighbours share a size."""
    return {n: 2 + i % 2 for i, n in enumerate(FORMS[form].variables)}


def _kept_sets(form: str):
    """(id, kept variables): each implied family's variables, every single-variable
    drop (U1 in hod9 is read last by X1|Q,W1,U1, whose other givens stay, so its
    product is batched over them) and nothing dropped."""
    from rrkit.regions import _FAMILIES
    spec = FORMS[form]
    yield from ((family, fam.variables) for family, fam in _FAMILIES.items()
                if spec.implies(FORMS[fam.form]))
    yield from ((f"drop-{n}", set(spec.variables) - {n}) for n in spec.variables)
    yield "all", spec.variables


@pytest.mark.parametrize("form", sorted(FORMS))
def test_a_marginal_compose_equals_marginalizing_the_full_joint(form):
    spec, sizes = FORMS[form], _mixed_sizes(form)
    for index in range(3):
        factors = sample_factors(spec, sizes, seed=808, index=index)
        full = compose(factors, spec, sizes)
        for name, keep in _kept_sets(form):
            m, want = compose(factors, spec, sizes, keep), marginalize(full, keep)
            assert m.names == want.names and m._spec is spec, name
            if name == "all":
                assert m.table.tobytes() == full.table.tobytes()
            else:
                assert np.abs(m.table - want.table).max() <= 1e-15, name


def test_a_marginal_is_read_only_and_refused_past_max_cells_on_the_full_chain():
    import tracemalloc
    spec, sizes = FORMS["hod9"], binary_sizes("hod9")
    m = compose(sample_factors(spec, sizes, seed=4), spec, sizes, {"Q", "Y1"})
    assert m.names == ("Q", "Y1") and m._spec is spec
    assert not m.table.flags.writeable and m.table.flags.c_contiguous
    with pytest.raises(ValueError):
        m.table[0, 0] = 1.0
    with pytest.raises(ModelError, match="unknown variables"):
        compose(sample_factors(spec, sizes, seed=4), spec, sizes, {"Q", "U1a"})
    big = dict(sizes, W1=64, U1=64, X1=64)  # 2**24 cells; {Q, Y1} alone has 4
    tracemalloc.start()
    try:
        with pytest.raises(ModelError, match="16777216 cells"):
            compose([np.ones(1)] * len(spec.factors), spec, big, {"Q", "Y1"})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_elimination_plan_cache_stops_growing():
    info = prob._elimination.cache_info
    assert 0 < info().maxsize < 10_000
    spec = FORMS["hk3"]
    for q, k in itertools.product((1, 2, 3), repeat=2):  # 81 keys, more than it holds
        sizes = {n: q if n == "Q" else k for n in spec.variables}
        for n in spec.variables:
            compose(uniform_factors("hk3", sizes), spec, sizes, set(spec.variables) - {n})
    assert info().currsize <= info().maxsize < 81
    sizes = binary_sizes("hk3")
    factors = uniform_factors("hk3", sizes)
    compose(factors, spec, sizes, ("Q", "Y1"))
    misses = info().misses
    for _ in range(3):
        compose(factors, spec, sizes, ("Y1", "Q"))  # the same kept set, in any order
    assert info().misses == misses


def test_implies_cache_stops_growing():
    info = FactorizationSpec.implies.cache_info
    assert 0 < info().maxsize < 10_000
    hk3 = FORMS["hk3"]
    for k in range(500):  # 500 distinct chains, more than it holds
        chain = FactorizationSpec(f"hk3-copy-{k}", hk3.factors)
        assert hk3.implies(chain)
    assert info().currsize <= info().maxsize < 500
    # every pair of the FORMS fits, so asking them all again misses nothing
    pairs = list(itertools.product(FORMS.values(), repeat=2))
    answers = [a.implies(b) for a, b in pairs]
    misses = info().misses
    assert [a.implies(b) for a, b in pairs] == answers
    assert info().misses == misses


def _per_factor_draw(spec, sizes, rng):
    """The reference draw: one ``random`` call and one normalisation per factor."""
    out = []
    for f in spec.factors:
        shape = tuple(sizes[n] for n in f.given + f.targets)
        e = -np.log1p(-rng.random(shape))
        total = e.sum(axis=tuple(range(len(f.given), len(shape))), keepdims=True)
        cells = float(math.prod(shape[len(f.given):]))
        out.append(np.where(total > 0, e, 1.0) / np.where(total > 0, total, cells))
    return out


def _sizes(form, k, q):
    return {n: q if n == "Q" else k for n in FORMS[form].variables}


def _assert_bitwise(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()


@pytest.mark.parametrize("form, k, q", [
    *((form, 2, q) for form in sorted(FORMS) for q in (1, 2)),
    ("hk3", 4, 2), ("hod9", 4, 2), ("hod12", 4, 2), ("rtd7", 3, 1)])
def test_one_call_draw_is_bitwise_the_per_factor_draw(form, k, q):
    sizes = _sizes(form, k, q)
    for index in range(6):
        got = sample_factors(FORMS[form], sizes, seed=1001, index=index)
        _assert_bitwise(got, _per_factor_draw(FORMS[form], sizes, stream(1001, index)))


@pytest.mark.parametrize("form, label", [("hod9", "p(W2|Q,U1,W1)"), ("ic1", "p(U1,W1|Q)"),
                                         ("hod9", "p(Y1,Y2|X1,X2)")])
def test_an_override_leaves_the_other_draws_unchanged(form, label):
    spec, sizes = FORMS[form], binary_sizes(form)
    want = _per_factor_draw(spec, sizes, stream(5, 3))
    i = [f.label() for f in spec.factors].index(label)
    fixed = np.full(want[i].shape, 1.0 / math.prod(want[i].shape[len(spec.factors[i].given):]))
    got = sample_factors(spec, sizes, seed=5, index=3, overrides={label: fixed})
    assert np.array_equal(got[i], fixed)
    _assert_bitwise(got[:i] + got[i + 1:], want[:i] + want[i + 1:])


def test_an_override_naming_no_factor_of_the_chain_is_a_model_error():
    spec, sizes = FORMS["hk3"], binary_sizes("hk3")
    fixed = np.full((2, 2), 0.5)
    with pytest.raises(ModelError, match=re.escape("override p(W1|Qx) names no factor of hk3; "
                                                   "its factors are p(Q), p(U1|Q), p(W1|Q)")):
        sample_factors(spec, sizes, seed=5, overrides={"p(W1|Qx)": fixed})
    with pytest.raises(ModelError, match=re.escape("override p(X1|Q) names no factor")):
        sample_factors(spec, sizes, seed=5, overrides={"p(W1|Q)": fixed, "p(X1|Q)": fixed})


EDGE_STREAMS = [(0, 0), (5, 3), (2**63 + 3, 2**100 + 9), (2**64 - 1, 2**128 - 1)]


@pytest.mark.parametrize("seed, index", EDGE_STREAMS)
def test_a_draw_is_bitwise_a_fresh_stream_whatever_came_before(seed, index):
    spec, sizes = FORMS["hod9"], binary_sizes("hod9")
    want = _per_factor_draw(spec, sizes, stream(seed, index))
    for other_seed, other_index in EDGE_STREAMS:  # leave the generator mid-buffer
        prob._rekeyed(other_seed, other_index).random(3)
        prob._rekeyed(other_seed, other_index).integers(2**32, size=3, dtype=np.uint32)
        _assert_bitwise(sample_factors(spec, sizes, seed=seed, index=index), want)


def test_two_threads_drawing_at_once_get_their_own_tables():
    spec, sizes = FORMS["hod9"], binary_sizes("hod9")
    jobs = [(11, 5), (2**64 - 1, 2**127 + 1)]
    want = [_per_factor_draw(spec, sizes, stream(*job)) for job in jobs]
    start, wrong, done = threading.Barrier(2, timeout=30), [], []

    def draw(k):
        start.wait()
        for _ in range(2000):
            got = sample_factors(spec, sizes, *jobs[k])
            if any(g.tobytes() != w.tobytes() for g, w in zip(got, want[k])):
                wrong.append(k)
        done.append(k)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=draw, args=(k,)) for k in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert sorted(done) == [0, 1] and wrong == []


class _Scripted:
    """A stand-in generator handing out ``values`` in order."""

    def __init__(self, values):
        self.values, self.at = values, 0

    def random(self, shape):
        n = math.prod(shape) if isinstance(shape, tuple) else shape
        self.at += n
        return self.values[self.at - n:self.at].reshape(shape).copy()


def test_all_zero_slices_are_drawn_uniform(monkeypatch):
    spec, sizes = FORMS["hod9"], binary_sizes("hod9")
    monkeypatch.setattr(prob, "_rekeyed", lambda seed, index=0: _Scripted(np.zeros(10**4)))
    for f, t in zip(spec.factors, sample_factors(spec, sizes, seed=1)):
        assert np.array_equal(t, np.full(t.shape, 1.0 / math.prod(sizes[n] for n in f.targets)))
    # draw's tables pass the check it skips, and its joint is compose's
    d, drawn = prob.draw(spec, sizes, seed=1)
    assert _passes_compose_check(spec, sizes, drawn)
    assert d.table.tobytes() == compose(drawn, spec, sizes).table.tobytes()


def test_zero_slices_in_both_groups_match_the_reference(monkeypatch):
    # hod9 binary with |Q| = 2: p(Q) is the first 2 draws, the kernel the last 16
    spec, sizes = FORMS["hod9"], binary_sizes("hod9")
    values = stream(3).random(10**4)
    values[:2] = 0.0
    n = sum(math.prod(sizes[v] for v in f.given + f.targets) for f in spec.factors)
    values[n - 8:n - 4] = 0.0  # one Y1,Y2 slice
    monkeypatch.setattr(prob, "_rekeyed", lambda seed, index=0: _Scripted(values))
    got = sample_factors(spec, sizes, seed=1)
    _assert_bitwise(got, _per_factor_draw(spec, sizes, _Scripted(values)))
    assert np.array_equal(got[0], [0.5, 0.5]) and np.array_equal(got[-1][1, 0], np.full((2, 2), 0.25))


# --- draw: a drawn chain is multiplied out without re-checking its tables ----------

def _passes_compose_check(spec, sizes, tables) -> bool:
    _, shapes, _, gather, blocks = prob._layout(spec, *prob._shape(spec, sizes))
    return prob._grouped_ok(tables, shapes, gather, blocks) is not None


@pytest.mark.parametrize("form, sizes, family", [
    *((form, binary_sizes(form, q), None) for form in sorted(FORMS) for q in (1, 2)),
    ("hk3", _sizes("hk3", 4, 2), "hod"),  # the bench's union chain: the _contract steps
    ("hod9", dict(binary_sizes("hod9"), W1=3, Y1=4, Y2=4), None),  # 3,072 cells: _grow steps
])
def test_draw_is_bitwise_compose_of_sample_factors(form, sizes, family, monkeypatch):
    from rrkit.regions import _FAMILIES
    spec, keep = FORMS[form], _FAMILIES[family].variables if family else None

    def refuse(*args):
        raise AssertionError("a drawn chain was re-checked")
    with monkeypatch.context() as m:
        m.setattr(prob, "_grouped_ok", refuse)
        got = [prob.draw(spec, sizes, seed=1001, index=i, keep=keep) for i in range(3)]
    for index, (d, factors) in enumerate(got):
        want = sample_factors(spec, sizes, seed=1001, index=index)
        _assert_bitwise(factors, want)
        composed = compose(want, spec, sizes, keep)
        assert d.variables == composed.variables and d._spec is spec
        assert d.table.tobytes() == composed.table.tobytes() and not d.table.flags.writeable


@pytest.mark.parametrize("form", sorted(FORMS))
def test_a_drawn_full_joint_is_gathered_from_the_buffer_it_was_drawn_in(form, monkeypatch):
    # every drawn table is a view of one buffer in chain order: nothing is laid end to end again
    spec, sizes = FORMS[form], binary_sizes(form)
    assert prob._plan(spec, sizes, None)[1].index is not None  # a full-joint gather
    want = [compose(sample_factors(spec, sizes, seed=1001, index=i), spec, sizes) for i in range(3)]

    def refuse(*args, **kwargs):
        raise AssertionError("the drawn tables were concatenated again")
    with monkeypatch.context() as m:
        m.setattr(prob.np, "concatenate", refuse)
        got = [prob.draw(spec, sizes, seed=1001, index=i)[0] for i in range(3)]
    assert [d.table.tobytes() for d in got] == [d.table.tobytes() for d in want]


_PINNED = "p(W2|Q,U1,W1)"  # hod9's factor over (Q, U1, W1, W2)


@pytest.mark.parametrize("fixed, message", [
    (np.full((2, 2, 2, 2), 0.5), None),
    (np.full((2, 2, 2, 2), 0.6), "conditional slices must sum to 1; worst deviation 0.19"),
    (np.tile([1.5, -0.5], (2, 2, 2, 1)), "negative entry -0.5 in conditional table"),
], ids=["valid", "not-normalised", "negative"])
def test_a_draw_with_a_pinned_table_is_composed_with_every_check(fixed, message):
    spec, sizes = FORMS["hod9"], binary_sizes("hod9")
    want = sample_factors(spec, sizes, seed=5, index=3, overrides={_PINNED: fixed})
    if message is None:
        d, factors = prob.draw(spec, sizes, seed=5, index=3, overrides={_PINNED: fixed})
        _assert_bitwise(factors, want)
        assert d.table.tobytes() == compose(want, spec, sizes).table.tobytes()
        return
    with pytest.raises(ModelError, match=re.escape(message)) as composed:
        compose(want, spec, sizes)
    with pytest.raises(ModelError) as drawn:
        prob.draw(spec, sizes, seed=5, index=3, overrides={_PINNED: fixed})
    assert str(drawn.value) == str(composed.value)


@pytest.mark.parametrize("form", sorted(FORMS))
@pytest.mark.parametrize("q", [1, 2])
def test_every_drawn_chain_passes_the_checks_draw_skips(form, q):
    # what lets draw skip compose's table checks, and regions._guarded the
    # numeric factorization check of a drawn joint
    spec, sizes = FORMS[form], binary_sizes(form, q)
    for index in range(200):
        d, factors = prob.draw(spec, sizes, seed=2024, index=index)
        assert _passes_compose_check(spec, sizes, factors), index
        if index % 10 == 0:
            assert validate_factorization(d, spec)[1] <= prob.FACTORIZATION_TOL, index


@pytest.mark.parametrize("form, early, late", [("hod9", 1, 7), ("ic1", 1, 3)])
def test_compose_raises_the_first_fault_in_chain_order(form, early, late):
    # the two factors sit in different target-cell groups
    spec, sizes = FORMS[form], binary_sizes(form)
    factors = sample_factors(spec, sizes, seed=8)

    def faulty(i, kind):
        if kind == "ragged":
            return [[0.5, 0.5], [1.0]]
        if kind == "nan":
            t = factors[i].copy()
            t.flat[0] = np.nan
            return t
        shape = factors[i].shape[:-1] + (4,)  # slices still sum to 1
        return np.full(shape, 1 / math.prod(shape[-len(spec.factors[i].targets):]))

    def with_faults(first, second):
        return [*factors[:early], faulty(early, first), *factors[early + 1:late],
                faulty(late, second), *factors[late + 1:]]

    for late_fault in ("shape", "ragged"):
        with pytest.raises(ModelError, match="sum to 1; worst deviation nan"):
            compose(with_faults("nan", late_fault), spec, sizes)
    label = spec.factors[early].label()
    with pytest.raises(ModelError, match=rf"factor {re.escape(label)} has shape"):
        compose(with_faults("shape", "nan"), spec, sizes)


@pytest.mark.parametrize("name", ["Q", "X1", "Y2"])
def test_an_empty_alphabet_draws_empty_tables_that_compose_refuses(name):
    # an empty alphabet draws no tables: both refuse it, naming the variable
    spec, sizes = FORMS["hod9"], dict(binary_sizes("hod9"), **{name: 0})
    message = f"alphabet size of {name} must be an integer of at least 1, got 0"
    with pytest.raises(ModelError, match=message):
        sample_factors(spec, sizes, seed=4)
    with pytest.raises(ModelError, match=message):
        compose(uniform_factors("hod9", binary_sizes("hod9")), spec, sizes)


@pytest.mark.parametrize("size", [0, -1, 2.5, True, 2.0])
@pytest.mark.parametrize("name", ["Q", "U1", "Y2"])
def test_an_alphabet_size_that_is_no_int_of_at_least_1_is_refused_before_allocating(name, size):
    import tracemalloc
    spec, valid = FORMS["hod9"], binary_sizes("hod9", q=1)
    # with the plans for the equal sizes 1 (== True) and 2 (== 2.0) cached
    compose(sample_factors(spec, valid, seed=1), spec, valid, {"Q", name})
    sizes, placeholders = dict(valid, **{name: size}), [np.ones(1)] * len(spec.factors)
    message = rf"alphabet size of {name} must be an integer of at least 1, got {size!r}"
    tracemalloc.start()
    try:
        for refused in (lambda: Variable(name, size), lambda: sample_factors(spec, sizes, seed=1),
                        lambda: compose(placeholders, spec, sizes),
                        lambda: compose(placeholders, spec, sizes, {"Q", name})):
            with pytest.raises(ModelError, match=re.escape(message)):
                refused()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("links, message", [
    (("Q", "U1|Q,W1", "W1|Q"), "t: factor p(U1|Q,W1) conditions on W1 before it is generated"),
    (("Q", "W1|Q", "W1,U1|Q"), "t: W1 targeted twice"),
])
def test_a_chain_out_of_order_or_with_a_repeated_target_is_refused(links, message):
    with pytest.raises(ModelError, match=re.escape(message)):
        prob._chain("t", *links)


_SPEC = FORMS["hod9"]


@pytest.mark.parametrize("call, message", [
    (lambda: sample_factors(_SPEC, {"Q": 1}, seed=1), "no alphabet size for W1"),
    (lambda: compose(uniform_factors("hod9", binary_sizes("hod9")), _SPEC,
                     {n: 2 for n in _SPEC.variables if n != "Y2"}), "no alphabet size for Y2"),
    (lambda: compose(uniform_factors("hod9", binary_sizes("hod9"))[:-1], _SPEC,
                     binary_sizes("hod9")), "hod9 needs 8 factor tables, got 7"),
    (lambda: sample_factors(_SPEC, binary_sizes("hod9"), seed=1,
                            overrides={"p(W1|Q)": np.full((2, 3), 1 / 3)}),
     "override for p(W1|Q) has shape (2, 3), expected (2, 2)"),
    # a seed or index is an int (``Variable``'s rule), not a float, bool or numpy integer
    (lambda: sample_factors(_SPEC, binary_sizes("hod9"), 5, np.int64(3)),
     f"sample index must be an integer, got {np.int64(3)!r}"),
    (lambda: stream(5, np.int64(3)), f"sample index must be an integer, got {np.int64(3)!r}"),
    (lambda: sample_factors(_SPEC, binary_sizes("hod9"), 5, 3.0),
     "sample index must be an integer, got 3.0"),
    (lambda: sample_factors(_SPEC, binary_sizes("hod9"), 5.0), "seed must be an integer, got 5.0"),
    (lambda: prob.draw(_SPEC, binary_sizes("hod9"), True), "seed must be an integer, got True"),
    (lambda: stream(np.uint64(5)), f"seed must be an integer, got {np.uint64(5)!r}"),
])
def test_missing_sizes_factor_counts_and_override_shapes_are_refused(call, message):
    with pytest.raises(ModelError, match=re.escape(message)):
        call()


@pytest.mark.parametrize("form, k", [("hod9", 2), ("hk3", 4)])
def test_fortran_ordered_factors_compose_like_contiguous_ones(form, k):
    spec, sizes = FORMS[form], _sizes(form, k, 2)
    factors = sample_factors(spec, sizes, seed=21, index=1)
    transposed = [np.ascontiguousarray(t.T).T for t in factors]  # F-ordered views
    assert all(t.flags.f_contiguous and not t.flags.c_contiguous for t in transposed[1:])
    got = compose(transposed, spec, sizes).table
    assert got.tobytes() == compose(factors, spec, sizes).table.tobytes()


def test_marginals_are_read_only_valid_joints():
    d = sample_distribution(FORMS["hod9"], binary_sizes("hod9"), seed=12)
    for keep in (d.names, ("Q", "Y1"), ("Y2",), ()):
        m = marginalize(d, keep)
        assert m.names == tuple(n for n in d.names if n in keep)
        assert [m.axis(n) for n in m.names] == list(range(len(keep)))
        assert m.table.shape == tuple(m.size(n) for n in m.names)
        assert not m.table.flags.writeable
        assert m == d.__class__(m.variables, m.table)  # the checked constructor agrees
        with pytest.raises(ModelError):
            m.axis("U1b")


# --- a joint is checked once: by its inputs, or by the public constructor ---------

def test_a_chain_within_the_slice_tolerance_composes_although_its_mass_is_not():
    sizes = binary_sizes("hk3")
    factors = margin_factors("hk3", sizes)
    d = compose(factors, FORMS["hk3"], sizes)
    assert not abs(d.table.sum() - 1.0) <= prob.SUM_TOL  # eight slices of 1 + 9e-13
    assert not d.table.flags.writeable and d.table.flags.c_contiguous
    assert not any(np.shares_memory(d.table, t) for t in factors)
    assert marginalize(d, {"Q", "Y1"}).table.shape == (2, 2)
    assert math.isfinite(entropy(d, ["Y1", "Y2"], ["X1", "X2"]))
    assert validate_factorization(d, FORMS["hk3"])[0]
    with pytest.raises(ModelError, match=r"total mass 1\.0000000000071"):
        JointDistribution(d.variables, d.table)  # a table from outside keeps the mass check


def test_compose_and_marginalize_never_run_the_public_checks(monkeypatch):
    def refuse(self):
        raise AssertionError("JointDistribution.__post_init__ ran")

    monkeypatch.setattr(JointDistribution, "__post_init__", refuse)
    d = sample_distribution(FORMS["hod9"], binary_sizes("hod9"), seed=5)
    assert d._spec is FORMS["hod9"]
    for keep in (d.names, ("Q", "X1"), ()):
        m = marginalize(d, keep)
        assert m._spec is None and not m.table.flags.writeable
        assert not np.shares_memory(m.table, d.table)
    assert validate_factorization(d, FORMS["hod9"])[0]
    with pytest.raises(AssertionError):
        JointDistribution(d.variables, d.table)


@pytest.mark.parametrize("variables, table, message", [
    ((Variable("Q", 2), Variable("Q", 2)), np.full((2, 2), 0.25), "duplicate variable names"),
    ((Variable("Q", 2),), np.full(3, 1 / 3), r"table shape \(3,\) does not match alphabets \(2,\)"),
    ((Variable("Q", 2),), np.array([1.5, -0.5]), r"negative probability -0\.5"),
], ids=["duplicate-names", "shape", "negative"])
def test_the_public_constructor_refuses_a_bad_outside_table(variables, table, message):
    with pytest.raises(ModelError, match=message):
        JointDistribution(variables, table)


@pytest.mark.parametrize("bad, message", [
    ([[0.5, 0.5], [0.5]], "setting an array element with a sequence"),
    (["a"], "could not convert string to float"),
], ids=["ragged", "string"])
def test_a_table_that_is_not_an_array_of_numbers_is_a_model_error(bad, message):
    spec, sizes = FORMS["ic1"], binary_sizes("ic1")
    factors = sample_factors(spec, sizes, seed=3)
    label = spec.factors[1].label()  # p(U1,W1|Q)
    named = rf"factor {re.escape(label)} table is not a rectangular array of numbers: {message}"
    with pytest.raises(ModelError, match=named):
        compose([*factors[:1], bad, *factors[2:]], spec, sizes)
    with pytest.raises(ModelError, match=named):
        sample_factors(spec, sizes, seed=3, overrides={label: bad})
    with pytest.raises(ModelError, match=f"joint table is not a rectangular array of numbers: "
                                         f"{message}"):
        JointDistribution((Variable("Q", 2),), bad)


def test_none_and_every_variable_share_one_plan_and_one_table():
    spec, sizes = FORMS["hod9"], binary_sizes("hod9")
    factors = sample_factors(spec, sizes, seed=5)
    everything = compose(factors, spec, sizes)
    info = prob._elimination.cache_info
    misses = info().misses
    for keep in (None, set(spec.variables), reversed(spec.variables)):
        d = compose(factors, spec, sizes, keep)
        assert d.names == spec.variables and d.table.tobytes() == everything.table.tobytes()
        assert d.table.flags.c_contiguous and not d.table.flags.writeable
    assert info().misses == misses


# --- structural implication between chains ---------------------------------------

def _worst_violation(source: FactorizationSpec, target: FactorizationSpec, sizes, seed, draws):
    """Largest numeric violation of ``target`` over ``draws`` joints of ``source``."""
    return max(validate_factorization(
        compose(sample_factors(source, sizes, seed, i), source, sizes), target)[1]
        for i in range(draws))


def _assert_implies_agrees(source, target, sizes, seed, draws):
    worst = _worst_violation(source, target, sizes, seed, draws)
    if source.implies(target):
        assert worst < 1e-12, f"{source.form}->{target.form}: {worst}"
    else:
        assert worst > 1e-6, f"{source.form}->{target.form}: {worst}"


_SAME_VARIABLE_PAIRS = [(a, b) for a, b in itertools.product(sorted(FORMS), repeat=2)
                        if set(FORMS[a].variables) == set(FORMS[b].variables)]


@pytest.mark.parametrize("source, target", _SAME_VARIABLE_PAIRS)
def test_implies_agrees_with_numeric_validation(source, target):
    sizes = {n: 3 for n in FORMS[source].variables}
    if "Q" in sizes:
        sizes["Q"] = 2
    _assert_implies_agrees(FORMS[source], FORMS[target], sizes, seed=808, draws=5)


@pytest.mark.parametrize("source, target, expected", [
    ("hk3", "hod9", True), ("dmt5", "hod9", True), ("crc2", "hod9", True),
    ("cmg4", "hod12", True), ("hod9", "hod9", True),
    ("hod9", "dmt5", False), ("ic1", "dmt5", False), ("hod12", "cmg4", False),
    ("hod9", "hod12", False), ("rtd7", "hod9", False)])
def test_implies_pinned_pairs(source, target, expected):
    assert FORMS[source].implies(FORMS[target]) is expected


def test_chain_built_from_lists_is_a_hashable_spec():
    listed = FactorizationSpec("listed", [Factor([*f.targets], [*f.given])
                                          for f in FORMS["hk3"].factors])
    assert listed.factors == FORMS["hk3"].factors
    assert listed.implies(FORMS["hod9"]) and not listed.implies(FORMS["cmg4"])


_CHAIN_NAMES = ("Q", "W1", "U1", "W2", "U2")


@st.composite
def _chains(draw, names):
    """A chain over ``names`` in a random order: targets grouped in ones or
    twos, each given a random subset of the variables produced before it."""
    order = draw(st.permutations(names))
    factors, earlier, i = [], [], 0
    while i < len(order):
        width = draw(st.integers(1, min(2, len(order) - i)))
        given = tuple(v for v in earlier if draw(st.booleans()))
        factors.append(Factor(tuple(order[i:i + width]), given))
        earlier += order[i:i + width]
        i += width
    return FactorizationSpec("random", tuple(factors))


@st.composite
def _chain_pairs(draw):
    names = _CHAIN_NAMES[:draw(st.integers(4, 5))]
    source = draw(_chains(names))
    if draw(st.booleans()):
        return source, draw(_chains(names))
    # a weakening of source: same factors, each given a superset of earlier variables
    factors, earlier = [], []
    for f in source.factors:
        extra = tuple(v for v in earlier if v not in f.given and draw(st.booleans()))
        factors.append(Factor(f.targets, f.given + extra))
        earlier += f.targets
    return source, FactorizationSpec("weaker", tuple(factors))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_chain_pairs())
def test_implies_agrees_with_numeric_validation_on_random_chains(pair):
    source, target = pair
    _assert_implies_agrees(source, target, {n: 3 for n in source.variables},
                           seed=809, draws=2)
