import itertools
import math
import re

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
    monkeypatch.setattr(prob, "stream", lambda seed, index=0: _Scripted(np.zeros(10**4)))
    for f, t in zip(spec.factors, sample_factors(spec, sizes, seed=1)):
        assert np.array_equal(t, np.full(t.shape, 1.0 / math.prod(sizes[n] for n in f.targets)))


def test_zero_slices_in_both_groups_match_the_reference(monkeypatch):
    # hod9 binary with |Q| = 2: p(Q) is the first 2 draws, the kernel the last 16
    spec, sizes = FORMS["hod9"], binary_sizes("hod9")
    values = stream(3).random(10**4)
    values[:2] = 0.0
    n = sum(math.prod(sizes[v] for v in f.given + f.targets) for f in spec.factors)
    values[n - 8:n - 4] = 0.0  # one Y1,Y2 slice
    monkeypatch.setattr(prob, "stream", lambda seed, index=0: _Scripted(values))
    got = sample_factors(spec, sizes, seed=1)
    _assert_bitwise(got, _per_factor_draw(spec, sizes, _Scripted(values)))
    assert np.array_equal(got[0], [0.5, 0.5]) and np.array_equal(got[-1][1, 0], np.full((2, 2), 0.25))


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
    spec, sizes = FORMS["hod9"], dict(binary_sizes("hod9"), **{name: 0})
    factors = sample_factors(spec, sizes, seed=4)
    assert [t.shape for t in factors] == [
        tuple(sizes[n] for n in f.given + f.targets) for f in spec.factors]
    with pytest.raises(ModelError, match="sum to 1; worst deviation 1.0"):
        compose(factors, spec, sizes)


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
