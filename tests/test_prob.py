import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrkit.measures import cmi, entropy
from rrkit.prob import (FORMS, ChannelModel, Factor, FactorizationSpec, ModelError, Variable,
                        ZeroProbabilityError, compose, condition,
                        embed_channel, marginalize, sample_distribution,
                        sample_factors, validate_factorization)

from conftest import binary_sizes, compose_form, delta, uniform_factors


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


def test_condition_independent_pair(chain_qwu):
    pq = np.array([0.4, 0.6])
    pw = np.tile([0.2, 0.8], (2, 1))
    pu = np.tile([0.5, 0.5], (2, 2, 1))
    d = compose([pq, pw, pu], chain_qwu, {"Q": 2, "W1": 2, "U1": 2})
    c = condition(d, {"Q": 0})
    np.testing.assert_allclose(marginalize(c, {"W1"}).table, [0.2, 0.8], atol=1e-12)


def test_condition_correlated_bits(chain_qwu):
    pq = np.array([0.5, 0.5])
    d = compose([pq, delta(2), np.stack([delta(2), delta(2)])],
                chain_qwu, {"Q": 2, "W1": 2, "U1": 2})
    c = condition(d, {"Q": 1})
    np.testing.assert_allclose(marginalize(c, {"W1"}).table, [0.0, 1.0], atol=1e-15)


def test_condition_zero_probability_errors(chain_qwu):
    pq = np.array([1.0, 0.0])
    d = compose([pq, delta(2), np.stack([delta(2), delta(2)])],
                chain_qwu, {"Q": 2, "W1": 2, "U1": 2})
    with pytest.raises(ZeroProbabilityError):
        condition(d, {"Q": 1})


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


def _pre_channel(seed=13):
    sizes = binary_sizes("hod9", q=1)
    factors = sample_factors(FORMS["hod9"], sizes, seed=seed)
    spec = FORMS["hod9"]
    from rrkit.prob import FactorizationSpec
    pre_spec = FactorizationSpec("pre", spec.factors[:-1])
    return compose(factors[:-1], pre_spec, sizes)


def test_embed_identity_channel():
    d = _pre_channel()
    kernel = np.zeros((2, 2, 2, 2))
    for x1 in range(2):
        for x2 in range(2):
            kernel[x1, x2, x1, x2] = 1.0
    e = embed_channel(d, ChannelModel(kernel))
    assert abs(cmi(e, ("Y1",), ("X1",)) - entropy(e, ("X1",))) < 1e-12


def test_embed_constant_channel():
    d = _pre_channel()
    kernel = np.full((2, 2, 2, 2), 0.25)
    e = embed_channel(d, ChannelModel(kernel))
    assert cmi(e, ("Y1",), ("X1", "X2")) < 1e-12


def test_embed_binary_symmetric_conditional_entropy():
    # crossover 0.1 on Y1, Y2 deterministic: H(Y1|X1) is the binary entropy
    d = _pre_channel()
    kernel = np.zeros((2, 2, 2, 1))
    for x1 in range(2):
        for x2 in range(2):
            kernel[x1, x2, x1, 0] = 0.9
            kernel[x1, x2, 1 - x1, 0] = 0.1
    e = embed_channel(d, ChannelModel(kernel))
    h = -(0.1 * np.log2(0.1) + 0.9 * np.log2(0.9))
    assert abs(entropy(e, ("Y1",), ("X1",)) - h) < 1e-12
    assert abs(h - 0.468996) < 1e-6


def test_embed_preserves_marginal():
    d = _pre_channel()
    kernel = sample_factors(FORMS["hod9"], binary_sizes("hod9", q=1), seed=23)[-1]
    e = embed_channel(d, ChannelModel(kernel))
    m = marginalize(e, set(d.names))
    table = m.table.transpose([m.axis(n) for n in d.names])
    np.testing.assert_allclose(table, d.table, atol=1e-12)


def test_embed_alphabet_mismatch():
    d = _pre_channel()
    with pytest.raises(ModelError):
        embed_channel(d, ChannelModel(np.full((3, 2, 2, 2), 0.25)))


def test_oversized_channel_embedding_rejected_before_allocating():
    import tracemalloc
    from rrkit.prob import MAX_CELLS, JointDistribution
    # 2**12 joint cells x |Y1| x |Y2| = 2**24 cells
    variables = (Variable("W1", 1024), Variable("X1", 2), Variable("X2", 2))
    d = JointDistribution(variables, np.full((1024, 2, 2), 2.0**-12))
    channel = ChannelModel(np.full((2, 2, 64, 64), 2.0**-12))
    tracemalloc.start()
    try:
        with pytest.raises(ModelError, match=f"16777216 cells.*Y1=64, Y2=64.*limit is {MAX_CELLS}"):
            embed_channel(d, channel)
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
