import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from rrkit.measures import InfoTerm, cmi, entropy, eval_term, eval_terms
from rrkit.prob import FORMS, condition, marginalize, sample_distribution, stream

from conftest import binary_sizes, compose_form, delta, uniform_factors


def _closed_form_entropy(ps) -> float:
    return -sum(p * math.log2(p) for p in ps if p > 0)


def test_entropy_uniform_bit(chain_qwu):
    d = compose_form("hk3", uniform_factors("hk3", binary_sizes("hk3", q=1)),
                     binary_sizes("hk3", q=1))
    assert abs(entropy(d, ("W1",)) - 1.0) < 1e-15


def test_entropy_point_mass(chain_qwu):
    import numpy as np
    from rrkit.prob import compose
    pq = np.array([1.0, 0.0])
    d = compose([pq, delta(2), np.stack([delta(2), delta(2)])],
                chain_qwu, {"Q": 2, "W1": 2, "U1": 2})
    assert entropy(d, ("Q",)) == 0.0


def test_entropy_quarter_three_quarters(chain_qwu):
    from rrkit.prob import compose
    pq = np.array([0.25, 0.75])
    d = compose([pq, delta(2), np.stack([delta(2), delta(2)])],
                chain_qwu, {"Q": 2, "W1": 2, "U1": 2})
    assert abs(entropy(d, ("Q",)) - _closed_form_entropy([0.25, 0.75])) < 1e-15
    assert abs(entropy(d, ("Q",)) - 0.811278) < 1e-6


def test_entropy_input_guards():
    d = sample_distribution(FORMS["hk3"], binary_sizes("hk3"), seed=1)
    with pytest.raises(ValueError):
        entropy(d, ())
    with pytest.raises(ValueError):
        entropy(d, ("Q",), ("Q",))


def test_cmi_independent_is_zero():
    sizes = binary_sizes("hk3", q=1)
    d = compose_form("hk3", uniform_factors("hk3", sizes), sizes)
    assert abs(cmi(d, ("U1",), ("W1",))) < 1e-15


def test_cmi_copy_is_one_bit(chain_qwu):
    from rrkit.prob import compose
    pq = np.array([0.5, 0.5])
    d = compose([pq, delta(2), np.stack([delta(2), delta(2)])],
                chain_qwu, {"Q": 2, "W1": 2, "U1": 2})
    assert abs(cmi(d, ("U1",), ("W1",)) - 1.0) < 1e-12


def test_cmi_markov_chain_vanishes(chain_qwu):
    # W1 and U1 both noisy copies of Q only: I(W1;U1|Q) = 0
    from rrkit.prob import compose
    pq = np.array([0.5, 0.5])
    noisy = np.array([[0.8, 0.2], [0.3, 0.7]])
    pu = np.stack([noisy, noisy])  # depends on q only
    pu = np.transpose(pu, (1, 0, 2))  # axes (q, w1, u1), u1 | q
    d = compose([pq, noisy, pu], chain_qwu, {"Q": 2, "W1": 2, "U1": 2})
    assert abs(cmi(d, ("W1",), ("U1",), ("Q",))) < 1e-12


def test_cmi_overlap_guard():
    d = sample_distribution(FORMS["hk3"], binary_sizes("hk3"), seed=1)
    with pytest.raises(ValueError):
        cmi(d, ("Q", "U1"), ("U1",))


def test_eval_term_hk_binning_term_vanishes():
    d = sample_distribution(FORMS["hk3"], binary_sizes("hk3"), seed=8)
    t = InfoTerm("I", ("W2",), ("W1", "U1"), ("Q",), sign=-1)
    assert abs(eval_term(d, t)) < 1e-9


def test_eval_term_identity_coupling(chain_qwu):
    from rrkit.prob import compose
    pq = np.array([1.0])
    d = compose([pq, np.array([[0.5, 0.5]]), delta(2)[None, :, :]],
                chain_qwu, {"Q": 1, "W1": 2, "U1": 2})
    t = InfoTerm("I", ("U1",), ("W1",), ("Q",))
    assert abs(eval_term(d, t) - 1.0) < 1e-12
    doubled = InfoTerm("I", ("U1",), ("W1",), ("Q",), coefficient=Fraction(2))
    assert abs(eval_term(d, doubled) - 2.0) < 1e-12


def test_eval_terms_sum():
    d = sample_distribution(FORMS["hk3"], binary_sizes("hk3"), seed=8)
    t1 = InfoTerm("H", ("Y1",))
    t2 = InfoTerm("H", ("Y1",), sign=-1)
    assert abs(eval_terms(d, [t1, t2])) < 1e-15


def _random_split(rng, names):
    names = list(names)
    rng.shuffle(names)
    k1 = 1 + int(rng.integers(0, 2))
    k2 = k1 + 1 + int(rng.integers(0, 2))
    k3 = k2 + 1 + int(rng.integers(0, 2))
    a, b, c2 = names[:k1], names[k1:k2], names[k2:k3]
    d_ = names[k3:k3 + int(rng.integers(0, 3))]
    return tuple(a), tuple(b), tuple(c2), tuple(d_)


def test_chain_rule_and_nonnegativity():
    rng = stream(101)
    sizes = binary_sizes("hod9")
    for i in range(60):
        d = sample_distribution(FORMS["hod9"], sizes, seed=202, index=i)
        a, b, c, cond = _random_split(rng, d.names)
        lhs = cmi(d, a, b + c, cond)
        rhs = cmi(d, a, b, cond) + cmi(d, a, c, b + cond)
        assert abs(lhs - rhs) < 1e-12
        assert cmi(d, a, b, cond) >= -1e-12
        assert entropy(d, a, cond) >= -1e-12


def test_subadditivity():
    sizes = binary_sizes("hod9")
    for i in range(30):
        d = sample_distribution(FORMS["hod9"], sizes, seed=303, index=i)
        assert (entropy(d, ("Y1", "Y2")) <=
                entropy(d, ("Y1",)) + entropy(d, ("Y2",)) + 1e-12)


# --- per-joint memo of subset entropies --------------------------------------

_MEMO_CASES = [("hod9", "hod_constants", 1001), ("dmt5", "dmt_constants", 1003),
               ("rtd7", "rtd_constants", 1005), ("hod12", "hod1_constants", 1002)]


def _memo_free_entropy(d, names) -> float:
    """Reference: marginalise and sum on every call, no memo."""
    p = marginalize(d, set(names)).table.ravel()
    p = p[p > 0.0]
    return float(-np.sum(p * np.log2(p)))


def _draw_binary(form, seed, index):
    return sample_distribution(FORMS[form], binary_sizes(form, q=1 + index % 2),
                               seed=seed, index=index)


@pytest.mark.parametrize("form, fn, seed", _MEMO_CASES)
def test_memoised_constants_bitwise_equal_memo_free(form, fn, seed, monkeypatch):
    # Equal joints asked the same things in the same order give bitwise equal
    # constants; summing subsets from held marginals moves them by ulps only.
    from rrkit import measures, regions
    for i in range(6):
        memoised = getattr(regions, fn)(_draw_binary(form, seed, i))
        assert getattr(regions, fn)(_draw_binary(form, seed, i)).values == memoised.values
        with monkeypatch.context() as m:
            m.setattr(measures, "_plain_entropy", _memo_free_entropy)
            reference = getattr(regions, fn)(_draw_binary(form, seed, i))
        assert reference.values.keys() == memoised.values.keys()
        for k, v in reference.values.items():
            assert abs(memoised[k] - v) <= 1e-13, (form, i, k)


def test_entropy_memo_ignores_name_order():
    d = sample_distribution(FORMS["hod9"], binary_sizes("hod9"), seed=4)
    h = entropy(d, ("U1", "W1"))
    assert entropy(d, ("W1", "U1")) == h
    assert d._entropies == {frozenset(("U1", "W1")): h}
    fresh = sample_distribution(FORMS["hod9"], binary_sizes("hod9"), seed=4)
    assert entropy(fresh, ("W1", "U1")) == h


def test_derived_joints_do_not_share_memo():
    d = sample_distribution(FORMS["hod9"], binary_sizes("hod9"), seed=4)
    entropy(d, ("Q", "W1"))
    for child in (marginalize(d, d.names), marginalize(d, ("Q", "W1", "U1")),
                  condition(d, {"Q": 0})):
        assert child._entropies == {}
        entropy(child, ("W1",))
        assert frozenset(("W1",)) not in d._entropies
    assert "_entropies" not in {f.name for f in dataclasses.fields(d)}
    assert repr(d) == repr(marginalize(d, d.names))


def test_hod_constants_marginalise_once_per_subset(monkeypatch):
    from rrkit import measures, regions
    seen = []

    def counting(d, keep):
        seen.append(frozenset(keep))
        return marginalize(d, keep)

    monkeypatch.setattr(measures, "marginalize", counting)
    d = sample_distribution(FORMS["hod9"], binary_sizes("hod9"), seed=1001, index=3)
    first = regions.hod_constants(d)
    assert seen and len(seen) == len(set(seen))
    assert set(seen) == set(d._entropies) | {regions._FAMILIES["hod"].variables}
    n = len(seen)
    assert regions.hod_constants(d) == first
    assert len(seen) == n


def test_entropy_miss_reads_the_smallest_held_superset(monkeypatch):
    from rrkit import measures
    cells = []

    def counting(d, keep):
        cells.append(d.table.size)
        return marginalize(d, keep)

    monkeypatch.setattr(measures, "marginalize", counting)
    sizes = {n: 3 for n in FORMS["hod9"].variables}
    d = sample_distribution(FORMS["hod9"], sizes, seed=7)
    entropy(d, ("Q", "W1", "U1"))                            # nothing held yet
    measures.seed_marginal(d, ("Q", "W1", "U1", "W2", "U2"))
    entropy(d, ("W1", "Q"))      # held: 27 cells over Q,W1,U1 and 243 over five
    entropy(d, ("Q",))           # the 9 cells just held over Q,W1
    entropy(d, ("Q", "W2"))      # only the 243-cell marginal covers it
    entropy(d, ("Y1", "Q"))      # nothing held covers Y1
    entropy(d, ("Q", "W1"))      # a hit: no call
    assert cells == [3**9, 3**9, 27, 9, 243, 3**9]
    for names in d._entropies:
        assert abs(d._entropies[names] - _memo_free_entropy(d, names)) <= 1e-13


_FAMILY_CASES = [("hod", "hod9"), ("dmt", "dmt5"), ("rtd", "rtd7"), ("hod1", "hod12")]


@pytest.mark.parametrize("family, form", _FAMILY_CASES)
def test_seed_set_is_the_variables_of_the_family_terms(family, form, monkeypatch):
    from rrkit import measures, regions
    tables = {"hod": [t for parts in regions.HOD_PARTS.values() for ts in parts.values()
                      for t in ts],
              "dmt": [t for ts in regions.DMT_TERMS.values() for t in ts],
              "rtd": [t for ts in regions.RTD_TERMS.values() for t in ts],
              "hod1": [t for parts in regions.HOD1_PARTS.values() for ts in parts.values()
                       for t in ts]}
    mentioned = {v for t in tables[family] for v in t.left + t.right + t.cond}
    assert regions._FAMILIES[family].variables == mentioned
    if family == "hod":
        assert not mentioned & {"X1", "X2"}
    seen = []

    def counting(d, keep):
        seen.append(frozenset(keep))
        return marginalize(d, keep)

    monkeypatch.setattr(measures, "marginalize", counting)
    d = _draw_binary(form, 1001, 0)
    getattr(regions, f"{family}_constants")(d)
    if mentioned == set(d.names):  # hod1: nothing smaller to seed
        assert set(seen) == set(d._entropies)
    else:
        assert seen[0] == mentioned and set(seen[1:]) == set(d._entropies)
