import math
import re
import warnings

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from rrkit import regions
from rrkit import verify as V
from rrkit.measures import InfoTerm, TermTable, cmi, entropy, eval_term, eval_terms
from rrkit.prob import FORMS, ModelError, compose, sample_distribution, stream

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
    negated = InfoTerm("I", ("U1",), ("W1",), ("Q",), sign=-1)
    assert abs(eval_term(d, negated) + 1.0) < 1e-12


@pytest.mark.parametrize("args, message", [
    (("J", ("Y1",)), "kind must be H or I, got 'J'"),
    (("I", ("Y1",)), "I-term needs a right-hand variable set"),
    (("H", ("Y1",), (), (), 2), "sign must be +/-1, got 2"),
])
def test_a_malformed_info_term_is_refused(args, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        InfoTerm(*args)


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


# --- the compiled core against the full-table reference ----------------------

_MEMO_CASES = [("hod9", "hod_constants", 1001), ("dmt5", "dmt_constants", 1003),
               ("rtd7", "rtd_constants", 1005), ("hod12", "hod1_constants", 1002)]


def _draw_binary(form, seed, index):
    return sample_distribution(FORMS[form], binary_sizes(form, q=1 + index % 2),
                               seed=seed, index=index)


def _reference(d, table: TermTable) -> dict:
    """Each row of ``table`` by the plain full-table definitions."""
    return {label: eval_terms(d, terms) for label, terms in table.rows.items()}


def _tables_for(form: str) -> list[TermTable]:
    """Every compiled table a constants call or a check evaluates on ``form``."""
    fams = [k for k, f in regions._FAMILIES.items() if FORMS[form].implies(FORMS[f.form])]
    tables = [regions._FAMILIES[k].table for k in fams]
    tables += [V._COLLAPSE_TABLES[k] for k in fams if k in V._COLLAPSE_TABLES]
    tables += {"hod9": [regions._BUDGET_TABLE], "dmt5": [V._COR5_TABLE],
               "rtd7": [V._COR6_TABLE], "hod12": [V._EQ14_TABLE]}[form]
    return tables


@pytest.mark.parametrize("form, fn, seed", _MEMO_CASES)
def test_memoised_constants_bitwise_equal_memo_free(form, fn, seed):
    # The compiled core keeps nothing on the joint: equal joints give bitwise
    # equal constants, and each is the plain full-table value within 1e-13.
    family = fn.removesuffix("_constants")
    for i in range(6):
        compiled = getattr(regions, fn)(_draw_binary(form, seed, i))
        assert getattr(regions, fn)(_draw_binary(form, seed, i)).values == compiled.values
        reference = _reference(_draw_binary(form, seed, i), regions._FAMILIES[family].table)
        assert reference.keys() == compiled.values.keys()
        for k, v in reference.items():
            assert abs(compiled[k] - v) <= 1e-13, (form, i, k)


@pytest.mark.parametrize("form, fn, seed", _MEMO_CASES)
def test_every_compiled_table_equals_the_full_table_reference(form, fn, seed):
    # constants, collapsed cores, add-ons, budget rows and identity tables
    tables = _tables_for(form)
    assert len(tables) >= 2
    for i in range(6):
        d = _draw_binary(form, seed, i)
        for table in tables:
            got, want = table.evaluate(d), _reference(d, table)
            assert got.keys() == want.keys()
            for k, v in want.items():
                assert abs(got[k] - v) <= 1e-13, (form, i, k)


def test_values_do_not_depend_on_what_was_evaluated_before():
    d, other = (_draw_binary("dmt5", 1003, 5) for _ in range(2))
    first = regions.dmt_constants(d).values
    entropy(other, ("Y2", "Q"))
    cmi(other, ("U2",), ("W1",), ("Q",))
    for table in _tables_for("dmt5"):
        table.evaluate(other)
    assert regions.dmt_constants(other).values == first
    deltas = V._COR5_TABLE.evaluate(d)
    assert V._COR5_TABLE.evaluate(_draw_binary("dmt5", 1003, 5)) == deltas


def test_hod_constants_marginalise_once_per_subset(monkeypatch):
    # no call to the reference path; one compiled plan per order and shape
    # sums every subset exactly once
    from rrkit import measures

    def refuse(*args):
        raise AssertionError("the compiled core must not call marginalize")

    monkeypatch.setattr(measures, "marginalize", refuse)
    table = regions._FAMILIES["hod"].table
    touched = {s for terms in table.rows.values() for t in terms
               for s, _ in t.entropy_weights()}
    # H(Q,U2,W1,W2) cancels within every row it appears in
    assert len(touched) == 29
    assert set(table.subsets) == touched - {frozenset(("Q", "U2", "W1", "W2"))}
    assert len(table.subsets) == 28
    d = sample_distribution(FORMS["hod9"], binary_sizes("hod9"), seed=1001, index=3)
    first = regions.hod_constants(d)
    plan = table.plan(d)
    assert len(set(plan.tables)) == len(plan.tables) == len(plan.steps) + 1
    assert set(table.subsets) <= set(plan.tables)
    assert regions.hod_constants(d) == first
    assert table.plan(d) is plan


def test_marginal_plan_cache_stops_growing():
    from rrkit import measures
    info = measures._marginal_plan.cache_info
    assert 0 < info().maxsize < 10_000
    table = regions._FAMILIES["hod"].table
    sizes = binary_sizes("hod9")
    for q in range(1, info().maxsize + 11):  # one joint shape per |Q|, more than it holds
        table.plan(sample_distribution(FORMS["hod9"], {**sizes, "Q": q}, seed=1001))
    assert info().currsize <= info().maxsize
    d = sample_distribution(FORMS["hod9"], sizes, seed=1001, index=3)
    plan = table.plan(d)
    misses = info().misses
    for index in range(3):  # another joint of the same shape reads the same plan
        assert table.plan(sample_distribution(FORMS["hod9"], sizes, 1001, index)) is plan
    assert info().misses == misses


def test_each_subset_is_summed_from_the_smallest_planned_superset():
    sizes = {n: 3 for n in FORMS["hod9"].variables}
    d = sample_distribution(FORMS["hod9"], sizes, seed=7)
    table = regions._FAMILIES["hod"].table
    plan = table.plan(d)
    cells = lambda s: 3 ** len(s)
    read = [cells(plan.tables[source]) for source, _ in plan.steps]
    # the full 3**9 table is read once, to sum out X1 and X2
    assert read[0] == 3**9 and all(n < 3**9 for n in read[1:])
    assert plan.tables[1] == frozenset(d.names) - {"X1", "X2"}
    for j, (source, axes) in enumerate(plan.steps):
        target, earlier = plan.tables[j + 1], plan.tables[:j + 1]
        assert target <= plan.tables[source]
        assert read[j] == min(cells(s) for s in earlier if target <= s)
        kept = [n for n in d.names if n in plan.tables[source]]
        assert {kept[a] for a in axes} == plan.tables[source] - target
    # larger subsets are planned first, and summing from the full table
    # each time would read far more
    assert [len(s) for s in plan.tables[1:]] == sorted(
        (len(s) for s in plan.tables[1:]), reverse=True)
    assert sum(read) < len(table.subsets) * 3**9 / 10
    h = table.subset_entropies(d)
    for s, value in zip(table.subsets, h):
        assert abs(value - entropy(d, tuple(s))) <= 1e-13


def test_wide_subset_entropies_match_the_full_table_reference():
    # 131,072 cells: the plan sums the full table and an 8,192-cell table,
    # some steps over two runs of axes, by products with ones vectors
    sizes = {n: 2 if n == "Q" else 4 for n in FORMS["hk3"].variables}
    d = sample_distribution(FORMS["hk3"], sizes, seed=24, index=1)
    table = regions._FAMILIES["hod"].table
    assert sum(k != np.add.reduce for k in table.plan(d).sums) == 4
    h = table.subset_entropies(d)
    assert len(h) == len(table.subsets) == 28
    for s, value in zip(table.subsets, h):
        assert abs(value - entropy(d, tuple(s))) <= 1e-13


def test_entropy_ignores_name_order():
    d = sample_distribution(FORMS["hod9"], binary_sizes("hod9"), seed=4)
    h = entropy(d, ("U1", "W1"))
    assert entropy(d, ("W1", "U1")) == h
    fresh = sample_distribution(FORMS["hod9"], binary_sizes("hod9"), seed=4)
    assert entropy(fresh, ("W1", "U1")) == h
    t = TermTable({"a": [InfoTerm("I", ("U1", "W1"), ("Y1",), ("Q",))]})
    swapped = TermTable({"a": [InfoTerm("I", ("W1", "U1"), ("Y1",), ("Q",))]})
    assert t.evaluate(d) == swapped.evaluate(fresh)
    assert t.matrix.tolist() == swapped.matrix.tolist()


def test_term_table_input_guards():
    d = sample_distribution(FORMS["hk3"], binary_sizes("hk3"), seed=1)
    assert TermTable({"none": ()}).evaluate(d) == {"none": 0.0}
    with pytest.raises(ValueError):
        TermTable({"a": [InfoTerm("I", ("Q", "U1"), ("U1",))]}).evaluate(d)
    with pytest.raises(ValueError):
        TermTable({"a": [InfoTerm("H", ("Q",), cond=("Q",))]}).evaluate(d)
    with pytest.raises(ModelError):
        TermTable({"a": [InfoTerm("H", ("U1a",))]}).evaluate(d)


_FAMILY_CASES = [("hod", "hod9"), ("dmt", "dmt5"), ("rtd", "rtd7"), ("hod1", "hod12")]


@pytest.mark.parametrize("family, form", _FAMILY_CASES)
def test_seed_set_is_the_variables_of_the_family_terms(family, form):
    # The first planned reduction keeps exactly the variables the family's
    # terms mention, so one pass over the full table serves every subset.
    tables = {"hod": [t for parts in regions.HOD_PARTS.values() for ts in parts.values()
                      for t in ts],
              "dmt": [t for ts in regions.DMT_TERMS.values() for t in ts],
              "rtd": [t for ts in regions.RTD_TERMS.values() for t in ts],
              "hod1": [t for parts in regions.HOD1_PARTS.values() for ts in parts.values()
                       for t in ts]}
    mentioned = {v for t in tables[family] for v in t.left + t.right + t.cond}
    table = regions._FAMILIES[family].table
    assert frozenset().union(*table.subsets) == mentioned
    if family == "hod":
        assert not mentioned & {"X1", "X2"}
    d = _draw_binary(form, 1001, 0)
    plan = table.plan(d)
    if mentioned == set(d.names):  # hod1: nothing to sum out first
        assert plan.tables[1] in table.subsets
    else:
        assert [source for source, _ in plan.steps].count(0) == 1  # full table read once
        assert plan.tables[1] == mentioned
        assert plan.steps[0] == (0, tuple(i for i, n in enumerate(d.names)
                                          if n not in mentioned))


# --- degenerate inputs: deterministic conditionals, size-1 alphabets ----------

def _degenerate_joint(form: str, unit: str | None, seed: int, one_hot: list[bool]):
    """A joint of ``form`` with alphabet size 1 for ``unit`` and, for each
    factor flagged in ``one_hot``, a deterministic conditional."""
    sizes = {n: 2 for n in FORMS[form].variables}
    if unit is not None:
        sizes[unit] = 1
    rng = np.random.default_rng(seed)
    factors = []
    for f, hot in zip(FORMS[form].factors, one_hot):
        given = tuple(sizes[n] for n in f.given)
        targets = tuple(sizes[n] for n in f.targets)
        if hot:
            flat = np.zeros(given + (math.prod(targets),))
            for cell in np.ndindex(*given):
                flat[cell + (int(rng.integers(flat.shape[-1])),)] = 1.0
            factors.append(flat.reshape(given + targets))
        else:
            raw = rng.random(given + targets) + 1e-3
            axes = tuple(range(len(given), raw.ndim))
            factors.append(raw / raw.sum(axis=axes, keepdims=True))
    return compose(factors, FORMS[form], sizes)


@st.composite
def _degenerate_cases(draw):
    form = draw(st.sampled_from(sorted(FORMS)))
    unit = draw(st.sampled_from([None, *FORMS[form].variables]))
    one_hot = draw(st.lists(st.booleans(), min_size=len(FORMS[form].factors),
                            max_size=len(FORMS[form].factors)))
    return form, unit, draw(st.integers(0, 2**32 - 1)), one_hot


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_degenerate_cases())
def test_degenerate_joints_match_the_reference_without_warnings(case):
    form, unit, seed, one_hot = case
    d = _degenerate_joint(form, unit, seed, one_hot)
    fams = [k for k, f in regions._FAMILIES.items() if FORMS[form].implies(FORMS[f.form])]
    assert fams
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        for family in fams:
            got = regions.constants_for(d, family).values
            fam = regions._FAMILIES[family]
            for table, values in [(fam.table, got)] + [
                    (t, t.evaluate(d)) for k, t in V._COLLAPSE_TABLES.items() if k == family]:
                for k, v in _reference(d, table).items():
                    assert math.isfinite(values[k])
                    assert abs(values[k] - v) <= 1e-12, (form, unit, family, k)
