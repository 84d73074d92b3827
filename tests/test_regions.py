import math
import pickle
from collections import Counter

import numpy as np
import pytest

from rrkit.measures import TermTable, cmi, eval_terms
from rrkit.polytope import (Halfspace, InequalitySystem, fm_eliminate, lp_feasible, substitute,
                            vertices2d)
from rrkit.prob import (FORMS, Factor, FactorizationSpec, JointDistribution, ModelError,
                        Variable, compose, marginalize, sample_distribution, sample_factors)
from rrkit import regions as R

from conftest import binary_sizes, compose_form, delta, uniform_factors


def _degenerate_hod9():
    """Everything uniform-independent with outputs independent of inputs."""
    sizes = binary_sizes("hod9", q=2)
    return compose_form("hod9", uniform_factors("hod9", sizes), sizes)


def _hand_example():
    """|Q|=1, U1 = W1 = X1 = uniform bit, Y1 = X1, all user-2 variables trivial."""
    sizes = {"Q": 1, "W1": 2, "U1": 2, "W2": 1, "U2": 1,
             "X1": 2, "X2": 1, "Y1": 2, "Y2": 1}
    pq = np.ones((1,))
    pw1 = np.full((1, 2), 0.5)
    pu1 = delta(2)[None, :, :]                      # U1 = W1
    pw2 = np.ones((1, 2, 2, 1))                     # constant W2
    pu2 = np.ones((1, 2, 2, 1, 1))
    px1 = np.zeros((1, 2, 2, 2))                    # (q, w1, u1, x1): X1 = U1
    for w in range(2):
        for u in range(2):
            px1[0, w, u, u] = 1.0
    px2 = np.ones((1, 1, 1, 1))
    ker = np.zeros((2, 1, 2, 1))                    # Y1 = X1, Y2 constant
    ker[0, 0, 0, 0] = 1.0
    ker[1, 0, 1, 0] = 1.0
    factors = [pq, pw1, pu1, pw2, pu2, px1, px2, ker]
    return compose_form("hod9", factors, sizes)


def test_hod_constants_all_zero_when_independent():
    c = R.hod_constants(_degenerate_hod9())
    assert all(abs(v) < 1e-12 for v in c.values.values())


def test_hod_constants_hand_example():
    c = R.hod_constants(_hand_example())
    assert c["C1"] == pytest.approx(1.0, abs=1e-12)   # I(U1;W1) = 1, decoding term 0
    assert c["D1"] == pytest.approx(1.0, abs=1e-12)   # 0 + I(Y1;U1W1) = H(Y1) = 1
    assert c["A1"] == pytest.approx(0.0, abs=1e-12)   # Y1 carries nothing beyond W1
    assert c["G1"] == pytest.approx(1.0, abs=1e-12)


def test_hod_constants_collapse_on_independent_auxiliaries():
    for i in range(10):
        d = sample_distribution(FORMS["hk3"], binary_sizes("hk3"), seed=31, index=i)
        c = R.hod_constants(d)
        a1_core = cmi(d, ("Y1",), ("U1",), ("Q", "W1", "W2"))
        assert abs(c["A1"] - a1_core) < 1e-9


def test_hod_constants_reject_wrong_form():
    d = sample_distribution(FORMS["hod9"], binary_sizes("hod9"), seed=3)
    with pytest.raises(ModelError):
        R.dmt_constants(d)


def test_constants_match_defining_terms():
    d = sample_distribution(FORMS["hod9"], binary_sizes("hod9"), seed=5)
    c = R.hod_constants(d)
    for label in c.values:
        again = eval_terms(d, R._FAMILIES["hod"].terms[label])
        assert abs(c[label] - again) < 1e-12


def test_hod_decomposition_addons_nonnegative():
    for i in range(10):
        d = sample_distribution(FORMS["hod9"], binary_sizes("hod9"), seed=37, index=i)
        c = R.hod_constants(d)
        for label, parts in R.HOD_PARTS.items():
            total = 0.0
            for key in ("core", "correlation", "interference"):
                v = eval_terms(d, parts.get(key, ()))
                assert v >= -1e-12
                total += v
            total -= eval_terms(d, parts.get("binning", ()))
            assert abs(total - c[label]) < 1e-12


def test_dmt_constants_identities_on_samples():
    for i in range(10):
        d = sample_distribution(FORMS["dmt5"], binary_sizes("dmt5"), seed=41, index=i)
        cd, ch = R.dmt_constants(d), R.hod_constants(d)
        assert abs(cd["d1"] - ch["D1"]) < 1e-12
        gap = ch["A1"] - cmi(d, ("W2",), ("W1",), ("Q",))
        assert abs(cd["a1"] - gap) < 1e-12


def test_rtd_constants_degenerate_private_split():
    sizes = binary_sizes("rtd7")
    sizes["U1b"] = 1
    for i in range(5):
        d = sample_distribution(FORMS["rtd7"], sizes, seed=43, index=i)
        c = R.rtd_constants(d)
        full = cmi(d, ("Y1",), ("W2", "W1", "U1a", "U1b"))
        assert abs(c["8-1"] - full) < 1e-12   # subtraction term vanished


def test_rtd_constants_zero_when_independent():
    sizes = binary_sizes("rtd7")
    d = compose_form("rtd7", uniform_factors("rtd7", sizes), sizes)
    c = R.rtd_constants(d)
    assert all(abs(v) < 1e-12 for v in c.values.values())


def test_rtd_bound_dominated_by_plain_decoding_term():
    for i in range(10):
        d = sample_distribution(FORMS["rtd7"], binary_sizes("rtd7"), seed=47, index=i)
        c = R.rtd_constants(d)
        assert c["8-8"] <= cmi(d, ("Y2",), ("U2",), ("W1", "W2")) + 1e-12


def _hod12_noiseless():
    sizes = {"Q": 1, "W1": 2, "X1": 2, "W2": 1, "X2": 1, "Y1": 2, "Y2": 1}
    factors = sample_factors(FORMS["hod12"], sizes, seed=53)
    ker = np.zeros((2, 1, 2, 1))
    ker[0, 0, 0, 0] = 1.0
    ker[1, 0, 1, 0] = 1.0
    factors[-1] = ker
    return compose_form("hod12", factors, sizes)


def test_hod1_constants_zero_when_independent():
    sizes = binary_sizes("hod12")
    d = compose_form("hod12", uniform_factors("hod12", sizes), sizes)
    c = R.hod1_constants(d)
    assert all(abs(v) < 1e-12 for v in c.values.values())


def test_hod1_noiseless_common_message_bound():
    from rrkit.measures import entropy
    d = _hod12_noiseless()
    c = R.hod1_constants(d)
    assert abs(c["G1"] - entropy(d, ("X1",), ("Q",))) < 1e-12


def test_hod1_e1_nonnegative():
    for i in range(10):
        d = sample_distribution(FORMS["hod12"], binary_sizes("hod12"), seed=59, index=i)
        c = R.hod1_constants(d)
        assert c["E1"] >= -1e-12


def test_build_system_row_counts():
    d = sample_distribution(FORMS["hod9"], binary_sizes("hod9"), seed=61)
    c = R.hod_constants(d)
    s3 = R.build_system(c, "thm3-quadruple")
    assert len(s3.rows) == 14 + 4
    assert [r.label for r in s3.rows[:3]] == ["10-1", "10-2", "10-3"]
    s4 = R.build_system(c, "thm4-ratepair")
    assert len(s4.rows) == 20 + 2
    b37 = R.build_system(c, "thm4-intermediate37")
    assert len(b37.rows) == 37 + 2

    d12 = sample_distribution(FORMS["hod12"], binary_sizes("hod12"), seed=61)
    c12 = R.hod1_constants(d12)
    assert len(R.build_system(c12, "thm5-quadruple").rows) == 8 + 4
    assert len(R.build_system(c12, "thm6-ratepair").rows) == 11 + 2

    d7 = sample_distribution(FORMS["rtd7"], binary_sizes("rtd7"), seed=61)
    c7 = R.rtd_constants(d7)
    assert len(R.build_system(c7, "rtd-quintuple").rows) == 8 + 5


def test_build_system_family_mismatch():
    d = sample_distribution(FORMS["hod9"], binary_sizes("hod9"), seed=61)
    c = R.hod_constants(d)
    with pytest.raises(ValueError):
        R.build_system(c, "thm6-ratepair")
    with pytest.raises(ValueError):
        R.build_system(c, "no-such-description")


def test_row_bounds_are_sums_folded_from_the_left():
    """A row's bound adds its constants one by one from 0.0, the bits every
    Python version gives: from 3.12 the builtin sum of floats is
    compensated, and reads 0.6, not 0.6000000000000001, for 0.1 + 0.2 + 0.3."""
    values = {k: 0.25 for k in R._FAMILIES["hod"].terms} | {"B1": 0.1, "E1": 0.2, "A2": 0.3}
    c = R.BoundConstants("hod", values)
    rows = {r.label: r for r in R.build_system(c, "thm4-ratepair").rows}
    assert rows["11-15"].bound.hex() == (((0.0 + 0.1) + 0.2) + 0.3).hex() == \
        (0.6000000000000001).hex()
    drawn = R.hod_constants(sample_distribution(FORMS["hod9"], binary_sizes("hod9"), seed=4))
    v = drawn.values
    rows = {r.label: r for r in R.build_system(drawn, "thm4-ratepair").rows}
    assert rows["11-17"].bound.hex() == (((0.0 + v["G1"]) + v["E2"]) + v["A1"]).hex()
    assert rows["11-18"].bound.hex() == ((((0.0 + v["F2"]) + v["E2"]) + v["A1"]) + v["A1"]).hex()
    rows37 = {r.label: r for r in R.build_system(drawn, "thm4-intermediate37").rows}
    assert rows37["37:37"].coeffs == (1, 1)  # 2R1 + 2R2 <= G2 + E1 + E2 + A1, halved
    assert rows37["37:37"].bound.hex() == \
        (((((0.0 + v["G2"]) + v["E1"]) + v["E2"]) + v["A1"]) * 0.5).hex()
    # a fold from 0.0 reads -0.0 as 0.0, as the builtin sum did
    zero = R.build_system(R.BoundConstants("hod", dict.fromkeys(values, -0.0)), "thm4-ratepair")
    assert {r.bound.hex() for r in zero.rows} == {(0.0).hex()}


def test_build_system_catalogue_row_labels():
    c12 = R.hod1_constants(sample_distribution(FORMS["hod12"], binary_sizes("hod12"), seed=4))
    rows = R.build_system(c12, "thm5-quadruple").rows
    assert [r.label for r in rows[:8]] == [f"13-{i}" for i in range(1, 9)]
    c7 = R.rtd_constants(sample_distribution(FORMS["rtd7"], binary_sizes("rtd7"), seed=4))
    rows = R.build_system(c7, "rtd-quintuple").rows
    assert [r.label for r in rows[:8]] == [f"8-{i}" for i in range(1, 9)]


def test_every_compiled_description_passes_the_checked_constructor():
    # _rows_system builds these systems without InequalitySystem's row checks
    for description in R._SYSTEMS:
        variables, coeffs, labels, _, _ = R._row_plan(description)
        rows = tuple(Halfspace(cs, 1.0, label) for cs, label in zip(coeffs, labels))
        assert InequalitySystem(variables, rows).rows == rows, description


def test_each_description_names_only_its_own_family_constants():
    for description, (family, _, rows) in R._SYSTEMS.items():
        own = set(R._FAMILIES[family].terms)
        assert all(set(combo) <= own for _, _, combo in rows), description
    assert {R._SYSTEMS[f.system][0] for f in R._FAMILIES.values()} == set(R._FAMILIES)


def test_binning_budget_projection_reproduces_user2_rows():
    for i in range(5):
        d = sample_distribution(FORMS["hod9"], binary_sizes("hod9"), seed=67, index=i)
        budget = R.binning_budget_system(d)
        assert budget.variables == ("S2", "T2", "T1", "s2", "t2")
        proj = fm_eliminate(fm_eliminate(budget, "s2"), "t2")
        c = R.hod_constants(d)
        expected = {(1, 0, 0): "A2", (0, 1, 0): "B2", (0, 0, 1): "C2",
                    (1, 1, 0): "D2", (1, 0, 1): "E2", (0, 1, 1): "F2",
                    (1, 1, 1): "G2"}
        got = {tuple(int(x) for x in r.coeffs): r for r in proj.rows}
        assert set(got) == set(expected)
        for pattern, label in expected.items():
            assert abs(got[pattern].bound - c[label]) < 1e-12


def test_binning_cost_rows_have_nonpositive_bounds():
    d = sample_distribution(FORMS["hod9"], binary_sizes("hod9"), seed=67)
    budget = R.binning_budget_system(d)
    by_label = {r.label: r for r in budget.rows}
    assert by_label["bin-t2"].bound <= 1e-12
    assert by_label["bin-s2"].bound <= 1e-12


def _terms_variables(rows) -> set:
    return {v for terms in rows.values() for t in terms for v in t.left + t.right + t.cond}


@pytest.mark.parametrize("form, rows", [
    ("hod12", R.EQ14_UFORM), ("rtd7", R.HOD_ON_SPLIT),
    ("hod9", {label: terms for label, _, terms in R._BUDGET_ROWS})],
    ids=["channel-inputs", "split-message", "pre-binning"])
def test_renamed_general_rows_mention_only_their_chain_and_compile(form, rows):
    # TermTable compiles on first use, so a renaming that merged a variable
    # into two sides of a term would otherwise fail only when evaluated
    assert _terms_variables(rows) <= set(FORMS[form].variables)
    assert TermTable(rows).matrix.shape[0] == len(rows)
    if form == "hod9":  # the budget system reads only its own rates
        assert {v for _, rates, _ in R._BUDGET_ROWS for v in rates} == \
            {"S2", "T2", "T1", "s2", "t2"}


def _regrouped(d: JointDistribution, groups) -> JointDistribution:
    """d over new variables: each (name, names of d) in ``groups`` is one axis,
    in order, whose cells are those names' joint cells; an empty group is a
    size-1 axis."""
    old = [n for _, names in groups for n in names]
    assert sorted(old) == sorted(d.names)
    shape = [math.prod(d.size(n) for n in names) for _, names in groups]
    table = d.table.transpose([d.axis(n) for n in old]).reshape(shape)
    return JointDistribution(tuple(Variable(name, k) for (name, _), k in zip(groups, shape)),
                             table)


def _renamed_draws(form: str, k: int = 3):
    sizes = {n: k if n.startswith(("U", "W", "X")) else 2 for n in FORMS[form].variables}
    return [sample_distribution(FORMS[form], sizes, seed=29, index=i) for i in range(4)]


def test_uform_is_the_general_terms_with_channel_inputs_as_private_messages():
    hod = R._FAMILIES["hod"].terms
    assert list(R.EQ14_UFORM) == list(R.HOD1_PARTS)
    for d in _renamed_draws("hod12"):
        as_u = _regrouped(d, [("U1" if n == "X1" else "U2" if n == "X2" else n, (n,))
                              for n in d.names])
        for label, terms in R.EQ14_UFORM.items():
            assert abs(eval_terms(as_u, hod[label]) - eval_terms(d, terms)) <= 1e-12, label


# each split-message bound: the general row it is, and how the split joint's
# variables merge into that row's (U1, W1); Q is a size-1 axis
_SPLIT_AS = {
    "S1+T1+T2": "G1", "S1": "A1", "S1+T2": "E1", "S2+T1+T2": "G2", "S2+T2": "D2", "S2": "A2"}
_S1B_AS = {"S1b+T2": "E1", "S1b": "A1"}
_SPLIT_GROUPS = [("Q", ()), ("W1", ("W1",)), ("U1", ("U1a", "U1b"))]
_S1B_GROUPS = [("Q", ()), ("W1", ("W1", "U1a")), ("U1", ("U1b",))]


def test_split_rows_are_the_general_terms_on_the_merged_split_joint():
    hod = R._FAMILIES["hod"].terms
    assert list(R.HOD_ON_SPLIT) == ["S1+T1+T2", "S1", "S1+T2", "S1b+T2", "S1b",
                                    "S2+T1+T2", "S2+T2", "S2"]
    for d in _renamed_draws("rtd7"):
        rest = [(n, (n,)) for n in ("W2", "U2", "X1", "X2", "Y1", "Y2")]
        for as_, groups in ((_SPLIT_AS, _SPLIT_GROUPS), (_S1B_AS, _S1B_GROUPS)):
            merged = _regrouped(d, groups + rest)
            for key, label in as_.items():
                got = eval_terms(merged, hod[label])
                assert abs(got - eval_terms(d, R.HOD_ON_SPLIT[key])) <= 1e-12, key


def test_project_to_ratepair_vertices_satisfy_rows():
    for i in range(5):
        d = sample_distribution(FORMS["hod12"], binary_sizes("hod12"), seed=71, index=i)
        c = R.hod1_constants(d)
        sys = R.build_system(c, "thm6-ratepair")
        poly = vertices2d(sys)
        for v in poly.vertices:
            assert lp_feasible(sys, point=v, tol=1e-9)


def test_project_to_ratepair_rtd_variables():
    d = sample_distribution(FORMS["rtd7"], binary_sizes("rtd7"), seed=73)
    c = R.rtd_constants(d)
    rp = R.project_to_ratepair(R.build_system(c, "rtd-quintuple"))
    assert rp.variables == ("R1", "R2")


def test_project_to_ratepair_refuses_a_rate_space_it_has_no_mapping_for():
    c = R.hod1_constants(sample_distribution(FORMS["hod12"], binary_sizes("hod12"), seed=71))
    ratepair = R.build_system(c, "thm6-ratepair")
    with pytest.raises(ValueError, match=r"no rate-pair mapping for variables \('R1', 'R2'\)"):
        R.project_to_ratepair(ratepair)


@pytest.mark.parametrize("family, form", [("hod", "hod9"), ("rtd", "rtd7")])
def test_project_to_ratepair_is_over_r1_r2_for_every_variable_order(family, form):
    from itertools import permutations
    from rrkit.polytope import Halfspace, contains
    d = sample_distribution(FORMS[form], binary_sizes(form), seed=79)
    built = R.build_system(R.constants_for(d, family), R._FAMILIES[family].system)
    expected = R.project_to_ratepair(built)
    for order in permutations(built.variables):
        cols = [built.index(v) for v in order]
        permuted = R.InequalitySystem(order, tuple(
            Halfspace(tuple(r.coeffs[i] for i in cols), r.bound, r.label) for r in built.rows))
        rp = R.project_to_ratepair(permuted)
        assert rp.variables == ("R1", "R2"), order
        assert contains(rp, expected)[0] and contains(expected, rp)[0], order


# --- which joints the factorization guard checks numerically ----------------------

@pytest.fixture
def numeric_guard_calls(monkeypatch):
    """Counts the guard's calls of the numeric factorization check."""
    calls = []
    real = R.validate_factorization

    def counted(d, spec):
        calls.append(spec.form)
        return real(d, spec)

    monkeypatch.setattr(R, "validate_factorization", counted)
    return calls


@pytest.mark.parametrize("form, run", [
    ("hk3", R.hod_constants), ("dmt5", R.hod_constants), ("hod9", R.hod_constants),
    ("cmg4", R.hod1_constants), ("hod12", R.hod1_constants),
    ("hod9", R.binning_budget_system), ("rtd7", R.rtd_constants)])
def test_guard_skips_numeric_check_for_implying_chains(form, run, numeric_guard_calls):
    run(sample_distribution(FORMS[form], binary_sizes(form), seed=83))
    assert numeric_guard_calls == []


def test_guard_checks_numerically_unless_composed(numeric_guard_calls):
    d = sample_distribution(FORMS["hk3"], binary_sizes("hk3"), seed=89)
    ext = FactorizationSpec("hod9+U1a", (Factor(("U1a",), ()),) + FORMS["hod9"].factors)
    sizes = dict(binary_sizes("hod9"), U1a=2)
    extended = sample_distribution(ext, sizes, seed=89)
    for fed_back in (JointDistribution(d.variables, d.table),
                     marginalize(d, d.names),
                     marginalize(extended, set(d.names))):
        numeric_guard_calls.clear()
        R.hod_constants(fed_back)
        assert numeric_guard_calls == ["hod9"]


def test_guard_rejects_composed_joint_of_non_implying_chain(numeric_guard_calls):
    d = sample_distribution(FORMS["hod9"], binary_sizes("hod9"), seed=3)
    with pytest.raises(ModelError, match=r"violates factorization dmt5 by .* \(limit 1e-06\)"):
        R.dmt_constants(d)
    assert numeric_guard_calls == ["dmt5"]


def test_guard_passes_a_marginal_by_its_chain_and_refuses_one_by_name(numeric_guard_calls):
    # a marginal can never pass the numeric check, which needs every variable
    # of the form: its chain implies the form, or it is refused naming the form
    spec, sizes = FORMS["hod9"], binary_sizes("hod9")
    factors = sample_factors(spec, sizes, seed=3)
    hod = compose(factors, spec, sizes, R._FAMILIES["hod"].variables)
    assert len(hod.names) < len(spec.variables)
    full = R.hod_constants(compose(factors, spec, sizes)).values
    assert R.hod_constants(hod).values == pytest.approx(full, rel=0, abs=1e-13)
    dmt = compose(factors, spec, sizes, R._FAMILIES["dmt"].variables)
    with pytest.raises(ModelError, match="cannot be checked against factorization dmt5: "
                                         "hod9 does not imply dmt5"):
        R.dmt_constants(dmt)
    assert numeric_guard_calls == []


@pytest.mark.parametrize("family, form", [("hod", "hk3"), ("dmt", "dmt5"),
                                          ("rtd", "rtd7"), ("hod1", "cmg4")])
def test_guard_route_leaves_constants_bitwise_equal(family, form):
    for i in range(3):
        d = sample_distribution(FORMS[form], binary_sizes(form), seed=97, index=i)
        structural = R.constants_for(d, family).values
        numeric = R.constants_for(JointDistribution(d.variables, d.table), family).values
        assert [v.hex() for v in structural.values()] == [v.hex() for v in numeric.values()]


# --- the compiled rows and the rate-pair projection ----------------------------

_FAMILY_FORMS = {"hod": "hod9", "dmt": "dmt5", "rtd": "rtd7", "hod1": "hod12"}


def _rows_key(sys):
    """Everything a system's rows hold, bounds by their exact bits."""
    return sys.variables, [(r.label, r.coeffs, r.bound.hex()) for r in sys.rows]


def _adversarial_constants(family: str) -> list[R.BoundConstants]:
    """Constant vectors that reach ties, the first-strict-minimum rule and
    dropped or kept pure-constant rows."""
    labels = list(R._FAMILIES[family].terms)
    rng = np.random.default_rng(1009)
    vectors = [[0.0] * len(labels), [0.5] * len(labels), [-1.0] * len(labels)]
    vectors += [list(rng.choice([-1e-15, 0.0, 1e-15, 0.5, 1.0], len(labels)))
                for _ in range(150)]
    vectors += [list(rng.standard_normal(len(labels))) for _ in range(150)]
    return [R.BoundConstants(family, {k: float(v) for k, v in zip(labels, vec)})
            for vec in vectors]


def _drawn_constants(family: str, seeds, per_seed: int = 6) -> list[R.BoundConstants]:
    from rrkit.verify import _draw
    return [R.constants_for(_draw(_FAMILY_FORMS[family], seed, i)[0], family)
            for seed in seeds for i in range(per_seed)]


@pytest.mark.parametrize("family", list(_FAMILY_FORMS))
def test_ratepair_projection_is_the_projection_of_the_built_system(family):
    system = R._FAMILIES[family].system
    for c in _drawn_constants(family, range(1001, 1008)) + _adversarial_constants(family):
        projected = R.ratepair_projection(c)
        assert _rows_key(projected) == _rows_key(R.project_to_ratepair(R.build_system(c, system)))
        assert all(x.__class__ is int for r in projected.rows for x in r.coeffs)


def _step_by_step(sys, steps=None):
    """``polytope._project`` spelled out: ``substitute``, then ``fm_eliminate``,
    one call per step; by default the steps ``_TO_RATEPAIR`` lists for sys."""
    substitutions, eliminations = steps or R._TO_RATEPAIR[sys.variables]
    for var, expr in substitutions:
        sys = substitute(sys, var, expr)
    for var in eliminations:
        sys = fm_eliminate(sys, var)
    return sys


def _tie_constants(family: str) -> list[R.BoundConstants]:
    """Constant vectors with exact ties between sums, signed zeros and tiny bounds."""
    labels = list(R._FAMILIES[family].terms)
    rng = np.random.default_rng(2027)
    vectors = [[v] * len(labels) for v in (0.0, -0.0, 1e-300, -1e-300)]
    vectors += [list(rng.choice([-0.0, 0.0, -1e-300, 1e-300, -1.0, 0.5, 1.0], len(labels)))
                for _ in range(200)]
    return [R.BoundConstants(family, {k: float(v) for k, v in zip(labels, vec)})
            for vec in vectors]


@pytest.mark.parametrize("family", list(_FAMILY_FORMS))
def test_ratepair_projection_is_substitution_then_elimination(family):
    # the replayed plan against the engine it replays, row by row and bit by bit;
    # constant rows put into the input reach the all-zero merge group from the
    # start, and a bound of -0.0 (build_system's sums give +0.0) meets +0.0 in a tie
    from conftest import fields
    system = R._FAMILIES[family].system
    constants = (_drawn_constants(family, range(1001, 1011)) + _adversarial_constants(family)
                 + _tie_constants(family))
    for n, c in enumerate(constants):
        built = R.build_system(c, system)
        inputs = [built]
        if n % 4 == 0:
            zero, first = (0,) * len(built.variables), next(iter(c.values.values()))
            a, b, z = (Halfspace(zero, bound, f"c{bound}") for bound in (-0.0, first, -1.0))
            rows = built.rows
            signed = Halfspace(rows[3].coeffs, -0.0, "signed")
            inputs.append(built.with_rows((*rows[:2], a, *rows[2:7], b, signed, *rows[7:], z)))
        for sys in inputs:
            replayed, chained = R.project_to_ratepair(sys), _step_by_step(sys)
            assert replayed.variables == chained.variables == R._RATE_PAIR
            assert [fields(r) for r in replayed.rows] == [fields(r) for r in chained.rows]


@pytest.mark.parametrize("variables", [R._QUAD_VARS, R._RTD_VARS], ids=["quadruple", "quintuple"])
def test_any_system_projects_as_substitution_then_elimination(variables):
    # small random coefficients: pairs whose primitive scale is no power of two
    from conftest import fields
    from rrkit.polytope import make_row
    rng = np.random.default_rng(31)
    for n in range(60):
        rows = [make_row(rng.integers(-3, 4, len(variables)), rng.standard_normal(), f"u{i}")
                for i in range(int(rng.integers(4, 9)))]
        sys = InequalitySystem(variables, tuple(rows))
        replayed, chained = R.project_to_ratepair(sys), _step_by_step(sys)
        assert [fields(r) for r in replayed.rows] == [fields(r) for r in chained.rows], n


def test_the_budget_system_eliminates_as_chained_steps():
    # two eliminations in one loop against fm_eliminate called twice, bit by bit
    from conftest import fields
    from rrkit.polytope import _project
    for i in range(8):
        d = sample_distribution(FORMS["hod9"], binary_sizes("hod9"), seed=67, index=i)
        budget = R.binning_budget_system(d)
        steps = ((), ("s2", "t2"))
        multi, chained = _project(budget, *steps), _step_by_step(budget, steps)
        assert multi.variables == chained.variables == ("S2", "T2", "T1")
        assert [fields(r) for r in multi.rows] == [fields(r) for r in chained.rows]


def test_a_projection_plan_is_built_once(monkeypatch):
    from rrkit import polytope
    caches = (polytope._fm_plan, polytope._substitution_plan)
    assert all(0 < cache.cache_info().maxsize < 10_000 for cache in caches)
    for family in _FAMILY_FORMS:  # warm: every pattern the draws below reach
        for c in _drawn_constants(family, range(1001, 1008)) + _adversarial_constants(family):
            R.ratepair_projection(c)
    misses = [cache.cache_info().misses for cache in caches]

    def refuse(*args):
        raise AssertionError("a projection redid the work its plan holds")
    monkeypatch.setattr(polytope, "_primitive", refuse)
    for family in _FAMILY_FORMS:  # 1,008 draws
        for c in _drawn_constants(family, range(2001, 2043)):
            R.ratepair_projection(c)
    assert [cache.cache_info().misses for cache in caches] == misses


def test_compiled_rows_match_make_row():
    from rrkit.polytope import make_row, nonnegativity_rows

    def by_make_row(c, variables, rows):
        built = [make_row([rates.get(v, 0) for v in variables],
                          sum(c[k] for k in combo), label) for label, rates, combo in rows]
        return R.InequalitySystem(variables, tuple(built + nonnegativity_rows(variables)))

    for description, (family, variables, rows) in R._SYSTEMS.items():
        for c in _drawn_constants(family, [1001], 3) + _adversarial_constants(family)[:20]:
            assert _rows_key(R.build_system(c, description)) == \
                _rows_key(by_make_row(c, variables, rows))
            if family == "hod":
                assert _rows_key(R.build_system(c, "thm4-intermediate37")) == \
                    _rows_key(by_make_row(c, R._RATE_PAIR, R._ROWS37))


def _assert_made_on_first_read(lazy, eager):
    """lazy, a system made without rows, makes the rows of eager, an
    ``InequalitySystem`` built from ``make_row`` rows, and agrees with it
    under ==, hash, repr and a pickle round trip (taken before its rows are
    made)."""
    from conftest import fields
    assert "rows" not in vars(lazy)
    copy = pickle.loads(pickle.dumps(lazy))
    assert "rows" not in vars(copy)
    for s in (copy, lazy):
        assert s.variables == eager.variables
        assert [fields(r) for r in s.rows] == [fields(r) for r in eager.rows]
        assert s == eager and hash(s) == hash(eager) and repr(s) == repr(eager)


def test_rows_made_on_first_read_are_the_eagerly_built_rows():
    from rrkit.polytope import _left_sum, _raised, make_row, nonnegativity_rows
    for description, (family, variables, rows) in R._SYSTEMS.items():
        for c in _drawn_constants(family, [1001], 3) + _tie_constants(family):
            eager = InequalitySystem(variables, tuple(
                [make_row([rates.get(v, 0) for v in variables],
                          _left_sum(c[k] for k in combo), label) for label, rates, combo in rows]
                + nonnegativity_rows(variables)))
            plane = R.build_system(c, description)
            _assert_made_on_first_read(plane, eager)
            if len(variables) > 2:
                plane = R.project_to_ratepair(R.build_system(c, description))
                eager = plane.with_rows(map(make_row, plane._coeffs, plane._bounds, plane._labels))
                _assert_made_on_first_read(plane, eager)
            for tol in (1e-9, 0.5):
                _assert_made_on_first_read(_raised(plane, tol), eager.with_rows(
                    make_row(r.coeffs, r.bound + tol, r.label) for r in eager.rows))


def test_plan_cache_stops_growing():
    from rrkit.polytope import _fm_plan, _substitution_plan
    caches = (_fm_plan, _substitution_plan)
    assert all(0 < cache.cache_info().maxsize < 10_000 for cache in caches)
    for family in _FAMILY_FORMS:
        for c in _drawn_constants(family, range(1001, 1008)):
            R.ratepair_projection(c)
    misses = [cache.cache_info().misses for cache in caches]
    for family in _FAMILY_FORMS:
        for c in _drawn_constants(family, range(2001, 2004)):
            R.ratepair_projection(c)
    assert [cache.cache_info().misses for cache in caches] == misses


def _symbolic_projection(description: str):
    """Fourier-Motzkin on ``description`` with each bound kept as its
    multiset of constant labels and nothing merged: elimination's integer
    plans applied to symbols.  Rows are (coefficients, sorted labels), with a
    row's scaling undone so its coefficients read as the catalogue writes
    them (2R1 + 2R2, not R1 + R2)."""
    from rrkit.polytope import _fm_plan, _substitution_plan
    variables, coeffs, _, sums, _ = R._row_plan(description)
    combos = [combo for _, combo in sums]
    rows = [(cs, Counter(combo)) for cs, combo in zip(coeffs, combos + [()] * len(coeffs))]
    substitutions, eliminations = R._TO_RATEPAIR[variables]
    for var, expr in substitutions:
        variables, coeffs, _ = _substitution_plan(variables, tuple(c for c, _ in rows), var,
                                                  tuple(expr.items()))
        rows = [(cs, labels) for cs, (_, labels) in zip(coeffs, rows)]
    for var in eliminations:
        k = variables.index(var)
        drop = lambda cs: cs[:k] + cs[k + 1:]
        step = _fm_plan(variables, tuple(c for c, _ in rows), var)
        out = []
        for src, coeffs in zip(step.sources, step.coeffs):
            if src.__class__ is int:
                out.append((coeffs, rows[src][1]))
                continue
            (up, up_labels), (lo, lo_labels) = rows[src[0]], rows[src[1]]
            mi, mj = -lo[k], up[k]
            labels = Counter({lab: mi * n for lab, n in up_labels.items()})
            labels.update({lab: mj * n for lab, n in lo_labels.items()})
            out.append((tuple(mi * a + mj * b for a, b in zip(drop(up), drop(lo))), labels))
        rows, variables = out, step.variables
    return [(coeffs, tuple(sorted(labels.elements()))) for coeffs, labels in rows]


def test_symbolic_projection_derives_the_37_row_list():
    rows = _symbolic_projection("thm3-quadruple")
    constant = [labels for coeffs, labels in rows if not any(coeffs)]
    moving = [row for row in rows if any(row[0])]
    assert (len(rows), len(constant), len(moving)) == (67, 10, 57)
    # the feasibility rows behind details.infeasible_source: 0 <= each of these
    assert sorted(constant) == sorted((k,) for k in ("A1", "B1", "C1", "E1", "F1",
                                                     "A2", "B2", "C2", "E2", "F2"))
    listed = {((rates.get("R1", 0), rates.get("R2", 0)), tuple(sorted(combo)))
              for rates, combo in R.INTERMEDIATE37_ROWS}
    nonnegative = {((-1, 0), ()), ((0, -1), ())}
    extras = {((0, 1), ("A2", "F1")), ((0, 1), ("A2", "F2")), ((0, 1), ("B2", "E2")),
              ((0, 1), ("C1", "E2")), ((0, 1), ("E1", "E2")), ((0, 1), ("E2", "F1")),
              ((0, 1), ("E2", "F2")), ((0, 1), ("G2",)),
              ((1, 1), ("A1", "E2", "F1")), ((1, 1), ("A1", "E2", "F2")),
              ((1, 1), ("B1", "E1", "E2")), ((1, 1), ("C2", "E1", "E2")),
              ((1, 1), ("E2", "G1")),
              ((1, 2), ("E1", "E2", "E2", "F1")), ((1, 2), ("E1", "E2", "E2", "F2")),
              ((1, 2), ("E1", "E2", "G2"))}
    assert len(listed) == 37 and len(extras) == 16
    assert set(moving) == nonnegative | listed | extras
    assert len(set(moving)) == 55
