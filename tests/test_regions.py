import numpy as np
import pytest

from rrkit.measures import cmi, eval_terms
from rrkit.polytope import fm_eliminate, lp_feasible, vertices2d
from rrkit.prob import (FORMS, Factor, FactorizationSpec, JointDistribution, ModelError,
                        condition, marginalize, sample_distribution, sample_factors)
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
    b37 = R.intermediate37_system(c)
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


def test_build_system_catalogue_row_labels():
    c12 = R.hod1_constants(sample_distribution(FORMS["hod12"], binary_sizes("hod12"), seed=4))
    rows = R.build_system(c12, "thm5-quadruple").rows
    assert [r.label for r in rows[:8]] == [f"13-{i}" for i in range(1, 9)]
    c7 = R.rtd_constants(sample_distribution(FORMS["rtd7"], binary_sizes("rtd7"), seed=4))
    rows = R.build_system(c7, "rtd-quintuple").rows
    assert [r.label for r in rows[:8]] == [f"8-{i}" for i in range(1, 9)]


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
                     condition(extended, {"U1a": 1})):
        numeric_guard_calls.clear()
        R.hod_constants(fed_back)
        assert numeric_guard_calls == ["hod9"]


def test_guard_rejects_composed_joint_of_non_implying_chain(numeric_guard_calls):
    d = sample_distribution(FORMS["hod9"], binary_sizes("hod9"), seed=3)
    with pytest.raises(ModelError, match=r"violates factorization dmt5 by .* \(limit 1e-06\)"):
        R.dmt_constants(d)
    assert numeric_guard_calls == ["dmt5"]


@pytest.mark.parametrize("family, form", [("hod", "hk3"), ("dmt", "dmt5"),
                                          ("rtd", "rtd7"), ("hod1", "cmg4")])
def test_guard_route_leaves_constants_bitwise_equal(family, form):
    for i in range(3):
        d = sample_distribution(FORMS[form], binary_sizes(form), seed=97, index=i)
        structural = R.constants_for(d, family).values
        numeric = R.constants_for(JointDistribution(d.variables, d.table), family).values
        assert [v.hex() for v in structural.values()] == [v.hex() for v in numeric.values()]
