import json
import math
import re
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrkit.prob import FORMS, compose, sample_distribution, sample_factors
from rrkit import regions as R
from rrkit.measures import TermTable, entropy
from rrkit.polytope import TOL, contains, fm_eliminate, lp_feasible, remove_redundant
from rrkit import verify as V

import fm_oracle
from conftest import binary_sizes

N = 8  # small per-check campaigns; the acceptance suite runs the full sizes


def test_thm4_check_passes():
    r = V.run_check("thm4", N, 5)
    assert r.passed and len(r.verdicts) == N


def test_thm6_check_passes_and_reports_drops():
    r = V.run_check("thm6", N, 5)
    assert r.passed
    assert isinstance(r.details.get("dropped_projection_rows"), dict)


def test_equivalence_reports_count_empty_projections():
    # binary draws of the full chains mostly have a negative constant, so the
    # projection is empty and every containment holds vacuously: all 8 thm4
    # samples and 3 of the 8 thm6 samples here
    r4 = V.run_check("thm4", N, 5)
    r6 = V.run_check("thm6", N, 5)
    assert (r4.details["empty_projection"], r6.details["empty_projection"]) == (8, 3)
    # an empty projection is not reduced: the tallies count the others only
    assert r4.details["dropped_projection_rows"] == {}
    assert "reduced_row_count" not in r4.details
    dropped, most = Counter(), 0  # thm6 passes, so each of its samples is equivalent
    for index in range(N):
        d = V._draw(R._FAMILIES["hod1"].form, 5, index)[0]
        raw = R.ratepair_projection(R.constants_for(d, "hod1"))
        if lp_feasible(raw, tol=TOL):
            kept = {r.label for r in remove_redundant(raw, TOL).rows}
            dropped.update(r.label for r in raw.rows if r.label not in kept)
            most = max(most, len(kept))
    assert r6.passed and most
    assert r6.details["dropped_projection_rows"] == dict(sorted(dropped.items()))
    assert r6.details["reduced_row_count"] == {"max": float(most)}


def test_corollary1_check_passes():
    r = V.run_check("corollary1", N, 5)
    assert r.passed
    assert r.max_deviation < 1e-9


def test_corollary1_counterexample_names_term():
    # correlated general-form input: the collapse must fail and the largest
    # add-on identifies the violating term
    sizes = binary_sizes("hod9", q=1)
    factors = sample_factors(FORMS["hod9"], sizes, seed=2)
    factors[2] = np.broadcast_to(np.eye(2), (1, 2, 2)).copy()  # U1 = W1
    from rrkit.prob import compose
    d = compose(factors, FORMS["hod9"], sizes)
    addons = R.evaluate_parts(d, V._COLLAPSE_TABLES["hod"])["addon"]
    worst = max(addons, key=addons.get)
    assert addons[worst] > 1e-3
    assert "U1" in worst and "W1" in worst


def test_corollary2_and_4_check_passes():
    r = V.run_check("corollary2-4", N, 5)
    assert r.passed
    assert r.details["orderings"]["D1-G1"] <= 1e-12


def test_merge_reports_negative_margins():
    # D1 < G1 and E2 < G2 strictly on these draws: the worst margin is
    # negative, not floored at 0.0
    r = V.run_check("corollary2-4", 12, 7)
    assert r.passed and r.max_deviation == 0.0
    assert r.details["orderings"]["D1-G1"] < 0
    assert r.details["orderings"]["E2-G2"] < 0


def test_corollary2_rows_can_fail_outside_reduced_family():
    # on a general-form input some listed row is typically not redundant;
    # that is expected behaviour, recorded rather than asserted
    # nonempty regions are rare for generic draws of the full chain (the
    # binning penalties usually dominate), so scan a wide seed window
    found = None
    for i in range(120):
        q = 1 if i % 2 == 0 else 2
        d = sample_distribution(FORMS["hod9"], binary_sizes("hod9", q=q),
                                seed=83, index=i)
        c = R.hod_constants(d)
        sys20 = R.build_system(c, "thm4-ratepair")
        missed = V.redundant_rows(sys20, V.REDUNDANT_UNDER_HK, 1e-9)
        if missed:
            found = missed
            break
    assert found, "no sample with a binding listed row in the scan window"


def test_corollary3_check_passes():
    r = V.run_check("corollary3", N, 5)
    assert r.passed


def test_corollary5_check_surfaces_table_defects(monkeypatch):
    # the catalogued table holds line by line
    r = V.run_check("corollary5", N, 5)
    assert r.passed
    dev = r.details["identity_dev"]
    assert len(dev) == 14 and all(v <= 1e-12 for v in dev.values())
    assert max(r.details["dominance_excess"].values()) <= 1e-12
    assert r.details["inclusion"]["failed_any"] == 0.0

    # one wrong delta (I(W2;U1|Q) in place of I(W2;W1|Q) on the f1 line) is
    # caught by name with a replayable witness, and inclusion is still reported
    monkeypatch.setattr(V, "_COR5_TABLE", TermTable(
        V._COR5_TABLE.rows | {("delta", "f1"): R._terms("I(W2;U1|Q)")}))
    r = V.run_check("corollary5", N, 5)
    assert not r.passed
    dev = r.details["identity_dev"]
    assert [k for k, v in dev.items() if v > 1e-12] == ["f1"]
    assert dev["f1"] > 1e-3
    assert r.details["inclusion"]["failed_any"] == 0.0
    assert r.failures
    assert all("['f1']" in f["why"] for f in r.failures)
    assert r.failures[0]["factors"]  # replayable witness


def test_corollary6_check_passes_and_reports_variant():
    r = V.run_check("corollary6", N, 5)
    assert r.passed
    assert r.details["s1_narrow_grouping_residual"]["max"] > 1e-6


def test_eq14_check_passes():
    r = V.run_check("eq14", N, 5)
    assert r.passed
    # the identical-spelling constant never deviates; the others may
    assert r.details["generic_dev"]["E1"] <= 1e-12
    assert r.details["generic_dev"]["A1"] > 1e-6
    assert r.details["superposition_dev"]["G2"] <= 1e-12


def test_eq14_a1_gap_equals_recoverability_residual():
    from rrkit.measures import eval_terms
    d = sample_distribution(FORMS["hod12"], binary_sizes("hod12"), seed=91)
    c = R.hod1_constants(d)
    gap = eval_terms(d, R.EQ14_UFORM["A1"]) - c["A1"]
    residual = eval_terms(d, [R.EQ14_MARKOV_RESIDUAL])
    assert abs(gap - residual) < 1e-12


def _replay(failure, form, table):
    """Compose a failure's recorded factors and evaluate ``table`` on the joint."""
    factors = [np.array(f) for f in failure["factors"]]
    return R.evaluate_parts(compose(factors, FORMS[form], failure["sizes"]), table)


def test_eq14_superposition_failure_witnesses_the_superposition_draw():
    # at 1e-15 round-off fails only the superposition part of some samples;
    # each witness must be that draw, and replaying it gives the deviation
    r = V.run_check("eq14", 40, 1001, tol_identity=1e-15)
    only_sup = [f for f in r.failures if f["why"].startswith("superposition")]
    assert only_sup
    for f in only_sup:
        assert f["sizes"] == V._SUPERPOSITION_SIZES
        v = _replay(f, "hod12", V._EQ14_TABLE)
        assert max(abs(v["uform"][k] - v["hod1"][k]) for k in R.EQ14_UFORM) == f["deviation"]


def test_corollary6_degenerate_failure_witnesses_the_u1b_1_draw():
    # sample 60 keeps its relations within 6e-16 but not the degenerate dominance
    r = V.run_check("corollary6", 61, 1001, tol_identity=6e-16)
    f = r.failures[-1]
    assert f["sample"] == 60 and "relation deviation 4.441e-16" in f["why"]
    assert f["sizes"]["U1b"] == 1 and f["sizes"] == V._DEGENERATE_SIZES
    v = _replay(f, "rtd7", V._COR6_TABLE)
    excess = max(v["rtd"][lab] - v["bound"][key] for key, lab, _, _ in R.COROLLARY6_LINES)
    assert excess == f["deviation"] > 6e-16


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.integers(0, 2**64 - 1), st.integers(0, 2**20))
def test_superposition_draw_makes_each_public_message_recoverable(seed, index):
    d, (i, s, sizes, _) = V._superposition_draw(seed, index)
    assert (i, s, sizes) == (index, seed, V._SUPERPOSITION_SIZES)
    assert abs(entropy(d, ["W1"], ["X1"])) <= 1e-12
    assert abs(entropy(d, ["W2"], ["X2"])) <= 1e-12


def test_binning_check_passes():
    r = V.run_check("binning", N, 5)
    assert r.passed


def test_thm4_infeasible_source_is_classified_not_failed():
    # this draw has a negative user-2 constant: the source system is
    # infeasible, the projection empty, and the closed-form lists keep a
    # sliver, which must be witnessed as a divergence rather than a failure
    res = V._equivalence_one(138, seed=1001, tol_polytope=1e-9, tol_identity=1e-12,
                             ratepair="thm4-ratepair", with_37=True)
    assert res["ok"]
    assert res.get("divergence") is not None
    assert "infeasible" in res["divergence"]["why"]
    assert res["divergence"]["witness"] is not None


@pytest.mark.parametrize("family, form, seed", [
    ("hod", "hod9", 1001), ("hod1", "hod12", 1002), ("dmt", "dmt5", 1003), ("hod", "dmt5", 1003)],
    ids=["thm4", "thm6", "corollary5-dmt", "corollary5-hod"])
def test_min_bound_decides_source_feasibility_like_lp_feasible(family, form, seed):
    # _equivalence_one classifies a divergence by the smallest source bound: every
    # source row has coefficients in {0, 1} and the rates are nonnegative.  The
    # source is over 4 or 5 variables, so the FM oracle decides its feasibility.
    system = R._FAMILIES[family].system
    for index in range(200):
        consts = R.constants_for(V._draw(form, seed, index)[0], family)
        source = R.build_system(consts, system)
        assert all(set(r.coeffs) <= {0, 1} or (r.bound == 0 and sorted(r.coeffs)
                                                == [-1] + [0] * (len(r.coeffs) - 1))
                   for r in source.rows)
        for tol in (0.0, 1e-9):
            assert fm_oracle.feasible(source, tol) == (min(consts.values.values()) >= -tol)


def test_thm4_both_empty_counts_as_equivalent():
    # U2 a copy of U1, outputs carrying nothing: every user-2 rate bound is
    # negative, so the source region and all closed-form lists are empty
    import numpy as np
    from rrkit.prob import compose
    sizes = {"Q": 1, "W1": 2, "U1": 2, "W2": 1, "U2": 2,
             "X1": 2, "X2": 2, "Y1": 1, "Y2": 1}
    spec = FORMS["hod9"]
    factors = [np.ones((1,)),                      # Q
               np.full((1, 2), 0.5),               # W1|Q
               np.full((1, 2, 2), 0.5),            # U1|Q,W1 independent of W1
               np.ones((1, 2, 2, 1)),              # W2 constant
               np.zeros((1, 2, 2, 1, 2)),          # U2 = U1
               np.full((1, 2, 2, 2), 0.5),         # X1
               np.full((1, 1, 2, 2), 0.5),         # X2
               np.ones((2, 2, 1, 1))]              # outputs constant
    for u1 in range(2):
        factors[4][0, u1, :, 0, u1] = 1.0
    d = compose(factors, spec, sizes)
    c = R.hod_constants(d)
    assert c["A2"] < -0.5
    raw = R.project_to_ratepair(R.build_system(c, "thm3-quadruple"))
    listed = R.build_system(c, "thm4-ratepair")
    from rrkit.polytope import contains, lp_feasible
    assert not lp_feasible(raw)
    assert not lp_feasible(listed)
    assert contains(listed, raw)[0] and contains(raw, listed)[0]


# sha256 of json.dumps(run_check(name, 20, 1001).to_json_dict()) for every
# check.  Those of the checks that read the general region's renamed forms
# (HOD_ON_SPLIT, EQ14_UFORM and the budget rows: corollary6, eq14, binning)
# were taken when those tables were still written out term by term, so a
# renaming that changes any compiled row changes these reports; the others
# when the report was still built field by field and the tolerance and
# alphabet-size rules still had a copy per caller.
RENAMED_FORM_REPORTS_SHA256 = {
    "thm4": "0973173809dfea99f3e610dde4a260fb62df2e410648a240d16ac46575eb032c",
    "thm6": "35f93a31248bb985b388230ae873d3920ed384c0cab08860ea23caaca559ed26",
    "corollary1": "0395c580719251e3f485d1ecef7fbb783061c45b7d91f249ed8577385ac20806",
    "corollary2-4": "c51fb4f44add7c61c605f0c36adb80e8ea1e9839a99d442d4f37238ae9a87c10",
    "corollary3": "d29febe5816d29aca0d597866c53f1bb1ce7c7b09237aeda15b2e2b6bd1d46f9",
    "corollary5": "7575ead3b92c10567450e325f2f6651638d8f442578a2f2b151e3b85cd0fc835",
    "corollary6": "4877d90443f1a54e7ad351f68f911f795225f6e646c25e7f225f25fea587dede",
    "eq14": "4a703e8c7cf34836227c4a4c75126a10315d7fcb00e30f2608140ddcd870e9e6",
    "binning": "b877b535ca76cecd14d4cd5b85b60342a57240957cff025769931e7bae2a8270",
}


@pytest.mark.parametrize("name", sorted(RENAMED_FORM_REPORTS_SHA256))
def test_reports_of_the_renamed_general_forms_are_pinned(name):
    import hashlib
    report = json.dumps(V.run_check(name, 20, 1001).to_json_dict())
    assert hashlib.sha256(report.encode()).hexdigest() == RENAMED_FORM_REPORTS_SHA256[name]


def test_reports_deterministic():
    a = V.run_check("thm6", 4, 9)
    b = V.run_check("thm6", 4, 9)
    ja = json.dumps(a.to_json_dict(), sort_keys=True)
    jb = json.dumps(b.to_json_dict(), sort_keys=True)
    assert ja == jb


def test_thm4_makes_rows_only_where_they_are_read(monkeypatch):
    # a passing sample asks every question of a system's columns: the rows of
    # a system built from them are made only in a sample whose witness walk
    # (a failed containment), _witness_deviation or remove_redundant (and the
    # labels its tally reads) reads them
    from rrkit import polytope
    built, samples, reads = [], [], []

    def recording(*args, **kwargs):
        built.append(real(*args, **kwargs))
        return built[-1]
    real = polytope._built
    monkeypatch.setattr(polytope, "_built", recording)
    monkeypatch.setattr(R, "_built", recording)

    def reading(ask, read=lambda answer: True):
        def wrapper(*args, **kwargs):
            answer = ask(*args, **kwargs)
            reads.append(read(answer))
            return answer
        return wrapper
    monkeypatch.setattr(V, "contains", reading(V.contains, lambda answer: not answer[0]))
    for name in ("remove_redundant", "_witness_deviation"):
        monkeypatch.setattr(V, name, reading(getattr(V, name)))

    def mapper(one, indices):
        for i in indices:
            built.clear()
            reads.clear()
            yield one(i)
            samples.append((sum(len(vars(s).get("rows", ())) for s in built), any(reads)))
    V.run_check("thm4", 200, 1001, mapper=mapper)
    assert len(samples) == 200
    # the one projection reduced, and the one divergent sample's witness
    assert [read for made, read in samples if made] == [True, True]
    assert sum(read for _, read in samples) == 2


def test_witness_deviation_folds_from_the_left():
    # 1e16 + 1.0 rounds back to 1e16 from the left; a compensated sum (math.fsum,
    # and the builtin sum from Python 3.12) keeps the 1.0
    from rrkit.polytope import make_row, system
    s = system(("a", "b", "c"), [make_row((1, 1, 1), -1.0, "sum")])
    point = (1e16, 1.0, -1e16)
    assert math.fsum(point) - -1.0 == 2.0
    assert V._witness_deviation(s, point) == 1.0


def test_run_check_unknown_name():
    with pytest.raises(KeyError):
        V.run_check("no-such-check", samples=1, seed=0)


@pytest.fixture(scope="module")
def pool():
    from concurrent.futures import ProcessPoolExecutor
    try:
        shared = ProcessPoolExecutor(max_workers=2)
        shared.submit(int).result()  # start the workers here, where a failure skips
    except OSError:
        pytest.skip("process pools unavailable in this environment")
    with shared:
        yield shared


@pytest.mark.parametrize("name", sorted(V.CHECKS))
def test_parallel_mapper_matches_sequential(name, pool):
    # every per-sample function pickles, and a pool's map gives the same report
    seq = V.run_check(name, 2, 9)
    par = V.run_check(name, 2, 9, mapper=lambda f, it: list(pool.map(f, it)))
    assert json.dumps(seq.to_json_dict(), sort_keys=True) == \
        json.dumps(par.to_json_dict(), sort_keys=True)


@pytest.mark.parametrize("name, per_sample", [
    ("corollary1", 1), ("corollary3", 1), ("corollary5", 1), ("corollary6", 2), ("eq14", 2)])
def test_identity_checks_evaluate_one_table_per_joint(name, per_sample, monkeypatch):
    # constants, cores, add-ons and identity rows share one table per joint
    calls = []
    original = TermTable.subset_entropies
    monkeypatch.setattr(TermTable, "subset_entropies",
                        lambda self, d: calls.append(self) or original(self, d))
    assert V.run_check(name, 3, 7).passed
    assert len(calls) == 3 * per_sample


def test_run_check_constructs_no_term_table(monkeypatch):
    # every table a check reads is compiled at import, not per call
    def refuse(self, rows):
        raise AssertionError("TermTable built while a check runs")
    monkeypatch.setattr(TermTable, "__init__", refuse)
    for name in V.CHECKS:
        assert V.run_check(name, 2, 3).passed, name


@pytest.mark.parametrize("tol", [float("inf"), float("nan"), -1, True, np.True_,
                                 np.int64(0), np.float32(1e-9), Fraction(1, 10**9)])
@pytest.mark.parametrize("key", ["tol_polytope", "tol_identity"])
@pytest.mark.parametrize("name", sorted(V.CHECKS))
def test_checks_refuse_a_tolerance_that_is_not_finite_and_nonnegative(name, key, tol):
    # refused before anything is drawn, whether or not the check reads it
    def draws(one, indices):
        raise AssertionError("a sample was drawn")
    with pytest.raises(ValueError, match=rf"{key} must be finite and >= 0, got {tol}"):
        V.run_check(name, 4, 1, mapper=draws, **{key: tol})


@pytest.mark.parametrize("tol", [0, 1e-9, np.float64(1e-9)])
def test_a_report_writes_the_int_or_float_tolerance_it_was_given(tol):
    # numpy's float64 is a float; the report records the tolerance as given
    report = V.run_check("corollary2-4", 2, 1, tol_polytope=tol)
    assert json.loads(json.dumps(report.to_json_dict()))["tolerances"]["polytope"] == tol


def _replayed_joint(failure, form):
    """The joint of a failure's witness, after checking that its factors are
    the draw its (sample, seed, sizes) name."""
    drawn = sample_factors(FORMS[form], failure["sizes"], failure["seed"], failure["sample"])
    assert [t.tolist() for t in drawn] == failure["factors"]
    return compose([np.array(f) for f in failure["factors"]], FORMS[form], failure["sizes"])


def _replay_cor24(failure):
    sys20 = R.build_system(R.constants_for(_replayed_joint(failure, "hk3"), "hod"),
                           "thm4-ratepair")
    missed = V.redundant_rows(sys20, V.REDUNDANT_UNDER_HK, 1e-9)
    assert missed == ["11-1"]
    assert failure["why"] == f"rows not implied under independence: {missed}"


def _replay_cor5(failure):
    v = R.evaluate_parts(_replayed_joint(failure, "dmt5"), V._COR5_TABLE)
    hod_rp = R.ratepair_projection(R.BoundConstants("hod", v["hod"]))
    dmt_rp = R.ratepair_projection(R.BoundConstants("dmt", v["dmt"]))
    assert contains(hod_rp, dmt_rp, 1e-9) == (False, failure["witness"])
    assert "; baseline above general: ['a1', " in failure["why"]
    assert failure["why"].endswith("; rate-pair inclusion failed")


def _replay_eq14_generic(failure):
    assert failure["sizes"] != V._SUPERPOSITION_SIZES
    v = R.evaluate_parts(_replayed_joint(failure, "hod12"), V._EQ14_TABLE)
    e1 = abs(v["uform"]["E1"] - v["hod1"]["E1"])
    a1 = abs(abs(v["uform"]["A1"] - v["hod1"]["A1"]) - v["residual"]["A1"])
    assert failure["deviation"] == max(e1, a1) > 0.1
    assert failure["why"] == f"E1 dev {e1:.3e}, A1-vs-residual dev {a1:.3e}"


def _replay_binning(failure):
    budget = R.binning_budget_system(_replayed_joint(failure, "hod9"))
    projected = fm_eliminate(fm_eliminate(budget, "s2"), "t2")
    got = sorted({tuple(int(c) for c in r.coeffs) for r in projected.rows})
    assert failure["why"] == (f"projected coefficient patterns {got} != "
                              f"expected {sorted(V._USER2_PATTERN)}")


# check -> (the verify table patched, its patched value, a failure's replay)
_FORCED_FAILURES = {
    "corollary2-4": ("REDUNDANT_UNDER_HK", lambda: ("11-1",),  # binds on these hk3 draws
                     _replay_cor24),
    # every baseline constant H(X1,X2): above the general ones, and a box
    "corollary5": ("_COR5_TABLE", lambda: TermTable(V._COR5_TABLE.rows | {
        ("dmt", low): R._terms("H(X1,X2)") for low in R.COROLLARY5_TABLE}), _replay_cor5),
    # a residual far from the A1 gap fails the generic draw
    "eq14": ("_EQ14_TABLE", lambda: TermTable(V._EQ14_TABLE.rows | {
        ("residual", "A1"): R._terms("H(W1|Q)")}), _replay_eq14_generic),
    # one user-2 row left out of the expected patterns
    "binning": ("_USER2_PATTERN", lambda: dict(list(V._USER2_PATTERN.items())[1:]),
                _replay_binning),
}


@pytest.mark.parametrize("check", sorted(_FORCED_FAILURES))
def test_a_forced_failure_says_why_and_its_witness_replays(check, monkeypatch):
    attribute, patched, replay = _FORCED_FAILURES[check]
    monkeypatch.setattr(V, attribute, patched())
    r = V.run_check(check, 2, 5)
    assert r.verdicts == (False, False) and [f["sample"] for f in r.failures] == [0, 1]
    for failure in r.failures:
        replay(failure)


@pytest.mark.parametrize("seed, message", [
    (7.0, "seed must be an integer, got 7.0"), (True, "seed must be an integer, got True"),
    (np.int64(7), f"seed must be an integer, got {np.int64(7)!r}"),
    (-1, "seed must be in [0, 2**64), got -1"), (2**64, "seed must be in [0, 2**64)"),
])
def test_checks_refuse_a_seed_that_is_no_int_in_range_before_drawing(seed, message):
    def no_draw(one, indices):
        raise AssertionError("drew a sample")
    with pytest.raises(ValueError, match=re.escape(message)):
        V.run_check("corollary1", 2, seed, mapper=no_draw)


@pytest.mark.parametrize("samples", [0, -3, True, 2.5])
def test_checks_refuse_anything_but_a_count_of_at_least_one_sample(samples):
    def no_draw(one, indices):
        raise AssertionError("drew a sample")
    for check in ("thm4", "binning"):
        with pytest.raises(ValueError, match="at least 1 sample"):
            V.run_check(check, samples, 1, mapper=no_draw)
