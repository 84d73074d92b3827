import contextlib
import io
import json
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rrkit.cli import build_parser, load_scenario, main, reduced_ratepair
from rrkit.polytope import lp_feasible, make_row, system
from rrkit.prob import FORMS, sample_distribution
from rrkit.regions import _FAMILIES, constants_for, hod_constants
from rrkit.verify import CHECKS

from conftest import binary_sizes, margin_factors


def write_scenario(path, form="hk3", q=2, extra=None, count=10, seed=11):
    data = {"form": form, "alphabets": {"Q": q},
            "sampling": {"count": count, "seed": seed}}
    if extra:
        data.update(extra)
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture
def hk_scenario(tmp_path):
    return write_scenario(tmp_path / "hk.json")


@pytest.fixture
def dmt_scenario(tmp_path):
    return write_scenario(tmp_path / "dmt.json", form="dmt5")


def test_eval_matches_library(hk_scenario, tmp_path, capsys):
    out = tmp_path / "eval.json"
    assert main(["eval", hk_scenario, "--family", "hod", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "10-1" in printed and "A1" in printed
    data = json.loads(out.read_text())
    assert len(data["constants"]) == 14
    d = sample_distribution(FORMS["hk3"], binary_sizes("hk3", q=2), seed=11, index=0)
    expected = hod_constants(d)
    for label, value in data["constants"].items():
        assert value == expected[label]  # same code path, bit for bit


def test_eval_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"form": "hk3",\n  "alphabets": }')
    assert main(["eval", str(bad), "--family", "hod"]) == 2
    err = capsys.readouterr().err
    assert "line" in err and "column" in err


def test_eval_unknown_key(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"form": "hk3", "chanel": {}}))
    assert main(["eval", str(bad), "--family", "hod"]) == 2


@pytest.mark.parametrize("extra", [
    {"alphabets": {"Q": "two"}},
    {"alphabets": {"Q": None}},
    {"sampling": {"count": "x"}},
    {"tol": {"polytope": "x"}},
    {"factors": {"W1|Q": ["a", "b"]}},
    {"alphabets": {"Q": 1.7}},
    {"alphabets": {"Q": True}},
    {"sampling": {"seed": 2.5}},
    {"channel": {"x1": 2.5, "kernel": [0.25] * 16}},
    {"channel": {"kernel": [[0.5, 0.5], [1.0]]}},
    {"form": ["hk3"]},
    {"form": {"a": 1}},
])
def test_eval_malformed_scenario_values_exit_2(extra, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"form": "hod9", **extra}))
    assert main(["eval", str(bad), "--family", "hod"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("verb, extra, block, key", [
    ("project", {"tol": {"polytop": 0.5}}, "tol", "polytop"),
    ("union", {"sampling": {"cout": 2}}, "sampling", "cout"),
    ("eval", {"channel": {"y3": 2, "kernel": [0.25] * 16}}, "channel", "y3"),
    ("project", {"tol": {"identity": 1e-12}}, "tol", "identity"),  # no verb reads it
])
def test_unknown_key_in_a_block_is_a_usage_error(verb, extra, block, key, tmp_path, capsys):
    scen = write_scenario(tmp_path / "typo.json", extra=extra)
    assert main([verb, scen, "--family", "hod"]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [f"error: {scen}: unknown keys [{key!r}] in {block!r}"]


@pytest.mark.parametrize("extra, message", [
    ({"alphabets": {"X1": 3}, "channel": {"x1": 2, "kernel": [0.25] * 16}},
     "channel x1 = 2 conflicts with alphabet X1 = 3"),
    ({"channel": {"kernel": [0.25] * 16},
      "factors": {"Y1,Y2|X1,X2": [1.0, 0.0, 0.0, 0.0] * 4}},
     "channel kernel conflicts with factor 'Y1,Y2|X1,X2'"),
    ({"channel": {"x1": 2}}, "channel block needs a 'kernel' array"),
])
def test_channel_block_conflicts_are_usage_errors(extra, message, tmp_path, capsys):
    scen = write_scenario(tmp_path / "chan.json", extra=extra)
    assert main(["eval", scen, "--family", "hod"]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {scen}: {message}"]


@pytest.mark.parametrize("extra, message", [
    ({"alphabets": {"U1b": 2}}, "alphabet for unknown variable 'U1b'"),
    ({"factors": {"W1|Q": [0.5, 0.5]}}, "factor 'W1|Q' has 2 entries, expected 4"),
])
def test_scenario_entries_that_do_not_fit_the_form_are_usage_errors(extra, message, tmp_path,
                                                                    capsys):
    scen = write_scenario(tmp_path / "misfit.json", extra=extra)
    assert main(["eval", scen, "--family", "hod"]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {scen}: {message}"]


def test_eval_accepts_a_chain_whose_slices_are_each_within_tolerance(tmp_path, capsys):
    # every slice sums to 1 + 9e-13, so the joint's total mass is about 1 + 7.2e-12
    sizes = binary_sizes("hk3", q=1)
    factors = {f.label(): t.ravel().tolist()
               for f, t in zip(FORMS["hk3"].factors, margin_factors("hk3", sizes))}
    scen = write_scenario(tmp_path / "margin.json", q=1, extra={"factors": factors})
    assert main(["eval", scen, "--family", "hod"]) == 0
    assert capsys.readouterr().err == ""


def test_channel_block_equal_to_alphabets_and_factors_is_accepted(tmp_path):
    kernel = np.eye(4).ravel().tolist()  # Y1, Y2 copy X1, X2
    paths = [write_scenario(tmp_path / "short.json", extra={
                 "channel": {"x1": 2, "kernel": kernel}}),
             write_scenario(tmp_path / "long.json", extra={
                 "alphabets": {"Q": 2, "X1": 2},
                 "channel": {"x1": 2, "kernel": kernel},
                 "factors": {"p(Y1,Y2|X1,X2)": kernel}})]
    outs = [tmp_path / "short.out", tmp_path / "long.out"]
    for path, out in zip(paths, outs):
        assert main(["eval", path, "--family", "hod", "--out", str(out)]) == 0
    assert outs[0].read_text() == outs[1].read_text()


_CATALOGUE_LABELS = {
    "hod": (["A1", "B1", "C1", "D1", "E1", "F1", "G1",
             "A2", "B2", "C2", "D2", "E2", "F2", "G2"], "10", "hod9"),
    "dmt": (["a1", "b1", "c1", "d1", "e1", "f1", "g1",
             "a2", "b2", "c2", "d2", "e2", "f2", "g2"], "6", "dmt5"),
    "rtd": ([f"8-{i}" for i in range(1, 9)], "8", "rtd7"),
    "hod1": (["A1", "D1", "E1", "G1", "A2", "D2", "E2", "G2"], "14", "hod12"),
}


@pytest.mark.parametrize("family", sorted(_CATALOGUE_LABELS))
def test_eval_reports_catalogue_equation_labels(family, tmp_path):
    labels, prefix, form = _CATALOGUE_LABELS[family]
    scen = tmp_path / "s.json"
    scen.write_text(json.dumps({"form": form}))
    out = tmp_path / "eval.json"
    assert main(["eval", str(scen), "--family", family, "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["equations"] == {k: f"{prefix}-{i + 1}" for i, k in enumerate(labels)}
    assert sorted(data["constants"]) == sorted(labels)


@pytest.mark.parametrize("form", ["ic1", "crc2"])
def test_paper_input_forms_eval_and_project_under_hod(form, tmp_path):
    scen = write_scenario(tmp_path / f"{form}.json", form=form)
    for verb in ("eval", "project"):
        out = tmp_path / f"{verb}.json"
        assert main([verb, scen, "--family", "hod", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        if verb == "eval":
            assert len(data["constants"]) == 14
        else:
            assert data["reduced"]


def test_eval_factorization_violation_exits_3(tmp_path, capsys):
    # a general-chain sample does not satisfy the baseline factorization
    scen = write_scenario(tmp_path / "hod.json", form="hod9")
    assert main(["eval", scen, "--family", "dmt"]) == 3
    assert "invalid model" in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["eval", "project"])
def test_nan_factor_entry_is_a_model_error(verb, tmp_path, capsys):
    # NaN fails every probability check instead of giving nan constants or
    # a wrong "unbounded" verdict
    scen = tmp_path / "nan.json"
    scen.write_text('{"form": "hk3", "factors": {"U1|Q": [[NaN, 1.0]]}}')
    assert main([verb, str(scen), "--family", "hod"]) == 3
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if "error:" in line] == [
        "error: invalid model: conditional slices must sum to 1; worst deviation nan"]


def test_eval_explicit_factors_and_channel(tmp_path):
    # fully pinned two-bit scenario: uniform W1, X1 = W1, clean channel
    kernel = np.zeros((2, 1, 2, 1))
    kernel[0, 0, 0, 0] = 1.0
    kernel[1, 0, 1, 0] = 1.0
    extra = {
        "alphabets": {"Q": 1, "W1": 2, "X1": 2, "W2": 1, "X2": 1},
        "channel": {"x1": 2, "x2": 1, "y1": 2, "y2": 1,
                    "kernel": kernel.ravel().tolist()},
        "factors": {
            "Q": [1.0],
            "W1|Q": [0.5, 0.5],
            "X1|Q,W1": [1.0, 0.0, 0.0, 1.0],
            "W2|Q,W1,X1": [1.0, 1.0, 1.0, 1.0],
            "X2|Q,W2,W1,X1": [1.0, 1.0, 1.0, 1.0],
        },
    }
    scen = tmp_path / "pinned.json"
    scen.write_text(json.dumps({"form": "hod12", **extra}))
    out = tmp_path / "out.json"
    assert main(["eval", str(scen), "--family", "hod1", "--out", str(out)]) == 0
    consts = json.loads(out.read_text())["constants"]
    assert consts["G1"] == pytest.approx(1.0, abs=1e-12)  # noiseless uniform bit


def test_project_outputs(hk_scenario, tmp_path):
    out, csv = tmp_path / "p.json", tmp_path / "p.csv"
    assert main(["project", hk_scenario, "--family", "hod",
                 "--out", str(out), "--csv", str(csv)]) == 0
    data = json.loads(out.read_text())
    assert len(data["reduced"]) <= 22  # 20 listed rows + nonnegativity
    rows = [make_row([str(c) for c in r["coeffs"]], r["bound"], r["label"])
            for r in data["reduced"]]
    sys = system(("R1", "R2"), rows)
    for x, y in data["vertices"]:
        assert lp_feasible(sys, point=(x, y), tol=1e-9)
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "R1,R2"
    assert len(lines) == len(data["vertices"]) + 1


def test_project_origin_region(tmp_path):
    # outputs carry nothing: every constant 0, region collapses to the origin
    kernel = [0.25] * 16
    scen = write_scenario(tmp_path / "null.json", form="hk3",
                          extra={"channel": {"kernel": kernel}})
    out = tmp_path / "o.json"
    assert main(["project", scen, "--family", "hod", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["kind"] == "point"
    assert data["vertices"] == [[0.0, 0.0]]


def test_compare_same_region_equal(hk_scenario, tmp_path, capsys):
    other = write_scenario(tmp_path / "same.json")
    assert main(["compare", hk_scenario, other, "--family", "hod"]) == 0
    assert "(equal)" in capsys.readouterr().out


def test_compare_families_needs_two(hk_scenario, capsys):
    assert main(["compare", hk_scenario, "--family", "hod"]) == 2


def test_compare_names_the_scenario_that_does_not_parse(hk_scenario, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"form": "hk3",\n  "alphabets": }')
    assert main(["compare", hk_scenario, str(bad), "--family", "hod"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {bad}: parse failure at line 2, column 16: Expecting value"]


def test_compare_refuses_two_scenario_tolerances(hk_scenario, tmp_path, capsys):
    loose = write_scenario(tmp_path / "loose.json", extra={"tol": {"polytope": 1e-6}})
    assert main(["compare", hk_scenario, loose, "--family", "hod"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {hk_scenario} and {loose} set different tol.polytope (1e-09 and 1e-06); "
        "pick one with --tol-polytope"]
    # the default written out is the same tolerance
    same = write_scenario(tmp_path / "same.json", extra={"tol": {"polytope": 1e-9}})
    assert main(["compare", hk_scenario, same, "--family", "hod"]) == 0


def test_compare_tolerance_flag_settles_both_scenarios(hk_scenario, tmp_path, capsys):
    loose = write_scenario(tmp_path / "loose.json", extra={"tol": {"polytope": 1e-6}})
    assert main(["compare", hk_scenario, loose, "--family", "hod",
                 "--tol-polytope", "1e-6"]) == 0
    assert "(equal)" in capsys.readouterr().out


def test_compare_baseline_inside_general(dmt_scenario, tmp_path, capsys):
    out = tmp_path / "cmp.json"
    assert main(["compare", dmt_scenario, "--family", "hod",
                 "--family-b", "dmt", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["a_contains_b"] is True
    if data["strict"] == "a > b":
        assert data["witness_strict"] is not None


@pytest.mark.parametrize("form_a, form_b, seed_b, strict", [
    ("dmt5", "hk3", 11, "b > a"),
    ("hk3", "dmt5", 11, "a > b"),
    ("hk3", "hk3", 13, "incomparable"),
], ids=["b_over_a", "a_over_b", "incomparable"])
def test_compare_strict_outcomes(tmp_path, form_a, form_b, seed_b, strict):
    a = write_scenario(tmp_path / "a.json", form=form_a)
    b = write_scenario(tmp_path / "b.json", form=form_b, seed=seed_b)
    out = tmp_path / "cmp.json"
    assert main(["compare", a, b, "--family", "hod", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["strict"] == strict
    sys_a, sys_b = (reduced_ratepair(constants_for(load_scenario(p).draw(0), "hod"), 1e-9)[1]
                    for p in (a, b))
    if strict == "incomparable":
        assert "witness_strict" not in data
        # each witness is a point of one region outside the other
        cases = [(data["witness_outside_a"], sys_b, sys_a),
                 (data["witness_outside_b"], sys_a, sys_b)]
    else:
        larger, smaller = (sys_a, sys_b) if strict == "a > b" else (sys_b, sys_a)
        cases = [(data["witness_strict"], larger, smaller)]
    for point, inside, outside in cases:
        assert lp_feasible(inside, point=tuple(point), tol=1e-9)
        assert not lp_feasible(outside, point=tuple(point), tol=1e-9)


def test_verify_exit_codes(tmp_path, capsys, monkeypatch):
    rep = tmp_path / "r.json"
    assert main(["verify", "binning", "--samples", "5", "--seed", "3",
                 "--out", str(rep)]) == 0
    data = json.loads(rep.read_text())
    assert data["passed"] is True and len(data["verdicts"]) == 5

    assert main(["verify", "corollary5", "--samples", "4", "--seed", "3",
                 "--out", str(tmp_path / "r1.json")]) == 0

    # a wrong identity-table line must exit 1 with a witness; the patch lives
    # in this process, so the campaign runs in-process
    import rrkit.regions as regions_mod
    import rrkit.verify as verify_mod
    from rrkit.measures import TermTable
    monkeypatch.delenv("RRK_THREADS", raising=False)
    monkeypatch.setattr(verify_mod, "_COR5_TABLE", TermTable(
        verify_mod._COR5_TABLE.rows | {("delta", "f1"): regions_mod._terms("I(W2;U1|Q)")}))
    rep2 = tmp_path / "r2.json"
    assert main(["verify", "corollary5", "--samples", "4", "--seed", "3",
                 "--out", str(rep2)]) == 1
    data2 = json.loads(rep2.read_text())
    assert data2["passed"] is False
    assert data2["failures"][0]["factors"]


@pytest.mark.parametrize("verb", ["eval", "project", "compare"])
def test_negative_index_is_a_usage_error(verb, hk_scenario, capsys):
    argv = [verb, hk_scenario, "--family", "hod", "--index", "-1"]
    if verb == "compare":
        argv += ["--family-b", "dmt"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if "error:" in line] == [
        f"rrkit {verb}: error: argument --index: sample index must be in "
        "[0, 2**128), got -1"]
    assert "Traceback" not in err


def test_verify_unknown_check_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "no-such-check"])
    assert exc.value.code == 2


def test_verify_fault_injection_detected(tmp_path, monkeypatch):
    # tighten one printed-row bound: the projection equivalence must break
    import rrkit.regions as regions_mod
    real = regions_mod.build_system

    def skewed(constants, description):
        sys = real(constants, description)
        if description == "thm6-ratepair":
            rows = list(sys.rows)
            first = rows[0]
            rows[0] = type(first)(first.coeffs, first.bound - 0.01, first.label)
            return sys.with_rows(rows)
        return sys

    monkeypatch.setattr(regions_mod, "build_system", skewed)
    rep = tmp_path / "inj.json"
    code = main(["verify", "thm6", "--samples", "2", "--seed", "1",
                 "--out", str(rep)])
    data = json.loads(rep.read_text())
    monkeypatch.undo()
    assert code == 1
    assert data["passed"] is False
    assert data["failures"][0]["witness"] is not None


@pytest.mark.parametrize("verb", ["eval", "project", "union"])
def test_seed_flag_overrides_the_scenario_seed(verb, tmp_path):
    outs = []
    for run, seed, flag in (("flag", 11, ["--seed", "5"]), ("file", 5, []), ("own", 11, [])):
        (tmp_path / run).mkdir()
        scen = write_scenario(tmp_path / run / "s.json", count=2, seed=seed)
        out = tmp_path / run / "out.json"
        assert main([verb, scen, "--family", "hod", "--out", str(out), *flag]) == 0
        outs.append(out.read_text())
    assert outs[0] == outs[1] != outs[2]


def test_union_single_sample_equals_polytope(hk_scenario, tmp_path):
    u1 = tmp_path / "u1.json"
    p1 = tmp_path / "p1.json"
    assert main(["union", hk_scenario, "--family", "hod", "--samples", "1",
                 "--out", str(u1)]) == 0
    assert main(["project", hk_scenario, "--family", "hod", "--index", "0",
                 "--out", str(p1)]) == 0
    hull = json.loads(u1.read_text())["vertices"]
    verts = json.loads(p1.read_text())["vertices"]
    assert sorted(map(tuple, hull)) == sorted(map(tuple, verts))


def _inside_hull(hull, pt, tol=1e-9):
    n = len(hull)
    if n == 0:
        return False
    if n == 1:
        return abs(hull[0][0] - pt[0]) <= tol and abs(hull[0][1] - pt[1]) <= tol
    for i in range(n):
        ax, ay = hull[i]
        bx, by = hull[(i + 1) % n]
        cross = (bx - ax) * (pt[1] - ay) - (by - ay) * (pt[0] - ax)
        if n > 2 and cross < -tol:
            return False
    return True


def test_union_monotone_in_sample_count(hk_scenario, tmp_path):
    small, big = tmp_path / "s.json", tmp_path / "b.json"
    assert main(["union", hk_scenario, "--family", "hod", "--samples", "5",
                 "--out", str(small)]) == 0
    assert main(["union", hk_scenario, "--family", "hod", "--samples", "15",
                 "--out", str(big)]) == 0
    hull_small = json.loads(small.read_text())["vertices"]
    hull_big = json.loads(big.read_text())["vertices"]
    for pt in hull_small:
        assert _inside_hull(hull_big, pt)


def test_union_hull_contains_every_sample_vertex(hk_scenario, tmp_path):
    out = tmp_path / "u.json"
    assert main(["union", hk_scenario, "--family", "hod", "--samples", "8",
                 "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    for sample in data["per_sample"]:
        for pt in sample["vertices"]:
            assert _inside_hull(data["vertices"], pt)


def test_union_general_hull_contains_baseline_hull(dmt_scenario, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["union", dmt_scenario, "--family", "hod", "--samples", "10",
                 "--out", str(a)]) == 0
    assert main(["union", dmt_scenario, "--family", "dmt", "--samples", "10",
                 "--out", str(b)]) == 0
    hull_hod = json.loads(a.read_text())["vertices"]
    hull_dmt = json.loads(b.read_text())["vertices"]
    for pt in hull_dmt:
        assert _inside_hull(hull_hod, pt)


def test_plot_deterministic_and_roundtrip(hk_scenario, tmp_path):
    region = tmp_path / "r.json"
    assert main(["project", hk_scenario, "--family", "hod",
                 "--out", str(region)]) == 0
    svg1, svg2 = tmp_path / "a.svg", tmp_path / "b.svg"
    assert main(["plot", str(region), "--out", str(svg1)]) == 0
    assert main(["plot", str(region), "--out", str(svg2)]) == 0
    assert svg1.read_bytes() == svg2.read_bytes()
    assert b"<svg" in svg1.read_bytes()
    # round trip: re-emitting the ingested region preserves the vertex list
    first = json.loads(region.read_text())
    region2 = tmp_path / "r2.json"
    region2.write_text(json.dumps(first))
    assert main(["plot", str(region2), "--out", str(svg2)]) == 0
    assert svg1.read_bytes() == svg2.read_bytes()


@pytest.mark.parametrize("body, message", [
    ("[1, 2]", "top level must be a JSON object"),
    ('{"vertices": [[1]]}', "vertices must be [x, y] pairs of finite numbers"),
    ('{"vertices": [["a", 1]]}', "vertices must be [x, y] pairs of finite numbers"),
    ('{"vertices": [[NaN, 1], [0, 0]]}', "vertices must be [x, y] pairs of finite numbers"),
    ('{"name": "no vertices"}', "no 'vertices' key"),
])
def test_plot_malformed_region_is_a_usage_error(body, message, tmp_path, capsys):
    region = tmp_path / "r.json"
    region.write_text(body)
    assert main(["plot", str(region)]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [f"error: {region}: {message}"]


def test_plot_escapes_legend_names(tmp_path):
    from xml.dom import minidom
    region = tmp_path / "r.json"
    region.write_text(json.dumps({"name": "R&D <hk3>", "vertices": [[0, 0], [1, 0], [0, 1]]}))
    svg = tmp_path / "r.svg"
    assert main(["plot", str(region), "--out", str(svg)]) == 0
    texts = minidom.parse(str(svg)).getElementsByTagName("text")
    assert texts[-1].firstChild.data == "R&D <hk3>"


def test_plot_requires_regions(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["plot"])
    assert exc.value.code == 2


def test_rrk_threads_parallel_verify(tmp_path, monkeypatch):
    rep_seq = tmp_path / "seq.json"
    assert main(["verify", "binning", "--samples", "4", "--seed", "2",
                 "--out", str(rep_seq)]) == 0
    monkeypatch.setenv("RRK_THREADS", "2")
    rep_par = tmp_path / "par.json"
    assert main(["verify", "binning", "--samples", "4", "--seed", "2",
                 "--out", str(rep_par)]) == 0
    assert rep_seq.read_text() == rep_par.read_text()


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_verify_rejects_vacuous_sample_count(samples, tmp_path, capsys):
    out = tmp_path / "report.json"
    with pytest.raises(SystemExit) as exc:
        main(["verify", "thm4", "--samples", samples, "--out", str(out)])
    assert exc.value.code == 2
    assert "at least 1 sample" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_union_rejects_vacuous_sample_count(samples, hk_scenario, tmp_path, capsys):
    out = tmp_path / "union.json"
    with pytest.raises(SystemExit) as exc:
        main(["union", hk_scenario, "--family", "hod", "--samples", samples,
              "--out", str(out)])
    assert exc.value.code == 2
    assert "at least 1 sample" in capsys.readouterr().err
    assert not out.exists()


def test_union_rejects_empty_scenario_count(tmp_path, capsys):
    scenario = write_scenario(tmp_path / "none.json", count=0)
    out = tmp_path / "union.json"
    assert main(["union", scenario, "--family", "hod", "--out", str(out)]) == 2
    assert "at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_union_rejects_oversized_alphabets(tmp_path, capsys):
    scenario = write_scenario(tmp_path / "huge.json", form="hod9",
                              extra={"alphabets": {"Q": 64, "W1": 64, "U1": 64}})
    out = tmp_path / "union.json"
    assert main(["union", scenario, "--family", "hod", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "invalid model" in err and "16777216 cells" in err and "limit" in err
    assert not out.exists()


@pytest.mark.parametrize("env, cpus, expected", [
    (None, 8, 1), ("1", 8, 1), ("4", 8, 4), ("0", 8, 1), ("-3", 8, 1),
    ("many", 8, 1), ("1000000", 8, 8), ("1000000", 2, 2), ("3", None, 1)])
def test_threads_clamped_to_cpu_count(env, cpus, expected, monkeypatch):
    from rrkit import cli
    if env is None:
        monkeypatch.delenv("RRK_THREADS", raising=False)
    else:
        monkeypatch.setenv("RRK_THREADS", env)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    assert cli._threads() == expected


@pytest.mark.parametrize("extra", [
    {"alphabets": {"Q": -2}},
    {"alphabets": {"Q": 0}},
    {"channel": {"y1": 0, "kernel": []}},
])
def test_scenario_sizes_below_one_are_usage_errors(extra, tmp_path, capsys):
    scen = tmp_path / "small.json"
    scen.write_text(json.dumps({"form": "hod9", **extra}))
    assert main(["project", str(scen), "--family", "hod"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "at least 1" in err and "Traceback" not in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("value", ["-1", "nan", "inf", "-inf"])
@pytest.mark.parametrize("flag", ["--tol-polytope", "--tol-identity"])
def test_tolerance_flags_must_be_finite_and_nonnegative(flag, value, hk_scenario, capsys):
    verb = (["project", hk_scenario, "--family", "hod"] if flag == "--tol-polytope"
            else ["verify", "corollary5"])
    with pytest.raises(SystemExit) as exc:
        main([*verb, f"{flag}={value}"])
    assert exc.value.code == 2
    assert "finite and >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("tol", [-1, -1e-300, float("nan"), float("inf")])
@pytest.mark.parametrize("key", ["polytope", "identity"])
def test_scenario_tolerances_must_be_finite_and_nonnegative(key, tol, tmp_path, capsys):
    scen = write_scenario(tmp_path / "tol.json", extra={"tol": {key: tol}})
    assert main(["project", scen, "--family", "hod"]) == 2
    err = capsys.readouterr().err
    if key == "identity":  # no scenario key: refused before its value is read
        assert err.splitlines() == [f"error: {scen}: unknown keys ['identity'] in 'tol'"]
    else:
        assert err.startswith("error: ") and "finite and >= 0" in err


def test_zero_tolerance_stays_legal(hk_scenario, tmp_path):
    out = tmp_path / "zero.json"
    assert main(["project", hk_scenario, "--family", "hod", "--tol-polytope", "0",
                 "--out", str(out)]) == 0
    scen = write_scenario(tmp_path / "tol0.json", extra={"tol": {"polytope": 0}})
    assert main(["project", scen, "--family", "hod", "--out", str(out)]) == 0


# the verbs that read each tolerance flag; every other verb refuses it
_TOL_READERS = {"--tol-polytope": {"project", "compare", "union", "verify"},
                "--tol-identity": {"verify"}}
_VERB_ARGS = {"eval": ["s.json", "--family", "hod"], "project": ["s.json", "--family", "hod"],
              "compare": ["s.json", "--family", "hod"], "union": ["s.json", "--family", "hod"],
              "verify": ["thm4"], "plot": ["r.json"]}


@pytest.mark.parametrize("verb", sorted(_VERB_ARGS))
@pytest.mark.parametrize("flag", sorted(_TOL_READERS))
def test_tolerance_flag_accepted_only_by_the_verbs_that_read_it(flag, verb, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:  # no verb takes it before the verb
        build_parser().parse_args([flag, "1e-10", verb, *_VERB_ARGS[verb]])
    assert exc.value.code == 2
    argv = [verb, *_VERB_ARGS[verb], flag, "1e-10"]
    if verb not in _TOL_READERS[flag]:
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 1e-10" in capsys.readouterr().err
        return
    assert vars(build_parser().parse_args(argv))[flag[2:].replace("-", "_")] == 1e-10
    if verb != "verify":
        return
    # verify takes the flag only for a check whose report records that tolerance
    key = flag.removeprefix("--tol-")
    for check, (_, _, recorded) in CHECKS.items():
        capsys.readouterr()
        out = tmp_path / f"{check}.json"
        code = main(["verify", check, "--samples", "1", flag, "1e-10", "--out", str(out)])
        if key in recorded:
            assert code == 0, check
            assert json.loads(out.read_text())["tolerances"][key] == 1e-10
        else:
            assert code == 2 and not out.exists(), check
            assert capsys.readouterr().err.splitlines() == [
                f"error: check {check} does not read {flag}"]


def test_verify_records_the_flag_and_the_default(tmp_path, capsys):
    out = tmp_path / "c5.json"
    assert main(["verify", "corollary5", "--samples", "2", "--tol-identity", "1e-10",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["tolerances"] == {"identity": 1e-10, "polytope": 1e-9}


@pytest.mark.parametrize("argv", [
    lambda d, s: ["eval", d, "--family", "hod"],
    lambda d, s: ["eval", s, "--family", "hod", "--out", d],
    lambda d, s: ["plot", d],
], ids=["eval-scenario", "eval-out", "plot-region"])
def test_directory_path_is_a_usage_error(argv, hk_scenario, tmp_path, capsys):
    code = main(argv(str(tmp_path), hk_scenario))
    err = capsys.readouterr().err.splitlines()
    assert code == 2 and len(err) == 1
    assert err[0].startswith("error: ") and str(tmp_path) in err[0]



_DEEP = 100_000  # far past the parser's recursion limit


@pytest.mark.parametrize("verb", ["eval", "project", "plot"])
@pytest.mark.parametrize("body, message", [
    (b'{"form": "hk3\xff", "vertices": [[0, 0]]}', "not UTF-8 text"),
    (b'{"form": "hod9", "factors": {"p(Q)": ' + b"[" * _DEEP + b"]" * _DEEP + b"}}",
     "JSON nested too deeply to parse"),
    (b'{"vertices": ' + b"[" * _DEEP + b"]" * _DEEP + b"}", "JSON nested too deeply to parse"),
], ids=["not-utf8", "deep-factors", "deep-vertices"])
def test_unreadable_json_is_a_usage_error(verb, body, message, tmp_path, capsys):
    path = tmp_path / "in.json"
    path.write_bytes(body)
    argv = ["plot", str(path)] if verb == "plot" else [verb, str(path), "--family", "hod"]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {path}: {message}")

# JSON values of every kind but an integer, so no draw asks for a large alphabet
_MISTYPED = st.one_of(
    st.none(), st.booleans(), st.floats(), st.text(max_size=3),
    st.lists(st.one_of(st.none(), st.floats(), st.text(max_size=2)), max_size=3),
    st.dictionaries(st.text(max_size=2), st.one_of(st.none(), st.integers(0, 3)), max_size=2))


@st.composite
def _scenario_bodies(draw):
    """(scenario JSON, family): each key absent, valid or (one time in four)
    mistyped; the form is often the family's own guard form."""
    family = draw(st.sampled_from(sorted(_FAMILIES)))
    forms = st.sampled_from([_FAMILIES[family].form, *sorted(FORMS)])
    blocks = {
        "alphabets": st.dictionaries(st.sampled_from(["Q", "W1", "X2", "U1b", "Z"]),
                                     st.one_of(st.integers(-1, 3), _MISTYPED), max_size=2),
        "factors": st.dictionaries(st.sampled_from(["W1|Q", "p(Q)", "Y1,Y2|X1,X2", "Z"]),
                                   st.one_of(st.lists(st.floats(0, 1), max_size=4), _MISTYPED),
                                   max_size=2),
        "sampling": st.fixed_dictionaries({}, optional={
            "count": st.one_of(st.integers(), _MISTYPED),
            "seed": st.one_of(st.integers(), _MISTYPED)}),
        "tol": st.fixed_dictionaries({}, optional={
            "polytope": st.one_of(st.floats(), st.integers(), _MISTYPED)}),
    }
    body = {"form": draw(_MISTYPED if draw(st.integers(0, 3)) == 3 else forms)}
    for key, valid in blocks.items():
        if draw(st.booleans()):
            body[key] = draw(_MISTYPED if draw(st.integers(0, 3)) == 3 else valid)
    return body, family


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=_scenario_bodies())
@example(case=({"form": ["hk3"]}, "hod"))
@example(case=({"form": "hk3", "tol": {"polytope": 10**400}}, "hod"))
def test_scenario_files_exit_cleanly(case, tmp_path_factory):
    body, family = case
    path = tmp_path_factory.getbasetemp() / "property-scenario.json"
    path.write_text(json.dumps(body))
    for verb in ("eval", "project"):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([verb, str(path), "--family", family])  # raises on a crash
        assert code in (0, 2, 3), (verb, body)
        if code:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), (verb, body, lines)


def _verb_argv(verb, scenario):
    argv = [verb, scenario, "--family", "hod"]
    return argv + ["--family-b", "dmt"] if verb == "compare" else argv


@pytest.mark.parametrize("seed", [2**64, -1, -2**64])
@pytest.mark.parametrize("verb", ["eval", "project", "union", "compare", "verify"])
def test_seed_flag_outside_64_bits_is_a_usage_error(verb, seed, hk_scenario, capsys):
    argv = ["verify", "binning"] if verb == "verify" else _verb_argv(verb, hk_scenario)
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--seed", str(seed)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if "error:" in line] == [
        f"rrkit {verb}: error: argument --seed: seed must be in [0, 2**64), got {seed}"]
    assert "Traceback" not in err


@pytest.mark.parametrize("seed", [2**64, -1])
@pytest.mark.parametrize("verb", ["eval", "project", "union", "compare"])
def test_scenario_seed_outside_64_bits_is_a_usage_error(verb, seed, tmp_path, capsys):
    scen = write_scenario(tmp_path / "s.json", count=1, seed=seed)
    assert main(_verb_argv(verb, scen)) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {scen}: sampling seed must be in [0, 2**64), got {seed}"]


def test_largest_seed_is_accepted_and_differs_from_seed_zero(tmp_path):
    outs = []
    for seed in (2**64 - 1, 0):
        out = tmp_path / f"{seed}.json"
        assert main(["eval", write_scenario(tmp_path / "s.json", seed=seed), "--family", "hod",
                     "--out", str(out)]) == 0
        outs.append(out.read_text())
        assert main(["verify", "binning", "--samples", "1", "--seed", str(seed),
                     "--out", str(tmp_path / "v.json")]) == 0
        assert json.loads((tmp_path / "v.json").read_text())["seed"] == seed
    assert outs[0] != outs[1]


@pytest.mark.parametrize("verb", ["eval", "project", "union", "compare", "plot"])
@pytest.mark.parametrize("body, key", [
    ('{"form": "hk3", "form": "hod9", "vertices": [[0, 0]]}', "form"),
    ('{"vertices": [[0, 0]], "form": "hk3", "sampling": {"seed": 1, "seed": 2}}', "seed"),
], ids=["top-level", "nested"])
def test_repeated_json_key_is_a_usage_error(verb, body, key, tmp_path, capsys):
    path = tmp_path / "in.json"
    path.write_text(body)
    argv = ["plot", str(path)] if verb == "plot" else _verb_argv(verb, str(path))
    assert main(argv) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {path}: duplicate key {key!r}"]


@pytest.mark.parametrize("verb", ["eval", "project", "union", "compare"])
@pytest.mark.parametrize("first, second", [("W1|Q", "p(W1|Q)"), ("p(W1|Q)", "W1|Q")])
def test_factor_given_under_both_labels_is_a_usage_error(verb, first, second, tmp_path, capsys):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"form": "hk3", "factors": {first: [[1, 0]], second: [[0, 1]]}}))
    assert main(_verb_argv(verb, str(path))) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {path}: p(W1|Q) given twice, as factor {first!r} and factor {second!r}"]
