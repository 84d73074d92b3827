import json
import os

import numpy as np
import pytest

from rrkit.cli import main
from rrkit.polytope import lp_feasible, make_row, system
from rrkit.prob import FORMS, sample_distribution
from rrkit.regions import hod_constants

from conftest import binary_sizes


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
])
def test_eval_malformed_scenario_values_exit_2(extra, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"form": "hod9", **extra}))
    assert main(["eval", str(bad), "--family", "hod"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


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


def test_compare_baseline_inside_general(dmt_scenario, tmp_path, capsys):
    out = tmp_path / "cmp.json"
    assert main(["compare", dmt_scenario, "--family", "hod",
                 "--family-b", "dmt", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["a_contains_b"] is True
    if data["strict"] == "a > b":
        assert data["witness_strict"] is not None


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
    monkeypatch.delenv("RRK_THREADS", raising=False)
    monkeypatch.setitem(regions_mod.COROLLARY5_TABLE, "f1",
                        ("F1", regions_mod._terms("I(W2;U1|Q)")))
    rep2 = tmp_path / "r2.json"
    assert main(["verify", "corollary5", "--samples", "4", "--seed", "3",
                 "--out", str(rep2)]) == 1
    data2 = json.loads(rep2.read_text())
    assert data2["passed"] is False
    assert data2["failures"][0]["factors"]


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
    with pytest.raises(SystemExit) as exc:
        main([f"{flag}={value}", "project", hk_scenario, "--family", "hod"])
    assert exc.value.code == 2
    assert "finite and >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("tol", [-1, -1e-300, float("nan"), float("inf")])
@pytest.mark.parametrize("key", ["polytope", "identity"])
def test_scenario_tolerances_must_be_finite_and_nonnegative(key, tol, tmp_path, capsys):
    scen = write_scenario(tmp_path / "tol.json", extra={"tol": {key: tol}})
    assert main(["project", scen, "--family", "hod"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "finite and >= 0" in err


def test_zero_tolerance_stays_legal(hk_scenario, tmp_path):
    out = tmp_path / "zero.json"
    assert main(["--tol-polytope", "0", "project", hk_scenario, "--family", "hod",
                 "--out", str(out)]) == 0
    scen = write_scenario(tmp_path / "tol0.json", extra={"tol": {"polytope": 0}})
    assert main(["project", scen, "--family", "hod", "--out", str(out)]) == 0
