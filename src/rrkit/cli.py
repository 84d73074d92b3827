"""Command-line front end: scenario files, campaigns, reports and plots.

Verbs:
  eval     evaluate one family's bound constants on a scenario
  project  rate-pair projection of the chosen region, pre- and post-reduction
  compare  mutual containment of two projected regions, with witnesses
  verify   run one machine check (see rrkit.verify) and write its report
  union    sampled union approximation of a region family over distributions
  plot     render region JSON files as an SVG

Each tolerance flag is taken only by the verbs that read it: --tol-polytope
by project, compare, union and verify, --tol-identity by verify alone, and
verify refuses one its check does not record.

Exit codes: 0 ok, 1 verification failure, 2 usage/parse error, 3 invalid
model, 4 incompatible comparison.  All outputs are deterministic for fixed
inputs, flags and seeds; RRK_THREADS caps worker processes for campaigns.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import regions
from .polytope import (TOL, InequalitySystem, UnboundedRegionError,
                       VariableMismatchError, contains, convex_hull,
                       remove_redundant, vertices2d)
from .prob import FORMS, JointDistribution, ModelError, compose, sample_factors
from .verify import CHECKS, run_check

EXIT_OK, EXIT_VERIFY, EXIT_USAGE, EXIT_MODEL, EXIT_COMPARE = 0, 1, 2, 3, 4


class ScenarioError(ValueError):
    """Usage error past the parser: a malformed scenario file (missing/unknown
    keys, bad shapes) or a flag the chosen check does not read."""


@dataclass
class Scenario:
    form: str
    sizes: dict[str, int]
    overrides: dict[str, np.ndarray] = field(default_factory=dict)
    count: int = 50
    seed: int = 0
    tol_polytope: float = TOL

    def draw(self, index: int) -> JointDistribution:
        spec = FORMS[self.form]
        factors = sample_factors(spec, self.sizes, self.seed, index, self.overrides)
        return compose(factors, spec, self.sizes)


_SCENARIO_KEYS = {"form", "alphabets", "channel", "factors", "sampling", "tol"}
# the keys of each fixed-key block (alphabets and factors follow the form)
_BLOCK_KEYS = {"channel": {"x1", "x2", "y1", "y2", "kernel"},
               "sampling": {"count", "seed"},
               "tol": {"polytope"}}


def _number(path: str, what: str, value, integer: bool = True):
    """value if it is a JSON integer (any JSON number if not ``integer``)."""
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        kind = "an integer" if integer else "a number"
        raise ScenarioError(f"{path}: {what} must be {kind}, got {value!r}")
    return value


def _size(path: str, what: str, value) -> int:
    """value if it is a JSON integer of at least 1."""
    if _number(path, what, value) < 1:
        raise ScenarioError(f"{path}: {what} must be at least 1, got {value}")
    return value


def _table(path: str, what: str, flat) -> np.ndarray:
    try:
        table = np.asarray(flat)
    except ValueError:  # ragged nesting
        raise ScenarioError(f"{path}: {what} is not a rectangular array") from None
    if table.dtype.kind not in "iuf":
        raise ScenarioError(f"{path}: {what} entries must be numbers")
    return table.astype(float)


def _read_json(path: str) -> dict:
    """The JSON object in ``path``; text that is not UTF-8, not JSON, nests too
    deeply for the parser, repeats a key in an object or is not an object at
    the top level is a usage error."""
    def unique(pairs):
        data = {}
        for key, value in pairs:
            if key in data:
                raise ScenarioError(f"{path}: duplicate key {key!r}")
            data[key] = value
        return data

    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh, object_pairs_hook=unique)
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: parse failure at line {exc.lineno}, "
                            f"column {exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise ScenarioError(f"{path}: JSON nested too deeply to parse") from None
    if not isinstance(data, dict):
        raise ScenarioError(f"{path}: top level must be a JSON object")
    return data


def load_scenario(path: str) -> Scenario:
    raw = _read_json(path)
    unknown = set(raw) - _SCENARIO_KEYS
    if unknown:
        raise ScenarioError(f"{path}: unknown keys {sorted(unknown)}")
    for key in ("alphabets", "channel", "factors", "sampling", "tol"):
        if key in raw and not isinstance(raw[key], dict):
            raise ScenarioError(f"{path}: {key!r} must be a JSON object")
    for block, keys in _BLOCK_KEYS.items():
        unknown = set(raw.get(block, {})) - keys
        if unknown:
            raise ScenarioError(f"{path}: unknown keys {sorted(unknown)} in {block!r}")
    form = raw.get("form")
    if not isinstance(form, str) or form not in FORMS:
        raise ScenarioError(f"{path}: form must be one of {sorted(FORMS)}, got {form!r}")
    spec = FORMS[form]
    sizes = {n: 2 for n in spec.variables}
    if "Q" in sizes:
        sizes["Q"] = 1
    alphabets = raw.get("alphabets", {})
    for name, size in alphabets.items():
        if name not in sizes:
            raise ScenarioError(f"{path}: alphabet for unknown variable {name!r}")
        sizes[name] = _size(path, f"alphabet size of {name}", size)
    labels = {f.label(): f for f in spec.factors}
    tables = {}  # factor label -> (what, table)
    for key, flat in raw.get("factors", {}).items():
        label = key if key.startswith("p(") else f"p({key})"
        if label not in labels:
            raise ScenarioError(f"{path}: factor {key!r} not in form {form}; "
                                f"expected one of {sorted(labels)}")
        if label in tables:
            raise ScenarioError(f"{path}: {label} given twice, as {tables[label][0]} "
                                f"and factor {key!r}")
        tables[label] = (f"factor {key!r}", _table(path, f"factor {key!r}", flat))
    # the channel block is shorthand for the X/Y alphabets and the kernel factor
    channel = raw.get("channel")
    if channel is not None:
        if "kernel" not in channel:
            raise ScenarioError(f"{path}: channel block needs a 'kernel' array")
        for key in sorted(set(channel) - {"kernel"}):
            size, name = _size(path, f"channel size {key}", channel[key]), key.upper()
            if alphabets.get(name, size) != size:
                raise ScenarioError(f"{path}: channel {key} = {size} conflicts with "
                                    f"alphabet {name} = {sizes[name]}")
            sizes[name] = size
        kernel = _table(path, "kernel", channel["kernel"])
        what, table = tables.setdefault("p(Y1,Y2|X1,X2)", ("kernel", kernel))
        if not np.array_equal(table.ravel(), kernel.ravel(), equal_nan=True):
            raise ScenarioError(f"{path}: channel kernel conflicts with {what}")
    overrides: dict[str, np.ndarray] = {}
    for label, (what, table) in tables.items():
        f = labels[label]
        shape = tuple(sizes[n] for n in f.given) + tuple(sizes[n] for n in f.targets)
        if table.size != int(np.prod(shape)):
            raise ScenarioError(
                f"{path}: {what} has {table.size} entries, expected {np.prod(shape)}")
        overrides[label] = table.reshape(shape)
    sampling = raw.get("sampling", {})
    count = _size(path, "sampling count", sampling.get("count", 50))
    tol = _number(path, "tol polytope", raw.get("tol", {}).get("polytope", TOL),
                  integer=False)
    if not 0 <= tol <= sys.float_info.max:  # also refuses ints beyond any float
        raise ScenarioError(f"{path}: tol polytope must be finite and >= 0, got {tol}")
    seed = _number(path, "sampling seed", sampling.get("seed", 0))
    if not 0 <= seed < 2**64:
        raise ScenarioError(f"{path}: sampling seed must be in [0, 2**64), got {seed}")
    return Scenario(form, sizes, overrides, count=count, seed=seed, tol_polytope=float(tol))


def reduced_ratepair(consts: regions.BoundConstants,
                     tol: float) -> tuple[InequalitySystem, InequalitySystem]:
    """(pre-reduction projection, reduced system) over (R1, R2)."""
    raw = regions.ratepair_projection(consts)
    return raw, remove_redundant(raw, tol)


def _rows_json(sys: InequalitySystem) -> list[dict]:
    return [{"label": r.label,
             "coeffs": [str(c) for c in r.coeffs],
             "bound": float(r.bound)} for r in sys.rows]


def _dump_json(obj, path: str | None):
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    return text


def _vertices_csv(vertices) -> str:
    lines = ["R1,R2"]
    lines += [f"{x:.12g},{y:.12g}" for x, y in vertices]
    return "\n".join(lines) + "\n"


# --- SVG rendering ------------------------------------------------------------

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_VIEW_W, _VIEW_H = 800, 600
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 80, 24, 24, 56


def render_svg(named_regions: list[tuple[str, list[tuple[float, float]]]]) -> str:
    """Deterministic SVG: one polygon per region, axes in bits, legend."""
    all_pts = [p for _, verts in named_regions for p in verts]
    max_x = max([x for x, _ in all_pts] + [1e-9]) * 1.05
    max_y = max([y for _, y in all_pts] + [1e-9]) * 1.05
    plot_w = _VIEW_W - _MARGIN_L - _MARGIN_R
    plot_h = _VIEW_H - _MARGIN_T - _MARGIN_B
    to_px = lambda x, y: (_MARGIN_L + x / max_x * plot_w,
                          _VIEW_H - _MARGIN_B - y / max_y * plot_h)
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_VIEW_W}" '
           f'height="{_VIEW_H}" viewBox="0 0 {_VIEW_W} {_VIEW_H}">',
           f'<rect width="{_VIEW_W}" height="{_VIEW_H}" fill="white"/>']
    ox, oy = to_px(0, 0)
    out.append(f'<line x1="{ox:.2f}" y1="{oy:.2f}" x2="{_VIEW_W - _MARGIN_R}" '
               f'y2="{oy:.2f}" stroke="black"/>')
    out.append(f'<line x1="{ox:.2f}" y1="{oy:.2f}" x2="{ox:.2f}" '
               f'y2="{_MARGIN_T}" stroke="black"/>')
    for i in range(6):
        fx = max_x * i / 5
        fy = max_y * i / 5
        px, _ = to_px(fx, 0)
        _, py = to_px(0, fy)
        out.append(f'<line x1="{px:.2f}" y1="{oy:.2f}" x2="{px:.2f}" '
                   f'y2="{oy + 5:.2f}" stroke="black"/>')
        out.append(f'<text x="{px:.2f}" y="{oy + 20:.2f}" font-size="12" '
                   f'text-anchor="middle">{fx:.3f}</text>')
        out.append(f'<line x1="{ox - 5:.2f}" y1="{py:.2f}" x2="{ox:.2f}" '
                   f'y2="{py:.2f}" stroke="black"/>')
        out.append(f'<text x="{ox - 8:.2f}" y="{py + 4:.2f}" font-size="12" '
                   f'text-anchor="end">{fy:.3f}</text>')
    out.append(f'<text x="{_MARGIN_L + plot_w / 2:.2f}" y="{_VIEW_H - 12}" '
               f'font-size="14" text-anchor="middle">R1 (bits)</text>')
    out.append(f'<text x="18" y="{_MARGIN_T + plot_h / 2:.2f}" font-size="14" '
               f'text-anchor="middle" transform="rotate(-90 18 '
               f'{_MARGIN_T + plot_h / 2:.2f})">R2 (bits)</text>')
    for i, (name, verts) in enumerate(named_regions):
        color = _PALETTE[i % len(_PALETTE)]
        if verts:
            pts = " ".join(f"{px:.3f},{py:.3f}" for px, py in (to_px(x, y) for x, y in verts))
            out.append(f'<polygon points="{pts}" fill="{color}" fill-opacity="0.25" '
                       f'stroke="{color}" stroke-width="2"/>')
        ly = _MARGIN_T + 18 + 18 * i
        out.append(f'<rect x="{_VIEW_W - _MARGIN_R - 150}" y="{ly - 10}" width="12" '
                   f'height="12" fill="{color}" fill-opacity="0.5"/>')
        label = str(name).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        out.append(f'<text x="{_VIEW_W - _MARGIN_R - 132}" y="{ly}" '
                   f'font-size="12">{label}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


# --- verbs --------------------------------------------------------------------

def _load(args, path: str | None = None) -> Scenario:
    """The scenario at ``path`` (default: the verb's), with --seed."""
    scenario = load_scenario(path or args.scenario)
    if args.seed is not None:
        scenario.seed = args.seed
    return scenario


def _tol_polytope(args, scenario: Scenario) -> float:
    """--tol-polytope if given, else the scenario's tol.polytope."""
    return scenario.tol_polytope if args.tol_polytope is None else args.tol_polytope


def cmd_eval(args) -> int:
    scenario = _load(args)
    d = scenario.draw(args.index)
    consts = regions.constants_for(d, args.family)
    eq = regions._FAMILIES[args.family].equations
    print(f"family={args.family} form={scenario.form} (bits)")
    for label, value in consts.values.items():
        print(f"  {label:<4} {eq[label]:<6} {value: .12f}")
    _dump_json({"family": args.family, "form": scenario.form,
                "constants": consts.values, "equations": eq}, args.out)
    return EXIT_OK


def cmd_project(args) -> int:
    scenario = _load(args)
    d = scenario.draw(args.index)
    consts = regions.constants_for(d, args.family)
    tol = _tol_polytope(args, scenario)
    raw, reduced = reduced_ratepair(consts, tol)
    poly = vertices2d(reduced, tol)
    name = os.path.splitext(os.path.basename(args.scenario))[0]
    out = {"name": f"{name}:{args.family}",
           "family": args.family,
           "pre_reduction": _rows_json(raw),
           "reduced": _rows_json(reduced),
           "kind": poly.kind,
           "vertices": [[x, y] for x, y in poly.vertices]}
    print(f"projection: {len(raw.rows)} rows pre-reduction, "
          f"{len(reduced.rows)} after; region kind: {poly.kind}")
    _dump_json(out, args.out)
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(_vertices_csv(poly.vertices))
    return EXIT_OK


def cmd_compare(args) -> int:
    scenario_a = _load(args)
    scenario_b = _load(args, args.scenario_b) if args.scenario_b else scenario_a
    family_b = args.family_b or args.family
    if scenario_b is scenario_a and family_b == args.family:
        raise ScenarioError("compare needs two scenarios or two families")
    tol = _tol_polytope(args, scenario_a)
    if args.tol_polytope is None and scenario_b.tol_polytope != tol:  # the flag settles both
        raise ScenarioError(
            f"{args.scenario} and {args.scenario_b} set different tol.polytope "
            f"({tol} and {scenario_b.tol_polytope}); pick one with --tol-polytope")
    da, db = scenario_a.draw(args.index), scenario_b.draw(args.index)
    _, sys_a = reduced_ratepair(regions.constants_for(da, args.family), tol)
    _, sys_b = reduced_ratepair(regions.constants_for(db, family_b), tol)
    a_has_b, wit_ab = contains(sys_a, sys_b, tol)
    b_has_a, wit_ba = contains(sys_b, sys_a, tol)
    out = {"a": args.family, "b": family_b,
           "a_contains_b": a_has_b, "b_contains_a": b_has_a,
           "witness_outside_a": wit_ab, "witness_outside_b": wit_ba}
    if a_has_b and not b_has_a:
        out["strict"] = "a > b"
        out["witness_strict"] = wit_ba  # in a, violates b
    elif b_has_a and not a_has_b:
        out["strict"] = "b > a"
        out["witness_strict"] = wit_ab
    elif a_has_b and b_has_a:
        out["strict"] = "equal"
    else:
        out["strict"] = "incomparable"
    print(f"{args.family} contains {family_b}: {a_has_b}; "
          f"{family_b} contains {args.family}: {b_has_a} ({out['strict']})")
    _dump_json(out, args.out)
    return EXIT_OK


def _threads() -> int:
    """Worker processes from RRK_THREADS: at least 1, at most the CPU count."""
    try:
        wanted = int(os.environ.get("RRK_THREADS", "1"))
    except ValueError:
        return 1
    return max(1, min(wanted, os.cpu_count() or 1))


def _sample_count(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"needs at least 1 sample, got {n}")
    return n


def _index(text: str) -> int:
    n = int(text)
    if not 0 <= n < 2**128:
        raise argparse.ArgumentTypeError(f"sample index must be in [0, 2**128), got {n}")
    return n


def _seed(text: str) -> int:
    n = int(text)
    if not 0 <= n < 2**64:
        raise argparse.ArgumentTypeError(f"seed must be in [0, 2**64), got {n}")
    return n


def _tolerance(text: str) -> float:
    tol = float(text)
    if not (math.isfinite(tol) and tol >= 0):
        raise argparse.ArgumentTypeError(f"tolerance must be finite and >= 0, got {text}")
    return tol


def cmd_verify(args) -> int:
    given = {"polytope": args.tol_polytope, "identity": args.tol_identity}
    unread = [f"--tol-{key}" for key, tol in given.items()
              if tol is not None and key not in CHECKS[args.check][2]]
    if unread:
        raise ScenarioError(f"check {args.check} does not read {', '.join(unread)}")
    kwargs = dict(samples=args.samples, seed=args.seed,
                  **{f"tol_{key}": tol for key, tol in given.items() if tol is not None})
    n = _threads()
    if n > 1:
        try:
            with ProcessPoolExecutor(max_workers=n) as pool:
                report = run_check(args.check, mapper=lambda f, it: list(pool.map(f, it)),
                                   **kwargs)
        except OSError:
            report = run_check(args.check, **kwargs)
    else:
        report = run_check(args.check, **kwargs)
    print(report.summary())
    for key, val in sorted(report.details.items()):
        if key == "infeasible_source":
            print(f"  {key}: {val['count']} samples diverge one-sidedly (witnessed)")
        elif key == "empty_projection":
            print(f"  {key}: {val} of {report.samples} samples have an empty projection")
        elif isinstance(val, dict) and val and all(isinstance(v, float) for v in val.values()):
            worst = max(val.values())
            print(f"  {key}: worst {worst:.3e}")
    out = args.out or f"verify-{args.check}.json"
    _dump_json(report.to_json_dict(), out)
    print(f"report written to {out}")
    return EXIT_OK if report.passed else EXIT_VERIFY


def cmd_union(args) -> int:
    scenario = _load(args)
    samples = args.samples if args.samples is not None else scenario.count
    tol = _tol_polytope(args, scenario)
    per_sample: list[dict] = []
    points: list[tuple[float, float]] = []
    for i in range(samples):
        d = scenario.draw(i)
        consts = regions.constants_for(d, args.family)
        _, reduced = reduced_ratepair(consts, tol)
        poly = vertices2d(reduced, tol)
        per_sample.append({"index": i, "kind": poly.kind,
                           "vertices": [[x, y] for x, y in poly.vertices]})
        points.extend(poly.vertices)
    hull = convex_hull(points)
    name = f"union:{os.path.splitext(os.path.basename(args.scenario))[0]}:{args.family}"
    print(f"union of {samples} samples: hull has {len(hull)} vertices")
    _dump_json({"name": name, "family": args.family, "samples": samples,
                "seed": scenario.seed, "per_sample": per_sample,
                "vertices": [[x, y] for x, y in hull]}, args.out)
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(_vertices_csv(hull))
    if args.svg:
        with open(args.svg, "w") as fh:
            fh.write(render_svg([(name, hull)]))
    return EXIT_OK


def cmd_plot(args) -> int:
    named = []
    for path in args.regions:
        data = _read_json(path)
        if "vertices" not in data:
            raise ScenarioError(f"{path}: no 'vertices' key")
        name = data.get("name") or os.path.splitext(os.path.basename(path))[0]
        try:
            vertices = [(float(x), float(y)) for x, y in data["vertices"]]
            if not np.isfinite(vertices).all():
                raise ValueError
        except (TypeError, ValueError):
            raise ScenarioError(
                f"{path}: vertices must be [x, y] pairs of finite numbers") from None
        named.append((name, vertices))
    svg = render_svg(named)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(svg)
    else:
        sys.stdout.write(svg)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rrkit",
        description="Achievable rate regions: evaluate, project, compare, verify.")
    sub = parser.add_subparsers(dest="verb", required=True)
    # each tolerance flag, defined once, as a parent of the verbs that read it
    tol_polytope = argparse.ArgumentParser(add_help=False)
    tol_polytope.add_argument("--tol-polytope", type=_tolerance, default=None,
                              help="tolerance for polytope comparisons (default 1e-9)")
    tol_identity = argparse.ArgumentParser(add_help=False)
    tol_identity.add_argument("--tol-identity", type=_tolerance, default=None,
                              help="tolerance for identity checks (default 1e-12)")

    def add_scenario(p, index=True):
        p.add_argument("scenario", help="scenario JSON file")
        p.add_argument("--family", choices=list(regions._FAMILIES), required=True)
        if index:
            p.add_argument("--index", type=_index, default=0,
                           help="sample index within the scenario's stream")
        p.add_argument("--seed", type=_seed, default=None,
                       help="override the scenario's sampling seed")
        p.add_argument("--out", default=None, help="write JSON output here")

    p = sub.add_parser("eval", help="evaluate bound constants")
    add_scenario(p)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("project", parents=[tol_polytope], help="rate-pair projection of a region")
    add_scenario(p)
    p.add_argument("--csv", default=None, help="write vertex CSV here")
    p.set_defaults(fn=cmd_project)

    p = sub.add_parser("compare", parents=[tol_polytope],
                       help="containment of two projected regions")
    add_scenario(p)
    p.add_argument("scenario_b", nargs="?", default=None,
                   help="second scenario (defaults to the first)")
    p.add_argument("--family-b", choices=list(regions._FAMILIES), default=None)
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("verify", parents=[tol_polytope, tol_identity], help="run a machine check")
    p.add_argument("check", choices=sorted(CHECKS))
    p.add_argument("--samples", type=_sample_count, default=200)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("union", parents=[tol_polytope],
                       help="sampled union approximation over inputs")
    add_scenario(p, index=False)
    p.add_argument("--samples", type=_sample_count, default=None)
    p.add_argument("--csv", default=None)
    p.add_argument("--svg", default=None)
    p.set_defaults(fn=cmd_union)

    p = sub.add_parser("plot", help="render region JSON files as SVG")
    p.add_argument("regions", nargs="+", help="region JSON files")
    p.add_argument("--out", default=None, help="write SVG here (default stdout)")
    p.set_defaults(fn=cmd_plot)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ScenarioError, OSError) as exc:  # OSError: a file that cannot be opened
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ModelError, UnboundedRegionError) as exc:
        print(f"error: invalid model: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except VariableMismatchError as exc:
        print(f"error: incompatible comparison: {exc}", file=sys.stderr)
        return EXIT_COMPARE


if __name__ == "__main__":
    sys.exit(main())
