"""Command-line front end: exact-rational input, deterministic table output.

Rationals travel as ``"p/q"`` strings (or bare integers); floats are rejected
so results stay exact end to end.  Exit codes: 0 success, 1 failed
verification, 2 input error, 3 budget exceeded, 4 internal inconsistency.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from . import bounds as bounds_mod
from . import families, oracle, verify
from .errors import BudgetExceeded, CovminError, Inconsistent, InputError
from .lattice import Lattice
from .linalg import format_rat, parse_rat
from .polytope import Polytope, gauge, lattice_coordinates

EXIT_OK = 0
EXIT_FAILED_CHECK = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_INCONSISTENT = 4

FAMILY_NAMES = ("terminal", "weighted", "cube", "crosspolytope", "segment")


def _reject_floats(node, path="input"):
    if isinstance(node, float):
        raise InputError(
            f"{path} contains float {node!r}; write rationals as 'p/q' strings"
        )
    if isinstance(node, dict):
        for key, value in node.items():
            _reject_floats(value, f"{path}.{key}")
    elif isinstance(node, list):
        for pos, value in enumerate(node):
            _reject_floats(value, f"{path}[{pos}]")


def _parse_json(text: str, what: str):
    try:
        node = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"malformed JSON in {what} at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    _reject_floats(node, what)
    return node


def _rat_rows(node, what: str) -> list[list[Fraction]]:
    if not isinstance(node, list) or not all(isinstance(row, list) for row in node):
        raise InputError(f"{what} must be a list of rows of rationals")
    return [[parse_rat(x) for x in row] for row in node]


def _fmt_vec(v) -> str:
    return "(" + ", ".join(format_rat(x) for x in v) + ")"


@dataclass(frozen=True)
class ProblemSpec:
    """One request: body, lattice, indices, tolerance."""

    body: dict
    lattice: list | None = None
    index: tuple[int, int] | None = None
    tolerance: str = "1/10000"
    flags: dict = field(default_factory=dict)


def _body_from_spec(spec: dict) -> Polytope:
    if "vertices" in spec:
        vertices = spec["vertices"]
        if not isinstance(vertices, list) or not vertices:
            raise InputError("body.vertices must be a nonempty list of points")
        return Polytope(_rat_rows(vertices, "body.vertices"))
    if "family" in spec:
        return _family_body(spec["family"], spec.get("params") or {})
    raise InputError("body needs either 'vertices' or 'family'")


def _family_body(name: str, params: dict) -> Polytope:
    if not isinstance(params, dict):
        raise InputError("body.params must be an object")

    def param(key):
        if key not in params:
            raise InputError(f"family {name!r} needs parameter {key!r}")
        return params[key]

    def int_param(key) -> int:
        value = parse_rat(param(key))
        if value.denominator != 1:
            raise InputError(f"family {name!r} parameter {key!r} must be an integer")
        return int(value)

    if name == "terminal":
        return families.terminal_simplex(int_param("d"))
    if name == "weighted":
        omega = param("omega")
        if not isinstance(omega, list):
            raise InputError("family 'weighted' parameter 'omega' must be a list")
        return families.weighted_simplex(families.weights([parse_rat(x) for x in omega]))
    if name == "cube":
        return families.cube(int_param("d"), parse_rat(params.get("r", 1)))
    if name == "crosspolytope":
        return families.crosspolytope(int_param("d"))
    if name == "segment":
        return families.segment(parse_rat(param("a")), parse_rat(param("b")))
    raise InputError(f"unknown family {name!r}; choose from {', '.join(FAMILY_NAMES)}")


def _spec_from_args(args) -> ProblemSpec:
    if getattr(args, "body", None):
        body = _parse_json(args.body, "--body")
        if not isinstance(body, dict) or ("vertices" not in body and "family" not in body):
            raise InputError("--body needs 'vertices' or 'family'")
    elif getattr(args, "family", None):
        params: dict = {}
        if args.family == "weighted":
            if not args.omega:
                raise InputError("--family weighted needs --omega")
            params["omega"] = [s.strip() for s in args.omega.split(",")]
        elif args.family == "segment":
            if args.a is None or args.b is None:
                raise InputError("--family segment needs --a and --b")
            params["a"], params["b"] = args.a, args.b
        else:
            if args.d is None:
                raise InputError(f"--family {args.family} needs --d")
            params["d"] = args.d
            if args.family == "cube" and args.r is not None:
                params["r"] = args.r
        body = {"family": args.family, "params": params}
    else:
        raise InputError("provide --body or --family")
    lattice = None
    raw = getattr(args, "lattice", None)
    if raw:
        node = _parse_json(raw, "--lattice")
        if isinstance(node, dict) and "basis" not in node:
            raise InputError("--lattice needs a 'basis' key")
        lattice = node["basis"] if isinstance(node, dict) else node
    index = _parse_index_range(args.i) if getattr(args, "i", None) else None
    return ProblemSpec(
        body=body,
        lattice=lattice,
        index=index,
        tolerance=getattr(args, "tol", None) or "1/10000",
        flags={"center": bool(getattr(args, "center", False))},
    )


def _parse_index_range(text: str) -> tuple[int, int]:
    try:
        values = [int(part) for part in text.strip().split("..", 1)]
    except ValueError:
        raise InputError(f"expected an integer N or a range N..M, got {text!r}") from None
    return values[0], values[-1]


def _materialize(spec: ProblemSpec) -> tuple[Polytope, Lattice | None]:
    body = _body_from_spec(spec.body)
    lattice = None
    if spec.lattice is not None:
        lattice = Lattice(_rat_rows(spec.lattice, "lattice basis"))
        if lattice.dim != body.ambient_dim:
            raise InputError(f"lattice has dimension {lattice.dim}, body {body.ambient_dim}")
    if spec.flags.get("center"):
        from .polytope import center_translate

        body, _ = center_translate(body)
    return body, lattice


def _tol(spec: ProblemSpec) -> Fraction:
    value = parse_rat(spec.tolerance)
    if value <= 0:
        raise InputError("tolerance must be positive")
    return value


def _budget_kwargs() -> dict:
    raw = os.environ.get("COVMIN_BUDGET")
    if not raw:
        return {}
    try:
        return {"cell_cap": int(raw)}
    except ValueError:
        raise InputError(f"COVMIN_BUDGET must be an integer, got {raw!r}") from None


# -- subcommand handlers -------------------------------------------------------


def _cmd_gauge(args, out) -> int:
    spec = _spec_from_args(args)
    body, _ = _materialize(spec)
    point = [parse_rat(x) for x in args.point.split(",")]
    if len(point) != body.ambient_dim:
        raise InputError(f"point has {len(point)} coordinates, body {body.ambient_dim}")
    print(f"gauge = {format_rat(gauge(body, point))}", file=out)
    return EXIT_OK


def _cmd_width(args, out) -> int:
    spec = _spec_from_args(args)
    body, lattice = _materialize(spec)
    budget = _budget_kwargs()
    kwargs = {"enum_cap": budget["cell_cap"]} if budget else {}
    value, witness = oracle.lattice_width(body, lattice, **kwargs)
    print(f"width = {format_rat(value)}", file=out)
    print(f"witness = {_fmt_vec(witness)}", file=out)
    return EXIT_OK


def _cmd_covering_radius(args, out) -> int:
    spec = _spec_from_args(args)
    body, lattice = _materialize(spec)
    cert = oracle.covering_radius(body, lattice, _tol(spec), **_budget_kwargs())
    print(f"covering radius in [{cert.interval.lo}, {cert.interval.hi}]", file=out)
    print(f"tolerance = {cert.tolerance}", file=out)
    print(f"cells explored = {cert.cells_explored}", file=out)
    print(f"deep point = {_fmt_vec(cert.deep_point)}", file=out)
    print(f"translation = {_fmt_vec(cert.translation)}", file=out)
    return EXIT_OK


def _cmd_minima(args, out) -> int:
    spec = _spec_from_args(args)
    body, lattice = _materialize(spec)
    lo_i, hi_i = spec.index or (1, body.ambient_dim)
    tol = _tol(spec)
    extra = []
    for raw in args.projection or ():
        matrix = _rat_rows(_parse_json(raw, "--projection"), "--projection")
        if any(len(row) != body.ambient_dim for row in matrix):
            raise InputError(f"--projection rows need {body.ambient_dim} entries")
        extra.append(matrix)
    rows = [("i", "lower", "upper", "status", "lower witness", "upper witness")]
    for i in range(lo_i, hi_i + 1):
        extras_for_i = tuple(m for m in extra if len(m) == i)
        s = oracle.minima_sandwich(body, lattice, i, tol, extra_projections=extras_for_i)
        status = "exact" if s.is_exact else "certified"
        rows.append((str(i), format_rat(s.lower), format_rat(s.upper), status,
                     str(s.lb_witness), s.ub_witness))
    _print_table(rows, out)
    return EXIT_OK


def _cmd_bounds(args, out) -> int:
    spec = _spec_from_args(args)
    body, lattice = _materialize(spec)
    lo_i, hi_i = spec.index or (1, body.ambient_dim)
    tol = _tol(spec)
    Kt = lattice_coordinates(body, lattice)
    pieces = oracle._PieceEvaluator(tol)
    rows = [("i", "method", "value", "witness")]
    for i in range(lo_i, hi_i + 1):
        for report in oracle.upper_bound_reports(Kt, i, pieces):
            rows.append((str(i), report.method, str(report.entry), str(report.witness)))
    _print_table(rows, out)
    return EXIT_OK


def _cmd_family(args, out) -> int:
    spec = _spec_from_args(args)
    body, _ = _materialize(spec)
    print(f"vertices ({len(body.vertices)}):", file=out)
    for v in body.vertices:
        print(f"  {_fmt_vec(v)}", file=out)
    # the minima are translation invariant: recognize the body before --center
    # moves it out of standard position
    table = families.recognize(_body_from_spec(spec.body))
    if table is not None:
        rows = [("i", "value", "provenance")]
        for i, entry in enumerate(table):
            tag = " (conjectured)" if entry.conjectured else ""
            rows.append((str(i), str(entry), entry.provenance + tag))
        _print_table(rows, out)
    return EXIT_OK


def _cmd_table(args, out) -> int:
    d_lo, d_hi = _parse_index_range(args.d_range)
    i_lo, i_hi = _parse_index_range(args.i)
    rows = bounds_mod.bound_table(range(d_lo, d_hi + 1), range(i_lo, i_hi + 1))
    if not rows:
        raise InputError(f"no index pair with 2 <= i <= d for d in {args.d_range}, i in {args.i}")
    header = ("d", "i", "projection", "intersection", "chain", "conjectured")
    if args.csv:
        print(",".join(header), file=out)
        for row in rows:
            print(",".join(str(x) for x in row), file=out)
    else:
        _print_table([header] + [tuple(str(x) for x in row) for row in rows], out)
    if args.plot_data:
        with open(args.plot_data, "w", encoding="utf-8") as handle:
            for d, i, proj, inter, chain, conj in rows:
                for method, value in (
                    ("projection", proj), ("intersection", inter),
                    ("chain", chain), ("conjectured", conj),
                ):
                    handle.write(f"{d} {i} {method} {format_rat(value)}\n")
        print(f"plot data written to {args.plot_data}", file=out)
    return EXIT_OK


def _cmd_verify(args, out) -> int:
    tol = parse_rat(args.tol) if args.tol else verify.DEFAULT_TOL
    results = verify.run_suite(args.suite, tol)
    failed = 0
    for result in results:
        print(str(result), file=out)
        if not result.passed:
            failed += 1
    print(f"{len(results) - failed}/{len(results)} checks passed", file=out)
    return EXIT_OK if failed == 0 else EXIT_FAILED_CHECK


def _print_table(rows, out) -> None:
    widths = [max(len(row[col]) for row in rows) for col in range(len(rows[0]))]
    for row in rows:
        line = "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        print(line, file=out)


# -- parser ---------------------------------------------------------------------


def _add_body_options(sub):
    sub.add_argument("--body", help="polytope as JSON: {\"vertices\": [[\"p/q\", ...], ...]}")
    sub.add_argument("--family", choices=FAMILY_NAMES, help="named family")
    sub.add_argument("--d", type=int, help="family dimension")
    sub.add_argument("--omega", help="weights for --family weighted, e.g. 1/2,1,1")
    sub.add_argument("--r", help="cube radius (default 1)")
    sub.add_argument("--a", help="segment left endpoint")
    sub.add_argument("--b", help="segment right endpoint")
    sub.add_argument("--lattice", help="lattice basis as JSON: {\"basis\": [[...], ...]}")
    sub.add_argument("--tol", help="certification tolerance (default 1/10000)")
    sub.add_argument("--center", action="store_true",
                     help="translate by minus the vertex centroid first")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covmin",
        description="Exact covering minima of rational polytopes.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("gauge", help="evaluate the gauge of a point")
    _add_body_options(p)
    p.add_argument("--point", required=True, help="comma separated rationals")
    p.set_defaults(handler=_cmd_gauge)

    p = subs.add_parser("width", help="exact lattice width and witness")
    _add_body_options(p)
    p.set_defaults(handler=_cmd_width)

    p = subs.add_parser("covering-radius", help="certified covering radius")
    _add_body_options(p)
    p.set_defaults(handler=_cmd_covering_radius)

    p = subs.add_parser("minima", help="certified covering minima sandwich")
    _add_body_options(p)
    p.add_argument("--i", help="index or range, e.g. 2 or 1..3")
    p.add_argument("--projection", action="append",
                   help="extra rank-i projection as a JSON matrix of rational "
                        "rows; strengthens the lower bound (repeatable)")
    p.set_defaults(handler=_cmd_minima)

    p = subs.add_parser("bounds", help="upper bound reports per mechanism")
    _add_body_options(p)
    p.add_argument("--i", help="index or range")
    p.set_defaults(handler=_cmd_bounds)

    p = subs.add_parser("family", help="family vertices and closed-form table")
    _add_body_options(p)
    p.set_defaults(handler=_cmd_family)

    p = subs.add_parser("table", help="terminal simplex bound comparison table")
    p.add_argument("--d", dest="d_range", required=True, help="dimension range, e.g. 3..4")
    p.add_argument("--i", required=True, help="index range, e.g. 2..3")
    p.add_argument("--csv", action="store_true", help="emit CSV")
    p.add_argument("--plot-data", help="write (d, i, method, bound) rows to this file")
    p.set_defaults(handler=_cmd_table)

    p = subs.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite", choices=verify.SUITES)
    p.add_argument("--tol", help="certification tolerance (default 1/10000)")
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_INPUT
    try:
        return args.handler(args, out)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except Inconsistent as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except CovminError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
