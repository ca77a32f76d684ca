"""Command-line surface.

Every subcommand renders the same report values either as an aligned text
table (for humans) or as JSON with sorted keys (the machine contract; all
rationals are "p/q" strings, never floats).  Exit codes: 0 pass, 1
verification failure, 2 malformed input.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .blowup import MANUAL, analyze_blowup, model_germ
from .dimensions import (DimensionTable, InconsistencyError, check_decomposition,
                         correction_profile, degree_points, solve_correction,
                         WellDefinednessError)
from .models import (CD2Model, ValidationReport, blowup_vector, generate_model,
                     validate_model)
from .quotients import (QuotientType, blowup_charts, reid_tai_is_canonical,
                        reid_tai_is_terminal)

PASS, FAIL, BAD_INPUT = 0, 1, 2


def render_table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def line(cells):
        return "  ".join(cell.ljust(w) for cell, w in zip(cells, widths)).rstrip()
    out = [line(headers), line(["-" * w for w in widths])]
    out.extend(line(row) for row in rows)
    return "\n".join(out)


def emit(payload: dict, args, table: str) -> None:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(table)


def _parse_weights(text: str) -> tuple[Fraction, ...]:
    try:
        return tuple(Fraction(part.strip()) for part in text.split(","))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in weights {text!r}") from None


def _emit_checks(report: ValidationReport, args, **extra) -> None:
    rows = [[c.name, "pass" if c.passed else "FAIL", c.detail] for c in report.checks]
    emit({**report.to_json_dict(), **extra}, args,
         render_table(["check", "status", "detail"], rows))


def _load_model(path: str) -> CD2Model:
    with open(path, "r", encoding="utf-8") as handle:
        return CD2Model.from_json_dict(json.load(handle))


# -- subcommands ---------------------------------------------------------------


def cmd_ni(args) -> int:
    points = sorted(degree_points(args.r, args.i))
    if args.parity is not None:
        points = [p for p in points if p.parity == args.parity]
    payload = {"r": args.r, "i": args.i, "parity": args.parity,
               "points": [{"exponents": list(p.exponents), "parity": p.parity}
                          for p in points]}
    rows = [[*map(str, p.exponents), str(p.parity)] for p in points]
    emit(payload, args, render_table(["l1", "l2", "l3", "l4", "l5", "parity"], rows))
    return PASS


def _degree_bound(imax: int) -> int:
    if imax < 0:
        raise ValueError(f"--imax must be non-negative, got {imax}")
    return imax


def cmd_dims(args) -> int:
    imax = _degree_bound(args.imax)
    table = DimensionTable.compute(args.r, imax)
    rows = [[str(i), str(table.dimension(i, 0)), str(table.dimension(i, 1))]
            for i in range(imax + 1)]
    emit(table.to_json_dict(), args, render_table(["i", "dim j=0", "dim j=1"], rows))
    return PASS


def cmd_verify_dim(args) -> int:
    r = args.r
    imax = 6 * r if args.imax is None else _degree_bound(args.imax)
    checks = []

    results = [check_decomposition(r, i, j) for i in range(imax + 1) for j in (0, 1)]
    failures = results.count(False)
    checks.append({"name": "decomposition", "passed": failures == 0,
                   "detail": f"{len(results) - failures}/{len(results)} degree/parity pairs"})

    profile = None
    try:
        profile = correction_profile(r, max(imax, 2 * r))
        checks.append({"name": "well_defined", "passed": True,
                       "detail": f"{len(profile.delta)} residue classes mod {2 * r}"})
    except WellDefinednessError as exc:
        checks.append({"name": "well_defined", "passed": False, "detail": str(exc)})

    if profile is not None:
        try:
            solution = solve_correction(profile)
            checks.append({"name": "orbit_sums", "passed": True,
                           "detail": "both telescoping sums vanish"})
            checks.append({"name": "correction_solved", "passed": True,
                           "detail": f"B reconstructed on {len(solution)} residues, B(0)=B(1)=0"})
        except InconsistencyError as exc:
            checks.append({"name": "orbit_sums", "passed": False, "detail": str(exc)})

    passed = all(c["passed"] for c in checks)
    payload = {"r": r, "imax": imax, "checks": checks, "passed": passed}
    rows = [[c["name"], "pass" if c["passed"] else "FAIL", c["detail"]] for c in checks]
    emit(payload, args, render_table(["check", "status", "detail"], rows))
    return PASS if passed else FAIL


def cmd_terminal(args) -> int:
    qtype = QuotientType.parse(args.type)
    terminal = reid_tai_is_terminal(qtype)
    canonical = reid_tai_is_canonical(qtype)
    payload = {"type": str(qtype), "normalized": str(qtype.normalized()),
               "terminal": terminal, "canonical": canonical}
    verdict = "terminal" if terminal else ("canonical, not terminal" if canonical
                                           else "not canonical")
    emit(payload, args, f"{qtype}: {verdict}")
    return PASS if terminal else FAIL


def cmd_charts(args) -> int:
    ambient = QuotientType.parse(args.ambient)
    v = _parse_weights(args.weights)
    report = blowup_charts(ambient, v)
    payload = {
        "ambient": str(ambient),
        "weights": [str(x) for x in v],
        "charts": [{"chart": i + 1, "order": chart.order,
                    "factors": [{"order": f.order, "weights": list(f.weights)}
                                for f in chart.factors]}
                   for i, chart in enumerate(report.charts)],
    }
    rows = []
    for i, chart in enumerate(report.charts):
        desc = " x ".join(str(f.as_type()) for f in chart.factors) or "trivial"
        rows.append([str(i + 1), str(chart.order), desc])
    emit(payload, args, render_table(["chart", "order", "group"], rows))
    return PASS


def cmd_blowup(args) -> int:
    model = _load_model(args.model)
    validation = validate_model(model)
    if not validation.passed:
        names = ", ".join(c.name for c in validation.failures())
        print(f"blowup: model fails validation ({names}); no blow-up computed",
              file=sys.stderr)
        _emit_checks(validation, args, r=model.r)
        return FAIL
    report = analyze_blowup(model_germ(model), blowup_vector(model.r))
    payload = report.to_json_dict()
    payload["r"] = model.r
    rows = [["discrepancy", str(report.discrepancy)],
            ["E^3", str(report.e_cubed)],
            ["orders", ", ".join(str(x) for x in report.orders)]]
    for finding in report.chart_findings:
        label = finding.kind if not finding.quotient else f"{finding.kind} {finding.quotient}"
        rows.append([f"chart {finding.variable}", label])
    emit(payload, args, render_table(["quantity", "value"], rows))
    manual = [f.variable for f in report.chart_findings if f.kind == MANUAL]
    if manual:
        print(f"blowup: manual analysis needed for charts {', '.join(manual)}", file=sys.stderr)
        return FAIL
    return PASS


def cmd_validate(args) -> int:
    model = _load_model(args.model)
    report = validate_model(model, strict=args.strict_remark)
    _emit_checks(report, args)
    return PASS if report.passed else FAIL


def cmd_generate(args) -> int:
    model = generate_model(args.r, args.seed, args.extra)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(model.to_json_dict(), handle, sort_keys=True, indent=2)
        handle.write("\n")
    payload = {"written": args.out, "r": args.r, "seed": args.seed,
               "extra": args.extra, "p_terms": len(model.p.terms),
               "q_terms": len(model.q.terms)}
    emit(payload, args, f"wrote model r={args.r} seed={args.seed} to {args.out}")
    return PASS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="threefold",
        description="Exact verification toolkit for weighted blow-ups of "
                    "three-fold cyclic quotient germs.")
    parser.add_argument("--format", choices=("table", "json"), default="table",
                        help="output rendering (default: table)")
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_command(name, **kwargs):
        p = subparsers.add_parser(name, **kwargs)
        # accepted before or after the subcommand; SUPPRESS keeps the
        # root-level value when the flag is absent here
        p.add_argument("--format", choices=("table", "json"),
                       default=argparse.SUPPRESS, help=argparse.SUPPRESS)
        return p

    p = add_command("ni", help="lattice points of one weighted degree")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--parity", type=int, choices=(0, 1), default=None)
    p.set_defaults(handler=cmd_ni)

    p = add_command("dims", help="dimension table up to a degree bound")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--imax", type=int, required=True)
    p.set_defaults(handler=cmd_dims)

    p = add_command("verify-dim", help="decomposition, well-definedness and "
                                       "orbit-sum consistency suite")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--imax", type=int, default=None,
                   help="degree bound (default 6r)")
    p.set_defaults(handler=cmd_verify_dim)

    p = add_command("terminal", help="Reid-Tai terminality of a quotient type")
    p.add_argument("--type", required=True, metavar='"1/n(a,b,c)"')
    p.set_defaults(handler=cmd_terminal)

    p = add_command("charts", help="chart groups of a weighted blow-up")
    p.add_argument("--ambient", required=True, metavar='"1/n(a1,...)"')
    p.add_argument("--weights", required=True, metavar="w1,w2,...")
    p.set_defaults(handler=cmd_charts)

    p = add_command("blowup", help="blow-up report for a model file")
    p.add_argument("--model", required=True, metavar="FILE")
    p.set_defaults(handler=cmd_blowup)

    p = add_command("validate", help="validate a model file")
    p.add_argument("--model", required=True, metavar="FILE")
    p.add_argument("--strict-remark", action="store_true",
                   help="also require the congruence-forced monomials")
    p.set_defaults(handler=cmd_validate)

    p = add_command("generate", help="write a deterministic random model file")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--extra", type=int, default=4,
                   help="extra weight range for p beyond r (default 4)")
    p.add_argument("--out", required=True, metavar="FILE")
    p.set_defaults(handler=cmd_generate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
