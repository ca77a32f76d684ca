"""Command-line surface.

Every subcommand renders its report as an aligned text table or as JSON
with sorted keys (the machine contract; rationals are "p/q" strings, never
floats), building only the rendering asked for.  _dumps writes all JSON,
model files included, byte-identical to json.dumps(..., sort_keys=True,
indent=2), and refuses a float or other non-JSON value with a TypeError.
A list of same-shape records, such as ni's points and dims' rows, renders
through one template per shape; any other list falls back node by node.
Exit codes: 0 pass, 1 verification failure, 2 malformed input, 3 internal
fault (an exact invariant broke, an ArithmeticError; one line, no traceback).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections.abc import Callable
from itertools import chain
from json.encoder import encode_basestring_ascii as _escape

from .blowup import MANUAL, _validated_blowup
from .dimensions import (DimensionTable, InconsistencyError, closed_form_correction,
                         degree_points, parity_counts, solve_correction,
                         WellDefinednessError)
from .models import (GENERATE_STEP_LIMIT, CD2Model, CheckResult, ValidationReport,
                     generate_model, validate_model)
from .polynomials import DIGIT_LIMIT, check_digits, parse_rational
from .quotients import (QUOTIENT_ORDER_LIMIT, QuotientType, blowup_charts,
                        reid_tai_is_canonical, reid_tai_is_terminal)

PASS, FAIL, BAD_INPUT, INTERNAL_FAULT = 0, 1, 2, 3

# ni lists at most this many lattice points; each listed point costs about
# 0.9 KiB of memory in the JSON rendering (ni --r 7 --i 835, 99962 points,
# peaks at about 101 MiB of RSS under CPython 3.11)
NI_POINT_LIMIT = 100_000

# dims and verify-dim count every degree up to at most this bound; their
# output grows with it, and dims --format json at the bound peaks at about
# 76 MiB of RSS under CPython 3.11
DEGREE_LIMIT = 50_000


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


_int = int.__repr__


def _render(prefix: str, value, out: list[str], newline: str) -> None:
    """Append prefix and the JSON text of value to out, indented from newline
    ("\n" and the current indentation).  The recursion goes through this
    module-level name, so no closure cycle keeps finished chunks alive."""
    kind = type(value)
    if kind is int:
        out.append(prefix + _int(value))
    elif kind is str:
        out.append(prefix + _escape(value))
    elif kind is dict:
        if not value:
            out.append(prefix + "{}")
            return
        inner = newline + "  "
        sep = prefix + "{" + inner
        for key in sorted(value):
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            _render(sep + _escape(key) + ": ", value[key], out, inner)
            sep = "," + inner
        out.append(newline + "}")
    elif kind is list:
        if not value:
            out.append(prefix + "[]")
            return
        inner = newline + "  "
        if type(value[0]) is dict:
            text = _records(value, inner)
            if text is not None:
                out.append(prefix + "[" + inner + text + newline + "]")
                return
        sep = prefix + "[" + inner
        for item in value:
            _render(sep, item, out, inner)
            sep = "," + inner
        out.append(newline + "]")
    elif kind is bool:
        out.append(prefix + ("true" if value else "false"))
    elif value is None:
        out.append(prefix + "null")
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _records(records: list, newline: str) -> str | None:
    """The JSON items of records, joined by "," and newline, or None.

    Every record must be a dict with the first record's str keys, and each
    value an int or a non-empty list of ints as long as the first record's;
    one %-template built from the first record's sorted keys then renders
    each record.  If any record deviates the answer is None, and _render
    lays out the whole list node by node, refusals included.  The types of
    all keys and values are checked in one pass each before any record is
    formatted."""
    first = records[0]
    if not first or any(type(key) is not str for key in first):
        return None
    inner = newline + "  "
    plan = []  # (key, 0) for an int value, (key, n) for a list of n ints
    parts = []
    for key in sorted(first):
        value = first[key]
        if type(value) is list:
            if not value:
                return None
            plan.append((key, len(value)))
            slot = "[" + inner + "  %d" + ("," + inner + "  %d") * (len(value) - 1) + inner + "]"
        else:
            plan.append((key, 0))
            slot = "%d"
        parts.append(_escape(key).replace("%", "%%") + ": " + slot)
    template = "{" + inner + ("," + inner).join(parts) + newline + "}"
    size = len(plan)
    rows = []
    try:
        for record in records:
            # as many keys as the first record, each of its keys found: the same keys
            if type(record) is not dict or len(record) != size:
                return None
            values = []
            for key, length in plan:
                value = record[key]
                if not length:
                    values.append(value)
                elif type(value) is list and len(value) == length:
                    values += value
                else:
                    return None
            rows.append(tuple(values))
    except KeyError:
        return None
    if (set(map(type, chain.from_iterable(records))) != {str}
            or set(map(type, chain.from_iterable(rows))) != {int}):
        return None
    return ("," + newline).join([template % row for row in rows])


def _dumps(value) -> str:
    """json.dumps(value, sort_keys=True, indent=2), byte for byte; under
    CPython 3.11 the json module indents only in its pure-Python encoder,
    which is slower than this direct pass.  A list of records of one shape
    (_records) fills one template per record; any other value, or a list
    with a record that deviates, renders node by node."""
    out: list[str] = []
    _render("", value, out, "\n")
    return "".join(out)


def emit(payload: dict, args, table: Callable[[], str]) -> None:
    """Print payload as JSON, or the text that table() renders."""
    if args.format == "json":
        print(_dumps(payload))
    else:
        print(table())


def _integer(text: str) -> int:
    """Type of the integer flags; argparse prints an ArgumentTypeError without the token."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()) or len(digits) > DIGIT_LIMIT:
        raise argparse.ArgumentTypeError(f"expected at most DIGIT_LIMIT = {DIGIT_LIMIT} "
                                         "ASCII digits with an optional leading minus")
    return int(text)


def _check_rows(report: ValidationReport) -> list[list[str]]:
    return [[c.name, "pass" if c.passed else "FAIL", c.detail] for c in report.checks]


def _emit_checks(report: ValidationReport, args, **extra) -> None:
    emit({**report.to_json_dict(), **extra}, args,
         lambda: render_table(["check", "status", "detail"], _check_rows(report)))


def _load_model(path: str) -> CD2Model:
    def json_int(text: str) -> int:
        # the message is built only for a numeral that may be refused
        if len(text) > DIGIT_LIMIT:
            check_digits(text, f"an integer in {path}")
        return int(text)

    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle, parse_int=json_int)
        except RecursionError:
            raise ValueError(f"{path} nests JSON too deeply to be read") from None
    return CD2Model.from_json_dict(data)


# -- subcommands ---------------------------------------------------------------


def cmd_ni(args) -> int:
    count = sum(parity_counts(args.r, args.i))
    if count > NI_POINT_LIMIT:
        raise ValueError(f"degree {args.i} has {count} lattice points at r={args.r}; "
                         f"ni lists at most NI_POINT_LIMIT = {NI_POINT_LIMIT}")
    points = [(p, sum(p[:3]) % 2) for p in sorted(degree_points(args.r, args.i))]
    if args.parity is not None:
        points = [(p, j) for p, j in points if j == args.parity]
    payload = {"r": args.r, "i": args.i, "parity": args.parity,
               "points": [{"exponents": list(p), "parity": j} for p, j in points]}
    emit(payload, args, lambda: render_table(["l1", "l2", "l3", "l4", "l5", "parity"],
                                             [[*map(str, p), str(j)] for p, j in points]))
    return PASS


def _degree_bound(imax: int) -> int:
    if imax < 0:
        raise ValueError(f"--imax must be non-negative, got {imax}")
    return imax


def _check_degree_limit(command: str, top: int) -> None:
    if top > DEGREE_LIMIT:
        raise ValueError(f"{command} would count degrees up to {top}; "
                         f"at most DEGREE_LIMIT = {DEGREE_LIMIT}")


def cmd_dims(args) -> int:
    imax = _degree_bound(args.imax)
    _check_degree_limit("dims", imax)
    table = DimensionTable.compute(args.r, imax)
    emit(table.to_json_dict(), args,
         lambda: render_table(["i", "dim j=0", "dim j=1"],
                              [[str(i), str(table.dimension(i, 0)), str(table.dimension(i, 1))]
                               for i in range(imax + 1)]))
    return PASS


def cmd_verify_dim(args) -> int:
    r = args.r
    imax = 6 * r if args.imax is None else _degree_bound(args.imax)
    top = max(imax, 2 * r)
    _check_degree_limit("verify-dim", top)

    # one table, counted once, serves the decomposition and the profile
    counts = DimensionTable.compute(r, top)
    results = [counts.decomposes(i, j) for i in range(imax + 1) for j in (0, 1)]
    failures = results.count(False)
    checks = [CheckResult("decomposition", failures == 0,
                          f"{len(results) - failures}/{len(results)} degree/parity pairs")]

    solution = None
    try:
        profile = counts.counted_profile()
        checks.append(CheckResult("well_defined", True,
                                  f"{len(profile.delta)} residue classes mod {2 * r}"))
        solution = solve_correction(profile)
        checks.append(CheckResult("orbit_sums", True, "both telescoping sums vanish"))
        checks.append(CheckResult("correction_solved", True,
                                  f"B reconstructed on {len(solution)} residues, B(0)=B(1)=0"))
    except WellDefinednessError as exc:
        checks.append(CheckResult("well_defined", False, str(exc)))
    except InconsistencyError as exc:
        checks.append(CheckResult("orbit_sums", False, str(exc)))
    report = ValidationReport(tuple(checks))

    # B in closed form, beside the B reconstructed from counts
    closed = closed_form_correction(r)
    agrees = solution == closed
    correction = {
        "agrees": agrees,
        "closed_form": [str(closed[k]) for k in range(2 * r)],
        "reconstructed": None if solution is None else [str(solution[k])
                                                        for k in range(2 * r)],
    }
    passed = report.passed and agrees
    payload = {**report.to_json_dict(), "r": r, "imax": imax, "correction": correction,
               "passed": passed}
    def table() -> str:
        rows = _check_rows(report)
        rows.append(["correction", "pass" if agrees else "FAIL",
                     f"reconstructed B {'equals' if agrees else 'differs from'} "
                     f"the closed form on {len(closed)} residues"])
        return render_table(["check", "status", "detail"], rows)

    emit(payload, args, table)
    return PASS if passed else FAIL


def cmd_terminal(args) -> int:
    qtype = QuotientType.parse(args.type)
    terminal = reid_tai_is_terminal(qtype)
    # terminal implies canonical, so the canonical verdict is asked only of
    # types that are not terminal
    canonical = terminal or reid_tai_is_canonical(qtype)
    payload = {"type": str(qtype), "normalized": str(qtype.normalized()),
               "terminal": terminal, "canonical": canonical}
    verdict = "terminal" if terminal else ("canonical, not terminal" if canonical
                                           else "not canonical")
    emit(payload, args, lambda: f"{qtype}: {verdict}")
    return PASS if terminal else FAIL


def cmd_charts(args) -> int:
    ambient = QuotientType.parse(args.ambient)
    v = tuple(parse_rational(part.strip(), "weight") for part in args.weights.split(","))
    report = blowup_charts(ambient, v)
    payload = {
        "ambient": str(ambient),
        "weights": [str(x) for x in v],
        "charts": [{"chart": i + 1, "order": chart.order,
                    "factors": [{"order": f.n, "weights": list(f.weights)}
                                for f in chart.factors]}
                   for i, chart in enumerate(report.charts)],
    }
    emit(payload, args,
         lambda: render_table(["chart", "order", "group"],
                              [[str(i + 1), str(chart.order),
                                " x ".join(map(str, chart.factors)) or "trivial"]
                               for i, chart in enumerate(report.charts)]))
    return PASS


def cmd_blowup(args) -> int:
    model = _load_model(args.model)
    validation, report = _validated_blowup(model)
    if report is None:
        names = ", ".join(c.name for c in validation.failures())
        print(f"blowup: model fails validation ({names}); no blow-up computed",
              file=sys.stderr)
        _emit_checks(validation, args, r=model.r)
        return FAIL
    payload = report.to_json_dict()
    payload["r"] = model.r

    def table() -> str:
        rows = [["discrepancy", str(report.discrepancy)],
                ["E^3", str(report.e_cubed)],
                ["orders", ", ".join(str(x) for x in report.orders)]]
        for finding in report.chart_findings:
            label = finding.kind if not finding.quotient else f"{finding.kind} {finding.quotient}"
            rows.append([f"chart {finding.variable}", label])
        return render_table(["quantity", "value"], rows)

    emit(payload, args, table)
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
        handle.write(_dumps(model.to_json_dict()) + "\n")
    payload = {"written": args.out, "r": args.r, "seed": args.seed,
               "extra": args.extra, "p_terms": len(model.p.terms),
               "q_terms": len(model.q.terms)}
    emit(payload, args, lambda: f"wrote model r={args.r} seed={args.seed} to {args.out}")
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

    ni_help = (f"lattice points of one weighted degree, at most "
               f"NI_POINT_LIMIT = {NI_POINT_LIMIT} of them")
    p = add_command("ni", help=ni_help, description=ni_help)
    p.add_argument("--r", type=_integer, required=True)
    p.add_argument("--i", type=_integer, required=True)
    p.add_argument("--parity", type=_integer, choices=(0, 1), default=None)
    p.set_defaults(handler=cmd_ni)

    limit = f"DEGREE_LIMIT = {DEGREE_LIMIT}"
    dims_help = f"dimension table up to a degree bound of at most {limit}"
    p = add_command("dims", help=dims_help, description=dims_help)
    p.add_argument("--r", type=_integer, required=True)
    p.add_argument("--imax", type=_integer, required=True)
    p.set_defaults(handler=cmd_dims)

    verify_help = (f"decomposition, well-definedness, orbit-sum and closed-form "
                   f"correction suite over degrees up to max(imax, 2r), at most {limit}")
    p = add_command("verify-dim", help=verify_help, description=verify_help)
    p.add_argument("--r", type=_integer, required=True)
    p.add_argument("--imax", type=_integer, default=None,
                   help="degree bound (default 6r)")
    p.set_defaults(handler=cmd_verify_dim)

    terminal_help = (f"Reid-Tai terminality of a quotient type; a verdict or normal form "
                     f"that would take more than QUOTIENT_ORDER_LIMIT = "
                     f"{QUOTIENT_ORDER_LIMIT} steps is refused")
    p = add_command("terminal", help=terminal_help, description=terminal_help)
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

    generate_help = (f"write a deterministic random model file; at most "
                     f"GENERATE_STEP_LIMIT = {GENERATE_STEP_LIMIT} enumeration steps")
    p = add_command("generate", help=generate_help, description=generate_help)
    p.add_argument("--r", type=_integer, required=True)
    p.add_argument("--seed", type=_integer, required=True)
    p.add_argument("--extra", type=_integer, default=4,
                   help="extra weight range for p beyond r (default 4)")
    p.add_argument("--out", required=True, metavar="FILE")
    p.set_defaults(handler=cmd_generate)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # one parser per process: parsing leaves it unchanged, and building it
    # costs more than most commands
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return BAD_INPUT
    except ArithmeticError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return INTERNAL_FAULT


if __name__ == "__main__":
    sys.exit(main())
