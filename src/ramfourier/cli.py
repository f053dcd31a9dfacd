"""Command-line front end.

Subcommands:
    csum       one Ramanujan sum, or the full divisor-indexed table
    transform  DFT/IDFT and the divisor-indexed transform pair, on files
    cauchy     Cauchy products of two function files
    verify     sweep the exact identities over a range of moduli

All subcommands accept --format text|json and --tolerance (used by
floating comparisons only). Exit status: 0 when everything requested
succeeded, 1 when a requested check failed, 2 on usage or input errors.
Each `cmd_*` returns its exit status and its whole output text, and
`main` writes stdout once, after the subcommand has built all of it, so
a refused run leaves stdout empty. Boundary rule: the library routes
refuse bad input behind one decorator, `periodic._route`; `cmd_cauchy`
adds two checks of its own, marked there.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from fractions import Fraction

from .arith import divisors
from .errors import CapacityError, DomainError, FormatError, _int_text
from .even import (
    BRIDGE_TOL,
    CAUCHY_KERNEL_CAP,
    EvenFunction,
    EvenSpectrum,
    cauchy_product_even,
    from_periodic,
    irft,
    rft,
    to_periodic,
    verify_cauchy_kernel_even,
    verify_orthogonality,
    verify_rft_dft_bridge,
    verify_symmetry,
)
from .funcfile import _json_payload, _quote, format_function, format_scalar, load_function
from .periodic import (
    DEFAULT_FLOAT_TOL,
    EVENNESS_TOL,
    PeriodicSpectrum,
    ResidueFunction,
    _range_error,
    _same_modulus,
    cauchy_product,
    cauchy_product_spectral,
    dft,
    idft,
)
from .ramanujan import ramanujan_sum


def _format_table(divs, rows) -> str:
    cells = [["C(r/e,d)"] + [f"d={d}" for d in divs]]
    for e, row in zip(divs, rows):
        cells.append([f"e={e}"] + [str(v) for v in row])
    widths = [max(len(row[i]) for row in cells) for i in range(len(cells[0]))]
    lines = []
    for row in cells:
        out = row[0].ljust(widths[0])
        for i, cell in enumerate(row[1:], start=1):
            out += "  " + cell.rjust(widths[i])
        lines.append(out.rstrip())
    return "\n".join(lines) + "\n"


def cmd_csum(args) -> tuple[int, str]:
    if args.table:
        if len(args.values) != 1:
            raise DomainError("csum --table takes exactly one argument: r")
        r = args.values[0]
        divs = divisors(r)
        rows = [[ramanujan_sum(r // e, d) for d in divs] for e in divs]
        if args.format == "json":
            return 0, json.dumps({"r": r, "divisors": divs, "table": rows}, indent=2) + "\n"
        return 0, _format_table(divs, rows)
    if len(args.values) != 2:
        raise DomainError("csum takes two arguments: n and r")
    n, r = args.values
    value = ramanujan_sum(n, r)
    if args.format == "json":
        return 0, json.dumps({"n": n, "r": r, "value": value}) + "\n"
    return 0, f"{value}\n"


def cmd_transform(args) -> tuple[int, str]:
    obj = load_function(args.input)
    tol = args.tolerance if args.tolerance is not None else EVENNESS_TOL
    if args.kind == "rft":
        if isinstance(obj, ResidueFunction):
            obj = from_periodic(obj, tol)
        if args.direction == "forward":
            result = rft(obj)
        else:
            result = irft(EvenSpectrum(obj.r, obj.values))
    else:
        if isinstance(obj, EvenFunction):
            obj = to_periodic(obj)
        if args.direction == "forward":
            result = dft(obj)
        else:
            result = idft(PeriodicSpectrum(obj.r, obj.values))
    return 0, format_function(result, args.format)


# Each method's route, and the independent route its --check compares
# with: the direct double sum, or for that route itself the spectral one.
_CAUCHY = {
    "naive": (cauchy_product, cauchy_product_spectral),
    "spectral": (cauchy_product_spectral, cauchy_product),
    "even": (cauchy_product_even, cauchy_product),
}


def cmd_cauchy(args) -> tuple[int, str]:
    f = load_function(args.f)
    g = load_function(args.g)
    _same_modulus(f, g)  # before even input is expanded to r residues
    both_even = isinstance(f, EvenFunction) and isinstance(g, EvenFunction)
    method = args.method
    if method == "auto":
        method = "even" if both_even else "naive"
    if method == "even" and not both_even:
        raise DomainError("--method even needs two even-representation inputs")
    route, partner = _CAUCHY[method]

    # Only the even route reads divisor data; the others read the expansions.
    if method != "even" or args.check:
        pf, pg = (to_periodic(h) if isinstance(h, EvenFunction) else h for h in (f, g))
    product = route(f, g) if method == "even" else route(pf, pg)
    check = {}
    if args.check:
        mine = to_periodic(product) if isinstance(product, EvenFunction) else product
        theirs = partner(pf, pg)
        try:
            diffs = [abs(a - b) for a, b in zip(mine.values, theirs.values)]
        except OverflowError:
            # An exact product past the float range met the floating route's.
            where = "cannot check: exact product at n ="
            raise _range_error((where, mine.values), (where, theirs.values)) from None
        worst = max(diffs)
        shown, at = format_scalar(worst), diffs.index(worst) + 1
        tol = args.tolerance if args.tolerance is not None else DEFAULT_FLOAT_TOL
        check = {"max_discrepancy": shown, "max_discrepancy_at": at, "check_passed": worst <= tol}

    if args.format == "json":
        text = json.dumps(_json_payload(product) | check, indent=2) + "\n"
    else:
        text = format_function(product)
        if check:
            text = f"# max discrepancy: {shown} (at n={at})\n{text}"
    return (0 if check.get("check_passed", True) else 1), text


def _random_even(r: int, rng: random.Random) -> EvenFunction:
    return EvenFunction(
        r, {d: Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for d in divisors(r)}
    )


# Each suite's report at one modulus r. The bridge suite draws its input
# from rng and compares within tol; the others are exact.
_SUITES = {
    "orthogonality": lambda r, rng, tol: verify_orthogonality(r),
    "symmetry": lambda r, rng, tol: verify_symmetry(r),
    "bridge": lambda r, rng, tol: verify_rft_dft_bridge(_random_even(r, rng), tol),
    "cauchy-kernel": lambda r, rng, tol: verify_cauchy_kernel_even(r),
}


def cmd_verify(args) -> tuple[int, str]:
    if args.rmax < 1:
        raise DomainError(f"--rmax must be >= 1, got {_int_text(args.rmax)}")
    suites = list(_SUITES) if args.suite == "all" else [args.suite]
    if "cauchy-kernel" in suites and args.rmax > CAUCHY_KERNEL_CAP:
        raise CapacityError(
            f"the cauchy-kernel suite is capped at r <= {CAUCHY_KERNEL_CAP}, "
            f"got --rmax {_int_text(args.rmax)}; lower --rmax or pick another --suite"
        )
    rng = random.Random(args.seed)
    tol = args.tolerance if args.tolerance is not None else BRIDGE_TOL
    reports = [_SUITES[s](r, rng, tol) for s in suites for r in range(1, args.rmax + 1)]
    results = []
    for report in reports:
        c = report.first_failure()
        item = {"suite": report.name, "r": report.r, "passed": c is None}
        if c is not None:
            # Formatted once for either form. json.dumps writes the subject
            # tuple as an array, and the text form shows it as a tuple.
            left, right = format_scalar(c.left), format_scalar(c.right)
            item["counterexample"] = {"subject": c.subject, "left": left, "right": right}
        results.append(item)
    failed = sum(not item["passed"] for item in results)

    if args.format == "json":
        payload = {"suite": args.suite, "rmax": args.rmax, "results": results}
        text = json.dumps(payload | {"all_passed": not failed}, indent=2) + "\n"
    else:
        lines = []
        for item in results:
            lines.append("{suite} r={r}: ".format(**item) + ("pass" if item["passed"] else "FAIL"))
            if "counterexample" in item:
                c = item["counterexample"]
                lines.append("  counterexample {subject}: left={left} right={right}".format(**c))
        if failed:
            lines.append(f"{failed} of {len(results)} checks FAILED")
        else:
            lines.append(f"all {len(results)} checks passed")
        text = "\n".join(lines) + "\n"
    return (1 if failed else 0), text


def _integer(text: str) -> int:
    # int() itself refuses text past 4300 digits, and argparse would quote it whole.
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {_quote(text)}") from None


def _tolerance(text: str) -> float:
    # NaN would pass every check, inf any discrepancy, and a negative value none.
    try:
        tol = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {_quote(text)}") from None
    if not 0 <= tol < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {_quote(text)}")
    return tol


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    common.add_argument(
        "--tolerance",
        type=_tolerance,
        default=None,
        metavar="TOL",
        help="tolerance for floating comparisons (exact paths ignore it)",
    )

    parser = argparse.ArgumentParser(
        prog="ramfourier",
        description="Ramanujan sums and transforms of periodic and even functions mod r.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "csum",
        parents=[common],
        help="Ramanujan sum C(n, r), or the divisor table C(r/e, d) with --table",
    )
    p.add_argument(
        "values", nargs="+", type=_integer, metavar="INT", help="n r, or r with --table"
    )
    p.add_argument("--table", action="store_true", help="print the divisor-indexed table")
    p.set_defaults(func=cmd_csum)

    p = sub.add_parser(
        "transform",
        parents=[common],
        help="apply a forward or inverse transform to a function file",
    )
    p.add_argument("input", help="function file ('.json' for the JSON form)")
    p.add_argument("--kind", choices=("dft", "rft"), required=True)
    p.add_argument("--direction", choices=("forward", "inverse"), default="forward")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser(
        "cauchy",
        parents=[common],
        help="Cauchy product of two function files",
    )
    p.add_argument("f", help="first input file")
    p.add_argument("g", help="second input file")
    p.add_argument(
        "--method",
        choices=("auto", "naive", "spectral", "even"),
        default="auto",
        help="auto picks the divisor-indexed route for two even files, else naive",
    )
    p.add_argument(
        "--check",
        action="store_true",
        help="also run the other route and report the max discrepancy",
    )
    p.set_defaults(func=cmd_cauchy)

    p = sub.add_parser(
        "verify",
        parents=[common],
        help="check the exact identities for every r up to --rmax",
    )
    # A metavar keeps the usage line, which argparse prints with every
    # usage error, to two lines.
    p.add_argument(
        "--suite",
        choices=(*_SUITES, "all"),
        default="all",
        metavar="SUITE",
        help="one of %(choices)s (default: %(default)s)",
    )
    p.add_argument("--rmax", type=_integer, required=True, metavar="R")
    p.add_argument("--seed", type=_integer, default=0, help="seed for the bridge suite inputs")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code, text = args.func(args)
        sys.stdout.write(text)
        return code
    except (DomainError, CapacityError, FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
