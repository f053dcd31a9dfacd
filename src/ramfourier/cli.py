"""Command-line front end.

Subcommands:
    csum       one Ramanujan sum, or the full divisor-indexed table
    transform  DFT/IDFT and the divisor-indexed transform pair, on files
    cauchy     Cauchy products of two function files
    verify     sweep the exact identities over a range of moduli

All subcommands accept --format text|json and --tolerance (used by
floating comparisons only). Exit status: 0 when everything requested
succeeded, 1 when a requested check failed, 2 on usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from fractions import Fraction

from .arith import divisors
from .errors import CapacityError, DomainError, FormatError
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
from .funcfile import format_function, format_scalar, load_function
from .periodic import (
    DEFAULT_FLOAT_TOL,
    EVENNESS_TOL,
    PeriodicSpectrum,
    ResidueFunction,
    _same_modulus,
    cauchy_product,
    cauchy_product_spectral,
    dft,
    idft,
)
from .ramanujan import ramanujan_sum

_SUITES = ("orthogonality", "symmetry", "bridge", "cauchy-kernel")


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


def cmd_csum(args) -> int:
    if args.table:
        if len(args.values) != 1:
            raise DomainError("csum --table takes exactly one argument: r")
        r = args.values[0]
        divs = divisors(r)
        rows = [[ramanujan_sum(r // e, d) for d in divs] for e in divs]
        if args.format == "json":
            print(json.dumps({"r": r, "divisors": divs, "table": rows}, indent=2))
        else:
            sys.stdout.write(_format_table(divs, rows))
        return 0
    if len(args.values) != 2:
        raise DomainError("csum takes two arguments: n and r")
    n, r = args.values
    value = ramanujan_sum(n, r)
    if args.format == "json":
        print(json.dumps({"n": n, "r": r, "value": value}))
    else:
        print(value)
    return 0


def cmd_transform(args) -> int:
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
    sys.stdout.write(format_function(result, args.format))
    return 0


def cmd_cauchy(args) -> int:
    f = load_function(args.f)
    g = load_function(args.g)
    _same_modulus(f, g)
    both_even = isinstance(f, EvenFunction) and isinstance(g, EvenFunction)
    method = args.method
    if method == "auto":
        method = "even" if both_even else "naive"
    if method == "even" and not both_even:
        raise DomainError("--method even needs two even-representation inputs")

    # Only the residue-domain routes read the expansions.
    if method != "even" or args.check:
        pf, pg = (to_periodic(h) if isinstance(h, EvenFunction) else h for h in (f, g))
    if method == "even":
        product = cauchy_product_even(f, g)
    elif method == "naive":
        product = cauchy_product(pf, pg)
    else:
        product = cauchy_product_spectral(pf, pg)

    exit_code = 0
    discrepancy = None
    worst = None
    if args.check:
        # Compare against the other route: the direct double sum, unless
        # that is what we just ran, in which case the spectral one.
        if method == "naive":
            other = cauchy_product_spectral(pf, pg)
        else:
            other = cauchy_product(pf, pg)
        mine = to_periodic(product) if isinstance(product, EvenFunction) else product
        diffs = [abs(a - b) for a, b in zip(mine.values, other.values)]
        discrepancy = max(diffs)
        worst = diffs.index(discrepancy) + 1
        tol = args.tolerance if args.tolerance is not None else DEFAULT_FLOAT_TOL
        if not discrepancy <= tol:
            exit_code = 1

    # Format before printing anything, so a FormatError leaves stdout empty.
    text = format_function(product, args.format)
    if args.format == "json":
        payload = json.loads(text)
        if args.check:
            payload["max_discrepancy"] = format_scalar(discrepancy)
            payload["max_discrepancy_at"] = worst
            payload["check_passed"] = exit_code == 0
        print(json.dumps(payload, indent=2))
    else:
        if args.check:
            print(f"# max discrepancy: {format_scalar(discrepancy)} (at n={worst})")
        sys.stdout.write(text)
    return exit_code


def _random_even(r: int, rng: random.Random) -> EvenFunction:
    return EvenFunction(
        r, {d: Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for d in divisors(r)}
    )


def cmd_verify(args) -> int:
    if args.rmax < 1:
        raise DomainError(f"--rmax must be >= 1, got {args.rmax}")
    suites = list(_SUITES) if args.suite == "all" else [args.suite]
    if "cauchy-kernel" in suites and args.rmax > CAUCHY_KERNEL_CAP:
        raise CapacityError(
            f"the cauchy-kernel suite is capped at r <= {CAUCHY_KERNEL_CAP}, "
            f"got --rmax {args.rmax}; lower --rmax or pick another --suite"
        )
    rng = random.Random(args.seed)
    tol = args.tolerance if args.tolerance is not None else BRIDGE_TOL

    results = []
    for suite in suites:
        for r in range(1, args.rmax + 1):
            if suite == "orthogonality":
                report = verify_orthogonality(r)
            elif suite == "symmetry":
                report = verify_symmetry(r)
            elif suite == "bridge":
                report = verify_rft_dft_bridge(_random_even(r, rng), tol)
            else:
                report = verify_cauchy_kernel_even(r)
            results.append((suite, r, report))
    all_passed = all(report.passed for _, _, report in results)

    if args.format == "json":
        items = []
        for suite, r, report in results:
            item = {"suite": suite, "r": r, "passed": report.passed}
            failure = report.first_failure()
            if failure is not None:
                item["counterexample"] = {
                    "subject": list(failure.subject),
                    "left": format_scalar(failure.left),
                    "right": format_scalar(failure.right),
                }
            items.append(item)
        payload = {
            "suite": args.suite,
            "rmax": args.rmax,
            "results": items,
            "all_passed": all_passed,
        }
        print(json.dumps(payload, indent=2))
    else:
        for suite, r, report in results:
            if report.passed:
                print(f"{suite} r={r}: pass")
            else:
                failure = report.first_failure()
                print(f"{suite} r={r}: FAIL")
                print(
                    f"  counterexample {failure.subject}: "
                    f"left={format_scalar(failure.left)} right={format_scalar(failure.right)}"
                )
        failures = sum(1 for _, _, report in results if not report.passed)
        if failures:
            print(f"{failures} of {len(results)} checks FAILED")
        else:
            print(f"all {len(results)} checks passed")
    return 0 if all_passed else 1


def _tolerance(text: str) -> float:
    # NaN would pass every check, inf any discrepancy, and a negative value none.
    try:
        tol = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not 0 <= tol < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text!r}")
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
    p.add_argument("values", nargs="+", type=int, metavar="INT", help="n r, or r with --table")
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
    p.add_argument("--suite", choices=_SUITES + ("all",), default="all")
    p.add_argument("--rmax", type=int, required=True, metavar="R")
    p.add_argument("--seed", type=int, default=0, help="seed for the bridge suite inputs")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (DomainError, CapacityError, FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
