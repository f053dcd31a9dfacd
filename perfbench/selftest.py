"""Self-test of the benchmark's correctness checks.

Feeds each workload's checker, through the same closed loop the
benchmark runs, one deliberately wrong result among right ones, and
requires that exactly that request counts as failed in error_rate:

- even-exact: one transform coefficient off by one;
- periodic-float: one DFT value off by 1e-6;
- cli-cold: exit status 2 where 0 was expected.

It also requires that CLI output re-written with a different float
format but the same values still passes. Runs in a few seconds.

Usage, from the repository root:  python3 perfbench/selftest.py
"""

from __future__ import annotations

import subprocess
import sys
from fractions import Fraction

import harness
import oracle
from harness import OUT, SRC, Request

sys.path.insert(0, str(SRC))

import ramfourier as rf  # noqa: E402
from cli_cold import CliCold  # noqa: E402
from inprocess import EvenExact, PeriodicFloat  # noqa: E402


class Corrupting:
    """A workload whose first request's result is replaced by corrupt(req, result)."""

    def __init__(self, inner, requests, corrupt):
        self.inner, self._requests, self.corrupt = inner, requests, corrupt

    def requests(self, cycle):
        return self._requests

    def execute(self, req):
        result = self.inner.execute(req)
        return self.corrupt(req, result) if req is self._requests[0] else result

    def check(self, req, result):
        return self.inner.check(req, result)


def expect(workload, want_failed: int, what: str) -> None:
    out = harness.measure(workload, 0.0)  # exactly one cycle
    rate = out.failed / out.attempted
    status = "ok" if out.failed == want_failed else "FAIL"
    print(f"{status}: {what}: error_rate {rate:.3g} ({out.failed} of {out.attempted}) {out.failures}")
    if out.failed != want_failed:
        raise SystemExit(1)


def even_case() -> None:
    r = 720
    f = {d: d % 7 - 3 for d in oracle.divisors_sorted(r)}
    g = {d: Fraction(d % 5 - 2, d % 3 + 1) for d in oracle.divisors_sorted(r)}
    reqs = [
        Request("rft_divisor_form", r, "int", (rf.EvenFunction(r, f),), {"f": f, "g": None}),
        Request("irft", r, "fraction", (rf.EvenSpectrum(r, g),), {"f": g, "g": None}),
        Request("cauchy_product_even", r, "fraction",
                (rf.EvenFunction(r, f), rf.EvenFunction(r, g)), {"f": f, "g": g}),
    ]

    def off_by_one(req, spectrum):
        coeffs = dict(spectrum.coeffs)
        coeffs[12] += 1
        return rf.EvenSpectrum(spectrum.r, coeffs)

    expect(Corrupting(EvenExact(0), reqs, off_by_one), 1, "even coefficient off by one")


def periodic_case() -> None:
    r = 128
    f = tuple(complex((n % 9) / 9, -(n % 4) / 4) for n in range(r))
    g = tuple(complex(n % 3, 1) / 3 for n in range(r))
    reqs = [
        Request("dft", r, None, (rf.ResidueFunction(r, f),), {"f": f, "g": None}),
        Request("idft", r, None, (rf.PeriodicSpectrum(r, f),), {"f": f, "g": None}),
        Request("cauchy_product_spectral", r, None,
                (rf.ResidueFunction(r, f), rf.ResidueFunction(r, g)), {"f": f, "g": g}),
    ]

    def nudge(req, spectrum):
        coeffs = list(spectrum.coeffs)
        coeffs[5] += 1e-6
        return rf.PeriodicSpectrum(spectrum.r, tuple(coeffs))

    expect(Corrupting(PeriodicFloat(0), reqs, nudge), 1, "DFT value off by 1e-6")


def _repr_complex(v: complex) -> str:
    im = repr(v.imag)
    return f"{v.real!r}{'' if im.startswith('-') else '+'}{im}j"


def cli_case() -> None:
    OUT.mkdir(exist_ok=True)
    p = [((n * 37) % 11 - 5) / 7 for n in range(128)]
    path = OUT / "selftest-p.txt"
    path.write_text(oracle.format_periodic(p), encoding="utf-8")
    reqs = [
        Request("csum", 360, "int", ("csum", "12", "360"), {"n": 12}),
        Request("dft", 128, None, ("transform", "--kind", "dft", str(path)), {"f": p, "fmt": "text"}),
        Request("table", 12, "int", ("csum", "--table", "12")),
    ]
    cli = CliCold(0)

    def exit_two(req, done):
        return subprocess.CompletedProcess(done.args, 2, done.stdout, done.stderr)

    expect(Corrupting(cli, reqs, exit_two), 1, "CLI exit status 2 where 0 was expected")

    def reformat(req, done):
        if req.kind != "dft":
            return done
        r, _, vals = oracle.parse_function(done.stdout, "text")
        text = f"{r} periodic\n" + "".join(_repr_complex(v) + "\n" for v in vals)
        return subprocess.CompletedProcess(done.args, 0, text, done.stderr)

    dft_first = [reqs[1], reqs[0], reqs[2]]
    expect(Corrupting(cli, dft_first, reformat), 0, "CLI floats re-formatted, same values")

if __name__ == "__main__":
    even_case()
    periodic_case()
    cli_case()
    print("all checker self-tests passed")
