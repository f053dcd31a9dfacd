"""Reference results for checking ramfourier's outputs.

Nothing here imports ramfourier, so a defect in the library cannot hide
in its own check. The exact even-function transforms use the
multiplicative structure of the Ramanujan kernel: C(x, y) for divisors
x, y of r is a product over the primes p of r of the small blocks
C(p^i, p^j), so a transform is one pass per prime axis (Yates'
method) on integers scaled by the common denominator. The floating
checks are direct stdlib sums. The parsers read the CLI's text and JSON
output without the library's funcfile module.
"""

from __future__ import annotations

import cmath
import json
from fractions import Fraction
from math import gcd, lcm, pi
from operator import mul

# The library's stated absolute bound for floating results.
FLOAT_TOL = 1e-9
# CLI text keeps 12 significant digits; allow that rounding on top.
TEXT_REL_TOL = 1e-11


def factor(n: int) -> list[tuple[int, int]]:
    """Prime factorization by trial division, as (prime, exponent) pairs."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            a = 0
            while n % p == 0:
                n //= p
                a += 1
            out.append((p, a))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def shape(r: int) -> dict:
    """The divisor-structure properties a transform's cost depends on."""
    fac = factor(r)
    tau = 1
    for _, a in fac:
        tau *= a + 1
    return {
        "r": r,
        "tau": tau,
        "omega": len(fac),
        "sum_a_plus_1": sum(a + 1 for _, a in fac),
        "class": size_class(r, fac),
    }


def size_class(r: int, fac=None) -> str:
    """'prime', 'pow2', 'smooth' (largest prime factor <= 23) or 'rough'."""
    fac = factor(r) if fac is None else fac
    if len(fac) == 1 and fac[0][1] == 1:
        return "prime"
    if len(fac) == 1 and fac[0][0] == 2:
        return "pow2"
    return "smooth" if fac and fac[-1][0] <= 23 else "rough"


def divisors_sorted(r: int) -> list[int]:
    divs = [1]
    for p, a in factor(r):
        divs = [d * p**k for d in divs for k in range(a + 1)]
    return sorted(divs)


def phi(n: int) -> int:
    out = n
    for p, _ in factor(n):
        out -= out // p
    return out


def _block(p: int, i: int, j: int) -> int:
    """C(p^i, p^j): the Ramanujan sum on one prime power."""
    if j == 0:
        return 1
    if i >= j:
        return p**j - p ** (j - 1)
    if i == j - 1:
        return -(p ** (j - 1))
    return 0


def csum(n: int, d: int) -> int:
    """C(n, d), multiplicative in d; n = 0 behaves as n = d."""
    g = gcd(n, d)
    out = 1
    for p, a in factor(d):
        b = 0
        while g % p == 0 and b < a:
            g //= p
            b += 1
        out *= _block(p, b, a)
    return out


def table(r: int) -> tuple[list[int], dict]:
    """(divisors, rows) with rows[e][i] = C(r/e, divisors[i])."""
    fac = factor(r)
    divs = divisors_sorted(r)

    def exps(x):
        out = []
        for p, _ in fac:
            k = 0
            while x % p == 0:
                x //= p
                k += 1
            out.append(k)
        return out

    vec = {d: exps(d) for d in divs}
    rows = {}
    for e in divs:
        x = exps(r // e)
        row = []
        for d in divs:
            v = 1
            for (p, _), i, j in zip(fac, x, vec[d]):
                v *= _block(p, i, j)
            row.append(v)
        rows[e] = row
    return divs, rows


def _axes(r: int):
    """Divisors of r in mixed-radix order, with the per-prime axes."""
    fac = factor(r)
    divs = [1]
    for p, a in fac:
        divs = [d * p**k for d in divs for k in range(a + 1)]
    axes = []
    stride = 1
    for p, a in reversed(fac):
        axes.append((p, a, stride))
        stride *= a + 1
    return divs, axes


def _kron(vec: list[int], axes, entry) -> list[int]:
    """Apply the Kronecker product of per-prime matrices entry(p, a, out, in)."""
    n = len(vec)
    for p, a, stride in axes:
        m = a + 1
        mat = [[entry(p, a, o, i) for i in range(m)] for o in range(m)]
        out = [0] * n
        block = stride * m
        for base in range(0, n, block):
            for off in range(base, base + stride):
                col = [vec[off + t * stride] for t in range(m)]
                for o in range(m):
                    out[off + o * stride] = sum(map(mul, mat[o], col))
        vec = out
    return vec


def _scaled(divs, values: dict) -> tuple[list[int], int]:
    den = lcm(*(Fraction(values[d]).denominator for d in divs))
    return [int(Fraction(values[d]) * den) for d in divs], den


def _forward_entry(p, a, o, i):
    # R(d) = sum_u f(u) C(r/d, r/u): exponents a - o and a - i on axis p.
    return _block(p, a - o, a - i)


def _inverse_entry(p, a, o, i):
    # f(e) = r^-1 sum_d R(d) C(e, d).
    return _block(p, o, i)


def rft(r: int, values: dict) -> dict:
    """Divisor-form coefficients R(d) = sum_{e | r} f(r/e) C(r/d, e)."""
    divs, axes = _axes(r)
    ints, den = _scaled(divs, values)
    out = _kron(ints, axes, _forward_entry)
    return {d: Fraction(v, den) for d, v in zip(divs, out)}


def irft(r: int, coeffs: dict) -> dict:
    """Values f(e) = r^-1 sum_{d | r} R(d) C(e, d)."""
    divs, axes = _axes(r)
    ints, den = _scaled(divs, coeffs)
    out = _kron(ints, axes, _inverse_entry)
    return {d: Fraction(v, den * r) for d, v in zip(divs, out)}


def cauchy_even(r: int, f: dict, g: dict) -> dict:
    rf, rg = rft(r, f), rft(r, g)
    return irft(r, {d: rf[d] * rg[d] for d in rf})


def inner_even(r: int, f: dict, g: dict):
    return sum(Fraction(f[d]) * Fraction(g[d]) * phi(r // d) for d in divisors_sorted(r))


def exact_mismatch(got: dict, want: dict) -> str | None:
    """None when got holds exactly the values of want, as int or Fraction."""
    if set(got) != set(want):
        return f"keys differ: {sorted(set(got) ^ set(want))[:5]}"
    for d, w in want.items():
        v = got[d]
        if isinstance(v, bool) or not isinstance(v, (int, Fraction)):
            return f"value at {d} is {type(v).__name__}, not exact"
        if v != w:
            return f"value at {d}: got {v}, want {w}"
    return None


def _twiddles(r: int, sign: int) -> list[complex]:
    return [cmath.exp(sign * 2j * pi * (j / r)) for j in range(r)]


def _direct(values, sign: int) -> list[complex]:
    # out[k-1] = sum_{n=1..r} values[n-1] exp(sign 2 pi i k n / r)
    r = len(values)
    w = _twiddles(r, sign)
    vals = [complex(v) for v in values]
    return [
        sum(map(mul, vals, [w[j % r] for j in range(k, k * r + 1, k)]))
        for k in range(1, r + 1)
    ]


def dft(values) -> list[complex]:
    """F(k) = sum_n f(n) exp(-2 pi i k n / r), k = 1..r."""
    return _direct(values, -1)


def idft(coeffs) -> list[complex]:
    r = len(coeffs)
    return [v / r for v in _direct(coeffs, 1)]


def cyclic_conv(f, g) -> list:
    """(f o g)(n) = sum_{a=1..r} f(a) g(n - a) by the direct double sum."""
    r = len(f)
    grev = list(g[::-1]) * 2
    out = []
    for i in range(r):
        off = (r - i) % r
        out.append(sum(map(mul, f, grev[off : off + r])))
    return out


def float_error(got, want, rel: float = 0.0) -> tuple[float, bool]:
    """Largest |got - want| (inf on NaN or a length mismatch), and whether
    every difference is within FLOAT_TOL + rel * |want|."""
    if len(got) != len(want):
        return float("inf"), False
    worst, ok = 0.0, True
    for a, b in zip(got, want):
        e = abs(complex(a) - b)
        if not e <= FLOAT_TOL + rel * abs(b):
            ok = False
        if not e <= worst:
            worst = e if e == e else float("inf")
    return worst, ok


# ---- CLI output parsing -------------------------------------------------


def parse_scalar(tok):
    if isinstance(tok, (int, float)):
        return tok
    tok = tok.strip()
    if "/" in tok:
        return Fraction(tok)
    if "j" in tok:
        return complex(tok)
    try:
        return int(tok)
    except ValueError:
        return float(tok)


def parse_function(text: str, fmt: str):
    """(r, representation, values) of a function file; even values as a dict."""
    if fmt == "json":
        obj = json.loads(text)
        r, rep = obj["modulus"], obj["representation"]
        if rep == "even":
            vals = {int(it["divisor"]): parse_scalar(it["value"]) for it in obj["values"]}
        else:
            vals = [parse_scalar(v) for v in obj["values"]]
        return r, rep, vals
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    head = lines[0].split()
    r, rep = int(head[0]), head[1]
    if rep == "even":
        vals = {}
        for ln in lines[1:]:
            d, v = ln.split()
            vals[int(d)] = parse_scalar(v)
    else:
        vals = [parse_scalar(ln) for ln in lines[1:]]
    return r, rep, vals


def format_even(r: int, values: dict, fmt: str) -> str:
    """An even function file, in the library's input format."""
    divs = divisors_sorted(r)
    if fmt == "json":
        items = [
            {"divisor": d, "value": v if isinstance(v, int) else str(v)}
            for d, v in ((d, values[d]) for d in divs)
        ]
        return json.dumps({"modulus": r, "representation": "even", "values": items})
    return f"{r} even\n" + "".join(f"{d} {values[d]}\n" for d in divs)


def format_periodic(values: list[float]) -> str:
    return f"{len(values)} periodic\n" + "".join(f"{v!r}\n" for v in values)


def parse_table(text: str):
    """(divisors, rows) of `csum --table` text output."""
    lines = text.splitlines()
    divs = [int(c[2:]) for c in lines[0].split()[1:]]
    rows = {}
    for ln in lines[1:]:
        cells = ln.split()
        rows[int(cells[0][2:])] = [int(c) for c in cells[1:]]
    return divs, rows
