"""Even functions mod r in divisor-indexed form, and their transform.

A function that depends on n only through gcd(n, r) is determined by its
tau(r) values on the divisors of r, so everything here works on
divisor-indexed data and never expands to the r residues unless asked
to. Such functions expand over the integer kernel rows C(., d):

    coefficient:  R(d) = phi(d)^{-1} * sum_{n=1..r} f(n) C(n, d)
    inversion:    f(n) = r^{-1} * sum_{d | r} R(d) C(n, d)

C(n, d) depends on n only through gcd(n, d) and is multiplicative in d,
so for r = prod p^a the tau x tau divisor kernel is a Kronecker product
of (a+1) x (a+1) blocks with entries C(p^j, p^k), one block per prime
power. `rft`, `irft` and `cauchy_product_even` apply those blocks one
prime at a time (Yates' algorithm). The blocks are banded, so each pass
is one prefix sum: at most tau(r) * sum(a_i + 1) multiply-adds in all,
no kernel table and nothing of size r. Exact input is scaled once to
integers over the lcm of its denominators, and every route divides once
at the end, giving an int wherever the denominator is 1. Input that
mixes exact and floating values runs in floating point. Boundary rule:
the routes run behind `periodic._route`, as the periodic ones do, and
name the divisor (and f or g) of an exact value past the float range.

`rft_naive` keeps the defining r-term sum as a slow reference, and
`verify_rft_dft_bridge` ties the fast route to the floating DFT.

The verify_* functions check the classical identities behind all of
this instance by instance and return structured reports rather than
bare booleans, so a counterexample can be printed if one ever fails.
"""

from __future__ import annotations

from contextlib import suppress
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import gcd, lcm
from operator import mul
from typing import Callable

from .arith import _gcd_classes, divisors, euler_phi, factorize
from .errors import CapacityError, DomainError, NotEvenError, _int_text
from .periodic import (
    _EXACT_TYPES,
    EVENNESS_TOL,
    ResidueFunction,
    Scalar,
    _check_tol,
    _conj,
    _non_finite,
    _route,
    _Value,
    cauchy_product,
    dft,
    even_witness,
)
from .ramanujan import ramanujan_sum

__all__ = [
    "CAUCHY_KERNEL_CAP",
    "EvenFunction",
    "EvenSpectrum",
    "IdentityCheck",
    "VerificationReport",
    "ramanujan_basis",
    "from_periodic",
    "to_periodic",
    "rft",
    "rft_naive",
    "rft_divisor_form",
    "irft",
    "inner_product_even",
    "cauchy_product_even",
    "verify_orthogonality",
    "verify_symmetry",
    "verify_rft_dft_bridge",
    "verify_cauchy_kernel_even",
]

# The brute-force kernel verifier is O(tau(r)^2 * r^2); keep it desk-sized.
CAUCHY_KERNEL_CAP = 60

# The default tolerance of `verify_rft_dft_bridge`; see its docstring.
BRIDGE_TOL = 1e-8

# Per-modulus caches hold O(tau(r)) data each; the bound keeps a
# long-lived process from keeping every modulus it has ever seen.
_CACHE_SIZE = 64


@lru_cache(maxsize=_CACHE_SIZE)
def _layout(r: int) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...], tuple[int, ...]]:
    """The prime powers of r, its divisors in mixed-radix order, and that
    order reversed.

    Position sum_i k_i * stride_i holds prod_i p_i^k_i, with the first
    prime's exponent the most significant digit. The reversed order holds
    r/e where the forward order holds e.
    """
    factors = factorize(r)
    order = [1]
    for p, a in reversed(factors):
        order = [p**k * e for k in range(a + 1) for e in order]
    return factors, tuple(order), tuple(reversed(order))


def _kronecker(factors: tuple[tuple[int, int], ...], x: list) -> list:
    """y(e) = sum_{d | r} C(e, d) x(d), on vectors in mixed-radix order.

    One pass per prime power p^a, on the axis that is currently most
    significant. Its (a+1) x (a+1) block has entries C(p^j, p^k): 1 at
    k = 0, p^k - p^(k-1) for 0 < k <= j, -p^j at k = j + 1 and 0 beyond,
    so output digit j is the prefix sum S_j of the scaled input slabs
    minus p^j times slab j + 1. Each pass writes its axis back as the
    least significant digit, so after the last pass the order is the
    original one again.
    """
    tau = len(x)
    for p, a in factors:
        m = a + 1
        s = tau // m
        y = [0] * tau
        prefix = x[:s]
        low = 1
        for j in range(a):
            high = low * p
            slab = x[(j + 1) * s:(j + 2) * s]
            y[j::m] = [u - low * v for u, v in zip(prefix, slab)]
            step = high - low
            prefix = [u + step * v for u, v in zip(prefix, slab)]
            low = high
        y[a::m] = prefix
        x = y
    return x


def _scaled(values: list) -> tuple[list, int]:
    """Exact values as integers over their common denominator L.

    Returns (numerators, L). Floating input is made one type (complex if
    any value is complex, else float) and comes back with L = 1.
    """
    if all(isinstance(v, _EXACT_TYPES) for v in values):
        den = lcm(*(v.denominator for v in values))
        return [v.numerator * (den // v.denominator) for v in values], den
    kind = complex if any(isinstance(v, complex) for v in values) else float
    return [kind(v) for v in values], 1


def _normalise(num: Scalar, den: int) -> Scalar:
    """num / den: the one division at the end of every transform route.

    Exact numerators give an exact quotient, as a plain int whenever den
    divides num; floating numerators are divided in floating point.
    """
    if isinstance(num, int):
        q, rem = divmod(num, den)
        return Fraction(num, den) if rem else q
    if isinstance(num, Fraction):
        return _normalise(num.numerator, num.denominator * den)
    return num / den


class _ReadOnlyDict(dict):
    """A dict that refuses mutation, hashes by content and pickles by value."""

    def _refuse(self, *args, **kwargs):
        raise TypeError("divisor-indexed values are read-only")

    __setitem__ = __delitem__ = __ior__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse

    def __hash__(self):
        return hash(frozenset(self.items()))

    def __reduce__(self):
        return type(self), (dict(self),)


def _divisor_values(r: int, pairs) -> _ReadOnlyDict:
    """A mapping, or an iterable of (divisor, value) pairs, keyed by the
    divisors of r in increasing order: the one check behind every even
    object and reader.

    A non-divisor, a repeated divisor or a missing divisor raises
    DomainError with the index of the offending pair (None if missing).
    """
    divs = divisors(r)
    # Pairs are read once into a list, so any iterable can be counted and walked again.
    if not hasattr(pairs, "keys"):
        pairs = list(pairs)
    # A plain dict copy: a subclass's __missing__ could invent a value.
    values = dict(pairs)
    # tau(r) distinct keys that include every divisor are exactly the divisors.
    if len(values) == len(pairs) == len(divs):
        with suppress(KeyError):
            return _ReadOnlyDict(zip(divs, map(values.__getitem__, divs)))
    allowed, seen = set(divs), set()
    # A mapping's keys are distinct, so its copy keeps every position.
    for i, (d, _) in enumerate(values.items() if hasattr(pairs, "keys") else pairs):
        if d not in allowed:
            raise DomainError(f"{_int_text(d)} does not divide {_int_text(r)}", index=i)
        if d in seen:
            raise DomainError(f"duplicate divisor {_int_text(d)}", index=i)
        seen.add(d)
    raise DomainError(f"missing divisors {sorted(allowed - seen)}")


class EvenFunction(_Value):
    """A function even mod r, stored by its values on the divisors of r.

    values (a mapping, or any iterable of (divisor, value) pairs) is kept
    as a read-only dict in increasing divisor order; the object is
    immutable and hashable.
    """

    __slots__ = ("r", "values")
    _label = ("value", "divisor")
    r: int
    values: dict[int, Scalar]

    def __init__(self, r: int, values):
        _Value.__init__(self, r, _divisor_values(r, values))

    @classmethod
    def from_callable(cls, r: int, fn: Callable[[int], Scalar]) -> "EvenFunction":
        """Tabulate fn on the divisors of r."""
        return cls(r, {d: fn(d) for d in divisors(r)})

    def __call__(self, n: int) -> Scalar:
        """Evaluate at any integer n: f(n) = f(gcd(n, r))."""
        return self.values[gcd(n, self.r)]


class EvenSpectrum(_Value):
    """Transform coefficients of an even function, one per divisor of r,
    kept as `EvenFunction.values` is."""

    __slots__ = ("r", "coeffs")
    _label = ("coefficient", "divisor")
    r: int
    coeffs: dict[int, Scalar]

    def __init__(self, r: int, coeffs):
        _Value.__init__(self, r, _divisor_values(r, coeffs))


def ramanujan_basis(d: int, r: int) -> EvenFunction:
    """The kernel row C(., d) as an even function mod r; d must divide r."""
    divs = divisors(r)
    if d not in divs:
        raise DomainError(f"{_int_text(d)} does not divide {_int_text(r)}")
    return EvenFunction(r, {e: ramanujan_sum(e, d) for e in divs})


def from_periodic(f: ResidueFunction, tol: float = EVENNESS_TOL) -> EvenFunction:
    """Restrict an even residue function to its divisor values.

    Raises NotEvenError, naming a witness residue, when f is not even.
    A NaN or infinite value never counts as even, and the message says
    so when the witness holds one.
    """
    witness = even_witness(f, tol)
    if witness is not None:
        value = f.values[witness - 1]
        if _non_finite(value):
            reason = "is not a finite value"
        else:
            g = gcd(witness, f.r)
            reason = f"differs from f(gcd({witness}, {f.r})) = f({g}) = {f.values[g - 1]!r}"
        raise NotEvenError(
            f"not even mod {f.r}: f({witness}) = {value!r} {reason}", witness=witness
        )
    return EvenFunction(f.r, {d: f.values[d - 1] for d in divisors(f.r)})


def to_periodic(e: EvenFunction) -> ResidueFunction:
    """Expand divisor values to the full residue range, f(n) = f(gcd(n, r)),
    reading gcd(n, r) for every n from the one divisor sieve,
    `arith._gcd_classes`."""
    return ResidueFunction(e.r, map(e.values.__getitem__, _gcd_classes(e.r)))


@_route
def rft(f: EvenFunction) -> EvenSpectrum:
    """Transform coefficients of f, in either of two equal forms:

        R(d) = phi(d)^{-1} sum_{n=1..r} f(n) C(n, d)
             = sum_{e | r} f(r/e) C(r/d, e).

    The second, division-free form applies the kernel one prime power at
    a time: at most tau(r) * sum(a_i + 1) multiply-adds for
    r = prod p_i^a_i, storage proportional to tau(r) and nothing of size
    r. Integer input gives integer coefficients; Fraction input runs on
    integers and divides once.
    """
    r = f.r
    factors, _, flipped = _layout(r)
    nums, den = _scaled([f.values[d] for d in flipped])
    totals = _kronecker(factors, nums)
    return EvenSpectrum(r, {d: _normalise(t, den) for d, t in zip(flipped, totals)})


@_route
def rft_naive(f: EvenFunction) -> EvenSpectrum:
    """Reference transform by the defining r-term sums.

    O(r * tau(r)) work over every residue; exists to cross-check `rft`
    on desk-sized r.
    """
    r = f.r
    coeffs = {}
    for d in divisors(r):
        total = sum(f(n) * ramanujan_sum(n, d) for n in range(1, r + 1))
        coeffs[d] = _normalise(total, euler_phi(d))
    return EvenSpectrum(r, coeffs)


# The name of the division-free form, kept for existing callers.
rft_divisor_form = rft


@_route
def irft(spectrum: EvenSpectrum) -> EvenFunction:
    """Inverse transform: f(e) = r^{-1} sum_{d | r} R(d) C(e, d).

    The same per-prime kernel passes as `rft`, then one
    division by r (times the common denominator of exact input).
    """
    r = spectrum.r
    factors, order, _ = _layout(r)
    nums, den = _scaled([spectrum.coeffs[d] for d in order])
    totals = _kronecker(factors, nums)
    return EvenFunction(r, {e: _normalise(t, den * r) for e, t in zip(order, totals)})


@_route
def inner_product_even(f: EvenFunction, g: EvenFunction) -> Scalar:
    """<f, g> on divisor data: sum_{d | r} f(d) conj(g(d)) phi(r/d).

    Agrees with the residue-domain inner product of the expansions,
    because phi(r/d) residues share each divisor value. Exact input runs
    on integers and divides once, so an integral result is an int.
    """
    r = f.r
    divs = divisors(r)
    nf, lf = _scaled([f.values[d] for d in divs])
    ng, lg = _scaled([_conj(g.values[d]) for d in divs])
    total = sum(a * b * euler_phi(r // d) for a, b, d in zip(nf, ng, divs))
    return _normalise(total, lf * lg)


@_route
def cauchy_product_even(f: EvenFunction, g: EvenFunction) -> EvenFunction:
    """Cauchy product of two even functions, computed spectrally.

    Two forward kernel passes, a pointwise product of the coefficients
    and one inverse pass, so the product costs three transforms and no
    tau(r)^2 work. Exact input runs on integers and is divided once, by
    r times both common denominators. Agrees with the naive double sum
    on the expansions.
    """
    r = f.r
    factors, order, flipped = _layout(r)
    nf, lf = _scaled([f.values[d] for d in flipped])
    ng, lg = _scaled([g.values[d] for d in flipped])
    # Forward totals sit at the positions of r/d; reversing them lines
    # the product up with `order` for the inverse pass.
    product = [a * b for a, b in zip(_kronecker(factors, nf), _kronecker(factors, ng))]
    totals = _kronecker(factors, product[::-1])
    den = lf * lg * r
    return EvenFunction(r, {e: _normalise(t, den) for e, t in zip(order, totals)})


class IdentityCheck(_Value):
    """One verified instance of an identity: subject, both sides, verdict."""

    __slots__ = ("subject", "left", "right", "passed")
    subject: tuple
    left: object
    right: object
    passed: bool

    def __init__(self, subject: tuple, left: object, right: object, passed: bool):
        _Value.__init__(self, subject, left, right, passed)


class VerificationReport(_Value):
    """Outcome of sweeping an identity over all its instances at one r."""

    __slots__ = ("name", "r", "checks")
    name: str
    r: int
    checks: tuple[IdentityCheck, ...]

    def __init__(self, name: str, r: int, checks: tuple[IdentityCheck, ...]):
        _Value.__init__(self, name, r, checks)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def counterexamples(self) -> list[IdentityCheck]:
        return [c for c in self.checks if not c.passed]

    def first_failure(self) -> IdentityCheck | None:
        return next((c for c in self.checks if not c.passed), None)


def _report(name: str, r: int, cases, tol: float | None = None) -> VerificationReport:
    """The report on (subject, left, right) cases at modulus r: each passes
    when left == right or, given tol, abs(complex(left) - complex(right)) <= tol."""
    checks = (
        IdentityCheck(s, a, b, a == b if tol is None else abs(complex(a) - complex(b)) <= tol)
        for s, a, b in cases
    )
    return VerificationReport(name, r, tuple(checks))


def verify_orthogonality(r: int) -> VerificationReport:
    """Exact check that the kernel rows are orthogonal under the
    phi-weighted divisor inner product:

        sum_{e | r} C(r/e, d1) C(r/e, d2) phi(e) = r phi(d1) if d1 = d2 else 0

    for every pair of divisors d1, d2 of r.
    """
    divs = divisors(r)
    rows = {d: [ramanujan_sum(r // e, d) for e in divs] for d in divs}
    weighted = {d: list(map(mul, row, map(euler_phi, divs))) for d, row in rows.items()}
    cases = (
        ((d1, d2), sum(map(mul, rows[d1], weighted[d2])), r * euler_phi(d1) if d1 == d2 else 0)
        for d1 in divs
        for d2 in divs
    )
    return _report("orthogonality", r, cases)


def verify_symmetry(r: int) -> VerificationReport:
    """Exact check of phi(e) C(r/e, d) = phi(d) C(r/d, e) over all divisor
    pairs (d, e) of r."""
    divs = divisors(r)
    cases = (
        ((d, e), euler_phi(e) * ramanujan_sum(r // e, d), euler_phi(d) * ramanujan_sum(r // d, e))
        for d in divs
        for e in divs
    )
    return _report("symmetry", r, cases)


def verify_rft_dft_bridge(f: EvenFunction, tol: float = BRIDGE_TOL) -> VerificationReport:
    """Tie the divisor-indexed transform to the DFT of the expansion.

    Checks, within tol: the DFT coefficient at k equals the divisor sum
    sum_{e | r} f(e) C(k, r/e); the DFT depends on k only through
    gcd(k, r); and the divisor-indexed coefficients are the DFT read at
    k = r/d.

    tol is absolute, while the floating DFT's error scales with the
    size of f: it is at most 5 eps log2(r) sqrt(r) ||f||_2 (see `dft`).
    For f with large values pass a tol scaled to match; the default
    1e-8 holds with wide margin for values of modest size at desk-scale
    r, such as the acceptance inputs (|f(d)| <= 12, r <= 128). A tol
    that is NaN, negative or infinite raises DomainError.
    """
    _check_tol(tol)
    r = f.r
    divs = divisors(r)
    dft_at = dft(to_periodic(f)).coeffs
    rft_at = rft(f).coeffs
    ks = range(1, r + 1)
    sums = (sum(f.values[e] * ramanujan_sum(k, r // e) for e in divs) for k in ks)
    cases = chain(
        ((("divisor-sum", k), dft_at[k - 1], total) for k, total in zip(ks, sums)),
        ((("gcd-invariance", k), dft_at[k - 1], dft_at[gcd(k, r) - 1]) for k in ks),
        ((("bridge", d), rft_at[d], dft_at[r // d - 1]) for d in divs),
    )
    return _report("bridge", r, cases, tol)


def verify_cauchy_kernel_even(r: int) -> VerificationReport:
    """Brute-force check of the convolution property of the kernel rows:

        sum_{a+b = n mod r} C(a, d1) C(b, d2) = r C(n, d1) if d1 = d2 else 0

    exactly, for every divisor pair and every residue n in 1..r: one
    `cauchy_product`, the direct double sum that knows nothing of the
    Ramanujan structure under test, per pair of rows expanded to r residues.
    """
    if r > CAUCHY_KERNEL_CAP:
        raise CapacityError(
            f"kernel verification is capped at r <= {CAUCHY_KERNEL_CAP}, got {_int_text(r)}"
        )
    divs = divisors(r)
    ns = range(1, r + 1)
    rows = {d: ResidueFunction(r, [ramanujan_sum(n, d) for n in ns]) for d in divs}
    cases = (
        ((d1, d2, n), left, r * c if d1 == d2 else 0)
        for d1 in divs
        for d2 in divs
        for n, left, c in zip(ns, cauchy_product(rows[d1], rows[d2]).values, rows[d1].values)
    )
    return _report("cauchy-kernel", r, cases)
