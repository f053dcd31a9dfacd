"""Periodic functions mod r: DFT/IDFT, inner product, Cauchy products.

Values sit at residues n = 1..r, with index r doubling as residue 0, so
all sums below run over 1..r with no off-by-one bookkeeping. The DFT
pair runs on one O(r log r) core, `_transform`: a self-sorting
mixed-radix Cooley-Tukey FFT (Cooley and Tukey, 1965) with one stage per
prime factor of r, so powers of two get iterative radix-2 stages. A
prime factor p above a small cutoff takes Rader's rule (1968), which
turns its stage into a cyclic convolution of length p - 1. `_convolve`
is the one cyclic convolution, and the spectral Cauchy product uses it
too: a length n with no prime factor above the cutoff runs at n, any
other at the least power of two >= 2n - 1, so it never recurses. It
batches its rows, so all columns of a Rader stage share its two
transforms. Twiddles are read by stride from the `_roots` table of the
transform's length. Rader's kernel is computed at the reduced angle
g^j mod p, so no angle is taken beyond one turn, and its transform is
cached per prime in `_rader_plan`.
Exact values (int or Fraction) survive every operation here except the
DFT pair and the spectral Cauchy route, which are inherently floating.
Boundary rule: every public route here and in `even` runs behind
`_route`, which refuses unequal moduli and an exact value past the float
range where it meets a floating one, naming its position and f or g.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache, wraps
from itertools import compress, count, repeat
from math import inf, pi
from operator import add, itemgetter, mul, ne, sub
from typing import Callable, Union

from .arith import _gcd_classes, factorize
from .errors import DomainError, _int_text

__all__ = [
    "Scalar",
    "ResidueFunction",
    "PeriodicSpectrum",
    "dft",
    "idft",
    "inner_product_periodic",
    "cauchy_product",
    "cauchy_product_spectral",
    "is_even",
    "even_witness",
    "DEFAULT_FLOAT_TOL",
    "EVENNESS_TOL",
]

Scalar = Union[int, Fraction, float, complex]

_EXACT_TYPES = (int, Fraction)

# Absolute comparison tolerances for floating results at desk-scale r.
DEFAULT_FLOAT_TOL = 1e-9
EVENNESS_TOL = 1e-12


@lru_cache(maxsize=64)
def _roots(r: int) -> tuple[complex, ...]:
    """exp(2*pi*i*j/r) for j = 0..r-1."""
    return tuple(cmath.exp(2j * pi * (j / r)) for j in range(r))


# Prime factors up to this size get a direct butterfly inside the
# Cooley-Tukey stages; larger ones go through Rader's rule.
_DIRECT_MAX = 13


def _transform(x: list[complex], batch: int = 1) -> list[complex]:
    """G(k) = sum_j x[j] exp(2*pi*i*k*j/n), k = 0..n-1, for each of batch
    interleaved sequences of length n = len(x) / batch: sequence c is
    x[c + batch*j], and its G(k) lands at index c + batch*k.

    Self-sorting (Stockham) mixed-radix Cooley-Tukey, one
    decimation-in-frequency stage per prime factor p of n. With stride
    s = batch*t and m = n/(t*p), a stage takes the p-point transform of
    each column x[q + s*(k + a*m)], a = 0..p-1, scales entry b by the
    twiddle exp(2*pi*i*b*k*t/n), read from _roots(n) by stride, and
    writes it to y[q + s*(p*k + b)]; then s and t grow by p. Python loops
    over the shorter of q < s and k < m, and map() and slices run the
    longer. x is used as scratch.
    """
    n = len(x) // batch
    radices = [p for p, e in factorize(n) for _ in range(e)]
    # A prime n above the cutoff reads no twiddles.
    roots = _roots(n) if len(radices) > 1 or n <= _DIRECT_MAX else ()
    y = [0j] * len(x)
    s, t = batch, 1
    for p in radices:
        m = n // (t * p)
        w = roots[:: t * m]  # exp(2*pi*i*a/p), a = 0..p-1
        if p > _DIRECT_MAX:
            _rader_stage(x, y, s, t, m, p, roots)
        elif s <= m:
            tw = [roots[0 : b * t * m : b * t] for b in range(1, p)]
            for q in range(s):
                cols = [x[q + a * s * m : q + (a + 1) * s * m : s] for a in range(p)]
                for b, out in enumerate(_butterfly(cols, w)):
                    y[q + b * s :: s * p] = map(mul, out, tw[b - 1]) if b else out
        else:
            for k in range(m):
                cols = [x[s * (k + a * m) : s * (k + a * m + 1)] for a in range(p)]
                for b, out in enumerate(_butterfly(cols, w)):
                    if b * k:
                        out = map(mul, out, repeat(roots[b * k * t]))
                    y[s * (p * k + b) : s * (p * k + b + 1)] = out
        x, y = y, x
        s *= p
        t *= p
    return x


def _butterfly(cols: list, w: list) -> list:
    """sum_a cols[a] * w[a*b % p] for b = 0..p-1, elementwise; p = len(cols)."""
    p = len(cols)
    if p == 2:
        return [map(add, *cols), map(sub, *cols)]
    outs = []
    for b in range(p):
        acc = cols[0]
        for a in range(1, p):
            j = a * b % p
            acc = map(add, acc, map(mul, cols[a], repeat(w[j])) if j else cols[a])
        outs.append(acc)
    return outs


def _primitive_root(p: int) -> int:
    """The least generator of the multiplicative group mod the prime p."""
    qs = [q for q, _ in factorize(p - 1)]
    g = 2
    while any(pow(g, (p - 1) // q, p) == 1 for q in qs):
        g += 1
    return g


def _rader_stage(x: list, y: list, s: int, t: int, m: int, p: int, roots) -> None:
    """One Cooley-Tukey stage of prime radix p by Rader's rule (1968).

    With g a primitive root mod p and a(i) = g^-i mod p, i = 0..p-2, the
    p-point transform C of a column c has C(0) = sum_a c(a) and
    C(a(l)) = c(0) + sum over i + j = -l (mod p - 1) of
    c(a(i)) exp(2*pi*i*g^j/p): c(0) plus entry l of the cyclic sums
    `_convolve` computes. Every column of the stage goes through one
    call, against the kernel spectrum that `_rader_plan` caches per p.
    """
    sm = s * m
    gather, scatter, v_hat = _rader_plan(p)
    # Column c = q + s*k holds x[c + a*s*m], a = 0..p-1; _convolve takes
    # the gathered columns interleaved, column c's entry i at c + sm*i.
    cols = [x[c::sm] for c in range(sm)]
    z = [0j] * (sm * (p - 1))
    for c, col in enumerate(cols):
        z[c::sm] = gather(col)
    h = _convolve(z, v_hat, sm)
    for c, col in enumerate(cols):
        k, q = divmod(c, s)
        out = [sum(col), *map(add, scatter(h[c::sm]), repeat(col[0]))]
        if k:
            out = map(mul, out, roots[0 : p * k * t : k * t])
        y[q + s * p * k : q + s * p * (k + 1) : s] = out


@lru_cache(maxsize=16)
def _rader_plan(p: int) -> tuple:
    """What a Rader stage of prime radix p needs, built once per p: the
    gather of a column's entries at a(i) = g^-i mod p, i = 0..p-2, the
    scatter of the convolution's entries l to a(l), and the kernel
    exp(2*pi*i*g^j/p), computed at the reduced angle g^j mod p and
    transformed by `_kernel_spectrum`.

    An entry holds about 146 KB at p = 1021 and 7.6 MB at p = 65521; at
    most 16 are kept.
    """
    g_inv = pow(_primitive_root(p), -1, p)
    order = [1]  # a(i)
    for _ in range(p - 2):
        order.append(order[-1] * g_inv % p)
    v = [cmath.exp(2j * pi * (order[-j] / p)) for j in range(p - 1)]  # g^j = a(-j)
    slot = [0] * p  # slot[a(l)] = l
    for l, a in enumerate(order):
        slot[a] = l
    return itemgetter(*order), itemgetter(*slot[1:]), _kernel_spectrum(v)


def _kernel_spectrum(v: list[complex]) -> tuple[complex, ...]:
    """The transform of the kernel v of a cyclic convolution of length
    n = len(v), at the convolution's size and scaled by 1/size.

    A 13-smooth n convolves at n; any other n at the least power of two,
    size, >= 2n - 1, with v laid out as (v(0), zeros, v(2..n-1),
    v(0..n-1)): its entry at -m mod size is then v(-m mod n) for every
    m = i + j <= 2n - 2. So nothing recurses into another convolution.
    v is used as scratch.
    """
    n = len(v)
    if all(q <= _DIRECT_MAX for q, _ in factorize(n)):
        size = n
    else:
        size = 1 << (2 * n - 2).bit_length()
        v = [v[0], *repeat(0j, size - 2 * n + 1), *v[2:], *v]
    # Forward transforms all three ways give size * h(l); v's takes the 1/size.
    return tuple(a / size for a in _transform(v))


def _convolve(z: list[complex], v_hat: tuple[complex, ...], rows: int = 1) -> list[complex]:
    """h(l) = sum over i + j = -l (mod n) of u(i) v(j), l = 0..n-1, for each
    of `rows` interleaved rows u(i) = z[c + rows*i], n = len(z) / rows: the
    cyclic convolution of u and v read at -l, with v_hat =
    `_kernel_spectrum(v)`. Row c's h(l) lands at c + rows*l.

    Two transforms, the rows' there and back, batched at v_hat's length,
    with the rows padded by zeros when that exceeds n. z is used as
    scratch.
    """
    n, size = len(z) // rows, len(v_hat)
    z += repeat(0j, rows * (size - n))
    z = _transform(z, rows)
    for c in range(rows):
        z[c::rows] = map(mul, z[c::rows], v_hat)
    return _transform(z, rows)[: rows * n]


def _conj(v: Scalar) -> Scalar:
    return v.conjugate() if isinstance(v, complex) else v


def _non_finite(v: Scalar) -> bool:
    # ints and Fractions are always finite, and cmath.isfinite would
    # overflow converting a huge one.
    return isinstance(v, (float, complex)) and not cmath.isfinite(v)


def _check_tol(tol: float) -> float:
    """tol when it is finite and >= 0, the one test every tolerance meets:
    NaN would pass every comparison, inf any difference, and a negative
    tol none. Anything else raises DomainError."""
    if not 0 <= tol < inf:
        raise DomainError(f"tol must be finite and >= 0, got {tol!r}")
    return tol


def _same_modulus(f, g):
    if f.r != g.r:
        raise DomainError(f"modulus mismatch: {_int_text(f.r)} != {_int_text(g.r)}")


def _residue_values(r: int, values) -> tuple:
    """values as a tuple of r entries, one per residue: the one count check."""
    if r < 1:
        raise DomainError(f"modulus must be >= 1, got {_int_text(r)}")
    values = tuple(values)
    if len(values) != r:
        raise DomainError(f"expected {_int_text(r)} values, found {len(values)}")
    return values


_setattr = object.__setattr__  # the one way past _Value.__setattr__


class _Value:
    """An immutable record of the fields a subclass names in __slots__.

    __init__ sets them once, in slot order; assignment or deletion raises
    AttributeError naming the field. Equality (same type only), hashing,
    repr, pickling and copying all read the tuple of field values.
    """

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values):
            _setattr(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # Rebuilt through the constructor, which checks the fields again.
        return type(self), self._fields()


class ResidueFunction(_Value):
    """A function on residues mod r, stored as its values at n = 1..r."""

    __slots__ = ("r", "values")
    _label = ("value", "residue")
    r: int
    values: tuple[Scalar, ...]

    def __init__(self, r: int, values):
        _Value.__init__(self, r, _residue_values(r, values))

    @classmethod
    def from_callable(cls, r: int, fn: Callable[[int], Scalar]) -> "ResidueFunction":
        """Tabulate fn at n = 1..r."""
        return cls(r, tuple(fn(n) for n in range(1, r + 1)))

    def __call__(self, n: int) -> Scalar:
        """Evaluate at any integer n by periodicity (residues are 1-based)."""
        return self.values[(n - 1) % self.r]

    @property
    def is_exact(self) -> bool:
        """True when every value is an int or a Fraction."""
        return all(isinstance(v, _EXACT_TYPES) for v in self.values)


class PeriodicSpectrum(_Value):
    """Transform coefficients at k = 1..r, index r standing in for k = 0."""

    __slots__ = ("r", "coeffs")
    _label = ("coefficient", "k =")
    r: int
    coeffs: tuple[Scalar, ...]

    def __init__(self, r: int, coeffs):
        _Value.__init__(self, r, _residue_values(r, coeffs))

    def __call__(self, k: int) -> Scalar:
        """Coefficient at any integer k; coefficients are periodic in k."""
        return self.coeffs[(k - 1) % self.r]


def _range_error(*named) -> DomainError:
    """The DomainError for an OverflowError where exact values met floating ones.

    named holds (where, values) pairs, searched in order; values is a
    tuple at residues 1..r or a dict keyed by divisor. The error names
    the first int or Fraction outside the float range by where and its
    residue or divisor, with its position as index. If every value fits
    and only an exact sum or product of them overflowed, it says so.
    Callers catch OverflowError first, so in-range input pays nothing.
    """
    for where, values in named:
        keyed = values.items() if isinstance(values, dict) else enumerate(values, start=1)
        for i, (key, v) in enumerate(keyed):
            if isinstance(v, _EXACT_TYPES):
                try:
                    float(v)
                except OverflowError:
                    message = f"{where} {key} is outside the floating-point range"
                    return DomainError(message, index=i)
    return DomainError("exact values mixed with floating ones overflow the floating-point range")


def _route(fn):
    """fn behind the boundary rule above. A value object's last field is named
    by its class's (noun, position) `_label`, and of two, by parameter too."""
    params = fn.__code__.co_varnames[: fn.__code__.co_argcount]

    @wraps(fn)
    def route(*args, **kwargs):
        given = dict(zip(params, args), **kwargs)
        inputs = [(p, given[p]) for p in params if isinstance(given.get(p), _Value)]
        of = " of {}" if len(inputs) == 2 else ""
        if of:
            _same_modulus(inputs[0][1], inputs[1][1])
        try:
            return fn(*args, **kwargs)
        except OverflowError:
            named = [
                (f"{v._label[0]}{of.format(p)} at {v._label[1]}", v._fields()[-1])
                for p, v in inputs
            ]
            raise _range_error(*named) from None

    return route


def _complex_values(values: tuple) -> list[complex]:
    """The entries at 1..r as complex numbers, in the order r, 1, ..., r - 1."""
    return [complex(values[-1]), *map(complex, values[:-1])]


@_route
def dft(f: ResidueFunction) -> PeriodicSpectrum:
    """Fourier coefficients F(k) = sum_n f(n) exp(-2*pi*i*k*n/r), k = 1..r.

    O(r log r) through `_transform`. A prime factor p > 13 of r runs by
    Rader's rule, as one cyclic convolution of length p - 1: at p - 1
    when that is 13-smooth, else at the least power of two >= 2p - 3.
    With eps = 2**-53, the computed coefficients satisfy
    ||F' - F||_2 <= 5 eps log2(r) sqrt(r) ||f||_2, which bounds every
    |F'(k) - F(k)| as well: below 8.1e-12 at r <= 1024 for values in the
    unit box. The form is the normwise bound for Cooley-Tukey (Higham,
    Accuracy and Stability of Numerical Algorithms, Thm 24.2). The
    constant is measured, not proved: against an fsum reference it
    stayed below 4.2 over 400 inputs at each r <= 64, 3000 at each of
    19, 37, 109 and 163, 10 at each r <= 256 and at each benchmark
    prime, and 3 at each r < 700. The worst, 4.15, was at r = 163, whose
    Rader stage takes three transforms of length 162 (one of them the
    kernel's, cached per prime) where a smooth length takes one.
    """
    # F(k) = G(-k) for the transform G of the residues 0..r-1.
    g = _transform(_complex_values(f.values))
    return PeriodicSpectrum(f.r, tuple(reversed(g)))


@_route
def idft(spectrum: PeriodicSpectrum) -> ResidueFunction:
    """Inverse transform: f(n) = (1/r) sum_k F(k) exp(2*pi*i*k*n/r).

    The same core as `dft`, Rader stages included, which computes this
    sum directly, then one division by r; so
    ||f' - f||_2 <= 5 eps log2(r) ||F||_2 / sqrt(r).
    """
    r = spectrum.r
    g = _transform(_complex_values(spectrum.coeffs))
    g.append(g[0])
    return ResidueFunction(r, tuple(v / r for v in g[1:]))


@_route
def inner_product_periodic(f: ResidueFunction, g: ResidueFunction) -> Scalar:
    """<f, g> = sum_n f(n) * conj(g(n)); conjugate-linear in g.

    Exact inputs give an exact result. Mixed input past the float range
    is refused at the boundary.
    """
    return sum(fv * _conj(gv) for fv, gv in zip(f.values, g.values))


@_route
def cauchy_product(f: ResidueFunction, g: ResidueFunction) -> ResidueFunction:
    """(f o g)(n) = sum over a = 1..r of f(a) g(n - a), indices mod r.

    The direct double sum, r^2 multiply-adds; exact inputs stay exact.
    Terms a = 1..r read g(n - 1), ..., g(n - r): g reversed and rotated to
    start at g(n - 1), so one sum(map(mul, ...)) adds the same products in
    the same order as a loop over a, and floats come out bit-identical.
    Mixed input past the float range is refused at the boundary.
    """
    r = f.r
    # Residue m sits at index r - m of g reversed (residue r, i.e. 0, at 0).
    twice = g.values[::-1] * 2
    windows = (twice[r + 1 - n : 2 * r + 1 - n] for n in range(1, r + 1))
    return ResidueFunction(r, (sum(map(mul, f.values, w)) for w in windows))


@_route
def cauchy_product_spectral(f: ResidueFunction, g: ResidueFunction) -> ResidueFunction:
    """Cauchy product through the transform domain, where coefficients
    multiply: one `_convolve` of f's values with g's.

    That is three transforms: at length r when r is 13-smooth, else at
    the least power of two >= 2r - 1, so a prime r takes no Rader stage.
    With eps = 2**-53 the result h' satisfies
    ||h' - h||_2 <= 5 eps log2(r) sqrt(r) ||f||_2 ||g||_2, measured as
    `dft`'s bound is: it stayed below 3.9 over 30 inputs at each r <= 64,
    the worst at r = 3. An exact value past the float range is refused
    at the boundary.
    """
    # Both lists hold the residues in the order 0, 1, ..., r - 1.
    a = _complex_values(f.values)
    b = _complex_values(g.values)
    # h(l) is the product at -l, so residues 1..r read h backwards.
    return ResidueFunction(f.r, _convolve(a, _kernel_spectrum(b))[::-1])


@_route
def even_witness(f: ResidueFunction, tol: float = EVENNESS_TOL) -> int | None:
    """First residue with f(n) != f(gcd(n, r)), or None when f is even.

    gcd(n, r) comes from the one divisor sieve, `arith._gcd_classes`, and
    the residues are compared lazily in increasing order, so the first
    witness ends the scan. Exact values compare exactly; floating values
    within tol, which must be finite and >= 0. Mixed input past the
    float range is refused at the boundary.
    """
    _check_tol(tol)
    at_gcd = map((f.values[-1], *f.values).__getitem__, _gcd_classes(f.r))  # f at 0..r
    if f.is_exact:
        differs = map(ne, f.values, at_gcd)
    else:
        differs = (not abs(a - b) <= tol for a, b in zip(f.values, at_gcd))
    return next(compress(count(1), differs), None)


def is_even(f: ResidueFunction, tol: float = EVENNESS_TOL) -> bool:
    """True iff f(n) = f(gcd(n, r)) for every residue n in 1..r."""
    return even_witness(f, tol) is None
