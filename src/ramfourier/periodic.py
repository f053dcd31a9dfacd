"""Periodic functions mod r: DFT/IDFT, inner product, Cauchy products.

Values sit at residues n = 1..r, with index r doubling as residue 0, so
all sums below run over 1..r with no off-by-one bookkeeping. The DFT
pair runs on one O(r log r) core, `_transform`: a self-sorting
mixed-radix Cooley-Tukey FFT (Cooley and Tukey, 1965) with one stage per
prime factor of r, so powers of two get iterative radix-2 stages. Prime
factors above a small cutoff go through Bluestein's chirp-z (1970) onto
a power-of-two length. Twiddles are read by stride from the `_roots`
table of the transform's length, and the chirp is computed at the
reduced angle j^2 mod 2p, so no angle is taken beyond one turn.
Exact values (int or Fraction) survive every operation here except the
DFT pair and the spectral Cauchy route, which are inherently floating;
those refuse an exact value outside the float range with DomainError.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from math import gcd, pi
from operator import add, mul, sub
from typing import Callable, Union

from .arith import factorize
from .errors import DomainError

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
# Cooley-Tukey stages; larger ones go through Bluestein's chirp-z.
_DIRECT_MAX = 13


def _transform(x: list[complex]) -> list[complex]:
    """G(k) = sum_n x[n] exp(2*pi*i*k*n/N) for k = 0..N-1, N = len(x).

    Self-sorting (Stockham) mixed-radix Cooley-Tukey, one
    decimation-in-frequency stage per prime factor p of N. With stride
    s and m = N/(s*p), a stage takes the p-point transform of each
    column x[q + s*(k + a*m)], a = 0..p-1, scales entry b by the twiddle
    exp(2*pi*i*b*k*s/N), read from _roots(N) by stride, and writes it
    to y[q + s*(p*k + b)]; then s grows by p. Python loops over the
    shorter of q < s and k < m, and map() and slices run the longer.
    x is used as scratch.
    """
    n = len(x)
    radices = [p for p, e in factorize(n) for _ in range(e)]
    # A prime n above the cutoff reads no twiddles.
    roots = _roots(n) if len(radices) > 1 or n <= _DIRECT_MAX else ()
    y = [0j] * n
    s = 1
    for p in radices:
        m = n // (s * p)
        w = roots[:: s * m]  # exp(2*pi*i*a/p), a = 0..p-1
        if p > _DIRECT_MAX:
            _bluestein_stage(x, y, s, m, p, roots)
        elif s <= m:
            tw = [roots[0 : b * s * m : b * s] for b in range(1, p)]
            for q in range(s):
                cols = [x[q + a * s * m : q + (a + 1) * s * m : s] for a in range(p)]
                for b, out in enumerate(_butterfly(cols, w)):
                    y[q + b * s :: s * p] = map(mul, out, tw[b - 1]) if b else out
        else:
            for k in range(m):
                cols = [x[s * (k + a * m) : s * (k + a * m + 1)] for a in range(p)]
                for b, out in enumerate(_butterfly(cols, w)):
                    if b * k:
                        out = map(mul, out, repeat(roots[b * k * s]))
                    y[s * (p * k + b) : s * (p * k + b + 1)] = out
        x, y = y, x
        s *= p
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


def _bluestein_stage(x: list, y: list, s: int, m: int, p: int, roots) -> None:
    """One Cooley-Tukey stage of prime radix p by Bluestein's chirp-z.

    With a*b = (a^2 + b^2 - (b-a)^2)/2, the p-point transform is the chirp
    c(b) = exp(pi*i*b^2/p) times the linear convolution of x*c with
    conj(c), done as a cyclic one whose length, size, is the least power
    of two >= 2p - 1. Each call computes c at the reduced angle
    j^2 mod 2p and transforms conj(c) afresh: nothing is cached per
    prime, so the twiddle tables are the only memory kept.
    """
    chirp = [cmath.exp(1j * pi * (j * j % (2 * p) / p)) for j in range(p)]
    h = list(map(complex.conjugate, chirp))
    size = 1 << (2 * p - 2).bit_length()
    h += [0j] * (size - 2 * p + 1) + h[:0:-1]
    # The inverse transform is the forward one read at -j, divided by size.
    h_hat = [v / size for v in _transform(h)]
    pad = [0j] * (size - p)
    for q in range(s):
        for k in range(m):
            z = _transform([*map(mul, x[q + s * k :: s * m], chirp), *pad])
            z[:] = map(mul, z, h_hat)  # in place: one fewer length-size list alive
            z = _transform(z)
            out = map(mul, [z[0], *z[size - 1 : size - p : -1]], chirp)
            if k:
                out = map(mul, out, roots[0 : p * k * s : k * s])
            y[q + s * p * k : q + s * p * (k + 1) : s] = out


def _conj(v: Scalar) -> Scalar:
    return v.conjugate() if isinstance(v, complex) else v


def _non_finite(v: Scalar) -> bool:
    # ints and Fractions are always finite, and cmath.isfinite would
    # overflow converting a huge one.
    return isinstance(v, (float, complex)) and not cmath.isfinite(v)


def _same_modulus(f, g):
    if f.r != g.r:
        raise DomainError(f"modulus mismatch: {f.r} != {g.r}")


def _residue_values(r: int, values) -> tuple:
    """values as a tuple of r entries, one per residue: the one count check."""
    if r < 1:
        raise DomainError(f"modulus must be >= 1, got {r}")
    values = tuple(values)
    if len(values) != r:
        raise DomainError(f"expected {r} values, found {len(values)}")
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
    r: int
    coeffs: tuple[Scalar, ...]

    def __init__(self, r: int, coeffs):
        _Value.__init__(self, r, _residue_values(r, coeffs))

    def __call__(self, k: int) -> Scalar:
        """Coefficient at any integer k; coefficients are periodic in k."""
        return self.coeffs[(k - 1) % self.r]


def _complex_values(values: tuple, where: str) -> list[complex]:
    """The entries at 1..r as complex numbers, in the order r, 1, ..., r - 1.

    An int or Fraction outside the float range raises DomainError naming
    the first such position, before any transform work.
    """
    try:
        return [complex(values[-1]), *map(complex, values[:-1])]
    except OverflowError:
        for i, v in enumerate(values):
            try:
                complex(v)
            except OverflowError:
                message = f"{where} {i + 1} is outside the floating-point range"
                raise DomainError(message, index=i) from None
        raise


def dft(f: ResidueFunction) -> PeriodicSpectrum:
    """Fourier coefficients F(k) = sum_n f(n) exp(-2*pi*i*k*n/r), k = 1..r.

    O(r log r) through `_transform`. With eps = 2**-53, the computed
    coefficients satisfy ||F' - F||_2 <= 4 eps log2(r) sqrt(r) ||f||_2,
    which bounds every |F'(k) - F(k)| as well: below 7e-12 at r <= 1024
    for values in the unit box. The form is the normwise bound for
    Cooley-Tukey (Higham, Accuracy and Stability of Numerical Algorithms,
    Thm 24.2). The constant is measured, not proved: against an fsum
    reference it stayed below 2.3 over every r <= 256, 19 lengths up to
    2048, and 40 inputs at each of 11 lengths with Bluestein stages; the
    worst was at the Bluestein length 17.
    """
    # F(k) = G(-k) for the transform G of the residues 0..r-1.
    g = _transform(_complex_values(f.values, "value at residue"))
    return PeriodicSpectrum(f.r, tuple(reversed(g)))


def idft(spectrum: PeriodicSpectrum) -> ResidueFunction:
    """Inverse transform: f(n) = (1/r) sum_k F(k) exp(2*pi*i*k*n/r).

    The same core as `dft`, which computes this sum directly, then one
    division by r; so ||f' - f||_2 <= 4 eps log2(r) ||F||_2 / sqrt(r).
    """
    r = spectrum.r
    g = _transform(_complex_values(spectrum.coeffs, "coefficient at k ="))
    g.append(g[0])
    return ResidueFunction(r, tuple(v / r for v in g[1:]))


def inner_product_periodic(f: ResidueFunction, g: ResidueFunction) -> Scalar:
    """<f, g> = sum_n f(n) * conj(g(n)); conjugate-linear in g.

    Exact inputs give an exact result.
    """
    _same_modulus(f, g)
    return sum(fv * _conj(gv) for fv, gv in zip(f.values, g.values))


def cauchy_product(f: ResidueFunction, g: ResidueFunction) -> ResidueFunction:
    """(f o g)(n) = sum over a = 1..r of f(a) g(n - a), indices mod r.

    The direct double sum; exact inputs give exact values.
    """
    _same_modulus(f, g)
    r = f.r
    values = []
    for n in range(1, r + 1):
        values.append(
            sum(f.values[a - 1] * g.values[(n - a - 1) % r] for a in range(1, r + 1))
        )
    return ResidueFunction(r, tuple(values))


def cauchy_product_spectral(f: ResidueFunction, g: ResidueFunction) -> ResidueFunction:
    """Cauchy product via the transform domain: coefficients multiply."""
    _same_modulus(f, g)
    ff, gg = dft(f), dft(g)
    product = PeriodicSpectrum(f.r, tuple(a * b for a, b in zip(ff.coeffs, gg.coeffs)))
    return idft(product)


def even_witness(f: ResidueFunction, tol: float = EVENNESS_TOL) -> int | None:
    """First residue with f(n) != f(gcd(n, r)), or None when f is even.

    Exact values compare exactly; floating values within tol.
    """
    exact = f.is_exact
    for n in range(1, f.r + 1):
        a = f.values[n - 1]
        b = f.values[gcd(n, f.r) - 1]
        if exact:
            if a != b:
                return n
        elif not abs(a - b) <= tol:
            return n
    return None


def is_even(f: ResidueFunction, tol: float = EVENNESS_TOL) -> bool:
    """True iff f(n) = f(gcd(n, r)) for every residue n in 1..r."""
    return even_witness(f, tol) is None
