"""Periodic functions mod r: DFT/IDFT, inner product, Cauchy products.

Values sit at residues n = 1..r, with index r doubling as residue 0, so
all sums below run over 1..r with no off-by-one bookkeeping. Transforms
are direct O(r^2) sums whose twiddles exp(2*pi*i*m/r) are taken at the
reduced index m = (k*n) mod r, which keeps roundtrip error near machine
epsilon at desk-scale moduli. Exact values (int or Fraction) survive
every operation here except the DFT pair and the spectral Cauchy route,
which are inherently floating.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, pi
from typing import Callable, Union

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


@dataclass(frozen=True)
class ResidueFunction:
    """A function on residues mod r, stored as its values at n = 1..r."""

    r: int
    values: tuple[Scalar, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", _residue_values(self.r, self.values))

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


@dataclass(frozen=True)
class PeriodicSpectrum:
    """Transform coefficients at k = 1..r, index r standing in for k = 0."""

    r: int
    coeffs: tuple[Scalar, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _residue_values(self.r, self.coeffs))

    def __call__(self, k: int) -> Scalar:
        """Coefficient at any integer k; coefficients are periodic in k."""
        return self.coeffs[(k - 1) % self.r]


def dft(f: ResidueFunction) -> PeriodicSpectrum:
    """Fourier coefficients F(k) = sum_n f(n) exp(-2*pi*i*k*n/r), k = 1..r."""
    r = f.r
    roots = _roots(r)
    vals = [complex(v) for v in f.values]
    coeffs = []
    for k in range(1, r + 1):
        acc = 0j
        for n in range(1, r + 1):
            acc += vals[n - 1] * roots[(-k * n) % r]
        coeffs.append(acc)
    return PeriodicSpectrum(r, tuple(coeffs))


def idft(spectrum: PeriodicSpectrum) -> ResidueFunction:
    """Inverse transform: f(n) = (1/r) sum_k F(k) exp(2*pi*i*k*n/r)."""
    r = spectrum.r
    roots = _roots(r)
    values = []
    for n in range(1, r + 1):
        acc = 0j
        for k in range(1, r + 1):
            acc += complex(spectrum.coeffs[k - 1]) * roots[(k * n) % r]
        values.append(acc / r)
    return ResidueFunction(r, tuple(values))


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
