"""Tests for periodic functions: DFT/IDFT, inner product, Cauchy products."""

import cmath
import random
import time
from fractions import Fraction
from math import gcd, pi

import pytest

import ramfourier.periodic as periodic_mod
from ramfourier import (
    DomainError,
    PeriodicSpectrum,
    ResidueFunction,
    cauchy_product,
    cauchy_product_spectral,
    dft,
    divisors,
    even_witness,
    idft,
    inner_product_periodic,
    is_even,
    ramanujan_basis,
    ramanujan_sum,
    to_periodic,
)


def close(a, b, tol=1e-9):
    return abs(a - b) <= tol


def random_complex_function(r, rng):
    return ResidueFunction(
        r, tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(r))
    )


# The 24 moduli of the benchmark's periodic-float workload: powers of two,
# primes from 131 to 1021 and smooth composites.
BENCH_MODULI = (
    128, 131, 144, 180, 199, 240, 256, 257, 270, 331, 360, 401,
    432, 480, 509, 512, 600, 641, 720, 769, 840, 1000, 1021, 1024,
)


def oracle_dft(values):
    """The direct O(r^2) sum, twiddles taken at the reduced index (-k*n) mod r."""
    r = len(values)
    roots = [cmath.exp(2j * pi * (m / r)) for m in range(r)]
    vals = [complex(v) for v in values]
    coeffs = []
    for k in range(1, r + 1):
        acc = 0j
        for n in range(1, r + 1):
            acc += vals[n - 1] * roots[(-k * n) % r]
        coeffs.append(acc)
    return coeffs


def oracle_idft(coeffs):
    """The direct O(r^2) inverse sum, twiddles at the reduced index (k*n) mod r."""
    r = len(coeffs)
    roots = [cmath.exp(2j * pi * (m / r)) for m in range(r)]
    values = []
    for n in range(1, r + 1):
        acc = 0j
        for k in range(1, r + 1):
            acc += complex(coeffs[k - 1]) * roots[(k * n) % r]
        values.append(acc / r)
    return values


class TestResidueFunction:
    def test_length_must_match_modulus(self):
        with pytest.raises(DomainError):
            ResidueFunction(3, (1, 2))
        with pytest.raises(DomainError):
            ResidueFunction(0, ())

    def test_periodic_evaluation(self):
        f = ResidueFunction(4, (10, 20, 30, 40))
        assert f(1) == 10 and f(4) == 40
        assert f(5) == 10 and f(8) == 40
        for n in range(1, 9):
            assert f(n) == f(n + 4)

    def test_exactness_flag(self):
        assert ResidueFunction(2, (1, Fraction(1, 3))).is_exact
        assert not ResidueFunction(2, (1, 0.5)).is_exact


class TestDft:
    def test_constant(self):
        spectrum = dft(ResidueFunction(4, (1, 1, 1, 1)))
        expected = (0, 0, 0, 4)
        for got, want in zip(spectrum.coeffs, expected):
            assert close(got, want, 1e-12)

    def test_indicator(self):
        spectrum = dft(ResidueFunction(4, (1, 0, 0, 0)))
        expected = (-1j, -1, 1j, 1)
        for got, want in zip(spectrum.coeffs, expected):
            assert close(got, want, 1e-12)

    def test_single_point(self):
        spectrum = dft(ResidueFunction(1, (3.5,)))
        assert close(spectrum.coeffs[0], 3.5, 1e-15)


class TestIdft:
    def test_constant_spectrum(self):
        f = idft(PeriodicSpectrum(4, (0, 0, 0, 4)))
        for v in f.values:
            assert close(v, 1, 1e-12)

    def test_roundtrip_small(self):
        f = ResidueFunction(4, (1, 5, -2, 3))
        back = idft(dft(f))
        for got, want in zip(back.values, f.values):
            assert close(got, want, 1e-12)

    def test_single_point(self):
        f = idft(PeriodicSpectrum(1, (2 + 1j,)))
        assert close(f.values[0], 2 + 1j, 1e-15)

    def test_roundtrip_random(self):
        rng = random.Random(11)
        for r in range(1, 33):
            f = random_complex_function(r, rng)
            back = idft(dft(f))
            assert max(abs(a - b) for a, b in zip(back.values, f.values)) <= 1e-9


class TestAgainstDirectSum:
    """The FFT pair against the direct sums, within 1e-10 absolute."""

    @staticmethod
    def check(r, rng):
        f = random_complex_function(r, rng)
        got = dft(f).coeffs
        assert max(abs(a - b) for a, b in zip(got, oracle_dft(f.values))) <= 1e-10, r
        spectrum = PeriodicSpectrum(r, f.values)
        got = idft(spectrum).values
        assert max(abs(a - b) for a, b in zip(got, oracle_idft(f.values))) <= 1e-10, r

    def test_every_small_modulus(self):
        rng = random.Random(31)
        for r in range(1, 129):
            self.check(r, rng)

    def test_benchmark_moduli(self):
        rng = random.Random(32)
        for r in BENCH_MODULI:
            self.check(r, rng)

    def test_larger_moduli(self):
        # 289 and 323 run two Bluestein stages, so the first one has twiddles;
        # 1021 and 1024 set the benchmark's tail, prime against power of two.
        rng = random.Random(33)
        for r in (289, 323, 1021, 1024):
            self.check(r, rng)


def test_large_roundtrip_within_time_bound():
    # The direct sums would take hours here; 65521 is prime (Bluestein).
    start = time.perf_counter()
    rng = random.Random(34)
    for r in (65536, 65521):
        f = random_complex_function(r, rng)
        back = idft(dft(f))
        assert max(abs(a - b) for a, b in zip(back.values, f.values)) <= 1e-9
    assert time.perf_counter() - start < 20


def test_roots_cache_holds_the_benchmark_moduli():
    # A second pass over the 24 moduli must find every twiddle table cached.
    functions = [ResidueFunction(r, (1.0,) * r) for r in BENCH_MODULI]
    for f in functions:
        dft(f)
    misses = periodic_mod._roots.cache_info().misses
    for f in functions:
        dft(f)
    assert periodic_mod._roots.cache_info().misses == misses


def test_dft_injective_via_linearity():
    rng = random.Random(5)
    for r in (3, 8, 17):
        f = random_complex_function(r, rng)
        g = random_complex_function(r, rng)
        delta = ResidueFunction(r, tuple(a - b for a, b in zip(f.values, g.values)))
        sf, sg, sd = dft(f), dft(g), dft(delta)
        for a, b, d in zip(sf.coeffs, sg.coeffs, sd.coeffs):
            assert close(a - b, d, 1e-9)
        # f != g, so by the exact inversion the difference spectrum cannot vanish.
        assert max(abs(c) for c in sd.coeffs) > 1e-6


class TestInnerProduct:
    def test_normalized_exponentials_are_orthonormal(self):
        r = 6
        scale = r**-0.5
        basis = [
            ResidueFunction(
                r, tuple(scale * cmath.exp(2j * pi * k * n / r) for n in range(1, r + 1))
            )
            for k in range(1, r + 1)
        ]
        for i, f in enumerate(basis):
            for j, g in enumerate(basis):
                want = 1 if i == j else 0
                assert close(inner_product_periodic(f, g), want, 1e-12)

    def test_positive_definite(self):
        f = ResidueFunction(3, (Fraction(1, 2), -2, 3))
        assert inner_product_periodic(f, f) == Fraction(1, 4) + 4 + 9
        zero = ResidueFunction(3, (0, 0, 0))
        assert inner_product_periodic(zero, zero) == 0

    def test_constant_with_itself(self):
        for r in (1, 5, 12):
            ones = ResidueFunction(r, (1,) * r)
            assert inner_product_periodic(ones, ones) == r

    def test_conjugate_linear_in_second_argument(self):
        rng = random.Random(2)
        f = random_complex_function(5, rng)
        g = random_complex_function(5, rng)
        c = 2 + 1j
        cg = ResidueFunction(5, tuple(c * v for v in g.values))
        lhs = inner_product_periodic(f, cg)
        rhs = c.conjugate() * inner_product_periodic(f, g)
        assert close(lhs, rhs, 1e-12)

    def test_modulus_mismatch(self):
        with pytest.raises(DomainError):
            inner_product_periodic(
                ResidueFunction(2, (1, 1)), ResidueFunction(3, (1, 1, 1))
            )


class TestCauchyProduct:
    def test_indicator_translation(self):
        f = ResidueFunction(4, (1, 0, 0, 0))
        g = ResidueFunction(4, (0, 1, 0, 0))
        assert cauchy_product(f, g).values == (0, 0, 1, 0)

    def test_ramanujan_row_squares_to_scaled_row(self):
        row = ResidueFunction(4, to_periodic(ramanujan_basis(2, 4)).values)
        assert row.values == (-1, 1, -1, 1)
        assert cauchy_product(row, row).values == (-4, 4, -4, 4)

    def test_constants(self):
        ones = ResidueFunction(3, (1, 1, 1))
        assert cauchy_product(ones, ones).values == (3, 3, 3)

    def test_exact_values_stay_exact(self):
        f = ResidueFunction(3, (Fraction(1, 2), 1, Fraction(-1, 3)))
        h = cauchy_product(f, f)
        assert h.is_exact

    def test_modulus_mismatch(self):
        with pytest.raises(DomainError):
            cauchy_product(ResidueFunction(2, (1, 1)), ResidueFunction(3, (1, 1, 1)))


HUGE = 10**400  # past the float range, so complex() overflows on it


class TestFloatRange:
    """The floating routes refuse an exact value outside the float range
    with DomainError naming its position, before any transform work."""

    def test_dft_names_the_first_residue(self):
        with pytest.raises(DomainError, match="value at residue 2 ") as info:
            dft(ResidueFunction(3, (1, HUGE, -HUGE)))
        assert info.value.index == 1
        # Residue r is converted first, yet residue 1 is the one named.
        with pytest.raises(DomainError, match="value at residue 1 ") as info:
            dft(ResidueFunction(2, (Fraction(HUGE, 3), HUGE)))
        assert info.value.index == 0

    def test_idft_names_k(self):
        with pytest.raises(DomainError, match="coefficient at k = 3 ") as info:
            idft(PeriodicSpectrum(3, (1, 2j, -HUGE)))
        assert info.value.index == 2

    def test_spectral_cauchy_product(self):
        f, g = ResidueFunction(2, (1, 2)), ResidueFunction(2, (1, HUGE))
        for args in ((f, g), (g, f)):
            with pytest.raises(DomainError, match="value at residue 2 "):
                cauchy_product_spectral(*args)

    def test_a_huge_fraction_near_one_converts(self):
        spectrum = dft(ResidueFunction(1, (Fraction(HUGE + 1, HUGE),)))
        assert spectrum.coeffs == (1 + 0j,)


class TestCauchyProductSpectral:
    def test_agrees_with_naive(self):
        cases = [
            (ResidueFunction(4, (1, 0, 0, 0)), ResidueFunction(4, (0, 1, 0, 0))),
            (
                ResidueFunction(4, to_periodic(ramanujan_basis(2, 4)).values),
                ResidueFunction(4, to_periodic(ramanujan_basis(2, 4)).values),
            ),
            (ResidueFunction(3, (1, 1, 1)), ResidueFunction(3, (1, 1, 1))),
        ]
        for f, g in cases:
            naive = cauchy_product(f, g)
            spectral = cauchy_product_spectral(f, g)
            assert max(abs(a - b) for a, b in zip(naive.values, spectral.values)) <= 1e-9

    def test_agrees_with_naive_random(self):
        rng = random.Random(23)
        for r in (1, 2, 7, 16, 33):
            f = random_complex_function(r, rng)
            g = random_complex_function(r, rng)
            naive = cauchy_product(f, g)
            spectral = cauchy_product_spectral(f, g)
            assert max(abs(a - b) for a, b in zip(naive.values, spectral.values)) <= 1e-9

    def test_identity_element(self):
        # The inverse transform of the all-ones spectrum is the indicator of
        # n = 0 mod r, the unit of the Cauchy product.
        rng = random.Random(9)
        r = 6
        unit = idft(PeriodicSpectrum(r, (1,) * r))
        f = random_complex_function(r, rng)
        h = cauchy_product(f, unit)
        assert max(abs(a - b) for a, b in zip(h.values, f.values)) <= 1e-9

    def test_single_point(self):
        f = ResidueFunction(1, (2.0,))
        g = ResidueFunction(1, (3.0,))
        assert close(cauchy_product_spectral(f, g).values[0], 6.0, 1e-12)


def test_exponential_kernel_identity():
    # sum over a+b = n of e_k(a) e_j(b) is r e_k(n) when k = j, else 0.
    for r in range(1, 31):
        roots = [cmath.exp(2j * pi * (m / r)) for m in range(r)]
        rows = [[roots[(k * a) % r] for a in range(r)] for k in range(1, r + 1)]
        for ki in range(r):
            rk = rows[ki]
            for ji in range(r):
                rj = rows[ji]
                for n in range(1, r + 1):
                    total = sum(rk[a % r] * rj[(n - a) % r] for a in range(1, r + 1))
                    want = r * rk[n % r] if ki == ji else 0
                    assert abs(total - want) <= 1e-9


class TestIsEven:
    def test_gcd_function_is_even(self):
        f = ResidueFunction.from_callable(6, lambda n: gcd(n, 6))
        assert is_even(f)

    def test_identity_is_not_even(self):
        f = ResidueFunction(3, (1, 2, 3))
        assert not is_even(f)
        assert even_witness(f) == 2

    def test_ramanujan_rows_are_even(self):
        for d in divisors(12):
            row = ResidueFunction(12, tuple(ramanujan_sum(n, d) for n in range(1, 13)))
            assert is_even(row)

    def test_floating_tolerance(self):
        f = ResidueFunction(4, (1.0, 2.0, 1.0 + 1e-15, 4.0))
        assert is_even(f)
        assert not is_even(f, tol=1e-16)

    def test_even_implies_periodic(self):
        f = ResidueFunction.from_callable(8, lambda n: gcd(n, 8) ** 2)
        assert is_even(f)
        for n in range(1, 17):
            assert f(n) == f(n + 8)
