"""Tests for periodic functions: DFT/IDFT, inner product, Cauchy products."""

import cmath
import random
import time
from fractions import Fraction
from math import fsum, gcd, log2, pi, sqrt
from operator import mul, neg, sub

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


def oracle_cauchy(f, g):
    """The direct O(r^2) cyclic convolution, summed over a = 1..r for each n."""
    r = len(f)
    return [sum(f[a - 1] * g[(n - a - 1) % r] for a in range(1, r + 1)) for n in range(1, r + 1)]


def fsum_dot(a, b):
    """sum_i a[i] * b[i] with each real product rounded once and the real
    and imaginary parts each summed exactly by fsum."""
    ar, ai = [v.real for v in a], [v.imag for v in a]
    br, bi = [v.real for v in b], [v.imag for v in b]
    real = fsum([*map(mul, ar, br), *map(mul, map(neg, ai), bi)])
    imag = fsum([*map(mul, ar, bi), *map(mul, ai, br)])
    return complex(real, imag)


def oracle_dft_fsum(values):
    """The sums of `oracle_dft`, each exact but for its twiddles and products."""
    r = len(values)
    roots = [cmath.exp(2j * pi * (m / r)) for m in range(r)]
    return [
        fsum_dot(values, [roots[(-k * n) % r] for n in range(1, r + 1)])
        for k in range(1, r + 1)
    ]


def oracle_cauchy_fsum(f, g):
    """The sums of `oracle_cauchy`, each exact but for its products."""
    r = len(f)
    return [fsum_dot(f, [g[(n - a - 1) % r] for a in range(1, r + 1)]) for n in range(1, r + 1)]


def norm2(values):
    return sqrt(fsum(abs(v) ** 2 for v in values))


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


class TestPeriodicSpectrum:
    def test_periodic_evaluation(self):
        # Index r stands in for k = 0, and coefficients repeat with period r.
        spectrum = PeriodicSpectrum(3, (1j, 2, 3.5))
        assert [spectrum(k) for k in range(-3, 7)] == [3.5, 1j, 2] * 3 + [3.5]


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
        # 289 and 323 run two Rader stages, so the first one has twiddles;
        # 1021 and 1024 set the benchmark's tail, prime against power of two.
        rng = random.Random(33)
        for r in (289, 323, 1021, 1024):
            self.check(r, rng)


def spy_on_transform(monkeypatch) -> list:
    """The lengths of the `_transform` calls made from now on, nested ones too."""
    lengths = []
    transform = periodic_mod._transform

    def spy(x, batch=1):
        lengths.append(len(x) // batch)
        return transform(x, batch)

    monkeypatch.setattr(periodic_mod, "_transform", spy)
    return lengths


@pytest.mark.parametrize("r, inner", [(641, 640), (184, 22)])
def test_rader_convolves_once_at_a_smooth_p_minus_1(monkeypatch, r, inner):
    # 640 = 2^7 * 5, so the prime 641 convolves at 640, never near 2 * 641;
    # 184 = 8 * 23 convolves all 8 columns of its 23-point stage in one call.
    # A cold plan transforms the kernel too; a cached one saves that transform.
    f = random_complex_function(r, random.Random(36))
    periodic_mod._rader_plan.cache_clear()
    lengths = spy_on_transform(monkeypatch)
    dft(f)
    assert sorted(lengths) == [inner, inner, inner, r]
    lengths.clear()
    dft(f)
    assert sorted(lengths) == [inner, inner, r]


@pytest.mark.parametrize("r", [131, 184, 289, 641, 1021])
def test_cached_rader_plans_give_identical_outputs(r):
    f = random_complex_function(r, random.Random(r))
    for transform, arg in ((dft, f), (idft, PeriodicSpectrum(r, f.values))):
        periodic_mod._rader_plan.cache_clear()
        cold = transform(arg)
        assert transform(arg) == cold, (transform.__name__, r)


class TestStatedErrorBound:
    """The stated bounds against the fsum references, eps = 2**-53, for
    values in the unit box: `dft` keeps ||F' - F||_2 <= 5 eps log2(r)
    sqrt(r) ||f||_2, `idft` ||f' - f||_2 <= 5 eps log2(r) ||F||_2 / sqrt(r),
    and `cauchy_product_spectral` ||h' - h||_2 <= 5 eps log2(r) sqrt(r)
    ||f||_2 ||g||_2."""

    # Every r <= 64, the benchmark's nine primes, and lengths whose prime
    # factor above 13 runs as one stage of several.
    LENGTHS = (*range(1, 65), 131, 199, 257, 331, 401, 509, 641, 769, 1021, 184, 289, 464)
    CAUCHY_LENGTHS = (*range(1, 65), 131, 184, 509)

    @staticmethod
    def bound(r):
        return 5 * 2.0**-53 * log2(r) * sqrt(r)

    def test_dft_and_idft(self):
        rng = random.Random(35)
        for r in self.LENGTHS:
            f = random_complex_function(r, rng)
            want = oracle_dft_fsum(f.values)
            bound = self.bound(r) * norm2(f.values)
            assert norm2(map(sub, dft(f).coeffs, want)) <= bound, r
            # The inverse sum at n is the forward one at k = -n mod r.
            want = [v / r for v in (*want[-2::-1], want[-1])]
            got = idft(PeriodicSpectrum(r, f.values)).values
            assert norm2(map(sub, got, want)) <= bound / r, r

    def test_cauchy_product_spectral(self):
        rng = random.Random(37)
        for r in self.CAUCHY_LENGTHS:
            f = random_complex_function(r, rng)
            g = random_complex_function(r, rng)
            want = oracle_cauchy_fsum(f.values, g.values)
            got = cauchy_product_spectral(f, g).values
            bound = self.bound(r) * norm2(f.values) * norm2(g.values)
            assert norm2(map(sub, got, want)) <= bound, r


def test_large_roundtrip_within_time_bound():
    # The direct sums would take hours here; 65521 is prime (Rader, at 65520).
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


def test_rader_plan_cache_holds_the_benchmark_moduli():
    # A second pass over the 24 moduli must find the plan of each of the
    # nine primes cached.
    functions = [ResidueFunction(r, (1.0,) * r) for r in BENCH_MODULI]
    for f in functions:
        dft(f)
    misses = periodic_mod._rader_plan.cache_info().misses
    for f in functions:
        dft(f)
    assert periodic_mod._rader_plan.cache_info().misses == misses


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

    @pytest.mark.parametrize("kind", ["int", "Fraction", "float", "complex"])
    def test_bit_identical_to_the_double_sum(self, kind):
        rng = random.Random(kind)
        draw = {
            "int": lambda: rng.randint(-99, 99),
            "Fraction": lambda: Fraction(rng.randint(-99, 99), rng.randint(1, 99)),
            "float": lambda: rng.uniform(-1, 1) * 10 ** rng.randint(-8, 8),
            "complex": lambda: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
        }[kind]
        # Fraction sums are exact in any order, and at r = 1024 each side
        # takes seconds, so Fractions stop at r = 128.
        for r in (1, 2, 3, 17, 128) if kind == "Fraction" else (1, 2, 3, 17, 128, 1024):
            f, g = (tuple(draw() for _ in range(r)) for _ in range(2))
            got = cauchy_product(ResidueFunction(r, f), ResidueFunction(r, g)).values
            want = oracle_cauchy(f, g)
            assert list(got) == want, r
            assert [type(v) for v in got] == [type(v) for v in want], r


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
        messages = set()
        for args, name in (((f, g), "g"), ((g, f), "f")):
            with pytest.raises(DomainError, match=f"value of {name} at residue 2 ") as info:
                cauchy_product_spectral(*args)
            assert info.value.index == 1
            messages.add(str(info.value))
        # The message says which argument holds the value.
        assert len(messages) == 2

    def test_mixed_routes_name_the_value(self):
        # An exact value past the float range next to a floating one.
        small, mixed = ResidueFunction(2, (1.5, 2)), ResidueFunction(2, (0.5, HUGE))
        for route in (cauchy_product, inner_product_periodic):
            for args, name in (((small, mixed), "g"), ((mixed, small), "f")):
                with pytest.raises(DomainError) as info:
                    route(*args)
                assert str(info.value) == (
                    f"value of {name} at residue 2 is outside the floating-point range"
                )
                assert info.value.index == 1
        # Residue 2 is compared with residue 1, a float.
        with pytest.raises(DomainError, match="^value at residue 1 is outside ") as info:
            even_witness(ResidueFunction(3, (-Fraction(HUGE, 3), 0.5, 1)))
        assert info.value.index == 0

    def test_an_exact_sum_past_the_float_range_is_named_as_such(self):
        # Each value fits a float, but their exact product does not.
        f = ResidueFunction(2, (10**200, 0.5))
        for route in (cauchy_product, inner_product_periodic):
            with pytest.raises(DomainError, match="^exact values mixed with floating ones"):
                route(f, f)

    def test_exact_and_float_input_stay_unchanged(self):
        f = ResidueFunction(2, (HUGE, HUGE))
        assert cauchy_product(f, f).values == (2 * HUGE**2, 2 * HUGE**2)
        assert inner_product_periodic(f, f) == 2 * HUGE**2
        assert even_witness(ResidueFunction(3, (HUGE, 1, 1))) == 2

    def test_a_huge_fraction_near_one_converts(self):
        spectrum = dft(ResidueFunction(1, (Fraction(HUGE + 1, HUGE),)))
        assert spectrum.coeffs == (1 + 0j,)


class TestRouteBoundary:
    """The boundary every route shares holds however its arguments are passed."""

    def test_keywords_pass_through(self):
        f = ResidueFunction(3, (1.0, 1.25, 1.0))
        assert even_witness(f, tol=0.5) is None
        assert even_witness(f=f, tol=0.1) == 2
        a, b = ResidueFunction(2, (1, 2)), ResidueFunction(2, (3, 4))
        assert cauchy_product(g=b, f=a) == cauchy_product(a, g=b) == cauchy_product(a, b)

    def test_keywords_keep_the_names_f_and_g(self):
        small, mixed = ResidueFunction(2, (1.5, 2)), ResidueFunction(2, (0.5, HUGE))
        for route in (cauchy_product, cauchy_product_spectral, inner_product_periodic):
            with pytest.raises(DomainError, match="^value of g at residue 2 ") as info:
                route(g=mixed, f=small)
            assert info.value.index == 1
            with pytest.raises(DomainError, match="^modulus mismatch: 2 != 3$"):
                route(g=ResidueFunction(3, (1, 1, 1)), f=small)


class TestCauchyProductSpectral:
    def test_modulus_mismatch(self):
        with pytest.raises(DomainError) as info:
            cauchy_product_spectral(ResidueFunction(2, (1, 1)), ResidueFunction(3, (1, 1, 1)))
        assert str(info.value) == "modulus mismatch: 2 != 3"

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

    def test_agrees_with_the_double_sum_at_long_lengths(self):
        # Smooth lengths convolve at r; 17, 34, 199, 509 and 1021 have a prime
        # factor above 13, so they convolve at a power of two >= 2r - 1.
        rng = random.Random(24)
        for r in (1, 2, 17, 34, 199, 509, 1021, 1024):
            f = random_complex_function(r, rng)
            g = random_complex_function(r, rng)
            got = cauchy_product_spectral(f, g).values
            want = oracle_cauchy(f.values, g.values)
            assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-10, r

    def test_three_transforms_at_a_prime(self, monkeypatch):
        # A prime r convolves at the power of two >= 2r - 1, with no Rader stage.
        rng = random.Random(25)
        f, g = random_complex_function(509, rng), random_complex_function(509, rng)
        lengths = spy_on_transform(monkeypatch)
        cauchy_product_spectral(f, g)
        assert lengths == [1024] * 3


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

    @pytest.mark.parametrize("tol", [float("nan"), -1.0, -1e-300, float("inf"), -float("inf")])
    def test_a_tolerance_that_is_not_finite_and_nonnegative_is_refused(self, tol):
        # NaN would call every pair even, inf any pair, and a negative tol none.
        for f in (ResidueFunction(2, (1.0, 1.0)), ResidueFunction(2, (1, 1))):
            for route in (even_witness, is_even):
                with pytest.raises(DomainError, match="^tol must be finite and >= 0, got "):
                    route(f, tol)

    def test_a_zero_tolerance_compares_exactly(self):
        assert is_even(ResidueFunction(2, (1.0, 1.0)), tol=0)
        assert is_even(ResidueFunction(2, (1.0, 1.0)), tol=-0.0)
        assert even_witness(ResidueFunction(3, (1.0, 1.0, 3.0)), 0) is None
        assert even_witness(ResidueFunction(3, (1.0, 1.0 + 2**-52, 3.0)), 0) == 2

    def test_even_implies_periodic(self):
        f = ResidueFunction.from_callable(8, lambda n: gcd(n, 8) ** 2)
        assert is_even(f)
        for n in range(1, 17):
            assert f(n) == f(n + 8)
