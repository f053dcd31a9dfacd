"""Acceptance suite.

Each test runs one criterion at its stated size and tolerance and prints
a single pass/fail line (visible with `pytest -s` or `-rP`).
"""

import random
import time
import tracemalloc
from contextlib import contextmanager
from fractions import Fraction

import ramfourier.even as even_mod
from ramfourier import (
    EvenFunction,
    ResidueFunction,
    cauchy_product,
    cauchy_product_even,
    cauchy_product_spectral,
    dft,
    divisors,
    euler_phi,
    from_periodic,
    idft,
    irft,
    ramanujan_sum,
    ramanujan_sum_oracle,
    rft,
    to_periodic,
    verify_cauchy_kernel_even,
    verify_orthogonality,
    verify_rft_dft_bridge,
    verify_symmetry,
)


@contextmanager
def criterion(num, description):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d} FAIL: {description}")
        raise
    print(f"criterion {num:2d} pass: {description} ({time.perf_counter() - start:.2f}s)")


def random_even(r, rng, span=12):
    return EvenFunction(
        r, {d: Fraction(rng.randint(-span, span), rng.randint(1, span)) for d in divisors(r)}
    )


def random_complex(r, rng):
    return ResidueFunction(
        r, tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(r))
    )


def test_criterion_1_formula_matches_oracle():
    with criterion(1, "Mobius formula matches the exponential sum, 1 <= n <= r <= 300"):
        start = time.perf_counter()
        for r in range(1, 301):
            for n in range(1, r + 1):
                approx = ramanujan_sum_oracle(n, r)
                assert abs(approx.imag) <= 1e-6
                assert abs(approx.real - ramanujan_sum(n, r)) <= 1e-6
        assert time.perf_counter() - start < 10


def test_criterion_2_orthogonality():
    with criterion(2, "orthogonality relation exact for every divisor pair, r <= 200"):
        start = time.perf_counter()
        for r in range(1, 201):
            assert verify_orthogonality(r).passed
        assert time.perf_counter() - start < 5


def test_criterion_3_exact_roundtrip():
    with criterion(3, "100 exact transform roundtrips per r, r in 1..200 and {360, 500}"):
        start = time.perf_counter()
        rng = random.Random(3)
        for r in list(range(1, 201)) + [360, 500]:
            for _ in range(100):
                f = random_even(r, rng)
                assert irft(rft(f)) == f
        assert time.perf_counter() - start < 30


def grouped_transform(f):
    """R(d) = phi(d)^{-1} sum_{e | r} f(e) phi(r/e) C(e, d): the defining
    r-term sum grouped by gcd(n, r) = e, with one division per d."""
    r, divs = f.r, divisors(f.r)
    coeffs = {}
    for d in divs:
        total = sum(f.values[e] * euler_phi(r // e) * ramanujan_sum(e, d) for e in divs)
        q = Fraction(total, euler_phi(d))
        coeffs[d] = q.numerator if q.denominator == 1 else q
    return coeffs


def test_criterion_4_transform_paths_agree():
    with criterion(4, "grouped and divisor-form transforms agree exactly, r <= 500"):
        start = time.perf_counter()
        rng = random.Random(4)
        for r in range(1, 501):
            for _ in range(3):
                f = random_even(r, rng)
                got, want = rft(f).coeffs, grouped_transform(f)
                assert got == want
                assert all(type(got[d]) is type(want[d]) for d in want)
        assert time.perf_counter() - start < 30


def test_criterion_5_dft_roundtrip():
    with criterion(5, "DFT/IDFT roundtrip within 1e-9, every r in 1..128"):
        start = time.perf_counter()
        rng = random.Random(5)
        for r in range(1, 129):
            f = random_complex(r, rng)
            back = idft(dft(f))
            assert max(abs(a - b) for a, b in zip(back.values, f.values)) <= 1e-9
        assert time.perf_counter() - start < 10


def test_criterion_6_bridge():
    with criterion(6, "coefficients equal the DFT at r/d and depend on gcd(k, r) only, r <= 128"):
        rng = random.Random(6)
        for r in range(1, 129):
            report = verify_rft_dft_bridge(random_even(r, rng), tol=1e-8)
            assert report.passed


def test_criterion_7_convolution_theorems():
    with criterion(7, "convolution theorems in both domains, r <= 64 and r <= 100"):
        rng = random.Random(7)
        for r in range(1, 65):
            f = random_complex(r, rng)
            g = random_complex(r, rng)
            h = cauchy_product(f, g)
            spectrum_product = [a * b for a, b in zip(dft(f).coeffs, dft(g).coeffs)]
            assert (
                max(abs(a - b) for a, b in zip(dft(h).coeffs, spectrum_product)) <= 1e-9
            )
            spectral = cauchy_product_spectral(f, g)
            assert max(abs(a - b) for a, b in zip(spectral.values, h.values)) <= 1e-9
        for r in range(1, 101):
            f = random_even(r, rng)
            g = random_even(r, rng)
            h = cauchy_product_even(f, g)
            rf, rg, rh = rft(f), rft(g), rft(h)
            assert all(
                rh.coeffs[d] == rf.coeffs[d] * rg.coeffs[d] for d in divisors(r)
            )
            naive = from_periodic(cauchy_product(to_periodic(f), to_periodic(g)))
            assert h == naive


def test_criterion_8_cauchy_kernel():
    with criterion(8, "kernel convolution property exact for all pairs and residues, r <= 60"):
        for r in range(1, 61):
            assert verify_cauchy_kernel_even(r).passed


def test_criterion_9_symmetry():
    with criterion(9, "phi/kernel symmetry identity exact for all divisor pairs, r <= 200"):
        for r in range(1, 201):
            assert verify_symmetry(r).passed


def test_criterion_10_performance_path(monkeypatch):
    with criterion(10, "divisor-form transform at r = 720720 under 1 s and tau-sized storage"):
        def forbidden(*args, **kwargs):
            raise AssertionError("length-r path invoked at the large modulus")

        monkeypatch.setattr(even_mod, "rft_naive", forbidden)
        monkeypatch.setattr(even_mod, "to_periodic", forbidden)

        r = 720720
        rng = random.Random(42)
        f = EvenFunction(r, {d: rng.randint(-99, 99) for d in divisors(r)})

        tracemalloc.start()
        try:
            start = time.perf_counter()
            spectrum = rft(f)
            elapsed = time.perf_counter() - start
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()

        assert elapsed < 1.0
        # Anything proportional to r would need at least ~5.8 MB (a bare
        # list of r pointers); the divisor-indexed path stays well below.
        assert peak < 4_000_000
        assert len(spectrum.coeffs) == 240
        assert all(isinstance(v, int) for v in spectrum.coeffs.values())
        assert irft(spectrum) == f
