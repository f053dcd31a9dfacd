"""Tests for divisor-indexed even functions and their transform."""

import copy
import pickle
import random
import tracemalloc
from collections import defaultdict
from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ramfourier.arith as arith_mod
import ramfourier.even as even_mod
import ramfourier.periodic as periodic_mod
import ramfourier.ramanujan as ramanujan_mod
from ramfourier import (
    FACTORIZE_CAP,
    CAUCHY_KERNEL_CAP,
    CapacityError,
    DomainError,
    EvenFunction,
    EvenSpectrum,
    IdentityCheck,
    NotEvenError,
    PeriodicSpectrum,
    ResidueFunction,
    VerificationReport,
    cauchy_product,
    cauchy_product_even,
    divisors,
    euler_phi,
    from_periodic,
    inner_product_even,
    inner_product_periodic,
    irft,
    is_even,
    ramanujan_basis,
    ramanujan_sum,
    rft,
    rft_divisor_form,
    rft_naive,
    to_periodic,
    verify_cauchy_kernel_even,
    verify_orthogonality,
    verify_rft_dft_bridge,
    verify_symmetry,
)

GCD4 = EvenFunction(4, {1: 1, 2: 2, 4: 4})


def random_even(r, rng, span=9):
    return EvenFunction(
        r, {d: Fraction(rng.randint(-span, span), rng.randint(1, span)) for d in divisors(r)}
    )


rationals = st.fractions(min_value=-10, max_value=10, max_denominator=24)


class TestEvenFunction:
    def test_requires_every_divisor(self):
        # The index is the position of the offending pair, None when a
        # divisor is missing, so the file readers can name its line.
        cases = [
            ({1: 1, 2: 2}, "missing divisors [4]", None),
            ({1: 1, 2: 2, 3: 0, 4: 4}, "3 does not divide 4", 2),
            ([(4, 4), (1, 1), (2, 2), (4, 0)], "duplicate divisor 4", 3),
            ([(0, 1), (1, 1), (2, 2), (4, 4)], "0 does not divide 4", 0),
            # A lookup of the missing 4 must not make __missing__ invent it.
            (defaultdict(int, {1: 1, 2: 2, 3: 0}), "3 does not divide 4", 2),
        ]
        for values, message, index in cases:
            for cls in (EvenFunction, EvenSpectrum):
                with pytest.raises(DomainError) as info:
                    cls(4, values)
                assert str(info.value) == message and info.value.index == index

    def test_values_are_read_only_in_divisor_order(self):
        for values in ({4: 4, 1: 1, 2: 2}, [(2, 2), (4, 4), (1, 1)]):
            f = EvenFunction(4, values)
            assert f == GCD4 and list(f.values) == [1, 2, 4]
            assert isinstance(f.values, dict)
        mutations = [
            lambda v: v.__setitem__(1, 99),
            lambda v: v.__delitem__(1),
            lambda v: v.__ior__({1: 99}),
            lambda v: v.update({1: 99}),
            lambda v: v.setdefault(3, 99),
            lambda v: v.pop(1),
            lambda v: v.popitem(),
            lambda v: v.clear(),
        ]
        for mutate in mutations:
            with pytest.raises(TypeError, match="read-only"):
                mutate(GCD4.values)
        assert GCD4.values == {1: 1, 2: 2, 4: 4}

    def test_evaluation_through_gcd(self):
        assert GCD4(6) == 2
        assert GCD4(7) == 1
        assert GCD4(8) == 4

    def test_ramanujan_basis(self):
        assert ramanujan_basis(4, 4).values == {1: 0, 2: -2, 4: 2}
        with pytest.raises(DomainError):
            ramanujan_basis(3, 4)


class TestConversions:
    def test_from_periodic(self):
        f = ResidueFunction.from_callable(4, lambda n: gcd(n, 4))
        assert from_periodic(f) == GCD4

    def test_from_periodic_ramanujan_row(self):
        row = ResidueFunction(4, to_periodic(ramanujan_basis(4, 4)).values)
        assert from_periodic(row).values == {1: 0, 2: -2, 4: 2}

    def test_from_periodic_rejects_nan(self):
        # NaN compares unequal to everything, itself included.
        f = ResidueFunction(2, (float("nan"), 1.0))
        assert not is_even(f)
        with pytest.raises(NotEvenError) as info:
            from_periodic(f)
        assert info.value.witness == 1
        assert "f(1) = nan is not a finite value" in str(info.value)
        for values, witness in (((float("inf"), 1.0), 1), ((1.0, float("-inf")), 2)):
            with pytest.raises(NotEvenError) as info:
                from_periodic(ResidueFunction(2, values))
            assert info.value.witness == witness
            assert "is not a finite value" in str(info.value)
            assert "differs" not in str(info.value)

    def test_from_periodic_rejects_uneven(self):
        with pytest.raises(NotEvenError) as info:
            from_periodic(ResidueFunction(3, (1, 2, 3)))
        assert info.value.witness == 2
        assert "f(2)" in str(info.value)

    def test_to_periodic(self):
        assert to_periodic(GCD4).values == (1, 2, 1, 4)
        assert to_periodic(EvenFunction(1, {1: 5})).values == (5,)
        spectrum_row = EvenFunction(4, {1: 0, 2: -2, 4: 2})
        assert to_periodic(spectrum_row).values == to_periodic(ramanujan_basis(4, 4)).values
        assert to_periodic(spectrum_row).values == (0, -2, 0, 2)

    def test_roundtrips(self):
        rng = random.Random(1)
        for r in (1, 2, 12, 36):
            e = random_even(r, rng)
            assert from_periodic(to_periodic(e)) == e


class TestRft:
    def test_gcd_example(self):
        assert rft(GCD4).coeffs == {1: 8, 2: 4, 4: 2}

    def test_matches_naive_reference(self):
        assert rft_naive(GCD4).coeffs == {1: 8, 2: 4, 4: 2}
        rng = random.Random(4)
        for r in (1, 2, 9, 24, 45, 60):
            f = random_even(r, rng)
            assert rft(f) == rft_naive(f)

    def test_constant_concentrates_at_one(self):
        for r in (1, 6, 28):
            f = EvenFunction.from_callable(r, lambda d: 1)
            want = {d: (r if d == 1 else 0) for d in divisors(r)}
            assert rft(f).coeffs == want

    def test_top_basis_row_concentrates_at_r(self):
        f = ramanujan_basis(6, 6)
        assert rft(f).coeffs == {1: 0, 2: 0, 3: 0, 6: 6}

    def test_integer_input_gives_integer_coefficients(self):
        rng = random.Random(8)
        for r in (12, 30):
            f = EvenFunction(r, {d: rng.randint(-20, 20) for d in divisors(r)})
            assert all(isinstance(v, int) for v in rft(f).coeffs.values())
            assert rft(f) == rft_naive(f)


class TestRftDivisorForm:
    def test_is_the_rft_alias(self):
        assert rft_divisor_form is rft

    def test_gcd_example_term_by_term(self):
        # d = 1: f(4) C(4,1) + f(2) C(4,2) + f(1) C(4,4) = 4 + 2 + 2 = 8.
        f = GCD4
        terms = [
            f.values[4 // e] * ramanujan_sum(4 // 1, e) for e in divisors(4)
        ]
        assert terms == [4, 2, 2]
        assert rft_divisor_form(f).coeffs == {1: 8, 2: 4, 4: 2}

    def test_constant_mod_six(self):
        f = EvenFunction.from_callable(6, lambda d: 1)
        assert rft_divisor_form(f).coeffs == {1: 6, 2: 0, 3: 0, 6: 0}

    def test_agrees_with_grouped_path(self):
        rng = random.Random(6)
        for r in (1, 2, 8, 36, 100, 360):
            f = random_even(r, rng)
            got = rft_divisor_form(f).coeffs
            want = {d: canonical(v) for d, v in oracle_forward(r, f.values).items()}
            assert got == want
            assert [type(v) for v in got.values()] == [type(v) for v in want.values()]


class TestIrft:
    def test_gcd_example_inverse(self):
        spectrum = EvenSpectrum(4, {1: 8, 2: 4, 4: 2})
        assert irft(spectrum) == GCD4
        # Worked single entry: f(2) = (8 + 4*1 + 2*(-2)) / 4 = 2.
        assert irft(spectrum).values[2] == 2

    def test_inverse_of_constant(self):
        for r in (1, 10):
            spectrum = EvenSpectrum(r, {d: (r if d == 1 else 0) for d in divisors(r)})
            assert irft(spectrum).values == {d: 1 for d in divisors(r)}

    def test_exact_roundtrips(self):
        rng = random.Random(3)
        for r in (1, 2, 7, 12, 60, 97, 360):
            f = random_even(r, rng)
            assert irft(rft(f)) == f
            spectrum = rft(f)
            assert rft(irft(spectrum)) == spectrum

    @settings(deadline=None, max_examples=60)
    @given(r=st.integers(min_value=1, max_value=120), data=st.data())
    def test_exact_roundtrip_property(self, r, data):
        f = EvenFunction(r, {d: data.draw(rationals) for d in divisors(r)})
        assert irft(rft(f)) == f
        assert rft(f).coeffs == oracle_forward(r, f.values)


ORACLE_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 97)
# The tau^2 oracle below stays quick up to this many divisors.
ORACLE_TAU_CAP = 96


@st.composite
def factored_moduli(draw):
    """r with up to 6 distinct primes, exponents up to 6, tau(r) <= ORACLE_TAU_CAP."""
    primes = draw(st.lists(st.sampled_from(ORACLE_PRIMES), unique=True, max_size=6))
    exponents = [draw(st.integers(min_value=1, max_value=6)) for _ in primes]
    while (
        prod(e + 1 for e in exponents) > ORACLE_TAU_CAP
        or prod(p**e for p, e in zip(primes, exponents)) > FACTORIZE_CAP
    ):
        exponents[exponents.index(max(exponents))] -= 1
    return prod(p**e for p, e in zip(primes, exponents))


def canonical(v):
    return v.numerator if isinstance(v, Fraction) and v.denominator == 1 else v


def oracle_forward(r, values):
    """R(d) = sum_{e | r} f(r/e) C(r/d, e), one Ramanujan sum per term."""
    divs = divisors(r)
    return {
        d: sum(values[r // e] * ramanujan_sum(r // d, e) for e in divs) for d in divs
    }


def oracle_inverse(r, coeffs):
    """f(e) = r^{-1} sum_{d | r} R(d) C(e, d), one Ramanujan sum per term."""
    divs = divisors(r)
    return {e: sum(coeffs[d] * ramanujan_sum(e, d) for d in divs) for e in divs}


SCALARS = {
    "int": st.integers(min_value=-99, max_value=99),
    "fraction": rationals,
    "complex": st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
}


class TestKroneckerCore:
    @pytest.mark.parametrize("kind", sorted(SCALARS))
    @settings(deadline=None, max_examples=25)
    @given(r=factored_moduli(), data=st.data())
    def test_matches_tau_squared_oracle(self, kind, r, data):
        divs = divisors(r)
        values = {d: data.draw(SCALARS[kind]) for d in divs}
        # rft and irft share the Kronecker passes; the oracle reads
        # divisors and ramanujan_sum alone.
        forward = rft(EvenFunction(r, values)).coeffs
        inverse = irft(EvenSpectrum(r, values)).values
        want_forward = oracle_forward(r, values)
        want_inverse = oracle_inverse(r, values)
        if kind == "complex":
            scale = 1e-12 * r * len(divs) * (1 + max(abs(v) for v in values.values()))
            for d in divs:
                assert abs(forward[d] - want_forward[d]) <= scale
                assert abs(inverse[d] - want_inverse[d] / r) <= scale / r
            return
        for d in divs:
            for got, want in (
                (forward[d], canonical(Fraction(want_forward[d]))),
                (inverse[d], canonical(Fraction(want_inverse[d], r))),
            ):
                assert got == want
                assert type(got) is type(want)

    def test_roundtrip_at_tau_1920_stays_tau_sized(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("length-r or tau^2 path invoked")

        monkeypatch.setattr(even_mod, "rft_naive", forbidden)
        monkeypatch.setattr(even_mod, "to_periodic", forbidden)
        monkeypatch.setattr(even_mod, "ramanujan_sum", forbidden)

        r = 720720 * 17 * 19 * 23
        rng = random.Random(1920)
        f = EvenFunction(r, {d: rng.randint(-99, 99) for d in divisors(r)})
        assert len(f.values) == 1920

        tracemalloc.start()
        try:
            spectrum = rft(f)
            back = irft(spectrum)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()

        assert back == f
        assert all(type(v) is int for v in back.values.values())
        # A tau x tau kernel table alone would hold 3.7 million entries.
        assert peak < 4_000_000
        # 16 coefficients, the ends and 8 divisors between, against the
        # divisor sum; this module's ramanujan_sum is not the patched name.
        divs = divisors(r)
        for d in divs[:4] + divs[-4:] + tuple(rng.sample(divs[4:-4], 8)):
            want = sum(f.values[r // e] * ramanujan_sum(r // d, e) for e in divs)
            assert spectrum.coeffs[d] == want

    def test_caches_are_bounded(self):
        caches = []
        for module in (arith_mod, periodic_mod, even_mod, ramanujan_mod):
            caches += [
                obj
                for obj in vars(module).values()
                if hasattr(obj, "cache_info") and obj.__module__ == module.__name__
            ]
        assert {arith_mod.factorize, arith_mod.divisors} <= set(caches)
        assert {arith_mod.mobius, arith_mod.euler_phi} <= set(caches)
        assert periodic_mod._roots in caches
        assert even_mod._layout in caches and ramanujan_mod._coprime_residues in caches
        for cache in caches:
            assert cache.cache_info().maxsize is not None, cache.__name__


class TestInnerProductEven:
    def test_constant_gives_modulus(self):
        for r in (1, 6, 20):
            ones = EvenFunction.from_callable(r, lambda d: 1)
            assert inner_product_even(ones, ones) == r
            # Exact input divides once: an integral result is an int.
            twos = EvenFunction.from_callable(r, lambda d: Fraction(4, 2))
            got = inner_product_even(twos, ones)
            assert got == 2 * r and type(got) is int

    def test_basis_row_norm(self):
        c4 = ramanujan_basis(4, 4)
        assert inner_product_even(c4, c4) == 8 == 4 * euler_phi(4)

    def test_distinct_rows_orthogonal(self):
        c1 = ramanujan_basis(1, 4)
        c2 = ramanujan_basis(2, 4)
        assert inner_product_even(c1, c2) == 0
        # Cross-check by the residue-domain sum over n = 1..4.
        brute = sum(ramanujan_sum(n, 1) * ramanujan_sum(n, 2) for n in range(1, 5))
        assert brute == 0

    def test_normalization_over_all_pairs(self):
        for r in (1, 12, 45):
            for d1 in divisors(r):
                for d2 in divisors(r):
                    got = inner_product_even(ramanujan_basis(d1, r), ramanujan_basis(d2, r))
                    assert got == (r * euler_phi(d1) if d1 == d2 else 0)

    def test_normalized_rows_are_orthonormal_in_floating_point(self):
        for r in (12, 45):
            for d1 in divisors(r):
                scale1 = (r * euler_phi(d1)) ** -0.5
                f = EvenFunction.from_callable(r, lambda e: scale1 * ramanujan_sum(e, d1))
                for d2 in divisors(r):
                    scale2 = (r * euler_phi(d2)) ** -0.5
                    g = EvenFunction.from_callable(r, lambda e: scale2 * ramanujan_sum(e, d2))
                    want = 1 if d1 == d2 else 0
                    assert abs(inner_product_even(f, g) - want) <= 1e-10

    def test_agrees_with_periodic_inner_product(self):
        rng = random.Random(14)
        for r in (1, 2, 18, 40):
            f = random_even(r, rng)
            g = random_even(r, rng)
            assert inner_product_even(f, g) == inner_product_periodic(
                to_periodic(f), to_periodic(g)
            )

    def test_modulus_mismatch(self):
        with pytest.raises(DomainError):
            inner_product_even(GCD4, EvenFunction(6, {d: 0 for d in divisors(6)}))


class TestCauchyProductEven:
    def test_basis_row_squares_to_scaled_row(self):
        c2 = ramanujan_basis(2, 4)
        assert c2.values == {1: -1, 2: 1, 4: 1}
        h = cauchy_product_even(c2, c2)
        assert h.values == {1: -4, 2: 4, 4: 4}
        assert to_periodic(h).values == (-4, 4, -4, 4)

    def test_constants(self):
        ones = EvenFunction.from_callable(6, lambda d: 1)
        assert cauchy_product_even(ones, ones).values == {d: 6 for d in divisors(6)}

    def test_disjoint_spectra_annihilate(self):
        h = cauchy_product_even(ramanujan_basis(2, 6), ramanujan_basis(3, 6))
        assert h.values == {d: 0 for d in divisors(6)}
        # Confirm by the brute-force double sum on the expansions.
        naive = cauchy_product(
            to_periodic(ramanujan_basis(2, 6)), to_periodic(ramanujan_basis(3, 6))
        )
        assert naive.values == (0,) * 6

    def test_agrees_with_naive_product(self):
        rng = random.Random(21)
        for r in (1, 2, 9, 16, 40):
            f = random_even(r, rng)
            g = random_even(r, rng)
            via_even = cauchy_product_even(f, g)
            via_naive = from_periodic(cauchy_product(to_periodic(f), to_periodic(g)))
            assert via_even == via_naive

    def test_mixed_exact_and_floating_input(self):
        rng = random.Random(22)
        for r in (1, 12, 40):
            f = random_even(r, rng)
            g = EvenFunction(r, {d: rng.uniform(-1, 1) for d in divisors(r)})
            via_even = cauchy_product_even(f, g)
            via_naive = cauchy_product(to_periodic(f), to_periodic(g))
            assert all(isinstance(v, float) for v in via_even.values.values())
            assert all(
                abs(via_even(n) - via_naive(n)) <= 1e-9 for n in range(1, r + 1)
            )

    def test_modulus_mismatch(self):
        with pytest.raises(DomainError):
            cauchy_product_even(GCD4, EvenFunction(6, {d: 0 for d in divisors(6)}))


class TestVerifyOrthogonality:
    def test_worked_pairs_mod_four(self):
        report = verify_orthogonality(4)
        by_pair = {c.subject: c for c in report.checks}
        assert by_pair[(2, 2)].left == 4 == by_pair[(2, 2)].right
        assert by_pair[(1, 2)].left == 0
        assert report.passed

    def test_degenerate_modulus(self):
        report = verify_orthogonality(1)
        assert report.passed and len(report.checks) == 1
        assert report.checks[0].left == 1

    def test_sweep(self):
        for r in range(1, 61):
            assert verify_orthogonality(r).passed


class TestVerifySymmetry:
    def test_worked_pair(self):
        report = verify_symmetry(4)
        by_pair = {c.subject: c for c in report.checks}
        assert by_pair[(4, 2)].left == -2 == by_pair[(4, 2)].right

    def test_diagonal_pairs_trivial(self):
        for check in verify_symmetry(12).checks:
            d, e = check.subject
            if d == e:
                assert check.left == check.right

    def test_mod_twelve_all_pairs(self):
        report = verify_symmetry(12)
        assert len(report.checks) == 36
        assert report.passed

    def test_sweep(self):
        for r in range(1, 61):
            assert verify_symmetry(r).passed


class TestVerifyBridge:
    def test_gcd_example(self):
        report = verify_rft_dft_bridge(GCD4)
        assert report.passed
        bridge = {c.subject[1]: c for c in report.checks if c.subject[0] == "bridge"}
        assert bridge[1].left == 8
        assert bridge[2].left == 4
        assert bridge[4].left == 2
        assert abs(bridge[1].right - 8) <= 1e-8

    def test_constant(self):
        ones = EvenFunction.from_callable(4, lambda d: 1)
        report = verify_rft_dft_bridge(ones)
        assert report.passed
        bridge = {c.subject[1]: c for c in report.checks if c.subject[0] == "bridge"}
        assert bridge[1].left == 4

    def test_top_basis_row(self):
        report = verify_rft_dft_bridge(ramanujan_basis(6, 6))
        assert report.passed
        bridge = {c.subject[1]: c for c in report.checks if c.subject[0] == "bridge"}
        assert bridge[6].left == 6

    def test_random_sweep(self):
        rng = random.Random(17)
        for r in range(1, 49):
            assert verify_rft_dft_bridge(random_even(r, rng)).passed


class TestVerifyCauchyKernel:
    def test_worked_entry(self):
        report = verify_cauchy_kernel_even(4)
        by_subject = {c.subject: c for c in report.checks}
        assert by_subject[(2, 2, 1)].left == -4 == 4 * ramanujan_sum(1, 2)
        assert all(by_subject[(2, 4, n)].left == 0 for n in range(1, 5))
        assert report.passed

    def test_degenerate_modulus(self):
        assert verify_cauchy_kernel_even(1).passed

    def test_cap(self):
        with pytest.raises(CapacityError):
            verify_cauchy_kernel_even(CAUCHY_KERNEL_CAP + 1)

    def test_sweep(self):
        for r in range(1, 31):
            assert verify_cauchy_kernel_even(r).passed


class TestReports:
    def test_counterexample_listing(self):
        good = IdentityCheck((1, 1), 1, 1, True)
        bad = IdentityCheck((2, 3), 5, 0, False)
        report = VerificationReport("demo", 6, (good, bad))
        assert not report.passed
        assert report.counterexamples() == [bad]
        assert report.first_failure() == bad

    def test_empty_report_passes(self):
        assert VerificationReport("demo", 1, ()).passed


VALUE_OBJECTS = {
    "EvenFunction": (lambda: EvenFunction(4, {4: 4, 1: Fraction(1, 2), 2: 2.5}), "values"),
    "EvenSpectrum": (lambda: EvenSpectrum(4, {1: 8, 2: 4, 4: 2 + 1j}), "coeffs"),
    "ResidueFunction": (lambda: ResidueFunction(3, (1, Fraction(1, 2), 0.5)), "values"),
    "PeriodicSpectrum": (lambda: PeriodicSpectrum(2, (1 + 0j, 2j)), "coeffs"),
    "IdentityCheck": (lambda: IdentityCheck((1, 2), 3, 3, True), "subject"),
    "VerificationReport": (lambda: verify_symmetry(4), "checks"),
}

VALUE_FIELDS = {
    "EvenFunction": ("r", "values"),
    "EvenSpectrum": ("r", "coeffs"),
    "ResidueFunction": ("r", "values"),
    "PeriodicSpectrum": ("r", "coeffs"),
    "IdentityCheck": ("subject", "left", "right", "passed"),
    "VerificationReport": ("name", "r", "checks"),
}

# The dataclass form of repr, which the value classes keep.
VALUE_REPRS = {
    "EvenFunction": "EvenFunction(r=4, values={1: Fraction(1, 2), 2: 2.5, 4: 4})",
    "EvenSpectrum": "EvenSpectrum(r=4, coeffs={1: 8, 2: 4, 4: (2+1j)})",
    "ResidueFunction": "ResidueFunction(r=3, values=(1, Fraction(1, 2), 0.5))",
    "PeriodicSpectrum": "PeriodicSpectrum(r=2, coeffs=((1+0j), 2j))",
    "IdentityCheck": "IdentityCheck(subject=(1, 2), left=3, right=3, passed=True)",
}


@pytest.mark.parametrize("name", sorted(VALUE_OBJECTS))
class TestValueObjects:
    def test_equal_objects_hash_equal(self, name):
        make, _ = VALUE_OBJECTS[name]
        assert make() is not make() and make() == make()
        assert hash(make()) == hash(make())
        assert len({make(), make()}) == 1
        obj = make()
        assert hash(obj) == hash(tuple(getattr(obj, f) for f in VALUE_FIELDS[name]))

    def test_keyword_construction_and_repr(self, name):
        make, _ = VALUE_OBJECTS[name]
        obj = make()
        fields = {f: getattr(obj, f) for f in VALUE_FIELDS[name]}
        assert type(obj)(**fields) == obj
        shown = ", ".join(f"{f}={v!r}" for f, v in fields.items())
        assert repr(obj) == f"{name}({shown})"
        if name in VALUE_REPRS:
            assert repr(obj) == VALUE_REPRS[name]

    def test_mutation_raises(self, name):
        make, field = VALUE_OBJECTS[name]
        obj = make()
        for f in VALUE_FIELDS[name]:
            with pytest.raises(AttributeError, match=f"field '{f}'"):
                setattr(obj, f, None)
            with pytest.raises(AttributeError, match=f"field '{f}'"):
                delattr(obj, f)
        data = getattr(obj, field)
        key = next(iter(data)) if isinstance(data, dict) else 0
        with pytest.raises(TypeError):
            data[key] = 99
        assert obj == make()

    def test_pickle_and_deepcopy_round_trip(self, name):
        make, field = VALUE_OBJECTS[name]
        obj = make()
        for back in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj), copy.copy(obj)):
            assert back == obj and hash(back) == hash(obj)
            assert type(getattr(back, field)) is type(getattr(obj, field))


def test_equality_is_same_type_only():
    assert ResidueFunction(2, (1, 2)) != PeriodicSpectrum(2, (1, 2))
    assert EvenFunction(1, {1: 5}) != EvenSpectrum(1, {1: 5})
