"""Tests for the exact arithmetic primitives."""

from math import gcd, prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

import ramfourier.arith as arith_mod
from ramfourier import (
    CapacityError,
    DomainError,
    divisors,
    euler_phi,
    factorize,
    is_prime,
    mobius,
)


def brute_phi(n):
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


class TestFactorize:
    def test_one_has_empty_factorization(self):
        assert factorize(1) == ()

    def test_twelve(self):
        assert factorize(12) == ((2, 2), (3, 1))

    def test_720720(self):
        factors = factorize(720720)
        assert factors == ((2, 4), (3, 2), (5, 1), (7, 1), (11, 1), (13, 1))
        assert prod(p**e for p, e in factors) == 720720
        assert all(is_prime(p) for p, _ in factors)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            factorize(0)
        with pytest.raises(DomainError):
            factorize(-12)

    def test_magnitude_cap(self):
        assert factorize(2**50) == ((2, 50),)
        with pytest.raises(CapacityError):
            factorize(2**50 + 1)

    def test_cap_message_gives_a_long_integer_by_its_digit_count(self):
        # 10**5000 is past CPython's int-to-text limit, where str() raises.
        for n, digits in ((10**40, 41), (10**4000, 4001), (10**5000, 5001)):
            with pytest.raises(CapacityError, match=f"got <integer of {digits} digits>$"):
                factorize(n)
        with pytest.raises(DomainError, match=r"got -<integer of 41 digits>$"):
            factorize(-(10**40))
        with pytest.raises(CapacityError, match=r"got 9{40}$"):
            factorize(10**40 - 1)

    @given(st.integers(min_value=1, max_value=10**6))
    def test_product_recovers_n(self, n):
        factors = factorize(n)
        assert prod(p**e for p, e in factors) == n
        primes = [p for p, _ in factors]
        assert primes == sorted(set(primes))
        assert all(is_prime(p) for p in primes)
        assert all(e >= 1 for _, e in factors)

    def test_answer_is_not_rechecked(self, monkeypatch):
        # The factorization is correct by construction; the tests above
        # check it, so no call pays for a primality re-check.
        def forbidden(*args, **kwargs):
            raise AssertionError("factorize re-checked its own answer")

        monkeypatch.setattr(arith_mod, "is_prime", forbidden)
        prime = 1099511627791  # a prime near 2**40
        smooth = 2**9 * 3**5 * 5**3 * 7**2 * 11 * 13 * 17 * 19
        misses = factorize.cache_info().misses
        assert factorize(prime) == ((prime, 1),)
        assert factorize(smooth) == (
            (2, 9), (3, 5), (5, 3), (7, 2), (11, 1), (13, 1), (17, 1), (19, 1)
        )
        assert factorize.cache_info().misses == misses + 2
        n = 2**3 * 3 * 31 * 10007
        misses = divisors.cache_info().misses
        divs = divisors(n)
        assert divisors.cache_info().misses == misses + 1
        assert len(divs) == 4 * 2 * 2 * 2
        assert divs[:4] == (1, 2, 3, 4) and divs[-1] == n
        assert all(a < b and n % a == 0 for a, b in zip(divs, divs[1:]))

    def test_is_prime_agrees_with_factorize(self):
        # One scan serves both, so a prime is exactly an n with the
        # factorization ((n, 1),); the semiprime scans to its smaller factor.
        for n in [*range(1, 10**5), 1000003 * 1000033]:
            assert is_prime(n) == (factorize(n) == ((n, 1),)), n


class TestDivisors:
    def test_one(self):
        assert divisors(1) == (1,)

    def test_twelve(self):
        assert divisors(12) == (1, 2, 3, 4, 6, 12)

    def test_720720_count(self):
        divs = divisors(720720)
        assert len(divs) == (4 + 1) * (2 + 1) * 2 * 2 * 2 * 2 == 240
        assert divs[0] == 1 and divs[-1] == 720720

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            divisors(0)

    def test_factorization_roundtrip(self):
        # Each divisor's prime exponents are bounded by n's.
        for n in range(1, 201):
            bound = dict(factorize(n))
            for d in divisors(n):
                for p, e in factorize(d):
                    assert e <= bound.get(p, 0)

    @given(st.integers(min_value=1, max_value=10**6))
    def test_count_matches_tau(self, n):
        divs = divisors(n)
        assert all(a < b for a, b in zip(divs, divs[1:]))
        assert divs[0] == 1 and divs[-1] == n
        assert len(divs) == prod(e + 1 for _, e in factorize(n))
        assert all(n % d == 0 for d in divs)


class TestGcd:
    def test_examples(self):
        assert gcd(4, 6) == 2
        assert gcd(0, 7) == 7
        assert gcd(0, 0) == 0
        for n in (1, 2, 17, 100):
            assert gcd(n, 1) == 1


class TestMobius:
    def test_examples(self):
        assert mobius(1) == 1
        assert mobius(12) == 0
        assert mobius(30) == -1

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            mobius(0)


class TestEulerPhi:
    def test_examples(self):
        assert euler_phi(1) == 1
        assert euler_phi(4) == 2 == brute_phi(4)
        assert euler_phi(10) == 4 == brute_phi(10)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            euler_phi(-3)


class TestIdentities:
    def test_totient_divisor_sum(self):
        for r in range(1, 1001):
            assert sum(euler_phi(d) for d in divisors(r)) == r

    def test_phi_matches_brute_force(self):
        for n in range(1, 1001):
            assert euler_phi(n) == brute_phi(n)

    def test_mobius_divisor_sum(self):
        for n in range(1, 1001):
            total = sum(mobius(d) for d in divisors(n))
            assert total == (1 if n == 1 else 0)

    def test_gcd_class_sizes(self):
        # The residues 1..r with gcd(k, r) = d number exactly phi(r/d).
        for r in range(1, 301):
            counts = {}
            for k in range(1, r + 1):
                g = gcd(k, r)
                counts[g] = counts.get(g, 0) + 1
            for d in divisors(r):
                assert counts.get(d, 0) == euler_phi(r // d)

    @given(st.integers(min_value=1, max_value=10**6))
    def test_divisor_sums_at_scale(self, n):
        assert sum(euler_phi(d) for d in divisors(n)) == n
        assert sum(mobius(d) for d in divisors(n)) == (1 if n == 1 else 0)
