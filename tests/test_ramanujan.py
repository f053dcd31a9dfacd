"""Tests for Ramanujan sums: exact formula, oracle, and kernel rows."""

from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ramfourier import (
    ORACLE_CAP,
    CapacityError,
    DomainError,
    divisors,
    euler_phi,
    mobius,
    ramanujan_basis,
    ramanujan_sum,
    ramanujan_sum_oracle,
    to_periodic,
)


class TestRamanujanSum:
    def test_single_term(self):
        assert ramanujan_sum(1, 1) == 1

    def test_diagonal_is_totient(self):
        assert ramanujan_sum(4, 4) == 2
        for r in range(1, 51):
            assert ramanujan_sum(r, r) == euler_phi(r)

    def test_modulus_four_row(self):
        # Derived from the exponential sum: k coprime to 4 is {1, 3}.
        assert ramanujan_sum(1, 4) == 0
        assert ramanujan_sum(2, 4) == -2
        assert ramanujan_sum(3, 4) == 0

    def test_coprime_argument_gives_mobius(self):
        for r in range(1, 101):
            assert ramanujan_sum(1, r) == mobius(r)

    def test_argument_reduction(self):
        assert ramanujan_sum(0, 6) == ramanujan_sum(6, 6)
        assert ramanujan_sum(-2, 4) == ramanujan_sum(2, 4)
        for r in (5, 12):
            for n in range(1, r + 1):
                assert ramanujan_sum(n + r, r) == ramanujan_sum(n, r)

    def test_rejects_nonpositive_modulus(self):
        with pytest.raises(DomainError):
            ramanujan_sum(3, 0)

    @given(st.integers(min_value=-500, max_value=500), st.integers(min_value=1, max_value=200))
    def test_depends_only_on_gcd(self, n, r):
        assert ramanujan_sum(n, r) == ramanujan_sum(gcd(n, r), r)
        assert ramanujan_sum(n + r, r) == ramanujan_sum(n, r)


class TestOracle:
    def test_examples(self):
        assert abs(ramanujan_sum_oracle(1, 1) - 1) < 1e-12
        assert abs(ramanujan_sum_oracle(2, 4) - (-2)) < 1e-9
        assert abs(ramanujan_sum_oracle(6, 6) - 2) < 1e-9

    def test_cap(self):
        with pytest.raises(CapacityError):
            ramanujan_sum_oracle(1, ORACLE_CAP + 1)

    def test_rejects_nonpositive_modulus(self):
        with pytest.raises(DomainError):
            ramanujan_sum_oracle(1, 0)

    def test_agrees_with_formula(self):
        # Full 1 <= n <= r <= 300 sweep lives in the acceptance suite.
        for r in range(1, 61):
            for n in range(1, r + 1):
                approx = ramanujan_sum_oracle(n, r)
                assert abs(approx.imag) <= 1e-6
                assert abs(approx.real - ramanujan_sum(n, r)) <= 1e-6


def periodic_row(d, r):
    return to_periodic(ramanujan_basis(d, r)).values


def divisor_row(d, r):
    # C(r/e, d) for the divisors e of r in increasing order.
    basis = ramanujan_basis(d, r)
    return [basis.values[r // e] for e in divisors(r)]


class TestRow:
    """Kernel rows C(., d), read from ramanujan_basis in both layouts."""

    def test_unit_divisor_row_is_all_ones(self):
        assert periodic_row(1, 7) == (1,) * 7
        assert divisor_row(1, 12) == [1] * 6

    def test_periodic_rows_mod_four(self):
        assert periodic_row(2, 4) == (-1, 1, -1, 1)
        assert periodic_row(4, 4) == (0, -2, 0, 2)

    def test_divisor_row(self):
        # C(12/e, 4) for e = 1, 2, 3, 4, 6, 12.
        assert divisor_row(4, 12) == [2, -2, 2, 0, -2, 0]

    def test_lengths(self):
        assert len(periodic_row(6, 12)) == 12
        assert len(ramanujan_basis(6, 12).values) == len(divisors(12))

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            ramanujan_basis(5, 12)


class TestTable:
    """The full kernel C(n, d) over the divisors d of r, by rows."""

    def test_matches_direct_evaluation(self):
        for d in divisors(24):
            row = periodic_row(d, 24)
            for n in range(1, 25):
                assert row[n - 1] == ramanujan_sum(n, d)

    def test_rows_match_row_builder(self):
        for d in divisors(12):
            assert periodic_row(d, 12) == tuple(ramanujan_sum(n, d) for n in range(1, 13))
            assert divisor_row(d, 12) == [ramanujan_sum(12 // e, d) for e in divisors(12)]

    def test_value_reduces_through_gcd(self):
        assert ramanujan_basis(15, 30)(77) == ramanujan_sum(gcd(77, 15), 15)

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            ramanujan_basis(1, 0)
        with pytest.raises(DomainError):
            ramanujan_basis(5, 12)


def test_evenness_exhaustive():
    # C(., r) takes the same value at n and gcd(n, r), for every residue.
    for r in range(1, 101):
        for n in range(1, r + 1):
            assert ramanujan_sum(n, r) == ramanujan_sum(gcd(n, r), r)
