"""Every pair of routes that must agree does, or both refuse alike.

Moduli r <= 120 are drawn by kind: 1, primes, prime powers, squarefree,
rough (a prime factor above 13) and highly composite. Values are ints,
Fractions, floats or complex numbers up to 1e6 in magnitude.

Every kind expands to an even function that restricts back to itself:
`from_periodic(to_periodic(f)) == f`.

Exact input agrees exactly, in value and in type: `rft` with `rft_naive`,
`irft(rft(f))` with f, and the even Cauchy and inner products with the
direct sums on the expansions. The even routes give a plain int wherever
a value is integral, while the direct sums keep a Fraction, so their
side is compared after that one normalisation.

Floating input agrees within float_bound below; `cauchy_product_spectral`
keeps its documented bound against the direct sum rounded only in its
products. Floating values are 0 or at least 1e-6 in magnitude, so no
product of two of them underflows: the bounds are relative to the size
of the input and say nothing of underflow.
"""

from fractions import Fraction
from math import fsum, log2, sqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramfourier import (
    DomainError,
    EvenFunction,
    cauchy_product,
    cauchy_product_even,
    cauchy_product_spectral,
    divisors,
    factorize,
    from_periodic,
    inner_product_even,
    inner_product_periodic,
    irft,
    is_even,
    is_prime,
    mobius,
    rft,
    rft_naive,
    to_periodic,
)

EPS = 2.0**-53

PRIMES = [p for p in range(2, 121) if is_prime(p)]
MODULI = {
    "one": [1],
    "prime": PRIMES,
    "prime power": [p**k for p in PRIMES for k in range(2, 7) if p**k <= 120],
    "squarefree": [n for n in range(2, 121) if mobius(n) and not is_prime(n)],
    "rough": [n for n in range(2, 121) if factorize(n)[-1][0] > 13 and not is_prime(n)],
    "highly composite": [12, 24, 36, 48, 60, 120],
}
moduli = st.one_of([st.sampled_from(ms) for ms in MODULI.values()])

_REALS = st.one_of(st.just(0.0), st.floats(1e-6, 1e6), st.floats(-1e6, -1e-6))
VALUES = {
    "int": st.integers(-(10**6), 10**6),
    "fraction": st.fractions(-(10**6), 10**6, max_denominator=1000),
    "float": _REALS,
    "complex": st.builds(complex, _REALS, _REALS),
}


def float_bound(r: int, scale: float) -> float:
    """2 r^2 eps scale, where scale is max|f|, or max|f| max|g| for a product.

    Recursive summation of n terms errs by at most about n eps times the
    sum of their magnitudes. Each output of these routes sums at most r
    terms of total magnitude at most r scale (for `rft_naive`, after its
    division by phi(d)), so one route's worst case is r^2 eps scale, and
    the bound allows that for each side. The divisor-form side is
    measured, not proved: over 3000 draws at r <= 120 every difference
    stayed below 0.73 r^2 eps scale.
    """
    return 2 * r * r * EPS * scale


def _spectral_bound(r: int) -> float:
    """`cauchy_product_spectral`'s documented constant: the bound on
    ||h' - h||_2 is this times ||f||_2 ||g||_2."""
    return 5 * EPS * log2(r) * sqrt(r)


def _canonical(v):
    return v.numerator if isinstance(v, Fraction) and v.denominator == 1 else v


def _same(got, want) -> bool:
    return got == want and type(got) is type(want)


def _draw_even(data, r: int, kind: str) -> EvenFunction:
    return EvenFunction(r, {d: data.draw(VALUES[kind]) for d in divisors(r)})


def _fsum_cauchy(f, g) -> list[complex]:
    """The direct Cauchy sums with each real product rounded once and
    each part summed exactly."""
    r = len(f)
    out = []
    for n in range(1, r + 1):
        pairs = [(complex(f[a - 1]), complex(g[(n - a - 1) % r])) for a in range(1, r + 1)]
        real = fsum([x.real * y.real for x, y in pairs] + [-x.imag * y.imag for x, y in pairs])
        imag = fsum([x.real * y.imag for x, y in pairs] + [x.imag * y.real for x, y in pairs])
        out.append(complex(real, imag))
    return out


def _norm(values) -> float:
    return sqrt(fsum(abs(v) ** 2 for v in values))


@pytest.mark.parametrize("kind", ["int", "fraction"])
@settings(deadline=None, max_examples=30)
@given(r=moduli, data=st.data())
def test_exact_routes_agree_exactly(kind, r, data):
    f, g = _draw_even(data, r, kind), _draw_even(data, r, kind)
    spectrum = rft(f)
    naive = rft_naive(f)
    assert all(_same(spectrum.coeffs[d], naive.coeffs[d]) for d in divisors(r))
    back = irft(spectrum)
    assert all(_same(back.values[d], _canonical(f.values[d])) for d in divisors(r))
    pf, pg = to_periodic(f), to_periodic(g)
    even = to_periodic(cauchy_product_even(f, g)).values
    direct = cauchy_product(pf, pg).values
    assert all(_same(a, _canonical(b)) for a, b in zip(even, direct))
    assert _same(inner_product_even(f, g), _canonical(inner_product_periodic(pf, pg)))


@pytest.mark.parametrize("kind", ["float", "complex"])
@settings(deadline=None, max_examples=30)
@given(r=moduli, data=st.data())
def test_floating_routes_agree_within_their_bounds(kind, r, data):
    f, g = _draw_even(data, r, kind), _draw_even(data, r, kind)
    divs = divisors(r)
    mf = max(abs(v) for v in f.values.values())
    mg = max(abs(v) for v in g.values.values())
    spectrum, naive = rft(f).coeffs, rft_naive(f).coeffs
    assert max(abs(spectrum[d] - naive[d]) for d in divs) <= float_bound(r, mf)
    back = irft(rft(f)).values
    assert max(abs(back[d] - f.values[d]) for d in divs) <= float_bound(r, mf)
    pf, pg = to_periodic(f), to_periodic(g)
    even = to_periodic(cauchy_product_even(f, g)).values
    direct = cauchy_product(pf, pg).values
    assert max(abs(a - b) for a, b in zip(even, direct)) <= float_bound(r, mf * mg)
    gap = abs(inner_product_even(f, g) - inner_product_periodic(pf, pg))
    assert gap <= float_bound(r, mf * mg)
    want = _fsum_cauchy(pf.values, pg.values)
    got = cauchy_product_spectral(pf, pg).values
    bound = _spectral_bound(r) * _norm(pf.values) * _norm(pg.values)
    assert _norm([a - b for a, b in zip(got, want)]) <= bound


@pytest.mark.parametrize("kind", list(VALUES))
@settings(deadline=None, max_examples=30)
@given(r=moduli, data=st.data())
def test_expansion_is_even_and_restricts_back(kind, r, data):
    f = _draw_even(data, r, kind)
    p = to_periodic(f)
    assert is_even(p)
    assert from_periodic(p) == f


def _outcome(route, *args):
    try:
        return route(*args)
    except DomainError as exc:
        return f"DomainError: {exc}"


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 6: the even routes run mixed exact/float input in "
    "floating point, where 10**200 squared overflows to inf without an error",
)
def test_past_the_float_range_both_sides_refuse_alike():
    # 10**200 fits a float, but its square, which both products take, does not.
    f = EvenFunction(2, {1: 10**200, 2: 0.5})
    p = to_periodic(f)
    for even_route, direct_route in (
        (cauchy_product_even, cauchy_product),
        (inner_product_even, inner_product_periodic),
    ):
        refusal = _outcome(direct_route, p, p)
        assert refusal.startswith("DomainError: ")
        assert _outcome(even_route, f, f) == refusal
