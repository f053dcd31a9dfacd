"""Exact elementary number theory: factorization, divisors, mu and phi.

Everything here is plain integer arithmetic on Python ints, so values
never overflow or round. The only limit is the factorization cap below.
`factorize` and `is_prime` share one trial-division scan, `_prime_powers`:
`is_prime` stops at its first prime factor. `_gcd_classes` is the one
divisor sieve for gcd(n, r) at every residue n = 1..r, the classes of
the paper's f(n) = f(gcd(n, r)); `even.to_periodic` and
`periodic.even_witness` read it instead of calling gcd per residue.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import CapacityError, DomainError, _int_text

__all__ = [
    "FACTORIZE_CAP",
    "factorize",
    "divisors",
    "is_prime",
    "mobius",
    "euler_phi",
]

# Trial division keeps factorization deterministic; the cap keeps the worst
# case (a prime near the cap, ~2^25 divisions) tolerable.
FACTORIZE_CAP = 2**50

# Entries per cache: well above the 872 that one sweep of the benchmark's
# seven even moduli (tau up to 512) leaves in factorize and euler_phi,
# while a long-lived process no longer keeps every n it has ever seen.
_CACHE_SIZE = 4096


def _prime_powers(n: int):
    """Yield (p, e) for each prime power p^e exactly dividing n >= 1, p
    increasing: the one trial-division scan, by 2 and 3, then 6k - 1 and
    6k + 1 up to the square root of what is left."""
    for p in (2, 3):
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            yield p, e
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            if n % p == 0:
                e = 0
                while n % p == 0:
                    n //= p
                    e += 1
                yield p, e
        f += 6
    if n > 1:
        yield n, 1


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test."""
    return n >= 2 and next(_prime_powers(n)) == (n, 1)


@lru_cache(maxsize=_CACHE_SIZE)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Unique prime factorization of n by trial division.

    Returns (prime, exponent) pairs: the primes strictly increase, every
    exponent is at least 1, and prod(p**e) == n. It is empty exactly
    when n == 1.
    """
    if n < 1:
        raise DomainError(f"factorize is defined for n >= 1, got {_int_text(n)}")
    if n > FACTORIZE_CAP:
        raise CapacityError(f"factorize is capped at n <= 2**50, got {_int_text(n)}")
    return tuple(_prime_powers(n))


@lru_cache(maxsize=_CACHE_SIZE)
def divisors(r: int) -> tuple[int, ...]:
    """All divisors of r, strictly increasing from 1 to r.

    Its length is tau(r) = prod(e + 1) over the pairs (p, e) of
    factorize(r).
    """
    if r < 1:
        raise DomainError(f"divisors are defined for r >= 1, got {_int_text(r)}")
    divs = [1]
    for p, e in factorize(r):
        powers = [p**i for i in range(1, e + 1)]
        divs += [d * q for d in divs for q in powers]
    return tuple(sorted(divs))


def _gcd_classes(r: int) -> list[int]:
    """gcd(n, r) at index n - 1 for n = 1..r, by a divisor sieve: each
    divisor d of r, in increasing order, writes d at every multiple of d,
    so the last value written at n is gcd(n, r). Not cached: it is r long."""
    classes = [1] * r
    for d in divisors(r)[1:]:
        classes[d - 1 :: d] = [d] * (r // d)
    return classes


@lru_cache(maxsize=_CACHE_SIZE)
def mobius(n: int) -> int:
    """Mobius function: 0 on non-squarefree n, else (-1)^(number of primes)."""
    if n < 1:
        raise DomainError(f"mobius is defined for n >= 1, got {_int_text(n)}")
    factors = factorize(n)
    if any(e > 1 for _, e in factors):
        return 0
    return -1 if len(factors) % 2 else 1


@lru_cache(maxsize=_CACHE_SIZE)
def euler_phi(n: int) -> int:
    """Euler totient, computed from the factorization."""
    if n < 1:
        raise DomainError(f"euler_phi is defined for n >= 1, got {_int_text(n)}")
    result = n
    for p, _ in factorize(n):
        result -= result // p
    return result
