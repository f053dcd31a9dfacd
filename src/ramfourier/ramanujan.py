"""Ramanujan sums: exact evaluation plus a floating-point cross-check.

C(n, r) sums exp(2*pi*i*k*n/r) over the residues k coprime to r. It is
always an integer and depends on n only through gcd(n, r); the exact
production path evaluates Hoelder's closed form

    C(n, r) = mu(k) * phi(r) / phi(k),  k = r / gcd(n, r),

which is 0 whenever k is not squarefree. It reads only the cached mu
and phi of single integers, so no per-pair value is stored. Every kernel
value the library reads comes from `ramanujan_sum`; `even.rft` needs
none. The defining exponential sum is kept only as a test oracle, with
an explicit size cap.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from .arith import euler_phi, mobius
from .errors import CapacityError, DomainError, _int_text
from .periodic import _roots

__all__ = [
    "ORACLE_CAP",
    "ramanujan_sum",
    "ramanujan_sum_oracle",
]

ORACLE_CAP = 10**6


def ramanujan_sum(n: int, r: int) -> int:
    """C(n, r) as an exact integer.

    n may be any integer; n = 0 (and every multiple of r) behaves as
    n = r, i.e. gcd(n, r) = r.
    """
    if r < 1:
        raise DomainError(f"modulus must be >= 1, got {_int_text(r)}")
    k = r // gcd(n, r)
    mu = mobius(k)
    return mu * (euler_phi(r) // euler_phi(k)) if mu else 0


@lru_cache(maxsize=2)
def _coprime_residues(r: int) -> tuple[int, ...]:
    return tuple(k for k in range(1, r + 1) if gcd(k, r) == 1)


def ramanujan_sum_oracle(n: int, r: int) -> complex:
    """C(n, r) by its defining sum over the residues coprime to r.

    O(r) floating-point work; a cross-check, not the production path.
    For r up to the cap the result is within 1e-6 of the exact integer
    and its imaginary part is below 1e-6 in magnitude.
    """
    if r < 1:
        raise DomainError(f"modulus must be >= 1, got {_int_text(r)}")
    if r > ORACLE_CAP:
        raise CapacityError(f"exponential sum is capped at r <= {ORACLE_CAP}, got {_int_text(r)}")
    roots = _roots(r)
    return sum((roots[(k * n) % r] for k in _coprime_residues(r)), start=0j)
