"""Arithmetic in Z/QZ for a squarefree product Q of distinct primes.

With Q = q_1 * ... * q_r the ring Z/QZ splits as a product of the fields
Z/q_sZ, so a single integer in [0, Q) carries one residue per field and
ring operations act on all fields at once.  This module builds the
splitting (PrimeBasis), names the primes of a subset of fields
(mask_primes), and constructs the partial inverses that make one Z/QZ
scalar act on a chosen subset of fields while leaving the rest
untouched.

A subset S of fields is always passed around as its modulus mask: the
divisor Q_S = prod_{s in S} q_s of Q.  Mask 1 is the empty set, mask Q
the full set.  Field indices are 1-based throughout the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "InconsistencyError",
    "PrimeBasis",
    "first_primes",
    "is_prime",
    "mask_primes",
    "partial_inverse",
    "word_length",
]


class InconsistencyError(Exception):
    """An algorithm invariant failed, or the modular and brute-force routes
    disagree: a bug in the program, not bad input."""


# Deterministic Miller-Rabin witnesses, the primes up to 41, exact for
# all n below _MR_BOUND = 1287836182261 * 2575672364521, the least
# strong pseudoprime to all of them (Sorenson and Webster, 2017).  The
# twelve up to 37 alone pass the composite 399165290221 * 798330580441.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic primality test; ValueError at or above 3.3e24,
    where the test is no longer exact."""
    if n < 2:
        return False
    if n >= _MR_BOUND:
        raise ValueError(f"cannot test {n} for primality: primes must be below {_MR_BOUND}")
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def first_primes(r: int) -> tuple[int, ...]:
    """Return the r smallest primes in increasing order."""
    if r < 1:
        raise ValueError("r must be >= 1")
    if r < 6:
        bound = 13
    else:
        # upper bound on the r-th prime, valid for r >= 6
        bound = int(r * (math.log(r) + math.log(math.log(r)))) + 3
    sieve = bytearray([1]) * (bound + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, int(math.isqrt(bound)) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    primes = [i for i, flag in enumerate(sieve) if flag]
    return tuple(primes[:r])


@dataclass(frozen=True)
class PrimeBasis:
    """The splitting Z/QZ = Z/q_1Z x ... x Z/q_rZ, q_s distinct primes;
    immutable and safe to share."""

    primes: tuple[int, ...]
    product: int

    @staticmethod
    def of(primes) -> "PrimeBasis":
        ps = tuple(primes)
        if not ps:
            raise ValueError("need at least one prime")
        if len(set(ps)) != len(ps):
            raise ValueError("primes must be distinct")
        for q in ps:
            if not is_prime(q):
                raise ValueError(f"{q} is not prime")
        return PrimeBasis(ps, math.prod(ps))

    @staticmethod
    def first(r: int) -> "PrimeBasis":
        return PrimeBasis.of(first_primes(r))

    @property
    def r(self) -> int:
        return len(self.primes)


def _check_mask(basis: PrimeBasis, mask: int) -> None:
    if mask < 1 or basis.product % mask != 0:
        raise ValueError(f"mask {mask} does not divide the basis product")


def mask_primes(basis: PrimeBasis, mask: int) -> tuple[int, ...]:
    """The primes making up a modulus mask, in basis order; ValueError
    unless mask divides Q."""
    _check_mask(basis, mask)
    return tuple(q for q in basis.primes if mask % q == 0)


def partial_inverse(basis: PrimeBasis, x: int, mask: int) -> tuple[int, int]:
    """Invert x on the fields of S where it is invertible.

    Returns (xbar, t_mask) where t_mask = Q_T for T = {s in S : q_s does
    not divide x}; xbar = x^-1 mod q_s for s in T and 0 mod every other
    field, computed as c * ((x * c)^-1 mod Q_T) with c = Q / Q_T.  x = 0
    (nothing invertible) yields (0, 1).
    """
    _check_mask(basis, mask)
    t_mask = mask // math.gcd(x, mask)
    if t_mask == 1:
        return 0, 1
    c = basis.product // t_mask
    try:
        return c * pow(x * c, -1, t_mask), t_mask
    except ValueError:
        raise InconsistencyError(f"{x} is not a unit modulo {t_mask}") from None


def word_length(n: int) -> int:
    """Number of 64-bit words needed to encode n >= 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return (n.bit_length() - 1) // 64 + 1
