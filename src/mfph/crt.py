"""Arithmetic in Z/QZ for a squarefree product Q of distinct primes.

With Q = q_1 * ... * q_r the ring Z/QZ splits as a product of the fields
Z/q_sZ, so a single integer in [0, Q) carries one residue per field and
ring operations act on all fields at once.  This module builds the
splitting (PrimeBasis), converts between the two views (crt_combine /
crt_project), and constructs the partial identities and partial inverses
that make one Z/QZ scalar act on a chosen subset of fields while leaving
the rest untouched.

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
    "bezout",
    "crt_combine",
    "crt_project",
    "first_primes",
    "is_prime",
    "mask_primes",
    "partial_identity",
    "partial_inverse",
    "word_length",
]


class InconsistencyError(Exception):
    """An algorithm invariant failed, or the modular and brute-force routes
    disagree: a bug in the program, not bad input."""


# Deterministic Miller-Rabin witnesses, valid for all n < 3.3e24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic primality test for word-sized inputs."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
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


def bezout(a: int, b: int) -> tuple[int, int, int]:
    """Extended Euclid: (g, v, w) with v*a + w*b = g = gcd(a, b) > 0."""
    if a == 0 and b == 0:
        raise ValueError("bezout(0, 0) is undefined")
    old_r, r = a, b
    old_v, v = 1, 0
    old_w, w = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_v, v = v, old_v - q * v
        old_w, w = w, old_w - q * w
    if old_r < 0:
        old_r, old_v, old_w = -old_r, -old_v, -old_w
    return old_r, old_v, old_w


@dataclass(frozen=True)
class PrimeBasis:
    """The splitting Z/QZ = Z/q_1Z x ... x Z/q_rZ, q_s distinct primes.

    idempotents[s-1] is the canonical preimage of the residue vector
    (0,...,0,1,0,...,0) with the 1 in field s, computed once as
    (Q/q_s)^(q_s - 1) mod Q.  Immutable and safe to share.
    """

    primes: tuple[int, ...]
    product: int
    idempotents: tuple[int, ...]

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
        q_all = math.prod(ps)
        idem = tuple(pow(q_all // q, q - 1, q_all) for q in ps)
        return PrimeBasis(ps, q_all, idem)

    @staticmethod
    def first(r: int) -> "PrimeBasis":
        return PrimeBasis.of(first_primes(r))

    @property
    def r(self) -> int:
        return len(self.primes)

    def field_of(self, q: int) -> int:
        """1-based index of prime q in the basis."""
        try:
            return self.primes.index(q) + 1
        except ValueError:
            raise ValueError(f"{q} is not a basis prime") from None

    def mask_fields(self, mask: int) -> tuple[int, ...]:
        """1-based field indices whose primes divide mask; validates mask | Q."""
        if mask < 1 or self.product % mask != 0:
            raise ValueError(f"mask {mask} does not divide the basis product")
        return tuple(s + 1 for s, q in enumerate(self.primes) if mask % q == 0)


def mask_primes(basis: PrimeBasis, mask: int) -> tuple[int, ...]:
    """The primes making up a modulus mask, in basis order."""
    return tuple(basis.primes[s - 1] for s in basis.mask_fields(mask))


def crt_combine(basis: PrimeBasis, residues) -> int:
    """The unique x in [0, Q) with x = u_s mod q_s for every field s."""
    us = list(residues)
    if len(us) != basis.r:
        raise ValueError(f"expected {basis.r} residues, got {len(us)}")
    for u, q in zip(us, basis.primes):
        if not 0 <= u < q:
            raise ValueError(f"residue {u} out of range for prime {q}")
    return sum(u * e for u, e in zip(us, basis.idempotents)) % basis.product


def crt_project(basis: PrimeBasis, x: int, s: int) -> int:
    """Residue of x in field s (1-based)."""
    if not 1 <= s <= basis.r:
        raise ValueError(f"field index {s} out of range 1..{basis.r}")
    return x % basis.primes[s - 1]


def partial_identity(basis: PrimeBasis, mask: int) -> int:
    """L_S: the element that is 1 mod q_s for s in S, 0 mod the rest."""
    if mask == basis.product:
        return 1
    fields = basis.mask_fields(mask)
    return sum(basis.idempotents[s - 1] for s in fields) % basis.product


def partial_inverse(basis: PrimeBasis, x: int, mask: int) -> tuple[int, int]:
    """Invert x on the fields of S where it is invertible.

    Returns (xbar, t_mask) where t_mask = Q_T for T = {s in S : q_s does
    not divide x}; xbar = x^-1 mod q_s for s in T and 0 mod every other
    field.  x = 0 (nothing invertible) yields (0, 1).
    """
    if mask < 1 or basis.product % mask != 0:
        raise ValueError(f"mask {mask} does not divide the basis product")
    t_mask = mask // math.gcd(x, mask)
    if t_mask == 1:
        return 0, 1
    g, v, _ = bezout(x % t_mask, t_mask)
    if g != 1:
        raise InconsistencyError(f"{x} is not a unit modulo {t_mask}")
    return (v % t_mask) * partial_identity(basis, t_mask) % basis.product, t_mask


def word_length(n: int, w: int = 64) -> int:
    """Number of w-bit words needed to encode n >= 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if w < 1:
        raise ValueError("w must be >= 1")
    return (n.bit_length() - 1) // w + 1
