"""CRT layer: primes, bezout, idempotents, partial identities/inverses."""

import math
import random

import pytest

import mfph.crt
from mfph.crt import (
    InconsistencyError,
    PrimeBasis,
    bezout,
    crt_combine,
    crt_project,
    first_primes,
    is_prime,
    mask_primes,
    partial_identity,
    partial_inverse,
    word_length,
)


def test_first_primes():
    assert first_primes(5) == (2, 3, 5, 7, 11)
    assert first_primes(1) == (2,)
    ps = first_primes(200)
    assert len(ps) == 200
    assert ps[49] == 229 and ps[99] == 541 and ps[199] == 1223
    assert all(is_prime(p) for p in ps)


def test_is_prime():
    assert is_prime(2) and is_prime(3) and is_prime(2**61 - 1)
    assert not is_prime(1) and not is_prime(0) and not is_prime(-7)
    # Carmichael numbers and squares must not fool the test
    assert not is_prime(561) and not is_prime(341) and not is_prime(169)


def test_bezout_hand_cases():
    assert bezout(3, 6) == (3, 1, 0)
    assert bezout(35, 6) == (1, -1, 6)
    assert bezout(1, 97) == (1, 1, 0)
    g, v, w = bezout(0, 5)
    assert g == 5 and 0 * v + 5 * w == 5


def test_bezout_identity_random():
    rng = random.Random(42)
    for _ in range(500):
        a = rng.randrange(-(10**9), 10**9)
        b = rng.randrange(-(10**9), 10**9)
        if a == 0 and b == 0:
            continue
        g, v, w = bezout(a, b)
        assert g == math.gcd(a, b) > 0
        assert a * v + b * w == g


def test_idempotents():
    basis = PrimeBasis.of([2, 3, 5, 7])
    Q = basis.product
    assert Q == 210
    for s, nu in enumerate(basis.idempotents, start=1):
        for t, q in enumerate(basis.primes, start=1):
            assert nu % q == (1 if s == t else 0)
        assert nu * nu % Q == nu
    assert sum(basis.idempotents) % Q == 1
    nus = basis.idempotents
    for s in range(4):
        for t in range(s + 1, 4):
            assert nus[s] * nus[t] % Q == 0


def test_basis_validation():
    with pytest.raises(ValueError):
        PrimeBasis.of([4, 3])
    with pytest.raises(ValueError):
        PrimeBasis.of([2, 2])
    with pytest.raises(ValueError):
        PrimeBasis.of([])
    assert PrimeBasis.first(3).primes == (2, 3, 5)
    assert PrimeBasis.of([2, 3]).field_of(3) == 2


def test_crt_roundtrip_exhaustive():
    basis = PrimeBasis.of([2, 3, 5, 7])
    Q = basis.product
    for x in range(Q):
        residues = [crt_project(basis, x, s) for s in range(1, 5)]
        assert residues == [x % q for q in basis.primes]
        assert crt_combine(basis, residues) == x


def test_crt_combine_validation():
    basis = PrimeBasis.of([2, 3])
    with pytest.raises(ValueError):
        crt_combine(basis, [1])
    with pytest.raises(ValueError):
        crt_combine(basis, [2, 0])
    with pytest.raises(ValueError):
        crt_project(basis, 1, 3)


def test_mask_fields():
    basis = PrimeBasis.of([2, 3, 5, 7])
    assert basis.mask_fields(1) == ()
    assert basis.mask_fields(210) == (1, 2, 3, 4)
    assert basis.mask_fields(15) == (2, 3)
    assert mask_primes(basis, 14) == (2, 7)
    with pytest.raises(ValueError):
        basis.mask_fields(4)
    with pytest.raises(ValueError):
        basis.mask_fields(11)


def test_partial_identity():
    basis = PrimeBasis.of([2, 3, 5, 7])
    Q = basis.product
    assert partial_identity(basis, 1) == 0
    assert partial_identity(basis, Q) == 1
    primes = basis.primes
    for bits in range(16):
        mask = math.prod(p for i, p in enumerate(primes) if bits >> i & 1)
        ell = partial_identity(basis, mask)
        for p in primes:
            assert ell % p == (1 if mask % p == 0 else 0)


def test_partial_inverse_law_exhaustive():
    # x * xbar == L_T (mod Q) for every x and every subset mask of 210
    basis = PrimeBasis.of([2, 3, 5, 7])
    Q = basis.product
    primes = basis.primes
    for bits in range(16):
        mask = math.prod(p for i, p in enumerate(primes) if bits >> i & 1)
        for x in range(Q):
            xbar, t_mask = partial_inverse(basis, x, mask)
            g = math.gcd(x, mask)
            assert t_mask == mask // g
            assert x * xbar % Q == partial_identity(basis, t_mask)
            for p in primes:
                if t_mask % p == 0:
                    assert (x * xbar) % p == 1
                else:
                    assert xbar % p == 0


def test_partial_inverse_checks_bezout(monkeypatch):
    basis = PrimeBasis.of([2, 3, 5])
    monkeypatch.setattr(mfph.crt, "bezout", lambda a, b: (2, 0, 0))
    with pytest.raises(InconsistencyError):
        partial_inverse(basis, 7, 30)


def test_word_length():
    assert word_length(1) == 1
    assert word_length(2**64 - 1) == 1
    assert word_length(2**64) == 2
    assert word_length(2**128 - 1, 64) == 2
    assert word_length(255, 8) == 1
    # the defining formula gives 5/12/27 words for the first 50/100/200
    # prime products at w = 64 (their closed-form estimates are larger;
    # see lambda_bound in the bench module)
    for r, words in ((50, 5), (100, 12), (200, 27)):
        assert word_length(math.prod(first_primes(r))) == words
