"""CRT layer: primes, masks, the closed-form partial identities and
partial inverses (checked against the idempotent sums they replace), and
64-bit word length."""

import math
import random
from types import SimpleNamespace

import pytest

import mfph.crt
from mfph.crt import (
    InconsistencyError,
    PrimeBasis,
    first_primes,
    is_prime,
    mask_primes,
    partial_inverse,
    word_length,
)

from oracles import crt_combine, crt_project, partial_identity


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
    # a strong pseudoprime to every prime base up to 37
    assert not is_prime(399165290221 * 798330580441)


def test_is_prime_refuses_numbers_beyond_its_exact_range():
    # a strong pseudoprime to every witness, and a true prime above it
    for n in (1287836182261 * 2575672364521, 2**89 - 1):
        with pytest.raises(ValueError, match="3317044064679887385961981"):
            is_prime(n)
        with pytest.raises(ValueError, match="3317044064679887385961981"):
            PrimeBasis.of([2, n])


def _idempotent(Q, q):
    """The one-field idempotent by Fermat: (Q/q)^(q-1) mod Q."""
    return pow(Q // q, q - 1, Q)


def test_idempotents():
    # partial_identity of one prime is the field's idempotent: 1 in that
    # field, 0 in the others; the r of them are orthogonal and sum to 1
    for r in (4, 100):
        basis = PrimeBasis.first(r)
        Q = basis.product
        nus = [partial_identity(basis, q) for q in basis.primes]
        assert nus == [_idempotent(Q, q) for q in basis.primes]
        for s, nu in enumerate(nus):
            for t, q in enumerate(basis.primes):
                assert nu % q == (1 if s == t else 0)
            assert nu * nu % Q == nu
        assert sum(nus) % Q == 1
        for s in range(r):
            for t in range(s + 1, r):
                assert nus[s] * nus[t] % Q == 0


def test_basis_validation():
    with pytest.raises(ValueError):
        PrimeBasis.of([4, 3])
    with pytest.raises(ValueError):
        PrimeBasis.of([2, 2])
    with pytest.raises(ValueError):
        PrimeBasis.of([])
    assert PrimeBasis.first(3).primes == (2, 3, 5)


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


def test_mask_primes():
    basis = PrimeBasis.of([2, 3, 5, 7])
    assert mask_primes(basis, 1) == ()
    assert mask_primes(basis, 210) == (2, 3, 5, 7)
    assert mask_primes(basis, 15) == (3, 5)
    assert mask_primes(basis, 14) == (2, 7)
    # basis order, not sorted order
    assert mask_primes(PrimeBasis.of([7, 2, 5]), 14) == (7, 2)
    for bad in (4, 11, 0, -6):
        with pytest.raises(ValueError, match=f"mask {bad} does not divide"):
            mask_primes(basis, bad)
    for fn in (partial_identity, lambda b, m: partial_inverse(b, 1, m)):
        with pytest.raises(ValueError, match="does not divide"):
            fn(basis, 4)


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
            assert 0 <= xbar < Q
            assert x * xbar % Q == partial_identity(basis, t_mask)
            for p in primes:
                if t_mask % p == 0:
                    assert (x * xbar) % p == 1
                else:
                    assert xbar % p == 0


def test_partial_inverse_checks_for_a_unit(monkeypatch):
    # with gcd forced to 1, 6 keeps the whole mask 30 and pow(6, -1, 30)
    # fails: the non-unit must raise InconsistencyError, not ValueError
    basis = PrimeBasis.of([2, 3, 5])
    monkeypatch.setattr(mfph.crt, "math", SimpleNamespace(gcd=lambda a, b: 1))
    with pytest.raises(InconsistencyError, match="not a unit modulo 30"):
        partial_inverse(basis, 6, 30)


def test_word_length():
    assert word_length(1) == 1
    assert word_length(2**64 - 1) == 1
    assert word_length(2**64) == 2
    assert word_length(2**128 - 1) == 2
    assert word_length(2**128) == 3
    with pytest.raises(ValueError):
        word_length(0)
    # the defining formula gives 5/12/27 words for the first 50/100/200
    # prime products at w = 64 (their closed-form estimates are larger;
    # see lambda_bound in the bench module)
    for r, words in ((50, 5), (100, 12), (200, 27)):
        assert word_length(math.prod(first_primes(r))) == words


def test_closed_forms_match_the_idempotent_sums():
    # the CRT element is unique in [0, Q), so the closed forms must give
    # the integers of the summed-idempotent formulas: L_S = sum of the
    # idempotents over S, xbar = (x^-1 mod Q_T) * L_T mod Q
    rng = random.Random(5)
    for r in (25, 100):
        basis = PrimeBasis.first(r)
        Q = basis.product

        def identity_sum(mask):
            return sum(_idempotent(Q, q) for q in basis.primes if mask % q == 0) % Q

        residues = [rng.randrange(q) for q in basis.primes]
        assert crt_combine(basis, residues) == (
            sum(u * _idempotent(Q, q) for u, q in zip(residues, basis.primes)) % Q
        )
        for _ in range(40):
            mask = math.prod(q for q in basis.primes if rng.random() < 0.6)
            assert partial_identity(basis, mask) == identity_sum(mask)
            x = rng.randrange(Q)
            # a few primes of the mask divide x, so T is a proper subset
            x = x * math.prod(q for q in basis.primes[:8] if rng.random() < 0.3) % Q
            xbar, t_mask = partial_inverse(basis, x, mask)
            assert t_mask == mask // math.gcd(x, mask)
            want = pow(x, -1, t_mask) * identity_sum(t_mask) % Q if t_mask > 1 else 0
            assert xbar == want
