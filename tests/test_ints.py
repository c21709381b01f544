"""Exact integer helpers: differential tests against sympy, exactness at
sizes beyond float range, and independence from the shared prime-power
index."""

import random

import numpy as np
import pytest
from sympy import factorint, isprime

from quadforge import _ints
from quadforge._ints import (
    factorize,
    icbrt,
    is_prime,
    iter_prime_powers,
    prime_power,
    prime_power_arrays,
    spf_sieve,
)
from quadforge.classify import theorem_driver

N = 30_000


EMPTY_INDEX = (0, *map(memoryview, np.zeros((3, 0), np.int32)))


@pytest.fixture
def no_table(monkeypatch):
    """A process state in which no scan has built the shared index yet."""
    monkeypatch.setattr(_ints, "_INDEX", EMPTY_INDEX)


def _covered():
    """The largest q the shared index covers."""
    return _ints._INDEX[0]


def _sympy_prime_power(n):
    fac = factorint(n)
    return next(iter(fac.items())) if len(fac) == 1 else None


@pytest.fixture(scope="module")
def oracle():
    return {n: factorint(n) for n in range(1, N + 1)}


def test_is_prime_and_factorize_match_sympy(oracle):
    for n in range(-2, N + 1):
        assert is_prime(n) == isprime(n), n
    for n, fac in oracle.items():
        assert factorize(n) == fac, n


def test_spf_sieve_matches_sympy(no_table, oracle):
    spf_sieve(N)
    n, *index = _ints._INDEX
    assert n == N and all(col.format == "i" for col in index)
    want = [(q, p, f) for q, fac in oracle.items() if len(fac) == 1 for p, f in fac.items()]
    assert list(zip(*(col.tolist() for col in index))) == want


def test_prime_power_and_iter_match_sympy(no_table, oracle):
    want = {n: (next(iter(f.items())) if len(f) == 1 else None) for n, f in oracle.items()}
    assert [prime_power(n) for n in range(1, N + 1)] == list(want.values())
    got = list(iter_prime_powers(2, N))
    assert got == [(n, *pf) for n, pf in want.items() if pf is not None]
    # iter_prime_powers built the index; prime_power now reads it
    assert _covered() == N
    assert [prime_power(n) for n in range(1, N + 1)] == list(want.values())


def test_prime_power_same_with_and_without_table(no_table):
    rng = random.Random(7)
    qs = list(range(0, 5000)) + [rng.randrange(5000, 200_000) for _ in range(3000)]
    qs += [2**17, 3**11, 5**7, 7**6, 131**2, 2**17 * 3, 199_999]
    without = [prime_power(q) for q in qs]
    assert _ints._INDEX is EMPTY_INDEX
    spf_sieve(200_000)
    assert _covered() == 200_000
    assert [prime_power(q) for q in qs] == without


def test_spf_sieve_grows_only(no_table):
    spf_sieve(1000)
    big = _ints._INDEX
    spf_sieve(10)
    spf_sieve(1000)
    assert _ints._INDEX is big  # a request it covers leaves the shared index as is
    spf_sieve(2000)
    assert _ints._INDEX is not big and _covered() == 2000
    assert prime_power_arrays(2, 1000)[0].tolist() == big[1].tolist()


def _per_q(lo, hi):
    return [(q, *prime_power(q)) for q in range(lo, hi + 1) if prime_power(q)]


def test_iter_prime_powers_across_table_growth(no_table):
    # each range runs past the index the last one left, so the index is
    # rebuilt between them; the ranges overlap
    for lo, hi in [(0, 1), (2, 2), (0, 100), (90, 1000), (1000, 1024), (500, 5000), (4900, 40_000)]:
        got = list(iter_prime_powers(lo, hi))
        assert _covered() >= hi
        assert got == _per_q(lo, hi), (lo, hi)
    # inside the index nothing is rebuilt
    index = _ints._INDEX
    assert list(iter_prime_powers(31_000, 32_768)) == _per_q(31_000, 32_768)
    assert _ints._INDEX is index and (32_768, 2, 15) in list(iter_prime_powers(32_768, 32_768))
    assert list(iter_prime_powers(10, 9)) == [] and list(iter_prime_powers(-5, 1)) == []


def test_iter_prime_powers_after_the_table_is_reset(monkeypatch):
    spf_sieve(50_000)
    assert list(iter_prime_powers(2, 50_000)) == _per_q(2, 50_000)
    # a fresh index smaller than the old one
    monkeypatch.setattr(_ints, "_INDEX", EMPTY_INDEX)
    assert list(iter_prime_powers(2, 3000)) == _per_q(2, 3000)
    assert _covered() == 3000
    monkeypatch.undo()
    # the old index is back and serves the rest of the range
    assert _covered() >= 50_000
    assert list(iter_prime_powers(2900, 50_000)) == _per_q(2900, 50_000)


def test_iter_prime_powers_beyond_the_sieve_limit():
    lo = 2_000_000_000 - 300
    got = list(iter_prime_powers(lo, lo + 600))
    want = [(n, *_sympy_prime_power(n)) for n in range(lo, lo + 601) if _sympy_prime_power(n)]
    assert got == want
    assert (2**31, 2, 31) in list(iter_prime_powers(2**31 - 1, 2**31))


@pytest.mark.parametrize("below", [0, 1, 100_000])
def test_a_range_across_the_sieve_limit_tests_only_the_q_past_it(monkeypatch, below):
    limit, calls, real = _ints.SIEVE_LIMIT, [], prime_power
    monkeypatch.setattr(_ints, "prime_power", lambda q: calls.append(q) or real(q))
    lo, hi = limit - below, limit + 300
    q, p, f = prime_power_arrays(lo, hi)
    assert calls == list(range(limit + 1, hi + 1))
    assert q.dtype == p.dtype == f.dtype == object
    want = [(n, *pf) for n in range(lo, hi + 1) if (pf := _sympy_prime_power(n))]
    assert list(zip(q, p, f)) == want


def test_icbrt_exact_beyond_float_range():
    rng = random.Random(11)
    samples = list(range(0, 3000)) + [rng.getrandbits(rng.randint(1, 1200)) for _ in range(2000)]
    for k in (10**100, 3**700):
        samples += [k**3 - 1, k**3, k**3 + 1]
    for n in samples:
        r = icbrt(n)
        assert r**3 <= n < (r + 1) ** 3, n
    with pytest.raises(ValueError):
        icbrt(-1)


def test_theorem_report_independent_of_table(no_table):
    def serialized(outcome):  # every record field, the confirmed survivors included
        return [r.to_dict() for r in outcome.records], outcome.ok

    fresh = serialized(theorem_driver(2000))
    spf_sieve(200_000)
    assert serialized(theorem_driver(2000)) == fresh


def test_a_theorem_run_factorizes_no_prime_power_query(no_table, monkeypatch):
    # the driver builds the index before its first record, and each q = q0^r
    # of the subfield grids is decomposed through q0
    calls, real = [], factorize
    monkeypatch.setattr(_ints, "factorize", lambda n: calls.append(n) or real(n))
    assert theorem_driver(108003).ok
    assert calls == [] and _covered() == 108003
