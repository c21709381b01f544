"""Exact integer helpers shared by the field, feasibility and scan code.

Everything here is plain integer arithmetic (Python ints are unbounded, so
the 128-bit headroom the scans need is automatic).  Primality is a
deterministic Miller-Rabin valid far beyond the scan ranges; factorization
is trial division plus Brent's variant of Pollard rho.  The prime powers up
to SIEVE_LIMIT sit in one process-wide (q, p, f) index, built by a sieve of
Eratosthenes when a scan first needs it and grown only; `prime_power`
searches it, and factorizes beyond it.  A scan range gets its prime powers
as numpy arrays: int64 up to SIEVE_LIMIT, where every q**3 fits in 63 bits,
and Python ints (dtype=object) past it, where only the q above the limit
are tested one at a time.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right

import numpy as np

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic primality test (exact for n < 3.3e24)."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def icbrt(n: int) -> int:
    """Integer cube root: the largest r with r**3 <= n."""
    if n < 0:
        raise ValueError("negative input")
    if n == 0:
        return 0
    # Newton's step from 2**ceil(bits/3), which lies above the cube root,
    # descends strictly until it reaches the floor of the root.
    r = 1 << -(-n.bit_length() // 3)
    while True:
        s = (2 * r + n // (r * r)) // 3
        if s >= r:
            return r
        r = s


def is_square_int(n: int) -> bool:
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


def _pollard_brent(n: int) -> int:
    # n odd composite, not a prime power of a small prime
    if n % 2 == 0:
        return 2
    x0 = 2
    c = 1
    while True:
        y = x0
        d = 1
        q = 1
        m = 128
        # the walk from x is doubled each round, so it reaches any cycle length
        r = 1
        while d == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and d == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                d = math.gcd(q, n)
                k += m
            r *= 2
        if d != n:
            return d
        # backtrack
        y = ys
        while True:
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
            if d > 1:
                break
        if d != n:
            return d
        c += 1


def factorize(n: int) -> dict[int, int]:
    """Prime factorization as {prime: exponent}."""
    if n <= 0:
        raise ValueError("positive integer required")
    out: dict[int, int] = {}
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n == 1:
        return out
    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        # trial divide a bit further before rho
        d = None
        f = 49
        while f * f <= m and f < 10_000:
            if m % f == 0:
                d = f
                break
            f += 2
        if d is None:
            d = _pollard_brent(m)
        stack.append(d)
        stack.append(m // d)
    return out


def divisors_from_factors(fac: dict[int, int]) -> list[int]:
    """All divisors, ascending."""
    divs = [1]
    for p, e in fac.items():
        pk = 1
        block = []
        for _ in range(e):
            pk *= p
            block.extend(d * pk for d in divs)
        divs.extend(block)
    divs.sort()
    return divs


SIEVE_LIMIT = 2_000_000  # the largest range end the shared index is built for
# every q in the index has q**3 <= 8e18 < 2**63, so the scan kernels may
# evaluate the index formulas in int64 anywhere inside it

# (n, q, p, f): every prime power q = p**f with q <= n, ascending, and its
# prime and exponent, as memoryviews of int32 arrays.  Each build replaces
# the whole tuple in one assignment, so a reader on another thread sees
# either the old index or the new one, never a mix.
_INDEX = (0, *map(memoryview, np.zeros((3, 0), np.int32)))


def spf_sieve(limit: int) -> None:
    """Build the shared prime-power index up to `limit`.

    The process keeps one index (see `_INDEX`); it grows only, so a request
    at or below the limit it already covers does nothing.  One int8 array
    marks the primes by a sieve of Eratosthenes and then each higher power
    p**f with its exponent f, so its nonzero entries are the q in order and
    no rows need sorting.  (The name is kept for perfbench/tracer.py, which
    looks it up until the benchmark is re-pointed: ROADMAP item 1.)"""
    global _INDEX
    if limit <= _INDEX[0]:
        return
    sieve = np.ones(limit + 1, dtype=np.int8)  # 1 at each prime, f at each p**f
    sieve[:2] = 0
    root = math.isqrt(limit)
    for i in range(2, root + 1):
        if sieve[i]:
            sieve[i * i :: i] = 0
    base = {}  # p for each p**f with f >= 2
    for b in np.flatnonzero(sieve[: root + 1]).tolist():
        power, k = b * b, 2
        while power <= limit:
            sieve[power], base[power] = k, b
            power, k = power * b, k + 1
    q = np.flatnonzero(sieve).astype(np.int32)
    f = sieve[q].astype(np.int32)
    p = q.copy()
    p[np.searchsorted(q, list(base))] = list(base.values())
    _INDEX = (limit, *map(memoryview, (q, p, f)))


def factorize_sieved(n: int, spf) -> dict[int, int]:
    out: dict[int, int] = {}
    while n > 1:
        p = spf[n]
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        out[p] = e
    return out


def prime_power(q: int) -> tuple[int, int] | None:
    """Return (p, f) with q = p**f, or None if q is not a prime power.

    Inside the shared prime-power index (see `spf_sieve`) this is a binary
    search; q beyond it is factorized.  Nothing here builds the index."""
    if q < 2:
        return None
    n, qs, ps, fs = _INDEX
    if q <= n:
        i = bisect_left(qs, q)
        return (ps[i], fs[i]) if i < len(qs) and qs[i] == q else None
    fac = factorize(q)
    if len(fac) != 1:
        return None
    ((p, f),) = fac.items()
    return p, f


def iter_prime_powers(lo: int, hi: int):
    """Yield (q, p, f) for every prime power q = p**f with lo <= q <= hi,
    ascending: the rows of `prime_power_arrays(lo, hi)` as Python ints."""
    yield from zip(*(col.tolist() for col in prime_power_arrays(lo, hi)))


def prime_power_arrays(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(q, p, f) as three equal-length arrays: every prime power
    q = p**f with lo <= q <= hi, ascending.

    The q up to SIEVE_LIMIT are read from the shared prime-power index
    (see `spf_sieve`), built up to min(hi, SIEVE_LIMIT) if needed; only the
    q above the limit are tested one at a time by `prime_power`.  The dtype
    follows from hi: int64 up to SIEVE_LIMIT, where q**3 < 2**63 holds for
    every entry, and Python ints (dtype=object) beyond it, so the same
    array expressions stay exact at any size."""
    top = min(hi, SIEVE_LIMIT)
    if lo <= top:
        spf_sieve(top)
    _, q, p, f = _INDEX
    i, j = bisect_left(q, lo), bisect_right(q, top)
    cols = [col[i:j] for col in (q, p, f)]
    if hi <= SIEVE_LIMIT:
        return tuple(np.asarray(col, dtype=np.int64) for col in cols)
    past = [(x, *pf) for x in range(max(lo, SIEVE_LIMIT + 1), hi + 1) if (pf := prime_power(x))]
    return tuple(
        np.array(col.tolist() + [row[k] for row in past], dtype=object) for k, col in enumerate(cols)
    )
