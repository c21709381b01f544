"""Exact integer helpers shared by the field, feasibility and scan code.

Everything here is plain integer arithmetic (Python ints are unbounded, so
the 128-bit headroom the scans need is automatic).  Primality is a
deterministic Miller-Rabin valid far beyond the scan ranges; factorization
is trial division plus Brent's variant of Pollard rho.  The prime powers of
a scan range also come as numpy arrays: int64 inside the shared sieve,
where every q**3 fits in 63 bits, and Python ints (dtype=object) beyond.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right

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


SIEVE_LIMIT = 2_000_000  # the largest range end the shared table is built for
# every q in the table has q**3 <= 8e18 < 2**63, so the scan kernels may
# evaluate the index formulas in int64 anywhere inside it

_SPF = array("i")
# (the table it indexes, its prime powers ascending as an int32 view, the
# smallest prime factor and the exponent of each)
_PP = (_SPF, np.zeros(0, np.int32), np.zeros(0, np.int32), np.zeros(0, np.int32))


def spf_sieve(limit: int) -> array:
    """Smallest-prime-factor table covering 0..limit.

    The process keeps one table: it is rebuilt only when a caller asks for
    a larger limit and otherwise returned as is, so it may run past
    `limit`.  `prime_power` reads it for every q it covers.  Next to it
    sits a compact index of the prime powers it covers, (q, p, f) as numpy
    arrays, rebuilt whenever the table changes: q is a zero-copy view of an
    `array`, p is read off the table and f counts the divisions by p."""
    global _SPF, _PP
    if limit >= len(_SPF):
        spf = array("i", range(limit + 1))
        # i runs down, so each j >= i*i keeps the least i > 1 dividing it,
        # which is its smallest prime factor
        for i in range(math.isqrt(limit), 1, -1):
            spf[i * i :: i] = array("i", [i]) * len(range(i * i, limit + 1, i))
        _SPF = spf
    if _PP[0] is not _SPF:
        n = len(_SPF)
        primes = [m for m in range(2, n) if _SPF[m] == m]
        powers = []
        for p in primes[: bisect_right(primes, math.isqrt(n))]:
            pk = p * p
            while pk < n:
                powers.append(pk)
                pk *= p
        q = np.frombuffer(array("i", sorted(primes + powers)), dtype=np.int32)
        p = np.frombuffer(_SPF, dtype=np.int32)[q]
        f = np.zeros_like(q)
        m = q
        while (left := m > 1).any():  # q < 2**31, so at most 30 rounds
            m = np.where(left, m // p, m)
            f += left
        _PP = (_SPF, q, p, f)
    return _SPF


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

    Inside the shared smallest-prime-factor table (see `spf_sieve`) this is
    a lookup plus a division loop; q beyond it is factorized.  Nothing here
    builds the table."""
    if q < 2:
        return None
    if q < len(_SPF):
        p = _SPF[q]
        m, f = q, 0
        while m % p == 0:
            m //= p
            f += 1
        return (p, f) if m == 1 else None
    fac = factorize(q)
    if len(fac) != 1:
        return None
    ((p, f),) = fac.items()
    return p, f


def iter_prime_powers(lo: int, hi: int):
    """Yield (q, p, f) for every prime power q = p**f with lo <= q <= hi,
    ascending.

    Up to SIEVE_LIMIT this reads the prime-power index of the shared table
    (see `spf_sieve`) and never visits another integer; beyond it each q
    is tested by `prime_power`."""
    if hi < lo:
        return
    if hi > SIEVE_LIMIT:
        for q in range(max(lo, 2), hi + 1):
            pf = prime_power(q)
            if pf is not None:
                yield q, pf[0], pf[1]
        return
    yield from zip(*(col.tolist() for col in prime_power_arrays(lo, hi)))


def prime_power_arrays(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(q, p, f) as three equal-length arrays: every prime power
    q = p**f with lo <= q <= hi, ascending.

    The dtype follows from hi.  Up to SIEVE_LIMIT the arrays are int64
    copies of a slice of the shared prime-power index, and q**3 < 2**63
    holds for every entry.  Beyond it they hold Python ints (dtype=object),
    found by `iter_prime_powers`, so the same array expressions stay exact
    at any size."""
    if hi > SIEVE_LIMIT:
        rows = list(iter_prime_powers(lo, hi))
        return tuple(np.array([r[i] for r in rows], dtype=object) for i in range(3))
    if hi < lo:
        return tuple(np.zeros(0, np.int64) for _ in range(3))
    spf_sieve(hi)
    _, q, p, f = _PP
    i, j = np.searchsorted(q, lo), np.searchsorted(q, hi, side="right")
    return tuple(col[i:j].astype(np.int64) for col in (q, p, f))
