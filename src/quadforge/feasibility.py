"""Parameter arithmetic for generalized quadrangles of order (s,t).

Everything is exact integer arithmetic; inequality tests are evaluated
by cross-multiplication, never floating point, because the scans certify
nonexistence.  The array solvers run the count equations over a whole scan
at once: on int64 arrays every intermediate is bounded below 2**63 (see
INT64_COUNT_LIMIT), and object arrays of Python ints take the same
expressions at any size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._ints import divisors_from_factors, factorize, icbrt

# int64 inputs of the array solvers must be below this.  Every index
# formula at q <= SIEVE_LIMIT = 2e6 is at most q(q^2-1)/24 < 3.4e17 < 2**59,
# and the bounds in `solve_orders_array` keep each intermediate below
# 8 * 2**59 = 2**62.
INT64_COUNT_LIMIT = 1 << 59


@dataclass(frozen=True)
class GQOrder:
    s: int
    t: int

    @property
    def thick(self) -> bool:
        return self.s >= 2 and self.t >= 2

    @property
    def n_points(self) -> int:
        return (self.s + 1) * (self.s * self.t + 1)

    @property
    def n_lines(self) -> int:
        return (self.t + 1) * (self.s * self.t + 1)


def solve_orders(nP: int, nL: int) -> list[GQOrder]:
    """All thick orders (s,t) with (s+1)(st+1) = nP and (t+1)(st+1) = nL.

    There is at most one.  With k = gcd(s+1, t+1), gcd(nP, nL) is
    g = k(st+1), so a = nP/g and b = nL/g are (s+1)/k and (t+1)/k.  Putting
    s = ak-1, t = bk-1 into g = k(st+1) gives

        h(k) = k (ab k^2 - (a+b) k + 2) = g,

    and any k >= 1 solving it gives a solution back.  For k >= 1,
    ab k^3 - h(k) = k((a+b)k - 2) >= 0, and h(k) - ab(k-1)^3 =
    (3ab-a-b)k^2 + (2-3ab)k + ab > 0 (it is (a-1)(b-1)+1 at k = 1 and
    grows from there).  So a root satisfies ab(k-1)^3 < g <= ab k^3: it
    can only be the least k with ab k^3 >= g, which one integer cube root
    finds.
    """
    if nP < 2 or nL < 2:
        return []
    g = math.gcd(nP, nL)
    a, b = nP // g, nL // g
    m = -(-g // (a * b))  # ab k^3 >= g  iff  k^3 >= m
    k = icbrt(m)
    if k**3 < m:
        k += 1
    s, t = a * k - 1, b * k - 1
    if k * (s * t + 1) != g or s < 2 or t < 2:
        return []
    return [GQOrder(s, t)]


def _check_int64(n: np.ndarray) -> None:
    if n.size and n.dtype != object and n.max() >= INT64_COUNT_LIMIT:
        raise ValueError("int64 counts must lie below 2**59; use dtype=object beyond")


def icbrt_array(n: np.ndarray) -> np.ndarray:
    """`icbrt` elementwise over an integer array with every entry >= 1.

    int64 arrays take icbrt's Newton descent in lockstep, from the same
    seed 2**ceil(bits/3), whose bit length is found by integer shifts: each
    entry steps exactly as the scalar does and stops where it stops.  The
    seed is at most 2**21, so r*r < 2**42.  object arrays hold Python ints
    and go through `icbrt` itself."""
    _check_int64(n)
    if n.size and n.min() < 1:
        raise ValueError("icbrt_array needs entries >= 1")
    if n.dtype == object:
        return np.frompyfunc(icbrt, 1, 1)(n)
    bits = np.zeros_like(n)
    m = n
    for shift in (32, 16, 8, 4, 2, 1):
        big = (m >> shift) > 0
        m = np.where(big, m >> shift, m)
        bits += big * shift
    r = np.left_shift(1, (bits + (m > 0) + 2) // 3)
    while True:
        s = (2 * r + n // (r * r)) // 3
        down = s < r
        if not down.any():
            return r
        r = np.where(down, s, r)


def solve_orders_array(nP: np.ndarray, nL: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`solve_orders` elementwise over two equal-length integer arrays:
    arrays (s, t) holding the thick order where both counts are met and 0
    where there is none.

    The algebra is the scalar's.  A solution has s = ak-1 >= a-1 and
    t >= b-1, so g = k(st+1) >= (a-1)(b-1)+1, that is ab <= g + a + b - 2;
    rows failing that (tested as a <= (g+a+b)//b, without the product)
    have none and are dropped first.  On the rest ab <= 3N, N the largest
    count.  The least k with ab k^3 >= g has ab(k-1)^3 < g, so for k >= 2
    ab k^3 < 8g, and for k = 1 it is ab: every product below (ak, bk, st,
    k(st+1)) is at most ab k^3 + k < 8N + k < 2**63 for int64 input."""
    _check_int64(nP)
    _check_int64(nL)
    s, t = np.zeros_like(nP), np.zeros_like(nL)
    rows = np.flatnonzero((nP >= 2) & (nL >= 2))
    g = np.gcd(nP[rows], nL[rows])
    a, b = nP[rows] // g, nL[rows] // g
    live = a <= (g + a + b) // b
    rows, g, a, b = rows[live], g[live], a[live], b[live]
    m = -(-g // (a * b))  # ab k^3 >= g  iff  k^3 >= m
    k = icbrt_array(m)
    k = k + (k * k * k < m)
    sk, tk = a * k - 1, b * k - 1
    ok = (k * (sk * tk + 1) == g) & (sk >= 2) & (tk >= 2)
    s[rows[ok]], t[rows[ok]] = sk[ok], tk[ok]
    return s, t


def solve_point_count(nP: int) -> list[GQOrder]:
    """All thick (s,t) satisfying the single point-count equation
    (s+1)(st+1) = nP; t is unconstrained by a line count here."""
    out = []
    for u in divisors_from_factors(factorize(nP)):
        if u < 3:
            continue
        s = u - 1
        d = nP // u
        if d < 2 * s + 1:
            continue
        if (d - 1) % s == 0:
            out.append(GQOrder(s, (d - 1) // s))
    out.sort(key=lambda o: (o.s, o.t))
    return out


def solve_equal_order(n: int) -> int | None:
    """The s >= 1 with (s+1)(s^2+1) = n, if any.  For s >= 1,
    s^3 < (s+1)(s^2+1) < (s+1)^3, so s can only be the integer cube root
    of n."""
    s = icbrt(n) if n > 0 else 0
    return s if s >= 1 and (s + 1) * (s * s + 1) == n else None


def solve_equal_order_array(n: np.ndarray) -> np.ndarray:
    """`solve_equal_order` elementwise over an integer array: the s, or 0
    where there is none.  With s**3 <= n < 2**59, (s+1)(s^2+1) <=
    n + 3s^2 + 1 stays below 2**63 for int64 input."""
    s = icbrt_array(np.maximum(n, 1))
    return np.where((s >= 1) & ((s + 1) * (s * s + 1) == n), s, 0)


def higman(s: int, t: int) -> bool:
    """Higman's inequality: s <= t^2 and t <= s^2."""
    return s <= t * t and t <= s * s


def divisibility(s: int, t: int) -> bool:
    """s + t divides st(s+1)(t+1)."""
    return s * t * (s + 1) * (t + 1) % (s + t) == 0


def cube_bounds(s: int, t: int, nP: int, nL: int) -> bool:
    """((t+1)/(s+1))^3 < |P| and ((s+1)/(t+1))^3 < |L|, cross-multiplied."""
    a, b = t + 1, s + 1
    return a**3 < nP * b**3 and b**3 < nL * a**3


def grid_order_check(s1: int, s2: int):
    """A grid with parameters (s1, s2) is a generalized quadrangle exactly
    when s1 = s2, of order (s1, 1).  Returns GQOrder or None."""
    if s1 < 1 or s2 < 1:
        raise ValueError("grid parameters must be >= 1")
    return GQOrder(s1, 1) if s1 == s2 else None


@dataclass(frozen=True)
class StabilizerBounds:
    """Size window for the line stabilizer given |G| and |G_alpha|.

    |G_alpha|^(4/3) / |G|^(1/3)  <  |G_ell|  <  |G_alpha|^(3/4) |G|^(1/4),
    evaluated exactly: the lower test is |G_ell|^3 |G| > |G_alpha|^4 and
    the upper |G_ell|^4 < |G_alpha|^3 |G|.  Strict on both sides.
    """

    group_order: int
    point_stab_order: int

    def lower_ok(self, line_stab_order: int) -> bool:
        return line_stab_order**3 * self.group_order > self.point_stab_order**4

    def upper_ok(self, line_stab_order: int) -> bool:
        return line_stab_order**4 < self.point_stab_order**3 * self.group_order

    def admits(self, line_stab_order: int) -> bool:
        return self.lower_ok(line_stab_order) and self.upper_ok(line_stab_order)


def stabilizer_bounds(group_order: int, point_stab_order: int) -> StabilizerBounds:
    if group_order % point_stab_order:
        raise ValueError("point stabilizer order must divide the group order")
    return StabilizerBounds(group_order, point_stab_order)


def apply_filters(candidates: list[GQOrder], nP: int, nL: int):
    """Run the named feasibility predicates over candidates.

    Returns (survivors, trace) where trace lists (order, filter_name,
    passed) for reproducibility.
    """
    survivors = []
    trace = []
    for cand in candidates:
        ok = True
        for name, res in (
            ("higman", higman(cand.s, cand.t)),
            ("divisibility", divisibility(cand.s, cand.t)),
            ("cube", cube_bounds(cand.s, cand.t, nP, nL)),
        ):
            trace.append((cand, name, res))
            ok = ok and res
        if ok:
            survivors.append(cand)
    return survivors, trace
