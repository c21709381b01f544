import random

import pytest
from oracle import admits, grid_order_check, lower_ok

from quadforge._ints import divisors_from_factors, factorize, iter_prime_powers
from quadforge.feasibility import (
    GQOrder,
    cube_bounds,
    divisibility,
    higman,
    solve_equal_order,
    solve_orders,
    solve_point_count,
    stabilizer_bounds,
)
from quadforge.subgroups import Q_INDEX, case_condition

# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def brute_orders(nP, nL, cap=2000):
    out = []
    for s in range(2, cap):
        if (s + 1) * (2 * s + 1) > nP:
            break
        for t in range(2, cap):
            d = s * t + 1
            if (s + 1) * d > nP:
                break
            if (s + 1) * d == nP and (t + 1) * d == nL:
                out.append((s, t))
    return out


def divisor_orders(nP):
    """Every thick (s, t, nL) with (s+1)(st+1) = nP, by the divisor
    enumeration the closed-form solver replaced: u = s+1 runs over the
    divisors of nP and t = (nP/u - 1)/s must be an integer >= 2."""
    out = []
    for u in divisors_from_factors(factorize(nP)) if nP >= 2 else []:
        if u < 3:
            continue
        s = u - 1
        d = nP // u
        if d < 2 * s + 1:
            break
        if (d - 1) % s == 0:
            t = (d - 1) // s
            out.append((s, t, (t + 1) * d))
    return out


def divisor_solve(nP, nL):
    return [(s, t) for s, t, n in divisor_orders(nP) if n == nL and nL >= 2]


def bisection_equal_order(n):
    """The doubling-then-bisection search the cube-root solver replaced."""
    lo, hi = 1, 1
    while (hi + 1) * (hi * hi + 1) <= n:
        hi *= 2
    while lo <= hi:
        mid = (lo + hi) // 2
        v = (mid + 1) * (mid * mid + 1)
        if v == n:
            return mid
        if v < n:
            lo = mid + 1
        else:
            hi = mid - 1
    return None


# ---------------------------------------------------------------------------
# order solving
# ---------------------------------------------------------------------------


def test_solve_orders_known_values():
    assert [(o.s, o.t) for o in solve_orders(15, 15)] == [(2, 2)]
    assert [(o.s, o.t) for o in solve_orders(28, 21)] == [(3, 2)]
    assert solve_orders(16, 16) == []


def test_solve_orders_vs_brute_force():
    cases = [
        (15, 15), (28, 21), (21, 28), (66, 45), (16, 16), (45, 27),
        (27, 45), (325, 325), (100, 100), (276, 253), (1105, 1105),
        (40, 40), (112, 112), (126, 126), (2752, 2752),
    ]
    for nP, nL in cases:
        got = [(o.s, o.t) for o in solve_orders(nP, nL)]
        assert got == brute_orders(nP, nL), (nP, nL)


def test_solve_orders_vs_brute_force_scan():
    # every point count up to a few thousand, paired with compatible lines
    for nP in range(15, 3000, 7):
        for o in solve_point_count(nP):
            nL = (o.t + 1) * (o.s * o.t + 1)
            assert (o.s, o.t) in brute_orders(nP, nL)
    # spot-check larger counts against the double loop
    for nP, nL in [(99905, 99905), (832040, 832040), (985527, 966, )]:
        got = [(o.s, o.t) for o in solve_orders(nP, nL)]
        assert got == brute_orders(nP, nL)


def test_solve_orders_matches_divisor_enumeration_on_a_grid():
    for nP in range(3000):
        orders = divisor_orders(nP)
        for nL in range(600):
            want = [(s, t) for s, t, n in orders if n == nL and nL >= 2]
            assert [(o.s, o.t) for o in solve_orders(nP, nL)] == want, (nP, nL)


def test_solve_orders_matches_divisor_enumeration_near_real_orders():
    for s in range(61):
        for t in range(61):
            d = s * t + 1
            for nP in ((s + 1) * d - 1, (s + 1) * d, (s + 1) * d + 1):
                for nL in ((t + 1) * d - 1, (t + 1) * d, (t + 1) * d + 1):
                    got = [(o.s, o.t) for o in solve_orders(nP, nL)]
                    assert got == divisor_solve(nP, nL), (nP, nL)


def test_solve_orders_matches_divisor_enumeration_on_scanned_pairs():
    # the (nP, nL) the cross scans hand the solver, at a sample of q
    scanned = [(3, 8), (3, 9), (4, 8), (4, 9), (5, 8), (5, 9), (8, 9)]
    qs = [q for q, _, _ in iter_prime_powers(4, 108003)]
    sample = qs[:300] + random.Random(5).sample(qs[300:], 1200) + qs[-20:]
    checked = 0
    for q in sample:
        for i, j in scanned:
            if case_condition(i, q) and case_condition(j, q):
                nP, nL = Q_INDEX[i](q), Q_INDEX[j](q)
                assert [(o.s, o.t) for o in solve_orders(nP, nL)] == divisor_solve(nP, nL), (q, i, j)
                checked += 1
    assert checked > 3000


def test_equal_count_forces_equal_orders():
    for n in range(15, 5000):
        for o in solve_orders(n, n):
            assert o.s == o.t


def test_solve_point_count_single_equation():
    assert [(o.s, o.t) for o in solve_point_count(28)] == [(3, 2)]
    assert [(o.s, o.t) for o in solve_point_count(21)] == [(2, 3)]
    assert [(o.s, o.t) for o in solve_point_count(66)] == [(5, 2)]


def test_solve_equal_order():
    assert solve_equal_order(15) == 2
    assert solve_equal_order(820) == 9
    assert solve_equal_order(20) is None
    assert solve_equal_order(6) is None
    assert solve_equal_order(4) == 1
    for s in range(1, 400):
        assert solve_equal_order((s + 1) * (s * s + 1)) == s


def test_solve_equal_order_matches_bisection():
    rng = random.Random(3)
    ns = list(range(-3, 5000))
    for s in list(range(1, 3000)) + [rng.randrange(3000, 10**10) for _ in range(2000)]:
        v = (s + 1) * (s * s + 1)
        ns += [v - 1, v, v + 1]
    ns += [rng.randrange(1, 10**30) for _ in range(3000)]
    ns += [10**30 - 1, 10**30, 10**30 + 1]
    for n in ns:
        assert solve_equal_order(n) == bisection_equal_order(n), n


# ---------------------------------------------------------------------------
# predicates
# ---------------------------------------------------------------------------


def test_higman():
    assert higman(2, 2)
    assert higman(2, 4) and not higman(2, 5)
    assert higman(4, 2) and not higman(5, 2)


def test_divisibility_examples():
    assert not divisibility(3, 2)  # 5 does not divide 72
    assert divisibility(2, 2)  # 4 divides 36
    assert not divisibility(5, 2)  # 7 does not divide 180
    assert 180 % 7 == 5  # oracle: direct remainder


def test_cube_bounds():
    assert cube_bounds(2, 2, 15, 15)
    # an extreme ratio fails
    assert not cube_bounds(2, 100, (2 + 1) * (201), (101) * (201))


def test_grid_order_check():
    assert grid_order_check(2, 2) == GQOrder(2, 1)
    assert grid_order_check(2, 3) is None
    g = grid_order_check(1, 1)
    assert g == GQOrder(1, 1) and not g.thick
    with pytest.raises(ValueError):
        grid_order_check(0, 1)


# ---------------------------------------------------------------------------
# stabilizer bounds
# ---------------------------------------------------------------------------


def test_bounds_admit_symmetric_proper_subgroup():
    b = stabilizer_bounds(360, 24)
    assert admits(b, 24)
    b2 = stabilizer_bounds(360, 360)
    assert not admits(b2, 360)  # |G_a| = |G| fails the upper bound


def test_bounds_reject_non_divisor():
    with pytest.raises(ValueError):
        stabilizer_bounds(360, 17)


def _largest_q_admitted(m0_order: int, m1_of_q, start: int) -> int:
    # raw inequality over every q, not only those where m0 divides |X|
    from quadforge.feasibility import StabilizerBounds

    q = start
    while StabilizerBounds(q * (q * q - 1) // 2, m0_order).upper_ok(m1_of_q(q)):
        q += 1
    return q - 1


def test_scan_bound_derivations():
    # the bound windows driving the pair scans, recomputed from scratch
    assert _largest_q_admitted(60, lambda q: q - 1, 100) == 108003
    assert _largest_q_admitted(60, lambda q: q + 1, 100) == 107995
    assert _largest_q_admitted(24, lambda q: q - 1, 50) == 6915
    assert _largest_q_admitted(24, lambda q: q + 1, 50) == 6907
    # the A4 rows: the inequality itself reaches one step past the
    # tabulated windows (866 and 858); both windows are scanned
    assert _largest_q_admitted(12, lambda q: q - 1, 50) == 867
    assert _largest_q_admitted(12, lambda q: q + 1, 50) == 859


def test_bounds_never_use_floats():
    # Near 2**60 adjacent stabilizer orders are one float, so a float window
    # gives them one verdict; here the edge lies between them, so that verdict
    # is wrong for one, and only cross-multiplication separates them.
    n = 2**60 + 2
    assert float(n) == float(n + 1) and float(2 * n - 1) == float(2 * n)

    def float_lower_ok(b, order):
        return float(order) > b.point_stab_order ** (4 / 3) / b.group_order ** (1 / 3)

    lower = stabilizer_bounds(16 * n, 2 * n)  # n**3 * 16n == (2n)**4: n sits on the edge
    assert float_lower_ok(lower, n) == float_lower_ok(lower, n + 1)
    assert not lower_ok(lower, n) and lower_ok(lower, n + 1)
    upper = stabilizer_bounds(16 * n, n)  # (2n)**4 == n**3 * 16n: 2n sits on the edge
    assert upper.upper_ok(2 * n - 1) and not upper.upper_ok(2 * n)


def test_apply_filters_trace():
    # (3, 2) meets both counts; the chain `_feasible_orders` runs drops it
    from quadforge.classify import _feasible_orders

    assert solve_orders(28, 21) == [GQOrder(3, 2)]
    survivors = _feasible_orders(28, 21)
    assert survivors == []
    trace = {
        "higman": higman(3, 2),
        "divisibility": divisibility(3, 2),
        "cube": cube_bounds(3, 2, 28, 21),
    }
    names = set(trace)
    assert names == {"higman", "divisibility", "cube"}
    assert not all(trace.values())
