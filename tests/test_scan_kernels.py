"""The array scan kernels against the per-q loops they replaced.

The oracles below are the per-q scans as they stood before the scans became
numpy passes over the prime-power index, conditions included, so they share
no array code with the engine.  Each differential test compares scan sizes,
survivors and check lists; the mutation tests show that the comparison
catches a root off by one, a condition that drops a residue and a product
that overflows int64.
"""

import ast
import inspect
import random
import sys
import textwrap
import types

import numpy as np
import pytest

from quadforge import _ints, classify, feasibility, subgroups
from quadforge._ints import SIEVE_LIMIT, icbrt, iter_prime_powers, prime_power_arrays
from quadforge.classify import (
    ELIMINATED,
    _feasible_orders,
    eliminate_cross,
    eliminate_equal,
    fixed_structure_contradiction,
    row_values,
    theorem_driver,
)
from quadforge.errors import VerificationError
from quadforge.feasibility import (
    INT64_COUNT_LIMIT,
    icbrt_array,
    solve_equal_order,
    solve_equal_order_array,
    solve_orders,
    solve_orders_array,
)
from quadforge.subgroups import Q_INDEX, case_condition_at

# ---------------------------------------------------------------------------
# oracles: the per-q scans
# ---------------------------------------------------------------------------


def _oracle_condition(case_id, q, p, f):
    if q < 4:
        return False
    if case_id == 3:
        return (f == 1 and q % 10 in (1, 9)) or (f == 2 and p % 10 in (3, 7))
    if case_id == 4:
        return f == 1 and q % 8 in (3, 5) and q % 10 not in (1, 9)
    if case_id == 5:
        return f == 1 and q % 8 in (1, 7)
    if case_id == 8:
        return q not in (5, 7, 9, 11)
    if case_id == 9:
        return q not in (7, 9)
    raise ValueError(case_id)


def _oracle_qs(case_id, q_range):
    lo, hi = q_range
    for q, p, f in iter_prime_powers(lo, hi):
        if _oracle_condition(case_id, q, p, f):
            yield q, p, f


def oracle_cross(pair, q_range):
    """(scan_size, survivors) of a scanned pair."""
    case_i, case_j = pair
    tested, survivors = 0, []
    for q, p, f in iter_prime_powers(*q_range):
        if not (_oracle_condition(case_i, q, p, f) and _oracle_condition(case_j, q, p, f)):
            continue
        tested += 1
        for cand in _feasible_orders(Q_INDEX[case_i](q), Q_INDEX[case_j](q)):
            survivors.append((q, cand.s, cand.t))
    return tested, sorted(survivors)


def oracle_equal_345(case_id, q_range):
    """(scan_size, survivors, checks, endgames) of case 3, 4 or 5 equal."""
    tested, survivors, checks, endgames = 0, [], [], 0
    for q, p, _ in _oracle_qs(case_id, q_range):
        tested += 1
        n = Q_INDEX[case_id](q)
        s = solve_equal_order(n)
        count_killed = s is None or s < 2
        row_applies = p > 5 and ((case_id in (3, 4) and p % 4 == 1) or case_id == 5)
        row = row_values(case_id, q) if row_applies else None
        if row_applies and row["fixed"] >= 2:
            out = fixed_structure_contradiction(row=row, n_omega=n)
            endgames += 1
            if out.verdict != ELIMINATED:
                survivors.append((q, s or 0, s or 0))
                continue
            if q <= 200:
                checks.extend(out.checks)
        elif not count_killed:
            survivors.append((q, s, s))
        elif q <= 200:
            checks.append(
                classify._check(
                    f"q={q}-count-equation", count_killed,
                    f"(1+s)(1+s^2) = {n} has no thick solution",
                )
            )
    return tested, sorted(survivors), checks, endgames


def oracle_equal_dihedral(case_id, q_range):
    """(scan_size, survivors) of case 8 or 9 equal."""
    tested, survivors = 0, []
    for q, _, _ in _oracle_qs(case_id, q_range):
        tested += 1
        n = q * (q + 1) // 2 if case_id == 8 else q * (q - 1) // 2
        s = solve_equal_order(n)
        if s is not None and s >= 2:
            survivors.append((q, s, s))
    return tested, sorted(survivors)


def oracle_equal_2(q_range):
    """(scan_size, survivors, checks) of case 2 equal."""
    tested, survivors, checks = 0, [], []
    for q0, p, _ in iter_prime_powers(*q_range):
        if p == 2:
            continue
        tested += 1
        n = q0 * (q0 * q0 + 1) // 2
        s = solve_equal_order(n)
        if s is not None and s >= 2:
            survivors.append((q0 * q0, s, s))
        elif q0 in (3, 5):
            checks.append(
                classify._check(f"q0={q0}-no-solution" if s is None else f"q0={q0}-thin",
                                s is None or s < 2, f"(1+s)(1+s^2) = {n}")
            )
    return tested, sorted(survivors), checks


# ---------------------------------------------------------------------------
# differential tests
# ---------------------------------------------------------------------------

SCANNED_PAIRS = [(3, 8), (3, 9), (4, 8), (4, 9), (5, 8), (5, 9), (8, 9)]
TOP = (SIEVE_LIMIT - 10_000, SIEVE_LIMIT)
STRADDLE = (SIEVE_LIMIT - 1_000, SIEVE_LIMIT + 1_000)


def _published(tag):
    """The range the theorem gives the row over the published range."""
    return dict((row.tag, rng) for row, rng in classify._theorem_ranges(108003))[tag]


def _pair_ranges():
    for pair in SCANNED_PAIRS:
        tag = f"case{pair[0]}-case{pair[1]}"
        yield pair, (4, 2000)
        yield pair, _published(tag)
        yield pair, TOP


@pytest.mark.parametrize("pair,q_range", list(_pair_ranges()))
def test_cross_kernel_matches_the_per_q_scan(pair, q_range):
    rec = eliminate_cross(*pair, q_range)
    assert (rec.scan_size, rec.survivors) == oracle_cross(pair, q_range)


def test_cross_kernel_across_the_sieve_limit_runs_on_object_arrays():
    q, p, f = prime_power_arrays(*STRADDLE)
    assert q.dtype == p.dtype == f.dtype == object
    rec = eliminate_cross(8, 9, STRADDLE)
    assert (rec.scan_size, rec.survivors) == oracle_cross((8, 9), STRADDLE)
    assert rec.scan_size > 0
    # the same window inside the sieve, by int64, agrees with it too
    inside = (STRADDLE[0], SIEVE_LIMIT)
    assert eliminate_cross(8, 9, inside).scan_size == oracle_cross((8, 9), inside)[0]


@pytest.mark.parametrize("case_id", [3, 4, 5])
@pytest.mark.parametrize("which", ["small", "published", "top", "straddle"])
def test_equal_345_kernel_matches_the_per_q_scan(case_id, which):
    q_range = {
        "small": (4, 2000), "published": _published(f"case{case_id}-equal"),
        "top": TOP, "straddle": STRADDLE,
    }[which]
    rec = eliminate_equal(case_id, q_range)
    tested, survivors, checks, endgames = oracle_equal_345(case_id, q_range)
    assert (rec.scan_size, rec.survivors, rec.checks) == (tested, survivors, checks)
    assert rec.notes == [f"{endgames} values closed by the fixed-substructure endgame"]


@pytest.mark.parametrize("case_id", [8, 9])
@pytest.mark.parametrize("q_range", [(4, 2000), (4, 100_000), TOP, STRADDLE])
def test_equal_dihedral_kernel_matches_the_per_q_scan(case_id, q_range):
    rec = eliminate_equal(case_id, q_range)
    assert (rec.scan_size, rec.survivors) == oracle_equal_dihedral(case_id, q_range)


@pytest.mark.parametrize("q_range", [(3, 97), (2, 2000), (1401, 1415)])
def test_equal_2_kernel_matches_the_per_q_scan(q_range):
    rec = eliminate_equal(2, q_range)
    assert (rec.scan_size, rec.survivors, rec.checks) == oracle_equal_2(q_range)


def test_pooled_theorem_merges_the_same_records():
    assert theorem_driver(108003, workers=2).records == theorem_driver(108003, workers=1).records


def test_pooled_theorem_merges_the_same_records_up_to_the_sieve_limit():
    # threaded scans up to 108003, and (8, 9) up to 2e6
    pooled = theorem_driver(SIEVE_LIMIT, workers=3)
    assert pooled.records == theorem_driver(SIEVE_LIMIT, workers=1).records


# ---------------------------------------------------------------------------
# the array solvers against the scalar ones, int64 edge included
# ---------------------------------------------------------------------------


def _count_pairs(seed, n=4000):
    """(nP, nL) pairs below 2**59: half are true counts of a random order,
    half random, which mostly have small gcds and so large products ab."""
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        if rng.random() < 0.5:
            s, t = rng.randrange(1, 10**5), rng.randrange(1, 10**5)
            pair = ((s + 1) * (s * t + 1), (t + 1) * (s * t + 1))
        else:
            pair = (rng.randrange(1, INT64_COUNT_LIMIT), rng.randrange(1, INT64_COUNT_LIMIT))
        if max(pair) < INT64_COUNT_LIMIT:
            out.append(pair)
    return out


def _orders_agree(mod, pairs) -> bool:
    """Does mod.solve_orders_array give the scalar solve_orders on every pair,
    in int64 and in object arrays?"""
    want = []
    for nP, nL in pairs:
        sol = solve_orders(nP, nL)
        want.append((sol[0].s, sol[0].t) if sol else (0, 0))
    for dtype in (np.int64, object):
        nP = np.array([p for p, _ in pairs], dtype=dtype)
        nL = np.array([l for _, l in pairs], dtype=dtype)
        try:
            s, t = mod.solve_orders_array(nP, nL)
        except (ValueError, ZeroDivisionError, FloatingPointError):
            return False
        if list(zip(s.tolist(), t.tolist())) != want:
            return False
    return True


def _equal_orders_agree(mod, ns) -> bool:
    want = [solve_equal_order(n) or 0 for n in ns]
    for dtype in (np.int64, object):
        try:
            got = mod.solve_equal_order_array(np.array(ns, dtype=dtype)).tolist()
        except (ValueError, ZeroDivisionError):
            return False
        if got != want:
            return False
    return True


def _equal_counts():
    ns = [(s + 1) * (s * s + 1) + d for s in range(1, 3000) for d in (-1, 0, 1)]
    top = icbrt(INT64_COUNT_LIMIT - 1) - 1
    ns += [(s + 1) * (s * s + 1) + d for s in range(top - 50, top) for d in (-1, 0, 1)]
    return ns + [INT64_COUNT_LIMIT - 1]


def test_icbrt_array_is_icbrt():
    rng = random.Random(7)
    ns = [rng.randrange(1, INT64_COUNT_LIMIT) for _ in range(3000)]
    ns += [k**3 + d for k in range(1, 2000) for d in (-1, 0, 1) if k**3 + d >= 1]
    ns += [INT64_COUNT_LIMIT - 1]
    want = [icbrt(n) for n in ns]
    assert icbrt_array(np.array(ns, dtype=np.int64)).tolist() == want
    assert icbrt_array(np.array(ns, dtype=object)).tolist() == want
    big = [10**40 + 7, 3**90]
    assert icbrt_array(np.array(big, dtype=object)).tolist() == [icbrt(n) for n in big]


def test_array_solvers_are_the_scalar_ones():
    assert _orders_agree(feasibility, _count_pairs(1))
    assert _equal_orders_agree(feasibility, _equal_counts())


def test_array_solvers_refuse_int64_counts_out_of_range():
    big = np.array([5, INT64_COUNT_LIMIT], dtype=np.int64)
    for call in (icbrt_array, solve_equal_order_array, lambda n: solve_orders_array(n, n)):
        with pytest.raises(ValueError):
            call(big)
    with pytest.raises(ValueError):
        icbrt_array(np.array([0, 5], dtype=np.int64))
    # counts below 2 have no order, as in the scalar solvers
    small = np.array([-3, 0, 1, 15], dtype=np.int64)
    assert solve_equal_order_array(small).tolist() == [0, 0, 0, 2]
    assert [x.tolist() for x in solve_orders_array(small, small)] == [[0, 0, 0, 2]] * 2


# ---------------------------------------------------------------------------
# mutation tests: a broken kernel must fail the comparison
# ---------------------------------------------------------------------------


def _mutant(monkeypatch, module, old: str, new: str):
    """A fresh copy of module with one source edit applied."""
    src = inspect.getsource(module)
    assert src.count(old) == 1, old
    name = f"{module.__name__}_mutant"
    mod = types.ModuleType(name)
    mod.__package__ = module.__package__
    monkeypatch.setitem(sys.modules, name, mod)
    exec(compile(src.replace(old, new), module.__file__, "exec"), mod.__dict__)
    return mod


def test_comparison_catches_a_root_off_by_one(monkeypatch):
    # the least k with k^3 >= m, shifted by one where m is a cube
    mod = _mutant(monkeypatch, feasibility, "k = k + (k * k * k < m)", "k = k + (k * k * k <= m)")
    assert not _orders_agree(mod, _count_pairs(2))
    # the equal-order root, shifted by one throughout
    mod = _mutant(
        monkeypatch, feasibility, "s = icbrt_array(np.maximum(n, 1))", "s = icbrt_array(np.maximum(n, 1)) + 1"
    )
    assert not _equal_orders_agree(mod, _equal_counts())


def test_comparison_catches_an_unguarded_int64_product(monkeypatch):
    mod = _mutant(monkeypatch, feasibility, "live = a <= (g + a + b) // b", "live = a == a")
    assert not _orders_agree(mod, _count_pairs(3))


def test_comparison_catches_a_condition_that_drops_a_residue(monkeypatch):
    mod = _mutant(
        monkeypatch, subgroups,
        "((q % 10 == 1) | (q % 10 == 9))", "(q % 10 == 1)",
    )
    monkeypatch.setattr(classify, "case_condition_at", mod.case_condition_at)
    q_range = (19, 5000)
    assert eliminate_cross(3, 8, q_range).scan_size != oracle_cross((3, 8), q_range)[0]
    assert eliminate_equal(3, q_range).scan_size != oracle_equal_345(3, q_range)[0]


def test_a_failing_endgame_predicate_raises_at_the_first_failing_q(monkeypatch):
    # wrong fixed counts past the q <= 200 detail rows must still raise, at
    # the first wrong q, with the error the per-q scan gives
    real = classify._triangle_row

    def skewed(case_id, q, p):
        row = dict(real(case_id, q, p))
        row["fixed"] = row["fixed"] + (q == 1009) + (q == 2017)
        return row

    monkeypatch.setattr(classify, "_triangle_row", skewed)
    with pytest.raises(VerificationError) as kernel:
        eliminate_equal(5, (4, 5000))
    with pytest.raises(VerificationError) as oracle:
        oracle_equal_345(5, (4, 5000))
    assert kernel.value.name == oracle.value.name == "fixed-count-formula"
    assert str(kernel.value) == str(oracle.value)
    assert "|P_g| = 168 " in str(kernel.value)  # q = 1009, not 2017


# ---------------------------------------------------------------------------
# integers only
# ---------------------------------------------------------------------------


def test_kernel_arrays_are_integer_or_object_never_float():
    def exact(arr):
        return arr.dtype == object or arr.dtype.kind in "iub"

    for q_range in ((4, 108003), STRADDLE):
        q, p, f = prime_power_arrays(*q_range)
        arrays = [q, p, f]
        for case_id in (3, 4, 5, 8, 9):
            arrays += [case_condition_at(case_id, q, p, f), Q_INDEX[case_id](q)]
        for case_id in (3, 4, 5):
            arrays += [v for v in classify._triangle_row(case_id, q, p).values() if hasattr(v, "dtype")]
            arrays.append(classify._row_applies(case_id, p))
        nP, nL = Q_INDEX[3](q), Q_INDEX[9](q)
        arrays += [*solve_orders_array(nP, nL), solve_equal_order_array(nP), icbrt_array(nL)]
        assert all(exact(a) for a in arrays)
        assert q.dtype == (np.int64 if q_range[1] <= SIEVE_LIMIT else object)


KERNEL_FUNCTIONS = [
    _ints.spf_sieve,
    _ints.prime_power_arrays,
    feasibility._check_int64,
    feasibility.icbrt_array,
    feasibility.solve_orders_array,
    feasibility.solve_equal_order_array,
    subgroups.case_condition_at,
    classify._cross_chunk,
    classify._admissible,
    classify._thick_equal_orders,
    classify._triangle_row,
    classify._row_applies,
    classify._eliminate_equal_345,
    classify._eliminate_equal_8,
    classify._eliminate_equal_9,
    classify._eliminate_equal_2,
]


@pytest.mark.parametrize("fn", KERNEL_FUNCTIONS, ids=lambda fn: fn.__qualname__)
def test_kernel_source_has_no_true_division_or_float(fn):
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    for node in ast.walk(tree):
        assert not (isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div))
        assert not (isinstance(node, ast.Constant) and isinstance(node.value, float))
        assert not (isinstance(node, ast.Name) and node.id == "float")
        assert not (isinstance(node, ast.Attribute) and "float" in node.attr)


def test_condition_and_index_tables_have_no_true_division():
    src = inspect.getsource(subgroups)
    for table in ("_ELEMENTWISE_CONDITIONS = {", "Q_INDEX = {"):
        body = src[src.index(table) : src.index("\n}\n", src.index(table))]
        assert "/" not in body.replace("//", "")
