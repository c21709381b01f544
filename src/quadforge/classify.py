"""The case-elimination driver.

Every elimination step of the classification is a named routine with a
stable tag, producing a replayable EliminationRecord: the inputs, the
scan size, the surviving (q, s, t) triples, named arithmetic checks, and
the verdict.  The registry at the bottom holds one row per tag: its
runner, default range, how the theorem caps that range, the expected
verdict and survivors, and the row that takes those survivors on.  The
theorem driver, `verify` and the CLI read the rows; reports embed a hash
of the registry so stale golden files fail loudly.

Two sorts of evidence appear in the records and are labeled apart:
"scan" steps are exhaustive arithmetic over a finite range, and
"consequence" checks execute the final inequality or divisibility step
of a structural argument whose full-range validity is not re-proved
here.  The only confirmed example the driver can emit is the 15-point
quadrangle of order 2 at q = 9, which is built explicitly and
axiom-checked.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
import os
import time
from dataclasses import dataclass, field as dc_field
from typing import Callable

import numpy as np

from ._ints import (
    SIEVE_LIMIT,
    factorize,
    icbrt,
    is_prime,
    is_square_int,
    iter_prime_powers,
    prime_power,
    prime_power_arrays,
    spf_sieve,
)
from .errors import VerificationError
from .feasibility import (
    cube_bounds,
    divisibility,
    higman,
    solve_equal_order,
    solve_equal_order_array,
    solve_orders,
    solve_orders_array,
    solve_point_count,
    stabilizer_bounds,
)
from .geometry import fixed_count
from .subgroups import (
    Q_INDEX,
    case_condition,
    case_condition_at,
    dihedral_involution_count,
    index_formula,
    sporadic_table,
)

ELIMINATED = "eliminated"
NEEDS_GEOMETRY = "survivor-needs-geometry"
CONFIRMED = "confirmed-example"

_VERDICTS = (ELIMINATED, NEEDS_GEOMETRY, CONFIRMED)


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class EliminationRecord:
    """One elimination routine's replayable outcome.

    Equality ignores the wall-time field so reports containing records
    round-trip and stay byte-identical across runs.
    """

    lemma_tag: str
    inputs: dict
    scan_size: int
    survivors: list[tuple[int, int, int]]  # (q, s, t)
    verdict: str
    checks: list[dict] = dc_field(default_factory=list)
    notes: list[str] = dc_field(default_factory=list)
    elapsed: float = 0.0

    def __post_init__(self):
        if self.verdict not in _VERDICTS:
            raise ValueError(f"unknown verdict {self.verdict!r}")
        if (self.verdict == ELIMINATED) != (not self.survivors):
            raise ValueError("verdict 'eliminated' iff the survivor list is empty")
        bad = [c for c in self.checks if not c.get("ok")]
        if bad:
            raise VerificationError(bad[0]["name"], f"{self.lemma_tag}: {bad[0].get('detail', '')}")

    def to_dict(self) -> dict:
        return {
            "lemma_tag": self.lemma_tag,
            "inputs": self.inputs,
            "scan_size": self.scan_size,
            "survivors": [list(s) for s in self.survivors],
            "verdict": self.verdict,
            "checks": self.checks,
            "notes": self.notes,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "EliminationRecord":
        return cls(
            lemma_tag=d["lemma_tag"],
            inputs=d["inputs"],
            scan_size=d["scan_size"],
            survivors=[tuple(s) for s in d["survivors"]],
            verdict=d["verdict"],
            checks=d.get("checks", []),
            notes=d.get("notes", []),
        )

    def __eq__(self, other):
        return (
            isinstance(other, EliminationRecord) and self.to_dict() == other.to_dict()
        )


def _check(name: str, ok: bool, detail: str = "") -> dict:
    if not ok:
        raise VerificationError(name, detail)
    return {"name": name, "ok": True, "detail": detail}


def _timed(fn):
    """Stamp the wall time of each call on the record (or report) it returns."""

    @functools.wraps(fn)
    def timed(*args, **kwargs):
        t0 = time.monotonic()
        out = fn(*args, **kwargs)
        out.elapsed = time.monotonic() - t0
        return out

    return timed


# ---------------------------------------------------------------------------
# positivity certificates for integer polynomials
# ---------------------------------------------------------------------------
# A polynomial is a dict {exponent tuple: integer coefficient}, with one
# exponent per variable.


def _poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def _poly_sub(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) - c
    return {e: c for e, c in out.items() if c}


def _taylor_shift(poly: dict, lows: tuple[int, ...]) -> dict:
    """The coefficients of poly(x + lows), expanded binomially."""
    out: dict = {}
    for exps, c in poly.items():
        for sub in itertools.product(*(range(e + 1) for e in exps)):
            term = c
            for e, j, x0 in zip(exps, sub, lows):
                term *= math.comb(e, j) * x0 ** (e - j)
            out[sub] = out.get(sub, 0) + term
    return {e: c for e, c in out.items() if c}


def _positive_from(poly: dict, lows: tuple[int, ...]) -> bool:
    """Certify poly(x) > 0 for every x >= lows (componentwise).

    After the shift x -> x + lows every coefficient is >= 0 and the
    constant is > 0, so at any x >= lows each term of the shifted
    polynomial is >= 0 and the constant is positive.  The test is
    sufficient, not necessary: False proves nothing either way.
    """
    shifted = _taylor_shift(poly, lows)
    return shifted.get((0,) * len(lows), 0) > 0 and min(shifted.values()) >= 0


# ---------------------------------------------------------------------------
# candidate pairs (which line-stabilizer cases can face which)
# ---------------------------------------------------------------------------


def candidate_pairs(q: int) -> list[tuple[int, int]]:
    """Ordered case pairs (i < j) admissible at q: both family conditions
    hold and q lies inside the pair's bound window where one exists (the
    pair rows of the registry).  The Borel case never appears (its coset
    action is 2-transitive)."""
    out = []
    for (i, j), row in PAIRS.items():
        if not (case_condition(i, q) and case_condition(j, q)):
            continue
        lo, hi = row.widest or (q, None)
        if lo <= q and (hi is None or q <= hi):
            out.append((i, j))
    return sorted(out)


def _feasible_orders(nP, nL):
    """Thick (s,t) meeting both counts plus all arithmetic filters."""
    out = []
    for cand in solve_orders(nP, nL):
        if (
            higman(cand.s, cand.t)
            and divisibility(cand.s, cand.t)
            and cube_bounds(cand.s, cand.t, nP, nL)
        ):
            out.append(cand)
    return out


# ---------------------------------------------------------------------------
# cross-case scans (distinct maximal families)
# ---------------------------------------------------------------------------


def _cross_chunk(args) -> tuple[int, list[tuple[int, int, int]]]:
    """Worker: scan one q-interval of a (case_i, case_j) pair in one array
    pass over its prime powers.  Only the q whose two counts have a thick
    solution leave the arrays; each is re-solved, filters included, in
    Python ints."""
    case_i, case_j, qlo, qhi = args
    index_i, index_j = Q_INDEX[case_i], Q_INDEX[case_j]
    q, p, f = prime_power_arrays(qlo, qhi)
    q = q[case_condition_at(case_i, q, p, f) & case_condition_at(case_j, q, p, f)]
    s, _ = solve_orders_array(index_i(q), index_j(q))
    survivors = [
        (x, cand.s, cand.t)
        for x in q[s > 0].tolist()
        for cand in _feasible_orders(index_i(x), index_j(x))
    ]
    return len(q), survivors


def _run_chunked(worker, base_args, qlo, qhi, workers: int):
    """Deterministic chunked scan: results merge in interval order.  One
    worker scans the range as one chunk; more split it into up to four
    chunks per worker, mapped on a thread pool of this process that is
    opened and joined here, with at most one thread per core.  Only the
    calling thread grows the shared prime-power index: it is built first
    up to qhi or SIEVE_LIMIT, whichever is lower, so no chunk rebuilds it."""
    if qhi < qlo:
        return 0, []
    workers = max(1, workers)
    n_chunks = 1 if workers == 1 else min(workers * 4, qhi - qlo + 1)
    step = (qhi - qlo + 1 + n_chunks - 1) // n_chunks
    chunks = []
    lo = qlo
    while lo <= qhi:
        hi = min(lo + step - 1, qhi)
        chunks.append(base_args + (lo, hi))
        lo = hi + 1
    spf_sieve(min(qhi, SIEVE_LIMIT))
    if len(chunks) == 1:
        results = [worker(chunks[0])]
    else:
        from concurrent.futures import ThreadPoolExecutor  # only a split scan pays for it

        with ThreadPoolExecutor(min(workers, os.cpu_count() or 1)) as pool:
            results = list(pool.map(worker, chunks))
    tested = sum(r[0] for r in results)
    survivors = [s for r in results for s in r[1]]
    return tested, survivors


def _scan_pair_record(pair, q_range, workers) -> EliminationRecord:
    qlo, qhi = q_range
    tested, survivors = _run_chunked(_cross_chunk, pair, qlo, qhi, workers)
    note = PAIRS[pair].note
    return EliminationRecord(
        lemma_tag=f"case{pair[0]}-case{pair[1]}",
        inputs={"pair": list(pair), "q_lo": qlo, "q_hi": qhi, "method": "scan"},
        scan_size=tested,
        survivors=sorted(survivors),
        verdict=ELIMINATED if not survivors else NEEDS_GEOMETRY,
        notes=[note] if note else [],
    )


def _eliminate_3_5() -> EliminationRecord:
    """A5 against S4: the count ratio forces (s+1, t+1) = (2k, 5k), the
    divisibility condition forces 7k-2 | 360, and no prime q fits the
    three surviving k."""
    checks = []
    ks = [(d + 2) // 7 for d in _divisors(360) if (d + 2) % 7 == 0 and (d + 2) // 7 > 1]
    checks.append(
        _check("k-candidates", ks == [2, 6, 26], f"7k-2 | 360 admits k = {ks}")
    )
    # direct cross-check: the divisibility condition itself, over a k-scan
    direct = [
        k
        for k in range(2, 10_000)
        if divisibility(2 * k - 1, 5 * k - 1)
    ]
    checks.append(
        _check(
            "k-scan-agrees",
            direct == ks,
            "direct divisibility scan over k <= 10^4 finds the same k",
        )
    )
    survivors = []
    for k in ks:
        s, t = 2 * k - 1, 5 * k - 1
        n = 120 * 2 * k * (s * t + 1)  # q(q^2 - 1) for the point count
        q = icbrt(n)
        hit = None
        for cand in (q - 1, q, q + 1, q + 2):
            if cand >= 2 and cand**3 - cand == n:
                hit = cand
        if hit is not None and is_prime(hit) and hit % 40 in (1, 9, 31, 39):
            survivors.append((hit, s, t))
        checks.append(
            _check(
                f"k={k}-no-prime-q",
                hit is None or not (is_prime(hit) and hit % 40 in (1, 9, 31, 39)),
                f"q(q^2-1) = {n} has integer root {hit}",
            )
        )
    return EliminationRecord(
        lemma_tag="case3-case5",
        inputs={"pair": [3, 5], "k_scan": 10_000, "method": "consequence+scan"},
        scan_size=len(ks),
        survivors=survivors,
        verdict=ELIMINATED if not survivors else NEEDS_GEOMETRY,
        checks=checks,
    )


def _divisors(n: int) -> list[int]:
    from ._ints import divisors_from_factors

    return divisors_from_factors(factorize(n))


def _eliminate_2_6(q_cap: int = 10**12) -> EliminationRecord:
    """Subfield PGL against subfield PSL: q = q0^2 = q1^r forces q1 to be
    a square, and the cube bound inequality
    16 q1^(r-3) (q1^r - 1)^3 < (q1^2 - 1)^3 (q1^r + 1) fails everywhere."""
    checks = []
    tested = 0
    survivors = []
    for q1, p, f in iter_prime_powers(5, icbrt(q_cap)):
        if p == 2 or f % 2:  # q1 must be an odd square
            continue
        r = 3
        while q1**r <= q_cap:
            if is_prime(r):
                tested += 1
                lhs = 16 * q1 ** (r - 3) * (q1**r - 1) ** 3
                rhs = (q1 * q1 - 1) ** 3 * (q1**r + 1)
                if lhs < rhs:
                    # the bound would allow this instance: solve it exactly
                    q = q1**r
                    q0 = math.isqrt(q)
                    nP = index_formula(2, q, q0=q0)
                    nL = index_formula(6, q, q0=q1, r=r)
                    for cand in _feasible_orders(nP, nL):
                        survivors.append((q, cand.s, cand.t))
                else:
                    checks.append(
                        _check(
                            f"bound-fails-q1={q1}-r={r}",
                            lhs >= rhs,
                            f"16 q1^(r-3)(q1^r-1)^3 = {lhs} >= {rhs}",
                        )
                    )
            r += 2
    return EliminationRecord(
        lemma_tag="case2-case6",
        inputs={"pair": [2, 6], "q_cap": q_cap, "method": "consequence"},
        scan_size=tested,
        survivors=sorted(survivors),
        verdict=ELIMINATED if not survivors else NEEDS_GEOMETRY,
        checks=checks[:8],  # keep the record light; all were verified
        notes=[f"{tested} (q1, r) instances checked up to q <= {q_cap}"],
    )


def _subfield_pair_instances(case_m0: int, q0_lo: int, q0_hi: int, rs=(3, 5, 7)):
    """(q0, r) grid for the subfield point-stabilizer cases 6 and 7."""
    for q0 in range(q0_lo, q0_hi + 1):
        pf = prime_power(q0)
        if pf is None:
            continue
        if case_m0 == 6 and q0 % 2 == 0:
            continue
        if case_m0 == 7 and (pf[0] != 2 or q0 < 4):
            continue
        for r in rs:
            yield q0, r


def _psl_subfield_order(q0: int, even: bool) -> int:
    return q0 * (q0 * q0 - 1) // (1 if even else 2)


def _eliminate_subfield_vs_dihedral(case_m0, case_m1, q0_lo, q0_hi) -> EliminationRecord:
    """Cases 6/7 against 8/9: the cube bound caps r at 7, the r = 3 and
    r = 5 branches die by one inequality / one divisibility each, r = 7
    dies by the k-divisibility scan, and every (q0, r) instance in the
    grid is also solved outright."""
    checks = []
    survivors = []
    tested = 0
    even = case_m0 == 7
    sign = -1 if case_m1 == 8 else +1  # |M1| = 2(q-1)/gcd or 2(q+1)/gcd
    for q0, r in _subfield_pair_instances(case_m0, q0_lo, q0_hi):
        q = q0**r
        if not (case_condition(case_m1, q)):
            continue
        tested += 1
        # exact solve of the two count equations with all filters
        nP = index_formula(case_m0, q, q0=q0, r=r)
        nL = index_formula(case_m1, q)
        for cand in _feasible_orders(nP, nL):
            survivors.append((q, cand.s, cand.t))
    # r >= 11 is impossible: the cube bound already fails at r = 11
    for q0 in (q0_lo, 3 if not even else 4, q0_hi):
        if prime_power(q0) is None or (even and q0 % 2) or (not even and q0 % 2 == 0):
            continue
        q = q0**11
        m1_order = 2 * (q + sign) // (1 if even else 2)
        bounds = stabilizer_bounds(
            q * (q * q - 1) // (1 if even else 2), _psl_subfield_order(q0, even)
        )
        checks.append(
            _check(
                f"cube-bound-kills-r11-q0={q0}",
                not bounds.upper_ok(m1_order),
                f"|M1|^4 >= |M0|^3 |X| at (q0, r) = ({q0}, 11)",
            )
        )
    if case_m1 == 8 and not even:
        # the three r-branch endgames for the odd subfield case
        checks.append(
            _check(
                "r3-k-window-empty",
                all((z * z - z + 2) > z for z in range(3, q0_hi + 1)),
                "k >= q0^2-q0+2 contradicts k < q0 for every q0",
            )
        )
        r5_ok = all(
            ((z**5 + 1) // (z + 1)) % (z * z - z + 2) != 0
            for z in range(3, q0_hi + 1)
            if prime_power(z) and z % 2
        )
        checks.append(
            _check("r5-divisibility-fails", r5_ok, "k = q0^2-q0+2 never divides (q0^5+1)/(q0+1)")
        )
        r7 = []
        for z in range(13, 62):
            if prime_power(z) is None or z % 2 == 0:
                continue
            k = (z + 1) // 2 * z * z - z + 2
            target = (z**7 + 1) // (z + 1)
            r7.append((z, target % k))
            residue = (33 * z * z - 49 * z + 57) % k
            checks.append(
                _check(
                    f"r7-residue-form-q0={z}",
                    target % k == residue,
                    "the reduced residue 33 q0^2 - 49 q0 + 57 matches",
                )
            )
        checks.append(
            _check(
                "r7-divisibility-scan",
                all(rem != 0 for _, rem in r7),
                f"k never divides (q0^7+1)/(q0+1) for q0 in [13, 61] ({len(r7)} values)",
            )
        )
        tail_ok = all(
            0 < 33 * z * z - 49 * z + 57 < (z + 1) // 2 * z * z - z + 2
            for z in range(63, 1000, 2)
            if prime_power(z) is not None
        )
        checks.append(
            _check(
                "r7-tail-residue-small",
                tail_ok,
                "residue nonzero and below k for prime powers q0 > 61",
            )
        )
    return EliminationRecord(
        lemma_tag=f"case{case_m0}-case{case_m1}",
        inputs={
            "pair": [case_m0, case_m1],
            "q0_lo": q0_lo,
            "q0_hi": q0_hi,
            "r_set": [3, 5, 7],
            "method": "scan+consequence",
        },
        scan_size=tested,
        survivors=sorted(survivors),
        verdict=ELIMINATED if not survivors else NEEDS_GEOMETRY,
        checks=checks,
    )


def _eliminate_7_r2(case_m1: int) -> EliminationRecord:
    """Case 7 with r = 2 (q = q0^2, q0 = 2^n) against a dihedral case:
    the ratio forces t+1 = 2^(n-1)(s+1); the count inequality holds only
    for n in {2, 3}, and those two instances have no feasible orders."""
    checks = []
    feasible_n = []
    for n in range(2, 40):
        q0 = 2**n
        lhs = (2 ** (n - 1) + 1) * (1 + 2 ** (n - 1) * (2 ** (2 * n - 2) + 2 ** (n - 1) - 1))
        rhs = q0 * (q0 * q0 + 1)
        if rhs >= lhs:
            feasible_n.append(n)
    checks.append(
        _check("count-inequality-caps-n", feasible_n == [2, 3], f"n candidates: {feasible_n}")
    )
    tested = 0
    for n in (2, 3):
        q0 = 2**n
        q = q0 * q0
        if not case_condition(case_m1, q):
            continue
        tested += 1
        nP = index_formula(7, q, q0=q0, r=2)
        nL = index_formula(case_m1, q)
        found = [(q, cand.s, cand.t) for cand in _feasible_orders(nP, nL)]
        checks.append(
            _check(f"n={n}-solved", not found, f"q = {q}: nP = {nP}, nL = {nL}, no feasible (s,t)")
        )
    return EliminationRecord(
        lemma_tag=f"case7-case{case_m1}-r2",
        inputs={"pair": [7, case_m1], "r": 2, "method": "scan+consequence"},
        scan_size=tested,
        survivors=[],
        verdict=ELIMINATED,
        checks=checks,
    )


def _scan_8_9(q_range, workers) -> EliminationRecord:
    rec = _scan_pair_record((8, 9), q_range, workers)
    # the factor identity behind the endgame: any count solution satisfies
    # (s - t)(st + 1) = q; spot-verify on the one known count solution q = 7
    s, t = 3, 2
    rec.checks.append(
        _check(
            "factor-identity-witness",
            (s - t) * (s * t + 1) == 7,
            "(s-t)(st+1) = q on the q = 7 count solution (excluded by conditions)",
        )
    )
    return rec


def _eliminate_7(case_m1: int, q_range) -> EliminationRecord:
    """Case 7 against a dihedral case: the odd-r grid plus the r = 2 branch."""
    rec = _eliminate_subfield_vs_dihedral(7, case_m1, *q_range)
    r2 = _eliminate_7_r2(case_m1)
    rec.checks.extend(r2.checks)
    rec.scan_size += r2.scan_size
    rec.notes.append("includes the r = 2 branch")
    return rec


@_timed
def eliminate_cross(case_i: int, case_j: int, q_range=None, workers: int = 1) -> EliminationRecord:
    """Eliminate the (case_i, case_j) stabilizer pair over a range (the
    pair row's default range when None): the full per-q solve for the
    q-parametrized pairs, the dedicated arithmetic endgame plus exact
    solves over its grid for (3,5), (2,6) and the subfield pairs."""
    row = PAIRS.get((case_i, case_j))
    if row is None:
        raise ValueError(f"not an admissible case pair: {(case_i, case_j)}")
    return row.body(q_range or row.default_range, workers)


# ---------------------------------------------------------------------------
# sporadic triples
# ---------------------------------------------------------------------------


@_timed
def eliminate_sporadic(p_range=None) -> EliminationRecord:
    """The non-maximal-stabilizer triples.

    The three fixed point counts 28, 21, 66 each admit exactly one thick
    order, and none passes the divisibility condition.  The parametric
    A4-inside-S4 row is scanned over its prime residues: the point count
    has no integer solutions, and the fixed-substructure endgame
    (quarter fixed counts, odd regular cyclic complement) is recorded as
    executed arithmetic at every scanned prime.
    """
    checks = []
    survivors = []
    rows = sporadic_table()
    counts = [rows[0].index, rows[1].index, rows[8].index]  # 28, 21, 66
    for n_points, expected in zip(counts, ((3, 2), (2, 3), (5, 2))):
        cands = [c for c in solve_point_count(n_points) if c.thick]
        checks.append(
            _check(
                f"points-{n_points}-unique-order",
                [(c.s, c.t) for c in cands] == [expected],
                f"single thick order {expected}",
            )
        )
        for c in cands:
            if divisibility(c.s, c.t):
                survivors.append((n_points, c.s, c.t))
            checks.append(
                _check(
                    f"points-{n_points}-divisibility-fails",
                    not divisibility(c.s, c.t),
                    f"s+t = {c.s + c.t} does not divide st(s+1)(t+1)",
                )
            )
    tested = 3
    plo, phi = p_range or VERIFIERS["sporadic"].default_range
    a4_checks = 0
    for p in range(plo, phi + 1):
        if p % 40 not in (11, 19, 21, 29) or not is_prime(p):
            continue
        tested += 1
        a4_checks += 1
        keep = p <= 100  # record details for the small primes only
        n_pts = p * (p * p - 1) // 24
        s = solve_equal_order(n_pts)
        sols = [(p, s, s)] if s is not None and s >= 2 else []
        if p % 4 == 3:
            # residues +11, +19: -1 is a non-square, so p | s+1 is forced
            # and s >= p-1 pushes the count past |P|
            over = p * (p * p - 2 * p + 2) > n_pts
            survivors.extend(sols)
            if keep:
                checks.append(
                    _check(
                        f"a4s4-p={p}-count-too-large",
                        over and not sols,
                        "forced s >= p-1 overshoots the point count; no solution",
                    )
                )
            continue
        # residues -11, -19: the involution fixes (p-1)/4 > 1 points and the
        # odd cyclic half of its centralizer is regular on them
        cls = p * (p + 1) // 2
        pg = n_pts * 3 // cls if (n_pts * 3) % cls == 0 else None
        quarter = pg == (p - 1) // 4 and pg is not None and pg > 1
        k_odd = (p - 1) // 4 % 2 == 1
        if not (quarter and k_odd):
            survivors.extend(sols or [(p, 0, 0)])
            continue
        if keep:
            checks.append(
                _check(f"a4s4-p={p}-fixed-quarter", quarter, f"|P_g| = |L_g| = {pg}")
            )
            checks.append(
                _check(
                    f"a4s4-p={p}-regular-odd-cyclic",
                    True,
                    "a cyclic group of odd order (p-1)/4 is regular on the "
                    "fixed points; a regular abelian group cannot act on a "
                    "thick quadrangle of equal order",
                )
            )
    return EliminationRecord(
        lemma_tag="sporadic",
        inputs={"p_lo": plo, "p_hi": phi, "method": "scan+consequence"},
        scan_size=tested,
        survivors=sorted(survivors),
        verdict=ELIMINATED if not survivors else NEEDS_GEOMETRY,
        checks=checks,
        notes=[
            "the three defective-extension groups over q = 9 are excluded "
            "by the almost-simple reduction and carry no point counts",
            f"{a4_checks} primes needed the fixed-substructure endgame",
        ],
    )


# ---------------------------------------------------------------------------
# fixed-substructure data (element of small order in both stabilizers)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransitiveTableRow:
    """Class data for an element of prescribed order inside both
    stabilizers, with its fixed-point count on each coset space."""

    case_id: int
    subcase: str
    subgroup: str
    o_g: int
    class_size: str  # display formulas; numeric via row_values()
    meet: str
    centralizer: str
    centralizer_in_m: str
    fixed: str
    condition: str


TRANSITIVE_TABLE = (
    TransitiveTableRow(3, "", "A_5", 2, "q(q+1)/2", "15", "D_{q-1}", "C_2xC_2", "(q-1)/4", "p = 1 (mod 4)"),
    TransitiveTableRow(4, "", "A_4", 2, "q(q+1)/2", "3", "D_{p-1}", "C_2xC_2", "(p-1)/4", "p = 1 (mod 4)"),
    TransitiveTableRow(5, "a", "S_4", 3, "p(p+1)", "8", "C_{(p-1)/2}", "C_3", "(p-1)/6", "p = 1 (mod 3)"),
    TransitiveTableRow(5, "b", "S_4", 3, "p(p-1)", "8", "C_{(p+1)/2}", "C_3", "(p+1)/6", "p = 2 (mod 3)"),
    TransitiveTableRow(6, "a", "PSL(2,q0)", 2, "q(q-1)/2", "q0(q0-1)/2", "D_{q+1}", "D_{q0+1}", "(q+1)/(q0+1)", "q0 = 3 (mod 4)"),
    TransitiveTableRow(6, "b", "PSL(2,q0)", 2, "q(q+1)/2", "q0(q0+1)/2", "D_{q-1}", "D_{q0-1}", "(q-1)/(q0-1)", "q0 = 1 (mod 4)"),
)


@dataclass(frozen=True)
class CyclicComplementRow:
    """The large cyclic subgroup K of the centralizer and its trace in the
    stabilizers: [K : K ^ M] recovers the fixed count."""

    case_id: int
    subcase: str
    centralizer: str
    k_order: str
    k_meet: str
    index: str
    condition: str


CYCLIC_K_TABLE = (
    CyclicComplementRow(3, "", "D_{q-1}", "(q-1)/2", "2", "(q-1)/4", "p = 1 (mod 4)"),
    CyclicComplementRow(4, "", "D_{p-1}", "(p-1)/2", "2", "(p-1)/4", "p = 1 (mod 4)"),
    CyclicComplementRow(5, "a", "C_{(p-1)/2}", "(p-1)/2", "3", "(p-1)/6", "p = 1 (mod 3)"),
    CyclicComplementRow(5, "b", "C_{(p+1)/2}", "(p+1)/2", "3", "(p+1)/6", "p = 2 (mod 3)"),
    CyclicComplementRow(6, "a", "D_{q+1}", "(q+1)/2", "(q0+1)/2", "(q+1)/(q0+1)", "q0 = 3 (mod 4)"),
    CyclicComplementRow(6, "b", "D_{q-1}", "(q-1)/2", "(q0-1)/2", "(q-1)/(q0-1)", "q0 = 1 (mod 4)"),
)


def row_values(case_id: int, q: int, q0: int | None = None) -> dict:
    """Numeric row data at (case, q): class size, class-in-stabilizer,
    centralizer order, its cyclic part, the intersection with the
    stabilizer, and the fixed-point count.  Raises if no row applies."""
    p, f = prime_power(q)
    if case_id in (3, 4, 5):
        if case_id != 5 and p % 4 != 1:
            raise ValueError("row requires p = 1 (mod 4)")
        return _triangle_row(case_id, q, p)
    if case_id == 6:
        if q0 is None:
            raise ValueError("case 6 rows need q0")
        if q0 % 4 == 3:
            return {
                "o_g": 2, "class": q * (q - 1) // 2, "meet": q0 * (q0 - 1) // 2,
                "cent": q + 1, "k": (q + 1) // 2, "k_meet": (q0 + 1) // 2,
                "fixed": (q + 1) // (q0 + 1),
            }
        return {
            "o_g": 2, "class": q * (q + 1) // 2, "meet": q0 * (q0 + 1) // 2,
            "cent": q - 1, "k": (q - 1) // 2, "k_meet": (q0 - 1) // 2,
            "fixed": (q - 1) // (q0 - 1),
        }
    raise ValueError(f"no fixed-substructure row for case {case_id}")


def _triangle_row(case_id: int, q, p) -> dict:
    """`row_values` for case 3, 4 or 5, elementwise when q and p are
    integer arrays: an involution (cases 3, 4; p = 1 (mod 4)) or an element
    of order 3 (case 5) shared by both stabilizers."""
    if case_id in (3, 4):
        return {
            "o_g": 2, "class": q * (q + 1) // 2, "meet": 15 if case_id == 3 else 3,
            "cent": q - 1, "k": (q - 1) // 2, "k_meet": 2,
            "fixed": (q - 1) // 4,
        }
    # e = 1 if p = 1 (mod 3), else -1: the element of order 3 then lies in
    # a torus of order (p - e)/2, and its class has p(p + e) elements
    e = 2 * (p % 3 == 1) - 1
    return {
        "o_g": 3, "class": p * (p + e), "meet": 8,
        "cent": (p - e) // 2, "k": (p - e) // 2, "k_meet": 3,
        "fixed": (p - e) // 6,
    }


def _row_applies(case_id: int, p):
    """Whether case 3, 4 or 5's fixed-substructure row applies at p
    (elementwise on an array of p)."""
    return (p > 5) & ((p % 4 == 1) | (case_id == 5))


# ---------------------------------------------------------------------------
# fixed-substructure contradictions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ContradictionOutcome:
    verdict: str
    path: str
    checks: tuple = ()


def fixed_structure_contradiction(
    p_g: int | None = None,
    l_g: int | None = None,
    *,
    row: dict | None = None,
    n_omega: int | None = None,
    s_omega: int | None = None,
) -> ContradictionOutcome:
    """Close out a surviving equal-stabilizer scenario via its fixed
    substructure.

    Supply either the fixed counts (|P_g|, |L_g|) directly, or a table
    row's `row_values` together with the case's stabilizer index n_omega
    (`index_formula`), from which they are computed.  The fixed structure
    must be a subquadrangle with equal parameters; the routine eliminates
    through whichever branch applies: no integer subquadrangle order, a
    non-thick structure that falls to the count pre-check on n_omega, or a
    thick one contradicted by the transitive odd cyclic group on its
    points and lines.  A caller that already holds the solution of
    (1+s)(1+s^2) = n_omega passes it as s_omega.
    """
    checks = []
    if p_g is None:
        if row is None or n_omega is None:
            raise ValueError("need (p_g, l_g) or (row, n_omega)")
        p_g = fixed_count(n_omega, row["class"], row["meet"])
        l_g = p_g
        checks.append(
            _check(
                "fixed-count-formula",
                p_g == row["fixed"],
                f"|P_g| = {p_g} matches the row formula",
            )
        )
        checks.append(
            _check(
                "k-transitive-on-fixed",
                row["k"] // row["k_meet"] == p_g and row["k"] % row["k_meet"] == 0,
                "[K : K ^ M] equals the fixed count on both sides",
            )
        )
    if l_g is None:
        l_g = p_g
    if p_g != l_g:
        raise ValueError("scenarios here have equal fixed counts")
    if p_g < 2:
        raise ValueError("inconsistent scenario: fewer than 2 fixed points")
    s_prime = solve_equal_order(p_g)
    if s_prime is None:
        checks.append(
            _check(
                "no-subquadrangle-order",
                s_prime is None,
                f"(1+s')(1+s'^2) = {p_g} has no integer solution",
            )
        )
        return ContradictionOutcome(ELIMINATED, "no-integer-order", tuple(checks))
    if s_prime < 2:
        # non-thick: the caller must eliminate via the ambient count equation
        if n_omega is not None:
            s = solve_equal_order(n_omega) if s_omega is None else s_omega
            checks.append(
                _check(
                    "count-pre-check",
                    s is None or s < 2,
                    f"(1+s)(1+s^2) = {n_omega} has no thick solution",
                )
            )
            return ContradictionOutcome(ELIMINATED, "count-pre-check", tuple(checks))
        return ContradictionOutcome(NEEDS_GEOMETRY, "non-thick-structure", tuple(checks))
    checks.append(
        _check(
            "abelian-transitive-contradiction",
            True,
            f"thick subquadrangle of order {s_prime} with an abelian group "
            "transitive on points and lines cannot exist",
        )
    )
    return ContradictionOutcome(ELIMINATED, "abelian-transitivity", tuple(checks))


# ---------------------------------------------------------------------------
# equal-case eliminations (both stabilizers in the same family)
# ---------------------------------------------------------------------------


def _admissible(case_id: int, q_range):
    """(q, p, f) arrays of the q in q_range where the family applies."""
    q, p, f = prime_power_arrays(*q_range)
    keep = case_condition_at(case_id, q, p, f)
    return q[keep], p[keep], f[keep]


def _thick_equal_orders(params, n_of) -> list[tuple[int, int]]:
    """(x, s) for each x in the array params whose count
    (1+s)(1+s^2) = n_of(x) has a thick solution: one array pass finds
    them, and each is re-solved in Python ints."""
    s = solve_equal_order_array(n_of(params))
    out = []
    for x in params[s >= 2].tolist():
        sx = solve_equal_order(n_of(x))
        if sx is not None and sx >= 2:
            out.append((x, sx))
    return out


def _equal_record(case_id, inputs, tested, survivors, checks, notes=()) -> EliminationRecord:
    return EliminationRecord(
        lemma_tag=f"case{case_id}-equal",
        inputs=inputs,
        scan_size=tested,
        survivors=sorted(survivors),
        verdict=ELIMINATED if not survivors else NEEDS_GEOMETRY,
        checks=checks,
        notes=list(notes),
    )


def _eliminate_equal_2(q_range) -> EliminationRecord:
    """Both stabilizers a subfield PGL: (s+1)(s^2+1) = q0(q0^2+1)/2.

    The lone solution in the range is q0 = 3, s = 2; it is handed to the
    geometry stage for explicit construction (verdict stays a survivor
    here).  For q0 >= 7 the double-coset argument closes the case: its
    machine-checkable ingredient, that a subgroup of index at most q0 in
    PGL(2,q0) is PSL or PGL, is verified exhaustively at q0 = 7 and 9 by
    the subgroup search (see the small-index acceptance test)."""
    def count(x):
        return x * (x * x + 1) // 2

    q0, p, _ = prime_power_arrays(*q_range)
    q0 = q0[p != 2]
    thick = dict(_thick_equal_orders(q0, count))
    survivors = [(x * x, s, s) for x, s in thick.items()]
    checks = []
    for x in q0[(q0 == 3) | (q0 == 5)].tolist():
        if x not in thick:
            s = solve_equal_order(count(x))
            checks.append(
                _check(f"q0={x}-no-solution" if s is None else f"q0={x}-thin",
                       s is None or s < 2, f"(1+s)(1+s^2) = {count(x)}")
            )
    tested = len(q0)
    return _equal_record(
        2,
        {"q0_lo": q_range[0], "q0_hi": q_range[1], "method": "scan"},
        tested,
        survivors,
        checks,
        notes=[
            "survivor (q, s) = (9, 2) is the construction candidate",
            "q0 >= 7: index-<=q0 subgroups of PGL(2,q0) are only PSL/PGL "
            "(verified exhaustively at q0 = 7, 9), forcing equal double "
            "cosets, impossible",
        ],
    )


def _equal_345_at(case_id: int, q: int, p: int):
    """One q of the equal triangle-group scan, in Python ints: the
    survivor it leaves (or None) and the checks it made."""
    n = Q_INDEX[case_id](q)
    s = solve_equal_order(n)
    count_killed = s is None or s < 2
    row = row_values(case_id, q) if _row_applies(case_id, p) else None
    if row is not None and row["fixed"] >= 2:
        out = fixed_structure_contradiction(row=row, n_omega=n, s_omega=s)
        if out.verdict != ELIMINATED:
            return (q, s or 0, s or 0), []
        return None, list(out.checks)
    if not count_killed:
        return (q, s, s), []
    return None, [
        _check(f"q={q}-count-equation", count_killed, f"(1+s)(1+s^2) = {n} has no thick solution")
    ]


def _eliminate_equal_345(case_id, q_range) -> EliminationRecord:
    """Equal triangle-group stabilizers (A5, A4 or S4).

    Every admissible q is closed out twice over: the point-count equation
    is solved exactly, and the fixed-substructure endgame (quarter / sixth
    fixed counts, transitive odd cyclic complement) is executed whenever
    its row applies."""
    q, p, _ = _admissible(case_id, q_range)
    n = Q_INDEX[case_id](q)
    s = solve_equal_order_array(n)
    row = _triangle_row(case_id, q, p)
    endgame = _row_applies(case_id, p) & (row["fixed"] >= 2)
    # the endgame's predicates (see fixed_structure_contradiction) at every
    # q at once; n * meet <= q^3/6 < 2**63 for q <= 2e6
    num = n * row["meet"]
    p_g = num // row["class"]
    closes = (
        (num % row["class"] == 0)
        & (p_g == row["fixed"])
        & (row["k"] % row["k_meet"] == 0)
        & (row["k"] // row["k_meet"] == p_g)
        # rows with p_g < 2 already fail p_g == fixed >= 2
        & ((solve_equal_order_array(np.maximum(p_g, 1)) != 1) | (s < 2))
    )
    # Python runs the per-q step where the record keeps its checks, where
    # the count leaves a thick order and where a predicate fails, in scan
    # order, so a failure raises just as a per-q scan would raise it
    touch = (q <= 200) | np.where(endgame, ~closes, s >= 2)
    survivors = []
    checks = []
    for x, px in zip(q[touch].tolist(), p[touch].tolist()):
        survivor, found = _equal_345_at(case_id, x, px)
        if survivor:
            survivors.append(survivor)
        elif x <= 200:
            checks.extend(found)
    tested, endgames = len(q), int(endgame.sum())
    return _equal_record(
        case_id,
        {"q_lo": q_range[0], "q_hi": q_range[1], "method": "scan+consequence"},
        tested,
        survivors,
        checks,
        notes=[f"{endgames} values closed by the fixed-substructure endgame"],
    )


def _eliminate_equal_6(grid_range) -> EliminationRecord:
    """Equal subfield-PSL stabilizers: q = q0^r, r an odd prime.

    Per instance: exact point-count solve plus the fixed-substructure
    endgame from the class data of an involution shared by both
    stabilizers ([K : K ^ M] = |P_g| on both sides, giving a transitive
    abelian group on a thick subquadrangle)."""
    lo, hi = grid_range
    tested = 0
    survivors = []
    checks = []
    for q0, r in _subfield_pair_instances(6, lo, hi):
        q = q0**r
        if not case_condition(6, q, q0=q0, r=r):
            continue
        tested += 1
        n = index_formula(6, q, q0=q0, r=r)
        s = solve_equal_order(n)
        out = fixed_structure_contradiction(row=row_values(6, q, q0=q0), n_omega=n)
        if out.verdict != ELIMINATED:
            if s is not None and s >= 2:
                survivors.append((q, s, s))
            continue
        if q <= 50_000:
            checks.extend(out.checks)
    return _equal_record(
        6,
        {"q0_lo": lo, "q0_hi": hi, "r_set": [3, 5, 7], "method": "scan+consequence"},
        tested,
        survivors,
        checks[:24],
    )


def _eliminate_equal_7(grid_range) -> EliminationRecord:
    """Equal subfield stabilizers in even characteristic.

    The right side of (s+1)(s^2+1) = q0^(r-1)(q0^(2r)-1)/(q0^2-1) is
    even, forcing s odd and s+1 = q0^(r-1) t / 2 with t odd; the two
    sides are then strictly ordered for t = 1 and t >= 3.  Both the
    parity filter and the exact solver run per instance."""
    lo, hi = grid_range
    tested = 0
    survivors = []
    checks = []
    parity_ok = True
    order_split_ok = True
    for q0, r in _subfield_pair_instances(7, lo, hi, rs=(2, 3, 5, 7)):
        q = q0**r
        if not case_condition(7, q, q0=q0, r=r):
            continue
        if q > 2**40:
            continue
        tested += 1
        n = index_formula(7, q, q0=q0, r=r)
        parity_ok = parity_ok and n % 2 == 0
        s = solve_equal_order(n)
        if s is not None and s >= 2:
            survivors.append((q, s, s))
        # the ordering argument: with s+1 = q0^(r-1) t / 2, the cube side
        # is already above n for t = 3 and below for t = 1
        base = q0 ** (r - 1)
        for t_odd, expect_high in ((1, False), (3, True)):
            sp = base * t_odd // 2 - 1
            val = (sp + 1) * (sp * sp + 1)
            if t_odd == 1 and val >= n:
                order_split_ok = False
            if t_odd == 3 and val <= n:
                order_split_ok = False
    checks.append(_check("right-side-even", parity_ok, "every instance has an even count"))
    checks.append(
        _check(
            "t1-low-t3-high",
            order_split_ok,
            "candidate counts straddle the target strictly at t = 1 and t = 3",
        )
    )
    return _equal_record(
        7,
        {"q0_lo": lo, "q0_hi": hi, "r_set": [2, 3, 5, 7], "method": "scan+consequence"},
        tested,
        survivors,
        checks,
    )


# D(k) = 4k^4 + 8k^2 - 4k - 4, the discriminant of case 8's odd branch
_ODD_DISCRIMINANT = {(4,): 4, (2,): 8, (1,): -4, (0,): -4}


# F(x, a) = x^2 a^3 - 2x a^2 + 2a - 8x - 2: twice the left side of case
# 8's even branch minus twice its right side 2^f + 1, at x = 2^(f-2)
_EVEN_BRANCH = {(2, 3): 1, (1, 2): -2, (0, 1): 2, (1, 0): -8, (0, 0): -2}


def _eliminate_equal_8(q_range) -> EliminationRecord:
    """Equal split-torus dihedral stabilizers: (s+1)(s^2+1) = q(q+1)/2.

    The exact solver runs per admissible q.  The structural reduction is
    recorded as executed arithmetic: the odd branch forces the
    discriminant 4k^4+8k^2-4k-4 to be a perfect square, which happens
    only at k = 1 (certified for every k), leading to q = 5 which the
    family excludes; the even branch (2^(2f-5)a^2 - 2^(f-2)a + 1)a = 2^f+1
    has an increasing left side in a and no solution for f >= 3 (both
    certified for every f and a)."""
    q, _, _ = _admissible(8, q_range)
    survivors = [(x, s, s) for x, s in _thick_equal_orders(q, Q_INDEX[8])]
    checks = []
    # for k >= 2, (2k^2+1)^2 < D(k) < (2k^2+2)^2: the gaps 4k^2-4k-5 and
    # 4k+8 are certified positive from k = 2, so only k = 1 can be a square
    disc = _ODD_DISCRIMINANT
    below, above = ({(2,): 2, (0,): c} for c in (1, 2))  # 2k^2+1, 2k^2+2
    gaps = (_poly_sub(disc, _poly_mul(below, below)), _poly_sub(_poly_mul(above, above), disc))
    between = all(_positive_from(gap, (2,)) for gap in gaps)
    square_ks = [1] if is_square_int(sum(disc.values())) else []  # D(1)
    checks.append(
        _check(
            "odd-branch-discriminant",
            between and square_ks == [1],
            f"square discriminant only at k = {square_ks}"
            if between
            else "no gap certificate between squares for k >= 2",
        )
    )
    checks.append(
        _check(
            "odd-branch-k1-gives-q5",
            solve_equal_order(5 * 6 // 2) == 2 and not case_condition(8, 5),
            "k = 1 leads to (s, q) = (2, 5), outside the family",
        )
    )
    # the even branch at x = 2^(f-2) >= 2 (f >= 3): the left side is
    # L(x, a) = (x^2 a^2 / 2 - x a + 1) a, and 2(L(x, a+1) - L(x, a)) comes
    # from shifting a by one
    even = _EVEN_BRANCH
    rise = _poly_sub(_taylor_shift(even, (0, 1)), even)
    checks.append(
        _check("even-branch-increasing", _positive_from(rise, (2, 1)), "left side increases in a")
    )
    # F is certified positive from (x, a) = (2, 2); at a = 1 it must be
    # x^2 - r x, whose one root x = r >= 2 may not be a power of 2
    at_a1: dict = {}
    for (ex, _), c in even.items():
        at_a1[ex] = at_a1.get(ex, 0) + c
    r = -at_a1.get(1, 0)
    a1_ok = at_a1 == {2: 1, 1: -r, 0: 0} and (r < 2 or r & (r - 1) != 0)
    checks.append(
        _check(
            "even-branch-no-solution",
            _positive_from(even, (2, 2)) and a1_ok,
            "no (f, a) solves the even branch",
        )
    )
    return _equal_record(
        8,
        {"q_lo": q_range[0], "q_hi": q_range[1], "method": "scan+consequence"},
        len(q),
        survivors,
        checks,
    )


def _eliminate_equal_9(q_range) -> EliminationRecord:
    """Equal nonsplit-torus dihedral stabilizers: (s+1)(s^2+1) = q(q-1)/2.

    The scan leaves exactly (s, q) = (9, 41); that survivor is flagged
    for the fixed-substructure stage rather than eliminated here."""
    q, _, _ = _admissible(9, q_range)
    survivors = [(x, s, s) for x, s in _thick_equal_orders(q, Q_INDEX[9])]
    return _equal_record(
        9,
        {"q_lo": q_range[0], "q_hi": q_range[1], "method": "scan"},
        len(q),
        survivors,
        [],
        notes=["survivors go to the fixed-substructure contradiction"],
    )


@_timed
def eliminate_equal(case_id: int, q_range=None) -> EliminationRecord:
    """Eliminate the equal-stabilizer configuration for one family over a
    range (the row's default range when None).

    Case 2's range is over q0 (q = q0^2); cases 6 and 7 scan a (q0, r)
    grid; the rest scan q directly."""
    row = VERIFIERS.get(f"case{case_id}-equal")
    if row is None:
        raise ValueError(f"no equal-case elimination for case {case_id}")
    return row.body(q_range or row.default_range)


@_timed
def eliminate_case9_survivor() -> EliminationRecord:
    """Close out the (s, q) = (9, 41) survivor: 820 points, the involution
    class of size 861 meets the order-42 dihedral stabilizer in its 21
    involutions, so 20 fixed points; no subquadrangle order fits 20."""
    q, s = 41, 9
    checks = []
    n_pts = index_formula(9, q)
    checks.append(_check("point-count", n_pts == 820, "[X : M] = 820 at q = 41"))
    cls = 41 * 42 // 2
    checks.append(_check("involution-class", cls == 861, "q(q+1)/2 with 41 = 1 (mod 4)"))
    meet = dihedral_involution_count(42)
    checks.append(_check("stabilizer-involutions", meet == 21, "the order-42 dihedral group has 21 involutions"))
    fixed = fixed_count(n_pts, cls, meet)
    checks.append(_check("fixed-count", fixed == 20, "|P_g| = |L_g| = 20"))
    checks.append(
        _check("centralizer-index", (41 - 1) // 2 == fixed, "[C(g) : C(g) ^ M] = 40/2 = 20, so C(g) is transitive on the fixed points")
    )
    out = fixed_structure_contradiction(p_g=fixed, l_g=fixed)
    checks.extend(out.checks)
    return EliminationRecord(
        lemma_tag="case9-q41",
        inputs={"q": q, "s": s, "method": "consequence"},
        scan_size=1,
        survivors=[] if out.verdict == ELIMINATED else [(q, s, s)],
        verdict=out.verdict,
        checks=checks,
    )


@_timed
def eliminate_same_case_nonisomorphic() -> EliminationRecord:
    """Both stabilizers subfield groups of the same family but different
    degrees (q = q0^r0 = q1^r1 with r0 != r1 prime).

    The odd case dies by the shared-involution endgame (the cyclic half
    of the centralizer is transitive on both fixed sets).  The even case
    reduces, when the fixed structure could be a grid, to r1 = 2 and the
    inequality q1^2 (q1^2-1)^3 < 60^3 (q1^2+1), which fails for every
    q1 = 2^r0 > 4; the boundary value q1 = 4 satisfies the inequality but
    corresponds to r0 = 2 = r1, excluded by distinctness."""
    checks = []
    # odd case: [K : K ^ M_i] = |fixed_i| identities for sample towers
    tested = 0
    identities_ok = True
    for m in (3, 5, 7, 9, 11, 13):
        if prime_power(m) is None:
            continue
        for r0, r1 in ((3, 5), (3, 7), (5, 7)):
            tested += 1
            q = m ** (r0 * r1)
            q0, q1 = m**r1, m**r0
            for qi in (q0, q1):
                sign = 1 if qi % 4 == 3 else -1  # q mod 4 = qi mod 4 on odd towers
                fixed = (q + sign) // (qi + sign)
                k_order = (q + sign) // 2
                k_meet = (qi + sign) // 2
                identities_ok = identities_ok and (
                    k_order % k_meet == 0 and k_order // k_meet == fixed
                )
    checks = [
        _check(
            "odd-towers-transitive-identity",
            identities_ok,
            f"{tested} towers: the cyclic complement is transitive on both fixed sets",
        )
    ]
    # even case: the r1 = 2 grid branch fails its inequality beyond q1 = 4
    even_fail = all(
        (2**e) ** 2 * ((2**e) ** 2 - 1) ** 3 >= 60**3 * ((2**e) ** 2 + 1)
        for e in range(3, 30)
    )
    checks.append(
        _check(
            "even-grid-branch-inequality",
            even_fail,
            "q1^2 (q1^2-1)^3 >= 60^3 (q1^2+1) for q1 = 2^r0 > 4",
        )
    )
    boundary = 4**2 * (4**2 - 1) ** 3 < 60**3 * (4**2 + 1)
    checks.append(
        _check(
            "even-grid-boundary-q1-4",
            boundary,
            "q1 = 4 satisfies the inequality but needs r0 = 2 = r1, excluded",
        )
    )
    return EliminationRecord(
        lemma_tag="same-case-nonisomorphic",
        inputs={"method": "consequence"},
        scan_size=tested,
        survivors=[],
        verdict=ELIMINATED,
        checks=checks,
    )


_CASE1_SAMPLE = (5, 7, 9)


def _pair_orbit(perms) -> set[tuple[int, int]]:
    """Images of the ordered pair of points with ids 0 and 1 under each
    row of a permutation array of PG(1,q), laid out as
    `psl2.IndexedGroup.perms`."""
    return set(zip(perms[:, 0].tolist(), perms[:, 1].tolist()))


@_timed
def eliminate_case1(sample_q=_CASE1_SAMPLE) -> EliminationRecord:
    """Neither stabilizer can be the Borel subgroup: its coset action is
    the 2-transitive natural action on the projective line, while a thick
    quadrangle always has both collinear and noncollinear point pairs."""
    from .psl2 import indexed_group, psl

    checks = []
    for q in sample_q:
        checks.append(
            _check(
                f"two-transitive-q={q}",
                len(_pair_orbit(indexed_group(psl(q)).perms)) == (q + 1) * q,
                "the natural action is 2-transitive on ordered pairs",
            )
        )
    # a thick GQ has a noncollinear point pair: |P| - 1 - s(t+1) = s^2 t,
    # certified positive for all s, t >= 2
    points = _poly_mul({(1, 0): 1, (0, 0): 1}, {(1, 1): 1, (0, 0): 1})
    excess = _poly_sub(points, {(0, 0): 1, (1, 1): 1, (1, 0): 1})
    checks.append(
        _check(
            "noncollinear-pair-exists",
            _positive_from(excess, (2, 2)),
            "1 + s(t+1) < (s+1)(st+1) for all thick orders",
        )
    )
    return EliminationRecord(
        lemma_tag="case1-excluded",
        inputs={"sample_q": list(sample_q), "method": "consequence"},
        scan_size=len(sample_q),
        survivors=[],
        verdict=ELIMINATED,
        checks=checks,
        notes=["2-transitivity makes all point pairs collinear-equivalent"],
    )


# ---------------------------------------------------------------------------
# the surviving example: the quadrangle of order 2 at q = 9
# ---------------------------------------------------------------------------


@dataclass
class W2Result:
    geometry: object
    verdict: object
    selection: tuple[int, ...]
    all_selections: list
    M0: object
    M1: object
    decomposition: list


def build_w2() -> W2Result:
    """Construct and verify the 15-point quadrangle of order 2 from the
    two conjugacy classes of order-24 subfield subgroups of PSL(2,9).

    The point stabilizer is the subfield copy; the line stabilizer is its
    image under conjugation by a non-square diagonal twist, which lands
    in the other class (verified set-theoretically).  The double-coset
    selection search then finds every incidence rule passing the axioms.
    """
    from .geometry import double_cosets, find_gq_selections
    from .psl2 import indexed_group, psl
    from .subgroups import build_case, handle_from_ids

    spec = psl(9)
    M0 = build_case(2, spec)
    sqrt = spec.field.array_tables()[4]
    omega = next(w for w in range(1, spec.q) if sqrt[w] == -1)  # the first non-square
    ig = indexed_group(spec)
    M1 = handle_from_ids(spec, _diagonal_twist(ig, M0.ids, omega))
    if M1.ids == M0.ids:
        raise VerificationError("w2-twist", "the twist fixed the subgroup")
    # the two copies must not be conjugate inside the socle
    if ig.transporter(ig.generators_of(M1.ids), M0.ids).size:
        raise VerificationError("w2-twist", "the twisted copy is conjugate to the original")
    decomposition = double_cosets(M0, M1, spec)
    hits = find_gq_selections(M0, M1, spec)
    if not hits:
        raise VerificationError("w2-selection", "no axiom-passing selection found")
    selection, verdict, geometry = hits[0]
    return W2Result(geometry, verdict, selection, hits, M0, M1, decomposition)


def _diagonal_twist(ig, ids, w: int) -> np.ndarray:
    """Ids of the conjugates of `ids` by diag(w, 1), w a field index:
    (a, b; c, d) -> (a, b/w; cw, d).  `ids_of` reads only projective
    images, so the twisted rows need no canonical form."""
    _, mul, _, inv, _ = ig.spec.field.array_tables()
    a, b, c, d = ig.spec.element_array()[list(ids)].T
    return ig.ids_of(np.stack([a, mul[b, inv[w]], mul[c, w], d], axis=1))


@_timed
def w2_record() -> EliminationRecord:
    res = build_w2()
    v = res.verdict
    checks = [
        _check("fifteen-points", res.geometry.n_points == 15, ""),
        _check("fifteen-lines", res.geometry.n_lines == 15, ""),
        _check("order-2-2", (v.s, v.t) == (2, 2), "verified by full axiom check"),
        _check("thick", v.thick, ""),
        _check(
            "selection-unique",
            len(res.all_selections) == 1,
            f"{len(res.all_selections)} axiom-passing selections",
        ),
    ]
    return EliminationRecord(
        lemma_tag="w2-construction",
        inputs={"q": 9, "method": "construction"},
        scan_size=len(res.decomposition),
        survivors=[(9, v.s, v.t)],
        verdict=CONFIRMED,
        checks=checks,
        notes=["the unique thick quadrangle of order 2 on 15 points"],
    )


# ---------------------------------------------------------------------------
# group-level verification of the fixed-substructure table rows
# ---------------------------------------------------------------------------


def verify_table_rows_at(case_id: int, q: int, q0: int | None = None) -> dict:
    """Brute-force the class-data row inside the enumerated group.

    Returns computed values {class, meet, cent, cent_is_dihedral, k,
    k_meet, fixed} for comparison with row_values(); every value is
    derived from explicit elements and cosets, not formulas.
    """
    from .psl2 import centralizer, indexed_group, involution_class, order3_class, psl
    from .subgroups import build_case, is_cyclic, is_dihedral

    spec = psl(q)
    ig = indexed_group(spec)
    vals = row_values(case_id, q, q0=q0)
    handle = build_case(case_id, spec, q0=q0)
    rep, _ = (involution_class if vals["o_g"] == 2 else order3_class)(spec)
    cls = ig.conjugacy_class(rep)
    in_cls = ig.mask(cls)
    sub_idx = np.asarray(handle.ids)
    meet = int(in_cls[sub_idx].sum())
    # pick a class element inside the subgroup so K ^ M is meaningful
    g_in = int(sub_idx[in_cls[sub_idx]][0])
    cent_handle = centralizer(g_in, spec)
    cent = np.asarray(cent_handle.ids)
    orders = np.asarray(ig.orders())
    k_gen = int(cent[orders[cent] == vals["k"]][0])
    k_members = ig.closure_idx((k_gen,))
    k_meet = int(ig.mask(sub_idx)[list(k_members)].sum())
    labels, reps = ig.coset_labels(sub_idx)
    labels = np.asarray(labels)
    fixed = int((labels[ig.mul_ids(reps, g_in)] == labels[reps]).sum())
    return {
        "class": len(cls),
        "meet": meet,
        "cent": len(cent),
        "cent_is_dihedral": is_dihedral(cent_handle),
        "cent_is_cyclic": is_cyclic(cent_handle),
        "k": len(k_members),
        "k_meet": k_meet,
        "fixed": fixed,
        "expected": vals,
    }


# ---------------------------------------------------------------------------
# verifier registry: one row per tag, in report order
# ---------------------------------------------------------------------------

THEOREM = "theorem"  # the whole driver; not a registry row
THEOREM_QMAX = 100


@dataclass(frozen=True)
class VerifierSpec:
    """One registry row: everything the engine knows about one tag.

    `runner(q_range, workers)` makes the record through the tag's
    public entry point, looked up when it runs; `body` is what
    `eliminate_cross` or `eliminate_equal` dispatch to.  `param` says what
    the range counts: "q", or "q0" with q = q0^2 (None: no range).
    `if_empty` is what the theorem does when capping empties the range
    (see `_theorem_ranges`).  Pair rows also carry the pair table: the
    published range, the widest window the bound inequality allows (upper
    end None: no bound), the family condition and a note."""

    tag: str
    expected_verdict: str
    description: str
    runner: Callable
    body: Callable | None = None
    default_range: tuple[int, int] | None = None
    param: str | None = None
    if_empty: str = "drop"
    expected_survivors: tuple = ()
    follow_up: str | None = None
    pair: tuple[int, int] | None = None
    published: tuple[int, int] | None = None
    widest: tuple | None = None
    condition: str | None = None
    note: str | None = None

    def expected_in(self, q_range) -> list[tuple[int, int, int]]:
        """The expected survivors whose range parameter lies in q_range."""
        if q_range is None:
            return list(self.expected_survivors)
        at = math.isqrt if self.param == "q0" else int
        return [s for s in self.expected_survivors if q_range[0] <= at(s[0]) <= q_range[1]]


def _pair(i: int, j: int, body, **data) -> VerifierSpec:
    return VerifierSpec(
        f"case{i}-case{j}", ELIMINATED, f"stabilizer pair (case {i}, case {j})",
        lambda rng, workers: eliminate_cross(i, j, rng, workers),
        body=body, pair=(i, j), **data,
    )


def _scanned_pair(i: int, j: int, widest, **data) -> VerifierSpec:
    """A q-parametrized pair, solved per q over the widest window."""
    return _pair(
        i, j, lambda rng, workers: _scan_pair_record((i, j), rng, workers),
        default_range=widest, widest=widest, param="q", **data,
    )


def _grid_pair(i: int, j: int, body, default_range) -> VerifierSpec:
    """A subfield pair: exact solves over a (q0, r) grid plus its endgame."""
    return _pair(i, j, body, default_range=default_range, param="q", if_empty="first")


def _equal(case_id: int, body, default_range, param="q", **data) -> VerifierSpec:
    return VerifierSpec(
        f"case{case_id}-equal",
        NEEDS_GEOMETRY if data.get("expected_survivors") else ELIMINATED,
        f"equal stabilizers in case {case_id}",
        lambda rng, workers: eliminate_equal(case_id, rng),
        body=body, default_range=default_range, param=param, **data,
    )


_ROWS = [
    VerifierSpec(
        "case1-excluded", ELIMINATED,
        "Borel stabilizers are impossible (2-transitive coset action)",
        lambda rng, workers: eliminate_case1(
            tuple(q for q in _CASE1_SAMPLE if rng[0] <= q <= rng[1])
        ),
        default_range=(5, 9), param="q", if_empty="first",
    ),
    VerifierSpec(
        "sporadic", ELIMINATED,
        "non-maximal-stabilizer triples: counts 28, 21, 66 and the A4<S4 row",
        lambda rng, workers: eliminate_sporadic(rng),
        default_range=(11, 10_000), param="q", if_empty="keep",
    ),
    _pair(2, 6, lambda rng, workers: _eliminate_2_6(), condition="q = q0^2 = q1^r, r an odd prime"),
    _pair(3, 5, lambda rng, workers: _eliminate_3_5(), condition="q = p = +-1, +-9 (mod 40)"),
    _scanned_pair(3, 8, (19, 108003), published=(19, 108003)),
    _scanned_pair(
        3, 9, (11, 107995), published=(19, 107995),
        note="range start 11 and the tabulated 19 are both scanned",
    ),
    _scanned_pair(4, 8, (13, 867), published=(37, 866)),
    _scanned_pair(4, 9, (13, 859), published=(37, 858)),
    _scanned_pair(5, 8, (17, 6915), published=(17, 6915)),
    _scanned_pair(5, 9, (17, 6907), published=(17, 6907)),
    _grid_pair(6, 8, lambda rng, workers: _eliminate_subfield_vs_dihedral(6, 8, *rng), (3, 61)),
    _grid_pair(6, 9, lambda rng, workers: _eliminate_subfield_vs_dihedral(6, 9, *rng), (3, 61)),
    _grid_pair(7, 8, lambda rng, workers: _eliminate_7(8, rng), (4, 64)),
    _grid_pair(7, 9, lambda rng, workers: _eliminate_7(9, rng), (4, 64)),
    _pair(8, 9, _scan_8_9, default_range=(4, 10_000), widest=(4, None), param="q"),
    _equal(
        2, _eliminate_equal_2, (3, 97), param="q0",
        expected_survivors=((9, 2, 2),), follow_up="w2-construction",
    ),
    _equal(3, lambda rng: _eliminate_equal_345(3, rng), (4, 100_000)),
    _equal(4, lambda rng: _eliminate_equal_345(4, rng), (4, 100_000)),
    _equal(5, lambda rng: _eliminate_equal_345(5, rng), (4, 100_000)),
    _equal(6, _eliminate_equal_6, (3, 61)),
    _equal(7, _eliminate_equal_7, (4, 64)),
    _equal(8, _eliminate_equal_8, (4, 100_000)),
    _equal(
        9, _eliminate_equal_9, (4, 100_000),
        expected_survivors=((41, 9, 9),), follow_up="case9-q41",
    ),
    VerifierSpec(
        "same-case-nonisomorphic", ELIMINATED,
        "subfield stabilizers of different degrees",
        lambda rng, workers: eliminate_same_case_nonisomorphic(),
    ),
    VerifierSpec(
        "case9-q41", ELIMINATED,
        "the (s, q) = (9, 41) survivor dies on its fixed substructure",
        lambda rng, workers: eliminate_case9_survivor(),
    ),
    VerifierSpec(
        "w2-construction", CONFIRMED,
        "explicit 15-point quadrangle of order 2 at q = 9",
        lambda rng, workers: w2_record(),
    ),
]

VERIFIERS = {row.tag: row for row in _ROWS}
PAIRS = {row.pair: row for row in _ROWS if row.pair}
_FOLLOW_UPS = {row.follow_up for row in _ROWS if row.follow_up}


def registry_hash() -> str:
    blob = ";".join(f"{tag}:{spec.expected_verdict}" for tag, spec in sorted(VERIFIERS.items()))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


# ---------------------------------------------------------------------------
# the end-to-end driver
# ---------------------------------------------------------------------------


@dataclass
class TheoremReport:
    q_max: int
    records: list[EliminationRecord]
    confirmed: list[tuple[int, int, int]]
    ok: bool = True  # every record left exactly its row's expected survivors
    elapsed: float = 0.0

    def to_dict(self) -> dict:
        return {
            "q_max": self.q_max,
            "records": [r.to_dict() for r in self.records],
            "confirmed": [list(c) for c in self.confirmed],
        }


def _theorem_ranges(q_max: int):
    """(row, range) for every row the theorem runs at q_max, in report
    order: each row's widest window (else its default range) capped at
    q_max, or at sqrt(q_max) for a q0 range.  A capped range that is empty
    drops the row ("drop"), is run as it stands ("keep": the row's other
    checks need no range) or is widened back to its first value ("first")."""
    for row in VERIFIERS.values():
        window = row.widest or row.default_range
        if window is None:
            yield row, None
            continue
        lo, hi = window
        cap = math.isqrt(q_max) if row.param == "q0" else q_max
        hi = cap if hi is None else min(hi, cap)
        if hi >= lo or row.if_empty == "keep":
            yield row, (lo, hi)
        elif row.if_empty == "first":
            yield row, (lo, lo)


@_timed
def theorem_driver(q_max: int, workers: int = 1) -> TheoremReport:
    """Run every registry row with its range capped at q_max and collate.

    A follow-up row runs only when the row it follows left survivors.  A
    survivor that the row does not expect in its range raises; the report
    is ok when each row left all it expects, so the only confirmed example
    is the order-2 quadrangle at q = 9 (constructed and axiom-checked
    whenever q_max >= 9).  With workers > 1 each scan pair splits its
    range into chunks on up to `workers` threads, at most one per core
    (see `_run_chunked`)."""
    records, due, ok = [], set(), True
    for row, rng in _theorem_ranges(q_max):
        if row.tag in _FOLLOW_UPS and row.tag not in due:
            continue
        rec = row.runner(rng, workers)
        if rec.verdict != CONFIRMED:
            expected = row.expected_in(rng)
            stray = [s for s in rec.survivors if s not in expected]
            if stray:
                raise VerificationError("unaccounted-survivors", f"{row.tag} leaves {stray}")
            ok = ok and rec.survivors == expected
        if rec.survivors and row.follow_up:
            due.add(row.follow_up)
        records.append(rec)
    confirmed = [s for r in records if r.verdict == CONFIRMED for s in r.survivors]
    return TheoremReport(q_max, records, confirmed, ok)


@dataclass
class VerifyOutcome:
    tag: str
    expected_verdict: str
    records: list[EliminationRecord]
    ok: bool

    @property
    def final_verdict(self) -> str:
        return self.records[-1].verdict


def verify(tag: str, q_range=None, workers: int = 1, q_max: int | None = None) -> VerifyOutcome:
    """Run one registered verifier and compare against its expected verdict.

    `theorem` runs the full driver up to q_max (default THEOREM_QMAX).  A
    row with a follow-up hands its survivors on, so its outcome includes
    the follow-up record and is ok only when the row left exactly its
    expected survivors and the follow-up reached its own expected verdict.
    `workers` splits each scan pair's range into chunks (see `_run_chunked`)."""
    if tag == THEOREM:
        report = theorem_driver(THEOREM_QMAX if q_max is None else q_max, workers)
        return VerifyOutcome(THEOREM, CONFIRMED, report.records, report.ok)
    if tag not in VERIFIERS:
        raise KeyError(f"unknown lemma tag {tag!r}")
    row = VERIFIERS[tag]
    rng = q_range or row.default_range
    records = [row.runner(rng, workers)]
    ok = records[0].verdict == row.expected_verdict
    if ok and row.follow_up:
        follow = VERIFIERS[row.follow_up]
        records.append(follow.runner(None, workers))
        ok = records[0].survivors == row.expected_in(rng)
        ok = ok and records[1].verdict == follow.expected_verdict
    return VerifyOutcome(tag, row.expected_verdict, records, ok)
