import hashlib
import sys

import numpy as np
import pytest
import sympy
from oracle import candidate_pairs, is_zero, record_from_dict

from quadforge._ints import is_prime, is_square_int
from quadforge.errors import VerificationError
from quadforge.feasibility import solve_equal_order, solve_point_count
from quadforge.geometry import fixed_count
from quadforge.classify import (
    CONFIRMED,
    ELIMINATED,
    NEEDS_GEOMETRY,
    EliminationRecord,
    VERIFIERS,
    build_w2,
    eliminate_case1,
    eliminate_case9_survivor,
    eliminate_cross,
    eliminate_equal,
    eliminate_same_case_nonisomorphic,
    eliminate_sporadic,
    fixed_structure_contradiction,
    registry_hash,
    row_values,
    theorem_driver,
    verify,
    verify_table_rows_at,
    _EVEN_BRANCH,
    _ODD_DISCRIMINANT,
    _pair_orbit,
    _positive_from,
    _subfield_grid,
    _taylor_shift,
)
from quadforge.subgroups import case_params, index_formula

# ---------------------------------------------------------------------------
# candidate pairs
# ---------------------------------------------------------------------------


def test_candidate_pairs_examples():
    assert (3, 8) in candidate_pairs(19)
    assert (3, 9) in candidate_pairs(19)
    pairs_q4 = candidate_pairs(4)
    assert all(i not in (2, 3, 4, 5, 6) and j != 6 for i, j in pairs_q4)
    assert (8, 9) in pairs_q4
    assert (4, 8) in candidate_pairs(37)
    assert (4, 9) in candidate_pairs(37)
    assert all(1 not in pair for q in (4, 9, 19, 37) for pair in candidate_pairs(q))


def test_candidate_pairs_respect_windows():
    assert (3, 8) not in candidate_pairs(11)  # below the window start
    # first admissible prime above the window end falls outside the pair
    from quadforge._ints import is_prime

    q = 108004
    while not (is_prime(q) and q % 10 in (1, 9)):
        q += 1
    assert (3, 8) not in candidate_pairs(q)


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------


def test_record_verdict_survivor_invariant():
    with pytest.raises(ValueError):
        EliminationRecord("x", {}, 1, [(9, 2, 2)], ELIMINATED)
    with pytest.raises(ValueError):
        EliminationRecord("x", {}, 1, [], NEEDS_GEOMETRY)
    with pytest.raises(ValueError):
        EliminationRecord("x", {}, 1, [], CONFIRMED)


def test_record_derives_its_verdict_and_sorts_its_survivors():
    assert EliminationRecord("x", {}, 1, []).verdict == ELIMINATED
    rec = EliminationRecord("x", {}, 1, [(41, 9, 9), (9, 2, 2)])
    assert rec.verdict == NEEDS_GEOMETRY and rec.survivors == [(9, 2, 2), (41, 9, 9)]
    assert EliminationRecord("x", {}, 1, [(9, 2, 2)], CONFIRMED).verdict == CONFIRMED


def test_record_with_failed_check_raises_verification_error():
    bad = {"name": "broken", "ok": False, "detail": ""}
    with pytest.raises(VerificationError) as exc:
        EliminationRecord("x", {}, 1, [], ELIMINATED, checks=[bad])
    assert exc.value.name == "broken"


def test_record_roundtrip():
    rec = eliminate_cross(4, 8, q_range=(37, 866))
    clone = record_from_dict(rec.to_dict())
    assert clone == rec


def test_records_are_replayable():
    a = eliminate_cross(5, 9, q_range=(17, 6907))
    b = eliminate_cross(5, 9, q_range=(17, 6907))
    assert a == b


# ---------------------------------------------------------------------------
# cross-case eliminations
# ---------------------------------------------------------------------------


def test_cross_3_5_k_reduction():
    rec = eliminate_cross(3, 5)
    assert rec.verdict == ELIMINATED
    k_check = next(c for c in rec.checks if c["name"] == "k-candidates")
    assert "k = [2, 6, 26]" in k_check["detail"]


def test_cross_4_8_and_4_9():
    assert eliminate_cross(4, 8, q_range=(37, 866)).verdict == ELIMINATED
    assert eliminate_cross(4, 9, q_range=(37, 858)).verdict == ELIMINATED
    # the widest windows the inequality allows are also clean
    assert eliminate_cross(4, 8, q_range=(13, 867)).verdict == ELIMINATED
    assert eliminate_cross(4, 9, q_range=(13, 859)).verdict == ELIMINATED


def test_cross_2_6_inequality():
    rec = eliminate_cross(2, 6)
    assert rec.verdict == ELIMINATED
    assert rec.scan_size > 20


def test_cross_6_8_branches():
    rec = eliminate_cross(6, 8)
    assert rec.verdict == ELIMINATED
    names = {c["name"] for c in rec.checks}
    assert "r3-k-window-empty" in names
    assert "r5-divisibility-fails" in names
    assert "r7-divisibility-scan" in names
    scan = next(c for c in rec.checks if c["name"] == "r7-divisibility-scan")
    assert "[13, 61]" in scan["detail"]


def test_cross_7_branches():
    rec = eliminate_cross(7, 8)
    assert rec.verdict == ELIMINATED
    names = {c["name"] for c in rec.checks}
    assert "count-inequality-caps-n" in names
    rec9 = eliminate_cross(7, 9)
    assert rec9.verdict == ELIMINATED


def test_r11_cube_bound_only_at_q0_the_family_admits():
    # family 7 excludes q0 = 2, so the r = 11 bound is not checked there
    names = [c["name"] for c in verify("case7-case8", (2, 5)).records[0].checks]
    assert "cube-bound-kills-r11-q0=2" not in names
    assert "cube-bound-kills-r11-q0=4" in names


@pytest.mark.parametrize("tag", [tag for tag, row in VERIFIERS.items() if row.param == "q0^r"])
def test_subfield_grid_lists_what_case_params_admits(tag):
    # the grid of each row at its default range, over the exponents its
    # record writes, against q = q0^r decomposed afresh by `case_params`
    row = VERIFIERS[tag]
    case = int(tag[4])
    rs = tuple(row.runner(row.default_range, 1).inputs["r_set"])
    lo, hi = row.default_range
    want = [
        (q0, r, q0**r)
        for q0 in range(lo, hi + 1)
        for r in rs
        if {"q0": q0, "r": r} in case_params(case, q0**r)
    ]
    assert want and list(_subfield_grid(case, row.default_range, rs)) == want


def test_7_r2_solved_check_fails_on_a_feasible_order(monkeypatch):
    from types import SimpleNamespace

    from quadforge import classify

    monkeypatch.setattr(
        classify, "_feasible_orders", lambda nP, nL: [SimpleNamespace(s=2, t=4)]
    )
    with pytest.raises(VerificationError) as exc:
        classify._eliminate_7_r2(8)
    assert exc.value.name == "n=2-solved"


def test_cross_8_9():
    rec = eliminate_cross(8, 9, q_range=(4, 20000))
    assert rec.verdict == ELIMINATED


def test_cross_rejects_unknown_pair():
    with pytest.raises(ValueError):
        eliminate_cross(1, 8)
    with pytest.raises(ValueError):
        eliminate_cross(5, 6)


# ---------------------------------------------------------------------------
# sporadic
# ---------------------------------------------------------------------------


def test_sporadic_eliminations():
    rec = eliminate_sporadic()
    assert rec.verdict == ELIMINATED
    names = {c["name"] for c in rec.checks}
    for n_points in (28, 21, 66):
        assert f"points-{n_points}-unique-order" in names
        assert f"points-{n_points}-divisibility-fails" in names
    # sample prime with the quarter-fixed-count endgame present
    assert any(name.startswith("a4s4-p=29") for name in names)


def test_a4s4_count_check_fails_on_a_solution(monkeypatch):
    # a thick equal order at p = 11 (55 points) makes the recorded check false
    from quadforge import classify

    solve = classify.solve_equal_order_array
    monkeypatch.setattr(classify, "solve_equal_order_array", lambda n: np.where(n == 55, 3, solve(n)))
    with pytest.raises(VerificationError) as exc:
        eliminate_sporadic()
    assert exc.value.name == "a4s4-p=11-count-too-large"


def _thick_equal_orders(n):
    return [c.s for c in solve_point_count(n) if c.s == c.t and c.thick]


def _from_cube_root(n):
    s = solve_equal_order(n)
    return [s] if s is not None and s >= 2 else []


def test_equal_order_is_the_thick_equal_point_count_solution():
    # every A4 < S4 count the sporadic row can meet for p <= 10,000
    for p in range(5, 10_001):
        if is_prime(p):
            n = p * (p * p - 1) // 24
            assert _from_cube_root(n) == _thick_equal_orders(n), p
    # the equal orders themselves, and their neighbours
    for s in range(1, 300):
        for n in (s**3 + 1, s**3, (s + 1) * (s * s + 1) + 1):
            assert _from_cube_root(n) == _thick_equal_orders(n), n
        n = (s + 1) * (s * s + 1)
        assert _from_cube_root(n) == _thick_equal_orders(n) == ([s] if s >= 2 else [])


def test_equal_order_matches_every_count_pre_check(monkeypatch):
    from quadforge import classify

    seen = []
    contradiction = classify.fixed_structure_contradiction

    def spy(*args, **kwargs):
        out = contradiction(*args, **kwargs)
        if out.path == "count-pre-check":
            seen.append(kwargs["n_omega"])
        return out

    monkeypatch.setattr(classify, "fixed_structure_contradiction", spy)
    theorem_driver(108_003)
    assert seen
    for n in seen:
        assert _from_cube_root(n) == _thick_equal_orders(n) == [], n


def test_equal_order_matches_point_count_on_a_sample():
    from hypothesis import given, settings, strategies as st

    near_equal = st.builds(
        lambda s, d: (s + 1) * (s * s + 1) + d, st.integers(1, 10**4), st.integers(-2, 2)
    )

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.integers(min_value=1, max_value=10**12) | near_equal)
    def agree(n):
        assert _from_cube_root(n) == _thick_equal_orders(n)

    agree()


# ---------------------------------------------------------------------------
# exact positivity certificates
# ---------------------------------------------------------------------------

_k = sympy.Symbol("k")
_DISC = 4 * _k**4 + 8 * _k**2 - 4 * _k - 4


def _coeffs(poly):
    """A sympy Poly as the {exponent tuple: coefficient} dicts of classify."""
    return {e: int(c) for e, c in poly.terms() if c}


def test_odd_discriminant_loop_oracle():
    # the bounded scan the certificate replaced
    assert [k for k in range(1, 100_000) if is_square_int(4 * k**4 + 8 * k**2 - 4 * k - 4)] == [1]
    assert _coeffs(sympy.Poly(_DISC, _k)) == _ODD_DISCRIMINANT


def test_certificates_agree_with_sympy_shift():
    gaps = (_DISC - (2 * _k**2 + 1) ** 2, (2 * _k**2 + 2) ** 2 - _DISC)
    assert [sympy.expand(g) for g in gaps] == [4 * _k**2 - 4 * _k - 5, 4 * _k + 8]
    for gap in gaps:
        poly = sympy.Poly(gap, _k)
        assert _taylor_shift(_coeffs(poly), (2,)) == _coeffs(poly.shift(2))
        assert _positive_from(_coeffs(poly), (2,))
        # an independent look: no real root at or beyond k = 2
        assert all(r < 2 for r in sympy.real_roots(poly))
    s, t = sympy.symbols("s t")
    excess = sympy.expand((s + 1) * (s * t + 1) - 1 - s * (t + 1))
    assert excess == s**2 * t
    poly = sympy.Poly(excess, s, t)
    shifted = sympy.Poly(excess.subs({s: s + 2, t: t + 2}, simultaneous=True), s, t)
    assert _taylor_shift(_coeffs(poly), (2, 2)) == _coeffs(shifted)
    assert _positive_from(_coeffs(poly), (2, 2))


def test_certificate_rejects_a_perturbed_coefficient(monkeypatch):
    from quadforge import classify

    assert not _positive_from({(2,): 4, (1,): -4, (0,): -13}, (2,))  # constant -5 -> -13
    assert not _positive_from({(2, 1): 1, (0, 0): -9}, (2, 2))
    assert not _positive_from({(1,): 1}, (0,))  # zero constant proves nothing
    # D(1) = 4 stays a square, but the lower gap 4k^2-12k+3 fails at k = 2
    mutated = dict(_ODD_DISCRIMINANT)
    mutated[(1,)] = -12
    monkeypatch.setattr(classify, "_ODD_DISCRIMINANT", mutated)
    with pytest.raises(VerificationError) as exc:
        eliminate_equal(8, (4, 1000))
    assert exc.value.name == "odd-branch-discriminant"


_x, _a = sympy.symbols("x a")
# twice (left side - right side) of case 8's even branch at x = 2^(f-2)
_EVEN = _x**2 * _a**3 - 2 * _x * _a**2 + 2 * _a - 8 * _x - 2


def _shift2(expr, x0, a0):
    """The Taylor shift (x, a) -> (x + x0, a + a0), one variable at a time
    through sympy's univariate Poly.shift."""
    in_a = sympy.Poly(expr, _a, domain=sympy.ZZ[_x]).shift(a0).as_expr()
    return sympy.Poly(sympy.Poly(in_a, _x, domain=sympy.ZZ[_a]).shift(x0).as_expr(), _x, _a)


def test_even_branch_loop_oracle():
    # the bounded scan the certificates replaced: f <= 60, a <= 7
    hits, increasing = [], True
    for f in range(3, 61):
        prev = None
        for a in range(1, 8):
            val = (2 ** (2 * f - 5) * a * a - 2 ** (f - 2) * a + 1) * a
            increasing = increasing and (prev is None or val > prev)
            prev = val
            if val == 2**f + 1:
                hits.append((f, a))
    assert hits == [] and increasing
    # F is that equation, doubled, at x = 2^(f-2)
    assert _coeffs(sympy.Poly(_EVEN, _x, _a)) == _EVEN_BRANCH
    for f in range(3, 30):
        x = 2 ** (f - 2)
        for a in range(1, 8):
            val = (2 ** (2 * f - 5) * a * a - 2 ** (f - 2) * a + 1) * a
            assert _EVEN.subs({_x: x, _a: a}) == 2 * (val - 2**f - 1)


def test_even_branch_certificates_agree_with_sympy_shift():
    rise = sympy.expand(_EVEN.subs(_a, _a + 1) - _EVEN)
    assert rise == sympy.expand(_x**2 * (3 * _a**2 + 3 * _a + 1) - 2 * _x * (2 * _a + 1) + 2)
    for expr, lows in ((_EVEN, (2, 2)), (rise, (2, 1))):
        coeffs = _coeffs(sympy.Poly(expr, _x, _a))
        assert _taylor_shift(coeffs, lows) == _coeffs(_shift2(expr, *lows))
        assert _positive_from(coeffs, lows)
    assert sympy.factor(_EVEN.subs(_a, 1)) == _x * (_x - 10)


@pytest.mark.parametrize(
    "exps,coeff,name",
    [
        ((1, 0), -40, "even-branch-no-solution"),  # F(2, 2) < 0
        ((1, 0), -6, "even-branch-no-solution"),  # a = 1 then solves at x = 8
        ((0, 1), -20, "even-branch-increasing"),  # the rise is -4 at (2, 1)
    ],
)
def test_even_branch_rejects_a_perturbed_coefficient(monkeypatch, exps, coeff, name):
    from quadforge import classify

    mutated = dict(_EVEN_BRANCH)
    mutated[exps] = coeff
    monkeypatch.setattr(classify, "_EVEN_BRANCH", mutated)
    with pytest.raises(VerificationError) as exc:
        eliminate_equal(8, (4, 1000))
    assert exc.value.name == name


# ---------------------------------------------------------------------------
# equal-case eliminations
# ---------------------------------------------------------------------------


def test_equal_case2_survivor():
    rec = eliminate_equal(2, (3, 97))
    assert rec.verdict == NEEDS_GEOMETRY
    assert rec.survivors == [(9, 2, 2)]
    assert rec.scan_size == 29  # odd prime powers in [3, 97]


def test_equal_case9_survivor_and_contradiction():
    rec = eliminate_equal(9, (4, 100_000))
    assert rec.verdict == NEEDS_GEOMETRY
    assert rec.survivors == [(41, 9, 9)]
    follow = eliminate_case9_survivor()
    assert follow.verdict == ELIMINATED
    names = [c["name"] for c in follow.checks]
    assert "fixed-count" in names and "no-subquadrangle-order" in names


def test_equal_case8_checks():
    rec = eliminate_equal(8, (4, 100_000))
    assert rec.verdict == ELIMINATED
    names = {c["name"] for c in rec.checks}
    assert {"odd-branch-discriminant", "even-branch-no-solution", "even-branch-increasing"} <= names


def test_equal_cases_3_4_5():
    for case in (3, 4, 5):
        rec = eliminate_equal(case, (4, 10_000))
        assert rec.verdict == ELIMINATED, case


def test_equal_case6_and_7():
    rec6 = eliminate_equal(6, (3, 61))
    assert rec6.verdict == ELIMINATED
    rec7 = eliminate_equal(7, (4, 64))
    assert rec7.verdict == ELIMINATED
    names = {c["name"] for c in rec7.checks}
    assert "right-side-even" in names and "t1-low-t3-high" in names


def test_same_case_nonisomorphic():
    rec = eliminate_same_case_nonisomorphic()
    assert rec.verdict == ELIMINATED
    names = {c["name"] for c in rec.checks}
    assert "even-grid-branch-inequality" in names
    assert "even-grid-boundary-q1-4" in names  # boundary recorded, not interpreted


def test_case1_exclusion():
    rec = eliminate_case1()
    assert rec.verdict == ELIMINATED
    assert any(c["name"].startswith("two-transitive") for c in rec.checks)


def _point_id(pt, q):
    return q if is_zero(pt.y) else pt.x.index


@pytest.mark.parametrize("kind", ["psl", "pgl"])
def test_pair_orbit_kernel_matches_scalar_action(kind):
    from oracle import act_on_line, enumerate_group, projective_line

    from quadforge import psl2

    for q in (4, 5, 7, 8, 9, 11, 13):
        spec = getattr(psl2, kind)(q)
        pts = projective_line(spec.field)
        scalar = {
            (_point_id(act_on_line(g, pts[0]), q), _point_id(act_on_line(g, pts[1]), q))
            for g in enumerate_group(spec)
        }
        orbit = _pair_orbit(psl2.indexed_group(spec).perms)
        assert orbit == scalar, (kind, q)
        assert len(orbit) == (q + 1) * q


def test_pair_orbit_of_a_borel_subgroup_is_refused(monkeypatch):
    from types import SimpleNamespace

    from quadforge import psl2
    from quadforge.subgroups import build_case

    spec = psl2.psl(5)
    ig = psl2.indexed_group(spec)
    borel = ig.perms[list(build_case(1, spec).ids)]
    assert len(_pair_orbit(borel)) == 5  # it fixes the point with id 0
    monkeypatch.setattr(psl2, "indexed_group", lambda spec: SimpleNamespace(perms=borel))
    with pytest.raises(VerificationError) as exc:
        eliminate_case1()
    assert exc.value.name == "two-transitive-q=5"


# ---------------------------------------------------------------------------
# fixed-substructure machinery
# ---------------------------------------------------------------------------


def test_row_values_case6_q27():
    vals = row_values(6, 27, q0=3)
    assert vals == {
        "o_g": 2, "class": 351, "meet": 3, "cent": 28,
        "k": 14, "k_meet": 2, "fixed": 7,
    }


def test_contradiction_q41_scenario():
    out = fixed_structure_contradiction(p_g=20)
    assert out.verdict == ELIMINATED
    assert out.path == "no-integer-order"


def test_contradiction_table_row():
    # q = 29: fixed count (29-1)/4 = 7 admits no subquadrangle order
    out = fixed_structure_contradiction(row=row_values(3, 29), n_omega=index_formula(3, 29))
    assert out.verdict == ELIMINATED
    assert out.path == "no-integer-order"
    # q = 61: fixed count 15 = (1+2)(1+4) is a thick subquadrangle, killed
    # by the transitive odd cyclic group
    out61 = fixed_structure_contradiction(row=row_values(3, 61), n_omega=index_formula(3, 61))
    assert out61.verdict == ELIMINATED
    assert out61.path == "abelian-transitivity"
    # the row alone does not fix the counts: the stabilizer index is needed too
    with pytest.raises(ValueError, match="n_omega"):
        fixed_structure_contradiction(row=row_values(3, 29))


def test_contradiction_s4_p23_precheck():
    out = fixed_structure_contradiction(row=row_values(5, 23), n_omega=index_formula(5, 23))
    assert out.verdict == ELIMINATED
    assert out.path == "count-pre-check"
    pre = next(c for c in out.checks if c["name"] == "count-pre-check")
    assert "253" in pre["detail"]


def test_table_row_brute_force_q13_case4():
    got = verify_table_rows_at(4, 13)
    exp = got.pop("expected")
    assert got["class"] == exp["class"] == 91
    assert got["meet"] == exp["meet"] == 3
    assert got["cent"] == exp["cent"] == 12
    assert got["cent_is_dihedral"]
    assert got["k"] == exp["k"] == 6
    assert got["k_meet"] == exp["k_meet"] == 2
    assert got["fixed"] == exp["fixed"] == 3


def test_table_row_brute_force_q17_case5():
    got = verify_table_rows_at(5, 17)
    exp = got.pop("expected")
    assert got["class"] == exp["class"]
    assert got["meet"] == exp["meet"] == 8
    assert got["cent"] == exp["cent"] == 9
    assert got["cent_is_cyclic"]
    assert got["fixed"] == exp["fixed"] == 3


# ---------------------------------------------------------------------------
# the driver
# ---------------------------------------------------------------------------


def _confirmed(outcome) -> list[tuple[int, int, int]]:
    return [s for r in outcome.records if r.verdict == CONFIRMED for s in r.survivors]


def test_theorem_driver_q100():
    rep = theorem_driver(100)
    assert rep == verify("theorem", q_max=100)
    assert _confirmed(rep) == [(9, 2, 2)]
    confirmed_records = [r for r in rep.records if r.verdict == CONFIRMED]
    assert [r.lemma_tag for r in confirmed_records] == ["w2-construction"]
    # method labels distinguish scans from executed consequences
    methods = {r.inputs.get("method") for r in rep.records}
    assert "scan" in methods and any("consequence" in (m or "") for m in methods)


def test_theorem_driver_q8_confirms_nothing():
    rep = theorem_driver(8)
    assert _confirmed(rep) == []


def test_theorem_driver_rejects_unaccounted_survivor(monkeypatch):
    from quadforge import classify

    real = classify.eliminate_equal

    def leaky(case_id, q_range=None):
        rec = real(case_id, q_range)
        if case_id != 8:
            return rec
        return EliminationRecord(rec.lemma_tag, rec.inputs, rec.scan_size, [(16, 3, 3)], NEEDS_GEOMETRY)

    monkeypatch.setattr(classify, "eliminate_equal", leaky)
    with pytest.raises(VerificationError) as exc:
        theorem_driver(50)
    assert exc.value.name == "unaccounted-survivors" and "case8-equal" in exc.value.detail
    # verify judges a row by the same rule
    with pytest.raises(VerificationError) as exc:
        verify("case8-equal", q_range=(4, 50))
    assert exc.value.name == "unaccounted-survivors"


def test_theorem_driver_not_ok_when_expected_survivor_missing(monkeypatch):
    from quadforge import classify

    real = classify.eliminate_equal

    def lossy(case_id, q_range=None):
        rec = real(case_id, q_range)
        if case_id != 9:
            return rec
        return EliminationRecord(rec.lemma_tag, rec.inputs, rec.scan_size, [], ELIMINATED)

    monkeypatch.setattr(classify, "eliminate_equal", lossy)
    rep = theorem_driver(50)
    assert not rep.ok
    assert "case9-q41" not in [r.lemma_tag for r in rep.records]


def test_registry_rows_hold_survivors_and_follow_ups():
    with_survivors = {t: r for t, r in VERIFIERS.items() if r.expected_survivors}
    assert {t: (r.expected_survivors, r.follow_up) for t, r in with_survivors.items()} == {
        "case2-equal": (((9, 2, 2),), "w2-construction"),
        "case9-equal": (((41, 9, 9),), "case9-q41"),
        "w2-construction": (((9, 2, 2),), None),
    }
    # the q0 row counts q = q0^2, so (9, 2, 2) lies in q0 range (3, 3)
    assert VERIFIERS["case2-equal"].expected_in((3, 3)) == [(9, 2, 2)]
    assert VERIFIERS["case9-equal"].expected_in((42, 1000)) == []


def test_registry_param_names_what_the_range_counts():
    # read off the range keys of each row's default-range record
    def counted(inputs):
        if "q0_lo" in inputs:
            return "q0^r" if "r_set" in inputs else "q0"
        return "q" if {"q_lo", "p_lo", "sample_q"} & set(inputs) else None

    got = {tag: counted(verify(tag).records[0].inputs) for tag in VERIFIERS}
    assert got == {tag: row.param for tag, row in VERIFIERS.items()}
    assert {t for t, p in got.items() if p == "q0^r"} == {
        "case6-case8", "case6-case9", "case7-case8", "case7-case9", "case6-equal", "case7-equal",
    }


def test_registry_hash_stable(monkeypatch):
    blob = ";".join(f"{tag}:{row.expected_verdict}" for tag, row in sorted(VERIFIERS.items()))
    assert registry_hash() == hashlib.sha256(blob.encode()).hexdigest()[:12] == "d9f30f69bc20"
    assert "case3-case8" in VERIFIERS and "theorem" not in VERIFIERS
    row = VERIFIERS["case3-case8"]
    assert row.expected_verdict == ELIMINATED
    monkeypatch.setitem(VERIFIERS, "case3-case8", row._replace(expected_verdict=CONFIRMED))
    assert registry_hash() != "d9f30f69bc20"


@pytest.mark.parametrize("missing", [(), ("_sha2",), ("_sha2", "_sha256")])
def test_registry_hash_is_the_same_from_every_sha256_module(monkeypatch, missing):
    # a None entry in sys.modules makes that import fail, as on an
    # interpreter built without the module; the last case runs hashlib
    for name in missing:
        monkeypatch.setitem(sys.modules, name, None)
    assert registry_hash() == "d9f30f69bc20"


def test_verify_outcomes():
    out = verify("case4-case8")
    assert out.ok and out.final_verdict == ELIMINATED
    out = verify("case9-equal", q_range=(4, 1000))
    assert out.ok
    assert [r.lemma_tag for r in out.records] == ["case9-equal", "case9-q41"]
    out = verify("case2-equal")
    assert out.ok
    assert out.records[-1].verdict == CONFIRMED
    # a sub-range is judged by the survivors expected in it
    for tag, rng in (("case9-equal", (4, 40)), ("case2-equal", (5, 20))):
        out = verify(tag, q_range=rng)
        assert out.ok and len(out.records) == 1, tag
        assert out.expected_verdict == out.final_verdict == ELIMINATED, tag
    out = verify("case2-equal", q_range=(3, 5))
    assert out.ok and out.records[-1].lemma_tag == "w2-construction"
    assert out.final_verdict == CONFIRMED
    # a follow-up row verified on its own still runs
    for tag in ("case9-q41", "w2-construction"):
        out = verify(tag)
        assert out.ok and [r.lemma_tag for r in out.records] == [tag]
    with pytest.raises(KeyError):
        verify("no-such-tag")


def test_build_w2_shape():
    res = build_w2()
    assert res.geometry.n_points == res.geometry.n_lines == 15
    assert (res.verdict.s, res.verdict.t) == (2, 2)
    assert len(res.all_selections) == 1


def test_build_w2_labels_the_points_and_lines_once(monkeypatch):
    # every selection tried shares the (M0, M1) coset labels, so a build
    # labels two coset spaces however many geometries it checks
    from quadforge.psl2 import IndexedGroup

    calls = []
    coset_labels = IndexedGroup.coset_labels

    def counted(self, sub):
        calls.append(len(sub))
        return coset_labels(self, sub)

    monkeypatch.setattr(IndexedGroup, "coset_labels", counted)
    res = build_w2()
    assert calls == [24, 24]
    assert len(res.all_selections) == 1 and res.geometry.n_points == 15


def test_row_values_internal_consistency():
    # orbit-stabilizer at the formula level: class size * centralizer = |X|,
    # and the cyclic complement index reproduces the fixed count
    instances = []
    for q in (13, 29, 41, 53, 61, 89, 101):
        instances.append((3, q, None))
        instances.append((4, q, None))
    for p in (7, 17, 23, 31, 41, 47):
        instances.append((5, p, None))
    for q0 in (3, 7, 11):
        for r in (3, 5):
            instances.append((6, q0**r, q0))
    for case, q, q0 in instances:
        try:
            vals = row_values(case, q, q0=q0)
        except ValueError:
            continue  # row condition not met at this q
        x_order = q * (q * q - 1) // 2
        assert vals["class"] * vals["cent"] == x_order, (case, q)
        assert vals["k"] % vals["k_meet"] == 0
        assert vals["k"] // vals["k_meet"] == vals["fixed"], (case, q)


def test_equal_case7_full_grid_to_1024():
    rec = eliminate_equal(7, (4, 1024))
    assert rec.verdict == ELIMINATED
    assert rec.scan_size >= 25


def test_theorem_driver_full_published_range():
    # the complete arithmetic verification across every published window
    rep = theorem_driver(108003, workers=4)
    assert _confirmed(rep) == [(9, 2, 2)]
    for rec in rep.records:
        if rec.verdict != CONFIRMED:
            assert set(rec.survivors) <= {(9, 2, 2), (41, 9, 9)}, rec.lemma_tag


def test_worker_count_does_not_change_records():
    one = eliminate_cross(5, 8, q_range=(17, 6915), workers=1)
    four = eliminate_cross(5, 8, q_range=(17, 6915), workers=3)
    assert one == four


def test_case9_q41_group_level_backstop():
    # the arithmetic of the q = 41 elimination, reproduced inside the group
    from quadforge.psl2 import indexed_group, psl
    from quadforge.subgroups import build_case

    spec = psl(41)
    ig = indexed_group(spec)
    assert ig.n == 34440
    h = build_case(9, spec)
    assert len(h) == 42
    orders = ig.orders()
    sub = h.ids
    invs_in_m = [i for i in sub if orders[i] == 2]
    assert len(invs_in_m) == 21
    assert sum(1 for i in range(ig.n) if orders[i] == 2) == 861
    g = invs_in_m[0]
    cent = [x for x in range(ig.n) if ig.mul_idx(x, g) == ig.mul_idx(g, x)]
    assert len(cent) == 40
    assert sum(1 for x in cent if x in set(sub)) == 2  # C_M(g) = <g>
    labels, reps = ig.coset_labels(sorted(sub))
    fixed = {cid for cid, r in enumerate(reps) if labels[ig.mul_idx(r, g)] == cid}
    assert len(fixed) == 20 == fixed_count(820, 861, 21)
    # [C : C ^ M] = 20 means the centralizer is transitive on the fixed set
    base = labels[ig.e]
    orbit = {labels[ig.mul_idx(reps[base], c)] for c in cent}
    assert orbit == fixed


def test_every_registered_verifier_reproduces_its_verdict():
    for tag in VERIFIERS:
        out = verify(tag, workers=2)
        assert out.ok, tag
