"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import time

import numpy as np
from oracle import collinearity_masks, incident, is_elementary_abelian, two_generated_abelian_subgroups

from quadforge.classify import (
    eliminate_case9_survivor,
    eliminate_cross,
    eliminate_equal,
    eliminate_sporadic,
    verify_table_rows_at,
)
from quadforge.feasibility import solve_orders
from quadforge.geometry import fixed_count
from quadforge.gfq import make_field
from quadforge.psl2 import (
    centralizer,
    indexed_group,
    involution_class,
    order3_class,
    psl,
)
from quadforge.subgroups import (
    build_case,
    case_params,
    is_cyclic,
    is_dihedral,
    small_index_subgroups,
)


def _report(n, detail, t0):
    print(f"\nACCEPTANCE {n} PASS: {detail} [{time.monotonic() - t0:.2f}s]")


# ---------------------------------------------------------------------------
# 1. end-to-end construction at q = 9
# ---------------------------------------------------------------------------


def test_acceptance_1_w2_end_to_end(tmp_path):
    from quadforge.cli import main

    t0 = time.monotonic()
    out = tmp_path / "w2.json"
    code = main(["build-w2", "--format", "json", "--out", str(out)])
    elapsed = time.monotonic() - t0
    assert code == 0
    from quadforge.classify import build_w2

    res = build_w2()
    geom, v = res.geometry, res.verdict
    assert geom.n_points == 15 and geom.n_lines == 15
    assert (v.s, v.t) == (2, 2) and v.thick
    # the one-collinear-point axiom ranges over all 15 * 12 non-incident pairs
    non_incident = sum(
        1 for p in range(15) for l in range(15) if not incident(geom, p, l)
    )
    assert non_incident == 15 * 12
    coll = collinearity_masks(geom)
    for p in range(15):
        for l in range(15):
            if not incident(geom, p, l):
                assert bin(geom.cols[l] & coll[p]).count("1") == 1
    assert elapsed < 5.0
    _report(1, f"W(2) built and axiom-checked, order (2,2), {non_incident} "
               f"non-incident pairs", t0)


# ---------------------------------------------------------------------------
# 2. conjugacy class formulas against brute force
# ---------------------------------------------------------------------------


def test_acceptance_2_conjugacy_vs_brute_force():
    t0 = time.monotonic()
    for q in (4, 5, 7, 8, 9, 11, 13, 16, 17, 19):
        spec = psl(q)
        ig = indexed_group(spec)
        orders = ig.orders()
        rep, size = involution_class(spec)
        all_inv = [i for i in range(ig.n) if orders[i] == 2]
        cls = ig.conjugacy_class(rep)
        assert len(cls) == size, q
        assert sorted(cls) == all_inv, q  # one class reaches every involution
        c = centralizer(rep, spec)
        assert size * len(c) == spec.order
        if q % 2 == 0:
            assert is_elementary_abelian(c) and len(c) == q
        elif q % 4 == 1:
            assert is_dihedral(c) and len(c) == q - 1
        else:
            assert is_dihedral(c) and len(c) == q + 1
    for q in (7, 11, 13, 17, 19):
        spec = psl(q)
        ig = indexed_group(spec)
        orders = ig.orders()
        rep3, size3 = order3_class(spec)
        all_3 = [i for i in range(ig.n) if orders[i] == 3]
        cls3 = ig.conjugacy_class(rep3)
        assert len(cls3) == size3 == len(all_3), q
        c3 = centralizer(rep3, spec)
        expected = (q - 1) // 2 if q % 3 == 1 else (q + 1) // 2
        assert is_cyclic(c3) and len(c3) == expected, q
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    _report(2, "involution and order-3 class sizes and centralizer types "
               "match brute force at 10 field sizes", t0)


# ---------------------------------------------------------------------------
# 3. fixed-point counts on every coset space
# ---------------------------------------------------------------------------


def test_acceptance_3_fixed_point_formula():
    t0 = time.monotonic()
    spaces = 0
    for q in (5, 7, 9, 13):
        spec = psl(q)
        ig = indexed_group(spec)
        classes = ig.all_classes()
        class_of = [0] * ig.n
        for ci, cls in enumerate(classes):
            for x in cls:
                class_of[x] = ci
        for case in range(1, 10):
            for params in case_params(case, q):
                handle = build_case(case, spec, **params)
                sub = set(handle.ids)
                labels, reps = ig.coset_labels(sorted(sub))
                meets = [0] * len(classes)
                for ci, cls in enumerate(classes):
                    meets[ci] = sum(1 for x in cls if x in sub)
                n_omega = len(reps)
                for g in range(ig.n):
                    direct = sum(
                        1 for r in reps if labels[ig.mul_idx(r, g)] == labels[r]
                    )
                    formula = fixed_count(
                        n_omega, len(classes[class_of[g]]), meets[class_of[g]]
                    )
                    assert formula == direct, (q, case, g)
                spaces += 1
    _report(3, f"fixed-point formula exact for every element on {spaces} "
               "coset spaces", t0)


# ---------------------------------------------------------------------------
# 4. the nonsplit-torus survivor at q = 41
# ---------------------------------------------------------------------------


def test_acceptance_4_case9_pipeline():
    t0 = time.monotonic()
    from quadforge.feasibility import solve_equal_order

    rec = eliminate_equal(9, (4, 100_000))
    assert rec.survivors == [(41, 9, 9)]
    assert fixed_count(820, 861, 21) == 20
    assert solve_equal_order(20) is None  # no subquadrangle on 20 points
    follow = eliminate_case9_survivor()
    assert follow.verdict == "eliminated"
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    _report(4, "case-9 scan leaves only (s,q) = (9,41); 20 fixed points "
               "admit no subquadrangle; eliminated", t0)


# ---------------------------------------------------------------------------
# 5. the published scan ranges, zero survivors
# ---------------------------------------------------------------------------


def test_acceptance_5_scan_reproductions():
    t0 = time.monotonic()
    scans = [
        ((3, 8), (19, 108003)),
        ((3, 9), (11, 107995)),
        ((4, 8), (37, 866)),
        ((4, 9), (37, 858)),
        ((5, 8), (17, 6915)),
        ((5, 9), (17, 6907)),
    ]
    for pair, rng in scans:
        rec = eliminate_cross(*pair, q_range=rng, workers=4)
        assert rec.verdict == "eliminated", (pair, rng)
        assert rec.survivors == []
    rec68 = eliminate_cross(6, 8)
    assert rec68.verdict == "eliminated"
    r7 = next(c for c in rec68.checks if c["name"] == "r7-divisibility-scan")
    assert "[13, 61]" in r7["detail"]
    spor = eliminate_sporadic()
    assert spor.verdict == "eliminated"
    for n_points in (28, 21, 66):
        assert any(
            c["name"] == f"points-{n_points}-divisibility-fails" for c in spor.checks
        )
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    _report(5, "all six pair scans, the degree-7 divisibility scan and the "
               f"sporadic counts eliminated in {elapsed:.1f}s on 4 workers", t0)


# ---------------------------------------------------------------------------
# 6. the class-data row at q = 27
# ---------------------------------------------------------------------------


def test_acceptance_6_table_rows_q27():
    t0 = time.monotonic()
    got = verify_table_rows_at(6, 27, q0=3)
    assert got["class"] == 351
    assert got["meet"] == 3
    assert got["cent"] == 28 and got["cent_is_dihedral"]
    assert got["k"] == 14
    assert got["k_meet"] == 2
    assert got["k"] // got["k_meet"] == 7
    assert got["fixed"] == 7
    exp = got["expected"]
    assert got["meet"] == exp["meet"] and got["fixed"] == exp["fixed"]
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _report(6, "brute force in the q = 27 group reproduces the class row: "
               "meet 3, 7 fixed points, dihedral centralizer of order 28, "
               "[K : K^M] = 7", t0)


# ---------------------------------------------------------------------------
# 7. exhaustive small-index subgroup search
# ---------------------------------------------------------------------------


def test_acceptance_7_small_index_oracle():
    from oracle import elements, is_psl_member

    from quadforge.psl2 import pgl

    t0 = time.monotonic()
    for q0 in (7, 9):
        spec = pgl(q0)
        subs = small_index_subgroups(spec, q0)
        assert sorted(len(s) for s in subs) == [spec.order // 2, spec.order], q0
        half = next(s for s in subs if len(s) == spec.order // 2)
        assert all(is_psl_member(g) for g in elements(half))
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    _report(7, "exhaustive 2-generator closures find exactly the full group "
               f"and its index-2 subgroup at both field sizes in {elapsed:.1f}s", t0)


# ---------------------------------------------------------------------------
# 8. property suites
# ---------------------------------------------------------------------------


def test_acceptance_8_property_suites(w2_bundle):
    t0 = time.monotonic()
    # field axioms of the ADD and MUL tables, exhaustively, for every q <= 25
    for p, f in [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
                 (11, 1), (13, 1), (2, 4), (17, 1), (19, 1), (23, 1), (5, 2)]:
        spec = make_field(p, f)
        add, mul = spec.array_tables()[:2]
        assert (add == add.T).all() and (mul == mul.T).all()
        a, b, c = np.ix_(*[np.arange(spec.q)] * 3)
        assert (add[add[a, b], c] == add[a, add[b, c]]).all()
        assert (mul[mul[a, b], c] == mul[a, mul[b, c]]).all()
        assert (mul[a, add[b, c]] == add[mul[a, b], mul[a, c]]).all()
    # orbit-stabilizer on every computed class
    for q in (5, 7, 8, 9, 11):
        spec = psl(q)
        ig = indexed_group(spec)
        for cls in ig.all_classes():
            c = centralizer(cls[0], spec)
            assert len(cls) * len(c) == spec.order
    # order solver against the brute-force double loop
    def brute(nP, nL):
        out = []
        for s in range(2, 2000):
            if (s + 1) * (2 * s + 1) > nP:
                break
            for t in range(2, 2000):
                d = s * t + 1
                if (s + 1) * d > nP:
                    break
                if (s + 1) * d == nP and (t + 1) * d == nL:
                    out.append((s, t))
        return out

    import random

    rng = random.Random(20250808)
    pairs = [(15, 15), (28, 21), (820, 820), (999966, 999966)]
    pairs += [(rng.randrange(15, 10**6), rng.randrange(15, 10**6)) for _ in range(200)]
    for s in range(2, 25):
        for t in range(2, 25):
            d = s * t + 1
            pairs.append(((s + 1) * d, (t + 1) * d))
    for nP, nL in pairs:
        assert [(o.s, o.t) for o in solve_orders(nP, nL)] == brute(nP, nL), (nP, nL)
    # no abelian group is regular on the points, or transitive on both the
    # points and lines, of the verified quadrangle
    geom = w2_bundle.geometry
    ig = geom.ig
    base_rep = geom.point_reps[geom.base_point]
    line_rep = geom.line_reps[geom.base_line]
    for h in two_generated_abelian_subgroups(geom.spec):
        idxs = h.ids
        orbit = {geom.point_label[ig.mul_idx(base_rep, i)] for i in idxs}
        assert not (len(orbit) == 15 and len(h) == 15)
        if len(orbit) == 15:
            line_orbit = {geom.line_label[ig.mul_idx(line_rep, i)] for i in idxs}
            assert len(line_orbit) != 15
    _report(8, "field axioms exhaustive to q = 25, orbit-stabilizer on all "
               f"classes, order solver vs brute force on {len(pairs)} count "
               "pairs, no abelian transitivity on the quadrangle", t0)
