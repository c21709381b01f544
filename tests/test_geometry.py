import io
import types

import numpy as np
import pytest
from oracle import (
    collinearity_masks,
    fixed_structure,
    incident,
    line_action,
    line_size_profile,
    point_action,
    preserves_incidence,
    transitive_on_fixed,
    two_generated_abelian_subgroups,
    whole_group_handle,
)

from quadforge.errors import VerificationError
from quadforge.geometry import (
    GQVerdict,
    IncidenceGeometry,
    _check_axioms,
    check_gq,
    double_cosets,
    export_incidence,
    fixed_count,
    parse_incidence,
)
from quadforge.psl2 import indexed_group, involution_class, psl
from quadforge.subgroups import build_case, handle_from_ids

# ---------------------------------------------------------------------------
# hand-built incidence oracles
# ---------------------------------------------------------------------------


def grid_incidence(s1, s2):
    """The (s1, s2) grid: points (i, j), row lines and column lines."""
    n_points = (s1 + 1) * (s2 + 1)
    n_lines = (s1 + 1) + (s2 + 1)
    rows = [0] * n_points
    cols = [0] * n_lines
    for i in range(s1 + 1):
        for j in range(s2 + 1):
            p = i * (s2 + 1) + j
            for l in (i, (s1 + 1) + j):
                rows[p] |= 1 << l
                cols[l] |= 1 << p
    return rows, cols, n_points, n_lines


def complete_bipartite_incidence(n):
    rows = [(1 << n) - 1] * n
    cols = [(1 << n) - 1] * n
    return rows, cols, n, n


# ---------------------------------------------------------------------------
# double cosets
# ---------------------------------------------------------------------------


def test_whole_group_single_double_coset():
    spec = psl(5)
    w = whole_group_handle(spec)
    dcs = double_cosets(w, w, spec)
    assert len(dcs) == 1
    assert dcs[0].size == 60


def test_double_cosets_partition_and_meets(w2_bundle):
    res = w2_bundle
    spec = res.M0.group
    dcs = res.decomposition
    assert sum(dc.size for dc in dcs) == 360
    ig = indexed_group(spec)
    m0 = set(res.M0.ids)
    m1 = set(res.M1.ids)
    for dc in dcs:
        # oracle: compute |M1 ^ h^-1 M0 h| directly
        h = dc.rep
        hin = ig.inv_idx(h)
        conj = {ig.mul_idx(ig.mul_idx(hin, m), h) for m in m0}
        assert len(conj & m1) == dc.meet_order
        assert dc.size * dc.meet_order == len(m0) * len(m1)
        assert len(m1) % dc.meet_order == 0  # contributions are integers


def test_line_size_profile(w2_bundle):
    res = w2_bundle
    dcs = res.decomposition
    full = line_size_profile(dcs, range(len(dcs)), res.M0, res.M1)
    assert full == (360 // 24, 360 // 24)
    sel = line_size_profile(dcs, res.selection, res.M0, res.M1)
    assert sel == (3, 3)
    # oracle: count points per line in the built incidence matrix
    geom = res.geometry
    assert all(bin(c).count("1") == 3 for c in geom.cols)
    # singleton selection containing the identity's double coset
    ident_idx = next(i for i, dc in enumerate(dcs) if dc.rep == 0)
    one = line_size_profile(dcs, [ident_idx], res.M0, res.M1)
    meet = dcs[ident_idx].meet_order
    assert one == (24 // meet, 24 // meet)
    # a decomposition whose meet order disagrees with its size is refused
    bad = list(dcs)
    bad[ident_idx] = dcs[ident_idx]._replace(meet_order=2 * meet)
    with pytest.raises(VerificationError, match="line-size-profile"):
        line_size_profile(bad, [ident_idx], res.M0, res.M1)


# ---------------------------------------------------------------------------
# geometry construction
# ---------------------------------------------------------------------------


def per_point_rows(geom):
    """Incidence bitmasks built one point at a time: M0x lies on M1y
    exactly when x y^-1 is in the selected double cosets."""
    ig = geom.ig
    in_d = ig.mask([x for i in geom.selection for x in geom.decomposition[i].members])
    line_rep_inv = ig.inverses()[geom.line_reps]
    rows = []
    for x in geom.point_reps:
        hits = np.flatnonzero(in_d[ig.mul_ids(x, line_rep_inv)]).tolist()
        rows.append(sum(1 << l for l in hits))
    return rows


def test_blocked_incidence_matches_the_per_point_build(w2_bundle):
    assert w2_bundle.geometry.rows == per_point_rows(w2_bundle.geometry)
    # the q = 27 dihedral pair spans several blocks of points
    spec = psl(27)
    m0, m1 = build_case(9, spec), build_case(8, spec)
    dcs = double_cosets(m0, m1, spec)
    for selection in ([0], [len(dcs) - 1], range(0, len(dcs), 2)):
        geom = IncidenceGeometry(m0, m1, selection, spec, decomposition=dcs)
        assert geom.n_points > 65536 // geom.n_lines  # more than one block
        assert geom.rows == per_point_rows(geom), list(selection)


def test_w2_geometry_shape(w2_bundle):
    geom = w2_bundle.geometry
    assert geom.n_points == 15 and geom.n_lines == 15
    assert geom.flag_count() == 45
    # flags = |P| * (t+1) = (|G|/|M0|) * (|D|/|M1|)
    assert geom.flag_count() == (360 // 24) * (geom.d_size // 24)


def test_empty_selection_no_incidences(w2_bundle):
    res = w2_bundle
    geom = IncidenceGeometry(res.M0, res.M1, [], res.M0.group)
    assert geom.flag_count() == 0


def test_group_acts_preserving_incidence(w2_bundle):
    geom = w2_bundle.geometry
    for idx in range(geom.ig.n):
        assert preserves_incidence(geom, idx)


def test_point_action_is_permutation(w2_bundle):
    geom = w2_bundle.geometry
    for idx in (1, 7, 100, 359):
        pa = point_action(geom, idx)
        assert sorted(pa) == list(range(15))


# ---------------------------------------------------------------------------
# axiom checking
# ---------------------------------------------------------------------------


def test_check_gq_w2(w2_bundle):
    v = check_gq(w2_bundle.geometry)
    assert v == GQVerdict(True, 2, 2, True, None)
    assert (15 - 3) * 15 == 180  # non-incident pairs examined by axiom (c)


def test_square_grid_is_gq_order_s_1():
    rows, cols, np_, nl = grid_incidence(2, 2)
    v = _check_axioms(rows, cols, np_, nl)
    assert v.is_gq and (v.s, v.t) == (2, 1) and not v.thick


def test_skew_grid_is_not_gq():
    rows, cols, np_, nl = grid_incidence(2, 3)
    v = _check_axioms(rows, cols, np_, nl)
    assert not v.is_gq
    assert "line sizes" in v.violation


def test_complete_bipartite_violates_axioms():
    rows, cols, np_, nl = complete_bipartite_incidence(4)
    v = _check_axioms(rows, cols, np_, nl)
    assert not v.is_gq
    assert "two common lines" in v.violation


def test_selection_search_is_exhaustive(w2_bundle):
    res = w2_bundle
    assert len(res.all_selections) == 1
    sel, v, geom = res.all_selections[0]
    assert (v.s, v.t) == (2, 2)
    # the selected double coset is the one with stabilizer meet of order 8
    assert res.decomposition[sel[0]].meet_order == 8


# ---------------------------------------------------------------------------
# fixed counts and fixed structures
# ---------------------------------------------------------------------------


def test_fixed_count_formula_values():
    assert fixed_count(820, 861, 21) == 20
    assert fixed_count(15, 45, 0) == 0
    assert fixed_count(15, 45, 9) == 3
    with pytest.raises(ValueError):
        fixed_count(15, 45, 7)  # non-integral
    with pytest.raises(ValueError):
        fixed_count(10, 0, 1)


def test_fixed_count_matches_direct_count_everywhere(w2_bundle):
    geom = w2_bundle.geometry
    ig = geom.ig
    m0_idx = set(w2_bundle.M0.ids)
    m1_idx = set(w2_bundle.M1.ids)
    for cls in ig.all_classes():
        cls_set = set(cls)
        meet0 = len(cls_set & m0_idx)
        meet1 = len(cls_set & m1_idx)
        g = cls[0]
        pa = point_action(geom, g)
        la = line_action(geom, g)
        direct_p = sum(1 for p in range(15) if pa[p] == p)
        direct_l = sum(1 for l in range(15) if la[l] == l)
        assert fixed_count(15, len(cls), meet0) == direct_p
        assert fixed_count(15, len(cls), meet1) == direct_l


def test_identity_fixed_structure_is_whole_gq(w2_bundle):
    geom = w2_bundle.geometry
    fs = fixed_structure(geom.ig.e, geom)
    assert fs.kind == "4"
    assert fs.params == (2, 2)
    assert len(fs.fixed_points) == 15


def test_involution_fixed_structure(w2_bundle):
    geom = w2_bundle.geometry
    rep, _ = involution_class(geom.spec)
    # choose an involution fixing the base point so the sets are nonempty
    ig = geom.ig
    orders = ig.orders()
    m0 = w2_bundle.M0.ids
    g = next(i for i in m0 if orders[i] == 2)
    fs = fixed_structure(g, geom)
    assert len(fs.fixed_points) == 3
    assert len(fs.fixed_lines) == 3
    # oracle: check the shape directly; a fixed point on every fixed line
    # collinear with all fixed points exists, so this is the cone shape
    coll = collinearity_masks(geom)
    centers = [
        p
        for p in fs.fixed_points
        if all(incident(geom, p, l) for l in fs.fixed_lines)
        and all(q == p or (coll[p] >> q) & 1 for q in fs.fixed_points)
    ]
    assert centers
    assert fs.kind == "2"


def test_order5_element_fixes_nothing(w2_bundle):
    geom = w2_bundle.geometry
    ig = geom.ig
    orders = ig.orders()
    g = next(i for i in range(ig.n) if orders[i] == 5)
    fs = fixed_structure(g, geom)
    assert fs.kind == "0"


def test_transitive_on_fixed(w2_bundle):
    from quadforge.psl2 import centralizer

    geom = w2_bundle.geometry
    ig = geom.ig
    orders = ig.orders()
    base_rep = geom.point_reps[geom.base_point]
    m0 = w2_bundle.M0.ids
    g_idx = next(i for i in m0 if orders[i] == 2)
    cent = centralizer(g_idx, geom.spec)
    # direct orbit oracle: the centralizer orbit of the base point
    orbit = {geom.point_label[ig.mul_idx(base_rep, x)] for x in cent.ids}
    pa = point_action(geom, g_idx)
    fixed = {p for p in range(15) if pa[p] == p}
    assert orbit <= fixed
    # the orbit is strictly smaller: 3 does not divide |centralizer| = 8,
    # so the centralizer cannot be transitive on the 3 fixed points
    assert len(cent) == 8
    assert transitive_on_fixed(g_idx, geom, cent) is (orbit == fixed)
    assert not transitive_on_fixed(g_idx, geom, cent)
    # a trivial subgroup never covers a fixed set of size >= 2
    triv = handle_from_ids(geom.spec, ig.ids_of([geom.spec.identity_t]))
    assert not transitive_on_fixed(g_idx, geom, triv)
    # the whole group moves the base point off the fixed set
    whole = whole_group_handle(geom.spec)
    assert not transitive_on_fixed(g_idx, geom, whole)


def test_transitive_on_fixed_requires_fixed_base(w2_bundle):
    geom = w2_bundle.geometry
    ig = geom.ig
    orders = ig.orders()
    g = next(i for i in range(ig.n) if orders[i] == 5)
    with pytest.raises(ValueError):
        transitive_on_fixed(g, geom, whole_group_handle(geom.spec))


# ---------------------------------------------------------------------------
# no abelian group acts regularly / bi-transitively on the quadrangle
# ---------------------------------------------------------------------------


def test_no_abelian_subgroup_regular_on_points(w2_bundle):
    geom = w2_bundle.geometry
    ig = geom.ig
    for h in two_generated_abelian_subgroups(geom.spec):
        idxs = h.ids
        base_rep = geom.point_reps[geom.base_point]
        orbit = {geom.point_label[ig.mul_idx(base_rep, i)] for i in idxs}
        point_transitive = len(orbit) == 15
        assert not (point_transitive and len(h) == 15)  # no regular action
        if point_transitive:
            line_rep = geom.line_reps[geom.base_line]
            line_orbit = {geom.line_label[ig.mul_idx(line_rep, i)] for i in idxs}
            assert len(line_orbit) != 15  # never transitive on both


# ---------------------------------------------------------------------------
# incidence file format
# ---------------------------------------------------------------------------


def test_export_parse_roundtrip(w2_bundle):
    geom = w2_bundle.geometry
    v = check_gq(geom)
    buf = io.StringIO()
    export_incidence(geom, buf, v.s, v.t)
    text = buf.getvalue()
    lines = text.splitlines()
    assert lines[0] == "GQ 15 15 2 2"
    assert len(lines) == 1 + 45
    assert text.endswith("\n")
    pairs = [tuple(map(int, ln.split())) for ln in lines[1:]]
    assert pairs == sorted(pairs)
    np_, nl, s, t, parsed = parse_incidence(io.StringIO(text))
    assert (np_, nl, s, t) == (15, 15, 2, 2)
    assert set(parsed) == {
        (p, l) for p in range(15) for l in range(15) if incident(geom, p, l)
    }


def test_export_is_deterministic(w2_bundle):
    geom = w2_bundle.geometry
    v = check_gq(geom)
    a, b = io.StringIO(), io.StringIO()
    export_incidence(geom, a, v.s, v.t)
    export_incidence(geom, b, v.s, v.t)
    assert a.getvalue() == b.getvalue()


def test_model_consistency_flag_identity(w2_bundle):
    # |D| = (s+1)|M0| = (t+1)|M1| for the verified quadrangle
    geom = w2_bundle.geometry
    v = check_gq(geom)
    assert geom.d_size == (v.s + 1) * len(w2_bundle.M0)
    assert geom.d_size == (v.t + 1) * len(w2_bundle.M1)


# ---------------------------------------------------------------------------
# independent oracles and mutations for the axiom check
# ---------------------------------------------------------------------------


def test_w2_collinearity_graph_is_strongly_regular(w2_bundle):
    # a GQ(s,t) has collinearity graph srg((s+1)(st+1), s(t+1), s-1, t+1)
    import numpy as np

    geom = w2_bundle.geometry
    n = geom.n_points
    A = np.array([[m >> j & 1 for j in range(n)] for m in collinearity_masks(geom)])
    k, lam, mu = 6, 1, 3
    I, J = np.eye(n, dtype=int), np.ones((n, n), dtype=int)
    assert n == 15 and (A == A.T).all()
    assert (A @ A == k * I + lam * A + mu * (J - I - A)).all()


def test_every_single_flag_flip_of_w2_is_rejected(w2_bundle):
    geom = w2_bundle.geometry
    n_p, n_l = geom.n_points, geom.n_lines
    assert _check_axioms(geom.rows, geom.cols, n_p, n_l).is_gq
    flips = 0
    for p in range(n_p):
        for l in range(n_l):
            rows, cols = list(geom.rows), list(geom.cols)
            rows[p] ^= 1 << l
            cols[l] ^= 1 << p
            assert not _check_axioms(rows, cols, n_p, n_l).is_gq, (p, l)
            flips += 1
    assert flips == 225


def test_every_degree_preserving_switch_of_w2_is_rejected(w2_bundle):
    # (p1,l1),(p2,l2) -> (p1,l2),(p2,l1) with neither new flag present keeps
    # every degree; each of the 720 such switches must break an axiom
    geom = w2_bundle.geometry
    flags = {(p, l) for p in range(geom.n_points) for l in range(geom.n_lines) if incident(geom, p, l)}
    switches = {
        frozenset((a, b))
        for a in flags
        for b in flags
        if a[0] != b[0] and a[1] != b[1] and (a[0], b[1]) not in flags and (b[0], a[1]) not in flags
    }
    assert len(flags) == 45 and len(switches) == 720
    for switch in switches:
        (p1, l1), (p2, l2) = sorted(switch)
        rows, cols = list(geom.rows), list(geom.cols)
        for p, l in ((p1, l1), (p2, l2), (p1, l2), (p2, l1)):
            rows[p] ^= 1 << l
            cols[l] ^= 1 << p
        assert [bin(m).count("1") for m in rows + cols] == [3] * 30
        switched = types.SimpleNamespace(rows=rows, cols=cols, n_points=15, n_lines=15)
        assert not check_gq(switched).is_gq, sorted(switch)


def _w2_export(w2_bundle):
    v = check_gq(w2_bundle.geometry)
    buf = io.StringIO()
    export_incidence(w2_bundle.geometry, buf, v.s, v.t)
    return buf.getvalue().splitlines(keepends=True)


def test_parse_incidence_rejects_mutated_exports(w2_bundle):
    lines = _w2_export(w2_bundle)
    header, flags = lines[0], lines[1:]
    p0, l0 = map(int, flags[0].split())
    free = next(l for l in range(15) if f"{p0} {l}\n" not in flags)
    mutants = {
        "duplicate flag": [header, flags[0], *flags],
        "wrong counts": ["GQ 15 16 2 2\n", *flags],
        "wrong order": ["GQ 15 15 2 3\n", *flags],
        "dropped flag": [header, *flags[1:]],
        "extra flag": [header, *flags, f"{p0} {free}\n"],
        "moved flag": [header, f"{p0} {free}\n", *flags[1:]],
    }
    for what, text in mutants.items():
        try:
            parse_incidence(io.StringIO("".join(text)))
        except ValueError:
            continue
        pytest.fail(f"parse_incidence accepted a {what}")


def test_parse_incidence_rejects_degree_preserving_switch(w2_bundle):
    # swap two flags (p1,l1),(p2,l2) -> (p1,l2),(p2,l1): degrees stay, axioms break
    lines = _w2_export(w2_bundle)
    flags = {tuple(map(int, ln.split())) for ln in lines[1:]}
    (p1, l1), (p2, l2) = next(
        (a, b)
        for a in sorted(flags)
        for b in sorted(flags)
        if a[0] != b[0] and a[1] != b[1]
        and (a[0], b[1]) not in flags and (b[0], a[1]) not in flags
    )
    switched = (flags - {(p1, l1), (p2, l2)}) | {(p1, l2), (p2, l1)}
    text = lines[0] + "".join(f"{p} {l}\n" for p, l in sorted(switched))
    with pytest.raises(ValueError, match="not a generalized quadrangle"):
        parse_incidence(io.StringIO(text))
