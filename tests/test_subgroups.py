import itertools

import numpy as np
import pytest

from oracle import (
    TupleGroup,
    act_on_line,
    catalog_family,
    closure,
    conjugate,
    element_order,
    elements,
    enumerate_group,
    index_value,
    inv,
    is_abelian,
    is_psl_member,
    is_square,
    is_zero,
    mul,
    normalizer,
    projective_line,
    recognize,
    subgroup_classes,
    two_generated_abelian_subgroups,
    whole_group_handle,
    wrap,
)

from quadforge._ints import factorize, iter_prime_powers
from quadforge.errors import VerificationError
from quadforge.psl2 import indexed_group, pgl, psl
from quadforge.subgroups import (
    _orbit,
    build_case,
    case_condition,
    case_condition_at,
    case_params,
    dihedral_involution_count,
    handle_from_ids,
    index_formula,
    is_dihedral,
    order_profile,
    small_index_subgroups,
    sporadic_table,
    subfield_indices,
)

# ---------------------------------------------------------------------------
# index formulas and conditions
# ---------------------------------------------------------------------------


def test_index_formula_values():
    assert index_formula(1, 9) == 10
    assert index_formula(2, 9, q0=3) == 15
    assert index_formula(8, 41) == 861
    # oracle: |PSL(2,41)| / |D_40|
    assert 41 * (41 * 41 - 1) // 2 // 40 == 861
    assert index_formula(3, 9) == 6
    assert index_formula(6, 27, q0=3, r=3) == 819
    assert index_formula(9, 41) == 820


def test_index_formula_condition_violations():
    with pytest.raises(ValueError):
        index_formula(9, 7)  # excluded q
    with pytest.raises(ValueError):
        index_formula(8, 5)
    with pytest.raises(ValueError):
        index_formula(4, 17)  # 17 = 1 (mod 8), wrong residue
    with pytest.raises(ValueError):
        index_formula(2, 8)  # even


def test_case_conditions():
    assert case_condition(3, 9)  # q = p^2, p = 3 = +-3 (mod 10)
    assert case_condition(3, 11)
    assert not case_condition(3, 7)
    assert case_condition(8, 4)
    assert not case_condition(8, 9)
    assert case_condition(9, 5)
    assert case_params(6, 27) == [{"q0": 3, "r": 3}]
    assert case_params(7, 16) == [{"q0": 4, "r": 2}]
    assert case_params(6, 4) == []


def _subfield_oracle(case_id, q, p, f, q0=None, r=None):
    """Cases 6 and 7 as written before the exponent's primes were cached:
    f is factorized again on every call."""
    if q < 4 or (case_id == 6 and q % 2 == 0) or (case_id == 7 and p != 2):
        return False
    keep = (lambda rr: rr % 2) if case_id == 6 else (lambda rr: f // rr >= 2)
    opts = [rr for rr in sorted(factorize(f)) if keep(rr)]
    if r is not None:
        return r in opts and (q0 is None or q0 == p ** (f // r))
    return bool(opts)


@pytest.mark.parametrize("case_id", [6, 7])
def test_subfield_conditions_match_the_uncached_definition(case_id):
    # every prime power q <= 4096, every r up to f + 1 and every q0 that
    # is right for it, off by one or absent
    for q, p, f in iter_prime_powers(2, 4096):
        for r in [None, *range(1, f + 2)]:
            q0s = [None] if r is None else [None, p ** (f // r), p ** (f // r) + 1]
            for q0 in q0s:
                want = _subfield_oracle(case_id, q, p, f, q0, r)
                assert case_condition_at(case_id, q, p, f, q0=q0, r=r) == want, (q, q0, r)
                assert case_condition(case_id, q, q0=q0, r=r) == want, (q, q0, r)
        params = [
            {"q0": p ** (f // r), "r": r}
            for r in range(2, f + 1)
            if _subfield_oracle(case_id, q, p, f, r=r)
        ]
        assert case_params(case_id, q) == params, q


# ---------------------------------------------------------------------------
# sporadic triples
# ---------------------------------------------------------------------------


def test_sporadic_table_rows():
    rows = sporadic_table()
    assert len(rows) == 10
    assert (rows[0].group, rows[0].m0_type, rows[0].m_type, rows[0].index) == (
        "PGL(2,7)", "D_6", "D_12", 28,
    )
    assert (rows[8].group, rows[8].m0_type, rows[8].m_type, rows[8].index) == (
        "PGL(2,11)", "D_10", "D_20", 66,
    )
    assert index_value(rows[9], 11) == 55
    with pytest.raises(ValueError):
        index_value(rows[9], 13)


def test_sporadic_index_consistency():
    # |G| = index * |M| at the data level
    orders = {"PGL(2,7)": 336, "PGL(2,9)": 720, "M_10": 720, "PGammaL(2,9)": 1440, "PGL(2,11)": 1320}
    m_orders = {"D_12": 12, "D_16": 16, "D_20": 20, "C_5:C_4": 20, "C_8:C_2": 16, "C_10:C_4": 40, "C_8.Aut(C_8)": 32}
    for row in sporadic_table()[:9]:
        assert orders[row.group] == row.index * m_orders[row.m_type]


def test_sporadic_m0_exists_in_socle():
    # each M0 embeds in the socle: build a witness by closure search
    targets = {7: [6, 8], 9: [10, 8], 11: [10]}  # q -> dihedral orders
    for q, wanted in targets.items():
        spec = psl(q)
        ig = indexed_group(spec)
        orders = ig.orders()
        for n in wanted:
            m = n // 2
            x = next(i for i in range(ig.n) if orders[i] == m)
            xin = ig.inverses().item(x)
            y = next(
                i
                for i in range(ig.n)
                if orders[i] == 2 and ig.mul_idx(ig.mul_idx(ig.inverses().item(i), x), i) == xin
            )
            sub = ig.closure_idx((x, y))
            assert len(sub) == n
            h = handle_from_ids(spec, sub)
            assert is_dihedral(h)


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------


def test_case2_subfield_pgl(psl9):
    h = build_case(2, psl9)
    assert len(h) == 24
    assert recognize(h) == "S_4"  # PGL(2,3) is S_4
    assert psl9.order // len(h) == index_formula(2, 9, q0=3) == 15


def test_case8_dihedral_q13():
    spec = psl(13)
    h = build_case(8, spec)
    assert len(h) == 12
    assert is_dihedral(h)
    assert spec.order // len(h) == index_formula(8, 13) == 91


def test_case4_a4_q13():
    h = build_case(4, psl(13))
    assert recognize(h) == "A_4"
    invs = [g for g in elements(h) if element_order(g) == 2]
    assert len(invs) == 3
    # the three involutions form a single conjugacy class of the subgroup
    group = TupleGroup(h.group)
    cls = set()
    for g in invs:
        for x in elements(h):
            cls.add(group.mul_t(group.mul_t(group.inv_t(x.t), invs[0].t), x.t))
    assert cls == {g.t for g in invs}


def test_all_buildable_cases_have_claimed_index():
    for q in (4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 25):
        spec = psl(q)
        for case in range(1, 10):
            for params in case_params(case, q):
                h = build_case(case, spec, **params)
                assert len(h) * index_formula(case, q, **params) == spec.order, (case, q)


def test_borel_fixes_one_point_transitive_elsewhere(psl9):
    h = build_case(1, psl9)
    pts = projective_line(psl9.field)
    fixed = [p for p in pts if all(act_on_line(g, p) == p for g in elements(h))]
    assert len(fixed) == 1
    others = [p for p in pts if p != fixed[0]]
    orbit = {act_on_line(g, others[0]) for g in elements(h)}
    assert orbit == set(others)


# ---------------------------------------------------------------------------
# the id selections against matrix-at-a-time constructions
# ---------------------------------------------------------------------------

ORACLE_Q = (5, 7, 8, 9, 11, 16, 25, 27, 41, 43, 47, 49, 64, 81, 121, 125)


def _matrix_oracle(spec, case, q0):
    """The family as canonical 4-tuples, one matrix at a time: the Borel
    subgroup from (a, b; 0, 1/a), PGL(2,q0) from every nonsingular subfield
    matrix, PSL(2,q0) from the determinant-1 ones."""
    add, fmul, neg, finv, _ = spec.field.int_tables()
    canon = TupleGroup(spec).canonicalize_t
    q = spec.q
    if case == 1:
        return {canon((a, b, 0, finv[a])) for a in range(1, q) for b in range(q)}
    sub = subfield_indices(spec.field, q0)
    out = set()
    for a, b, c, d in itertools.product(sub, repeat=4):
        det = add[fmul[a][d]][neg[fmul[b][c]]]
        if det != 0 and (case == 2 or det == spec.identity_t[0]):
            out.add(canon((a, b, c, d)))
    return out


@pytest.mark.parametrize("q", ORACLE_Q)
def test_id_selections_match_matrix_oracle(q):
    spec = psl(q)
    for case in (1, 2, 6, 7):
        for params in case_params(case, q):
            h = build_case(case, spec, **params)
            rows = {tuple(r) for r in indexed_group(spec).elements[list(h.ids)].tolist()}
            assert rows == _matrix_oracle(spec, case, params.get("q0")), (case, params)


@pytest.mark.parametrize("q", [9, 25, 49])
def test_diagonal_twist_matches_canonical_twist(q):
    from quadforge.classify import _diagonal_twist

    spec = psl(q)
    ig = indexed_group(spec)
    fld = spec.field
    omega = next(e for e in fld.enumerate() if not is_zero(e) and not is_square(e))
    m0 = build_case(2, spec)
    canon = TupleGroup(spec).canonicalize_t
    want = set()
    for g in elements(m0):
        a, b, c, d = g.matrix
        want.add(canon((a.index, (b / omega).index, (c * omega).index, d.index)))
    got = _diagonal_twist(ig, m0.ids, omega.index)
    assert {tuple(r) for r in ig.elements[got].tolist()} == want
    assert len(got) == len(want) == len(m0)


def test_idx_set_reads_ids(psl9, ig9):
    # kept for callers that pass the indexed group
    h = build_case(1, psl9)
    assert h.idx_set(ig9) == h.ids
    assert handle_from_ids(psl9, ig9.ids_of([g.t for g in elements(h)])).ids == h.ids


# ---------------------------------------------------------------------------
# closure
# ---------------------------------------------------------------------------


def _kernel_closure(ig, gens):
    """The kernel's closure of oracle elements, as oracle elements."""
    ids = ig.closure_idx(ig.ids_of([g.t for g in gens]).tolist())
    return tuple(wrap(ig.spec, tuple(ig.elements[i].tolist())) for i in ids)


def test_closure_identity(psl9, ig9):
    e = wrap(psl9, psl9.identity_t)
    assert closure([e]) == _kernel_closure(ig9, [e]) == (e,)


def test_closure_cyclic(psl9, ig9):
    g = next(g for g in enumerate_group(psl9) if element_order(g) == 5)
    c = closure([g])
    assert len(c) == 5
    assert c == _kernel_closure(ig9, [g])


def test_closure_dihedral_from_involutions(psl9, ig9):
    # two involutions whose product has order 4 generate a dihedral group of order 8
    els = enumerate_group(psl9)
    invs = [g for g in els if element_order(g) == 2]
    pair = next(
        (a, b)
        for a in invs
        for b in invs
        if a != b and element_order(mul(a, b)) == 4
    )
    c = closure(list(pair))
    assert len(c) == 8
    assert c == _kernel_closure(ig9, pair)
    h = handle_from_ids(psl9, ig9.ids_of([g.t for g in c]))
    assert is_dihedral(h)
    assert sorted(order_profile(h).items()) == [(1, 1), (2, 5), (4, 2)]


def test_closure_lagrange(psl9, ig9):
    els = enumerate_group(psl9)
    for a, b in [(els[3], els[17]), (els[5], els[100]), (els[40], els[41])]:
        c = closure([a, b])
        assert psl9.order % len(c) == 0
        assert c == _kernel_closure(ig9, [a, b])


# ---------------------------------------------------------------------------
# normalizer / conjugation / classes
# ---------------------------------------------------------------------------


def test_normalizer_of_maximal_subfield_copy(psl9):
    h = build_case(2, psl9)
    n = normalizer(h)
    assert n.ids == h.ids  # self-normalizing maximal subgroup


def test_conjugate_by_identity(psl9, ig9):
    h = build_case(2, psl9)
    assert conjugate(h, ig9.e).ids == h.ids


def test_conjugate_preserves_order_profile(psl9):
    h = build_case(2, psl9)
    hg = conjugate(h, 37)
    assert order_profile(hg) == order_profile(h)
    assert len(hg) == len(h)
    # oracle: g^-1 x g one element at a time
    g = enumerate_group(psl9)[37]
    assert elements(hg) == tuple(sorted(mul(mul(inv(g), x), g) for x in elements(h)))


def test_two_classes_of_s4_in_psl29(psl9, ig9):
    classes = subgroup_classes("PGL(2,3)", psl9)
    assert [len(c) for c in classes] == [15, 15]
    reps = [c[0] for c in classes]
    # classes are genuinely non-conjugate: no group element maps one rep into the other
    a, b = (np.array(h.ids) for h in reps)
    in_b = ig9.mask(b)
    for t in range(ig9.n):
        if in_b[ig9.conj_ids(a, t)].all():
            pytest.fail("the two classes are conjugate")


def exhaustive_subgroup_classes(type_name, spec):
    """Every subgroup of the type, from closing every involution x with
    every cyclic subgroup <y> of the type's second signature order
    (<x, y> depends only on <y>), partitioned by conjugating with every
    element of the group."""
    size, o1, o2 = {"A4": (12, 2, 3), "PGL(2,3)": (24, 2, 4), "A5": (60, 2, 5)}[type_name]
    ig = indexed_group(spec)
    orders = ig.orders()
    xs = [i for i in range(ig.n) if orders[i] == o1]
    cyclic = {tuple(ig.closure_idx((i,)).tolist()): i for i in range(ig.n) if orders[i] == o2}
    ys = sorted(cyclic.values())
    found = {frozenset(s) for x in xs for y in ys if len(s := ig.closure_idx((x, y))) == size}
    every = np.arange(ig.n)
    classes = set()
    for sub in found:
        conj = ig.conj_ids(np.array(sorted(sub))[:, None], every)
        classes.add(frozenset(frozenset(col) for col in conj.T.tolist()))
    assert set().union(*classes) == found
    return classes


@pytest.mark.parametrize("q", [9, 11])
@pytest.mark.parametrize("type_name", ["PGL(2,3)", "A4", "A5"])
def test_subgroup_classes_match_exhaustive_search(type_name, q):
    spec = psl(q)
    ig = indexed_group(spec)
    classes = subgroup_classes(type_name, spec)
    got = {frozenset(frozenset(h.ids) for h in cls) for cls in classes}
    assert len(got) == len(classes)
    assert got == exhaustive_subgroup_classes(type_name, spec)
    assert got or (type_name, q) == ("PGL(2,3)", 11)  # S4 < PSL(2,q) needs q = +-1 (mod 8)


# ---------------------------------------------------------------------------
# small-index search and the subgroup catalog
# ---------------------------------------------------------------------------


def test_small_index_trivial_bound():
    from quadforge.psl2 import pgl

    subs = small_index_subgroups(pgl(5), 1)
    assert len(subs) == 1
    assert len(subs[0]) == 120


def test_small_index_pgl27():
    subs = small_index_subgroups(pgl(7), 7)
    assert sorted(len(s) for s in subs) == [168, 336]
    low = next(s for s in subs if len(s) == 168)
    assert all(is_psl_member(g) for g in elements(low))


@pytest.mark.parametrize("past", [-1, 3])
def test_lattice_orbit_maps_out_of_range_are_refused(monkeypatch, past):
    from quadforge import subgroups

    real = subgroups.orbit_labels

    def one_entry_out(maps, size):  # a cyclic subgroup sent to -1 or past the last one
        maps = [m.copy() for m in maps]
        assert maps[0].dtype == np.int32
        maps[0][4] = past if past < 0 else size - 1 + past
        return real(maps, size)

    monkeypatch.setattr(subgroups, "orbit_labels", one_entry_out)
    with pytest.raises(VerificationError, match="orbit-map"):
        small_index_subgroups(pgl(7), 7)


def _all_pairs_lattice(ig):
    """The lattice search before class representatives: one closure per
    pair of distinct cyclic subgroups, as sorted id tuples."""
    cay = ig.cayley()
    cyclic = {}
    for i in range(ig.n):
        powers, cur = {ig.e}, i
        while cur != ig.e:
            powers.add(cur)
            cur = int(cay[cur, i])
        cyclic.setdefault(tuple(sorted(powers)), i)
    members = [np.array(m) for m in cyclic]
    cols = [cay[:, g] for g in cyclic.values()]
    found = set(cyclic)
    for a in range(len(members)):
        for b in range(a + 1, len(members)):
            member = np.zeros(ig.n, dtype=bool)
            member[members[a]] = member[members[b]] = True
            frontier = np.flatnonzero(member)
            while frontier.size:
                new = np.zeros(ig.n, dtype=bool)
                new[cols[a][frontier]] = new[cols[b][frontier]] = True
                new &= ~member
                member |= new
                frontier = np.flatnonzero(new)
            found.add(tuple(np.flatnonzero(member).tolist()))
    return sorted(found, key=lambda ids: (-len(ids), ids))


@pytest.mark.parametrize("kind,q,count", [("PGL", 7, 413), ("PSL", 8, 377), ("PGL", 9, 871)])
def test_lattice_matches_all_pairs_search(kind, q, count):
    spec = psl(q) if kind == "PSL" else pgl(q)
    ig = indexed_group(spec)
    subs = small_index_subgroups(spec, spec.order)
    assert len(subs) == count
    assert [h.ids for h in subs] == _all_pairs_lattice(ig)


def test_lattice_of_psl2_13_is_the_cayley_lattice():
    # sha256 of the id lists that the lattice built on the dense Cayley
    # table returned for PSL(2,13), before it ran on `mul_ids` alone
    import hashlib

    subs = small_index_subgroups(psl(13), psl(13).order)
    assert len(subs) == 942
    digest = hashlib.sha256(repr([h.ids for h in subs]).encode()).hexdigest()
    assert digest == "73ba9d46a623968067e11850d4354417984bb9d881cb99194a5f918714fd62bd"


def _maximal_orders(subs, n):
    """Orders of the proper subgroups in `subs` that lie in no larger
    proper one of the list."""
    member = np.zeros((len(subs), n), dtype=bool)
    for row, h in zip(member, subs):
        row[list(h.ids)] = True
    sizes = member.sum(axis=1)
    out = set()
    for h in subs:
        above = np.flatnonzero((sizes > len(h)) & (sizes < n) & (sizes % len(h) == 0))
        if len(h) < n and not member[np.ix_(above, list(h.ids))].all(axis=1).any():
            out.add(len(h))
    return out


@pytest.mark.parametrize(
    "q,count,maximal,a5_copies",
    [(16, 3166, {240, 60, 34, 30}, 68), (19, 2912, {171, 60, 20, 18}, 114)],
)
def test_lattice_past_the_old_cayley_cap_matches_dicksons_list(q, count, maximal, a5_copies):
    # Dickson: the Borel group, D_2(q+1)/g, D_2(q-1)/g and A_5 (as PSL(2,4) in
    # PSL(2,16), in two classes in PSL(2,19) since 19 = -1 mod 10)
    spec = psl(q)
    subs = small_index_subgroups(spec, spec.order)
    assert spec.order > 2500 and len(subs) == count
    assert _maximal_orders(subs, spec.order) == maximal
    borel = build_case(1, spec)
    largest = [h for h in subs if len(h) == len(subs[1])]  # subs[0] is the whole group
    assert len(borel) == max(maximal) and len(largest) == q + 1
    assert borel.ids in {h.ids for h in largest}
    a5 = [h for h in subs if len(h) == 60]
    assert len(a5) == a5_copies and {recognize(h) for h in a5} == {"A_5"}


@pytest.mark.parametrize("q", [7, 9])
def test_lattice_recognition_is_constant_on_conjugacy_classes(q):
    # the lattice is closed under conjugation, and every structure
    # `recognize` reads is a conjugacy invariant
    spec = pgl(q)
    subs = small_index_subgroups(spec, spec.order)
    conj_maps = indexed_group(spec).conj_maps()
    name = {h.ids: recognize(h) for h in subs}
    classes = 0
    while name:
        ids, first = name.popitem()
        orbit = [tuple(c.tolist()) for c in _orbit(np.array(ids), conj_maps).values()]
        assert orbit[0] == ids and {name.pop(c) for c in orbit[1:]} <= {first}
        classes += 1
    assert classes < len(subs)


def test_lattice_check_rejects_pruning_by_whole_group_orbits(monkeypatch):
    # pruning C_j by G-orbits instead of N(C_i)-orbits loses subgroups
    from quadforge.psl2 import IndexedGroup

    spec = pgl(7)
    ig = indexed_group(spec)
    monkeypatch.setattr(IndexedGroup, "generators_of", lambda self, sub: list(self.generating_pair()))
    subs = small_index_subgroups(spec, spec.order)
    assert len(subs) != 413 or [h.ids for h in subs] != _all_pairs_lattice(ig)


def test_lattice_misses_the_three_generated_sylow_2_subgroup_of_psl28():
    # the search closes pairs only: E_8 = {[1, b; 0, 1]} needs three generators
    spec = psl(8)
    ig = indexed_group(spec)
    one = spec.field.index_of(spec.field.one.coeffs)
    e8 = ig.ids_of([(one, b, 0, one) for b in range(8)])
    assert len(ig.closure_idx(e8)) == 8
    assert max(len(ig.closure_idx((x, y))) for x in e8 for y in e8) == 4
    assert all(len(h) != 8 for h in small_index_subgroups(spec, spec.order))


def test_catalog_families_pgl25():
    from quadforge.psl2 import pgl

    spec = pgl(5)
    subs = small_index_subgroups(spec, spec.order)  # every 2-generated subgroup
    for h in subs:
        fam = catalog_family(h, 5)
        assert fam is not None, (len(h), recognize(h))


def test_catalog_large_subgroup_orders_force_psl_or_pgl():
    # the exhaustiveness argument behind the small-index search: no catalog
    # family other than PSL/PGL reaches order |PGL(2,q0)| / q0
    for q0 in (7, 9):
        g_order = q0 * (q0 * q0 - 1)
        threshold = g_order // q0
        others = [
            2, q0 + 1, q0 - 1,  # cyclic
            4, 2 * (q0 + 1), 2 * (q0 - 1),  # dihedral
            24, 12,  # S_4, A_4
            q0,  # elementary abelian
            q0 * (q0 - 1),  # p^m : C_d at full size
        ]
        if q0 % 10 in (1, 9):  # A_5 exists only under this condition
            others.append(60)
        assert all(n < threshold for n in others), q0


# ---------------------------------------------------------------------------
# abelian subgroup harvest
# ---------------------------------------------------------------------------


def test_abelian_subgroups_of_psl29(psl9):
    habs = two_generated_abelian_subgroups(psl9)
    assert all(is_abelian(h) for h in habs)
    sizes = sorted({len(h) for h in habs})
    assert sizes == [1, 2, 3, 4, 5, 9]  # A6: cyclic 1..5, Klein, E9


def test_dihedral_involution_count():
    assert dihedral_involution_count(42) == 21
    assert dihedral_involution_count(8) == 5
    assert dihedral_involution_count(12) == 7
    assert dihedral_involution_count(6) == 3


def test_whole_group_handle(psl9):
    h = whole_group_handle(psl9)
    assert len(h) == 360
    assert psl9.order // len(h) == 1


def test_catalog_families_pgl27_and_pgl29():
    # every 2-generated subgroup, exhaustively, lands in a catalog family
    from quadforge.psl2 import pgl

    for q0 in (7, 9):
        spec = pgl(q0)
        subs = small_index_subgroups(spec, spec.order)
        for h in subs:
            assert catalog_family(h, q0) is not None, (q0, len(h), recognize(h))
