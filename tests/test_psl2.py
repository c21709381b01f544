import numpy as np
import pytest
from oracle import (
    NotInPslError,
    TupleGroup,
    act_on_line,
    canonicalize,
    element_order,
    enumerate_group,
    inv,
    is_elementary_abelian,
    is_psl_member,
    is_square,
    is_zero,
    matrix_orders,
    mul,
    projective_line,
    wrap,
)

import quadforge
from quadforge import gfq, psl2
from quadforge._ints import prime_power
from quadforge.errors import BudgetExceededError, VerificationError
from quadforge.gfq import FieldSpec, make_field
from quadforge.psl2 import (
    GroupSpec,
    centralizer,
    indexed_group,
    involution_class,
    order3_class,
    pgl,
    psl,
)
from quadforge.subgroups import is_cyclic, is_dihedral

# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def naive_psl_order(q):
    """Count determinant-1 matrices by brute force, then collapse +-M."""
    fld = make_field(*prime_power(q))
    els = fld.enumerate()
    count = 0
    for a in els:
        for b in els:
            for c in els:
                for d in els:
                    if a * d - b * c == fld.one:
                        count += 1
    return count // (2 if q % 2 else 1)


def naive_pgl_order(q):
    fld = make_field(*prime_power(q))
    els = fld.enumerate()
    invertible = 0
    for a in els:
        for b in els:
            for c in els:
                for d in els:
                    if not is_zero(a * d - b * c):
                        invertible += 1
    return invertible // (q - 1)  # q-1 nonzero scalars


# ---------------------------------------------------------------------------
# canonical form
# ---------------------------------------------------------------------------


def test_identity_canonical_fixed_point():
    f7 = make_field(7, 1)
    e = canonicalize(((f7.one, f7.element(0)), (f7.element(0), f7.one)), "PSL", f7)
    assert e.t == e.group.identity_t
    assert element_order(e) == 1


def test_standard_involution_q7():
    f7 = make_field(7, 1)
    a = canonicalize(((f7.element(0), f7.one), (-f7.one, f7.element(0))), "PSL", f7)
    assert element_order(a) == 2  # A^2 = -I, trivial projectively


def test_nonsquare_determinant_rejected_for_psl():
    f9 = make_field(3, 2)
    omega = next(e for e in f9.enumerate() if not is_zero(e) and not is_square(e))
    with pytest.raises(NotInPslError):
        canonicalize(((omega, f9.element(0)), (f9.element(0), f9.one)), "PSL", f9)
    # the same matrix is a fine PGL element
    g = canonicalize(((omega, f9.element(0)), (f9.element(0), f9.one)), "PGL", f9)
    assert not is_psl_member(g)
    # the kernel refuses it in PSL and finds it in PGL
    row = (omega.index, 0, 0, f9.one.index)
    with pytest.raises(KeyError):
        indexed_group(psl(9)).ids_of([row])
    assert pgl(9).elements_t()[indexed_group(pgl(9)).id_of(row)] == g.t


def test_singular_matrix_rejected():
    f5 = make_field(5, 1)
    with pytest.raises(ValueError):
        canonicalize(((f5.one, f5.one), (f5.one, f5.one)), "PSL", f5)
    for spec in (psl(5), pgl(5)):
        for row in ((1, 1, 1, 1), (0, 0, 1, 2), (2, 3, 0, 0), (1, 2, 4, 3)):
            with pytest.raises(KeyError):
                indexed_group(spec).ids_of([row])


def test_canonicalize_idempotent():
    spec = psl(7)
    for g in enumerate_group(spec)[:50]:
        again = TupleGroup(spec).canonicalize_t(g.t)
        assert again == g.t


def test_scalar_multiples_collapse():
    f7 = make_field(7, 1)
    three = f7.element(3)
    g = canonicalize(((f7.one, three), (three, f7.element(4))), "PGL", f7)
    h = canonicalize(
        ((three, three * three), (three * three, three * f7.element(4))), "PGL", f7
    )
    assert g == h


# ---------------------------------------------------------------------------
# group laws and orders
# ---------------------------------------------------------------------------


def test_inverse_law():
    for spec in (psl(5), psl(8), pgl(5)):
        els = enumerate_group(spec)
        for g in els[:40]:
            assert mul(g, inv(g)).t == spec.identity_t


def test_associativity_sampled():
    spec = psl(5)
    els = enumerate_group(spec)
    sample = els[::7]
    for g in sample:
        for h in sample:
            for k in sample:
                assert mul(mul(g, h), k) == mul(g, mul(h, k))


def test_order_of_torus_element_in_psl9():
    # diag(z, z^-1) with z of multiplicative order 8 has projective order 4
    f9 = make_field(3, 2)
    z = next(
        e
        for e in f9.enumerate()
        if not is_zero(e) and all((e**k).coeffs != f9.one.coeffs for k in range(1, 8))
    )
    g = canonicalize(((z, f9.element(0)), (f9.element(0), f9.one / z)), "PSL", f9)
    # oracle: repeated multiplication
    cur = g
    n = 1
    while cur.t != g.group.identity_t:
        cur = mul(cur, g)
        n += 1
    assert n == 4
    assert element_order(g) == 4


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def test_enumeration_counts_against_naive_oracle():
    assert len(enumerate_group(psl(9))) == naive_psl_order(9) == 360
    assert len(enumerate_group(pgl(3))) == naive_pgl_order(3) == 24
    assert len(enumerate_group(psl(4))) == naive_psl_order(4) == 60


def test_enumeration_unique_and_sorted():
    els = enumerate_group(psl(7))
    ts = [g.t for g in els]
    assert ts == sorted(set(ts))
    assert len(ts) == 168


def scalar_elements_t(spec):
    """The per-matrix enumeration: canonicalize every determinant-1 (PSL)
    or leading-1 invertible (PGL) matrix one at a time, then sort."""
    q = spec.q
    out = set()
    group = TupleGroup(spec)
    canon = group.canonicalize_t
    if spec.kind == "PSL":
        fm, fa, fi, fn = group._fmul, group._fadd, group._finv, group._fneg
        one = spec._one
        for a in range(1, q):
            ia = fi(a)
            for b in range(q):
                for c in range(q):
                    out.add(canon((a, b, c, fm(fa(one, fm(b, c)), ia))))
        for b in range(1, q):
            c = fn(fi(b))
            for d in range(q):
                out.add(canon((0, b, c, d)))
    else:
        one = spec._one
        for b in range(q):
            for c in range(q):
                for d in range(q):
                    if group.det_t((one, b, c, d)) != 0:
                        out.add(canon((one, b, c, d)))
        for c in range(1, q):
            for d in range(q):
                out.add(canon((0, one, c, d)))
    return sorted(out)


ENUMERATION_QS = [q for q in range(4, 50) if prime_power(q)]


@pytest.mark.parametrize("kind", ["PSL", "PGL"])
@pytest.mark.parametrize("q", ENUMERATION_QS)
def test_batch_enumeration_matches_scalar_oracle(q, kind):
    # even q, q = 1 (mod 4) and q = 3 (mod 4) all occur for 4 <= q <= 49
    spec = GroupSpec(psl(q).field, kind)  # not interned: freed after the test
    els = spec.elements_t()
    assert els == scalar_elements_t(spec)
    assert len(els) == spec.order
    arr = spec.element_array()
    assert arr.dtype == np.uint16 and not arr.flags.writeable
    assert list(map(tuple, arr.tolist())) == els


def _keys(order):
    """A key encoding that weights the entries in the given order."""

    def encode(q, a, b, c, d):
        x = dict(zip("abcd", (np.asarray(a, dtype=np.int64), b, c, d)))
        out = x[order[0]]
        for name in order[1:]:
            out = out * q + x[name]
        return out

    return encode


@pytest.mark.parametrize("kind,q", [("PSL", 9), ("PSL", 8), ("PGL", 7)])
@pytest.mark.parametrize("order", ["abdc", "acbd"])
def test_batch_enumeration_rejects_a_wrong_key_encoding(monkeypatch, kind, q, order):
    # Entries weighted out of place break the strictly increasing order of
    # the emitted keys, so the enumeration's own check refuses them.
    monkeypatch.setattr(psl2, "_matrix_keys", _keys(order))
    with pytest.raises(VerificationError, match="group-enumeration"):
        GroupSpec(psl(q).field, kind).elements_t()


@pytest.mark.parametrize("kind,q", [("PSL", 9), ("PSL", 8), ("PGL", 7)])
def test_batch_enumeration_rejects_a_wrong_radix_and_collisions(monkeypatch, kind, q):
    field = psl(q).field
    want = scalar_elements_t(GroupSpec(field, kind))
    # radix q + 1 keeps keys increasing and distinct but decodes wrongly:
    # only the oracle sees it
    monkeypatch.setattr(
        psl2, "_matrix_keys", lambda q, a, b, c, d: _keys("abcd")(q + 1, a, b, c, d)
    )
    assert GroupSpec(field, kind).elements_t() != want
    # dropping d makes distinct matrices collide
    monkeypatch.setattr(
        psl2, "_matrix_keys", lambda q, a, b, c, d: _keys("abcd")(q, a, b, c, 0 * d)
    )
    with pytest.raises(VerificationError, match="group-enumeration"):
        GroupSpec(field, kind).elements_t()


def test_budget_exceeded(monkeypatch):
    # both fields have dense tables, but both groups exceed ELEMENT_LIMIT:
    # the cap fires before any table is read (reading one would raise
    # TypeError here) or array built, and no kernel is kept
    monkeypatch.setattr(FieldSpec, "array_tables", None)
    for spec in (psl(317), pgl(227)):
        assert spec.q <= 512 < psl2.ELEMENT_LIMIT < spec.order
        with pytest.raises(BudgetExceededError, match="exceeds the enumeration limit"):
            spec.elements_t()
        with pytest.raises(BudgetExceededError, match="exceeds the enumeration limit"):
            indexed_group(spec)
        assert psl2._kernel is None
        assert gfq._last_tables is None or gfq._last_tables[0] is not spec.field


@pytest.mark.parametrize("kind", ["PSL", "PGL"])
def test_enumeration_beyond_the_dense_tables_needs_formula_mode(kind):
    # q = 521 > 512 has no dense field tables, so it is never enumerated
    spec = GroupSpec(make_field(521, 1), kind)
    with pytest.raises(BudgetExceededError, match="q <= 512"):
        spec.elements_t()
    with pytest.raises(BudgetExceededError, match="q <= 512"):
        indexed_group(spec)


# ---------------------------------------------------------------------------
# conjugacy classes: formulas vs brute force
# ---------------------------------------------------------------------------


def brute_involution_class(spec):
    ig = indexed_group(spec)
    orders = ig.orders()
    rep = next(i for i in range(ig.n) if orders[i] == 2)
    cls = ig.conjugacy_class(rep)
    all_involutions = [i for i in range(ig.n) if orders[i] == 2]
    return cls, all_involutions


def test_involution_class_q8():
    spec = psl(8)
    rep, size = involution_class(spec)
    assert size == 63
    cls, all_inv = brute_involution_class(spec)
    assert len(cls) == 63
    assert sorted(cls) == sorted(all_inv)  # single class reaches all involutions


def test_involution_class_q41_formula():
    spec = psl(41)
    rep, size = involution_class(spec)
    assert size == 861
    assert indexed_group(spec).orders()[rep] == 2
    assert element_order(wrap(spec, spec.elements_t()[rep])) == 2


def test_involution_class_q9(psl9):
    rep, size = involution_class(psl9)
    assert size == 45


def test_order3_class_small_q():
    for q, expected in [(7, 56), (11, 110), (13, 182)]:
        spec = psl(q)
        rep, size = order3_class(spec)
        assert size == expected
        assert indexed_group(spec).orders()[rep] == 3
        assert element_order(wrap(spec, spec.elements_t()[rep])) == 3
    # q = 13 against brute force
    spec = psl(13)
    ig = indexed_group(spec)
    orders = ig.orders()
    rep3 = next(i for i in range(ig.n) if orders[i] == 3)
    assert len(ig.conjugacy_class(rep3)) == 182


def test_order3_class_refuses_small_characteristic():
    with pytest.raises(ValueError):
        order3_class(psl(9))
    with pytest.raises(ValueError):
        order3_class(psl(5))


# ---------------------------------------------------------------------------
# centralizers
# ---------------------------------------------------------------------------


def test_centralizer_involution_psl9(psl9):
    rep, size = involution_class(psl9)
    c = centralizer(rep, psl9)
    assert len(c) == 8  # q - 1
    assert is_dihedral(c)
    assert size * len(c) == psl9.order  # orbit-stabilizer


def test_centralizer_involution_psl8():
    spec = psl(8)
    rep, _ = involution_class(spec)
    c = centralizer(rep, spec)
    assert len(c) == 8
    assert is_elementary_abelian(c)


def test_centralizer_order3_psl7():
    spec = psl(7)
    rep, _ = order3_class(spec)
    c = centralizer(rep, spec)
    assert len(c) == 3
    assert is_cyclic(c)
    assert rep in c.ids


# ---------------------------------------------------------------------------
# projective line action
# ---------------------------------------------------------------------------


def test_projective_line_size():
    for q in (4, 5, 9):
        fld = psl(q).field
        pts = projective_line(fld)
        assert len(pts) == q + 1
        assert len(set(pts)) == q + 1


def test_identity_action():
    spec = psl(5)
    e = wrap(spec, spec.identity_t)
    for pt in projective_line(spec.field):
        assert act_on_line(e, pt) == pt


def test_standard_involution_moves_infinity():
    f7 = make_field(7, 1)
    a = canonicalize(((f7.element(0), f7.one), (-f7.one, f7.element(0))), "PSL", f7)
    inf = projective_line(f7)[-1]
    img = act_on_line(a, inf)
    assert is_zero(img.x) and img.y == f7.one


def test_action_is_right_action():
    spec = psl(5)
    els = enumerate_group(spec)[:12]
    pts = projective_line(spec.field)
    for g in els:
        for h in els:
            gh = mul(g, h)
            for pt in pts:
                assert act_on_line(gh, pt) == act_on_line(h, act_on_line(g, pt))


def test_orbit_of_infinity_is_whole_line():
    spec = psl(5)
    pts = projective_line(spec.field)
    orbit = {act_on_line(g, pts[-1]) for g in enumerate_group(spec)}
    assert len(orbit) == 6


def test_two_transitivity_small_q():
    # ordered pairs of distinct points form one orbit
    for q in (5, 7, 9):
        spec = psl(q)
        pts = projective_line(spec.field)
        base = (pts[0], pts[-1])
        orbit = {
            (act_on_line(g, base[0]), act_on_line(g, base[1]))
            for g in enumerate_group(spec)
        }
        assert len(orbit) == (q + 1) * q


# ---------------------------------------------------------------------------
# orbit-stabilizer across all classes at small q
# ---------------------------------------------------------------------------


def test_orbit_stabilizer_all_classes():
    for q in (5, 7, 8, 9):
        spec = psl(q)
        ig = indexed_group(spec)
        for cls in ig.all_classes():
            c = centralizer(cls[0], spec)
            assert len(cls) * len(c) == spec.order


def test_canonicalize_field_inferred_from_entries():
    f7 = make_field(7, 1)
    a = canonicalize(((f7.element(0), f7.one), (-f7.one, f7.element(0))), "PSL")
    b = canonicalize(((f7.element(0), f7.one), (-f7.one, f7.element(0))), "PSL", f7)
    assert a == b


# ---------------------------------------------------------------------------
# the integer kernel against the tuple arithmetic
# ---------------------------------------------------------------------------

KERNEL_GROUPS = [(kind, q) for q in (4, 5, 7, 8, 9, 16, 25, 27) for kind in ("PSL", "PGL")]


def _oracle(kind, q):
    spec = psl(q) if kind == "PSL" else pgl(q)
    els = spec.elements_t()
    return spec, indexed_group(spec), els, {t: i for i, t in enumerate(els)}, TupleGroup(spec)


@pytest.mark.parametrize("kind,q", KERNEL_GROUPS)
def test_kernel_ids_products_inverses_orders_cayley(kind, q):
    import random

    import numpy as np

    spec, ig, els, index, group = _oracle(kind, q)
    assert ig.ids_of(els).tolist() == list(range(ig.n))
    assert ig.e == index[spec.identity_t]
    if ig.n <= 1000:
        assert [ig.id_of(t) for t in els] == list(range(ig.n))
        pairs = [(i, j) for i in range(ig.n) for j in range(ig.n)]
        elements = range(ig.n)
    else:
        rng = random.Random(20240)
        pairs = [(rng.randrange(ig.n), rng.randrange(ig.n)) for _ in range(20000)]
        elements = sorted(rng.sample(range(ig.n), 1000))
    want = [index[group.mul_t(els[i], els[j])] for i, j in pairs]
    assert [ig.mul_idx(i, j) for i, j in pairs] == want
    xs, ys = np.array(pairs).T
    assert ig.mul_ids(xs, ys).tolist() == want
    if ig.n <= 1000:
        assert ig.cayley().ravel().tolist() == want
    assert [ig.inverses().item(i) for i in elements] == [index[group.inv_t(els[i])] for i in elements]
    orders = ig.orders()
    assert [orders[i] for i in elements] == [group.order_t(els[i]) for i in elements]


@pytest.mark.parametrize("kind,q", [("PSL", 9), ("PGL", 8), ("PSL", 25), ("PGL", 27)])
def test_spec_mul_t_reads_the_kernel_product(kind, q):
    spec, _, els, _, group = _oracle(kind, q)
    rng = np.random.default_rng(q)
    for i, j in rng.integers(0, len(els), (300, 2)).tolist():
        assert spec.mul_t(els[i], els[j]) == group.mul_t(els[i], els[j])
    # a nonzero multiple of a factor has the same images, hence the same product
    lam, fmul = spec.q - 1, spec.field.int_tables()[1]
    scaled = tuple(fmul[lam][x] for x in els[5])
    assert scaled != els[5] and spec.mul_t(scaled, els[7]) == group.mul_t(els[5], els[7])


@pytest.mark.parametrize("kind,q", KERNEL_GROUPS)
def test_kernel_classes_partition_the_group(kind, q):
    ig = _oracle(kind, q)[1]
    classes = ig.all_classes()
    assert sorted(i for cls in classes for i in cls) == list(range(ig.n))
    if q % 2 == 0:
        assert len(classes) == q + 1
    else:
        assert len(classes) == ((q + 5) // 2 if kind == "PSL" else q + 2)
    orders = ig.orders()
    assert all(len({orders[i] for i in cls}) == 1 for cls in classes)


# flat-table oracles; at q >= 41, m^3 > 2^16 for m = q + 1, so an index sum
# taken in the uint16 of `perms` would wrap
FLAT_GROUPS = [(kind, q) for q in (8, 9, 25, 27, 41, 47, 49) for kind in ("PSL", "PGL")]


@pytest.mark.parametrize("kind,q", FLAT_GROUPS)
def test_flat_kernel_rows_products_and_orders_match_the_tuple_layer(kind, q):
    spec = psl(q) if kind == "PSL" else pgl(q)
    ig = psl2.IndexedGroup(spec)  # uncached: the large groups are not kept
    group = TupleGroup(spec)
    E = spec.element_array()
    rng = np.random.default_rng(q)

    def el(i):
        return tuple(int(v) for v in E[i])

    assert ig.ids_of(E).tolist() == list(range(ig.n))
    assert ig.perms.dtype == np.min_scalar_type(q) == np.uint8

    line = projective_line(spec.field)
    point_id = {p: i for i, p in enumerate(line)}
    rows = range(ig.n) if ig.n <= 1000 else rng.choice(ig.n, 300, replace=False)
    for i in rows:
        g = wrap(spec, el(i))
        assert ig.perms[i].tolist() == [point_id[act_on_line(g, p)] for p in line]

    xs, ys = rng.integers(0, ig.n, (2, 2000))
    want = ig.ids_of([group.mul_t(el(x), el(y)) for x, y in zip(xs, ys)])
    assert ig.mul_ids(xs, ys).tolist() == want.tolist()
    x0, y0 = int(xs[0]), int(ys[0])
    assert ig.mul_ids(x0, ys).tolist() == ig.ids_of([group.mul_t(el(x0), el(y)) for y in ys]).tolist()
    assert ig.mul_ids(xs, y0).tolist() == ig.ids_of([group.mul_t(el(x), el(y0)) for x in xs]).tolist()

    orders = ig.orders()
    sample = rng.choice(ig.n, 200, replace=False)
    assert [orders[i] for i in sample] == [group.order_t(el(i)) for i in sample]


def test_mul_ids_by_a_scalar_row_just_under_the_uint16_limit():
    # PSL(2,47): m = 48 and row 1365 starts at 1365 * 48 = 65520 in the flat
    # `perms`, so the index of any image >= 16 passes 2^16 and must not wrap
    spec = psl(47)
    ig = psl2.IndexedGroup(spec)
    group = TupleGroup(spec)
    E = spec.element_array()
    y = 1365
    assert y * ig.m == 65520

    def el(i):
        return tuple(int(v) for v in E[i])

    far = np.flatnonzero(ig.perms[:, [0, spec._one, spec.q]].max(axis=1) >= 16)
    xs = np.random.default_rng(47).choice(far, 300, replace=False)
    want = ig.ids_of([group.mul_t(el(x), el(y)) for x in xs]).tolist()
    assert ig.mul_ids(xs, y).tolist() == want
    assert ig.mul_ids(xs, np.intp(y)).tolist() == want
    yi = el(ig.inverses().item(y))
    conj = ig.ids_of([group.mul_t(group.mul_t(yi, el(x)), el(y)) for x in xs]).tolist()
    assert ig.conj_ids(xs, y).tolist() == conj


def test_kernel_code_rejects_a_duplicated_element_row(monkeypatch, capsys):
    from quadforge.cli import main

    spec = psl(9)
    bad = spec.element_array().copy()
    bad[1] = bad[0]  # n rows, n - 1 elements
    real = GroupSpec.element_array  # the kernel build reads its rows from here
    monkeypatch.setattr(GroupSpec, "element_array", lambda s: bad if s is spec else real(s))
    monkeypatch.setattr(psl2, "_kernel", None)
    with pytest.raises(VerificationError, match="kernel-code"):
        psl2.IndexedGroup(spec)
    assert main(["build-w2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("MISMATCH: kernel-code") and "Traceback" not in err


def test_kernel_code_rejects_swapped_translation_rows(monkeypatch):
    # rows g0 read through the wrong translation: the elements tau_1 g0 and
    # tau_2 g0 trade rows, which leaves every row distinct, so only the
    # check of each row's images of 0, 1 and infinity against its matrix
    # sees it
    translations = psl2._translations

    def swapped(add):
        shift = translations(add)
        shift[[1, 2]] = shift[[2, 1]]
        return shift

    monkeypatch.setattr(psl2, "_translations", swapped)
    for spec in (psl(9), pgl(8)):
        with pytest.raises(VerificationError, match="kernel-code"):
            psl2.IndexedGroup(spec)


ORDER_GROUPS = [("PSL", q) for q in (4, 5, 7, 8, 9, 11, 13, 16, 27, 47)] + [
    ("PGL", q) for q in (3, 5, 7, 9)
]


@pytest.mark.parametrize("kind,q", ORDER_GROUPS)
def test_orders_are_a_read_only_int32_array_equal_to_matrix_powers(kind, q):
    spec = psl(q) if kind == "PSL" else pgl(q)
    ig = psl2.IndexedGroup(spec)  # uncached: the large groups are not kept
    orders = ig.orders()
    assert isinstance(orders, np.ndarray) and orders.dtype == np.int32
    assert ig.orders() is orders  # computed once
    with pytest.raises(ValueError, match="read-only"):
        orders[ig.e] = 2
    assert np.array_equal(orders, matrix_orders(spec))


@pytest.mark.parametrize("kind,q", [("PSL", 9), ("PGL", 8), ("PSL", 47)])
def test_inverses_are_int32_and_multiply_to_the_identity(kind, q):
    spec = psl(q) if kind == "PSL" else pgl(q)
    ig = psl2.IndexedGroup(spec)
    inv, ids = ig.inverses(), np.arange(ig.n)
    assert inv.dtype == np.int32 and ig.inverses() is inv
    assert (ig.mul_ids(inv, ids) == ig.e).all() and (inv[inv] == ids).all()


def test_inverse_check_rejects_one_planted_wrong_entry(monkeypatch):
    ig = psl2.IndexedGroup(psl(9))
    ids_at = ig._ids_at

    def planted(*entries):  # the adjugate of element 7 read as element 8's
        ids = ids_at(*entries)
        ids[7] = ids[8]
        return ids

    monkeypatch.setattr(ig, "_ids_at", planted)
    with pytest.raises(VerificationError, match="kernel-inverse"):
        ig.inverses()


def test_conjugation_by_one_element_inverts_only_that_element(monkeypatch):
    ig = psl2.IndexedGroup(psl(13))
    xs, g = np.arange(ig.n), 17
    alone = ig.conj_ids(xs, g)
    assert alone.dtype == np.int32 and ig._inv is None  # no table for one inverse
    assert alone.tolist() == ig.mul_ids(ig.inverses()[g], ig.mul_ids(xs, g)).tolist()
    fresh = psl2.IndexedGroup(psl(13))
    ids_at = fresh._ids_at

    def planted(*entries):  # the adjugate of g read as that of another element
        ids = ids_at(*entries)
        ids[0] = (ids[0] + 1) % fresh.n
        return ids

    monkeypatch.setattr(fresh, "_ids_at", planted)
    with pytest.raises(VerificationError, match="kernel-inverse"):
        fresh.conj_ids(xs, g)


def test_orders_walk_stops_on_a_corrupt_row():
    ig = psl2.IndexedGroup(psl(9))
    g = next(i for i in range(ig.n) if i != ig.e)
    ig.perms[g] = 5  # every point to one point: the walk never comes back
    with pytest.raises(VerificationError, match="element-order"):
        ig.orders()


# ---------------------------------------------------------------------------
# the orbit-label kernel against the per-element sweeps it replaced
# ---------------------------------------------------------------------------


def sweep_class(ig, i):
    """Conjugacy class of id i: breadth-first conjugation by the generating pair."""
    gens = ig.generating_pair()
    known = ig.mask([i])
    frontier = np.flatnonzero(known)
    while frontier.size:
        new = ig.mask(np.concatenate([ig.conj_ids(frontier, g) for g in gens])) & ~known
        known |= new
        frontier = np.flatnonzero(new)
    return tuple(np.flatnonzero(known).tolist())


def sweep_all_classes(ig):
    seen = np.zeros(ig.n, dtype=bool)
    classes = []
    for i in range(ig.n):
        if not seen[i]:
            cls = sweep_class(ig, i)
            seen[list(cls)] = True
            classes.append(cls)
    return classes


def loop_coset_labels(ig, sub_idxs):
    """Right cosets H\\G: label each unlabelled id's coset Hg in id order."""
    sub = np.asarray(sub_idxs, dtype=np.intp)
    labels = np.full(ig.n, -1, dtype=np.int64)
    reps = []
    for g in range(ig.n):
        if labels[g] < 0:
            labels[ig.mul_ids(sub, g)] = len(reps)
            reps.append(g)
    return labels.tolist(), reps


def _kernel_subgroups(spec, ig):
    """Subgroups whose cosets the kernel is checked on: the trivial group,
    the stabilizer of infinity, a cyclic group and, in PSL, every family."""
    from quadforge.subgroups import build_case, case_params

    subs = {
        "trivial": (ig.e,),
        "stab-inf": tuple(np.flatnonzero(ig.perms[:, spec.q] == spec.q).tolist()),
        "cyclic": ig.closure_idx((ig.generating_pair()[0],)),
    }
    if spec.kind == "PSL":
        for case in range(1, 10):
            for params in case_params(case, spec.q):
                subs[f"family-{case}-{params}"] = build_case(case, spec, **params).ids
    return subs


def kernel_mismatches(spec, ig, classes=True):
    """Names of the kernel outputs that differ from the sweep oracles."""
    bad = []
    if classes:
        if [tuple(c.tolist()) for c in ig.all_classes()] != sweep_all_classes(ig):
            bad.append("all_classes")
        step = max(1, ig.n // 50)
        if any(
            tuple(ig.conjugacy_class(i).tolist()) != sweep_class(ig, i)
            for i in range(0, ig.n, step)
        ):
            bad.append("conjugacy_class")
    for name, sub in _kernel_subgroups(spec, ig).items():
        if tuple(a.tolist() for a in ig.coset_labels(sub)) != loop_coset_labels(ig, sub):
            bad.append(f"coset_labels {name}")
    return bad


@pytest.mark.parametrize("kind,q", KERNEL_GROUPS)
def test_orbit_labels_match_the_sweeps(kind, q):
    spec, ig = _oracle(kind, q)[:2]
    assert kernel_mismatches(spec, ig) == []
    assert ig.class_labels().dtype == np.int32


def test_orbit_labels_match_the_coset_loop_for_every_family_at_q41():
    spec = psl(41)
    ig = indexed_group(spec)
    assert len(_kernel_subgroups(spec, ig)) == 3 + 5  # families 1, 3, 5, 8 and 9
    assert kernel_mismatches(spec, ig, classes=False) == []


def reclosing_generators_of(ig, sub_idxs):
    """The greedy generating set with every closure taken afresh from the
    identity by `closure_idx`."""
    sub = np.asarray(sub_idxs, dtype=np.intp)
    gens, have = [], ig.mask([ig.e])
    while (outside := sub[~have[sub]]).size:
        gens.append(int(outside[0]))
        have = ig.mask(ig.closure_idx(gens))
    return gens


@pytest.mark.parametrize("q", [9, 27, 47])
def test_generators_of_extends_the_closure_to_the_same_generators(q):
    spec = psl(q)
    ig = indexed_group(spec)
    subs = _kernel_subgroups(spec, ig)
    assert sum(name.startswith("family-") for name in subs) >= 3
    for name, sub in subs.items():
        assert ig.generators_of(sub) == reclosing_generators_of(ig, sub), name


def one_round_labels(maps, size):
    """The kernel stopped after its first round."""
    lab = np.arange(size, dtype=np.int32)
    for m in maps:
        lab = np.minimum(lab, lab[m])
    return lab[lab]


def first_batch_minima(ig, sub):
    """The coset labelling stopped after its first seed batch."""
    lab = np.full(ig.n, -1, dtype=np.intp)
    step = max(1, psl2._SEED_PRODUCTS // sub.size)
    P = ig.mul_ids(sub[:, None], np.arange(ig.n)[:: -(-ig.n // step)])
    lab[P] = P.min(axis=0)
    return lab


def test_kernel_check_rejects_a_labelling_stopped_after_one_round(monkeypatch):
    monkeypatch.setattr(psl2, "orbit_labels", one_round_labels)
    spec = psl(25)
    fresh = psl2.IndexedGroup(spec)  # no cached labels
    bad = kernel_mismatches(spec, fresh)
    assert "all_classes" in bad and not any(b.startswith("coset_labels") for b in bad)
    monkeypatch.undo()
    monkeypatch.setattr(psl2, "coset_minima", first_batch_minima)
    fresh = psl2.IndexedGroup(spec)
    bad = kernel_mismatches(spec, fresh)
    assert "all_classes" not in bad and any(b.startswith("coset_labels") for b in bad)


OUT_OF_RANGE_MAPS = [[1, 0, 3, 2, -1, 5], [1, 0, 3, 2, 9, 5]]


@pytest.mark.parametrize("bad", OUT_OF_RANGE_MAPS)
def test_orbit_labels_refuse_a_map_out_of_range(bad):
    # clipped into range, -1 puts id 4 in id 0's orbit (labels 0 0 2 2 0 5)
    # and 9 passes for a permutation
    assert psl2.orbit_labels([[1, 0, 3, 2, 5, 4]], 6).tolist() == [0, 0, 2, 2, 4, 4]
    with pytest.raises(VerificationError, match="orbit-map"):
        psl2.orbit_labels([[0, 1, 2, 3, 4, 5], bad], 6)


@pytest.mark.parametrize("past", [-1, 3])
def test_class_labels_refuse_a_conjugation_map_out_of_range(monkeypatch, past):
    ig = psl2.IndexedGroup(psl(9))
    maps = ig.conj_maps()
    assert all(cm.dtype == np.int32 for cm in maps)
    maps[1][4] = past if past < 0 else ig.n - 1 + past
    monkeypatch.setattr(ig, "conj_maps", lambda: maps)
    with pytest.raises(VerificationError, match="orbit-map"):
        ig.class_labels()


def test_coset_generators_must_close_to_the_subgroup(ig9):
    x = int(np.flatnonzero(ig9.orders() == 3)[0])
    with pytest.raises(VerificationError, match="subgroup-closure"):
        ig9.coset_labels([ig9.e, x])  # {1, x} with x of order 3 is not a subgroup


# ---------------------------------------------------------------------------
# the package surface
# ---------------------------------------------------------------------------


def test_package_exports_are_pinned():
    assert quadforge.__all__ == [
        "FieldElement",
        "FieldSpec",
        "GroupSpec",
        "IndexedGroup",
        "centralizer",
        "indexed_group",
        "involution_class",
        "make_field",
        "order3_class",
        "pgl",
        "psl",
    ]
    assert all(getattr(quadforge, name) is not None for name in quadforge.__all__)
