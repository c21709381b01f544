import hashlib
import itertools

import numpy as np
import pytest
import sympy
from oracle import el, field_elements, from_index, is_square, is_zero, poly_mulmod, sqrt_t

from quadforge import gfq
from quadforge._ints import prime_power
from quadforge.errors import VerificationError
from quadforge.gfq import FieldElement, FieldSpec, _is_irreducible, make_field

# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------


def poly_has_root(coeffs, p):
    deg = len(coeffs) - 1
    for x in range(p):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % p
        if acc == 0:
            return True
    return False


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_gf9_modulus_is_least_irreducible():
    # oracle: x^2 + 1 has no root mod 3, and every lex-smaller monic quadratic does
    f9 = make_field(3, 2)
    assert f9.modulus == (1, 0, 1)
    assert not poly_has_root((1, 0, 1), 3)
    for c0, c1 in [(0, 0), (0, 1), (0, 2)]:
        assert poly_has_root((c0, c1, 1), 3)


def test_gf2_prime_field():
    f2 = make_field(2, 1)
    assert f2.q == 2
    assert f2.modulus == (0, 1)  # the polynomial x


def test_gf41_exists_and_is_interned():
    f41 = make_field(41, 1)
    assert f41.q == 41
    assert make_field(41, 1) is f41


def test_non_prime_p_rejected():
    with pytest.raises(ValueError):
        make_field(6, 1)
    with pytest.raises(ValueError):
        make_field(4, 2)


def test_zero_degree_rejected():
    with pytest.raises(ValueError):
        make_field(3, 0)


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------


def test_coefficient_count_is_checked_without_assert():
    # a ValueError, not an assert, so `python -O` keeps the check
    f9 = make_field(3, 2)
    for coeffs in [(1,), (1, 0, 0), ()]:
        with pytest.raises(ValueError, match="expected 2 coefficients"):
            FieldElement(f9, coeffs)
    assert FieldElement(f9, (1, 2)).index == 5


def test_enumeration_index_roundtrip():
    for p, f in [(3, 2), (2, 4), (7, 1)]:
        spec = make_field(p, f)
        assert spec.one.index == spec.element(1).index == p ** (f - 1)
        for i in range(spec.q):
            assert spec.element(from_index(spec, i)).index == i == el(spec, from_index(spec, i)).index
            assert from_index(spec, i) == field_elements(spec)[i].coeffs


# ---------------------------------------------------------------------------
# the tables' arithmetic
# ---------------------------------------------------------------------------


def test_gf9_x_times_x():
    # oracle: long division of x^2 by x^2+1 leaves remainder -1 = 2
    f9 = make_field(3, 2)
    x = f9.element((0, 1))
    expected = poly_mulmod((0, 1), (0, 1), f9.modulus, 3)
    assert expected == (2, 0)
    assert f9.array_tables()[1][x.index, x.index] == f9.element(expected).index


def test_gf41_inverse_of_two():
    f41 = make_field(41, 1)
    # oracle: scan all residues
    expected = next(y for y in range(41) if 2 * y % 41 == 1)
    assert expected == 21
    assert f41.array_tables()[3][f41.element(2).index] == f41.element(21).index


def test_mul_identity():
    for p, f in [(2, 1), (3, 2), (5, 1), (2, 4)]:
        spec = make_field(p, f)
        assert spec.array_tables()[1][spec.one.index].tolist() == list(range(spec.q))


def test_division_by_zero():
    # INV marks the one undefined quotient
    assert make_field(3, 2).array_tables()[3][0] == -1


def test_field_axioms_exhaustive_small_q():
    # associativity, commutativity, distributivity, identities and inverses
    # of the ADD and MUL tables for q <= 25
    for p, f in [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
                 (11, 1), (13, 1), (2, 4), (17, 1), (19, 1), (23, 1), (5, 2)]:
        spec = make_field(p, f)
        add, mul, neg, inv, _ = spec.array_tables()
        ids, one = np.arange(spec.q), spec.one.index
        assert (add[ids, 0] == ids).all() and (mul[ids, one] == ids).all()
        assert (add[ids, neg] == 0).all()
        assert (mul[ids[1:], inv[1:]] == one).all()
        assert (add == add.T).all() and (mul == mul.T).all()
        a, b, c = np.ix_(ids, ids, ids)
        assert (add[add[a, b], c] == add[a, add[b, c]]).all()
        assert (mul[mul[a, b], c] == mul[a, mul[b, c]]).all()
        assert (mul[a, add[b, c]] == add[mul[a, b], mul[a, c]]).all()


def test_frobenius_is_additive_and_multiplicative():
    for p, f in [(2, 2), (3, 2), (2, 3), (5, 2), (2, 4), (3, 1)]:
        spec = make_field(p, f)
        add, mul = spec.array_tables()[:2]
        frob = np.full(spec.q, spec.one.index)
        for _ in range(p):
            frob = mul[frob, np.arange(spec.q)]
        assert (frob[add] == add[frob[:, None], frob]).all()
        assert (frob[mul] == mul[frob[:, None], frob]).all()


# ---------------------------------------------------------------------------
# squares
# ---------------------------------------------------------------------------


def test_is_square_minus_one():
    # -1 is a square exactly when q = 1 mod 4
    for p, f, expected in [(13, 1, True), (7, 1, False), (3, 2, True)]:
        spec = make_field(p, f)
        minus_one = -el(spec, 1)
        if p == 3 and f == 2:
            squares = {(e * e).coeffs for e in field_elements(spec) if not is_zero(e)}
            assert (minus_one.coeffs in squares) is expected  # oracle
        assert is_square(minus_one) is expected


def test_is_square_matches_enumeration_all_odd_q_up_to_121():
    for p, f in [(3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1), (17, 1),
                 (19, 1), (23, 1), (5, 2), (3, 3), (29, 1), (31, 1), (37, 1), (3, 4),
                 (41, 1), (43, 1), (47, 1), (7, 2), (53, 1), (59, 1), (61, 1),
                 (67, 1), (71, 1), (73, 1), (79, 1), (83, 1), (89, 1), (97, 1),
                 (101, 1), (103, 1), (107, 1), (109, 1), (113, 1), (11, 2)]:
        spec = make_field(p, f)
        els = field_elements(spec)
        squares = {(e * e).coeffs for e in els if not is_zero(e)}
        sqrt = spec.int_tables()[4]  # the table W(2)'s non-square twist reads
        for a in els:
            if is_zero(a):
                continue
            assert is_square(a) == (a.coeffs in squares) == (sqrt[a.index] != -1)


def test_is_square_zero_rejected_and_even_char_true():
    with pytest.raises(ValueError):
        is_square(el(make_field(5, 1), 0))
    for a in field_elements(make_field(2, 4)):
        if not is_zero(a):
            assert is_square(a)


# ---------------------------------------------------------------------------
# discrete-log oracle for multiplication
# ---------------------------------------------------------------------------


def test_multiplication_against_dlog_table():
    # a log table from schoolbook powers of the first generator g in index
    # order; then MUL[a, b] must be g^(log a + log b mod q-1)
    for p, f in [(7, 2), (3, 4), (11, 2)]:
        spec = make_field(p, f)
        q = spec.q
        nonzero = [e for e in field_elements(spec) if not is_zero(e)]
        for gen in nonzero:
            log, acc = {}, el(spec, 1)
            for k in range(q - 1):
                log[acc.index] = k
                acc = acc * gen
            if len(log) == q - 1:
                break
        assert len(log) == q - 1
        antilog = {k: i for i, k in log.items()}
        mul = spec.array_tables()[1]
        for a in log:
            for b in log:
                assert mul[a, b] == antilog[(log[a] + log[b]) % (q - 1)]


# ---------------------------------------------------------------------------
# dense op tables: the generator walk against schoolbook arithmetic
# ---------------------------------------------------------------------------


def direct_int_tables(spec):
    """The five tables entry by entry from the schoolbook arithmetic of
    `oracle.Element`."""
    els = field_elements(spec)
    add = [[(a + b).index for b in els] for a in els]
    mul = [[(a * b).index for b in els] for a in els]
    neg = [(-a).index for a in els]
    inv = [-1] + [(el(spec, 1) / a).index for a in els[1:]]
    sqrt = [-1 if (r := sqrt_t(spec, a.coeffs)) is None else el(spec, r).index for a in els]
    return add, mul, neg, inv, sqrt


@pytest.mark.parametrize(
    "p,f", [(3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1), (2, 4),
            (17, 1), (19, 1), (5, 2), (3, 3), (41, 1)]
)
def test_int_tables_match_direct_arithmetic(p, f):
    spec = make_field(p, f)
    tables = spec.array_tables()
    assert spec.array_tables() is tables  # cached once, as arrays
    assert all(t.dtype == np.int32 and not t.flags.writeable for t in tables)
    assert spec.int_tables() == direct_int_tables(spec)
    assert spec.int_tables() is not spec.int_tables()  # lists are built on request


def tables_sha256() -> str:
    """One sha256 over the five tables of every field with q <= 512, in
    ascending q, each table as little-endian int32."""
    h = hashlib.sha256()
    for q in range(2, gfq.TABLE_LIMIT + 1):
        if prime_power(q):
            for t in make_field(*prime_power(q)).array_tables():
                h.update(t.astype("<i4").tobytes())
    return h.hexdigest()


def test_every_table_up_to_the_limit_is_pinned():
    # recorded from tables built by tuple arithmetic over a primitive element
    # found by factoring q - 1, a route that shares no code with this build
    assert tables_sha256() == "e87064b7c93631ee4a0bf6dff03649995d30a7957e66c509c48ad426dc6a5e9b"


@pytest.mark.parametrize("p,modulus", [(2, (1, 0, 1)), (3, (2, 0, 1))])
def test_reducible_modulus_has_no_generator(p, modulus):
    # (x+1)^2 over GF(2) and (x-1)(x+1) over GF(3): no element's powers
    # reach every nonzero residue, so no tables are built or kept
    with pytest.raises(VerificationError) as err:
        FieldSpec(p, 2, modulus).array_tables()
    assert err.value.name == "field-generator"
    assert gfq._last_tables is None


# ---------------------------------------------------------------------------
# moduli against sympy's irreducibility test over GF(p)
# ---------------------------------------------------------------------------


def _sympy_irreducible(coeffs, p) -> bool:
    """coeffs low to high, as gfq stores a modulus."""
    return sympy.Poly(list(reversed(coeffs)), sympy.Symbol("x"), modulus=p).is_irreducible


_FIELDS = [(p, f) for p in (2, 3, 5, 7, 11, 13) for f in range(1, 12) if p**f <= 2187]
_FIELDS += [(17, 2), (19, 2), (23, 2), (29, 2), (31, 2), (41, 2), (43, 2), (47, 2), (7, 4)]


@pytest.mark.parametrize("p,f", _FIELDS)
def test_modulus_is_the_least_irreducible_by_sympy(p, f):
    modulus = make_field(p, f).modulus
    assert len(modulus) == f + 1 and modulus[-1] == 1
    assert _sympy_irreducible(modulus, p)
    for tail in itertools.product(range(p), repeat=f):
        candidate = tail + (1,)
        if candidate == modulus:
            break
        assert not _sympy_irreducible(candidate, p), candidate


@pytest.mark.parametrize("p,f", [(2, 6), (3, 4), (5, 3), (7, 2), (2, 8)])
def test_irreducibility_test_agrees_with_sympy_on_every_monic(p, f):
    for tail in itertools.product(range(p), repeat=f):
        candidate = tail + (1,)
        assert _is_irreducible(candidate, p) == _sympy_irreducible(candidate, p), candidate
