import itertools

import pytest
import sympy

from quadforge.errors import MixedFieldError
from quadforge.gfq import _is_irreducible, arith, enumerate_field, is_square, make_field

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


def naive_poly_mulmod(a, b, modulus, p):
    """Schoolbook multiply then long-division remainder; tuples low-first."""
    raw = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            raw[i + j] = (raw[i + j] + ai * bj) % p
    # reduce by monic modulus
    deg = len(modulus) - 1
    while len(raw) > deg:
        lead = raw[-1]
        if lead:
            shift = len(raw) - 1 - deg
            for k in range(deg + 1):
                raw[shift + k] = (raw[shift + k] - lead * modulus[k]) % p
        raw.pop()
    raw += [0] * (deg - len(raw))
    return tuple(raw)


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
# arithmetic
# ---------------------------------------------------------------------------


def test_gf9_x_times_x():
    # oracle: long division of x^2 by x^2+1 leaves remainder -1 = 2
    f9 = make_field(3, 2)
    x = f9.element((0, 1))
    expected = naive_poly_mulmod((0, 1), (0, 1), f9.modulus, 3)
    assert expected == (2, 0)
    assert (x * x).coeffs == expected


def test_mul_identity():
    for p, f in [(2, 1), (3, 2), (5, 1), (2, 4)]:
        spec = make_field(p, f)
        for a in enumerate_field(spec):
            assert arith(a, spec.one, "mul") == a


def test_gf41_inverse_of_two():
    f41 = make_field(41, 1)
    # oracle: scan all residues
    expected = next(y for y in range(41) if 2 * y % 41 == 1)
    assert expected == 21
    two = f41.element(2)
    assert (f41.one / two).coeffs == (21,)
    assert arith(f41.one, two, "div") == f41.element(21)


def test_division_by_zero():
    f9 = make_field(3, 2)
    with pytest.raises(ZeroDivisionError):
        arith(f9.one, f9.zero, "div")


def test_mixed_field_rejected():
    a = make_field(3, 1).one
    b = make_field(5, 1).one
    with pytest.raises(MixedFieldError):
        arith(a, b, "add")


def test_field_axioms_exhaustive_small_q():
    # associativity, commutativity, distributivity, inverses for q <= 25
    for p, f in [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
                 (11, 1), (13, 1), (2, 4), (17, 1), (19, 1), (23, 1), (5, 2)]:
        spec = make_field(p, f)
        els = enumerate_field(spec)
        assert len(els) == spec.q
        for a in els:
            assert a + spec.zero == a
            assert a * spec.one == a
            assert a + (-a) == spec.zero
            if not a.is_zero():
                assert a * (spec.one / a) == spec.one
        for a in els:
            for b in els:
                assert a + b == b + a
                assert a * b == b * a
                for c in els:
                    assert (a + b) + c == a + (b + c)
                    assert (a * b) * c == a * (b * c)
                    assert a * (b + c) == a * b + a * c


def test_frobenius_is_additive_and_multiplicative():
    for p, f in [(2, 2), (3, 2), (2, 3), (5, 2), (2, 4), (3, 1)]:
        spec = make_field(p, f)
        for a in enumerate_field(spec):
            for b in enumerate_field(spec):
                assert (a + b) ** p == a**p + b**p
                assert (a * b) ** p == (a**p) * (b**p)


# ---------------------------------------------------------------------------
# squares
# ---------------------------------------------------------------------------


def test_is_square_minus_one():
    # -1 is a square exactly when q = 1 mod 4
    for p, f, expected in [(13, 1, True), (7, 1, False), (3, 2, True)]:
        spec = make_field(p, f)
        minus_one = -spec.one
        if p == 3 and f == 2:
            squares = {(e * e).coeffs for e in enumerate_field(spec) if not e.is_zero()}
            assert (minus_one.coeffs in squares) is expected  # oracle
        assert is_square(minus_one) is expected


def test_is_square_matches_enumeration_all_odd_q_up_to_121():
    for p, f in [(3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1), (17, 1),
                 (19, 1), (23, 1), (5, 2), (3, 3), (29, 1), (31, 1), (37, 1), (3, 4),
                 (41, 1), (43, 1), (47, 1), (7, 2), (53, 1), (59, 1), (61, 1),
                 (67, 1), (71, 1), (73, 1), (79, 1), (83, 1), (89, 1), (97, 1),
                 (101, 1), (103, 1), (107, 1), (109, 1), (113, 1), (11, 2)]:
        spec = make_field(p, f)
        squares = {(e * e).coeffs for e in enumerate_field(spec) if not e.is_zero()}
        for a in enumerate_field(spec):
            if a.is_zero():
                continue
            assert is_square(a) == (a.coeffs in squares)


def test_is_square_zero_rejected_and_even_char_true():
    with pytest.raises(ValueError):
        is_square(make_field(5, 1).zero)
    f16 = make_field(2, 4)
    for a in enumerate_field(f16):
        if not a.is_zero():
            assert is_square(a)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def test_enumerate_counts_and_order():
    assert len(enumerate_field(make_field(2, 2))) == 4
    f9 = enumerate_field(make_field(3, 2))
    assert len(f9) == 9
    assert f9[0].is_zero()
    f49 = enumerate_field(make_field(7, 2))
    assert len({e.coeffs for e in f49}) == 49  # oracle: distinct coefficient vectors


def test_enumeration_index_roundtrip():
    spec = make_field(3, 2)
    for i, e in enumerate(enumerate_field(spec)):
        assert e.index == i
        assert spec.from_index(i) == e.coeffs


# ---------------------------------------------------------------------------
# discrete-log oracle for multiplication
# ---------------------------------------------------------------------------


def test_multiplication_against_dlog_table():
    # lazily built log table: a generator g with every nonzero element a
    # power of it; then a * b must equal g^(log a + log b mod q-1)
    for p, f in [(7, 2), (3, 4), (11, 2)]:
        spec = make_field(p, f)
        q = spec.q
        nonzero = [e for e in enumerate_field(spec) if not e.is_zero()]
        gen = None
        for cand in nonzero:
            powers = {}
            acc = spec.one
            for k in range(q - 1):
                powers[acc.coeffs] = k
                acc = acc * cand
            if len(powers) == q - 1:
                gen = cand
                log = powers
                break
        assert gen is not None
        pow_table = {v: k for k, v in log.items()}
        for a in nonzero:
            for b in nonzero:
                expected = pow_table[(log[a.coeffs] + log[b.coeffs]) % (q - 1)]
                assert (a * b).coeffs == expected


# ---------------------------------------------------------------------------
# dense op tables: log/antilog build against direct arithmetic
# ---------------------------------------------------------------------------


def direct_int_tables(spec):
    """The five tables entry by entry from the tuple arithmetic."""
    els = [e.coeffs for e in spec.enumerate()]
    idx = spec.index_of
    add = [[idx(spec.add_t(a, b)) for b in els] for a in els]
    mul = [[idx(spec.mul_t(a, b)) for b in els] for a in els]
    neg = [idx(spec.neg_t(a)) for a in els]
    inv = [-1] + [idx(spec.inv_t(a)) for a in els[1:]]
    sqrt = [-1 if (r := spec.sqrt_t(a)) is None else idx(r) for a in els]
    return add, mul, neg, inv, sqrt


@pytest.mark.parametrize(
    "p,f", [(3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1), (2, 4),
            (17, 1), (19, 1), (5, 2), (3, 3), (41, 1)]
)
def test_int_tables_match_direct_arithmetic(p, f):
    spec = make_field(p, f)
    assert spec.int_tables() == direct_int_tables(spec)
    g = spec.primitive_element()
    assert len({spec.pow_t(g, k) for k in range(spec.q - 1)}) == spec.q - 1


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
