"""Exact arithmetic in the finite fields GF(p^f).

Elements are length-f coefficient vectors over GF(p) in the polynomial
basis 1, x, ..., x^(f-1), reduced modulo a fixed monic irreducible
polynomial of degree f.  The modulus is chosen deterministically: the
lexicographically least monic irreducible of degree f, comparing
coefficient vectors from the constant term upward.  Irreducibility is
certified at construction by trial division against every monic
polynomial of degree at most f/2.  An element's index reads its
coefficients as a base-p number, c0 most significant.

The field has one arithmetic: dense index tables (ADD, MUL, NEG, INV,
SQRT) for q <= 512, read-only int32 arrays from which the group layer is
built, and which are made from the modulus alone.  GF(q)* is cyclic, so
some element's powers walk through all q - 1 nonzero elements; MUL and
INV read the log/antilog tables of the first such element in index
order, and a modulus without one raises
`VerificationError("field-generator")`.  There is no floating point
anywhere in this module.  `FieldSpec` and `FieldElement` are immutable
after construction and safe to share between threads.  Only the tables
of the field asked for last are kept.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

import numpy as np

from ._ints import is_prime
from .errors import VerificationError

TABLE_LIMIT = 512
_last_tables: tuple[FieldSpec, tuple[np.ndarray, ...]] | None = None  # (field, its tables)


def _poly_trim(c: list[int]) -> tuple[int, ...]:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _poly_divmod(a, b, p):
    """Quotient and remainder of coefficient-tuple polynomials over GF(p)."""
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    inv_lb = pow(lb, p - 2, p)
    q = [0] * max(len(a) - db, 0)
    while len(a) - 1 >= db and any(a):
        da = len(a) - 1
        if a[-1] == 0:
            a.pop()
            continue
        coef = a[-1] * inv_lb % p
        q[da - db] = coef
        for i in range(db + 1):
            a[da - db + i] = (a[da - db + i] - coef * b[i]) % p
        a.pop()
    return _poly_trim(q), _poly_trim(a)


class FieldSpec:
    """A concrete field GF(p^f) with a fixed irreducible modulus.

    Instances are interned: `make_field(p, f)` always returns the same
    object.
    """

    def __init__(self, p: int, f: int, modulus: tuple[int, ...]):
        self.p = p
        self.f = f
        self.q = p**f
        self.modulus = modulus

    def __repr__(self):
        return f"GF({self.q})"

    def element(self, coeffs) -> FieldElement:
        """The element with these coefficients (x^0 first), or the constant
        coeffs mod p for an int."""
        if isinstance(coeffs, int):
            coeffs = (coeffs,) + (0,) * (self.f - 1)
        return FieldElement(self, tuple(c % self.p for c in coeffs))

    @property
    def one(self) -> FieldElement:
        return self.element(1)

    def index_of(self, coeffs: tuple[int, ...]) -> int:
        """Position of an element in the index order (c0 most significant)."""
        idx = 0
        for c in coeffs:
            idx = idx * self.p + c
        return idx

    def array_tables(self) -> tuple[np.ndarray, ...]:
        """Dense index-based op tables (ADD, MUL, NEG, INV, SQRT) for q <= 512,
        as read-only int32 arrays.  One module-level slot keeps the tables
        of the field asked for last; another field's tables are released
        before these are built, so two fields' tables never share the peak.

        INV[0] = -1 and SQRT[i] = -1 marks "undefined"/"non-square"; SQRT[i]
        is the least root.  Addition is digit-wise mod p on the base-p index;
        multiplication goes through the log/antilog tables of the generator
        that `_antilog` finds.  Its q - 1 distinct powers certify that the
        modulus is irreducible; without one, `_antilog` raises
        `VerificationError("field-generator")` and nothing is kept.
        """
        global _last_tables
        kept = _last_tables
        if kept is None or kept[0] is not self:
            kept = _last_tables = None
            q, p, f = self.q, self.p, self.f
            if q > TABLE_LIMIT:
                raise ValueError(f"no dense tables for q = {q} > {TABLE_LIMIT}")
            ids = np.arange(q, dtype=np.int32)
            place = p ** np.arange(f - 1, -1, -1, dtype=np.int32)  # the weight of x^k's coefficient
            digits = ids // place[:, None] % p  # row k: every element's coefficient of x^k
            add = np.zeros((q, q), dtype=np.int32)
            neg = np.zeros(q, dtype=np.int32)
            for digit, weight in zip(digits, place.tolist()):
                add += (digit[:, None] + digit) % p * weight
                neg += -digit % p * weight
            antilog = self._antilog(add, digits, place)
            log = np.zeros(q, dtype=np.intp)
            log[antilog] = np.arange(q - 1)
            mul = np.zeros((q, q), dtype=np.int32)
            mul[1:, 1:] = antilog[(log[1:, None] + log[1:]) % (q - 1)]
            inv = np.full(q, -1, dtype=np.int32)
            inv[1:] = antilog[-log[1:] % (q - 1)]
            sqrt = np.full(q, -1, dtype=np.int32)
            sqrt[mul[ids, ids]] = np.minimum(ids, neg)  # the roots of x^2 are x and -x
            for t in (add, mul, neg, inv, sqrt):
                t.flags.writeable = False
            kept = _last_tables = (self, (add, mul, neg, inv, sqrt))
        return kept[1]

    def _antilog(self, add, digits, place) -> np.ndarray:
        """The powers g^0 = one, ..., g^(q-2) of the generator as an int32
        index array, from the modulus and the ADD table alone: g is the
        first element in index order whose walk from one returns after
        exactly q - 1 steps, each walk bounded at q - 1 steps.  Such a g is
        a unit whose powers are q - 1 distinct units, so every nonzero
        element is invertible and the ring is a field."""
        q, p = self.q, self.p
        ids = np.arange(q, dtype=np.int32)
        # a -> x * a: every coefficient moves up one place (the index over
        # p), and the one of x^(f-1) comes back as that multiple of x^f
        x_to_f = -np.array(self.modulus[:-1]) % p
        fold = (np.arange(p)[:, None] * x_to_f % p * place).sum(1)  # the index of c * x^f, by c
        times_x = add[ids // p, fold[ids % p]]

        def times(g):
            """a -> g * a, by Horner over g's coefficients from x^(f-1) down."""
            out = np.zeros(q, dtype=np.int32)
            for c in digits[::-1, g].tolist():
                out = add[times_x[out], (c * digits % p * place[:, None]).sum(0)]
            return out.tolist()

        one = self.one.index
        for g in range(1, q):
            step, walk = times(g), [one]
            while len(walk) < q - 1 and (nxt := step[walk[-1]]) != one:
                walk.append(nxt)
            if len(walk) == q - 1 and step[walk[-1]] == one:
                return np.array(walk, dtype=np.int32)
        raise VerificationError("field-generator", f"no element has order {q - 1} modulo {self.modulus}")

    def int_tables(self):
        """`array_tables()` as Python lists, built on each call and not kept:
        ADD and MUL as lists of rows, NEG, INV and SQRT as flat lists."""
        return tuple(t.tolist() for t in self.array_tables())


class FieldElement:
    """An element of a FieldSpec by its validated coefficient vector;
    immutable.  It has no arithmetic: the field's tables do that on
    `index`."""

    __slots__ = ("spec", "coeffs")

    def __init__(self, spec: FieldSpec, coeffs: tuple[int, ...]):
        if len(coeffs) != spec.f:
            raise ValueError(f"expected {spec.f} coefficients, got {len(coeffs)}")
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    @property
    def index(self) -> int:
        return self.spec.index_of(self.coeffs)


def _is_irreducible(poly: tuple[int, ...], p: int) -> bool:
    """Trial division by every monic polynomial of degree <= deg/2."""
    deg = len(poly) - 1
    if deg == 1:
        return True
    for d in range(1, deg // 2 + 1):
        for tail in product(range(p), repeat=d):
            divisor = tuple(tail) + (1,)
            _, rem = _poly_divmod(poly, divisor, p)
            if not rem:
                return False
    return True


@lru_cache(maxsize=None)
def make_field(p: int, f: int) -> FieldSpec:
    """Build GF(p^f) with the lexicographically least irreducible modulus.

    Interned: repeated calls return the same FieldSpec object.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if f < 1:
        raise ValueError("extension degree must be >= 1")
    for tail in product(range(p), repeat=f):
        candidate = tuple(tail) + (1,)
        if _is_irreducible(candidate, p):
            return FieldSpec(p, f, candidate)
    raise RuntimeError("irreducibility search exhausted")  # unreachable
