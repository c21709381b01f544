"""Exact arithmetic in the finite fields GF(p^f).

Elements are length-f coefficient vectors over GF(p) in the polynomial
basis 1, x, ..., x^(f-1), reduced modulo a fixed monic irreducible
polynomial of degree f.  The modulus is chosen deterministically: the
lexicographically least monic irreducible of degree f, comparing
coefficient vectors from the constant term upward.  Irreducibility is
certified at construction by trial division against every monic
polynomial of degree at most f/2.

All arithmetic is exact; there is no floating point anywhere in this
module.  `FieldSpec` and `FieldElement` are immutable after construction
and safe to share between threads.  Fields with q <= 512 also have dense
index-based operation tables, read-only int32 arrays from which the group
layer is built.  Only the tables of the field asked for last are kept.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

import numpy as np

from ._ints import factorize, is_prime
from .errors import MixedFieldError

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
    object, so element operations may require identical specs.
    """

    def __init__(self, p: int, f: int, modulus: tuple[int, ...]):
        self.p = p
        self.f = f
        self.q = p**f
        self.modulus = modulus
        # reduction table: x^(f+k) mod modulus for k = 0..f-2, as length-f rows
        red: list[tuple[int, ...]] = []
        if f > 1:
            base = [(-m) % p for m in modulus[:-1]]  # x^f reduced
            cur = list(base)
            red.append(tuple(cur))
            for _ in range(f - 2):
                carry = cur[-1]
                cur = [0] + cur[:-1]
                if carry:
                    cur = [(cur[i] + carry * base[i]) % p for i in range(f)]
                red.append(tuple(cur))
        self._reduction = red

    # -- representation ------------------------------------------------

    def __repr__(self):
        return f"GF({self.q})"

    def element(self, coeffs) -> FieldElement:
        if isinstance(coeffs, int):
            c = [0] * self.f
            c[0] = coeffs % self.p
            return FieldElement(self, tuple(c))
        c = tuple(x % self.p for x in coeffs)
        if len(c) != self.f:
            raise ValueError(f"expected {self.f} coefficients")
        return FieldElement(self, c)

    @property
    def one(self) -> FieldElement:
        return self.element(1)

    def index_of(self, coeffs: tuple[int, ...]) -> int:
        """Position of an element in the enumeration order (c0 most significant)."""
        idx = 0
        for c in coeffs:
            idx = idx * self.p + c
        return idx

    # -- tuple-level arithmetic -----------------------------------------

    def add_t(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def sub_t(self, a, b):
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def neg_t(self, a):
        p = self.p
        return tuple((-x) % p for x in a)

    def mul_t(self, a, b):
        p, f = self.p, self.f
        if f == 1:
            return (a[0] * b[0] % p,)
        raw = [0] * (2 * f - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    raw[i + j] += ai * bj
        out = [c % p for c in raw[:f]]
        for k in range(f, 2 * f - 1):
            c = raw[k] % p
            if c:
                row = self._reduction[k - f]
                for i in range(f):
                    out[i] = (out[i] + c * row[i]) % p
        return tuple(out)

    def pow_t(self, a, n: int):
        result = (1,) + (0,) * (self.f - 1)
        base = a
        while n:
            if n & 1:
                result = self.mul_t(result, base)
            base = self.mul_t(base, base)
            n >>= 1
        return result

    def inv_t(self, a):
        if not any(a):
            raise ZeroDivisionError("division by zero field element")
        return self.pow_t(a, self.q - 2)

    def enumerate(self) -> tuple[FieldElement, ...]:
        """Every element, in index order, built on each call and not kept."""
        return tuple(FieldElement(self, c) for c in product(range(self.p), repeat=self.f))

    def primitive_element(self) -> tuple[int, ...]:
        """The first element in enumeration order that generates GF(q)*."""
        one = self.one.coeffs
        cofactors = [(self.q - 1) // r for r in factorize(self.q - 1)]
        return next(
            e.coeffs
            for e in self.enumerate()[1:]
            if all(self.pow_t(e.coeffs, k) != one for k in cofactors)
        )

    def array_tables(self) -> tuple[np.ndarray, ...]:
        """Dense index-based op tables (ADD, MUL, NEG, INV, SQRT) for q <= 512,
        as read-only int32 arrays.  One module-level slot keeps the tables
        of the field asked for last; another field's tables are released
        before these are built, so two fields' tables never share the peak.

        INV[0] = -1 and SQRT[i] = -1 marks "undefined"/"non-square"; SQRT[i]
        is the least root.  Addition is digit-wise mod p on the base-p index;
        multiplication goes through log/antilog tables of
        `primitive_element()`.
        """
        global _last_tables
        kept = _last_tables
        if kept is None or kept[0] is not self:
            kept = _last_tables = None
            q, p, f = self.q, self.p, self.f
            if q > TABLE_LIMIT:
                raise ValueError(f"no dense tables for q = {q} > {TABLE_LIMIT}")
            ids = np.arange(q, dtype=np.int32)
            add = np.zeros((q, q), dtype=np.int32)
            neg = np.zeros(q, dtype=np.int32)
            for k in range(f):  # coefficient of x^k carries weight p^(f-1-k)
                place = p ** (f - 1 - k)
                digit = ids // place % p
                add += (digit[:, None] + digit) % p * place
                neg += -digit % p * place
            g = self.primitive_element()
            antilog = np.empty(q - 1, dtype=np.int32)
            cur = self.one.coeffs
            for k in range(q - 1):
                antilog[k] = self.index_of(cur)
                cur = self.mul_t(cur, g)
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

    def int_tables(self):
        """`array_tables()` as Python lists, built on each call and not kept:
        ADD and MUL as lists of rows, NEG, INV and SQRT as flat lists."""
        return tuple(t.tolist() for t in self.array_tables())


class FieldElement:
    """An element of a FieldSpec; immutable, compares by coefficient vector."""

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

    def _check(self, other) -> "FieldElement":
        if not isinstance(other, FieldElement):
            other = self.spec.element(other)
        if other.spec is not self.spec:
            raise MixedFieldError("operands belong to different fields")
        return other

    def __add__(self, other):
        other = self._check(other)
        return FieldElement(self.spec, self.spec.add_t(self.coeffs, other.coeffs))

    def __sub__(self, other):
        other = self._check(other)
        return FieldElement(self.spec, self.spec.sub_t(self.coeffs, other.coeffs))

    def __neg__(self):
        return FieldElement(self.spec, self.spec.neg_t(self.coeffs))

    def __mul__(self, other):
        other = self._check(other)
        return FieldElement(self.spec, self.spec.mul_t(self.coeffs, other.coeffs))

    def __truediv__(self, other):
        other = self._check(other)
        return FieldElement(
            self.spec, self.spec.mul_t(self.coeffs, self.spec.inv_t(other.coeffs))
        )

    def __pow__(self, n: int):
        if n < 0:
            return FieldElement(self.spec, self.spec.pow_t(self.spec.inv_t(self.coeffs), -n))
        return FieldElement(self.spec, self.spec.pow_t(self.coeffs, n))

    def __eq__(self, other):
        if isinstance(other, int):
            return self.coeffs == self.spec.element(other).coeffs
        return (
            isinstance(other, FieldElement)
            and other.spec is self.spec
            and other.coeffs == self.coeffs
        )

    def __hash__(self):
        return hash((id(self.spec), self.coeffs))

    def __repr__(self):
        return f"{self.spec!r}:{list(self.coeffs)}"


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
