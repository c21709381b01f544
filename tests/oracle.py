"""Per-element arithmetic in PSL(2,q) and PGL(2,q): the tests' oracle.

The engine works on integer element ids (`quadforge.psl2.IndexedGroup`).
This module multiplies one matrix at a time instead, so that the tests can
check the kernel against a second, independent computation.  A matrix is
a 4-tuple (a, b, c, d) of field indices, and each element has one
canonical projective form, the rows of `GroupSpec.element_array`:

* PGL: scale so the first nonzero entry in reading order (a,b,c,d) is 1.
* PSL: scale to determinant 1 (the determinant must be a square in the
  field, otherwise the matrix lies in PGL \\ PSL), then pick the
  lexicographically smaller of M and -M under the field enumeration order.

Field operations are lookups in the field's dense int tables, so the
oracle covers q <= 512.  Two whole-group references sit beside it:
`matrix_orders` (element orders from matrix powers) and
`two_generated_abelian_subgroups` (closures of the commuting pairs of the
dense product table).  Nothing here is cached: a group built for one
test is freed after it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from quadforge.gfq import FieldElement, FieldSpec
from quadforge.psl2 import GroupSpec, _group, indexed_group
from quadforge.subgroups import handle_from_ids


class NotInPslError(ValueError):
    """A matrix with a non-square determinant was canonicalized as a PSL
    element: it lies in PGL \\ PSL."""


# ---------------------------------------------------------------------------
# the field
# ---------------------------------------------------------------------------


def sqrt_t(field: FieldSpec, a):
    """The first square root of a (a coefficient tuple) in enumeration
    order, or None."""
    return next((e.coeffs for e in field.enumerate() if field.mul_t(e.coeffs, e.coeffs) == a), None)


def is_square(a: FieldElement) -> bool:
    """Euler criterion: a = b^2 for some b.  Requires a != 0; in even
    characteristic every element is a square."""
    if a.is_zero():
        raise ValueError("squareness of zero is undefined here")
    spec = a.spec
    if spec.p == 2:
        return True
    return spec.pow_t(a.coeffs, (spec.q - 1) // 2) == spec.one.coeffs


# ---------------------------------------------------------------------------
# canonical-form arithmetic on index 4-tuples
# ---------------------------------------------------------------------------


class TupleGroup:
    """Matrix-at-a-time arithmetic in one GroupSpec."""

    def __init__(self, spec: GroupSpec):
        add, mul, neg, inv, sqrt = spec.field.int_tables()
        self.spec, self.kind, self.q = spec, spec.kind, spec.q
        self._fadd = lambda i, j: add[i][j]
        self._fmul = lambda i, j: mul[i][j]
        self._fneg = lambda i: neg[i]
        self._finv = lambda i: inv[i]
        self._fsqrt = lambda i: sqrt[i]
        self._one = spec._one
        self.identity_t = (self._one, 0, 0, self._one)

    def det_t(self, t):
        a, b, c, d = t
        return self._fadd(self._fmul(a, d), self._fneg(self._fmul(b, c)))

    def canonicalize_t(self, t):
        a, b, c, d = t
        det = self.det_t(t)
        if det == 0:
            raise ValueError("singular matrix")
        fm = self._fmul
        if self.kind == "PGL":
            s = self._finv(a if a else b)
            return (fm(a, s), fm(b, s), fm(c, s), fm(d, s))
        root = self._fsqrt(det)
        if root == -1:
            raise NotInPslError("determinant is not a square: element lies in PGL \\ PSL")
        s = self._finv(root)
        m = (fm(a, s), fm(b, s), fm(c, s), fm(d, s))
        if self.q % 2 == 0:
            return m
        fn = self._fneg
        return min(m, (fn(m[0]), fn(m[1]), fn(m[2]), fn(m[3])))

    def mul_t(self, g, h):
        a, b, c, d = g
        e, f, i, j = h
        fm, fa = self._fmul, self._fadd
        return self.canonicalize_t(
            (fa(fm(a, e), fm(b, i)), fa(fm(a, f), fm(b, j)), fa(fm(c, e), fm(d, i)), fa(fm(c, f), fm(d, j)))
        )

    def inv_t(self, g):
        a, b, c, d = g
        return self.canonicalize_t((d, self._fneg(b), self._fneg(c), a))

    def order_t(self, g) -> int:
        n, cur = 1, g
        while cur != self.identity_t:
            cur = self.mul_t(cur, g)
            n += 1
        return n


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GroupElement:
    """Canonical projective representative of a 2x2 matrix, tagged PSL or PGL."""

    group: GroupSpec
    t: tuple[int, int, int, int]

    @property
    def matrix(self) -> tuple[FieldElement, FieldElement, FieldElement, FieldElement]:
        fld = self.group.field
        return tuple(FieldElement(fld, fld.from_index(i)) for i in self.t)

    def __eq__(self, other):
        return isinstance(other, GroupElement) and other.group is self.group and other.t == self.t

    def __lt__(self, other):
        return self.t < other.t

    def __hash__(self):
        return hash((id(self.group), self.t))

    def __repr__(self):
        a, b, c, d = (list(e.coeffs) for e in self.matrix)
        return f"{self.group!r}[{a},{b};{c},{d}]"


def wrap(spec: GroupSpec, t) -> GroupElement:
    return GroupElement(spec, tuple(t))


def canonicalize(matrix, kind: str, field: FieldSpec | None = None) -> GroupElement:
    """Canonical representative in PSL or PGL of a 2x2 matrix of
    FieldElements or ints, given as two rows or four entries; the field
    may be omitted when the entries are FieldElements."""
    flat = [e for row in matrix for e in ([row] if isinstance(row, FieldElement) else row)]
    if len(flat) != 4:
        raise ValueError("expected a 2x2 matrix")
    if field is None:
        field = next(e.spec for e in flat if isinstance(e, FieldElement))
    spec = _group(field, kind)
    t = tuple((e if isinstance(e, FieldElement) else field.element(e)).index for e in flat)
    return wrap(spec, TupleGroup(spec).canonicalize_t(t))


def mul(g: GroupElement, h: GroupElement) -> GroupElement:
    if g.group is not h.group:
        raise ValueError("elements of different groups")
    return wrap(g.group, TupleGroup(g.group).mul_t(g.t, h.t))


def inv(g: GroupElement) -> GroupElement:
    return wrap(g.group, TupleGroup(g.group).inv_t(g.t))


def element_order(g: GroupElement) -> int:
    return TupleGroup(g.group).order_t(g.t)


def enumerate_group(spec: GroupSpec) -> list[GroupElement]:
    """The engine's enumeration as elements, in id order."""
    return [wrap(spec, t) for t in spec.elements_t()]


def elements(handle) -> tuple[GroupElement, ...]:
    """The members of a SubgroupHandle as elements, in id order."""
    els = handle.group.elements_t()
    return tuple(wrap(handle.group, els[i]) for i in handle.ids)


def is_psl_member(g: GroupElement) -> bool:
    """For a PGL element: does it lie in the PSL subgroup?  The square
    class of the determinant is invariant under scaling."""
    group = TupleGroup(g.group)
    return g.group.q % 2 == 0 or group._fsqrt(group.det_t(g.t)) != -1


def closure(generators) -> tuple[GroupElement, ...]:
    """The subgroup generated by `generators`, in id order: a breadth-first
    sweep of right multiplication from the identity."""
    gens = list(generators)
    spec = gens[0].group
    group = TupleGroup(spec)
    seen = frontier = {group.identity_t}
    while frontier:
        frontier = {group.mul_t(x, g.t) for x in frontier for g in gens} - seen
        seen = seen | frontier
    return tuple(wrap(spec, t) for t in sorted(seen))


def matrix_orders(spec: GroupSpec) -> np.ndarray:
    """Every element's order from matrix powers: the least k with M^k a
    scalar matrix (b = c = 0, a = d), for all rows of `element_array` at
    once in the field's dense tables.  No permutation row is read."""
    add, mul = spec.field.array_tables()[:2]
    M = spec.element_array().T.astype(np.intp)
    orders = np.zeros(M.shape[1], dtype=np.int64)
    live, (a, b, c, d) = np.arange(M.shape[1]), M
    for k in range(1, spec.q + 2):  # orders divide p, q-1 or q+1
        scalar = (b == 0) & (c == 0) & (a == d)
        orders[live[scalar]] = k
        live, a, b, c, d = (x[~scalar] for x in (live, a, b, c, d))
        ma, mb, mc, md = M[:, live]
        a, b, c, d = (
            add[mul[a, ma], mul[b, mc]], add[mul[a, mb], mul[b, md]],
            add[mul[c, ma], mul[d, mc]], add[mul[c, mb], mul[d, md]],
        )
    if live.size:
        raise AssertionError(f"{live.size} matrices have no scalar power up to q+1")
    return orders


def two_generated_abelian_subgroups(spec: GroupSpec):
    """Every subgroup generated by a commuting pair (hence every abelian
    subgroup whose rank is at most 2, which covers all abelian subgroups
    of PSL(2,q) for f <= 2), as handles sorted by (order, ids): one
    closure per commuting pair of the dense n x n product table."""
    ig = indexed_group(spec)
    ids = np.arange(ig.n)
    cay = ig.mul_ids(ids[:, None], ids)
    found: dict[frozenset, np.ndarray] = {}
    for i, j in zip(*np.nonzero(np.triu(cay == cay.T))):
        idxs = ig.closure_idx((int(i), int(j)))
        found.setdefault(frozenset(idxs), idxs)
    handles = [handle_from_ids(spec, idxs) for idxs in found.values()]
    handles.sort(key=lambda h: (len(h), h.ids))
    return handles


# ---------------------------------------------------------------------------
# the projective line
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProjectivePoint:
    """Point (x:y) of PG(1,q), normalized so the last nonzero coordinate is 1."""

    x: FieldElement
    y: FieldElement

    @staticmethod
    def of(x: FieldElement, y: FieldElement) -> ProjectivePoint:
        if not y.is_zero():
            return ProjectivePoint(x / y, y.spec.one)
        if x.is_zero():
            raise ValueError("(0:0) is not a projective point")
        return ProjectivePoint(x.spec.one, y)

    def __repr__(self):
        return f"({list(self.x.coeffs)}:{list(self.y.coeffs)})"


def projective_line(field: FieldSpec) -> list[ProjectivePoint]:
    """The q+1 points of PG(1,q): (x:1) in field order, then (1:0).  The
    position of a point is its point id in `IndexedGroup.perms`."""
    return [ProjectivePoint(x, field.one) for x in field.enumerate()] + [
        ProjectivePoint(field.one, field.zero)
    ]


def act_on_line(g: GroupElement, pt: ProjectivePoint) -> ProjectivePoint:
    """Natural right action on PG(1,q): (x,y) -> (x,y)M."""
    a, b, c, d = g.matrix
    return ProjectivePoint.of(pt.x * a + pt.y * c, pt.x * b + pt.y * d)
