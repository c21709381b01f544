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

The last section holds the references that no engine path calls: field
helpers, the grid and lower stabilizer-bound tests, `candidate_pairs`,
the record reader, subgroup conjugation, normalizers, the conjugacy
classes of small subgroups, structure recognition (`recognize`, with the
abelian and elementary abelian tests), the classical subgroup catalog,
and the point and line actions and fixed substructures of a coset
geometry.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from quadforge._ints import prime_power
from quadforge.classify import PAIRS, EliminationRecord
from quadforge.errors import VerificationError
from quadforge.feasibility import GQOrder, StabilizerBounds
from quadforge.geometry import IncidenceGeometry, _check_axioms, _collinearity
from quadforge.gfq import FieldElement, FieldSpec
from quadforge.psl2 import GroupSpec, _group, indexed_group
from quadforge.subgroups import (
    SporadicTriple,
    SubgroupHandle,
    _orbit,
    case_condition,
    handle_from_ids,
    is_cyclic,
    is_dihedral,
    order_profile,
)


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
    if is_zero(a):
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
        return tuple(FieldElement(fld, from_index(fld, i)) for i in self.t)

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
    spec = _group(field.q, kind)
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
        if not is_zero(y):
            return ProjectivePoint(x / y, y.spec.one)
        if is_zero(x):
            raise ValueError("(0:0) is not a projective point")
        return ProjectivePoint(x.spec.one, y)

    def __repr__(self):
        return f"({list(self.x.coeffs)}:{list(self.y.coeffs)})"


def projective_line(field: FieldSpec) -> list[ProjectivePoint]:
    """The q+1 points of PG(1,q): (x:1) in field order, then (1:0).  The
    position of a point is its point id in `IndexedGroup.perms`."""
    return [ProjectivePoint(x, field.one) for x in field.enumerate()] + [
        ProjectivePoint(field.one, field.element(0))
    ]


def act_on_line(g: GroupElement, pt: ProjectivePoint) -> ProjectivePoint:
    """Natural right action on PG(1,q): (x,y) -> (x,y)M."""
    a, b, c, d = g.matrix
    return ProjectivePoint.of(pt.x * a + pt.y * c, pt.x * b + pt.y * d)


# ---------------------------------------------------------------------------
# references that no engine path calls
# ---------------------------------------------------------------------------
# Each of these once lived in the engine with tests as its only callers.
# They stay here as references the tests compare the engine against, and a
# later engine caller would bring one back with it.


def is_zero(a: FieldElement) -> bool:
    return not any(a.coeffs)


def from_index(field: FieldSpec, idx: int) -> tuple[int, ...]:
    """Coefficients of the element at position idx (c0 most significant):
    the inverse of `FieldSpec.index_of`."""
    c = []
    for _ in range(field.f):
        c.append(idx % field.p)
        idx //= field.p
    return tuple(reversed(c))


def grid_order_check(s1: int, s2: int):
    """A grid with parameters (s1, s2) is a generalized quadrangle exactly
    when s1 = s2, of order (s1, 1).  Returns GQOrder or None."""
    if s1 < 1 or s2 < 1:
        raise ValueError("grid parameters must be >= 1")
    return GQOrder(s1, 1) if s1 == s2 else None


def lower_ok(bounds: StabilizerBounds, line_stab_order: int) -> bool:
    """The lower side of the stabilizer window: |G_ell|^3 |G| > |G_alpha|^4."""
    return line_stab_order**3 * bounds.group_order > bounds.point_stab_order**4


def admits(bounds: StabilizerBounds, line_stab_order: int) -> bool:
    return lower_ok(bounds, line_stab_order) and bounds.upper_ok(line_stab_order)


def candidate_pairs(q: int) -> list[tuple[int, int]]:
    """Ordered case pairs (i < j) admissible at q: both family conditions
    hold and q lies inside the pair's bound window where one exists (the
    pair rows of the registry).  The Borel case never appears (its coset
    action is 2-transitive)."""
    out = []
    for (i, j), row in PAIRS.items():
        if not (case_condition(i, q) and case_condition(j, q)):
            continue
        lo, hi = row.widest or (q, None)
        if lo <= q and (hi is None or q <= hi):
            out.append((i, j))
    return sorted(out)


def record_from_dict(d: dict) -> EliminationRecord:
    """The record a report's `to_dict()` entry was written from (its wall
    time is not in the report, so it reads 0)."""
    return EliminationRecord(
        lemma_tag=d["lemma_tag"],
        inputs=d["inputs"],
        scan_size=d["scan_size"],
        survivors=[tuple(s) for s in d["survivors"]],
        verdict=d["verdict"],
        checks=d.get("checks", []),
        notes=d.get("notes", []),
    )


def index_value(row: SporadicTriple, p: int | None = None) -> int:
    """The index of M in G for a sporadic row; the parametric A4 < S4 row
    needs its prime p."""
    if row.index is not None:
        return row.index
    if p is None:
        raise ValueError("the A4 < S4 row needs a prime p")
    if p % 40 not in (11, 19, 21, 29):
        raise ValueError("condition p = +-11, +-19 (mod 40) violated")
    return p * (p * p - 1) // 24


def whole_group_handle(spec: GroupSpec) -> SubgroupHandle:
    return SubgroupHandle(spec, tuple(range(spec.order)))


def conjugate(handle: SubgroupHandle, g: int) -> SubgroupHandle:
    """H^g = g^-1 H g for the element with id g."""
    ig = indexed_group(handle.group)
    ids = np.sort(ig.conj_ids(np.asarray(handle.ids), g))
    return SubgroupHandle(handle.group, tuple(ids.tolist()))


def normalizer(handle: SubgroupHandle) -> SubgroupHandle:
    """Set-level normalizer {g : H^g = H}: the transporter of a greedy
    generating set of H."""
    ig = indexed_group(handle.group)
    return handle_from_ids(handle.group, ig.transporter(ig.generators_of(handle.ids), handle.ids))


def subgroup_classes(type_name: str, spec: GroupSpec) -> list[list[SubgroupHandle]]:
    """All subgroups of the named small type, partitioned by conjugacy.

    Copies are found by closing generator pairs (x, y) with the type's
    signature element orders; every copy has such a generating pair.  x
    runs over one representative per conjugacy class and y over the whole
    group: a copy generated by (x, y) has a conjugate generated by (x's
    representative, y'), and the orbit closure below recovers the rest.
    """
    registry = {
        "A4": (12, 2, 3),
        "PSL(2,3)": (12, 2, 3),
        "S4": (24, 2, 4),
        "PGL(2,3)": (24, 2, 4),
        "A5": (60, 2, 5),
        "PSL(2,4)": (60, 2, 5),
        "PSL(2,5)": (60, 2, 5),
    }
    if type_name not in registry:
        raise ValueError(f"no search signature for type {type_name!r}")
    size, o1, o2 = registry[type_name]
    ig = indexed_group(spec)
    orders = ig.orders()
    xs = [cls[0] for cls in ig.all_classes() if orders[cls[0]] == o1]
    ys = np.flatnonzero(orders == o2).tolist()
    found: dict[bytes, np.ndarray] = {}
    for x in xs:
        for y in ys:
            idxs = ig.closure_idx((x, y))
            if len(idxs) == size:
                found.setdefault(idxs.tobytes(), idxs)
    conj_maps = ig.conj_maps()
    classes: list[list[SubgroupHandle]] = []
    while found:
        orbit = _orbit(min(found.values(), key=tuple), conj_maps)
        for key in orbit:
            found.pop(key, None)
        cls = sorted((SubgroupHandle(spec, tuple(ids.tolist())) for ids in orbit.values()), key=lambda h: h.ids)
        classes.append(cls)
    classes.sort(key=lambda c: c[0].ids)
    return classes


def is_abelian(handle: SubgroupHandle) -> bool:
    ig = indexed_group(handle.group)
    ids = np.asarray(handle.ids)
    prod = ig.mul_ids(ids[:, None], ids)
    return bool((prod == prod.T).all())


def is_elementary_abelian(handle: SubgroupHandle) -> bool:
    n = len(handle)
    if n == 1:
        return True
    pf = prime_power(n)
    if pf is None:
        return False
    p = pf[0]
    prof = order_profile(handle)
    return set(prof) == {1, p} and is_abelian(handle)


_PROFILES = {
    "A_4": Counter({1: 1, 2: 3, 3: 8}),
    "S_4": Counter({1: 1, 2: 9, 3: 8, 4: 6}),
    "A_5": Counter({1: 1, 2: 15, 3: 20, 5: 24}),
}


def recognize(handle: SubgroupHandle) -> str:
    """Structural name: cyclic, dihedral, elementary abelian, the three
    triangle groups, PSL/PGL(2,q0) by order, or a generic order label."""
    n = len(handle)
    if n == 1:
        return "1"
    prof = order_profile(handle)
    for name, ref in _PROFILES.items():
        if n == sum(ref.values()) and prof == ref:
            return name
    if is_cyclic(handle):
        return f"C_{n}"
    if is_elementary_abelian(handle):
        p = prime_power(n)[0]
        m = prime_power(n)[1]
        return f"C_{p}^{m}"
    if is_dihedral(handle):
        return f"D_{n}"
    for q0 in range(3, 100):
        if prime_power(q0) is None:
            continue
        if q0 % 2 and n == q0 * (q0 * q0 - 1) // 2:
            return f"PSL(2,{q0})"
        if n == q0 * (q0 * q0 - 1):
            return f"PGL(2,{q0})"
    return f"order-{n}"


def catalog_family(handle: SubgroupHandle, q: int) -> str | None:
    """Which family of the classical subgroup catalog of PGL(2,q), q >= 5
    odd, contains this subgroup; None if none matches."""
    n = len(handle)
    p, f = prime_power(q)
    if n == 1:
        return "trivial"
    if is_cyclic(handle):
        if n == 2:
            return "(i) C_2"
        if n > 2 and ((q - 1) % n == 0 or (q + 1) % n == 0):
            return "(ii) C_d, d | q+-1"
        if n == p:
            return "(ix) elementary abelian"
    if is_elementary_abelian(handle):
        pf = prime_power(n)
        if pf and pf[0] == p and pf[1] <= f:
            return "(ix) elementary abelian"
        if n == 4:
            return "(iii) D_4"
    if is_dihedral(handle):
        d = n // 2
        if n == 4:
            return "(iii) D_4"
        if d > 2:
            for sign in (-1, 1):
                m = q + sign
                if m % 2 == 0 and (m // 2) % d == 0:
                    return "(iv) D_2d, d | (q+-1)/2"
            for sign in (-1, 1):
                m = q + sign
                if m % d == 0 and (m // d) % 2 == 1:
                    return "(v) D_2d, (q+-1)/d odd"
        # dihedral groups over the unipotent radical fall through to (x)
    prof = order_profile(handle)
    if prof == _PROFILES["A_4"]:
        return "(vi) A_4"
    if prof == _PROFILES["S_4"]:
        return "(vi) S_4"
    if prof == _PROFILES["A_5"] and q % 10 in (1, 9):
        return "(vi) A_5"
    for m in range(1, f + 1):
        if f % m == 0:
            qm = p**m
            if qm % 2 and n == qm * (qm * qm - 1) // 2 and qm >= 5:
                return f"(vii) PSL(2,{qm})"
            if n == qm * (qm * qm - 1):
                return f"(viii) PGL(2,{qm})"
    # (x): elementary abelian p-group extended by a cyclic group
    ig = indexed_group(handle.group)
    ids = np.asarray(handle.ids)
    orders = ig.orders()[ids]
    u = ids[(orders == 1) | (orders == p)]
    in_u = ig.mask(u)
    pf = prime_power(len(u)) if len(u) > 1 else None
    if pf and pf[0] == p and pf[1] <= f and n % len(u) == 0:
        closed = in_u[ig.mul_ids(u[:, None], u)].all()
        normal = closed and in_u[ig.conj_ids(u, ids[:, None])].all()
        if closed and normal:
            d = n // len(u)
            if d > 1 and math.gcd(q - 1, p ** pf[1] - 1) % d == 0:
                # quotient must be cyclic: some h with h^k hitting every coset
                for h in ids.tolist():
                    kk = 1
                    cur = h
                    while not in_u[cur]:
                        cur = int(ig.mul_ids(cur, h))
                        kk += 1
                    if kk == d:
                        return "(x) E_{p^m}:C_d"
    return None


# -- coset geometries: point and line actions, fixed substructures ----------


class FixedStructure(NamedTuple):
    fixed_points: tuple[int, ...]
    fixed_lines: tuple[int, ...]
    kind: str  # one of "0", "1", "1'", "2", "2'", "3", "3'", "4"
    params: tuple = ()


def incident(geom: IncidenceGeometry, p: int, l: int) -> bool:
    return bool(geom.rows[p] >> l & 1)


def collinearity_masks(geom: IncidenceGeometry) -> list[int]:
    """coll[p]: bitmask of points sharing at least one line with p
    (p itself excluded)."""
    return _collinearity(geom.rows, geom.cols)


def point_action(geom: IncidenceGeometry, g: int) -> list[int]:
    """Image of every point under the element with id g."""
    return geom.point_label[geom.ig.mul_ids(geom.point_reps, g)].tolist()


def line_action(geom: IncidenceGeometry, g: int) -> list[int]:
    """Image of every line under the element with id g."""
    return geom.line_label[geom.ig.mul_ids(geom.line_reps, g)].tolist()


def preserves_incidence(geom: IncidenceGeometry, g: int) -> bool:
    pa, la = point_action(geom, g), line_action(geom, g)
    return all(
        incident(geom, pa[p], la[l])
        for p in range(geom.n_points)
        for l in range(geom.n_lines)
        if incident(geom, p, l)
    )


def line_size_profile(decomposition, selection, M0: SubgroupHandle, M1: SubgroupHandle):
    """(s+1, t+1) sums for a selection of double cosets.

    s+1 = sum over the selection of |M1| / |M1 ^ h^-1 M0 h| = |D| / |M0|,
    and dually t+1 = |D| / |M1|.  The decomposition alone fixes only
    |M0||M1| = size * meet, so the handles give the two orders.
    """
    sel = list(selection)
    if not sel:
        raise ValueError("selection must be nonempty")
    n0, n1 = len(M0), len(M1)
    d_size = sum(decomposition[i].size for i in sel)
    s_plus_1 = sum(n1 // decomposition[i].meet_order for i in sel)
    t_plus_1 = sum(n0 // decomposition[i].meet_order for i in sel)
    if (s_plus_1, t_plus_1) != (d_size // n0, d_size // n1):
        raise VerificationError(
            "line-size-profile",
            f"(s+1, t+1) = ({s_plus_1}, {t_plus_1}) but |D|/|M0|, |D|/|M1| = "
            f"({d_size // n0}, {d_size // n1})",
        )
    return s_plus_1, t_plus_1


def _induced(geom: IncidenceGeometry, fp, fl):
    """Incidence of the fixed substructure, reindexed densely."""
    rows = [sum(1 << k for k, l in enumerate(fl) if incident(geom, p, l)) for p in fp]
    cols = [sum(1 << i for i, row in enumerate(rows) if row >> k & 1) for k in range(len(fl))]
    return rows, cols


def _grid_params(rows, cols):
    """(s1, s2) with s1 <= s2 if the substructure is a grid, else None."""
    n_points, n_lines = len(rows), len(cols)
    if n_points == 0 or n_lines < 2:
        return None
    if any(r.bit_count() != 2 for r in rows):
        return None
    # family A: line 0 and the lines disjoint from it; B: the rest
    fam_a = [l for l in range(n_lines) if l == 0 or not (cols[l] & cols[0])]
    fam_b = [l for l in range(n_lines) if l not in fam_a]
    if not fam_b:
        return None
    for fam in (fam_a, fam_b):
        for i, l1 in enumerate(fam):
            for l2 in fam[i + 1 :]:
                if cols[l1] & cols[l2]:
                    return None
    for la in fam_a:
        for lb in fam_b:
            if (cols[la] & cols[lb]).bit_count() != 1:
                return None
    if n_points != len(fam_a) * len(fam_b):
        return None
    if any(cols[l].bit_count() != len(fam_b) for l in fam_a):
        return None
    if any(cols[l].bit_count() != len(fam_a) for l in fam_b):
        return None
    s1, s2 = sorted((len(fam_a) - 1, len(fam_b) - 1))
    return s1, s2


def fixed_structure(g: int, geom: IncidenceGeometry) -> FixedStructure:
    """Fixed points/lines of the element with id g, sorted into the eight
    possible shapes: empty, noncollinear points / dual, cone over a point /
    dual, grid / dual grid, or a subquadrangle.

    The shapes are tested in the fixed order 0, 1, 1', 2, 2', 3, 3', 4,
    and the first match is returned, so the answer is unique even for
    shapes whose defining conditions overlap.
    """
    pa, la = point_action(geom, g), line_action(geom, g)
    fp = tuple(p for p in range(geom.n_points) if pa[p] == p)
    fl = tuple(l for l in range(geom.n_lines) if la[l] == l)
    if not fp and not fl:
        return FixedStructure(fp, fl, "0")
    coll = collinearity_masks(geom)
    if not fl:
        for i, p in enumerate(fp):
            for q in fp[i + 1 :]:
                if coll[p] >> q & 1:
                    raise ValueError("fixed points collinear but no fixed line")
        return FixedStructure(fp, fl, "1")
    if not fp:
        for i, l1 in enumerate(fl):
            for l2 in fl[i + 1 :]:
                if geom.cols[l1] & geom.cols[l2]:
                    raise ValueError("fixed lines concurrent but no fixed point")
        return FixedStructure(fp, fl, "1'")
    fp_mask = sum(1 << p for p in fp)
    fl_mask = sum(1 << l for l in fl)
    # "2": a fixed point on every fixed line, collinear with every fixed point
    for p in fp:
        if geom.rows[p] & fl_mask == fl_mask and (coll[p] | 1 << p) & fp_mask == fp_mask:
            return FixedStructure(fp, fl, "2", (p,))
    # "2'": a fixed line through every fixed point, meeting every fixed line
    for l in fl:
        if geom.cols[l] & fp_mask == fp_mask:
            if all(l2 == l or geom.cols[l] & geom.cols[l2] for l2 in fl):
                return FixedStructure(fp, fl, "2'", (l,))
    rows, cols = _induced(geom, fp, fl)
    grid = _grid_params(rows, cols)
    if grid and grid[0] < grid[1]:
        return FixedStructure(fp, fl, "3", grid)
    dual = _grid_params(cols, rows)
    if dual and dual[0] < dual[1]:
        return FixedStructure(fp, fl, "3'", dual)
    verdict = _check_axioms(rows, cols, len(fp), len(fl))
    if verdict.is_gq:
        return FixedStructure(fp, fl, "4", (verdict.s, verdict.t))
    raise ValueError(f"unclassifiable fixed structure: {verdict.violation}")


def transitive_on_fixed(g: int, geom: IncidenceGeometry, subgroup: SubgroupHandle) -> bool:
    """Does the subgroup's orbit of the base point cover the whole fixed
    point set of the element with id g?  Requires g to fix the base point."""
    base = geom.base_point
    pa = point_action(geom, g)
    if pa[base] != base:
        raise ValueError("base point is not fixed by g")
    fixed = {p for p, image in enumerate(pa) if image == p}
    orbit = geom.point_label[geom.ig.mul_ids(geom.point_reps[base], subgroup.ids)]
    return set(orbit.tolist()) == fixed
