"""Maximal-subgroup constructors and recognition for PSL(2,q).

Covers the nine maximal-subgroup families (Borel, subfield PGL/PSL,
A4/S4/A5, and the two dihedral normalizers of tori), the ten sporadic
(G, M, M0) triples where M0 is not maximal in the socle, and the
classical catalog of subgroups of PGL(2,q) for odd q used as a verified
reference at small q.

A subgroup is stored as the sorted ids of its members in the group's
`IndexedGroup` (ids follow the canonical element order).  The Borel and
subfield constructors select ids from the element array (the rows with
c = 0, or with every entry in the subfield, for PGL(2,q0) after dividing
by the first nonzero entry), A4/S4/A5 come from a deterministic
generator-pair search (first witness in canonical element order), and
the dihedral cases take a maximal-order torus element together with an
inverting involution.  Subgroup equality is equality of id tuples.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from ._ints import factorize, prime_power
from .errors import BudgetExceededError, VerificationError
from .psl2 import (
    GroupSpec,
    IndexedGroup,
    array_tables,
    indexed_group,
    orbit_labels,
    resolve_budget,
)


# ---------------------------------------------------------------------------
# descriptors and handles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubgroupDescriptor:
    """Structural claim about a subgroup: which family, with what index."""

    case_id: int | str | None
    claimed_type: str
    claimed_index: int
    q0: int | None = None
    r: int | None = None


@dataclass
class SubgroupHandle:
    """Explicit subgroup: descriptor plus its members as sorted ids of the
    group's `IndexedGroup`."""

    group: GroupSpec
    descriptor: SubgroupDescriptor
    ids: tuple[int, ...]

    def __len__(self):
        return len(self.ids)

    def idx_set(self, ig: IndexedGroup | None = None) -> tuple[int, ...]:
        """`ids`, for callers that still pass the indexed group
        (`perfbench/unit.py`)."""
        return self.ids

    def __repr__(self):
        return (
            f"<{self.descriptor.claimed_type} of order {len(self)} "
            f"in {self.group!r}, index {self.descriptor.claimed_index}>"
        )


def handle_from_ids(spec: GroupSpec, ids, descriptor=None) -> SubgroupHandle:
    """Handle of the subgroup with these member ids.  Without a descriptor
    its structure is recognized and its index read off its order."""
    ids = tuple(sorted(set(np.asarray(ids).tolist())))
    handle = SubgroupHandle(spec, descriptor, ids)
    if descriptor is None:
        if not ids or spec.order % len(ids):
            raise ValueError("element count does not divide the group order")
        handle.descriptor = SubgroupDescriptor(None, recognize(handle), spec.order // len(ids))
    return handle


def handle_from_elements(spec: GroupSpec, ts, descriptor=None) -> SubgroupHandle:
    """`handle_from_ids` for members given as matrix 4-tuples."""
    return handle_from_ids(spec, indexed_group(spec).ids_of(list(ts)), descriptor)


def whole_group_handle(spec: GroupSpec, budget=None) -> SubgroupHandle:
    desc = SubgroupDescriptor(None, repr(spec), 1)
    return SubgroupHandle(spec, desc, tuple(range(len(spec.element_array(budget)))))


# ---------------------------------------------------------------------------
# the sporadic (G, M, M0) triples
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SporadicTriple:
    group: str
    m0_type: str
    m_type: str
    index: int | None  # None for the parametric final row
    condition: str = ""

    def index_value(self, p: int | None = None) -> int:
        if self.index is not None:
            return self.index
        if p is None:
            raise ValueError("the A4 < S4 row needs a prime p")
        if p % 40 not in (11, 19, 21, 29):
            raise ValueError("condition p = +-11, +-19 (mod 40) violated")
        return p * (p * p - 1) // 24


_SPORADIC = (
    SporadicTriple("PGL(2,7)", "D_6", "D_12", 28),
    SporadicTriple("PGL(2,7)", "D_8", "D_16", 21),
    SporadicTriple("PGL(2,9)", "D_10", "D_20", 36),
    SporadicTriple("PGL(2,9)", "D_8", "D_16", 45),
    SporadicTriple("M_10", "D_10", "C_5:C_4", 36),
    SporadicTriple("M_10", "D_8", "C_8:C_2", 45),
    SporadicTriple("PGammaL(2,9)", "D_10", "C_10:C_4", 36),
    SporadicTriple("PGammaL(2,9)", "D_8", "C_8.Aut(C_8)", 45),
    SporadicTriple("PGL(2,11)", "D_10", "D_20", 66),
    SporadicTriple(
        "PGL(2,p)", "A_4", "S_4", None, condition="q = p = +-11, +-19 (mod 40)"
    ),
)


def sporadic_table() -> tuple[SporadicTriple, ...]:
    """The ten (G, M0, M) triples with M maximal in G but M0 not maximal
    in the socle, with the index of M in G."""
    return _SPORADIC


# ---------------------------------------------------------------------------
# the nine maximal families: conditions and index formulas
# ---------------------------------------------------------------------------


def case_condition(case_id: int, q: int, q0: int | None = None, r: int | None = None) -> bool:
    """Does (case_id, q) satisfy the admissibility condition of the family?

    Cases 2, 6, 7 are parametrized by (q0, r); passing them checks the
    specific decomposition, otherwise any valid decomposition counts.
    """
    pf = prime_power(q)
    return pf is not None and case_condition_at(case_id, q, *pf, q0=q0, r=r)


# the conditions of the families that depend on (q, p, f) alone, written
# with & | == != so that they evaluate on Python ints and elementwise on
# integer arrays alike (`case_condition_at` adds q >= 4)
_ELEMENTWISE_CONDITIONS = {
    3: lambda q, p, f: ((f == 1) & ((q % 10 == 1) | (q % 10 == 9)))
    | ((f == 2) & ((p % 10 == 3) | (p % 10 == 7))),
    4: lambda q, p, f: (f == 1) & ((q % 8 == 3) | (q % 8 == 5)) & (q % 10 != 1) & (q % 10 != 9),
    5: lambda q, p, f: (f == 1) & ((q % 8 == 1) | (q % 8 == 7)),
    8: lambda q, p, f: (q != 5) & (q != 7) & (q != 9) & (q != 11),
    9: lambda q, p, f: (q != 7) & (q != 9),
}


@functools.lru_cache(maxsize=None)
def _prime_divisors(f: int) -> tuple[int, ...]:
    """The primes dividing the exponent f, ascending: one factorization
    per f however many (q0, r) questions the scans ask about it."""
    return tuple(sorted(factorize(f)))


def case_condition_at(
    case_id: int, q: int, p: int, f: int, q0: int | None = None, r: int | None = None
) -> bool:
    """`case_condition` at q = p**f, for a scan that already holds (p, f).

    For cases 3, 4, 5, 8 and 9, q, p and f may also be equal-length
    integer arrays; the answer is then a boolean mask."""
    if case_id in _ELEMENTWISE_CONDITIONS:
        return (q >= 4) & _ELEMENTWISE_CONDITIONS[case_id](q, p, f)
    if q < 4:
        return False
    if case_id == 1:
        return True
    if case_id == 2:
        if q % 2 == 0 or f % 2:
            return False
        want = p ** (f // 2)
        return q0 in (None, want)
    if case_id == 6:
        if q % 2 == 0:
            return False
        opts = [rr for rr in _prime_divisors(f) if rr % 2]
        if r is not None:
            return r in opts and (q0 is None or q0 == p ** (f // r))
        return bool(opts)
    if case_id == 7:
        if p != 2:
            return False
        opts = [rr for rr in _prime_divisors(f) if f // rr >= 2]
        if r is not None:
            return r in opts and (q0 is None or q0 == 2 ** (f // r))
        return bool(opts)
    raise ValueError(f"unknown case {case_id}")


def case_params(case_id: int, q: int) -> list[dict]:
    """All admissible parameter choices for (case_id, q): [] if the case
    does not apply, [{}] for unparametrized cases, else one {'q0','r'} per
    valid decomposition q = q0^r."""
    if not case_condition(case_id, q):
        return []
    p, f = prime_power(q)
    if case_id == 2:
        return [{"q0": p ** (f // 2), "r": 2}]
    if case_id == 6:
        return [
            {"q0": p ** (f // r), "r": r} for r in _prime_divisors(f) if r % 2
        ]
    if case_id == 7:
        return [
            {"q0": 2 ** (f // r), "r": r}
            for r in _prime_divisors(f)
            if f // r >= 2
        ]
    return [{}]


# [PSL(2,q) : M] for the families whose index depends on q alone; each
# evaluates elementwise on an integer array of q too (exact in int64 while
# q**3 < 2**63)
Q_INDEX = {
    1: lambda q: q + 1,
    3: lambda q: q * (q * q - 1) // 120,
    4: lambda q: q * (q * q - 1) // 24,
    5: lambda q: q * (q * q - 1) // 48,
    8: lambda q: q * (q + 1) // 2,
    9: lambda q: q * (q - 1) // 2,
}


def index_formula(case_id: int, q: int, q0: int | None = None, r: int | None = None) -> int:
    """Exact index in PSL(2,q) of the case's maximal subgroup."""
    if not case_condition(case_id, q, q0=q0, r=r):
        raise ValueError(f"case {case_id} condition violated at q = {q}")
    if case_id in Q_INDEX:
        return Q_INDEX[case_id](q)
    if case_id == 2:
        q0 = q0 or prime_power(q)[0] ** (prime_power(q)[1] // 2)
        return q0 * (q0 * q0 + 1) // 2
    if case_id in (6, 7):
        if q0 is None or r is None:
            params = case_params(case_id, q)
            if len(params) != 1:
                raise ValueError("ambiguous (q0, r); pass them explicitly")
            q0, r = params[0]["q0"], params[0]["r"]
        return q0 ** (r - 1) * (q0 ** (2 * r) - 1) // (q0 * q0 - 1)
    raise ValueError(f"unknown case {case_id}")


def case_type_name(case_id: int, q: int, q0: int | None = None) -> str:
    p, f = prime_power(q)
    g = 2 if q % 2 else 1
    if case_id == 1:
        return f"C_{p}^{f}:C_{(q - 1) // g}"
    if case_id == 2:
        return f"PGL(2,{q0})"
    if case_id == 3:
        return "A_5"
    if case_id == 4:
        return "A_4"
    if case_id == 5:
        return "S_4"
    if case_id == 6:
        return f"PSL(2,{q0})"
    if case_id == 7:
        return f"PGL(2,{q0})"
    if case_id == 8:
        return f"D_{2 * (q - 1) // g}"
    if case_id == 9:
        return f"D_{2 * (q + 1) // g}"
    raise ValueError(f"unknown case {case_id}")


def make_descriptor(case_id: int, q: int, q0: int | None = None, r: int | None = None) -> SubgroupDescriptor:
    if case_id in (2, 6, 7) and q0 is None:
        params = case_params(case_id, q)
        if len(params) != 1:
            raise ValueError("ambiguous (q0, r); pass them explicitly")
        q0, r = params[0]["q0"], params[0]["r"]
    return SubgroupDescriptor(
        case_id,
        case_type_name(case_id, q, q0),
        index_formula(case_id, q, q0=q0, r=r),
        q0=q0,
        r=r,
    )


# ---------------------------------------------------------------------------
# explicit constructions
# ---------------------------------------------------------------------------


def subfield_indices(fld, q0: int) -> list[int]:
    """Element indices of the subfield of order q0 (fixed points of x -> x^q0)."""
    out = []
    for e in fld.enumerate():
        if fld.pow_t(e.coeffs, q0) == e.coeffs:
            out.append(fld.index_of(e.coeffs))
    if len(out) != q0:
        raise VerificationError("subfield-size", f"x -> x^{q0} fixes {len(out)} elements")
    return out


def _borel_ids(spec: GroupSpec, budget=None) -> np.ndarray:
    """The upper triangular elements: canonical rows with c = 0."""
    return np.flatnonzero(spec.element_array(budget)[:, 2] == 0)


def _subfield_ids(spec: GroupSpec, q0: int, projective: bool, budget=None) -> np.ndarray:
    """The elements with a matrix over the subfield of order q0.

    A canonical row has determinant 1, so its entries lie in the subfield
    exactly for the PSL(2,q0) image.  With `projective`, each row is first
    divided by its first nonzero entry, which selects every subfield
    matrix up to scalars: all of PGL(2,q0), which lies in PSL(2,q0^2)
    because subfield scalars are squares there.  The rows are tested one
    column at a time, each column only on the rows still kept."""
    rows = spec.element_array(budget)
    in_sub = np.zeros(spec.q, dtype=bool)
    in_sub[subfield_indices(spec.field, q0)] = True
    if projective:
        _, mul, _, inv = array_tables(spec.field)
        scale = inv[np.where(rows[:, 0] != 0, rows[:, 0], rows[:, 1])]
    keep = np.arange(len(rows))
    for col in range(4):
        entries = rows[keep, col]
        if projective:
            entries = mul[entries, scale[keep]]
        keep = keep[in_sub[entries]]
    return keep


_TRIANGLE_TARGET = {3: (5, 60), 4: (3, 12), 5: (4, 24)}  # case -> (|xy|, |subgroup|)


def _build_triangle(spec: GroupSpec, case_id: int):
    """A4 / S4 / A5 by deterministic generator search: the first pair
    (x, y) in canonical order with |x| = 2, |y| = 3, |xy| as required and
    closure of the right size."""
    ig = indexed_group(spec)
    orders = np.asarray(ig.orders())
    prod_order, size = _TRIANGLE_TARGET[case_id]
    threes = np.flatnonzero(orders == 3)
    for x in np.flatnonzero(orders == 2).tolist():
        for y in threes[orders[ig.mul_ids(x, threes)] == prod_order].tolist():
            ids = ig.closure_idx((x, y))
            if len(ids) == size:
                return ids
    # the subgroup exists whenever the case condition holds
    raise VerificationError("triangle-generators", f"no {size}-element <x, y> in {spec!r}")


def _build_dihedral(spec: GroupSpec, case_id: int):
    """Normalizer of a torus: cyclic part by element-order search, inverting
    involution by search."""
    q = spec.q
    g = 2 if q % 2 else 1
    m = (q - 1) // g if case_id == 8 else (q + 1) // g
    ig = indexed_group(spec)
    orders = np.asarray(ig.orders())
    x = int(np.argmax(orders == m))
    cyc = np.asarray(ig.closure_idx((x,)))
    members = ig.mask(cyc)
    ys = np.flatnonzero(orders == 2)
    if m != 2:
        ys = ys[~members[ys]]
    hits = ys[ig.conj_ids(x, ys) == ig.inv_idx(x)]
    if not hits.size:  # exists by structure
        raise VerificationError("inverting-involution", f"none for an order-{m} element of {spec!r}")
    y = int(hits[0])
    members[ig.mul_ids(cyc, y)] = True
    return np.flatnonzero(members)


def build_subgroup(descriptor: SubgroupDescriptor, spec: GroupSpec, budget: int | None = None) -> SubgroupHandle:
    """Explicit subgroup of PSL(2,q) for a Table-family descriptor."""
    if spec.kind != "PSL":
        raise ValueError("family constructors target the socle PSL(2,q)")
    case = descriptor.case_id
    q = spec.q
    if not case_condition(case, q, q0=descriptor.q0, r=descriptor.r):
        raise ValueError(f"case {case} condition violated at q = {q}")
    if spec.order > resolve_budget(budget):
        raise BudgetExceededError("group too large to enumerate")
    if case == 1:
        ids = _borel_ids(spec, budget)
    elif case in (2, 6, 7):
        ids = _subfield_ids(spec, descriptor.q0, case == 2, budget)
    elif case in (3, 4, 5, 8, 9):
        build = _build_triangle if case in (3, 4, 5) else _build_dihedral
        ids = build(spec, case)
    else:
        raise ValueError(f"unknown case {case}")
    handle = handle_from_ids(spec, ids, descriptor)
    if len(handle) * descriptor.claimed_index != spec.order:
        raise VerificationError(
            "subgroup-order",
            f"constructed order {len(handle)} inconsistent with claimed index "
            f"{descriptor.claimed_index} in {spec!r}",
        )
    return handle


def build_case(case_id: int, spec: GroupSpec, q0: int | None = None, r: int | None = None, budget=None) -> SubgroupHandle:
    return build_subgroup(make_descriptor(case_id, spec.q, q0=q0, r=r), spec, budget)


# ---------------------------------------------------------------------------
# set-level operations
# ---------------------------------------------------------------------------


def conjugate(handle: SubgroupHandle, g: int) -> SubgroupHandle:
    """H^g = g^-1 H g for the element with id g."""
    ig = indexed_group(handle.group)
    ids = np.sort(ig.conj_ids(np.asarray(handle.ids), g))
    return SubgroupHandle(handle.group, handle.descriptor, tuple(ids.tolist()))


def normalizer(handle: SubgroupHandle, spec: GroupSpec | None = None, budget=None) -> SubgroupHandle:
    """Set-level normalizer {g : H^g = H}."""
    spec = spec or handle.group
    ig = indexed_group(spec, budget)
    return handle_from_ids(spec, ig.transporter(ig.generators_of(handle.ids), handle.ids))


def _conj_maps(ig: IndexedGroup) -> list[np.ndarray]:
    """Conjugation by each element of the generating pair, as id maps."""
    ids = np.arange(ig.n)
    return [ig.conj_ids(ids, g).astype(np.intp) for g in ig.generating_pair()]


def _orbit(idxs: np.ndarray, conj_maps) -> dict[bytes, np.ndarray]:
    """The conjugates of a subgroup given as a sorted intp id array, keyed
    by their bytes, the subgroup itself first."""
    out = {idxs.tobytes(): idxs}
    for sub in (todo := [idxs]):
        for cm in conj_maps:
            img = np.sort(cm[sub])
            if out.setdefault(img.tobytes(), img) is img:
                todo.append(img)
    return out


def _class_handles(spec: GroupSpec, members) -> list[SubgroupHandle]:
    """Handles for one conjugacy class of subgroups, given as sorted id
    arrays: the first is recognized and the rest copy its descriptor (every
    structure `recognize` reads is a conjugacy invariant)."""
    handles = [SubgroupHandle(spec, None, tuple(ids.tolist())) for ids in members]
    desc = SubgroupDescriptor(None, recognize(handles[0]), spec.order // len(handles[0]))
    for h in handles:
        h.descriptor = desc
    return handles


def subgroup_classes(type_name: str, spec: GroupSpec, budget=None) -> list[list[SubgroupHandle]]:
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
    ig = indexed_group(spec, budget)
    orders = ig.orders()
    xs = [cls[0] for cls in ig.all_classes() if orders[cls[0]] == o1]
    ys = [i for i in range(ig.n) if orders[i] == o2]
    found: dict[bytes, np.ndarray] = {}
    for x in xs:
        for y in ys:
            idxs = ig.closure_idx((x, y))
            if len(idxs) == size:
                arr = np.asarray(idxs, dtype=np.intp)
                found.setdefault(arr.tobytes(), arr)
    conj_maps = _conj_maps(ig)
    classes: list[list[SubgroupHandle]] = []
    while found:
        orbit = _orbit(min(found.values(), key=tuple), conj_maps)
        for key in orbit:
            found.pop(key, None)
        cls = _class_handles(spec, list(orbit.values()))
        cls.sort(key=lambda h: h.ids)
        classes.append(cls)
    classes.sort(key=lambda c: c[0].ids)
    return classes


def small_index_subgroups(spec: GroupSpec, bound: int, budget=None) -> list[SubgroupHandle]:
    """Every 2-generated subgroup of index <= bound, by exhaustive closure
    of all generator sets of size <= 2.  A subgroup that needs three
    generators, such as the Sylow 2-subgroup E_8 of PSL(2,8), is missed.

    <x, y> depends only on (<x>, <y>) = (C_i, C_j), and some conjugate of
    it has C_i replaced by the representative of its class of cyclic
    subgroups.  For g in the normalizer N(C_i), <C_i, C_j^g> = <C_i, C_j>^g,
    so C_j need only run over the least member of each N(C_i)-orbit of
    cyclic subgroups.  Closing what is found under conjugation is then
    exhaustive.  Cyclic subgroups come from walking powers along the dense
    Cayley table, pair closures are breadth-first sweeps over its columns,
    and one subgroup per conjugacy class is recognized.
    """
    ig = indexed_group(spec, budget)
    n = ig.n
    cay = ig.cayley()
    cayT = np.ascontiguousarray(cay.T)
    ids = np.arange(n)
    orders = np.asarray(ig.orders())
    top = int(orders.max())
    powers = np.empty((n, top), dtype=np.intp)  # powers[i, k - 1] = i^k
    cur = ids
    for k in range(top):
        powers[:, k] = cur
        cur = cay[cur, ids]
    ks = np.arange(1, top + 1)
    is_gen = (ks <= orders[:, None]) & (np.gcd(ks, orders[:, None]) == 1)
    least_gen = np.where(is_gen, powers, n).min(axis=1)  # labels <i> by its least generator
    cyc_gen = np.flatnonzero(least_gen == ids)
    cyc_members = [np.sort(powers[g, : orders[g]]) for g in cyc_gen]
    cyc_index = np.full(n, -1, dtype=np.intp)
    cyc_index[cyc_gen] = np.arange(cyc_gen.size)

    def least_in_orbits(gens) -> np.ndarray:
        """Least cyclic subgroup of each orbit under conjugation by gens."""
        maps = [cyc_index[least_gen[ig.conj_ids(cyc_gen, g)]] for g in gens]
        lab = orbit_labels(maps, cyc_gen.size)
        return np.flatnonzero(lab == np.arange(cyc_gen.size))

    reps = least_in_orbits(ig.generating_pair())
    found = {cyc_members[c].tobytes(): cyc_members[c] for c in reps if n // cyc_members[c].size <= bound}
    for ci in reps.tolist():
        x = cyc_gen[ci]
        norm = np.flatnonzero(least_gen[ig.conj_ids(x, ids)] == x)
        col_i = cayT[x]
        for cj in least_in_orbits(ig.generators_of(norm)).tolist():
            if cj == ci:
                continue
            col_j = cayT[cyc_gen[cj]]
            member = np.zeros(n, dtype=bool)
            member[cyc_members[ci]] = member[cyc_members[cj]] = True
            frontier = np.flatnonzero(member)
            while frontier.size:
                new = np.zeros(n, dtype=bool)
                new[col_i[frontier]] = new[col_j[frontier]] = True
                new &= ~member
                member |= new
                frontier = np.flatnonzero(new)
            if n // member.sum() <= bound:
                idxs = np.flatnonzero(member)
                found.setdefault(idxs.tobytes(), idxs)
    conj_maps = _conj_maps(ig)
    closed: set[bytes] = set()
    handles: list[SubgroupHandle] = []
    for key, idxs in found.items():
        if key not in closed:
            orbit = _orbit(idxs, conj_maps)
            closed.update(orbit)
            handles += _class_handles(spec, list(orbit.values()))
    handles.sort(key=lambda h: (-len(h), h.ids))
    return handles


# ---------------------------------------------------------------------------
# structure recognition
# ---------------------------------------------------------------------------


def two_generated_abelian_subgroups(spec: GroupSpec, budget=None) -> list[SubgroupHandle]:
    """Every subgroup generated by a commuting pair (hence every abelian
    subgroup whose rank is at most 2, which covers all abelian subgroups
    of PSL(2,q) for f <= 2)."""
    ig = indexed_group(spec, budget)
    cay = ig.cayley()
    sym = cay == cay.T
    found: dict[frozenset, tuple[int, ...]] = {}
    n = ig.n
    for i in range(n):
        row = sym[i]
        for j in range(i, n):
            if row[j]:
                idxs = ig.closure_idx((i, j))
                found.setdefault(frozenset(idxs), idxs)
    handles = [handle_from_ids(spec, idxs) for idxs in found.values()]
    handles.sort(key=lambda h: (len(h), h.ids))
    return handles


def _ids_and_orders(handle: SubgroupHandle):
    """(indexed group, member ids, their element orders) as arrays."""
    ig = indexed_group(handle.group)
    ids = np.asarray(handle.ids)
    return ig, ids, np.asarray(ig.orders())[ids]


def order_profile(handle: SubgroupHandle) -> Counter:
    return Counter(_ids_and_orders(handle)[2].tolist())


def is_abelian(handle: SubgroupHandle) -> bool:
    ig = indexed_group(handle.group)
    ids = np.asarray(handle.ids)
    prod = ig.mul_ids(ids[:, None], ids)
    return bool((prod == prod.T).all())


def is_cyclic(handle: SubgroupHandle) -> bool:
    return max(order_profile(handle)) == len(handle)


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


def is_dihedral(handle: SubgroupHandle) -> bool:
    """Dihedral of order 2m, m >= 2 (the Klein group counts as D_4)."""
    n = len(handle)
    if n % 2 or n < 4:
        return False
    ig, ids, orders = _ids_and_orders(handle)
    xs = ids[orders == n // 2]
    if not xs.size:
        return False
    x = int(xs[0])
    ys = ids[(orders == 2) & ~ig.mask(ig.closure_idx((x,)))[ids]]
    return bool((ig.conj_ids(x, ys) == ig.inv_idx(x)).any())


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


# ---------------------------------------------------------------------------
# the classical subgroup catalog of PGL(2,q), q odd
# ---------------------------------------------------------------------------


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
    ig, ids, orders = _ids_and_orders(handle)
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
                        cur = ig.mul_idx(cur, h)
                        kk += 1
                    if kk == d:
                        return "(x) E_{p^m}:C_d"
    return None


def dihedral_involution_count(order: int) -> int:
    """Number of involutions in the dihedral group of the given order."""
    if order % 2 or order < 2:
        raise ValueError("dihedral groups have even order >= 2")
    m = order // 2
    if m == 1:
        return 1
    return m + 1 if m % 2 == 0 else m
