"""Maximal-subgroup constructors for PSL(2,q).

Covers the nine maximal-subgroup families (Borel, subfield PGL/PSL,
A4/S4/A5, and the two dihedral normalizers of tori), the ten sporadic
(G, M, M0) triples where M0 is not maximal in the socle, the order
profile and the cyclic and dihedral checks that the table rows read, and
the search for every 2-generated subgroup of small index.  Structure
recognition, which no engine path reads, lives in `tests/oracle.py`.

A subgroup is stored as the sorted ids of its members in the group's
`IndexedGroup` (ids follow the canonical element order).  The Borel and
subfield constructors select ids from the element array (the rows with
c = 0, or with every entry in the subfield, for PGL(2,q0) after dividing
by the first nonzero entry), A4/S4/A5 come from a deterministic
generator-pair search (first witness in canonical element order), and
the dihedral cases take a maximal-order torus element together with an
inverting involution.  A handle holds only the group and the ids; its
index is |G| / |H|.
"""

from __future__ import annotations

import functools
from collections import Counter

import numpy as np

from ._ints import factorize, prime_power
from .errors import VerificationError
from .psl2 import (
    GroupSpec,
    IndexedGroup,
    _blocks,
    indexed_group,
    orbit_labels,
)


# ---------------------------------------------------------------------------
# handles
# ---------------------------------------------------------------------------

# Slots records share these: equality field by field, and for the immutable
# ones a hash of the fields and no assignment after __init__.


def _fields(rec) -> tuple:
    return tuple(getattr(rec, name) for name in rec.__slots__)


def _fields_eq(rec, other):
    return _fields(rec) == _fields(other) if type(other) is type(rec) else NotImplemented


def _fields_hash(rec) -> int:
    return hash(_fields(rec))


def _frozen(rec, name, value=None):
    raise AttributeError(f"cannot assign to field {name!r}")


class SubgroupHandle:
    """Explicit subgroup: its members as sorted ids of the group's
    `IndexedGroup`.  Handles are equal when group and ids agree."""

    __slots__ = ("group", "ids")
    __eq__, __hash__ = _fields_eq, None

    def __init__(self, group: GroupSpec, ids: tuple[int, ...]):
        self.group, self.ids = group, ids

    def __len__(self):
        return len(self.ids)

    def idx_set(self, ig: IndexedGroup | None = None) -> tuple[int, ...]:
        """`ids`, for callers that still pass the indexed group
        (`perfbench/unit.py`)."""
        return self.ids

    def __repr__(self):
        return f"<subgroup of order {len(self)} in {self.group!r}, index {self.group.order // len(self)}>"


def handle_from_ids(spec: GroupSpec, ids) -> SubgroupHandle:
    """Handle of the subgroup with these member ids, sorted and deduplicated;
    their count must divide |G|."""
    ids = tuple(np.flatnonzero(indexed_group(spec).mask(ids)).tolist())
    if not ids or spec.order % len(ids):
        raise ValueError("element count does not divide the group order")
    return SubgroupHandle(spec, ids)


# ---------------------------------------------------------------------------
# the sporadic (G, M, M0) triples
# ---------------------------------------------------------------------------


class SporadicTriple:
    """One (G, M0, M) row; immutable, equal and hashed by its fields."""

    __slots__ = ("group", "m0_type", "m_type", "index", "condition")
    __eq__, __hash__, __setattr__, __delattr__ = _fields_eq, _fields_hash, _frozen, _frozen

    def __init__(self, group: str, m0_type: str, m_type: str, index: int | None, condition: str = ""):
        # index is None for the parametric final row
        for name, value in zip(self.__slots__, (group, m0_type, m_type, index, condition)):
            object.__setattr__(self, name, value)


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


def _decompose(q: int, q0: int | None = None, r: int | None = None):
    """(p, f) with q = p**f, or None.  When q = q0^r, q is decomposed
    through q0, so a q past the prime-power index needs no factorization."""
    if q0 is not None and r is not None and r > 0 and q0**r == q:
        pf = prime_power(q0)
        return pf and (pf[0], pf[1] * r)
    return prime_power(q)


def case_condition(case_id: int, q: int, q0: int | None = None, r: int | None = None) -> bool:
    """Does (case_id, q) satisfy the admissibility condition of the family?

    Cases 2, 6, 7 are parametrized by (q0, r), their decompositions
    q = q0^r as `subfield_pairs` lists them: a q0 or r that is given must
    match one listed pair, and with neither any listed pair counts.
    """
    pf = _decompose(q, q0, r)
    return pf is not None and case_condition_at(case_id, q, *pf, q0=q0, r=r)


# the conditions of the families that depend on (q, p, f) alone, written
# with & | == != so that they evaluate on Python ints and elementwise on
# integer arrays alike (`case_condition_at` adds q >= 4)
_ELEMENTWISE_CONDITIONS = {
    1: lambda q, p, f: True,
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


def subfield_pairs(
    case_id: int, p: int, f: int, q0: int | None = None, r: int | None = None
) -> list[tuple[int, int]]:
    """The (q0, r) with q = q0^r = p^f that subfield family 2, 6 or 7
    admits, by ascending r, keeping those that match a q0 or r given:
    PGL(2,q0) for q = q0^2 odd (case 2), PSL(2,q0) for q odd and r an odd
    prime (case 6), and for q even and r a prime with q0 != 2 (case 7)."""
    if case_id == 2:
        rs = (2,) if p % 2 and f % 2 == 0 else ()
    elif case_id == 6:
        rs = [rr for rr in _prime_divisors(f) if rr % 2] if p % 2 else ()
    elif case_id == 7:
        rs = [rr for rr in _prime_divisors(f) if f // rr >= 2] if p == 2 else ()
    else:
        raise ValueError(f"case {case_id} is not a subfield family")
    pairs = [(p ** (f // rr), rr) for rr in rs]
    return [(a, b) for a, b in pairs if q0 in (None, a) and r in (None, b)]


def case_condition_at(
    case_id: int, q: int, p: int, f: int, q0: int | None = None, r: int | None = None
) -> bool:
    """`case_condition` at q = p**f, for a scan that already holds (p, f).

    For cases 1, 3, 4, 5, 8 and 9, q, p and f may also be equal-length
    integer arrays; the answer is then a boolean mask."""
    if case_id in _ELEMENTWISE_CONDITIONS:
        return (q >= 4) & _ELEMENTWISE_CONDITIONS[case_id](q, p, f)
    if case_id in (2, 6, 7):
        return bool(subfield_pairs(case_id, p, f, q0, r))
    raise ValueError(f"unknown case {case_id}")


def case_params(case_id: int, q: int, q0: int | None = None, r: int | None = None) -> list[dict]:
    """All admissible parameter choices for (case_id, q): [] if the case
    does not apply, [{}] for unparametrized cases, else one {'q0','r'} per
    pair of `subfield_pairs` that matches a q0 or r given."""
    if case_id not in (2, 6, 7):
        return [{}] if case_condition(case_id, q) else []
    pf = _decompose(q, q0, r)
    return [{"q0": a, "r": b} for a, b in (subfield_pairs(case_id, *pf, q0, r) if pf else ())]


def _subfield_params(case_id: int, q: int, q0: int | None, r: int | None) -> tuple[int, int]:
    """The one (q0, r) of `case_params` that matches the q0 and r given;
    raises ValueError when none does, or more than one."""
    params = case_params(case_id, q, q0, r)
    if not params:
        raise ValueError(f"case {case_id} condition violated at q = {q}")
    if len(params) > 1:
        raise ValueError("ambiguous (q0, r); pass them explicitly")
    return params[0]["q0"], params[0]["r"]


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
    """Exact index in PSL(2,q) of the case's maximal subgroup.  Cases 2, 6
    and 7 need (q0, r) only where q = q0^r in more than one way."""
    if case_id in (2, 6, 7):
        q0, r = _subfield_params(case_id, q, q0, r)
        # |PSL(2,q)| / |PSL(2,q0)|, halved for PGL(2,q0)
        return q0 ** (r - 1) * (q0 ** (2 * r) - 1) // (q0 * q0 - 1) // (2 if case_id == 2 else 1)
    if not case_condition(case_id, q, q0=q0, r=r):
        raise ValueError(f"case {case_id} condition violated at q = {q}")
    return Q_INDEX[case_id](q)


# ---------------------------------------------------------------------------
# explicit constructions
# ---------------------------------------------------------------------------


def subfield_indices(fld, q0: int) -> list[int]:
    """Element indices of the subfield of order q0: the fixed points of
    x -> x^q0, every element raised at once by square-and-multiply over
    the field's MUL table."""
    mul = fld.array_tables()[1]
    ids = np.arange(fld.q)
    power, square, n = np.full(fld.q, fld.one.index), ids, q0
    while n:
        if n & 1:
            power = mul[power, square]
        square, n = mul[square, square], n >> 1
    out = np.flatnonzero(power == ids).tolist()
    if len(out) != q0:
        raise VerificationError("subfield-size", f"x -> x^{q0} fixes {len(out)} elements")
    return out


def _borel_ids(spec: GroupSpec) -> np.ndarray:
    """The upper triangular elements: canonical rows with c = 0."""
    return np.flatnonzero(indexed_group(spec).elements[:, 2] == 0)


def _subfield_ids(spec: GroupSpec, q0: int, projective: bool) -> np.ndarray:
    """The elements with a matrix over the subfield of order q0.

    A canonical row has determinant 1, so its entries lie in the subfield
    exactly for the PSL(2,q0) image.  With `projective`, each row is first
    divided by its first nonzero entry, which selects every subfield
    matrix up to scalars: all of PGL(2,q0), which lies in PSL(2,q0^2)
    because subfield scalars are squares there.  The rows are tested one
    column at a time, each column only on the rows still kept."""
    ig = indexed_group(spec)
    rows, (_, mul, _, inv, _) = ig.elements, ig.tables
    in_sub = np.zeros(spec.q, dtype=bool)
    in_sub[subfield_indices(spec.field, q0)] = True
    if projective:
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
    orders = ig.orders()
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
    orders = ig.orders()
    x = int(np.argmax(orders == m))
    cyc = ig.closure_idx((x,))
    members = ig.mask(cyc)
    ys = np.flatnonzero(orders == 2)
    if m != 2:
        ys = ys[~members[ys]]
    xy = ig.mul_ids(x, ys)
    hits = ys[ig.mul_ids(xy, xy) == ig.e]  # an involution y inverts x iff (xy)^2 = 1
    if not hits.size:  # exists by structure
        raise VerificationError("inverting-involution", f"none for an order-{m} element of {spec!r}")
    y = int(hits[0])
    members[ig.mul_ids(cyc, y)] = True
    return np.flatnonzero(members)


def build_case(case_id: int, spec: GroupSpec, q0: int | None = None, r: int | None = None) -> SubgroupHandle:
    """The case's maximal subgroup of PSL(2,q), its order checked against
    `index_formula`.  Cases 2, 6 and 7 resolve (q0, r) as `index_formula`
    does, so a q0 or r outside the family raises ValueError before any id
    is selected."""
    q = spec.q
    if case_id in (2, 6, 7):
        q0, r = _subfield_params(case_id, q, q0, r)
    index = index_formula(case_id, q, q0=q0, r=r)  # raises outside the family
    if spec.kind != "PSL":
        raise ValueError("family constructors target the socle PSL(2,q)")
    if case_id == 1:
        ids = _borel_ids(spec)
    elif case_id in (2, 6, 7):
        ids = _subfield_ids(spec, q0, case_id == 2)
    else:
        ids = (_build_triangle if case_id in (3, 4, 5) else _build_dihedral)(spec, case_id)
    if len(ids) * index != spec.order:
        raise VerificationError(
            "subgroup-order",
            f"constructed order {len(ids)} inconsistent with claimed index {index} in {spec!r}",
        )
    return handle_from_ids(spec, ids)


# ---------------------------------------------------------------------------
# set-level operations
# ---------------------------------------------------------------------------


def _orbit(idxs: np.ndarray, conj_maps) -> dict[bytes, np.ndarray]:
    """The conjugates of a subgroup given as a sorted intp id array, keyed
    by their bytes, the subgroup itself first; the int32 images under the
    maps `conj_maps` are widened to intp, so that equal sets share a key."""
    out = {idxs.tobytes(): idxs}
    for sub in (todo := [idxs]):
        for cm in conj_maps:
            img = np.sort(cm[sub]).astype(np.intp)
            if out.setdefault(img.tobytes(), img) is img:
                todo.append(img)
    return out


def small_index_subgroups(spec: GroupSpec, bound: int) -> list[SubgroupHandle]:
    """Every 2-generated subgroup of index <= bound, by exhaustive closure
    of all generator sets of size <= 2.  A subgroup that needs three
    generators, such as the Sylow 2-subgroup E_8 of PSL(2,8), is missed.

    <x, y> depends only on (<x>, <y>) = (C_i, C_j), and some conjugate of
    it has C_i replaced by the representative of its class of cyclic
    subgroups.  For g in the normalizer N(C_i), <C_i, C_j^g> = <C_i, C_j>^g,
    so C_j need only run over the least member of each N(C_i)-orbit of
    cyclic subgroups.  Closing what is found under conjugation is then
    exhaustive.  <i> is labelled by its least generator, over a walk of
    powers with `mul_ids` that keeps only the labels' powers; the pair
    closures run side by side, one layer of n ids per pair, in
    `IndexedGroup._grow` sweeps over blocks of about _CHUNK states.
    """
    ig = indexed_group(spec)
    n = ig.n
    ids = np.arange(n)
    orders = ig.orders()
    top = int(orders.max())
    least_gen, cur = ids.copy(), ids  # labels <i> by its least generator
    for k in range(2, top + 1):  # past |i|, i^k repeats a power already seen
        cur = ig.mul_ids(ids, cur)  # i^k
        np.minimum(least_gen, cur, out=least_gen, where=np.gcd(k, orders) == 1)
    cyc_gen = np.flatnonzero(least_gen == ids)
    powers = np.empty((top, cyc_gen.size), dtype=np.intp)  # powers[k - 1, c] = cyc_gen[c]^k
    powers[0] = cyc_gen
    for k in range(1, top):
        powers[k] = ig.mul_ids(cyc_gen, powers[k - 1])
    cyc_members = [np.sort(powers[:o, c]) for c, o in enumerate(orders[cyc_gen].tolist())]
    del powers
    cyc_index = np.full(n, -1, dtype=np.int32)  # maps of cyclic subgroups at id width
    cyc_index[cyc_gen] = np.arange(cyc_gen.size)

    def least_in_orbits(gens) -> np.ndarray:
        """Least cyclic subgroup of each orbit under conjugation by gens."""
        maps = [cyc_index[least_gen[ig.conj_ids(cyc_gen, g)]] for g in gens]
        lab = orbit_labels(maps, cyc_gen.size)
        return np.flatnonzero(lab == np.arange(cyc_gen.size))

    reps = least_in_orbits(ig.generating_pair())
    found = {cyc_members[c].tobytes(): cyc_members[c] for c in reps if n // cyc_members[c].size <= bound}
    pairs = []
    for ci in reps.tolist():
        x = cyc_gen[ci]
        norm = np.flatnonzero(least_gen[ig.conj_ids(x, ids)] == x)
        pairs += [(ci, cj) for cj in least_in_orbits(ig.generators_of(norm)).tolist() if cj != ci]
    pairs = np.array(pairs, dtype=np.intp).reshape(-1, 2)
    for block in _blocks(len(pairs), n):
        chunk = pairs[block]
        known = np.zeros(len(chunk) * n, dtype=bool)
        seeds = [layer * n + cyc_members[c] for layer, pair in enumerate(chunk.tolist()) for c in pair]
        ig._grow(known, np.concatenate(seeds), cyc_gen[chunk])
        for member in known.reshape(-1, n):
            if n // np.count_nonzero(member) <= bound:
                idxs = np.flatnonzero(member)
                found.setdefault(idxs.tobytes(), idxs)
    conj_maps = ig.conj_maps()
    closed: set[bytes] = set()
    handles: list[SubgroupHandle] = []
    for key, idxs in found.items():
        if key not in closed:
            orbit = _orbit(idxs, conj_maps)
            closed.update(orbit)
            handles += [SubgroupHandle(spec, tuple(ids.tolist())) for ids in orbit.values()]
    handles.sort(key=lambda h: (-len(h), h.ids))
    return handles


# ---------------------------------------------------------------------------
# structure checks
# ---------------------------------------------------------------------------


def _ids_and_orders(handle: SubgroupHandle):
    """(indexed group, member ids, their element orders) as arrays."""
    ig = indexed_group(handle.group)
    ids = np.asarray(handle.ids)
    return ig, ids, ig.orders()[ids]


def order_profile(handle: SubgroupHandle) -> Counter:
    return Counter(_ids_and_orders(handle)[2].tolist())


def is_cyclic(handle: SubgroupHandle) -> bool:
    return max(order_profile(handle)) == len(handle)


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
    xy = ig.mul_ids(x, ys)
    return bool((ig.mul_ids(xy, xy) == ig.e).any())  # an involution y inverts x iff (xy)^2 = 1


def dihedral_involution_count(order: int) -> int:
    """Number of involutions in the dihedral group of the given order."""
    if order % 2 or order < 2:
        raise ValueError("dihedral groups have even order >= 2")
    m = order // 2
    if m == 1:
        return 1
    return m + 1 if m % 2 == 0 else m
