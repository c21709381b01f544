"""Coset geometries and generalized-quadrangle verification.

The model: fix subgroups M0 (point stabilizer) and M1 (line stabilizer)
of an enumerated group G.  Points are right cosets M0x, lines are right
cosets M1y, and incidence is governed by a union D of (M0, M1)-double
cosets: M0x is incident with M1y exactly when x y^-1 lies in D.  Right
multiplication by G then permutes points and lines preserving incidence,
with D recovering which points lie on the base line.

`check_gq` verifies the quadrangle axioms outright: constant line size
and point degree, no two points on two common lines, and the
one-collinear-point axiom tested over every non-incident point-line
pair.  `fixed_structure` computes the fixed substructure of an
automorphism and sorts it into the eight possible shapes (empty,
noncollinear points / dual, cone over a point / dual, grid / dual grid,
or a subquadrangle), testing in that fixed order.

Double coset members and coset labels are the kernel's numpy arrays;
incidence is stored as per-point and per-line bitmasks, and geometries at
the scales this module enumerates stay small (thousands of cosets).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import VerificationError
from .psl2 import GroupSpec, _blocks, indexed_group
from .subgroups import SubgroupHandle


class DoubleCoset(NamedTuple):
    """One M0 h M1 with its size, |M1 ^ h^-1 M0 h| and read-only member id array."""

    rep: int  # element index of h (least member)
    size: int
    meet_order: int
    members: np.ndarray

    def __repr__(self):  # without the members, which run to thousands of ids
        return f"DoubleCoset(rep={self.rep}, size={self.size}, meet_order={self.meet_order})"


class GQVerdict(NamedTuple):
    is_gq: bool
    s: int | None
    t: int | None
    thick: bool
    violation: str | None = None


class FixedStructure(NamedTuple):
    fixed_points: tuple[int, ...]
    fixed_lines: tuple[int, ...]
    kind: str  # one of "0", "1", "1'", "2", "2'", "3", "3'", "4"
    params: tuple = ()


def _popcount(x: int) -> int:
    return bin(x).count("1")


def _bitmasks(matrix) -> list[int]:
    """Each row of a boolean matrix as an int with bit j set for column j."""
    packed = np.packbits(matrix, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def double_cosets(
    M0: SubgroupHandle, M1: SubgroupHandle, spec: GroupSpec | None = None
) -> list[DoubleCoset]:
    """The (M0, M1)-double coset decomposition of the whole group.

    Returned in order of least representative; sizes sum to |G| and each
    size equals |M0||M1| / |M1 ^ h^-1 M0 h|.  Each representative is the
    first id still free, found by `bytearray.find` from the last one on.
    """
    spec = spec or M0.group
    ig = indexed_group(spec)
    m0, m1 = np.asarray(M0.ids), np.asarray(M1.ids)
    free = bytearray(b"\x01") * ig.n  # marked through a numpy view, searched in C
    out, g, both = [], 0, len(m0) * len(m1)
    while g >= 0:  # -1 once every id is covered
        full = np.flatnonzero(ig.mask(ig.mul_ids(ig.mul_ids(m0, g)[:, None], m1)))
        full.flags.writeable = False
        np.frombuffer(free, dtype=bool)[full] = False
        if both % full.size:
            raise VerificationError(
                "double-coset-size", f"size {full.size} does not divide |M0||M1| = {both}"
            )
        out.append(DoubleCoset(g, full.size, both // full.size, full))
        g = free.find(1, g + 1)
    covered = sum(dc.size for dc in out)
    if covered != ig.n:
        raise VerificationError("double-coset-partition", f"sizes sum to {covered}, |G| = {ig.n}")
    return out


def line_size_profile(
    decomposition: list[DoubleCoset], selection, M0: SubgroupHandle, M1: SubgroupHandle
):
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


class IncidenceGeometry:
    """Points and lines as cosets of M0, M1 with double-coset incidence.

    `cosets`, the pair (ig.coset_labels(M0.ids), ig.coset_labels(M1.ids)),
    lets geometries on the same (M0, M1) share one labelling."""

    def __init__(
        self,
        M0: SubgroupHandle,
        M1: SubgroupHandle,
        selection,
        spec: GroupSpec | None = None,
        decomposition: list[DoubleCoset] | None = None,
        cosets=None,
    ):
        spec = spec or M0.group
        self.spec = spec
        self.ig = indexed_group(spec)
        self.M0 = M0
        self.M1 = M1
        if decomposition is None:
            decomposition = double_cosets(M0, M1, spec)
        self.decomposition = decomposition
        self.selection = tuple(sorted(selection))
        ig = self.ig
        if cosets is None:
            cosets = ig.coset_labels(M0.ids), ig.coset_labels(M1.ids)
        (self.point_label, self.point_reps), (self.line_label, self.line_reps) = cosets
        self.n_points = len(self.point_reps)
        self.n_lines = len(self.line_reps)
        in_d = np.zeros(ig.n, dtype=bool)
        for i in self.selection:
            in_d[decomposition[i].members] = True
        self.d_size = int(in_d.sum())
        # M0x lies on M1y exactly when x y^-1 is in D: products of a block
        # of points with every line at a time
        line_rep_inv = ig.inverses()[self.line_reps]
        inc = np.empty((self.n_points, self.n_lines), dtype=bool)
        for rows in _blocks(self.n_points, self.n_lines):
            inc[rows] = in_d[ig.mul_ids(self.point_reps[rows, None], line_rep_inv)]
        self.rows = _bitmasks(inc)
        self.cols = _bitmasks(inc.T)
        self.base_point = int(self.point_label[ig.e])
        self.base_line = int(self.line_label[ig.e])
        self._coll: list[int] | None = None

    def incident(self, p: int, l: int) -> bool:
        return bool(self.rows[p] >> l & 1)

    def flag_count(self) -> int:
        return sum(_popcount(r) for r in self.rows)

    def collinearity_masks(self) -> list[int]:
        """coll[p]: bitmask of points sharing at least one line with p
        (p itself excluded)."""
        if self._coll is None:
            self._coll = _collinearity(self.rows, self.cols)
        return self._coll

    def collinear(self, p: int, q: int) -> bool:
        return bool(self.collinearity_masks()[p] >> q & 1)

    def point_image(self, p: int, g_idx: int) -> int:
        return int(self.point_label[self.ig.mul_idx(self.point_reps[p], g_idx)])

    def point_action(self, g: int) -> list[int]:
        """Image of every point under the element with id g."""
        return self.point_label[self.ig.mul_ids(self.point_reps, g)].tolist()

    def line_action(self, g: int) -> list[int]:
        """Image of every line under the element with id g."""
        return self.line_label[self.ig.mul_ids(self.line_reps, g)].tolist()

    def preserves_incidence(self, g: int) -> bool:
        pa = self.point_action(g)
        la = self.line_action(g)
        for p, row in enumerate(self.rows):
            r = row
            while r:
                l = (r & -r).bit_length() - 1
                if not self.incident(pa[p], la[l]):
                    return False
                r &= r - 1
        return True


# ---------------------------------------------------------------------------
# quadrangle axioms
# ---------------------------------------------------------------------------


def _collinearity(rows, cols) -> list[int]:
    """Per point, the bitmask of the other points on its lines."""
    coll = []
    for p, row in enumerate(rows):
        mask = 0
        r = row
        while r:
            l = (r & -r).bit_length() - 1
            mask |= cols[l]
            r &= r - 1
        coll.append(mask & ~(1 << p))
    return coll


def _check_axioms(rows, cols, n_points, n_lines) -> GQVerdict:
    if n_points == 0 or n_lines == 0:
        return GQVerdict(False, None, None, False, "empty point or line set")
    line_sizes = {_popcount(c) for c in cols}
    if len(line_sizes) != 1:
        return GQVerdict(False, None, None, False, "line sizes are not constant")
    degrees = {_popcount(r) for r in rows}
    if len(degrees) != 1:
        return GQVerdict(False, None, None, False, "point degrees are not constant")
    s = line_sizes.pop() - 1
    t = degrees.pop() - 1
    if s < 1 or t < 1:
        return GQVerdict(False, s, t, False, "degenerate: s or t below 1")
    for i in range(n_points):
        ri = rows[i]
        for j in range(i + 1, n_points):
            if _popcount(ri & rows[j]) > 1:
                return GQVerdict(
                    False, s, t, False, f"points {i},{j} lie on two common lines"
                )
    coll = _collinearity(rows, cols)
    for p in range(n_points):
        for l in range(n_lines):
            if rows[p] >> l & 1:
                continue
            hits = _popcount(cols[l] & coll[p])
            if hits != 1:
                return GQVerdict(
                    False,
                    s,
                    t,
                    False,
                    f"non-incident pair (point {p}, line {l}) sees {hits} "
                    "collinear points on the line",
                )
    return GQVerdict(True, s, t, s >= 2 and t >= 2, None)


def check_gq(geom: IncidenceGeometry) -> GQVerdict:
    """Full axiom check; returns the order (s,t) or the first violation."""
    return _check_axioms(geom.rows, geom.cols, geom.n_points, geom.n_lines)


def find_gq_selections(
    M0: SubgroupHandle, M1: SubgroupHandle, spec: GroupSpec | None = None
):
    """Every selection of double cosets whose geometry passes the axioms.

    Cosets are ordered by intersection size descending and subsets are
    tried smallest-first, so the first hit is the canonical one; the
    search still enumerates all passing selections.  The points and lines
    are labelled once, and every geometry tried shares the labels.
    """
    spec = spec or M0.group
    decomposition = double_cosets(M0, M1, spec)
    ig = indexed_group(spec)
    cosets = ig.coset_labels(M0.ids), ig.coset_labels(M1.ids)
    order = sorted(
        range(len(decomposition)),
        key=lambda i: (-decomposition[i].meet_order, decomposition[i].rep),
    )
    hits = []
    for size in range(1, len(order) + 1):
        from itertools import combinations

        for combo in combinations(order, size):
            geom = IncidenceGeometry(M0, M1, combo, spec, decomposition, cosets)
            verdict = check_gq(geom)
            if verdict.is_gq:
                hits.append((tuple(sorted(combo)), verdict, geom))
    return hits


# ---------------------------------------------------------------------------
# fixed substructures
# ---------------------------------------------------------------------------


def fixed_count(n_omega: int, class_size: int, class_meet_stabilizer: int) -> int:
    """Fixed points of a transitive action from class data:
    |Omega| * |g^G ^ G_alpha| / |g^G|.  Errors on a non-integral value."""
    if class_size <= 0:
        raise ValueError("class size must be positive")
    num = n_omega * class_meet_stabilizer
    if num % class_size:
        raise ValueError(
            f"non-integral fixed count {num}/{class_size}: inconsistent inputs"
        )
    return num // class_size


def _induced(geom: IncidenceGeometry, fp, fl):
    """Incidence of the fixed substructure, reindexed densely."""
    rows = []
    for p in fp:
        row = 0
        for k, l in enumerate(fl):
            if geom.incident(p, l):
                row |= 1 << k
        rows.append(row)
    cols = [0] * len(fl)
    for i, row in enumerate(rows):
        r = row
        while r:
            k = (r & -r).bit_length() - 1
            cols[k] |= 1 << i
            r &= r - 1
    return rows, cols


def _grid_params(rows, cols):
    """(s1, s2) with s1 <= s2 if the substructure is a grid, else None."""
    n_points, n_lines = len(rows), len(cols)
    if n_points == 0 or n_lines < 2:
        return None
    if any(_popcount(r) != 2 for r in rows):
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
            if _popcount(cols[la] & cols[lb]) != 1:
                return None
    if n_points != len(fam_a) * len(fam_b):
        return None
    if any(_popcount(cols[l]) != len(fam_b) for l in fam_a):
        return None
    if any(_popcount(cols[l]) != len(fam_a) for l in fam_b):
        return None
    s1, s2 = sorted((len(fam_a) - 1, len(fam_b) - 1))
    return s1, s2


def fixed_structure(g: int, geom: IncidenceGeometry) -> FixedStructure:
    """Fixed points/lines of the element with id g, with their shape.

    The eight shapes are tested in the fixed order 0, 1, 1', 2, 2', 3,
    3', 4, and the first match is returned, so the answer is unique even
    for shapes whose defining conditions overlap.
    """
    pa = geom.point_action(g)
    la = geom.line_action(g)
    fp = tuple(p for p in range(geom.n_points) if pa[p] == p)
    fl = tuple(l for l in range(geom.n_lines) if la[l] == l)
    if not fp and not fl:
        return FixedStructure(fp, fl, "0")
    coll = geom.collinearity_masks()
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
    fp_mask = 0
    for p in fp:
        fp_mask |= 1 << p
    fl_mask = 0
    for l in fl:
        fl_mask |= 1 << l
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
    if geom.point_image(base, g) != base:
        raise ValueError("base point is not fixed by g")
    fixed = {p for p, image in enumerate(geom.point_action(g)) if image == p}
    orbit = geom.point_label[geom.ig.mul_ids(geom.point_reps[base], subgroup.ids)]
    return set(orbit.tolist()) == fixed


# ---------------------------------------------------------------------------
# incidence file format
# ---------------------------------------------------------------------------


def export_incidence(geom: IncidenceGeometry, stream, s: int | None = None, t: int | None = None) -> None:
    """Plain-text incidence list: header `GQ |P| |L| s t`, then one
    0-indexed `p l` pair per line, sorted, newline-terminated."""
    if s is None or t is None:
        verdict = check_gq(geom)
        if not verdict.is_gq:
            raise ValueError(f"not a generalized quadrangle: {verdict.violation}")
        s, t = verdict.s, verdict.t
    stream.write(f"GQ {geom.n_points} {geom.n_lines} {s} {t}\n")
    for p in range(geom.n_points):
        r = geom.rows[p]
        while r:
            l = (r & -r).bit_length() - 1
            stream.write(f"{p} {l}\n")
            r &= r - 1


def parse_incidence(stream):
    """Inverse of export_incidence: (n_points, n_lines, s, t, pairs).

    What is read is re-verified: (s+1)(st+1) points and (t+1)(st+1)
    lines, no flag twice, t+1 lines on every point and s+1 points on
    every line, and the quadrangle axioms."""
    header = stream.readline().split()
    if len(header) != 5 or header[0] != "GQ":
        raise ValueError("bad incidence header")
    n_points, n_lines, s, t = map(int, header[1:])
    if (n_points, n_lines) != ((s + 1) * (s * t + 1), (t + 1) * (s * t + 1)):
        raise ValueError(f"{n_points} points, {n_lines} lines do not fit order ({s},{t})")
    rows, cols = [0] * n_points, [0] * n_lines
    pairs = []
    for line in stream:
        line = line.strip()
        if not line:
            continue
        p, l = map(int, line.split())
        if not (0 <= p < n_points and 0 <= l < n_lines):
            raise ValueError("incidence pair out of range")
        if rows[p] >> l & 1:
            raise ValueError(f"flag ({p}, {l}) listed twice")
        rows[p] |= 1 << l
        cols[l] |= 1 << p
        pairs.append((p, l))
    if any(_popcount(r) != t + 1 for r in rows) or any(_popcount(c) != s + 1 for c in cols):
        raise ValueError(f"not every point on {t + 1} lines and every line on {s + 1} points")
    verdict = _check_axioms(rows, cols, n_points, n_lines)
    if not verdict.is_gq:
        raise ValueError(f"not a generalized quadrangle: {verdict.violation}")
    return n_points, n_lines, s, t, pairs
