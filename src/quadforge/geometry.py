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
pair.  `fixed_count` reads an element's fixed points off class data.
`export_incidence` writes the incidence file and `parse_incidence` reads
one back, re-checking the counts, the degrees and the axioms.

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

    def flag_count(self) -> int:
        return sum(_popcount(r) for r in self.rows)


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
# fixed points
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


# ---------------------------------------------------------------------------
# incidence file format
# ---------------------------------------------------------------------------


def export_incidence(geom: IncidenceGeometry, stream, s: int, t: int) -> None:
    """Plain-text incidence list: header `GQ |P| |L| s t`, then one
    0-indexed `p l` pair per line, sorted, newline-terminated.  The caller
    gives the order it verified; `parse_incidence` re-checks it."""
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
