"""PSL(2,q) and PGL(2,q) with integer element ids.

An element is a 2x2 matrix over GF(q) up to scalars, with a unique
canonical form:

* PGL: scaled so the first nonzero entry in reading order (a,b,c,d) is 1.
* PSL: scaled to determinant 1, then the lexicographically smaller of M
  and -M under the field enumeration order.

`GroupSpec.element_array` lists the canonical forms as one numpy batch
over the field's int tables, in sorted order, and an element's id is its
position in that list.  `IndexedGroup` is the integer kernel: it reads an
element's id off its images of 0, 1 and infinity on PG(1,q), and products,
inverses, orders, classes, closures and cosets all run on id arrays and
return them: id sets as sorted intp arrays, `coset_labels` as int32 labels
and intp representatives.  Enumeration is capped at ELEMENT_LIMIT elements.

`indexed_group` keeps one kernel, that of the group asked for last, and
the kernel owns its element array and field tables, so memory follows the
group in hand, not every group built.  Swapping the slot is one
assignment; the `--workers` threads run arithmetic scans and never touch
kernels.  A kernel is read-only once built.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain

import numpy as np

from ._ints import prime_power
from .errors import BudgetExceededError, VerificationError
from .gfq import TABLE_LIMIT, FieldSpec, make_field

ELEMENT_LIMIT = 10_000_000  # largest |G| that element_array enumerates
_CAYLEY_LIMIT = 2500


class GroupSpec:
    """PSL(2,q) or PGL(2,q) over a fixed FieldSpec.  Interned via psl()/pgl()."""

    def __init__(self, field: FieldSpec, kind: str):
        if kind not in ("PSL", "PGL"):
            raise ValueError("kind must be 'PSL' or 'PGL'")
        q = field.q
        if q < 3:
            raise ValueError("q >= 3 required")
        if kind == "PSL" and q < 4:
            raise ValueError("PSL(2,q) supported for q >= 4")
        self.field = field
        self.kind = kind
        self.q = q
        g = 2 if q % 2 else 1
        self.order = q * (q * q - 1) // (g if kind == "PSL" else 1)
        self._one = field.index_of(field.one.coeffs)
        self.identity_t = (self._one, 0, 0, self._one)

    def __repr__(self):
        return f"{self.kind}(2,{self.q})"

    def mul_t(self, g, h):
        """Product of two matrix 4-tuples as a canonical 4-tuple, read
        through the integer kernel."""
        ig = indexed_group(self)
        return tuple(ig.elements[ig.mul_idx(ig.id_of(g), ig.id_of(h))].tolist())

    # -- enumeration ------------------------------------------------------

    def elements_t(self) -> list[tuple[int, int, int, int]]:
        """All canonical 4-tuples, each once, in sorted order: the rows of
        `element_array` as tuples, enumerated on each call and not kept."""
        return list(zip(*self.element_array().T.tolist()))

    def element_array(self) -> np.ndarray:
        """All canonical matrices, each once, in sorted order, as a
        read-only (|G|, 4) uint16 array of field indices, enumerated on each
        call: the kernel keeps the array it was built from (`elements`).

        One numpy batch over the field's int tables, emitted already in
        sorted order.  PSL: every determinant-1 matrix is canonical up to
        sign, and min(M, -M) is the sign whose first nonzero entry x has
        x < -x in index order (every nonzero x for even q).  So the rows are
        (0, b, -1/b, d), then (a, b, c, (1 + bc)/a) for each such leading
        b or a.  PGL: the rows (0, 1, c, d) with c != 0, then (1, b, c, d)
        with d != bc.  Each matrix becomes the int64 key
        ((a*q + b)*q + c)*q + d, whose order is tuple order, one leading
        entry's block at a time; the keys must come out strictly increasing
        and number |G|, which certifies the order and that no element
        repeats.  A group over a field without dense tables, or of more
        than ELEMENT_LIMIT elements, raises BudgetExceededError before
        anything is built.
        """
        q = self.q
        if q > TABLE_LIMIT:
            raise BudgetExceededError(
                f"{self!r} is not enumerable: the enumeration needs dense field "
                f"tables, q <= {TABLE_LIMIT}; formula-only mode required"
            )
        if self.order > ELEMENT_LIMIT:
            raise BudgetExceededError(
                f"|{self!r}| = {self.order} exceeds the enumeration limit "
                f"{ELEMENT_LIMIT}: formula-only mode required"
            )
        add, mul, neg, inv, _ = self.field.array_tables()
        one = self._one
        r = np.arange(q, dtype=np.int32)
        rows, cols = r[:, None], r[None, :]
        if self.kind == "PSL":
            lead = r[r < neg] if q % 2 else r[1:]
            b, one_bc = lead[:, None], add[one, mul[rows, cols]]
            first = _matrix_keys(q, 0, b, neg[inv[b]], cols)
            rest = (_matrix_keys(q, a, rows, cols, mul[one_bc, inv[a]]) for a in lead)
        else:
            first = _matrix_keys(q, 0, one, rows[1:], cols)
            rest = (_matrix_keys(q, one, b, rows, cols)[cols != mul[b, rows]] for b in r)
        arr, end, last = np.empty((self.order, 4), dtype=np.uint16), 0, -1
        for keys in chain([first], rest):
            keys, start, end = keys.ravel(), end, end + keys.size
            if end > self.order or np.count_nonzero(np.diff(keys, prepend=last) <= 0):
                raise VerificationError("group-enumeration", f"{self!r}: keys out of order")
            last = keys[-1]
            for col in (3, 2, 1, 0):
                keys, arr[start:end, col] = np.divmod(keys, q)
        if end != self.order:
            raise VerificationError("group-enumeration", f"{self!r}: {end} keys, not |G|")
        arr.flags.writeable = False
        return arr


def _matrix_keys(q: int, a, b, c, d) -> np.ndarray:
    """Keys ((a*q + b)*q + c)*q + d of broadcast index arrays: key order is
    the tuple order of (a, b, c, d)."""
    return ((np.asarray(a, dtype=np.int64) * q + b) * q + c) * q + d


@lru_cache(maxsize=None)
def _group(q: int, kind: str) -> GroupSpec:
    pf = prime_power(q)
    if pf is None:
        raise ValueError(f"{q} is not a prime power")
    return GroupSpec(make_field(*pf), kind)


def psl(q: int) -> GroupSpec:
    return _group(q, "PSL")


def pgl(q: int) -> GroupSpec:
    return _group(q, "PGL")


# -- conjugacy data ---------------------------------------------------------


def involution_class(spec: GroupSpec) -> tuple[int, int]:
    """The single conjugacy class of involutions of PSL(2,q): (id, size),
    the id that of the matrix (0, 1; -1, 0).

    Size is q^2-1 for even q and q(q+eps)/2 for odd q = eps (mod 4).
    """
    if spec.kind != "PSL":
        raise ValueError("involution class formulas apply to PSL(2,q)")
    q = spec.q
    if q % 2 == 0:
        size = q * q - 1
    else:
        eps = 1 if q % 4 == 1 else -1
        size = q * (q + eps) // 2
    one, minus = spec._one, (-spec.field.one).index
    return indexed_group(spec).id_of((0, one, minus, 0)), size


def order3_class(spec: GroupSpec) -> tuple[int, int]:
    """The single conjugacy class of order-3 elements for characteristic > 5:
    (id, size), the id that of the matrix (0, -1; 1, -1)."""
    if spec.kind != "PSL":
        raise ValueError("order-3 class formulas apply to PSL(2,q)")
    if spec.field.p <= 5:
        raise ValueError(
            "single-class property for order-3 elements requires characteristic > 5"
        )
    q = spec.q
    size = q * (q - 1) if q % 3 == 2 else q * (q + 1)
    one, minus = spec._one, (-spec.field.one).index
    return indexed_group(spec).id_of((0, minus, one, minus)), size


def centralizer(g: int, spec: GroupSpec):
    """Centralizer {x : xg = gx} of the element with id g, as a
    SubgroupHandle."""
    from . import subgroups  # deferred: subgroups builds on this module

    ig = indexed_group(spec)
    ids = np.arange(ig.n)
    members = np.flatnonzero(ig.mul_ids(ids, g) == ig.mul_ids(g, ids))
    return subgroups.handle_from_ids(spec, members)


# -- indexed enumeration (fast internal core) -------------------------------

_CHUNK = 1 << 16  # array entries per block of rows in bulk builds
_SEED_PRODUCTS = 1 << 14  # member products per batch of coset seeds


def _blocks(n: int, width: int):
    """Row slices of an n x width build, about _CHUNK entries each."""
    step = max(1, _CHUNK // width)
    return (slice(s, s + step) for s in range(0, n, step))


def _translations(add: np.ndarray) -> np.ndarray:
    """shift[t, x] is the point id of x + t on PG(1,q): the q x (q+1)
    table of the translations tau_t, each fixing infinity (id q)."""
    q = len(add)
    shift = np.empty((q, q + 1), dtype=np.min_scalar_type(q))
    shift[:, :q], shift[:, q] = add, q
    return shift


class IndexedGroup:
    """Fully enumerated group with integer element ids.

    Ids follow the canonical order of `GroupSpec.element_array`.
    `perms[i]` is element i acting on PG(1,q) ((x:1) has point id x, (1:0)
    has id q), stored byte-wide as `np.min_scalar_type(q)`.  It is built
    factorized: every element is tau_t * g0 with tau_t: x -> x + t and g0
    the member with the same first row and c = 0 (or d = 0 when a = 0), so
    row i is row g0 read at x + t.  Only the n/q rows g0 come from the
    Moebius formula; the rest are one gather each through the translation
    table.  PGL(2,q) is sharply 3-transitive on PG(1,q), so an element is
    fixed by its images of 0, 1 and infinity: `_tri[:, i]` holds them and
    `code` maps every such triple back to its id.  The product i*j is then
    row j of `perms` read at _tri[:, i], and products, inverses, orders,
    classes, closures and cosets all run as 1-D gathers from the flattened
    `perms` and `code`.  The kernel owns the element array it was built
    from (`elements`, row i the matrix of id i) and its field's tables
    (`tables`, as `FieldSpec.array_tables` gives them).  Read-only once
    constructed.
    """

    def __init__(self, spec: GroupSpec):
        self.spec = spec
        self.elements = E = spec.element_array()  # checks the budget first
        self.tables = spec.field.array_tables()
        self.n = n = len(E)
        q, self.m = spec.q, spec.q + 1
        self._add, mul, _, inv, _ = self.tables
        # _div[x*q + y] is the point id of (x:y)
        self._div = np.hstack([np.full((q, 1), q), mul[:, inv[1:]]]).ravel()
        self.perms = perms = self._action_rows(E)
        self._tri = np.ascontiguousarray(perms.T[[0, spec._one, q]])  # rows for 1-D gathers
        self.code = np.full((q + 1,) * 3, -1, dtype=np.int32)
        self.code[tuple(self._tri)] = np.arange(n, dtype=np.int32)
        if np.count_nonzero(self.code >= 0) != n:  # two rows share their images of 0, 1, inf
            raise VerificationError("kernel-code", f"{spec!r}: {n} rows give fewer ids")
        self.e = self.id_of(spec.identity_t)
        self._inv: np.ndarray | None = None
        self._orders: np.ndarray | None = None
        self._cayley: np.ndarray | None = None
        self._gen_pair: tuple[int, int] | None = None
        self._class_labels: np.ndarray | None = None

    def _action_rows(self, E: np.ndarray) -> np.ndarray:
        """The (n, q+1) action table.  The rows g0 with c = 0 (a != 0) or
        d = 0 (a = 0) come from (x:1) -> (xa+c : xb+d), (1:0) -> (a : b).
        Any g = (a, b; c, d) is tau_t * g0 with t = c/a (or d/b when a = 0)
        and g0 = (a, b; c - at, d - bt), which keeps g's canonical form; g0
        is found by its key and row g is row g0 read through `shift[t]`.
        Every row must send 0, 1 and infinity to (c:d), (a+c : b+d) and
        (a:b), which pins it to its own matrix."""
        q, m = self.spec.q, self.m
        add, mul, neg, inv, _ = self.tables
        corners = [0, self.spec._one, q]
        reps = np.flatnonzero(np.where(E[:, 0] != 0, E[:, 2], E[:, 3]) == 0)
        rep_keys = _matrix_keys(q, *E[reps].T)
        base = np.empty((reps.size, m), dtype=np.min_scalar_type(q))
        flat_add, mulq = add.ravel(), mul.astype(np.intp) * q  # mulq[a, x] = (x*a)*q
        for rows in _blocks(reps.size, m):
            a, b, c, d = E[reps[rows]].T.astype(np.intp)
            base[rows, :q] = self._point(
                flat_add[mulq[a] + c[:, None]], flat_add[mulq[b] + d[:, None]]
            )
            base[rows, q] = self._point(a, b)
        shift, flat = _translations(add), base.ravel()
        perms = np.empty((self.n, m), dtype=base.dtype)
        for rows in _blocks(self.n, m):
            a, b, c, d = E[rows].T.astype(np.intp)
            lead = a != 0
            t = mul[np.where(lead, c, d), inv[np.where(lead, a, b)]]
            key = _matrix_keys(q, a, b, add[c, neg[mul[a, t]]], add[d, neg[mul[b, t]]])
            at = np.searchsorted(rep_keys, key) * m
            perms[rows] = flat[at[:, None] + shift[t]]
            images = (c, d), (add[a, c], add[b, d]), (a, b)
            if any((perms[rows, k] != self._point(*xy)).any() for k, xy in zip(corners, images)):
                raise VerificationError(
                    "kernel-code", f"{self.spec!r}: a row does not act as its own matrix"
                )
        return perms

    def _point(self, x, y):
        """Point id of (x:y) for field-index arrays x, y."""
        return self._div[x * self.spec.q + y]

    def _id_at(self, i0, i1, i2, out=None) -> np.ndarray:
        """Ids taking 0, 1, infinity to point ids i0, i1, i2; keyed in place in intp (`out`)."""
        key = np.multiply(i0, self.m, out=out, dtype=np.intp)  # intp, as uint16 sums wrap
        key += i1
        key *= self.m
        return self.code.ravel()[np.add(key, i2, out=key)]

    def _ids_at(self, a, b, c, d) -> np.ndarray:
        """Ids of the matrices (a, b; c, d) over field-index arrays, -1 for
        one outside the group: read off their images of 0, 1 and
        infinity, (c:d), (a+c:b+d) and (a:b)."""
        images = (c, d), (self._add[a, c], self._add[b, d]), (a, b)
        return self._id_at(*(self._point(x, y) for x, y in images))

    def ids_of(self, ts) -> np.ndarray:
        """Ids of matrices given as 4-tuples (a, b, c, d) of field indices.
        A matrix need not be canonical: every nonzero multiple has the
        same images of 0, 1 and infinity.  A singular matrix, or one with
        a non-square determinant in PSL, raises KeyError."""
        ids = self._ids_at(*np.asarray(ts, dtype=np.intp).reshape(-1, 4).T)
        if (ids < 0).any():
            raise KeyError("matrix is not an element of the group")
        return ids

    def id_of(self, t) -> int:
        return int(self.ids_of(t)[0])

    def mask(self, ids) -> np.ndarray:
        """Boolean membership array of a set of ids."""
        out = np.zeros(self.n, dtype=bool)
        out[np.asarray(ids, dtype=np.intp)] = True
        return out

    # -- basic ops --

    def mul_ids(self, xs, ys) -> np.ndarray:
        """Products x*y over id arrays, broadcast as numpy broadcasts: row y of
        `perms` read at the images of 0, 1 and infinity under x (int32), each
        gather index y*m + image and then the key built in one intp buffer."""
        xs, ys = np.asarray(xs, dtype=np.intp), np.asarray(ys)
        idx = np.empty(np.broadcast(xs, ys).shape, dtype=np.intp)
        row = None if ys.size == idx.size else np.multiply(ys, self.m, dtype=np.intp)
        pf, images = self.perms.ravel(), []
        for t in self._tri:
            y_m = np.multiply(ys, self.m, out=idx, dtype=np.intp) if row is None else row
            images.append(pf[np.add(y_m, t[xs], out=idx)])
        return self._id_at(*images, out=idx)

    def mul_idx(self, i: int, j: int) -> int:
        row = self.perms[j]
        a, b, c = self._tri[:, i]
        return int(self.code[row[a], row[b], row[c]])

    def inverses(self) -> np.ndarray:
        """inverses()[i] is the id of element i's inverse, read off the
        adjugate (d, -b; -c, a), a nonzero multiple of the inverse matrix
        with the same determinant, block by block (int32, cached).  Every
        x * x^-1 must come out as the identity."""
        if self._inv is None:
            E, neg = self.elements, self.tables[2]
            inv = np.empty(self.n, dtype=np.int32)
            for rows in _blocks(self.n, 16):  # about 16 intp temporaries per row
                a, b, c, d = E[rows].T.astype(np.intp)
                inv[rows] = ids = self._ids_at(d, neg[b], neg[c], a)
                if (ids < 0).any() or (self.mul_ids(np.arange(self.n)[rows], ids) != self.e).any():
                    raise VerificationError("kernel-inverse", f"{self.spec!r}: x * x^-1 is not 1")
            self._inv = inv
        return self._inv

    def inv_idx(self, i: int) -> int:
        return int(self.inverses()[i])

    def conj_ids(self, xs, g) -> np.ndarray:
        """g^-1 (x g) over broadcast id arrays xs and g: no int32 x g is cast."""
        return self.mul_ids(self.inverses()[g], self.mul_ids(xs, g))

    def transporter(self, gens, target) -> np.ndarray:
        """Ids of every g with g^-1 x g in `target` for each id x in `gens`:
        the g with <gens>^g inside the subgroup with ids `target`."""
        in_target = self.mask(target)
        everyone = np.arange(self.n)
        keep = np.ones(self.n, dtype=bool)
        for x in gens:
            keep &= in_target[self.conj_ids(x, everyone)]
        return np.flatnonzero(keep)

    def orders(self) -> np.ndarray:
        """Element orders as a cached, read-only int32 array: the images of 0, 1 and
        infinity are walked, block by block, until all three are back.  Orders
        divide p, q-1 or q+1, so a walk past q+1 steps means broken rows."""
        if self._orders is None:
            base, pf = (0, self.spec._one, self.spec.q), self.perms.ravel()
            orders = np.zeros(self.n, dtype=np.int32)
            for rows in _blocks(self.n, 8):
                live, c = np.arange(*rows.indices(self.n)), self._tri[:, rows]
                for k in range(1, self.m + 1):
                    back = (c[0] == base[0]) & (c[1] == base[1]) & (c[2] == base[2])
                    orders[live[back]] = k
                    live, c = live[~back], [ck[~back] for ck in c]
                    if not live.size:
                        break
                    c = [pf[live * self.m + ck] for ck in c]
                else:
                    raise VerificationError("element-order", f"{self.spec!r}: walks past {self.m} steps")
            orders.flags.writeable = False
            self._orders = orders
        return self._orders

    def cayley(self) -> np.ndarray:
        """Dense n x n product table cay[i, j] = index of element_i * element_j."""
        if self._cayley is None:
            if self.n > _CAYLEY_LIMIT:
                raise BudgetExceededError(f"cayley table too large for n = {self.n}")
            ids = np.arange(self.n)
            cay = np.empty((self.n, self.n), dtype=np.int32)
            for rows in _blocks(self.n, 3 * self.n):
                cay[rows] = self.mul_ids(ids[rows, None], ids)
            self._cayley = cay
        return self._cayley

    # -- closures and classes --

    def _grow(self, known: np.ndarray, new: np.ndarray, gens) -> None:
        """Mark in the mask `known` the states `new` and every product of
        them with words in the generators on the right.  With `gens` a list
        of ids a state is an id.  With `gens` a 2-D array, closures run
        side by side: state l*n + x is id x in layer l, whose generators
        are the row gens[l], and `known` has n states per layer.  Each
        breadth-first round touches only the new products, those not yet
        known, each kept once through a scratch slot array, so a round
        costs the frontier's size, not n."""
        gens = np.asarray(list(gens), dtype=np.intp)
        slot = np.empty(known.size, dtype=np.int32)
        while True:
            new = new[~known[new]]
            if not new.size:
                return
            known[new] = True
            order = np.arange(new.size)
            slot[new] = order  # one position per repeated state survives
            frontier = new[slot[new] == order]
            if gens.ndim == 1:
                new = self.mul_ids(frontier[:, None], gens).ravel().astype(np.intp)
            else:
                layer, x = np.divmod(frontier, self.n)
                new = (self.mul_ids(x[:, None], gens[layer]) + layer[:, None] * self.n).ravel()

    def closure_idx(self, gens) -> np.ndarray:
        """Subgroup generated by `gens`, as a sorted intp id array: the
        sweep of `_grow` from the identity."""
        known = np.zeros(self.n, dtype=bool)
        self._grow(known, np.array([self.e], dtype=np.intp), gens)
        return np.flatnonzero(known)

    def generators_of(self, sub_idxs) -> list[int]:
        """A generating set of the subgroup with ids `sub_idxs`, taken
        greedily in id order: each generator is the least member outside
        the closure of those before it.  Each closure extends the one
        before: <H, g> is H together with the sweep from the coset Hg."""
        sub = np.asarray(sub_idxs, dtype=np.intp)
        gens: list[int] = []
        have = self.mask([self.e])
        while (outside := sub[~have[sub]]).size:
            gens.append(int(outside[0]))
            self._grow(have, self.mul_ids(np.flatnonzero(have), gens[-1]), gens)
        if np.count_nonzero(have) != sub.size:
            raise VerificationError(
                "subgroup-closure", f"{sub.size} ids generate {np.count_nonzero(have)} elements"
            )
        return gens

    def generating_pair(self) -> tuple[int, int]:
        """First (i, j) in element order with <i, j> the whole group."""
        if self._gen_pair is None:
            start = np.array([self.e], dtype=np.intp)
            for i in range(self.n):
                if i == self.e:
                    continue
                for j in range(i + 1, self.n):
                    known = np.zeros(self.n, dtype=bool)
                    self._grow(known, start, (i, j))
                    if np.count_nonzero(known) == self.n:
                        self._gen_pair = (i, j)
                        return self._gen_pair
            # PSL(2,q) and PGL(2,q) are 2-generated
            raise VerificationError("generating-pair", f"no pair generates {self.spec!r}")
        return self._gen_pair

    def class_labels(self) -> np.ndarray:
        """class_labels()[i] is the least id conjugate to i: orbit labels
        under conjugation by the generating pair.  Cached, int32."""
        if self._class_labels is None:
            self._class_labels = orbit_labels(self.conj_maps(), self.n)
        return self._class_labels

    def conj_maps(self) -> list[np.ndarray]:
        """Conjugation by each element of the generating pair, as intp id maps."""
        ids = np.arange(self.n)
        return [self.conj_ids(ids, g).astype(np.intp) for g in self.generating_pair()]

    def conjugacy_class(self, i: int) -> np.ndarray:
        """Conjugation orbit of element i under the whole group, as sorted intp ids."""
        lab = self.class_labels()
        return np.flatnonzero(lab == lab[i])

    def all_classes(self) -> list[np.ndarray]:
        """Every conjugacy class as sorted intp ids, in order of least member."""
        lab = self.class_labels()
        by_class = np.argsort(lab, kind="stable")
        cuts = np.flatnonzero(np.diff(lab[by_class])) + 1
        return np.split(by_class, cuts)

    def coset_labels(self, sub_idxs) -> tuple[np.ndarray, np.ndarray]:
        """Right cosets H\\G as arrays: labels[g] = coset id (int32), reps[id]
        = least element (intp), ids in order of least element.  `generators_of`
        certifies that the ids close to a subgroup H; `coset_minima` then
        labels each g with the least member of Hg, read off member products."""
        sub = np.asarray(sub_idxs, dtype=np.intp)
        self.generators_of(sub)
        lab = coset_minima(self, sub)
        is_rep = lab == np.arange(self.n)
        return (np.cumsum(is_rep, dtype=np.int32) - 1)[lab], np.flatnonzero(is_rep)


def coset_minima(ig: IndexedGroup, sub: np.ndarray) -> np.ndarray:
    """lab[g] is the least member of the right coset Hg, H the subgroup
    with ids `sub`, labelled in seed batches.  Column j of
    P = H * seeds is the whole coset H seeds[j], so its minimum is that
    coset's least member: lab[P] = P.min(axis=0).  A batch takes about
    _SEED_PRODUCTS products' worth of still-unlabelled ids, evenly spaced
    through them: neighbouring ids share a first row, and for a subgroup
    of the stabilizer of infinity that puts them in few cosets."""
    lab = np.full(ig.n, -1, dtype=np.int32)
    todo = np.arange(ig.n)
    step = max(1, _SEED_PRODUCTS // sub.size)
    while todo.size:
        P = ig.mul_ids(sub[:, None], todo[:: -(-todo.size // step)])
        lab[P] = P.min(axis=0)
        todo = todo[lab[todo] < 0]
    return lab


def orbit_labels(maps, size: int) -> np.ndarray:
    """Least member of each point's orbit under the group generated by
    `maps`, permutations of range(size) given as id arrays (int32 result).

    Min-label propagation with pointer jumping: each round sets
    lab = min(lab, lab[m]) for every map m and then for m = lab, until its
    sum stops falling.  lab[i] always lies in i's orbit and never grows,
    so the orbit's least member keeps its own label.  At the fixed point
    lab <= lab[m] for every m, so lab is constant along each map's cycles,
    hence on whole orbits, and there it is the least member.  Maps and
    labels are intp, and every round reuses two label buffers.
    """
    maps = [np.asarray(m, dtype=np.intp) for m in maps]
    lab, img = np.arange(size), np.empty(size, dtype=np.intp)
    while True:
        total = int(lab.sum())
        for m in maps + [lab]:  # lab last: pointer jumping, as lab[lab] <= lab
            np.take(lab, m, out=img, mode="clip")  # ids in range: no bounds pass
            np.minimum(lab, img, out=lab)
        if lab.sum() == total:
            return lab.astype(np.int32)


_kernel: IndexedGroup | None = None  # the kernel of the group asked for last


def indexed_group(spec: GroupSpec) -> IndexedGroup:
    """The kernel of `spec`, kept until another group's kernel is asked
    for.  The old kernel is dropped before the new one is built, so two
    kernels never share the peak, and a build that raises leaves none."""
    global _kernel
    ig = _kernel
    if ig is None or ig.spec is not spec:
        ig = _kernel = None
        ig = _kernel = IndexedGroup(spec)
    return ig
