"""Working-set bounds of the integer group kernel, read off tracemalloc.

NumPy reports its data buffers to tracemalloc, so a traced peak counts
every array a call builds, as well as the Python objects, and is the same
on every run.  Each bound is stated in n-sized arrays of the group at
hand, and each is below what the call would take if it built its result
as Python lists, or held its temporaries for all n ids at once.  Across
calls, one kernel and one field's tables are kept, those asked for last.
"""

from __future__ import annotations

import tracemalloc
import weakref

import numpy as np
import pytest

from quadforge import psl2
from quadforge._ints import prime_power
from quadforge.errors import BudgetExceededError
from quadforge.psl2 import indexed_group, pgl, psl
from quadforge.subgroups import build_case, case_params, small_index_subgroups

INTP = np.dtype(np.intp).itemsize


def traced_peak(fn):
    """(result, peak bytes traced while fn runs)."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def ig41():
    ig = indexed_group(psl(41))
    ig.orders(), ig.inverses()
    return ig


def test_mul_ids_over_every_id_holds_two_intp_buffers_at_most(ig41):
    # one index buffer serves the three gathers and the code key: with the
    # byte-wide images and the int32 result that is 15 bytes per product,
    # where a fresh index array per gather and per key step peaks at 23
    n, ids = ig41.n, np.arange(ig41.n)
    prod, peak = traced_peak(lambda: ig41.mul_ids(ids, ids))
    assert prod.dtype == np.int32 and prod.shape == (n,)
    assert peak <= 2 * INTP * n + 4 * n


@pytest.mark.parametrize("q", [41, 47])
def test_orders_walk_block_by_block(q):
    # walking all n ids at once holds four n-sized intp arrays (36 bytes per
    # id); block by block little is kept beyond the int32 result
    fresh = psl2.IndexedGroup(psl(q))
    orders, peak = traced_peak(fresh.orders)
    assert orders.dtype == np.int32
    assert peak < 2 * INTP * fresh.n


@pytest.mark.parametrize("q", [41, 47])
def test_class_labels_reuse_their_buffers(q):
    # two int32 conjugation maps and two int32 label buffers (16 bytes per
    # id), with the products that build the maps taken block by block; intp
    # maps and labels, with the maps built whole, take 40 bytes per id, and
    # fresh labels on every round 68
    fresh = psl2.IndexedGroup(psl(q))
    labels, peak = traced_peak(fresh.class_labels)
    assert labels.dtype == np.int32
    assert peak < 2.5 * INTP * fresh.n


def test_class_labels_build_no_inverse_table():
    # conjugation by the generating pair inverts two elements, not all n
    fresh = psl2.IndexedGroup(psl(41))
    fresh.class_labels()
    assert fresh._inv is None


def test_coset_labels_build_no_python_list(ig41):
    # a list of n labels alone takes a pointer and an int object per id, on
    # top of the kernel's arrays; the arrays alone stay below 3 intp per id
    spec = ig41.spec
    for case in range(1, 10):
        for params in case_params(case, spec.q):
            ids = build_case(case, spec, **params).ids
            (labels, reps), peak = traced_peak(lambda: ig41.coset_labels(ids))
            assert isinstance(labels, np.ndarray) and isinstance(reps, np.ndarray)
            assert labels.shape == (ig41.n,) and reps.size == ig41.n // len(ids)
            assert peak < 3 * INTP * ig41.n, (case, params)


def test_lattice_keeps_no_power_table():
    # with index <= 2 the search keeps only PGL(2,19) and PSL(2,19), so the
    # peak is the search's own working set; an n x top power table (n * 20 *
    # 8 = 1.09 MB here), with the masked copy a minimum over it takes, puts
    # that peak at 4.3 MB
    spec = pgl(19)
    ig = indexed_group(spec)
    ig.orders(), ig.generating_pair(), ig.inverses()
    top = int(ig.orders().max())
    handles, peak = traced_peak(lambda: small_index_subgroups(spec, 2))
    assert [len(h) for h in handles] == [spec.order, spec.order // 2]
    assert ig.n * top * INTP > 1_000_000
    assert peak < 3_000_000


def kernel_bytes(ig) -> int:
    """Bytes of the arrays a kernel owns, its field's tables included."""
    arrays = {id(a): a for a in [*vars(ig).values(), *ig.tables] if isinstance(a, np.ndarray)}
    return sum(a.nbytes for a in arrays.values())


@pytest.mark.parametrize("q", [31, 47])
def test_a_kernel_build_holds_its_arrays_and_less_than_half_a_block(q):
    # the action table is gathered one translation at a time, with no index
    # per entry; a rows x (q+1) intp index per block of _CHUNK entries puts
    # the build 0.78 blocks over the kept arrays at q = 47 and 1.5 at q = 31
    ig, peak = traced_peak(lambda: psl2.IndexedGroup(psl(q)))
    assert peak < kernel_bytes(ig) + INTP * psl2._CHUNK // 2


def test_a_sweep_keeps_one_kernel_and_one_fields_tables():
    # a cache of every kernel and every field's tables puts the traced
    # memory at the sum over the sweep: 4.6 times the last kernel's arrays
    # at q = 31, and over this bound from q = 7 on; the 16 KiB cover the
    # fields and groups themselves, about 7 KiB at q = 4
    tracemalloc.start()
    try:
        for q in (q for q in range(4, 32) if prime_power(q)):
            owned = kernel_bytes(indexed_group(psl(q)))
            assert tracemalloc.get_traced_memory()[0] <= 2 * owned + 16 * 1024, q
    finally:
        tracemalloc.stop()


def test_the_next_build_releases_the_last_kernel_and_its_fields_tables():
    ig = indexed_group(psl(23))
    kernel, add = weakref.ref(ig), weakref.ref(ig.tables[0])
    del ig
    indexed_group(psl(25))
    assert kernel() is None and add() is None


def test_repeated_calls_return_the_kept_kernel():
    spec = psl(13)
    ig = indexed_group(spec)
    assert indexed_group(spec) is ig and indexed_group(spec) is ig
    assert ig.tables is spec.field.array_tables()


def test_a_failed_build_keeps_no_kernel():
    last = weakref.ref(indexed_group(psl(13)))
    with pytest.raises(BudgetExceededError):
        indexed_group(psl(317))
    assert psl2._kernel is None and last() is None
