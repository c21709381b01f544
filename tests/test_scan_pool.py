"""One fork pool per run: who opens it, when it forks, and that it is gone
when the run returns or raises.

Pools are counted by wrapping `Pool` on the fork context, which is where
`classify` opens its one pool.  The worker-side test runs a chunk wrapper
inside the forked workers and refuses a chunk whose range the inherited
prime-power table does not cover.
"""

import multiprocessing
import os
from array import array

import pytest

from quadforge import _ints, classify
from quadforge.classify import eliminate_cross, scan_pool, theorem_driver, verify
from quadforge.errors import VerificationError

_PARENT = os.getpid()
_CROSS_CHUNK = classify._cross_chunk


@pytest.fixture
def pools(monkeypatch):
    """The list of pools opened while the test runs."""
    ctx = multiprocessing.get_context("fork")
    opened, make = [], ctx.Pool

    def counting(*args, **kwargs):
        opened.append(make(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(ctx, "Pool", counting)
    return opened


@pytest.fixture
def no_table(monkeypatch):
    """A process whose shared prime-power table is empty, as at start-up."""
    monkeypatch.setattr(_ints, "_PP", _ints._PP)  # put back afterwards with the table
    monkeypatch.setattr(_ints, "_SPF", array("i"))


def _chunk_on_inherited_table(args):
    """`_cross_chunk`, run only in a forked worker whose table, inherited
    from the parent, already covers the chunk."""
    if os.getpid() == _PARENT:
        raise AssertionError("a chunk ran in the parent")
    if len(_ints._SPF) <= args[-1]:
        raise AssertionError(f"the table of {len(_ints._SPF)} entries misses q = {args[-1]}")
    return _CROSS_CHUNK(args)


@pytest.mark.parametrize("q_max", [108003, 2_000_000])
def test_theorem_opens_one_pool(pools, q_max):
    theorem_driver(q_max, workers=2)
    assert len(pools) == 1
    assert multiprocessing.active_children() == []


def test_verify_theorem_opens_one_pool(pools):
    assert verify("theorem", workers=2, q_max=108003).ok
    assert len(pools) == 1
    assert multiprocessing.active_children() == []


def test_one_worker_and_scanless_tags_fork_nothing(pools):
    theorem_driver(108003, workers=1)
    assert verify("sporadic", workers=2).ok
    assert verify("case2-equal", workers=2).ok  # a follow-up, no chunked scan
    assert pools == []


def test_a_direct_scan_owns_its_pool(pools):
    assert eliminate_cross(5, 8, q_range=(17, 6915), workers=3).scan_size > 0
    assert eliminate_cross(5, 9, q_range=(17, 6907), workers=3).scan_size > 0
    assert len(pools) == 2
    assert multiprocessing.active_children() == []


def test_nested_scans_share_the_outer_pool(pools):
    with scan_pool(2):
        assert multiprocessing.active_children() == []  # nothing forks until a scan splits
        eliminate_cross(5, 8, q_range=(17, 6915), workers=2)
        eliminate_cross(4, 9, q_range=(13, 859), workers=2)
        assert len(multiprocessing.active_children()) == 2
    assert len(pools) == 1
    assert multiprocessing.active_children() == []


def test_no_worker_outlives_an_error(pools, monkeypatch):
    # the equal-stabilizer rows run after every chunked pair scan has
    # used the pool
    def fail(*args):
        raise VerificationError("planted", "a later record fails")

    monkeypatch.setattr(classify, "eliminate_equal", fail)
    with pytest.raises(VerificationError, match="planted"):
        theorem_driver(108003, workers=2)
    assert len(pools) == 1
    assert multiprocessing.active_children() == []
    assert classify._SCAN_POOL is None


def test_a_grown_table_gets_a_fresh_pool(pools, no_table, monkeypatch):
    monkeypatch.setattr(classify, "_cross_chunk", _chunk_on_inherited_table)
    with scan_pool(2):
        eliminate_cross(4, 8, q_range=(13, 867), workers=2)
        eliminate_cross(5, 8, q_range=(17, 6915), workers=2)
    assert len(pools) == 2
    assert multiprocessing.active_children() == []


def test_forked_workers_never_rebuild_the_table(pools, no_table, monkeypatch):
    monkeypatch.setattr(classify, "_cross_chunk", _chunk_on_inherited_table)
    report = theorem_driver(2_000_000, workers=2)
    assert report.ok and len(pools) == 1
    assert len(_ints._SPF) == 2_000_001
