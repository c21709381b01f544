"""Chunked scans on threads: who opens an executor, how many threads it
may start, that none outlives the run, and that only the calling thread
grows the shared prime-power index.

Executors are recorded by wrapping `concurrent.futures.ThreadPoolExecutor`,
which `classify._run_chunked` imports when it splits a scan.
"""

import concurrent.futures
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

import quadforge
from quadforge import _ints, classify
from quadforge.classify import eliminate_cross, theorem_driver, verify
from quadforge.errors import VerificationError


@pytest.fixture
def executors(monkeypatch):
    """(max_workers, executor) for every executor opened while the test
    runs.  Holding each executor keeps one that was never shut down, and
    so its threads, from being collected before the test counts them."""
    opened, make = [], concurrent.futures.ThreadPoolExecutor

    def recording(max_workers=None, *args, **kwargs):
        opened.append((max_workers, make(max_workers, *args, **kwargs)))
        return opened[-1][1]

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", recording)
    return opened


@pytest.fixture
def no_table(monkeypatch):
    """A process whose shared prime-power index is empty, as at start-up."""
    monkeypatch.setattr(_ints, "_INDEX", (0, *map(memoryview, np.zeros((3, 0), np.int32))))


@pytest.fixture
def table_off_threads(monkeypatch):
    """Fail any call that would grow the shared index from a thread other
    than the main one; the list counts the calls the scan threads made."""
    off_main, sieve = [], _ints.spf_sieve

    def guarded(limit):
        if threading.current_thread() is not threading.main_thread():
            off_main.append(limit)
            if limit > _ints._INDEX[0]:
                raise AssertionError(f"a scan thread grows the index to {limit}")
        return sieve(limit)

    monkeypatch.setattr(_ints, "spf_sieve", guarded)
    monkeypatch.setattr(classify, "spf_sieve", guarded)
    return off_main


@pytest.mark.parametrize("q_max", [108003, 2_000_000])
def test_no_thread_outlives_a_theorem_run(executors, q_max):
    before = threading.active_count()
    assert theorem_driver(q_max, workers=2).ok
    assert executors and threading.active_count() == before


def test_no_thread_outlives_a_verify_run(executors):
    before = threading.active_count()
    assert verify("theorem", workers=2, q_max=108003).ok
    assert executors and threading.active_count() == before


def test_one_worker_and_scanless_tags_fork_nothing(executors):
    theorem_driver(108003, workers=1)
    assert verify("sporadic", workers=2).ok
    assert verify("case2-equal", workers=2).ok  # a follow-up, no chunked scan
    assert executors == []


def test_no_worker_outlives_an_error(executors, monkeypatch):
    # the equal-stabilizer rows run after every chunked pair scan
    def fail(*args):
        raise VerificationError("planted", "a later record fails")

    monkeypatch.setattr(classify, "eliminate_equal", fail)
    before = threading.active_count()
    with pytest.raises(VerificationError, match="planted"):
        theorem_driver(108003, workers=2)
    assert executors and threading.active_count() == before


def test_a_direct_scan_caps_its_threads_at_the_core_count(executors):
    many = eliminate_cross(5, 8, q_range=(17, 6915), workers=64)
    assert [n for n, _ in executors] == [os.cpu_count() or 1]
    assert many == eliminate_cross(5, 8, q_range=(17, 6915), workers=1)


def test_worker_threads_never_grow_the_table(no_table, table_off_threads):
    assert theorem_driver(2_000_000, workers=2).ok
    assert table_off_threads  # the chunks did ask, and found the index built
    assert _ints._INDEX[0] == 2_000_000


def test_a_scan_past_the_sieve_limit_grows_the_table_on_the_calling_thread(
    no_table, table_off_threads
):
    limit = _ints.SIEVE_LIMIT
    rec = eliminate_cross(8, 9, q_range=(limit - 2000, limit + 10), workers=2)
    assert rec.scan_size > 0 and table_off_threads
    assert _ints._INDEX[0] == limit


def test_importing_the_cli_loads_no_pool_module():
    src = os.path.dirname(os.path.dirname(quadforge.__file__))
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import quadforge.cli; "
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
