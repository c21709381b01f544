#!/usr/bin/env python3
"""Self-test of the benchmark itself (about two minutes on two cores).

    python3 perfbench/selftest.py

Checks that:
  1. a deliberately wrong expected value drives fail_frac above 0 on
     every workload, and a failing CLI exit is a failed operation;
  2. an exception raised by the engine fails one groups operation
     without stopping the other steps;
  3. the traced run of every workload passes its checks and reports
     every per-layer metric, with a non-zero value for each metric the
     workload exercises, and the record spans on `theorem` cover its work;
  4. BENCHMARK.json names exactly the workloads and metrics run.py reports;
  5. without the sources next to it, run.py exits non-zero and prints no
     result.
Exits 0 when every check passes.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

EXPECTED = json.loads((run.BENCH / "expected.json").read_text())

# metrics that must be non-zero in the traced run of each workload
EXERCISED = {
    "theorem": [
        *(f"ints.{fn}.{k}" for fn in ("is_prime", "factorize", "prime_power", "spf_sieve")
          for k in ("calls", "s")),
        "ints.iter_prime_powers.yielded", "ints.factorize_sieved.calls",
        "feasibility.solve_orders.calls", "feasibility.solve_orders.s",
        "feasibility.solve_orders.candidates", "feasibility.solve_equal_order.calls",
        "feasibility.solve_equal_order.s",
        "subgroups.case_condition.calls", "subgroups.case_condition.s",
        "subgroups.index_formula.calls", "subgroups.index_formula.s",
        *(f"classify.record.{tag}.s" for tag in run.HEAVY_TAGS + ("rest",)),
        "classify.scan.q_tested", "classify.scan.tested_ratio",
        "cli.emit_report.s", "cli.report_bytes", "cli.cpu_s",
    ],
    "theorem-2w": [
        "classify.parallel_eff", "cli.cpu_s",
        *(f"classify.record.{tag}.s" for tag in ("case3-case8", "case3-case9", "case8-case9")
          + run.CHUNKED_TAGS),
    ],
    "groups": [
        "gfq.make_field.s", "gfq.int_tables.s", "gfq.int_tables.entries",
        "psl2.elements_t.s", "psl2.elements_t.n", "psl2.indexed_group.s", "psl2.orders.s",
        "psl2.all_classes.s", "psl2.all_classes.n", "psl2.cayley.s", "psl2.cayley.entries",
        "psl2.closure_idx.calls", "psl2.closure_idx.s", "psl2.mul_t.calls",
        "psl2.mul_idx.calls", "psl2.coset_labels.s",
        "subgroups.build_case.calls", "subgroups.build_case.s",
        "subgroups.small_index_subgroups.s", "subgroups.small_index_subgroups.found",
        "geometry.double_cosets.s", "geometry.double_cosets.n", "geometry.check_gq.calls",
        "geometry.check_gq.s", "geometry.incidence_build.calls", "geometry.incidence_build.s",
        "geometry.incidence_build.pairs", "geometry.find_gq_selections.s",
        "geometry.selection_hit_ratio", "classify.build_w2.s", "classify.verify_table_rows_at.s",
    ],
}

failures: list[str] = []


def check(cond: bool, what: str) -> None:
    print(("PASS " if cond else "FAIL ") + what, flush=True)
    if not cond:
        failures.append(what)


def quiet(_line: str) -> None:
    pass


def wrong_expectations() -> None:
    for workload in run.WORKLOADS:
        bad = copy.deepcopy(EXPECTED)
        if workload == "groups":
            bad["pgl7_subgroup_count"] += 1
        else:
            bad["theorem_records"][4][2] += 1  # scan_size of case3-case8
        res = run.run(workload, seed=1, seconds=1, trace=False, expected=bad, log=quiet)
        check(res["failed"] > 0 and not res["correct"],
              f"{workload}: wrong expected value gives fail_frac "
              f"{res['failed']}/{res['attempted']} > 0")
    crashed = run.Unit(code=1, wall=1.0, cpu=1.0, rss_mib=1.0, stdout=b"",
                       stderr=b"AssertionError: verification step failed")
    check(bool(run.check_theorem(crashed, EXPECTED, None)),
          "theorem: a CLI that exits 1 with a traceback is a failed operation")


def engine_exceptions() -> None:
    sys.path.insert(0, str(run.SRC))
    import quadforge.classify as classify
    import unit

    def raises(exc):
        def fail(*args, **kwargs):
            raise exc

        return fail

    saved = classify.build_w2, classify.verify_table_rows_at
    classify.build_w2 = raises(ValueError("failed checks recorded: ['fifteen-points']"))
    classify.verify_table_rows_at = raises(AssertionError("verification step failed: row"))
    try:
        with contextlib.redirect_stderr(io.StringIO()):  # the two expected tracebacks
            ops = unit.run_groups(243, 41, 27)
    finally:
        classify.build_w2, classify.verify_table_rows_at = saved
    fake = run.Unit(code=0, wall=1.0, cpu=1.0, rss_mib=1.0,
                    stdout=(json.dumps({"ops": ops}) + "\n").encode(), stderr=b"")
    attempted, failed, problems = run.check_groups(fake, (243, 41, 27), EXPECTED)
    check(failed == 2 and attempted == len(ops) and len(ops) >= 10,
          f"groups: ValueError and AssertionError from the engine fail 2 of "
          f"{attempted} operations and the other steps still run")


def traced_runs() -> None:
    names = [n for n, _, _ in run._per_layer_names()]
    for workload in run.WORKLOADS:
        lines: list[str] = []
        res = run.run(workload, seed=1, seconds=1, trace=True, log=lines.append)
        got = res["metrics"]
        check(res["correct"], f"{workload}: traced run passes its correctness checks")
        check(list(got) == names and all(isinstance(m["value"], (int, float)) for m in got.values()),
              f"{workload}: traced run reports all {len(names)} per-layer metrics")
        zero = [n for n in EXERCISED[workload] + ["loc.total"] if not got[n]["value"] > 0]
        check(not zero, f"{workload}: every metric the workload exercises is non-zero {zero or ''}")
        if workload == "theorem":
            detail = json.loads(
                (run.OUT / "result-theorem-seed1-trace1.json").read_text())["detail"][0]
            share = detail["record_share_of_traced_work"]
            check(0.9 <= share <= 1.0,
                  f"theorem: record spans cover {share:.3f} of the traced run after set-up; "
                  f"overhead {got['trace.overhead_frac']['value']:.3f}")


def benchmark_json() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
          "BENCHMARK.json workloads match run.py")
    check([(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END,
          "BENCHMARK.json end_to_end metrics match run.py")
    check([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run._per_layer_names(),
          "BENCHMARK.json per_layer metrics match run.py")


def stripped_directory() -> None:
    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.BENCH, bare / run.BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = subprocess.run(
            [sys.executable, f"{run.BENCH.name}/run.py", "--workload", "theorem", "--seed", "1",
             "--seconds", "10", "--trace", "0"],
            cwd=bare, capture_output=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and b"correct" not in proc.stdout,
          f"without sources run.py exits {proc.returncode} and prints no result")


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    benchmark_json()
    stripped_directory()
    wrong_expectations()
    engine_exceptions()
    traced_runs()
    print(f"{'FAILED' if failures else 'OK'}: {len(failures)} failing checks", flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
