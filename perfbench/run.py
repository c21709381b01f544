#!/usr/bin/env python3
"""The quadforge benchmark: one run of one workload.

    python3 perfbench/run.py --workload theorem --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the engine is imported from
`src/`.  Every unit of work is a fresh interpreter, because each CLI call
and each new field size pays its set-up and its caches cold.

With `--trace 0` the run times units for `--seconds` seconds with tracing
off and reports the end-to-end metrics.  With `--trace 1` it runs one
untraced and one traced unit of the same input and reports the per-layer
metrics.  Every unit's answers are checked; the last stdout line is the
JSON result.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build"

THEOREM_QMAX = 108003
WORKERS = {"theorem": 1, "theorem-2w": 2}
WORKLOADS = ("theorem", "theorem-2w", "groups")

# groups: field sizes the seed draws from.  Each round runs one unit per
# pool entry (a Latin square over the three pools), so every round does
# the same total work and the seed only decides which sizes meet in one
# process and in what order.
Q_TABLES = (243, 289, 343)  # dense GF(q) tables of prime-power fields
Q_CLASSES = (41, 43, 47)  # indexed group, orders, classes, families
Q_GEOMETRY = (27, 29, 31)  # dihedral pair: double cosets, incidence, axioms

SETUP_PER_UNIT = 3
UNIT_TIMEOUT_S = 150

HEAVY_TAGS = (
    "case8-case9", "case5-equal", "case3-case8", "case3-case9",
    "case3-equal", "case4-equal", "case8-equal", "case9-equal",
)
CHUNKED_TAGS = ("case4-case8", "case4-case9", "case5-case8", "case5-case9")

END_TO_END = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
]


def _per_layer_names() -> list[tuple[str, str, str]]:
    m: list[tuple[str, str, str]] = []

    def add(name, unit, better="lower"):
        m.append((name, unit, better))

    for fn in ("is_prime", "factorize", "prime_power", "spf_sieve"):
        add(f"ints.{fn}.calls", "count")
        add(f"ints.{fn}.s", "s")
    add("ints.iter_prime_powers.yielded", "count")
    add("ints.factorize_sieved.calls", "count")
    add("feasibility.solve_orders.calls", "count")
    add("feasibility.solve_orders.s", "s")
    add("feasibility.solve_orders.candidates", "count")
    add("feasibility.solve_equal_order.calls", "count")
    add("feasibility.solve_equal_order.s", "s")
    add("feasibility.filter_pass_ratio", "ratio", "higher")
    for fn in ("case_condition", "index_formula"):
        add(f"subgroups.{fn}.calls", "count")
        add(f"subgroups.{fn}.s", "s")
    for tag in HEAVY_TAGS + CHUNKED_TAGS + ("rest",):
        add(f"classify.record.{tag}.s", "s")
    add("classify.scan.q_tested", "count")
    add("classify.scan.tested_ratio", "ratio")
    add("classify.parallel_eff", "ratio", "higher")
    add("cli.emit_report.s", "s")
    add("cli.report_bytes", "bytes")
    add("cli.cpu_s", "s")
    add("gfq.make_field.s", "s")
    add("gfq.int_tables.s", "s")
    add("gfq.int_tables.entries", "count")
    add("psl2.elements_t.s", "s")
    add("psl2.elements_t.n", "count")
    add("psl2.indexed_group.s", "s")
    add("psl2.orders.s", "s")
    add("psl2.all_classes.s", "s")
    add("psl2.all_classes.n", "count")
    add("psl2.cayley.s", "s")
    add("psl2.cayley.entries", "count")
    add("psl2.closure_idx.calls", "count")
    add("psl2.closure_idx.s", "s")
    add("psl2.mul_t.calls", "count")
    add("psl2.mul_idx.calls", "count")
    add("psl2.coset_labels.s", "s")
    add("subgroups.build_case.calls", "count")
    add("subgroups.build_case.s", "s")
    add("subgroups.small_index_subgroups.s", "s")
    add("subgroups.small_index_subgroups.found", "count")
    add("geometry.double_cosets.s", "s")
    add("geometry.double_cosets.n", "count")
    add("geometry.check_gq.calls", "count")
    add("geometry.check_gq.s", "s")
    add("geometry.incidence_build.calls", "count")
    add("geometry.incidence_build.s", "s")
    add("geometry.incidence_build.pairs", "count")
    add("geometry.find_gq_selections.s", "s")
    add("geometry.selection_hit_ratio", "ratio", "higher")
    add("classify.build_w2.s", "s")
    add("classify.verify_table_rows_at.s", "s")
    for module in _src_modules():
        add(f"loc.{module.stem}", "lines")
    add("loc.total", "lines")
    add("trace.overhead_frac", "ratio")
    return m


def _src_modules() -> list[Path]:
    return sorted((SRC / "quadforge").glob("*.py"))


# ---------------------------------------------------------------------------
# spawning units
# ---------------------------------------------------------------------------


@dataclass
class Unit:
    code: int
    wall: float
    cpu: float
    rss_mib: float
    stdout: bytes
    stderr: bytes


def _env() -> dict:
    # Bytecode is cached under OUT whatever the caller's environment says,
    # so set-up is measured with warm .pyc files, as an installed package
    # would have them, and the source tree stays untouched.
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
    return env


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(argv: list[str], tag: str) -> Unit:
    """Run argv to completion; time it from spawn to exit and read the
    CPU time and peak RSS of its process tree from wait4."""
    out_path, err_path = OUT / f"{tag}.out", OUT / f"{tag}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdout=out, stderr=err, env=_env(), cwd=ROOT, start_new_session=True
        )
        timer = threading.Timer(UNIT_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Unit(
        code=proc.returncode,
        wall=wall,
        cpu=ru.ru_utime + ru.ru_stime,
        # ru_maxrss is in KiB on Linux: the largest process of the tree
        rss_mib=ru.ru_maxrss / 1024,
        stdout=out_path.read_bytes(),
        stderr=err_path.read_bytes(),
    )


SETUP_ARGV = [sys.executable, "-c", "import quadforge.cli"]


def setup_samples(n: int) -> list[float]:
    """n starts of a fresh interpreter that imports quadforge.cli."""
    walls = []
    for _ in range(n):
        u = spawn(SETUP_ARGV, "setup")
        if u.code != 0:
            raise RuntimeError("importing quadforge.cli failed:\n" + u.stderr.decode(errors="replace"))
        walls.append(u.wall)
    return walls


def theorem_argv(workers: int, trace_path: Path | None = None) -> list[str]:
    args = ["verify", "--lemma", "theorem", "--qmax", str(THEOREM_QMAX),
            "--workers", str(workers), "--format", "json"]
    if trace_path is None:
        return [sys.executable, "-m", "quadforge.cli", *args]
    return [sys.executable, str(BENCH / "unit.py"), "cli", "--trace", str(trace_path), "--", *args]


def groups_argv(qs: tuple[int, int, int], trace_path: Path | None = None) -> list[str]:
    argv = [sys.executable, str(BENCH / "unit.py"), "groups"]
    if trace_path is not None:
        argv += ["--trace", str(trace_path)]
    return argv + [str(q) for q in qs]


def groups_rounds(seed: int):
    """Endless sequence of rounds; each round is a list of (q_tables,
    q_classes, q_geometry) covering every pool entry once."""
    rng = random.Random(seed)
    while True:
        cols = [rng.sample(pool, len(pool)) for pool in (Q_TABLES, Q_CLASSES, Q_GEOMETRY)]
        yield list(zip(*cols))


# ---------------------------------------------------------------------------
# correctness checks (a problem list that is empty means correct)
# ---------------------------------------------------------------------------


def _tail(data: bytes, n: int = 400) -> str:
    return data.decode(errors="replace")[-n:].strip()


def check_theorem(unit: Unit, expected: dict, first_report: bytes | None) -> list[str]:
    problems = []
    if unit.code != 0:
        problems.append(f"exit code {unit.code}: {_tail(unit.stderr)}")
    try:
        report = json.loads(unit.stdout)
    except ValueError:
        return problems + ["stdout is not a JSON report"]
    if report.get("outcome", {}).get("ok") is not True:
        problems.append("outcome.ok is not true")
    got = [
        [r.get("lemma_tag"), r.get("verdict"), r.get("scan_size"), r.get("survivors")]
        for r in report.get("records", [])
    ]
    want = expected["theorem_records"]
    if got != want:
        diff = next(
            (f"{g} != {w}" for g, w in zip(got, want) if g != w),
            f"{len(got)} records, expected {len(want)}",
        )
        problems.append(f"records differ from the expected list: {diff}")
    if first_report is not None and unit.stdout != first_report:
        problems.append("report bytes differ from the first repetition of this run")
    return problems


def _check_op(op: dict, qs, expected: dict) -> list[str]:
    if op.get("error"):
        return [f"engine raised {op['error']}"]
    d = op["data"]
    name = op["op"]
    q_tables, q_classes, q_geom = qs
    bad = []

    def need(cond, what):
        if not cond:
            bad.append(what)

    if name == "w2":
        need(d["is_gq"] and (d["s"], d["t"]) == (2, 2), f"check_gq on W(2) gave {d}")
        need(d["points"] == d["lines"] == 15, "W(2) is not 15 x 15")
    elif name == "tables":
        need(d["q"] == q_tables, f"built GF({d['q']}), asked for {q_tables}")
        need(d["add_latin"] and d["mul_latin"], "field tables are not Latin squares")
        need(d["inverses"], "INV table does not invert")
    elif name == "classes":
        q = d["q"]
        need(q == q_classes, f"built PSL(2,{q}), asked for {q_classes}")
        need(d["n"] == q * (q * q - 1) // 2, f"|PSL(2,{q})| = {d['n']}")
        need(d["classes"] == (q + 5) // 2, f"{d['classes']} classes, expected {(q + 5) // 2}")
        need(d["covered"] == d["n"], "classes do not partition the group")
    elif name == "families":
        need(len(d) > 0, "no family applies")
    elif name.startswith("family-"):
        need(d["order"] * d["index"] == d["group_order"], f"|H| * index != |G|: {d}")
        need(d["cosets"] == d["index"], f"{d['cosets']} cosets, index {d['index']}")
    elif name == "dihedral-geometry":
        g = d["group_order"]
        need(d["q"] == q_geom, f"built PSL(2,{d['q']}), asked for {q_geom}")
        need(d["sizes_sum"] == g, f"double-coset sizes sum to {d['sizes_sum']}, |G| = {g}")
        need(d["points"] * d["m0"] == g and d["lines"] * d["m1"] == g, "coset counts")
        need(d["is_gq"] is False, "check_gq accepted the dihedral-pair geometry")
    elif name == "lattice-pgl7":
        want = expected["pgl7_subgroup_count"]
        need(d["count"] == want, f"{d['count']} subgroups of PGL(2,7), expected {want}")
    elif name == "table-row-6-27":
        row = d["expected"]
        diff = {k: (d[k], row[k]) for k in ("class", "meet", "cent", "k", "k_meet", "fixed") if d[k] != row[k]}
        need(not diff, f"table row differs (got, expected): {diff}")
    else:
        bad.append(f"unknown operation {name}")
    return bad


GROUP_OPS = ("w2", "tables", "classes", "families", "dihedral-geometry", "lattice-pgl7", "table-row-6-27")


def check_groups(unit: Unit, qs, expected: dict) -> tuple[int, int, list[str]]:
    """(operations attempted, operations failed, problems).  A unit that
    gave no result counts as one failed operation."""
    try:
        ops = json.loads(unit.stdout.decode().strip().splitlines()[-1])["ops"]
    except (ValueError, IndexError, KeyError):
        return 1, 1, [f"groups unit {qs} gave no result (exit {unit.code}): {_tail(unit.stderr)}"]
    names = [op["op"] for op in ops]
    families = next((op.get("data") for op in ops if op["op"] == "families"), None) or []
    for case, params in families:
        names_wanted = f"family-{case}" + "".join(f"-{k}{v}" for k, v in sorted(params.items()))
        if names_wanted not in names:
            ops.append({"op": names_wanted, "error": "operation missing"})
    for name in GROUP_OPS:
        if name not in names:
            ops.append({"op": name, "error": "operation missing"})
    problems = []
    failed = 0
    for op in ops:
        bad = _check_op(op, qs, expected)
        failed += bool(bad)
        problems += [f"{qs} {op['op']}: {p}" for p in bad]
    if unit.code != 0 and not failed:
        failed, problems = 1, [f"groups unit {qs} exit code {unit.code}"]
    return len(ops), failed, problems


# ---------------------------------------------------------------------------
# timed run (trace 0)
# ---------------------------------------------------------------------------


class Tally:
    """Operations attempted and failed, with what went wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, attempted: int, failed: int, problems: list[str]):
        self.attempted += attempted
        self.failed += failed
        self.problems += problems

    def add_unit(self, problems: list[str]):
        self.add(1, int(bool(problems)), problems)


def timed_run(workload: str, seed: int, seconds: float, expected: dict, log) -> tuple[dict, Tally, list]:
    """Batches of units until the next batch would end after `seconds`.

    A theorem batch is one CLI run; a groups batch is one round.  Set-up
    samples are taken before every unit, so that they see the same host
    conditions as the units do.  wall_s and peak_rss_mib are medians over
    batches of the batch's mean over its units, which is the same for
    every pairing of a groups round.
    """
    tally = Tally()
    spawn(SETUP_ARGV, "setup")  # unmeasured: fills the bytecode cache
    setups: list[float] = []
    units: list[dict] = []
    batch_walls: list[float] = []
    batch_rss: list[float] = []
    first_report = None
    rounds = groups_rounds(seed)
    t_start = time.perf_counter()
    while True:
        t_batch = time.perf_counter()
        batch = [None] if workload in WORKERS else next(rounds)
        walls, rss = [], []
        for qs in batch:
            setups += setup_samples(SETUP_PER_UNIT)
            if qs is None:
                u = spawn(theorem_argv(WORKERS[workload]), f"{workload}-unit")
                problems = check_theorem(u, expected, first_report)
                first_report = first_report or (u.stdout if u.code == 0 else None)
                tally.add_unit(problems)
            else:
                u = spawn(groups_argv(qs), "groups-unit")
                attempted, failed, problems = check_groups(u, qs, expected)
                tally.add(attempted, failed, problems)
            walls.append(u.wall)
            rss.append(u.rss_mib)
            units.append({"q": qs, "wall_s": u.wall, "cpu_s": u.cpu, "rss_mib": u.rss_mib,
                          "problems": problems})
            log(f"unit {len(units)}{'' if qs is None else f' q={qs}'}: wall {u.wall:.3f} s, "
                f"cpu {u.cpu:.3f} s, rss {u.rss_mib:.1f} MiB"
                + (f", FAILED: {problems}" if problems else ""))
        batch_walls.append(statistics.fmean(walls))
        batch_rss.append(statistics.fmean(rss))
        now = time.perf_counter()
        if now - t_start + (now - t_batch) > seconds:
            break
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(batch_walls),
        "peak_rss_mib": statistics.median(batch_rss),
    }
    return metrics, tally, [{"setup_samples_s": setups, "batch_walls_s": batch_walls}] + units


# ---------------------------------------------------------------------------
# traced run (trace 1)
# ---------------------------------------------------------------------------


def per_layer_metrics(summary: dict, untraced_wall: float, untraced_cpu: float,
                      traced_wall: float, report_bytes: int) -> dict:
    spans, aggs, counts = summary["spans"], summary["aggregates"], summary["counts"]

    def span_s(name):
        return spans.get(name, {}).get("s", 0.0)

    def agg(name, key):
        return aggs.get(name, {}).get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    v: dict[str, float] = {}
    for fn in ("is_prime", "factorize", "prime_power", "spf_sieve"):
        v[f"ints.{fn}.calls"] = agg(f"_ints.{fn}", "calls")
        v[f"ints.{fn}.s"] = agg(f"_ints.{fn}", "s")
    yielded = counts.get("_ints.iter_prime_powers.yielded", 0)
    v["ints.iter_prime_powers.yielded"] = yielded
    v["ints.factorize_sieved.calls"] = agg("_ints.factorize_sieved", "calls")
    candidates = counts.get("feasibility.solve_orders.candidates", 0)
    v["feasibility.solve_orders.calls"] = agg("feasibility.solve_orders", "calls")
    v["feasibility.solve_orders.s"] = agg("feasibility.solve_orders", "s")
    v["feasibility.solve_orders.candidates"] = candidates
    v["feasibility.solve_equal_order.calls"] = agg("feasibility.solve_equal_order", "calls")
    v["feasibility.solve_equal_order.s"] = agg("feasibility.solve_equal_order", "s")
    v["feasibility.filter_pass_ratio"] = ratio(counts.get("feasibility.filter_passed", 0), candidates)
    for fn in ("case_condition", "index_formula", "build_case"):
        v[f"subgroups.{fn}.calls"] = agg(f"subgroups.{fn}", "calls")
        v[f"subgroups.{fn}.s"] = agg(f"subgroups.{fn}", "s")
    named = HEAVY_TAGS + CHUNKED_TAGS
    for tag in named:
        v[f"classify.record.{tag}.s"] = span_s(f"classify.record.{tag}")
    v["classify.record.rest.s"] = sum(
        e["s"] for n, e in spans.items()
        if n.startswith("classify.record.") and n[len("classify.record."):] not in named
    )
    q_tested = counts.get("classify.scan.q_tested", 0)
    v["classify.scan.q_tested"] = q_tested
    v["classify.scan.tested_ratio"] = ratio(q_tested, yielded)
    v["classify.parallel_eff"] = untraced_cpu / (2 * untraced_wall)
    v["cli.emit_report.s"] = span_s("cli.emit_report")
    v["cli.report_bytes"] = report_bytes
    v["cli.cpu_s"] = untraced_cpu
    v["gfq.make_field.s"] = span_s("gfq.make_field")
    v["gfq.int_tables.s"] = span_s("gfq.int_tables")
    v["gfq.int_tables.entries"] = counts.get("gfq.int_tables.entries", 0)
    v["psl2.elements_t.s"] = agg("psl2.elements_t", "s")
    v["psl2.elements_t.n"] = counts.get("psl2.elements_t.n", 0)
    v["psl2.indexed_group.s"] = span_s("psl2.indexed_group")
    v["psl2.orders.s"] = agg("psl2.orders", "s")
    v["psl2.all_classes.s"] = span_s("psl2.all_classes")
    v["psl2.all_classes.n"] = counts.get("psl2.all_classes.n", 0)
    v["psl2.cayley.s"] = span_s("psl2.cayley")
    v["psl2.cayley.entries"] = counts.get("psl2.cayley.entries", 0)
    v["psl2.closure_idx.calls"] = agg("psl2.closure_idx", "calls")
    v["psl2.closure_idx.s"] = agg("psl2.closure_idx", "s")
    v["psl2.mul_t.calls"] = agg("psl2.mul_t", "calls")
    v["psl2.mul_idx.calls"] = agg("psl2.mul_idx", "calls")
    v["psl2.coset_labels.s"] = span_s("psl2.coset_labels")
    v["subgroups.small_index_subgroups.s"] = span_s("subgroups.small_index_subgroups")
    v["subgroups.small_index_subgroups.found"] = counts.get("subgroups.small_index_subgroups.found", 0)
    v["geometry.double_cosets.s"] = span_s("geometry.double_cosets")
    v["geometry.double_cosets.n"] = counts.get("geometry.double_cosets.n", 0)
    v["geometry.check_gq.calls"] = agg("geometry.check_gq", "calls")
    v["geometry.check_gq.s"] = agg("geometry.check_gq", "s")
    v["geometry.incidence_build.calls"] = agg("geometry.incidence_build", "calls")
    v["geometry.incidence_build.s"] = agg("geometry.incidence_build", "s")
    v["geometry.incidence_build.pairs"] = counts.get("geometry.incidence_build.pairs", 0)
    v["geometry.find_gq_selections.s"] = span_s("geometry.find_gq_selections")
    v["geometry.selection_hit_ratio"] = ratio(
        counts.get("geometry.find_gq_selections.hits", 0),
        counts.get("geometry.find_gq_selections.tried", 0),
    )
    v["classify.build_w2.s"] = span_s("classify.build_w2")
    v["classify.verify_table_rows_at.s"] = span_s("classify.verify_table_rows_at")
    total = 0
    for module in _src_modules():
        n = len(module.read_text().splitlines())
        v[f"loc.{module.stem}"] = n
        total += n
    v["loc.total"] = total
    v["trace.overhead_frac"] = traced_wall / untraced_wall - 1
    return v


def traced_run(workload: str, seed: int, expected: dict, log) -> tuple[dict, Tally, list]:
    """Untraced, traced, traced, untraced units of one input.  The
    symmetric order cancels a steady drift in host speed out of
    trace.overhead_frac; the per-layer figures come from the last traced
    unit."""
    tally = Tally()
    spawn(SETUP_ARGV, "setup")  # unmeasured: fills the bytecode cache
    setup = statistics.median(setup_samples(SETUP_PER_UNIT))
    trace_path = OUT / f"trace-{workload}-seed{seed}.json"
    qs = next(groups_rounds(seed))[0]
    units: list[Unit] = []
    for path in (None, trace_path, trace_path, None):
        tag = f"{workload}-{'traced' if path else 'untraced'}"
        if path:
            path.unlink(missing_ok=True)
        if workload in WORKERS:
            u = spawn(theorem_argv(WORKERS[workload], path), tag)
            tally.add_unit(check_theorem(u, expected, units[0].stdout if units else None))
        else:
            u = spawn(groups_argv(qs, path), tag)
            tally.add(*check_groups(u, qs, expected))
        units.append(u)
        log(f"{tag} unit: wall {u.wall:.3f} s, cpu {u.cpu:.3f} s")
    untraced, traced = units[0::3], units[1:3]
    try:
        trace = json.loads(trace_path.read_text())
    except (OSError, ValueError):
        tally.add_unit([f"no trace written to {trace_path.name}"])
        trace = {"summary": {"spans": {}, "aggregates": {}, "counts": {}}}
    wall_u = statistics.fmean(u.wall for u in untraced)
    metrics = per_layer_metrics(
        trace["summary"],
        untraced_wall=wall_u,
        untraced_cpu=statistics.fmean(u.cpu for u in untraced),
        traced_wall=statistics.fmean(u.wall for u in traced),
        report_bytes=len(untraced[0].stdout) if workload in WORKERS else 0,
    )
    records = sum(e["s"] for n, e in trace["summary"]["spans"].items() if n.startswith("classify.record."))
    coverage = {
        "setup_s": setup,
        "untraced_wall_s": wall_u,
        "traced_wall_s": traced[-1].wall,
        "record_spans_s": records,
        "record_share_of_traced_work": records / (traced[-1].wall - setup),
        "record_share_of_untraced_work": records / (wall_u - setup),
    }
    log("record spans: " + json.dumps(coverage))
    return metrics, tally, [coverage]


# ---------------------------------------------------------------------------
# host facts and entry point
# ---------------------------------------------------------------------------


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def host_facts(seed: int, workload: str) -> dict:
    model = next(
        (line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
         if line.startswith("model name")),
        platform.processor() or "unknown",
    )
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "loadavg_start": _read("/proc/loadavg").strip(),
        "seed": seed,
        "seed_effect": (
            "none: the theorem run's input is fixed by the paper"
            if workload in WORKERS
            else "picks the field-size pairing and order of each groups round"
        ),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, expected: dict | None = None,
        log=print) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    if expected is None:
        expected = json.loads((BENCH / "expected.json").read_text())
    OUT.mkdir(exist_ok=True)
    facts = host_facts(seed, workload)
    log("host: " + json.dumps(facts))
    if trace:
        values, tally, detail = traced_run(workload, seed, expected, log)
        table = _per_layer_names()
    else:
        values, tally, detail = timed_run(workload, seed, seconds, expected, log)
        table = END_TO_END
    facts["loadavg_end"] = _read("/proc/loadavg").strip()
    log("loadavg at end: " + facts["loadavg_end"])
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in table}
    for problem in tally.problems:
        log("FAILED: " + problem)
    for name, m in metrics.items():
        log(f"{name} = {m['value']} {m['unit']}")
    log(f"fail_frac = {tally.failed / max(tally.attempted, 1)} ({tally.failed} of {tally.attempted} operations)")
    result = {
        "correct": tally.failed == 0,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": metrics,
    }
    record = {"workload": workload, "seconds": seconds, "trace": trace, "host": facts,
              "detail": detail, "problems": tally.problems, "result": result}
    (OUT / f"result-{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "quadforge" / "cli.py").is_file():
        print(f"error: no quadforge sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
