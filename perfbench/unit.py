"""One unit of benchmark work, run in a fresh interpreter.

    python3 perfbench/unit.py groups [--trace PATH] Q_TABLES Q_CLASSES Q_GEOMETRY
    python3 perfbench/unit.py cli [--trace PATH] -- <quadforge arguments>

`groups` runs the group-level verification steps at the given field sizes
and prints, as its last stdout line, one JSON object listing every
operation with the values the engine returned (the parent checks them).
An exception raised by the engine fails that operation only; the
remaining steps still run.

`cli` runs `quadforge.cli.main` in-process under the tracer, so that a
traced CLI run has the same report on stdout as an untraced one.

With `--trace PATH` the tracer wraps quadforge before any step runs and
writes its spans and counters to PATH when the unit ends.
"""

from __future__ import annotations

import json
import sys
import time
import traceback


def _op(ops, name, fn):
    t0 = time.perf_counter()
    try:
        data = fn()
    except Exception as exc:  # the engine's own failures: count, report, go on
        traceback.print_exc(file=sys.stderr)
        ops.append({"op": name, "error": f"{type(exc).__name__}: {exc}"})
        return None
    ops.append({"op": name, "error": None, "s": time.perf_counter() - t0, "data": data})
    return data


def _permutes(rows, values) -> bool:
    want = list(values)
    return all(sorted(row) == want for row in rows)


def run_groups(q_tables: int, q_classes: int, q_geom: int) -> list[dict]:
    """The group-level steps, in the order that keeps step 1 on cold caches."""
    from quadforge.classify import build_w2, verify_table_rows_at
    from quadforge.geometry import IncidenceGeometry, check_gq, double_cosets
    from quadforge.psl2 import indexed_group, pgl, psl
    from quadforge.subgroups import (
        build_case,
        case_params,
        index_formula,
        small_index_subgroups,
    )

    ops: list[dict] = []

    def w2():
        res = build_w2()
        v = check_gq(res.geometry)
        return {
            "is_gq": v.is_gq, "s": v.s, "t": v.t,
            "points": res.geometry.n_points, "lines": res.geometry.n_lines,
        }

    def tables():
        spec = psl(q_tables)
        add, mul, neg, inv, sqrt = spec.field.int_tables()
        one = spec.field.index_of(spec.field.one.coeffs)
        return {
            "q": spec.q,
            "add_latin": _permutes(add, range(spec.q)),
            "mul_latin": _permutes((row[1:] for row in mul[1:]), range(1, spec.q)),
            "inverses": all(mul[i][inv[i]] == one for i in range(1, spec.q)),
        }

    _op(ops, "w2", w2)
    _op(ops, "tables", tables)

    def classes():
        spec = psl(q_classes)
        ig = indexed_group(spec)
        ig.orders()
        cls = ig.all_classes()
        return {"q": spec.q, "n": ig.n, "classes": len(cls), "covered": sum(map(len, cls))}

    def family(case, params):
        spec = psl(q_classes)
        ig = indexed_group(spec)
        h = build_case(case, spec, **params)
        _, reps = ig.coset_labels(h.idx_set(ig))
        return {
            "q": spec.q, "order": len(h), "group_order": spec.order,
            "index": index_formula(case, q_classes, **params), "cosets": len(reps),
        }

    _op(ops, "classes", classes)
    families = _op(
        ops, "families",
        lambda: [[c, p] for c in range(1, 10) for p in case_params(c, q_classes)],
    )
    for case, params in families or ():
        name = f"family-{case}" + "".join(f"-{k}{v}" for k, v in sorted(params.items()))
        _op(ops, name, lambda: family(case, params))

    def geometry():
        gspec = psl(q_geom)
        m0 = build_case(9, gspec)
        m1 = build_case(8, gspec)
        dcs = double_cosets(m0, m1, gspec)
        first = min(range(len(dcs)), key=lambda i: (-dcs[i].meet_order, dcs[i].rep))
        geom = IncidenceGeometry(m0, m1, [first], gspec, decomposition=dcs)
        v = check_gq(geom)
        return {
            "q": gspec.q, "group_order": gspec.order, "sizes_sum": sum(d.size for d in dcs),
            "double_cosets": len(dcs), "points": geom.n_points, "lines": geom.n_lines,
            "m0": len(m0), "m1": len(m1), "is_gq": v.is_gq,
        }

    def lattice():
        s = pgl(7)
        return {"count": len(small_index_subgroups(s, s.order))}

    def table_row():
        got = verify_table_rows_at(6, 27, q0=3)
        return {k: got[k] for k in ("class", "meet", "cent", "k", "k_meet", "fixed", "expected")}

    _op(ops, "dihedral-geometry", geometry)
    _op(ops, "lattice-pgl7", lattice)
    _op(ops, "table-row-6-27", table_row)
    return ops


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    trace_path = None
    if rest[:1] == ["--trace"]:
        trace_path, rest = rest[1], rest[2:]
    tracer = None
    if trace_path:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        if mode == "groups":
            q_tables, q_classes, q_geom = (int(x) for x in rest)
            ops = run_groups(q_tables, q_classes, q_geom)
            sys.stdout.write(json.dumps({"ops": ops}) + "\n")
            return 0
        if mode == "cli":
            from quadforge.cli import main as cli_main

            return cli_main(rest[1:] if rest[:1] == ["--"] else rest)
        print(f"unknown unit {mode!r}", file=sys.stderr)
        return 2
    finally:
        sys.stdout.flush()
        if tracer is not None:
            tracer.dump(trace_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
