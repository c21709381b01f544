"""Every definition in `src/` is reached from the engine.

A fixpoint over the package's syntax trees: module-level code, `cli.main`
and `BENCH_NAMES` are the roots, and a reached definition reaches every
definition whose name it mentions (as a name or an attribute, in any
module).  A class reaches its dunder methods.  The match is by name alone,
so it can only over-count what is reached: a definition it reports is one
that no engine path calls, whose only callers are tests.  Such a
definition belongs in `tests/`, not in the trusted engine.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "quadforge"

# Names that only `perfbench/` reaches (`unit.py` imports and calls them,
# `tracer.py` wraps them by `getattr`), together with what only they reach.
# The list shrinks when the benchmark reads its counters from a trace
# sidecar instead of wrapping engine functions (ROADMAP item 1).
BENCH_NAMES = {
    "factorize_sieved", "int_tables", "pgl", "all_classes", "cayley",
    "idx_set", "small_index_subgroups", "verify_table_rows_at",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _mentions(nodes) -> set[str]:
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for node in nodes
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def definitions() -> list[tuple[str, str, set[str]]]:
    """(qualified name, name, names its body mentions) per definition, and
    one "<module>" entry per module for its top-level code."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        out.append((path.stem, "<module>", _mentions(s for s in tree.body if not isinstance(s, _DEFS))))
        for node in (s for s in tree.body if isinstance(s, _DEFS)):
            qual = f"{path.stem}.{node.name}"
            if not isinstance(node, ast.ClassDef):
                out.append((qual, node.name, _mentions([node])))
                continue
            methods = [s for s in node.body if isinstance(s, _DEFS)]
            own = [s for s in node.body if not isinstance(s, _DEFS)] + node.bases + node.decorator_list
            dunders = {m.name for m in methods if m.name.startswith("__")}
            out.append((qual, node.name, _mentions(own) | dunders))
            out += [(f"{qual}.{m.name}", m.name, _mentions([m])) for m in methods]
    return out


def unreached(roots=frozenset({"main"} | BENCH_NAMES)) -> list[str]:
    defs = definitions()
    names = {"<module>", *roots}
    while True:
        grown = names.union(*(body for _, name, body in defs if name in names))
        if grown == names:
            return sorted(qual for qual, name, _ in defs if name not in names)
        names = grown


def test_every_src_definition_is_reached_from_the_engine():
    stray = unreached()
    assert not stray, "src definitions that only tests reach:\n  " + "\n  ".join(stray)


def test_every_bench_name_is_one_the_engine_does_not_reach():
    engine_only = {qual.rsplit(".", 1)[-1] for qual in unreached(frozenset({"main"}))}
    assert BENCH_NAMES <= engine_only, sorted(BENCH_NAMES - engine_only)


def test_the_pass_sees_a_test_only_definition(monkeypatch, tmp_path):
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    with open(tmp_path / "geometry.py", "a") as fh:
        fh.write("\n\ndef only_tests_call_this(geom):\n    return check_gq(geom)\n")
    monkeypatch.setitem(globals(), "SRC", tmp_path)
    assert unreached() == ["geometry.only_tests_call_this"]
