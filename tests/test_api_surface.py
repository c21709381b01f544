"""Every definition in `src/` is reached from the engine.

A fixpoint over the package's syntax trees: module-level code, `cli.main`
and `BENCH_NAMES` are the roots, and a reached definition reaches what
its body mentions.  A bare name reaches the module-level definition of
that name in its own module, or in the module a `from .x import` brings
it from; an attribute reaches every definition of that name, in any
module and class.  A class reaches its dunder methods.  Attributes are
matched by name alone, so the pass can only over-count what is reached:
a definition it reports is one that no engine path calls, whose only
callers are tests.  Such a definition belongs in `tests/`, not in the
trusted engine.
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


def definitions() -> list[tuple[str, set[str], set[str]]]:
    """(qualified name, keys that reach it, keys it reaches) per definition,
    and one entry per module for its top-level code, reached by "<module>".
    The key of a bare name is the qualified name it resolves to, that of an
    attribute is ".name"; a module-level definition has both keys."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    defined = {stem: {s.name for s in tree.body if isinstance(s, _DEFS)} for stem, tree in trees.items()}
    imported = {
        stem: {
            alias.asname or alias.name: (node.module, alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
            for alias in node.names
        }
        for stem, tree in trees.items()
    }

    def resolve(stem: str, name: str) -> set[str]:
        out = {f"{stem}.{name}"} if name in defined.get(stem, ()) else set()
        if name in imported.get(stem, {}):
            out |= resolve(*imported[stem][name])
        return out

    def reaches(stem: str, nodes) -> set[str]:
        keys = set()
        for n in (n for node in nodes for n in ast.walk(node)):
            if isinstance(n, ast.Name):
                keys |= resolve(stem, n.id)
            elif isinstance(n, ast.Attribute):
                keys.add(f".{n.attr}")
        return keys

    out = []
    for stem, tree in trees.items():
        out.append((stem, {"<module>"}, reaches(stem, (s for s in tree.body if not isinstance(s, _DEFS)))))
        for node in (s for s in tree.body if isinstance(s, _DEFS)):
            qual = f"{stem}.{node.name}"
            keys = {qual, f".{node.name}"}
            if not isinstance(node, ast.ClassDef):
                out.append((qual, keys, reaches(stem, [node])))
                continue
            methods = [s for s in node.body if isinstance(s, _DEFS)]
            own = [s for s in node.body if not isinstance(s, _DEFS)] + node.bases + node.decorator_list
            dunders = {f"{qual}.{m.name}" for m in methods if m.name.startswith("__")}
            out.append((qual, keys, reaches(stem, own) | dunders))
            out += [(f"{qual}.{m.name}", {f"{qual}.{m.name}", f".{m.name}"}, reaches(stem, [m])) for m in methods]
    return out


def unreached(roots=frozenset({"main"} | BENCH_NAMES)) -> list[str]:
    defs = definitions()
    keys = {"<module>", *(f".{name}" for name in roots)}
    while True:
        grown = keys.union(*(body for _, reached_by, body in defs if reached_by & keys))
        if grown == keys:
            return sorted(qual for qual, reached_by, _ in defs if not reached_by & keys)
        keys = grown


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


def test_the_pass_sees_a_dead_function_named_like_a_live_one(monkeypatch, tmp_path):
    # `geometry` calls its own `check_gq` by bare name, and no module imports
    # a `check_gq` from `gfq`, so a second one there is not reached
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    with open(tmp_path / "gfq.py", "a") as fh:
        fh.write("\n\ndef check_gq(geom):\n    return geom\n")
    monkeypatch.setitem(globals(), "SRC", tmp_path)
    assert unreached() == ["gfq.check_gq"]
