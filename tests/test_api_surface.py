"""Every definition in `src/` is reached from the engine.

A fixpoint over the package's syntax trees: module-level code, `cli.main`
and `BENCH_NAMES` are the roots, and a reached definition reaches what
its body mentions.  A bare name reaches the module-level definition of
that name in its own module, or in the module a `from .x import` brings
it from.  An attribute resolves by class where the syntax names one:
`self.x` in a method reaches the enclosing class's `x`; `C.x` reaches `x`
of the class that the bare name `C` resolves to; and `self.a.x` reaches
`x` of the package class that the `__init__` parameter `a` is annotated
with (`self.spec.index_of` in a class built from `spec: FieldSpec`).  Any
other attribute (`obj.x`, whose class the syntax does not say) reaches
every definition of that name, in any module and class.  A class reaches
its dunder methods.  The class rules assume that no class in `src/`
inherits from another and that an attribute named like an annotated
`__init__` parameter holds it; where that fails, the pass reports a live
definition and the test fails, so a wrong guess is never silent.
Otherwise a definition the pass reports is one that no engine path calls,
whose only callers are tests.  Such a definition belongs in `tests/`, not
in the trusted engine.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "quadforge"

# Definitions that only `perfbench/` reaches (`unit.py` imports and calls
# them, `tracer.py` wraps them by `getattr`), by qualified name, together
# with what only they reach.  The list shrinks when the benchmark reads its
# counters from a trace sidecar instead of wrapping engine functions
# (ROADMAP item 1).
BENCH_NAMES = {
    "_ints.factorize_sieved", "gfq.FieldSpec.int_tables", "psl2.pgl", "psl2.IndexedGroup.all_classes",
    "psl2.IndexedGroup.cayley", "subgroups.SubgroupHandle.idx_set", "subgroups.small_index_subgroups",
    "classify.verify_table_rows_at",
    # the tracer's per-call counters and the leaf it times
    "psl2.GroupSpec.mul_t", "psl2.GroupSpec.elements_t", "psl2.IndexedGroup.mul_idx",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def definitions() -> list[tuple[str, set[str], set[str]]]:
    """(qualified name, keys that reach it, keys it reaches) per definition,
    and one entry per module for its top-level code, reached by "<module>".
    The key of a bare name, of `self.x` and of `C.x` is the qualified name
    it resolves to, that of any other attribute is ".name"; every
    definition has both keys."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    defined = {stem: {s.name for s in tree.body if isinstance(s, _DEFS)} for stem, tree in trees.items()}
    classes = {
        f"{stem}.{s.name}" for stem, tree in trees.items() for s in tree.body if isinstance(s, ast.ClassDef)
    }
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

    # (class, attribute) -> the package class that an `__init__` parameter
    # of the attribute's name is annotated with: `self.spec` in a class built
    # from `spec: FieldSpec` is a FieldSpec
    typed = {
        (f"{stem}.{cls.name}", arg.arg): hit
        for stem, tree in trees.items()
        for cls in tree.body if isinstance(cls, ast.ClassDef)
        for init in cls.body if isinstance(init, ast.FunctionDef) and init.name == "__init__"
        for arg in init.args.args if isinstance(arg.annotation, ast.Name)
        for hit in resolve(stem, arg.annotation.id) & classes
    }

    def attribute(stem: str, node: ast.Attribute, owner: str | None) -> set[str]:
        value = node.value
        if isinstance(value, ast.Name):
            if value.id == "self" and owner:
                return {f"{owner}.{node.attr}"}
            known = resolve(stem, value.id) & classes
            if known:
                return {f"{cls}.{node.attr}" for cls in known}
        elif isinstance(value, ast.Attribute) and isinstance(value.value, ast.Name) and value.value.id == "self":
            if (owner, value.attr) in typed:
                return {f"{typed[owner, value.attr]}.{node.attr}"}
        return {f".{node.attr}"}

    def reaches(stem: str, nodes, owner: str | None = None) -> set[str]:
        keys = set()
        for n in (n for node in nodes for n in ast.walk(node)):
            if isinstance(n, ast.Name):
                keys |= resolve(stem, n.id)
            elif isinstance(n, ast.Attribute):
                keys |= attribute(stem, n, owner)
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
            out.append((qual, keys, reaches(stem, own, qual) | dunders))
            out += [
                (f"{qual}.{m.name}", {f"{qual}.{m.name}", f".{m.name}"}, reaches(stem, [m], qual))
                for m in methods
            ]
    return out


def unreached(roots=frozenset({"cli.main"} | BENCH_NAMES)) -> list[str]:
    defs = definitions()
    keys = {"<module>", *roots}
    while True:
        grown = keys.union(*(body for _, reached_by, body in defs if reached_by & keys))
        if grown == keys:
            return sorted(qual for qual, reached_by, _ in defs if not reached_by & keys)
        keys = grown


def test_every_src_definition_is_reached_from_the_engine():
    stray = unreached()
    assert not stray, "src definitions that only tests reach:\n  " + "\n  ".join(stray)


def test_every_bench_name_is_one_the_engine_does_not_reach():
    engine_only = set(unreached(frozenset({"cli.main"})))
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


def test_the_pass_sees_a_dead_method_named_like_a_live_one(monkeypatch, tmp_path):
    # `GroupSpec.mul_t` is live, a root the benchmark's tracer wraps, and no
    # src line calls a `mul_t` on an object of unknown class; a `mul_t` on
    # another, reached class is not reached by that root
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    with open(tmp_path / "geometry.py", "a") as fh:
        fh.write("\n\nclass Twin:\n    def mul_t(self, g, h):\n        return g\n\n\nTWIN = Twin()\n")
    monkeypatch.setitem(globals(), "SRC", tmp_path)
    assert unreached() == ["geometry.Twin.mul_t"]
