"""Tracing of quadforge from outside the package.

`Tracer.install()` replaces public quadforge functions and methods with
wrappers that time them.  A function is replaced at its defining module and
at every quadforge module that bound it by name (`from ._ints import
prime_power`), so calls through either path are seen.  Nothing under
`src/` is edited; the wrappers live only in the traced process.

Two kinds of record are kept in memory and written out by `dump()`:

* spans (name, start, end, parent) for coarse calls: elimination records,
  group and field constructors, class sweeps, double cosets, the CLI
  report writer;
* aggregates (calls, inclusive seconds) for hot leaf calls such as
  `is_prime`, `mul_t` and `mul_idx`, where a span per call would cost
  more than the call.

A forked child (the `--workers N` scan pool) stops tracing at the fork:
its wrappers pass straight through, and nothing it did is counted.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

_now = time.perf_counter


class Tracer:
    def __init__(self):
        self.enabled = True
        self.spans: list[list] = []  # [name, start, end, parent_index]
        self.stack: list[int] = []
        self.aggs: dict[str, list] = {}  # name -> [calls, seconds]
        self.counts: dict[str, float] = {}
        self._seen: dict[str, set] = {}
        self.t0 = _now()
        os.register_at_fork(after_in_child=self._stop)

    def _stop(self):
        self.enabled = False

    def count(self, name: str, amount=1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def first_time(self, name: str, obj) -> bool:
        """True the first time `obj` is reported under `name` (used to count
        cached results once)."""
        seen = self._seen.setdefault(name, set())
        if id(obj) in seen:
            return False
        seen.add(id(obj))
        return True

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self.stack)

    # -- wrappers ----------------------------------------------------------

    def span(self, name, fn, on_result=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(spans)
            rec = [name, _now(), None, stack[-1] if stack else -1]
            spans.append(rec)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = _now()
                stack.pop()
            if on_result is not None:
                on_result(self, rec, result, args)
            return result

        return wrapper

    def leaf(self, name, fn, timed=True, on_result=None):
        agg = self.aggs.setdefault(name, [0, 0.0])

        if not timed:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if self.enabled:
                    agg[0] += 1
                return fn(*args, **kwargs)

            return counted

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            t = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                agg[0] += 1
                agg[1] += _now() - t
            if on_result is not None:
                on_result(self, result, args)
            return result

        return wrapper

    def yields(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                if self.enabled:
                    self.count(name)
                yield item

        return wrapper

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced quadforge entry point (see `_PLAN`)."""
        import quadforge.cli  # noqa: F401  (loads every module that binds names)
        import quadforge.geometry
        import quadforge.gfq
        import quadforge.psl2

        modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("quadforge") and m]
        for mod_name, attr, kind, metric, hook in _FUNCTIONS:
            home = sys.modules[mod_name]
            original = getattr(home, attr)
            wrapped = self._wrap(kind, metric, original, hook)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapped)
        for mod_name, cls_name, attr, kind, metric, hook in _METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            setattr(cls, attr, self._wrap(kind, metric, getattr(cls, attr), hook))

    def _wrap(self, kind, metric, fn, hook):
        if kind == "span":
            return self.span(metric, fn, hook)
        if kind == "leaf":
            return self.leaf(metric, fn, on_result=hook)
        if kind == "count":
            return self.leaf(metric, fn, timed=False)
        if kind == "yield":
            return self.yields(metric, fn)
        raise ValueError(kind)

    # -- output ----------------------------------------------------------------

    def summary(self) -> dict:
        """Inclusive and self seconds per span name, calls per name, plus
        the leaf aggregates and counters."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0 and end is not None:
                child_time[parent] += end - start
        by_name: dict[str, dict] = {}
        for i, (name, start, end, parent) in enumerate(spans):
            if end is None:
                continue
            entry = by_name.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child_time[i]
            # inclusive time counts only the outermost span of a name
            p = parent
            nested = False
            while p >= 0:
                if spans[p][0] == name:
                    nested = True
                    break
                p = spans[p][3]
            if not nested:
                entry["s"] += end - start
        aggs = {k: {"calls": v[0], "s": v[1]} for k, v in self.aggs.items()}
        return {"spans": by_name, "aggregates": aggs, "counts": dict(self.counts)}

    def dump(self, path: str) -> None:
        data = {
            "wall_s": _now() - self.t0,
            "summary": self.summary(),
            "spans": [
                {"name": n, "start": s - self.t0, "end": e - self.t0, "parent": p}
                for n, s, e, p in self.spans
                if e is not None
            ],
        }
        with open(path, "w") as fh:
            json.dump(data, fh)


# -- what gets wrapped, and what each wrapper records beyond calls and time --


def _record(tracer, rec, result, args):
    rec[0] = f"classify.record.{result.lemma_tag}"
    tracer.count("classify.scan.q_tested", result.scan_size)


def _candidates(tracer, result, args):
    tracer.count("feasibility.solve_orders.candidates", len(result))


def _feasible(tracer, result, args):
    tracer.count("feasibility.filter_passed", len(result))


def _elements(tracer, result, args):
    if tracer.first_time("psl2.elements_t.n", args[0]):
        tracer.count("psl2.elements_t.n", len(result))


def _int_tables(tracer, rec, result, args):
    if tracer.first_time("gfq.int_tables.entries", args[0]):
        add, mul, neg, inv, sqrt = result
        tracer.count(
            "gfq.int_tables.entries",
            sum(map(len, add)) + sum(map(len, mul)) + len(neg) + len(inv) + len(sqrt),
        )


def _cayley(tracer, rec, result, args):
    if tracer.first_time("psl2.cayley.entries", args[0]):
        tracer.count("psl2.cayley.entries", int(result.size))


def _incidence(tracer, result, args):
    geom = args[0]
    tracer.count("geometry.incidence_build.pairs", geom.n_points * geom.n_lines)


def _check_gq(tracer, result, args):
    if tracer.inside("geometry.find_gq_selections"):
        tracer.count("geometry.find_gq_selections.tried")


def _lengths(metric):
    def hook(tracer, rec, result, args):
        tracer.count(metric, len(result))

    return hook


_RECORD_RUNNERS = (
    "eliminate_case1",
    "eliminate_sporadic",
    "eliminate_cross",
    "eliminate_equal",
    "eliminate_same_case_nonisomorphic",
    "eliminate_case9_survivor",
    "w2_record",
)

# (defining module, name, kind, metric, hook)
_FUNCTIONS = [
    ("quadforge._ints", "is_prime", "leaf", "_ints.is_prime", None),
    ("quadforge._ints", "factorize", "leaf", "_ints.factorize", None),
    ("quadforge._ints", "prime_power", "leaf", "_ints.prime_power", None),
    ("quadforge._ints", "spf_sieve", "leaf", "_ints.spf_sieve", None),
    ("quadforge._ints", "factorize_sieved", "count", "_ints.factorize_sieved", None),
    ("quadforge._ints", "iter_prime_powers", "yield", "_ints.iter_prime_powers.yielded", None),
    ("quadforge.feasibility", "solve_orders", "leaf", "feasibility.solve_orders", _candidates),
    ("quadforge.feasibility", "solve_equal_order", "leaf", "feasibility.solve_equal_order", None),
    ("quadforge.classify", "_feasible_orders", "leaf", "classify.feasible_orders", _feasible),
    ("quadforge.subgroups", "case_condition", "leaf", "subgroups.case_condition", None),
    ("quadforge.subgroups", "index_formula", "leaf", "subgroups.index_formula", None),
    ("quadforge.subgroups", "build_case", "leaf", "subgroups.build_case", None),
    ("quadforge.subgroups", "small_index_subgroups", "span", "subgroups.small_index_subgroups",
     _lengths("subgroups.small_index_subgroups.found")),
    ("quadforge.gfq", "make_field", "span", "gfq.make_field", None),
    ("quadforge.psl2", "indexed_group", "span", "psl2.indexed_group", None),
    ("quadforge.geometry", "double_cosets", "span", "geometry.double_cosets",
     _lengths("geometry.double_cosets.n")),
    ("quadforge.geometry", "check_gq", "leaf", "geometry.check_gq", _check_gq),
    ("quadforge.geometry", "find_gq_selections", "span", "geometry.find_gq_selections",
     _lengths("geometry.find_gq_selections.hits")),
    ("quadforge.classify", "build_w2", "span", "classify.build_w2", None),
    ("quadforge.classify", "verify_table_rows_at", "span", "classify.verify_table_rows_at", None),
    ("quadforge.cli", "emit_report", "span", "cli.emit_report", None),
] + [("quadforge.classify", name, "span", "classify.record", _record) for name in _RECORD_RUNNERS]

# (module, class, method, kind, metric, hook)
_METHODS = [
    ("quadforge.gfq", "FieldSpec", "int_tables", "span", "gfq.int_tables", _int_tables),
    ("quadforge.psl2", "GroupSpec", "elements_t", "leaf", "psl2.elements_t", _elements),
    ("quadforge.psl2", "GroupSpec", "mul_t", "count", "psl2.mul_t", None),
    ("quadforge.psl2", "IndexedGroup", "mul_idx", "count", "psl2.mul_idx", None),
    ("quadforge.psl2", "IndexedGroup", "orders", "leaf", "psl2.orders", None),
    ("quadforge.psl2", "IndexedGroup", "all_classes", "span", "psl2.all_classes",
     _lengths("psl2.all_classes.n")),
    ("quadforge.psl2", "IndexedGroup", "cayley", "span", "psl2.cayley", _cayley),
    ("quadforge.psl2", "IndexedGroup", "closure_idx", "leaf", "psl2.closure_idx", None),
    ("quadforge.psl2", "IndexedGroup", "coset_labels", "span", "psl2.coset_labels", None),
    ("quadforge.geometry", "IncidenceGeometry", "__init__", "leaf", "geometry.incidence_build",
     _incidence),
]
