"""Spans around the calls into prtoolkit's public functions, from outside the program.

`Tracer.install` replaces every public function of every prtoolkit
module by a timing wrapper, at every module that imported it by name
(`prtoolkit.ramsey.integer_roots` as well as
`prtoolkit.algebra.integer_roots`), plus the methods `RatMatrix.rank`
(a span) and `ExpSum.eval` (a counter only: it runs millions of times).
Each call leaves a span (name, start, end, parent) in memory; the
harness opens one root span per operation, so the spans of one
operation share their root.  `layer_metrics` reduces the spans to the
per-layer metrics, `dump` writes them out.  A span's self time is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import time
from array import array
from collections import Counter, defaultdict
from typing import Dict, List

MODULES = ("algebra", "equations", "rado", "diophantine", "sunit", "polyexp", "ramsey", "cli")


def _enumerated_cells(args, kwargs, result, counts):
    cls, N = args[0], args[1]
    arity = len(cls.variables) - (0 if hasattr(cls, "exp_vars") else 1)
    counts["ramsey.prefix_cells"] += N ** max(arity, 0)
    counts["ramsey.solutions"] += len(result)


def _window(args, kwargs, result, counts):
    if result.dominance is not None and result.window is not None:
        counts["polyexp.window_points"] += result.window[1] - result.window[0] + 1


# work counters read off a call's arguments and result
HOOKS = {
    "ramsey.enumerate_solutions": _enumerated_cells,
    "ramsey.search_avoiding_coloring": lambda a, k, r, c: c.update({"ramsey.dfs_nodes": r.nodes}),
    "polyexp.decide_constant_solution": _window,
    "sunit.enumerate_group_elements": lambda a, k, r, c: c.update({"sunit.box_elements": len(r)}),
}

# (metric, unit, how, span name or counter): "total" sums span durations,
# "self" sums self times, "calls" counts spans, "counter" reads a hook
LAYER_METRICS = (
    ("cli.self_ms", "ms", "self", "cli.main"),
    ("cli.calls", "count", "calls", "cli.main"),
    ("equations.parse_ms", "ms", "total", "equations.parse_equation_text"),
    ("equations.classify_ms", "ms", "total", "equations.classify"),
    ("equations.class_to_json_ms", "ms", "total", "equations.class_to_json"),
    ("algebra.factor_integer_ms", "ms", "total", "algebra.factor_integer"),
    ("algebra.factor_integer_calls", "count", "calls", "algebra.factor_integer"),
    ("algebra.integer_roots_ms", "ms", "total", "algebra.integer_roots"),
    ("algebra.integer_roots_calls", "count", "calls", "algebra.integer_roots"),
    ("algebra.rank_ms", "ms", "total", "algebra.rank"),
    ("algebra.rank_calls", "count", "calls", "algebra.rank"),
    ("rado.decide_linear_ms", "ms", "total", "rado.decide_linear"),
    ("rado.columns_condition_ms", "ms", "total", "rado.columns_condition"),
    ("rado.verify_columns_condition_ms", "ms", "total", "rado.verify_columns_condition"),
    ("diophantine.decide_twovar_ms", "ms", "total", "diophantine.decide_twovar"),
    ("sunit.decide_sunit_3var_ms", "ms", "total", "sunit.decide_sunit_3var"),
    ("sunit.count_solutions_ms", "ms", "total", "sunit.count_unit_equation_solutions"),
    ("sunit.box_elements", "count", "counter", "sunit.box_elements"),
    ("polyexp.check_hypothesis_ms", "ms", "total", "polyexp.check_hypothesis"),
    ("polyexp.partitions_checked", "count", "calls", "polyexp.character_group_trivial"),
    ("polyexp.dominance_bound_ms", "ms", "total", "polyexp.dominance_bound"),
    ("polyexp.verify_dominance_ms", "ms", "total", "polyexp.verify_dominance"),
    ("polyexp.window_scan_ms", "ms", "self", "polyexp.decide_constant_solution"),
    ("polyexp.window_points", "count", "counter", "polyexp.window_points"),
    ("polyexp.exact_evals", "count", "counter", "polyexp.exact_evals"),
    ("polyexp.modular_search_ms", "ms", "total", "polyexp.modular_certificate_search"),
    ("polyexp.verify_modular_ms", "ms", "total", "polyexp.verify_modular"),
    ("ramsey.enumerate_ms", "ms", "total", "ramsey.enumerate_solutions"),
    ("ramsey.enumerate_calls", "count", "calls", "ramsey.enumerate_solutions"),
    ("ramsey.prefix_cells", "count", "counter", "ramsey.prefix_cells"),
    ("ramsey.solutions", "count", "counter", "ramsey.solutions"),
    ("ramsey.dfs_ms", "ms", "self", "ramsey.search_avoiding_coloring"),
    ("ramsey.dfs_nodes", "count", "counter", "ramsey.dfs_nodes"),
    ("ramsey.verify_coloring_ms", "ms", "total", "ramsey.verify_coloring"),
)


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = []
        self.counts: Counter = Counter()
        self._undo = []

    # -- spans

    def begin(self, label: str) -> int:
        nid = self._ids.get(label)
        if nid is None:
            nid = self._ids[label] = len(self.names)
            self.names.append(label)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, label: str, fn):
        hook = HOOKS.get(label)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.begin(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.finish(idx)
            if hook is not None:
                hook(args, kwargs, result, self.counts)
            return result

        return wrapper

    def _count_calls(self, counter: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installing the wrappers

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        mods = {m: importlib.import_module("prtoolkit." + m) for m in MODULES}
        everywhere = list(mods.values()) + [importlib.import_module("prtoolkit")]
        for short, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not callable(fn) or isinstance(fn, type):
                    continue
                if getattr(fn, "__module__", None) != mod.__name__:
                    continue
                wrapped = self._wrap("%s.%s" % (short, attr), fn)
                for other in everywhere:
                    if vars(other).get(attr) is fn:
                        self._patch(other, attr, wrapped)
        self._patch(mods["algebra"].RatMatrix, "rank",
                    self._wrap("algebra.rank", mods["algebra"].RatMatrix.rank))
        self._patch(mods["polyexp"].ExpSum, "eval",
                    self._count_calls("polyexp.exact_evals", mods["polyexp"].ExpSum.eval))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # -- results

    def aggregate(self):
        """(total seconds, self seconds, calls) per span name."""
        n = len(self.start)
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        total, own, calls = defaultdict(float), defaultdict(float), Counter()
        for i in range(n):
            label = self.names[self.name[i]]
            dur = self.end[i] - self.start[i]
            total[label] += dur
            own[label] += dur - child[i]
            calls[label] += 1
        return total, own, calls

    def layer_metrics(self, rounds: int) -> Dict[str, dict]:
        """Every per-layer metric, per round of the workload."""
        total, own, calls = self.aggregate()
        out = {}
        for metric, unit, how, key in LAYER_METRICS:
            if how == "total":
                value = total[key] * 1000
            elif how == "self":
                value = own[key] * 1000
            elif how == "calls":
                value = calls[key]
            else:
                value = self.counts[key]
            out[metric] = {"value": value / rounds, "unit": unit}
        return out

    def dump(self, path, t0: float) -> None:
        """Write the spans as gzipped JSON columns, times in microseconds from t0.

        Columns are written in slices, so a run with millions of spans
        needs no list of them all.
        """
        def us(v):
            return str(round((v - t0) * 1e6))

        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write('{"names":%s,"counters":%s' % (json.dumps(self.names), json.dumps(dict(self.counts))))
            for key, column, convert in (("name", self.name, str), ("parent", self.parent, str),
                                         ("start_us", self.start, us), ("end_us", self.end, us)):
                fh.write(',"%s":[' % key)
                for k in range(0, len(column), 65536):
                    fh.write(("," if k else "") + ",".join(map(convert, column[k:k + 65536])))
                fh.write("]")
            fh.write("}")
