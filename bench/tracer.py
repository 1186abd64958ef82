"""Spans and counters around the public functions of `xpathsat`, installed
from outside the package.

`Tracer.install()` replaces each probed function by a wrapper on every
module attribute that binds it (a function imported by name into another
module is bound there too) and, for methods, on the class.  Each wrapped
call records a span: name, start and end in ns, the span open around it,
and the operation id.  A call made while a span of the same group is the
innermost open one is folded into it (recursion, or `is_mdf_dc` calling
`is_mrw`), except for groups that count every call.  Self time is a span's
duration minus that of its child spans.  A probed name that the package no
longer has is listed in `absent` and its metrics read 0.

Layer metrics (names as in BENCHMARK.json):

* ``<group>_ms``: summed self time of the group's spans
* ``<group>_calls``: number of spans (or of calls, for count-only probes)
* plus the result-derived figures named in PROBES.
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class Probe:
    module: str          # submodule of xpathsat
    attr: str            # function name, or Class.method
    group: str           # metric prefix
    span: bool = True    # False: count calls only
    fold: bool = True    # fold calls nested directly in the same group
    on_result: Optional[str] = None  # Tracer method fed the return value


PROBES = (
    Probe("dtd", "load_dtd", "dtd.load"),
    Probe("dtd", "parse_dtd", "dtd.load"),
    Probe("dtd", "parse_xml_dtd", "dtd.load"),
    Probe("content_model", "parse_content_model", "content_model.parse"),
    Probe("dtd", "validate_no_useless", "dtd.validate"),
    Probe("dtd", "delta_dtd", "dtd.delta"),
    Probe("dtd", "delta", "dtd.delta"),
    Probe("dtd", "is_mrw", "dtd.class_check"),
    Probe("dtd", "is_mdf_dc", "dtd.class_check"),
    Probe("content_model", "symbols", "content_model.symbols"),
    Probe("content_model", "symbol_counts", "content_model.symbols"),
    Probe("schema_graph", "build_schema_graph", "schema_graph.build", on_result="_places"),
    Probe("schema_graph", "dc_convert", "schema_graph.build"),
    Probe("schema_graph", "SchemaGraph.children_with_label", "schema_graph.lookup", span=False),
    Probe("xpath", "parse_xpath", "xpath.parse"),
    Probe("xpath", "normalize", "xpath.normalize"),
    Probe("constraints", "coverable", "constraints.coverable"),
    Probe("constraints", "consistent", "constraints.consistent"),
    Probe("sat_checker", "satisfiable", "sat_checker.route", on_result="_trace_size"),
    Probe("sat_checker", "eval1", "sat_checker.eval1"),
    Probe("sat_checker", "eval2", "sat_checker.eval2", fold=False, on_result="_tuples"),
    Probe("sat_checker", "render_state", "sat_checker.render"),
    Probe("sat_checker", "render_levels", "sat_checker.render"),
    Probe("sat_checker", "render_tuple_set", "sat_checker.render"),
    Probe("sat_checker", "Eval2Tuple.render", "sat_checker.render"),
    Probe("constraints", "render_map", "sat_checker.render"),
    Probe("constraints", "render_key", "sat_checker.render"),
    Probe("xpath", "render_xpath", "sat_checker.render"),
    Probe("oracle", "oracle_satisfiable", "oracle.search"),
    Probe("oracle", "enumerate_trees", "oracle.enumerate", on_result="_trees"),
    Probe("oracle", "words_capped", "oracle.enumerate"),
    Probe("oracle", "min_heights", "oracle.enumerate"),
    Probe("oracle", "satisfies", "oracle.satisfies"),
    Probe("cli", "main", "cli.main"),
)

# reported per workload, in this order; units by suffix
LAYER_METRICS = (
    "dtd.load_ms", "content_model.parse_ms",
    "dtd.validate_ms", "dtd.delta_ms", "dtd.class_check_ms", "dtd.class_check_calls",
    "content_model.symbols_ms", "content_model.symbols_calls",
    "schema_graph.build_ms", "schema_graph.places", "schema_graph.lookup_calls",
    "xpath.parse_ms", "xpath.normalize_ms",
    "constraints.coverable_ms", "constraints.coverable_calls",
    "constraints.consistent_ms", "constraints.consistent_calls",
    "sat_checker.eval1_ms", "sat_checker.render_ms", "sat_checker.trace_kb",
    "sat_checker.eval2_ms", "sat_checker.eval2_subexprs", "sat_checker.eval2_tuples",
    "oracle.enumerate_ms", "oracle.trees_enumerated",
    "oracle.satisfies_ms", "oracle.trees_checked", "oracle.checked_per_enumerated",
    "cli.main_ms",
)

# counts that must repeat exactly between two traced runs of one seed
EXACT_COUNTS = tuple(m for m in LAYER_METRICS if not m.endswith("_ms"))


def unit_of(metric: str) -> str:
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_kb"):
        return "KiB"
    if metric.endswith("_per_enumerated"):
        return "ratio"
    return "count"


class Tracer:
    def __init__(self):
        self.spans: list = []    # (group, start_ns, end_ns, parent, op)
        self.stack: list[int] = []
        self.calls: dict[str, int] = {}
        self.extra: dict[str, float] = {}
        self.graphs: dict = {}
        self.absent: list[str] = []
        self.op = -1
        self._undo: list = []

    # --- installation ---------------------------------------------------------

    def install(self) -> None:
        for probe in PROBES:
            try:
                home = importlib.import_module(f"xpathsat.{probe.module}")
            except ImportError:
                home = None
            owner, _, name = probe.attr.rpartition(".")
            target = getattr(home, owner, None) if owner else home
            original = getattr(target, name, None) if target is not None else None
            if original is None:
                self.absent.append(f"{probe.module}.{probe.attr}")
                continue
            wrapper = self._wrap(probe, original)
            if owner:
                self._set(target, name, wrapper)
                continue
            for m in [m for key, m in list(sys.modules.items())
                      if key == "xpathsat" or key.startswith("xpathsat.")]:
                for attr, val in list(vars(m).items()):
                    if val is original:
                        self._set(m, attr, wrapper)

    def _set(self, obj, attr, value) -> None:
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def uninstall(self) -> None:
        for obj, attr, val in reversed(self._undo):
            setattr(obj, attr, val)
        self._undo.clear()

    def _wrap(self, probe: Probe, fn: Callable) -> Callable:
        group, calls, spans, stack = probe.group, self.calls, self.spans, self.stack
        hook = getattr(self, probe.on_result) if probe.on_result else None
        clock = time.perf_counter_ns
        calls.setdefault(group, 0)

        if not probe.span:
            def counted(*args, **kwargs):
                calls[group] += 1
                return fn(*args, **kwargs)
            return counted

        def wrapper(*args, **kwargs):
            if probe.fold and stack and spans[stack[-1]][0] == group:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append((group, 0, 0, stack[-1] if stack else -1, self.op))
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (group, start, end, spans[idx][3], self.op)
            calls[group] += 1
            if hook is not None:
                hook(result)
            return result

        return wrapper

    # --- result-derived figures -------------------------------------------------

    def _add(self, key: str, v: float) -> None:
        self.extra[key] = self.extra.get(key, 0) + v

    def _places(self, graph) -> None:
        d = graph.dtd
        self.graphs[(d.root, tuple(d.labels))] = len(graph.nodes)

    def _trace_size(self, verdict) -> None:
        lines = getattr(verdict, "trace", None) or ()
        self._add("sat_checker.trace_kb", sum(len(s.encode()) + 1 for s in lines) / 1024)

    def _tuples(self, tuples) -> None:
        self._add("sat_checker.eval2_tuples", len(tuples))

    def _trees(self, trees) -> None:
        self._add("oracle.trees_enumerated", len(trees))

    # --- results ----------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        child = [0] * len(self.spans)
        for group, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for i, (group, start, end, _, _) in enumerate(self.spans):
            out[group] = out.get(group, 0) + (end - start - child[i])
        return out

    def metrics(self) -> dict[str, float]:
        own = self.self_times()
        m = {}
        for name in LAYER_METRICS:
            if name.endswith("_ms"):
                m[name] = own.get(name[:-3], 0) / 1e6
            elif name.endswith("_calls"):
                m[name] = self.calls.get(name[:-6], 0)
            else:
                m[name] = self.extra.get(name, 0)
        m["schema_graph.places"] = sum(self.graphs.values())
        m["sat_checker.eval2_subexprs"] = self.calls.get("sat_checker.eval2", 0)
        m["oracle.trees_checked"] = self.calls.get("oracle.satisfies", 0)
        enumerated = m["oracle.trees_enumerated"]
        m["oracle.checked_per_enumerated"] = (
            m["oracle.trees_checked"] / enumerated if enumerated else 0
        )
        m["sat_checker.trace_kb"] = round(m["sat_checker.trace_kb"], 3)
        return m

    def write(self, path: str) -> None:
        """One line per span: group, start ns, end ns, parent index, op id."""
        with open(path, "w", encoding="utf-8") as f:
            f.write("# group\tstart_ns\tend_ns\tparent\top\n")
            for s in self.spans:
                f.write("\t".join(map(str, s)) + "\n")
            for name in self.absent:
                f.write(f"# absent\t{name}\n")
