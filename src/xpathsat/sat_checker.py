"""Satisfiability of navigational queries over a schema graph.

Two complete procedures, each polynomial on its fragment:

* `eval1` handles qualifier-free step sequences along child, parent and the
  two sibling axes.  It walks the schema graph keeping, per depth, the set of
  places the current node might occupy, plus a sibling-requirement map keyed
  by the absolute label path.

* `eval2` handles child and sibling steps with nested qualifiers (after
  conjunctions are split).  It computes, per subexpression, the set of
  (start place, end place) pairs annotated with requirement maps keyed
  relative to the start.  Given a set of start places, it builds only the
  pairs that start there, running each later part of the query from the
  places the earlier parts end at.  `satisfiable` decides from the virtual
  root place alone; a traced run, and a call without start places, still
  covers every context.

Both report UNSAT exactly when every candidate run dies, either by running
out of admissible places or by demanding children no single content-model
word provides.

Known incompleteness: requirements are keyed by label path, so two siblings
with one label share one entry and a satisfiable query can come back UNSAT.
Under `r := r*(b|c)r*` (b and c empty), `↓::r/↓::b/↑::r/←⁺::r/↓::c` reads
UNSAT although the document r(b,r(c),r(b)) matches it."""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, NamedTuple, Optional

from .constraints import (
    DfsBits, Key, SibEntry, SibMap, consistent, coverable, psi,
    render_key, render_map, surviving,
)
from .dtd import Dtd, delta_dtd, validate_no_useless
from .errors import UnsupportedFragment
from .schema_graph import SchemaGraph, SgNode, build_schema_graph
from .xpath import (
    ARROW, Axis, Path, QPath, Qual, Seq, Step, Union,
    fragment_of, normalize, parse_xpath, render_xpath,
)


# --- eval1 -------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Level:
    label: str
    nodes: tuple[SgNode, ...]   # same label, same parent label, index order
    dfs: bool                   # True iff a single place that is dfs


_RENDERED = ("final_state", "reason", "trace")


@dataclass(frozen=True)
class Verdict:
    """A decision and how it was reached.  One from `satisfiable` holds its
    graph and normalized query in place of trace, final_state and reason
    until one of them is read, then renders all three by one traced re-run."""

    sat: bool
    algorithm: str
    final_state: Optional[str]  # eval1 renders it only on traced runs
    reason: Optional[str]
    trace: tuple[str, ...]
    levels: Optional[tuple[Level, ...]] = None  # eval1, on SAT
    beta: Optional[SibMap] = None               # eval1, on SAT

    def __getattr__(self, name: str):
        # reached only for a field missing from the instance: a deferred one
        run = vars(self).get("_run")
        if name not in _RENDERED or run is None:
            raise AttributeError(name)
        traced = (eval1 if self.algorithm == "eval1" else _traced_eval2)(*run)
        vars(self).update({f: getattr(traced, f) for f in _RENDERED})
        return vars(self)[name]


def _deferred(run: tuple, sat: bool, algorithm: str, levels=None, beta=None) -> Verdict:
    """A verdict whose _RENDERED fields come from a traced run on (graph, p)."""
    v = object.__new__(Verdict)
    vars(v).update(sat=sat, algorithm=algorithm, levels=levels, beta=beta, _run=run)
    return v


def render_levels(levels: tuple[Level, ...]) -> str:
    return "".join("{" + ",".join(u.name for u in lv.nodes) + "}" for lv in levels)


def render_state(levels: tuple[Level, ...], beta: SibMap) -> str:
    return f"({render_levels(levels)}, {render_map(beta)})"


def _admissible(u: SgNode, v: SgNode, axis: Axis) -> bool:
    """Can v hold a sibling of a node at u, after (fsib) or before (psib) it?
    A starred place can recur, so its own position stays admissible."""
    if axis is Axis.FSIB:
        return u.pos < v.pos if u.omega == "-" else u.pos <= v.pos
    return v.pos < u.pos if u.omega == "-" else v.pos <= u.pos


def _as_map(bmap: dict[Key, SibEntry]) -> SibMap:
    return SibMap(tuple(bmap[key] for key in sorted(bmap)))


def eval1(graph: SchemaGraph, p: Path, trace: bool = True) -> Verdict:
    """Walk the query over the schema graph, one step at a time.

    With trace=False no state strings are rendered at all (final_state comes
    back None, the trace is empty and an uncoverable reason names only the
    key); the verdict, levels and map are the same either way.  `satisfiable`
    decides untraced and renders the traced fields on first read, by one
    traced re-run.  The requirement map lives in a plain dict here: a step
    touches one entry, so only that entry needs a fresh coverability check,
    and a child step never unpins anything (the current path only extends),
    so the restriction pass runs only on upward and sideways moves."""
    d = graph.dtd
    steps = p.steps if isinstance(p, Seq) else (p,)
    for step in steps:
        if not isinstance(step, Step):
            raise UnsupportedFragment(f"not a plain step sequence: {render_xpath(step)}")
    levels: tuple[Level, ...] = (Level(d.root, (graph.sentinel,), True),)
    path: Key = (d.root,)
    bits: DfsBits = (True,)
    bmap: dict[Key, SibEntry] = {}
    lines: list[str] = []
    if trace:
        lines.append(f"start: {render_state(levels, _as_map(bmap))}")

    def unsat(line: Optional[str], reason: str) -> Verdict:
        if trace:
            lines.append(line)
            lines.append("verdict: UNSAT")
        return Verdict(False, "eval1", line if trace else None, reason, tuple(lines))

    def nowhere(reason: str) -> Verdict:
        return unsat(f"{s} → ∅ (no admissible place)", reason)

    for step in steps:
        s = f"{ARROW[step.axis]}::{step.label}"
        if step.axis is Axis.PARENT:
            if len(levels) == 1:
                return nowhere("no parent above the root")
            if levels[-2].label != step.label:
                return nowhere(f"parent is labeled {levels[-2].label!r}, not {step.label!r}")
            levels, path, bits = levels[:-1], path[:-1], bits[:-1]
            bmap = {e.key: e for e in surviving(bmap.values(), path)}
        elif step.axis in (Axis.CHILD, Axis.FSIB, Axis.PSIB):
            # a sideways step replaces the current node by a sibling, so it
            # lands below the parent and demands its label there
            sideways = step.axis is not Axis.CHILD
            if sideways and len(levels) == 1:
                return nowhere("the root has no siblings")
            base = levels[:-1] if sideways else levels
            targets = graph.children_with_label(base[-1].label, step.label)
            if sideways:
                targets = tuple(
                    v for v in targets
                    if any(_admissible(u, v, step.axis) for u in levels[-1].nodes)
                )
            if not targets:
                return nowhere(
                    f"no admissible sibling labeled {step.label!r}" if sideways
                    else f"no place labeled {step.label!r} below {levels[-1].label!r}"
                )
            key, kbits = (path[:-1], bits[:-1]) if sideways else (path, bits)
            values = psi(targets[0])
            stored = bmap.get(key)
            if stored is not None:
                assert stored.dfs == kbits, f"dfs mismatch on key {key}"
                values = stored.values | values
            bmap[key] = SibEntry(key, values, kbits)
            new_level = Level(step.label, targets, len(targets) == 1 and targets[0].is_dfs)
            levels = base + (new_level,)
            if values and not coverable(d.covers[key[-1]], values):
                if trace:
                    beta = _as_map(bmap)
                    return unsat(
                        f"{s} → {render_state(levels, beta)} inconsistent",
                        f"requirements {render_map(beta)} are not coverable",
                    )
                return unsat(None, f"requirements at {render_key(key)} are not coverable")
            path, bits = key + (step.label,), kbits + (new_level.dfs,)
            if sideways:
                bmap = {e.key: e for e in surviving(bmap.values(), path)}
        else:
            raise UnsupportedFragment(f"axis {step.axis.value} is outside eval1")
        if trace:
            lines.append(f"{s} → {render_state(levels, _as_map(bmap))}")

    beta = _as_map(bmap)
    if trace:
        lines.append("verdict: SAT")
    return Verdict(
        True, "eval1", render_state(levels, beta) if trace else None, None,
        tuple(lines), levels, beta,
    )


# --- eval2 -------------------------------------------------------------------

class Eval2Tuple(NamedTuple):
    """One realizable way a subexpression can run, for every context.

    rel spans the labels from start (inclusive) to end (exclusive); pre and
    post are keyed relative to the start's context."""

    start: SgNode
    pre: SibMap
    end: SgNode
    post: SibMap
    rel: tuple[str, ...]
    rel_dfs: tuple[bool, ...]

    def render(self) -> str:
        return _row(self)[1]


def _row(t: Eval2Tuple) -> tuple[tuple, str]:
    """The tuple's sort key and its text, each map rendered once."""
    pre, post = render_map(t.pre), render_map(t.post)
    return (
        (t.start.index, t.end.index, t.rel, pre, post),
        f"(({t.start.name},{pre}),({t.end.name},{post}),{render_key(t.rel)})",
    )


def render_tuple_set(tuples: tuple[Eval2Tuple, ...]) -> str:
    """The tuples in a fixed order: by start and end place, then by the
    rendered relative path and maps."""
    if not tuples:
        return "∅"
    return "{" + ", ".join(text for _, text in sorted(map(_row, tuples))) + "}"


def eval2(
    graph: SchemaGraph, p: Path, trace: Optional[list[str]] = None,
    starts: Optional[AbstractSet[SgNode]] = None,
) -> tuple[Eval2Tuple, ...]:
    """Tuple set of a normalized query (child/sibling steps, stacked
    qualifiers), without duplicates and in no particular order.  Appends one
    line per subexpression and per proper prefix of a sequence to `trace`,
    the set as `render_tuple_set` orders it.

    Without `starts` the set covers every context: one tuple per way the
    query can run from each place.  With `starts`, it is exactly the tuples
    of that full set whose start is in `starts`, and no other tuple is
    built: each part of a sequence after the first runs only from the end
    places of the tuples to its left, and a qualifier's path only from the
    end places of its base.  A trace taken with `starts` lists these
    restricted sets, so it covers only the contexts the run reaches."""
    d = graph.dtd
    out: list[Eval2Tuple]
    match p:
        case Step(Axis.CHILD, label):
            out = []
            for u in _froms(graph, p, starts):
                rel, bits = (u.label,), (u.is_dfs,)
                for v in graph.children_with_label(u.label, label):
                    post = SibMap((SibEntry(rel, psi(v), bits),))
                    out.append(Eval2Tuple(u, SibMap.empty(), v, post, rel, bits))
        case Step(Axis.FSIB | Axis.PSIB as axis, label):
            out = []
            for u in _froms(graph, p, starts):
                for v in graph.children_with_label(u.parent_label, label):
                    if _admissible(u, v, axis):
                        mine = psi(u)
                        pre = SibMap((SibEntry((), mine, ()),))
                        post = SibMap((SibEntry((), mine | psi(v), ()),))
                        out.append(Eval2Tuple(u, pre, v, post, (), ()))
        case Step(axis, _):
            raise UnsupportedFragment(f"axis {axis.value} is outside eval2")
        case Seq(steps):
            # a left fold that settles and traces each proper prefix
            t1s = eval2(graph, steps[0], trace, starts)
            for i in range(1, len(steps)):
                t2s = eval2(graph, steps[i], trace, _ends(t1s, starts))
                out = [
                    Eval2Tuple(t1.start, t1.pre, t2.end, post,
                               t1.rel + t2.rel, t1.rel_dfs + t2.rel_dfs)
                    for t1, t2, post in _joined(t1s, t2s, d)
                ]
                if i < len(steps) - 1:
                    t1s = _settled(out, Seq(steps[:i + 1]), trace)
        case Qual(base, quals):
            # stacked qualifiers apply innermost first; each stacked prefix is settled
            t1s = eval2(graph, base, trace, starts)
            for i, q in enumerate(quals):
                if not isinstance(q, QPath):
                    raise UnsupportedFragment("qualifier disjunction is outside eval2")
                t2s = eval2(graph, q.path, trace, _ends(t1s, starts))
                # past the qualifier, only requirements pinned through the
                # anchor path stay binding
                out = [
                    Eval2Tuple(t1.start, t1.pre, t1.end,
                               post.restrict(t1.rel + (t1.end.label,)), t1.rel, t1.rel_dfs)
                    for t1, _, post in _joined(t1s, t2s, d)
                ]
                if i < len(quals) - 1:
                    t1s = _settled(out, Qual(base, quals[:i + 1]), trace)
        case Union():
            raise UnsupportedFragment("union is outside eval2")
        case _:
            raise TypeError(f"not a path: {p!r}")
    return _settled(out, p, trace)


def _froms(graph: SchemaGraph, step: Step, starts: Optional[AbstractSet[SgNode]]):
    """The places a step runs from: starts, or in an unrestricted run every
    place that can have a child (a child step) or a sibling (a sibling
    step) labeled step.label, so that no place is probed in vain.  The
    virtual node has no parent label, so it has no siblings."""
    if starts is not None:
        return starts
    parents = dict.fromkeys(v.parent_label for v in graph.places_labeled(step.label))
    group = graph.places_labeled if step.axis is Axis.CHILD else graph.children
    return [u for lbl in parents for u in group(lbl)]


def _ends(ts: tuple[Eval2Tuple, ...], starts: Optional[AbstractSet[SgNode]]):
    """Where the next part of a restricted run starts: the end places of ts.
    An unrestricted run stays unrestricted, so it still covers every context."""
    return None if starts is None else {t.end for t in ts}


def _settled(out: list[Eval2Tuple], p: Path, trace: Optional[list[str]]) -> tuple[Eval2Tuple, ...]:
    """p's tuple set without duplicates, traced as one line."""
    result = tuple(set(out))
    if trace is not None:
        trace.append(
            f"eval2({render_xpath(p, arrows=True)}) = {render_tuple_set(result)}"
        )
    return result


def _joined(t1s: tuple[Eval2Tuple, ...], t2s: tuple[Eval2Tuple, ...], d: Dtd):
    """(t1, t2, joined map) for every t2 that starts where t1 ends and whose
    map, shifted past t1, is consistent with t1's."""
    by_start: dict[int, list[Eval2Tuple]] = {}
    for t2 in t2s:
        by_start.setdefault(t2.start.index, []).append(t2)
    # many pairs share their maps and shift: join and check each kind once
    posts: dict[tuple, Optional[SibMap]] = {}
    for t1 in t1s:
        for t2 in by_start.get(t1.end.index, ()):
            key = (t1.post, t2.post, t1.rel, t1.rel_dfs)
            post = posts.get(key, False)
            if post is False:
                post = t1.post.join(t2.post.shift(t1.rel, t1.rel_dfs))
                post = posts[key] = post if consistent(post, d) else None
            if post is not None:
                yield t1, t2, post


def _accepting(t: Eval2Tuple, graph: SchemaGraph) -> bool:
    return t.start == graph.sentinel and t.pre.all_values_empty()


# --- routing -----------------------------------------------------------------

def compile_dtd(d: Dtd) -> SchemaGraph:
    """The schema graph every query on d runs on: d checked for useless
    labels, normalized by `delta_dtd` and built into a graph.  It is kept on
    the Dtd instance after the first call, so a queried Dtd must not be
    mutated; a DTD that fails a check is not kept and raises on every call."""
    graph = vars(d).get("_schema_graph")
    if graph is None:
        validate_no_useless(d)
        graph = vars(d)["_schema_graph"] = build_schema_graph(delta_dtd(d))
    return graph


def _traced_eval2(graph: SchemaGraph, p: Path) -> Verdict:
    trace: list[str] = []
    tuples = eval2(graph, p, trace)
    winners = [t for t in tuples if _accepting(t, graph)]
    if winners:
        trace.append("verdict: SAT")
        _, first = min(map(_row, winners))
        return Verdict(True, "eval2", first, None, tuple(trace))
    trace.append("verdict: UNSAT")
    reason = "no realizable run" if not tuples else "no run starts at the virtual root place"
    return Verdict(False, "eval2", None, reason, tuple(trace))


def _routed(d: Dtd, query: Path | str) -> tuple[SchemaGraph, Path, str]:
    """d's graph, the normalized query, and the decider that fits it."""
    p = parse_xpath(query) if isinstance(query, str) else query
    graph, p = compile_dtd(d), normalize(p)
    frag = fragment_of(p)
    if frag == "full":
        raise UnsupportedFragment(
            "query needs recursive axes, union, or qualifier disjunction; "
            "only the bounded oracle covers those"
        )
    return graph, p, frag


def satisfiable(d: Dtd, query: Path | str) -> Verdict:
    """Decide whether any document conforming to d matches the query from its
    root.  Raises NotMRW/DtdError for out-of-class DTDs and
    UnsupportedFragment for queries outside both procedures.

    The verdict is decided untraced, eval2 building only the tuples that
    start at the virtual root place, and holds the graph and normalized query;
    the first read of its trace, final_state or reason renders all three by
    one traced re-run."""
    graph, p, frag = _routed(d, query)
    if frag == "eval1":
        v = eval1(graph, p, trace=False)
        return _deferred((graph, p), v.sat, "eval1", v.levels, v.beta)
    roots = eval2(graph, p, starts={graph.sentinel})
    return _deferred((graph, p), any(_accepting(t, graph) for t in roots), "eval2")


def _traced_verdict(d: Dtd, query: Path | str) -> Verdict:
    """`satisfiable`'s verdict by one traced run, for a caller that reads the trace."""
    graph, p, frag = _routed(d, query)
    return (eval1 if frag == "eval1" else _traced_eval2)(graph, p)
