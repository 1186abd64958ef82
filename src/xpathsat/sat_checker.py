"""Satisfiability of navigational queries over a schema graph.

Two complete procedures, each polynomial on its fragment:

* `eval1` handles qualifier-free step sequences along child, parent and the
  two sibling axes.  It walks the schema graph keeping one frame per
  document node the walk visits: the set of places that node might occupy,
  the child labels demanded below it, and the child frames still bound to
  it; a stack holds the frames from the root to the current node.  Each
  step costs the same however long the query, and two siblings with one
  label are two frames.  Label-path keys are rendered only for a trace and
  for a verdict's `beta`.

* `eval2` handles child and sibling steps with nested qualifiers (after
  conjunctions are split).  It computes, per subexpression, the set of
  (start place, end place) pairs annotated with requirement maps keyed
  relative to the start.  Given a set of start places, it builds only the
  pairs that start there, running each later part of the query from the
  places the earlier parts end at.  `satisfiable` decides from the virtual
  root place alone; a traced run, and a call without start places, still
  covers every context.

Both report UNSAT when every candidate run dies, either by running out of
admissible places or by demanding children no single content-model word
provides.  `fragment_of` names the procedure whose fragment holds a query,
and `satisfiable` routes by it.

Known incompleteness: eval2 keys requirements by label path, so two
siblings with one label share one entry and a satisfiable query can come
back UNSAT.  Under `r := r*(b|c)r*` (b and c empty), `↓::r[↓::b]/←⁺::r[↓::c]`
and `↓::r[↓::b]/→⁺::r/↓::c` read UNSAT although r(b,r(c),r(b)) and
r(b,r(b),r(c)) match them."""

from __future__ import annotations

from typing import AbstractSet, NamedTuple, Optional

from .constraints import (
    DfsBits, Key, SibEntry, SibMap, consistent, coverable, psi, render_key, render_map,
)
from .dtd import Dtd, delta_dtd, validate_no_useless
from .errors import UnsupportedFragment
from .record import Record, _set
from .schema_graph import SchemaGraph, SgNode, build_schema_graph
from .xpath import (
    ARROW, Axis, Path, QOr, QPath, Qual, Seq, Step, Union,
    features, normalize, parse_xpath, render_xpath,
)


# --- eval1 -------------------------------------------------------------------

# the axes the deciders test, read once: a read off the Enum class is slow
_CHILD, _PARENT, _FSIB, _PSIB = Axis.CHILD, Axis.PARENT, Axis.FSIB, Axis.PSIB


class Level(Record):
    # nodes: one label and parent label, index order; dfs: one place, a dfs one
    __slots__ = __match_args__ = ("label", "nodes", "dfs")

    def __init__(self, label: str, nodes: tuple[SgNode, ...], dfs: bool):
        _set(self, "label", label)
        _set(self, "nodes", nodes)
        _set(self, "dfs", dfs)


_RENDERED = ("final_state", "reason", "trace")


class Verdict(Record):
    """A decision and how it was reached.  One from `satisfiable` holds its
    graph and normalized query in place of trace, final_state and reason
    until one of them is read, then renders all three by one traced re-run.

    levels and beta are set on an eval1 SAT only.  An untraced run holds its
    final frames in their place and builds both from them on first read:
    the map's label-path keys together grow with the square of the query's
    length.  A copy or pickle holds them built."""

    # no field is a class attribute: a deferred one reaches __getattr__
    __match_args__ = ("sat", "algorithm", "final_state", "reason", "trace", "levels", "beta")
    __reduce__ = object.__reduce__  # pickled by state, so deferred fields stay so

    def __init__(self, sat, algorithm, final_state, reason, trace, levels=None, beta=None):
        vars(self).update(sat=sat, algorithm=algorithm, final_state=final_state,
                          reason=reason, trace=trace, levels=levels, beta=beta)

    def __getattr__(self, name: str):
        # reached only for a field missing from the instance: a deferred one
        state = vars(self)
        if name in _RENDERED and "_run" in state:
            traced = (eval1 if self.algorithm == "eval1" else _traced_eval2)(*state["_run"])
            state.update({f: getattr(traced, f) for f in _RENDERED})
        elif name in ("levels", "beta") and "_frames" in state:
            stack = state.pop("_frames")
            state.update(levels=_levels(stack), beta=_beta(stack[0]))
        else:
            raise AttributeError(name)
        return state[name]

    def __getstate__(self) -> dict:
        # a copy or pickle holds levels and beta, not the frames of the run
        getattr(self, "levels")
        return vars(self)


def _partial(**state) -> Verdict:
    """A verdict holding `state`; each field it leaves out is deferred: the
    _RENDERED ones to a traced run on `_run` = (graph, p), levels and beta to
    the frames `_frames` from the root to where an eval1 run ended."""
    v = object.__new__(Verdict)
    vars(v).update(state)
    return v


def render_levels(levels: tuple[Level, ...]) -> str:
    return "".join("{" + ",".join(u.name for u in lv.nodes) + "}" for lv in levels)


def render_state(levels: tuple[Level, ...], beta: SibMap) -> str:
    return f"({render_levels(levels)}, {render_map(beta)})"


def _admissible(u: SgNode, v: SgNode, axis: Axis) -> bool:
    """Can v hold a sibling of a node at u, after (fsib) or before (psib) it?
    A starred place can recur, so its own position stays admissible."""
    if axis is _FSIB:
        return u.pos < v.pos if u.omega == "-" else u.pos <= v.pos
    return v.pos < u.pos if u.omega == "-" else v.pos <= u.pos


class _Frame:
    """One document node an eval1 run visits: its level, the labels demanded
    among its children (None until a step goes down from it) and, by label,
    the child frames still bound to it.  Its label path and dfs bits from the
    root are built only to render a map.  A frame holds no link to its
    parent, so a run's frames are freed as soon as it ends."""

    __slots__ = ("level", "need", "kids", "path")

    def __init__(self, level: Level):
        self.level = level
        self.need: Optional[frozenset[str]] = None
        self.kids: dict[str, _Frame] = {}
        self.path: Optional[tuple[Key, DfsBits]] = None


def _levels(stack: list[_Frame]) -> tuple[Level, ...]:
    return tuple(f.level for f in stack)


def _beta(root: _Frame) -> SibMap:
    """The map of the demands still bound below root, keyed by label path:
    one entry per bound frame that a step went down from."""
    if root.path is None:
        root.path = ((root.level.label,), (root.level.dfs,))
    entries = []
    todo = [root]
    while todo:
        f = todo.pop()
        key, bits = f.path
        if f.need is not None:
            entries.append(SibEntry(key, f.need, bits))
        for kid in f.kids.values():
            if kid.path is None:  # kept for the next step a traced run renders
                kid.path = (key + (kid.level.label,), bits + (kid.level.dfs,))
            todo.append(kid)
    # live frames have distinct label paths: a non-dfs frame lets go before
    # a same-label sibling enters, and a dfs label has no same-label sibling
    return SibMap(tuple(sorted(entries)))


def eval1(graph: SchemaGraph, p: Path, trace: bool = True) -> Verdict:
    """Walk the query over the schema graph, one step at a time, keeping one
    frame per document node the walk visits (see `_Frame`) and the stack of
    frames from the root to the current node.

    A child step adds the target's df label to the current frame's demands
    and enters the child frame kept for that label if it is dfs (the same
    node), else a fresh one.  A parent step leaves the current frame.  A
    sideways step adds the sibling's demand to the parent frame, leaves the
    current frame and then enters the sibling's, so two siblings with one
    label are two frames.  Each step costs the same however long the run,
    and only the frame a step adds a demand to needs a fresh coverability
    check.  A run builds one `Level` per distinct group of target places,
    and works each move from one level along one step out once; the step
    loop reads its axes, lookups and current frame from constants and locals.

    With trace=False no state strings are rendered at all (final_state comes
    back None, the trace is empty and an uncoverable reason names only the
    key), and a SAT verdict renders levels and map on first read from the
    final stack; the verdict, levels and map are the same either way.
    `satisfiable` decides untraced and renders the traced fields on first
    read, by one traced re-run."""
    d = graph.dtd
    steps = p.steps if isinstance(p, Seq) else (p,)
    for step in steps:
        if not isinstance(step, Step):
            raise UnsupportedFragment(f"not a plain step sequence: {render_xpath(step)}")
    stack = [_Frame(Level(d.root, (graph.sentinel,), True))]  # root to current node
    # target places -> their level and psi, built once per run
    by_targets: dict[tuple[SgNode, ...], tuple[Level, frozenset[str]]] = {}
    # (id of the current level, axis, label) -> where the step lands; one
    # level per target tuple, so the id stands for its places and hashes in C
    moves: dict[tuple[int, Axis, str], tuple[Level, frozenset[str]]] = {}
    lines: list[str] = []
    if trace:
        lines.append(f"start: {render_state(_levels(stack), _beta(stack[0]))}")

    def unsat(line: Optional[str], reason: str) -> Verdict:
        if trace:
            lines.append(line)
            lines.append("verdict: UNSAT")
        return Verdict(False, "eval1", line if trace else None, reason, tuple(lines))

    def nowhere(reason: str) -> Verdict:
        return unsat(f"{s} → ∅ (no admissible place)", reason)

    covers, move_of = d.covers, moves.get
    cur = stack[-1]
    for step in steps:
        axis, label = step.axis, step.label
        s = f"{ARROW[axis]}::{label}" if trace else ""  # only traces show it
        # leaving a frame: a dfs child is the same node in every placement, so
        # it stays bound with its demands; any other lets go, and all below it
        if axis is _PARENT:
            if len(stack) == 1:
                return nowhere("no parent above the root")
            up = stack[-2]
            if up.level.label != label:
                return nowhere(f"parent is labeled {up.level.label!r}, not {label!r}")
            stack.pop()
            if not cur.level.dfs:
                del up.kids[cur.level.label]
            cur = up
        elif axis is _CHILD or axis is _FSIB or axis is _PSIB:
            # a sideways step replaces the current node by a sibling, so it
            # lands below the parent and demands its label there
            sideways = axis is not _CHILD
            if sideways and len(stack) == 1:
                return nowhere("the root has no siblings")
            at = stack[-2] if sideways else cur
            # where a step lands hangs on the current level (whose places
            # fix their parent's label) and the step alone, so a run works
            # each kind of move out once
            kind = (id(cur.level), axis, label)
            move = move_of(kind)
            if move is None:
                targets = graph.children_with_label(at.level.label, label)
                if sideways:
                    targets = tuple(
                        v for v in targets
                        if any(_admissible(u, v, axis) for u in cur.level.nodes)
                    )
                if not targets:
                    return nowhere(
                        f"no admissible sibling labeled {label!r}" if sideways
                        else f"no place labeled {label!r} below {cur.level.label!r}"
                    )
                move = by_targets.get(targets)
                if move is None:
                    dfs = len(targets) == 1 and targets[0].is_dfs
                    move = by_targets[targets] = (Level(label, targets, dfs), psi(targets[0]))
                moves[kind] = move
            level, values = move
            need = at.need
            if need is None or not values <= need:
                # the demands below `at` start or grow: check them afresh
                at.need = values if need is None else need | values
                if values and not coverable(covers[at.level.label], at.need):
                    base = stack[:-1] if sideways else stack
                    if trace:
                        beta = _beta(stack[0])
                        return unsat(
                            f"{s} → {render_state(_levels(base) + (level,), beta)} inconsistent",
                            f"requirements {render_map(beta)} are not coverable",
                        )
                    key = tuple(f.level.label for f in base)
                    return unsat(None, f"requirements at {render_key(key)} are not coverable")
            if sideways:
                stack.pop()
                if not cur.level.dfs:
                    del at.kids[cur.level.label]
            # only a dfs child stays bound once left, and a dfs child is the
            # one node of its label below `at`
            cur = at.kids.get(label)
            if cur is None:
                cur = at.kids[label] = _Frame(level)
            stack.append(cur)
        else:
            raise UnsupportedFragment(f"axis {axis.value} is outside eval1")
        if trace:
            lines.append(f"{s} → {render_state(_levels(stack), _beta(stack[0]))}")

    if not trace:
        return _partial(sat=True, algorithm="eval1", final_state=None, reason=None,
                        trace=(), _frames=stack)
    levels, beta = _levels(stack), _beta(stack[0])
    lines.append("verdict: SAT")
    return Verdict(True, "eval1", render_state(levels, beta), None, tuple(lines), levels, beta)


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
        case Step(axis, label) if axis is _CHILD:
            out = []
            for u in _froms(graph, p, starts):
                rel, bits = (u.label,), (u.is_dfs,)
                for v in graph.children_with_label(u.label, label):
                    post = SibMap((SibEntry(rel, psi(v), bits),))
                    out.append(Eval2Tuple(u, SibMap.empty(), v, post, rel, bits))
        case Step(axis, label) if axis is _FSIB or axis is _PSIB:
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
    group = graph.places_labeled if step.axis is _CHILD else graph.children
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

_EVAL1_AXES = {Axis.CHILD, Axis.PARENT, Axis.FSIB, Axis.PSIB}
_EVAL2_AXES = {Axis.CHILD, Axis.FSIB, Axis.PSIB}


def fragment_of(p: Path) -> str:
    """Which decision procedure fits: 'eval1', 'eval2', or 'full' (neither)."""
    axes, kinds = features(p)
    if not kinds & {Union, Qual} and axes <= _EVAL1_AXES:
        return "eval1"
    if not kinds & {Union, QOr} and axes <= _EVAL2_AXES:
        return "eval2"
    return "full"


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
        # otherwise ↑ meets a qualifier: eval1 takes ↑ and eval2 qualifiers,
        # and the paper shows each tractable apart, not the two together
        axes, kinds = features(p)
        if axes & {Axis.DESC_OR_SELF, Axis.ANC_OR_SELF} or kinds & {Union, QOr}:
            need = "query needs recursive axes, union, or qualifier disjunction"
        else:
            need = "query combines qualifiers with the parent axis"
        raise UnsupportedFragment(f"{need}; only the bounded oracle covers those")
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
        kept = {f: x for f, x in vars(v).items() if f not in _RENDERED}
        return _partial(**kept, _run=(graph, p))
    roots = eval2(graph, p, starts={graph.sentinel})
    return _partial(sat=any(_accepting(t, graph) for t in roots), algorithm="eval2",
                    levels=None, beta=None, _run=(graph, p))


def _traced_verdict(d: Dtd, query: Path | str) -> Verdict:
    """`satisfiable`'s verdict by one traced run, for a caller that reads the trace."""
    graph, p, frag = _routed(d, query)
    return (eval1 if frag == "eval1" else _traced_eval2)(graph, p)
