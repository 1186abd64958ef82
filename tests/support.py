"""Reference machinery that only the tests use.

* The words of a content model up to a length, the list of every tree the
  oracle's stream yields, and requirement maps built from entries, read
  by key, or extended by one more entry.
* The subsequence closure of a content model, which checks that `delta`
  keeps the realizable label subsequences of a model.
* Schema-graph mappings of concrete trees and a bounded search for a tree
  that witnesses a requirement map, which cross-check `consistent`.
* Earlier forms of package code that a faster form replaced, kept as
  references: the character-by-character query lexer, the eval2 child and
  sibling arms that probe every place, the eagerly traced eval2 verdict,
  the oracle's per-tree query interpreter with the search over it, and the
  requirement-map algebra built on a checking dataclass entry.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from itertools import product
from typing import Optional

from xpathsat.constraints import DfsBits, Key, SibEntry, SibMap, coverable, psi
from xpathsat.content_model import Expr, Nfa, symbol_counts
from xpathsat.dtd import Dtd
from xpathsat.errors import ParseError
from xpathsat.oracle import DocTree, NodePath, Word, iter_trees
from xpathsat.sat_checker import Eval2Tuple, Verdict, _accepting, _admissible, _row, eval2
from xpathsat.schema_graph import SchemaGraph, SgNode, build_schema_graph
from xpathsat.xpath import Axis, Path, QAnd, QOr, QPath, Qexpr, Qual, Seq, Step, Union


def node_at(t: DocTree, path: NodePath) -> DocTree:
    """The node at the end of a path of child indices from the root."""
    for i in path:
        t = t.children[i]
    return t


# --- words and maps --------------------------------------------------------

def enumerate_words(e: Expr, max_len: int) -> list[Word]:
    """Exactly the words of L(e) of length <= max_len, sorted by (length, word)."""
    nfa = Nfa(e)
    alphabet = sorted(nfa.alphabet)
    out: list[Word] = []
    frontier: list[tuple[Word, frozenset[int]]] = [((), frozenset({0}))]
    for _ in range(max_len + 1):
        next_frontier: list[tuple[Word, frozenset[int]]] = []
        for word, states in frontier:
            if states & nfa.accepting:
                out.append(word)
            for a in alphabet:
                t = nfa.step(states, a)
                if t:
                    next_frontier.append((word + (a,), t))
        frontier = next_frontier
    return out


def enumerate_trees(d: Dtd, depth: int, rep: int) -> list[DocTree]:
    """Every tree of `iter_trees`, smallest first: by node count, then by
    preorder labels."""
    return list(iter_trees(d, depth, rep))


def sibmap_of(items: Iterable[tuple[Key, Iterable[str], DfsBits]]) -> SibMap:
    """The map of (key, values, dfs bits) entries, value sets merged per key."""
    m = SibMap.empty()
    for key, values, dfs in items:
        assert len(key) == len(dfs)
        m = with_entry(m, key, tuple(dfs), values)
    return m


def entry_at(m: SibMap, key: Key) -> Optional[SibEntry]:
    """m's entry for key, or None."""
    return next((e for e in m.entries if e.key == key), None)


def with_entry(m: SibMap, key: Key, dfs: DfsBits, values: Iterable[str]) -> SibMap:
    """m joined with one more entry."""
    return m.join(SibMap((SibEntry(key, frozenset(values), dfs),)))


# --- subsequence closure ---------------------------------------------------

class _SubseqNfa:
    """Automaton for the subsequence closure of L(e): every transition also
    becomes a silent shortcut, so a word is accepted iff it is a subsequence
    of some word of L(e)."""

    def __init__(self, e: Expr):
        self.nfa = Nfa(e)
        # reachable[s]: states reachable from s by any number of skipped labels
        reach: dict[int, frozenset[int]] = {}
        for s in self.nfa.delta:
            seen = {s}
            stack = [s]
            while stack:
                cur = stack.pop()
                for targets in self.nfa.delta[cur].values():
                    for t in targets:
                        if t not in seen:
                            seen.add(t)
                            stack.append(t)
            reach[s] = frozenset(seen)
        self.reach = reach

    def closure(self, states: frozenset[int]) -> frozenset[int]:
        out: set[int] = set()
        for s in states:
            out |= self.reach[s]
        return frozenset(out)

    def accepts(self, word: Word) -> bool:
        states = self.closure(frozenset({0}))
        for a in word:
            states = self.closure(self.nfa.step(states, a))
            if not states:
                return False
        return bool(states & self.nfa.accepting)


def subsequence_matches(e: Expr, word: Word) -> bool:
    """True iff word is a subsequence of some word of L(e)."""
    return _SubseqNfa(e).accepts(word)


def subsequence_preserves(e1: Expr, e2: Expr, max_len: int) -> bool:
    """Mutual subsequence coverage up to max_len: every word of either
    language (length-bounded) is a subsequence of a word of the other."""
    s1, s2 = _SubseqNfa(e1), _SubseqNfa(e2)
    return all(s2.accepts(w) for w in enumerate_words(e1, max_len)) and all(
        s1.accepts(w) for w in enumerate_words(e2, max_len)
    )


# --- schema-graph mappings of concrete trees ---------------------------------

def compute_sg_mappings(t: DocTree, d: Dtd) -> list[dict[NodePath, SgNode]]:
    """All ways to assign each tree node its schema-graph place.

    A children word splits between the parent's factor positions in order;
    a "-" factor takes zero or one child carrying its label, a "*" factor
    takes any run over its label set."""
    graph = build_schema_graph(d)
    by_place: dict[tuple[str, int, str], SgNode] = {
        (u.parent_label, u.pos, u.label): u
        for u in graph.nodes[1:]
    }

    def node_assignments(label: str, word: Word) -> list[tuple[int, ...]]:
        factors = graph.factors[label]
        out: list[tuple[int, ...]] = []

        def go(i: int, fi: int, acc: tuple[int, ...]) -> None:
            if i == len(word):
                out.append(acc)
                return
            if fi == len(factors):
                return
            go(i, fi + 1, acc)  # this factor contributes nothing
            f = factors[fi]
            if f.omega == "-":
                if word[i] == f.labels[0]:
                    go(i + 1, fi + 1, acc + (f.pos,))
            else:
                j = i
                labels = set(f.labels)
                while j < len(word) and word[j] in labels:
                    j += 1
                    go(j, fi + 1, acc + (f.pos,) * (j - i))

        go(0, 0, ())
        return out

    per_node: list[tuple[NodePath, list[dict[NodePath, SgNode]]]] = []

    def visit(path: NodePath, v: DocTree) -> None:
        word = tuple(c.label for c in v.children)
        choices = []
        for poss in node_assignments(v.label, word):
            choices.append({
                path + (i,): by_place[(v.label, pos, word[i])]
                for i, pos in enumerate(poss)
            })
        per_node.append((path, choices))
        for i, c in enumerate(v.children):
            visit(path + (i,), c)

    visit((), t)
    mappings: list[dict[NodePath, SgNode]] = []
    for combo in product(*[choices for _, choices in per_node]):
        theta: dict[NodePath, SgNode] = {(): graph.sentinel}
        for part in combo:
            theta.update(part)
        mappings.append(theta)
    return mappings


def beta_satisfied(t: DocTree, b: SibMap, d: Dtd) -> bool:
    """Does the document t witness every requirement of the map b?

    Each non-empty key must name some root-anchored label path whose end node
    carries children with all demanded labels.  Demanded labels occur exactly
    once in the end's content model, so which graph place a mapping picks
    never changes the check."""

    def paths_with_labels(key: tuple[str, ...]) -> list[NodePath]:
        if not key or key[0] != t.label:
            return []
        cur = [()]
        for lbl in key[1:]:
            nxt: list[NodePath] = []
            for path in cur:
                node = node_at(t, path)
                nxt.extend(
                    path + (i,)
                    for i, c in enumerate(node.children)
                    if c.label == lbl
                )
            cur = nxt
        return cur

    for entry in b.entries:
        if not entry.key:
            continue
        found = False
        for path in paths_with_labels(entry.key):
            node = node_at(t, path)
            counts = symbol_counts(d.model(node.label))
            present = {
                c.label for c in node.children if counts.get(c.label) == 1
            }
            if entry.values <= present:
                found = True
                break
        if not found:
            return False
    return True


def find_beta_witness(d: Dtd, b: SibMap, depth: int, rep: int):
    """Bounded search, smallest tree first, for (tree, mapping) witnessing
    the map b; None if the bound is exhausted."""
    for t in iter_trees(d, depth, rep):
        if beta_satisfied(t, b, d):
            mappings = compute_sg_mappings(t, d)
            if mappings:
                return t, mappings[0]
    return None


# --- replaced forms of package code --------------------------------------------

_WORD_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_WORD_CONT = _WORD_START | set("0123456789.-")
_MULTI = ["::", "|u|", "↓*", "↑*", "→⁺", "←⁺", "→+", "←+", "↓", "↑", "∪"]


def reference_tokenize(text: str) -> list[str]:
    """The query lexer as it was before the single regular-expression pass."""
    toks: list[str] = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
            continue
        for m in _MULTI:
            if text.startswith(m, i):
                toks.append("|u|" if m == "∪" else m)
                i += len(m)
                break
        else:
            if c in "/[]()":
                toks.append(c)
                i += 1
            elif c in _WORD_START:
                j = i + 1
                while j < len(text) and text[j] in _WORD_CONT:
                    j += 1
                toks.append(text[i:j])
                i = j
            else:
                raise ParseError(f"unexpected character {c!r} in query")
    return toks


def probing_child_arm(graph: SchemaGraph, label: str) -> tuple[Eval2Tuple, ...]:
    """eval2 of a child step written out on its own, maps built through
    `sibmap_of`: every place u of the graph probed for children labeled
    `label`."""
    return tuple(
        Eval2Tuple(
            start=u,
            pre=SibMap.empty(),
            end=v,
            post=sibmap_of([(((u.label,)), psi(v), (u.is_dfs,))]),
            rel=(u.label,),
            rel_dfs=(u.is_dfs,),
        )
        for u in graph.nodes
        for v in graph.children_with_label(u.label, label)
    )


def eager_eval2_verdict(graph: SchemaGraph, p: Path) -> Verdict:
    """The eval2 verdict of a normalized query as `satisfiable` built it
    before deciding untraced: traced, with every field rendered at once."""
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


def probing_sibling_arm(graph: SchemaGraph, axis: Axis, label: str) -> tuple[Eval2Tuple, ...]:
    """eval2 of a sibling step written out on its own, maps built through
    `sibmap_of`: every place u under every parent label probed for siblings
    labeled `label`."""
    return tuple(
        Eval2Tuple(
            start=u,
            pre=sibmap_of([((), psi(u), ())]),
            end=v,
            post=sibmap_of([((), psi(u) | psi(v), ())]),
            rel=(),
            rel_dfs=(),
        )
        for parent_label in graph.dtd.labels
        for u in graph.children(parent_label)
        for v in graph.children_with_label(parent_label, label)
        if _admissible(u, v, axis)
    )


def reference_eval(t: DocTree, p: Path, start: NodePath = ()) -> set[NodePath]:
    """The oracle's evaluator as it was before the query compiler: the query
    interpreted afresh on every tree, each step re-walking from the root."""
    match p:
        case Step(axis, label):
            return _reference_step(t, axis, label, start)
        case Seq(steps):
            nodes = {start}
            for x in steps:
                after: set[NodePath] = set()
                for mid in nodes:
                    after |= reference_eval(t, x, mid)
                nodes = after
            return nodes
        case Union(items):
            return set().union(*(reference_eval(t, x, start) for x in items))
        case Qual(base, quals):
            return {
                e for e in reference_eval(t, base, start)
                if all(_reference_holds(t, q, e) for q in quals)
            }
    raise TypeError(f"not a path: {p!r}")


def _reference_step(t: DocTree, axis: Axis, label: str, cur: NodePath) -> set[NodePath]:
    node = node_at(t, cur)
    match axis:
        case Axis.CHILD:
            return {
                cur + (i,)
                for i, c in enumerate(node.children)
                if c.label == label
            }
        case Axis.PARENT:
            if cur and node_at(t, cur[:-1]).label == label:
                return {cur[:-1]}
            return set()
        case Axis.DESC_OR_SELF:
            out: set[NodePath] = set()

            def walk(path: NodePath, v: DocTree) -> None:
                if v.label == label:
                    out.add(path)
                for i, c in enumerate(v.children):
                    walk(path + (i,), c)

            walk(cur, node)
            return out
        case Axis.ANC_OR_SELF:
            return {
                cur[:k]
                for k in range(len(cur) + 1)
                if node_at(t, cur[:k]).label == label
            }
        case Axis.FSIB:
            if not cur:
                return set()
            parent = node_at(t, cur[:-1])
            return {
                cur[:-1] + (j,)
                for j in range(cur[-1] + 1, len(parent.children))
                if parent.children[j].label == label
            }
        case Axis.PSIB:
            if not cur:
                return set()
            parent = node_at(t, cur[:-1])
            return {
                cur[:-1] + (j,)
                for j in range(cur[-1])
                if parent.children[j].label == label
            }
    raise TypeError(f"not an axis: {axis!r}")


def _reference_holds(t: DocTree, q: Qexpr, at: NodePath) -> bool:
    match q:
        case QPath(path):
            return bool(reference_eval(t, path, at))
        case QAnd(items):
            return all(_reference_holds(t, x, at) for x in items)
        case QOr(items):
            return any(_reference_holds(t, x, at) for x in items)
    raise TypeError(f"not a qualifier: {q!r}")


def reference_search(d: Dtd, p: Path, depth: int, rep: int) -> DocTree | None:
    """The oracle search as it was before the query compiler: the first
    tree of the stream on which the reference evaluator selects a node."""
    for t in iter_trees(d, depth, rep):
        if reference_eval(t, p):
            return t
    return None


# --- the requirement-map algebra before named-tuple entries ------------------

@dataclass(frozen=True, slots=True)
class ReferenceEntry:
    """`SibEntry` as it was: a frozen dataclass that checks its dfs bits."""

    key: Key
    values: frozenset[str]
    dfs: DfsBits

    def __post_init__(self):
        assert len(self.key) == len(self.dfs)


def reference_of(items: Iterable[tuple[Key, Iterable[str], DfsBits]]) -> SibMap:
    """`sibmap_of` as it was before it folded over `join`: value sets merged
    per key, every entry rebuilt."""
    merged: dict[Key, tuple[set[str], DfsBits]] = {}
    for key, values, dfs in items:
        if key in merged:
            vals, bits = merged[key]
            assert bits == tuple(dfs), f"dfs mismatch on key {key}"
            vals.update(values)
        else:
            merged[key] = (set(values), tuple(dfs))
    return SibMap(tuple(
        ReferenceEntry(k, frozenset(v), bits) for k, (v, bits) in sorted(merged.items())
    ))


def reference_join(a: SibMap, b: SibMap) -> SibMap:
    """`SibMap.join` as it was: both sides' entries rebuilt by `reference_of`."""
    return reference_of([(e.key, e.values, e.dfs) for e in a.entries + b.entries])


def reference_shift(m: SibMap, prefix: Key, prefix_dfs: DfsBits) -> SibMap:
    """`SibMap.shift` as it was: every entry rebuilt, an empty prefix too."""
    return SibMap(tuple(
        ReferenceEntry(prefix + e.key, e.values, prefix_dfs + e.dfs) for e in m.entries
    ))


def reference_consistent(m: SibMap, d: Dtd) -> bool:
    """`consistent` with every label set decided afresh, nothing remembered."""
    return all(
        coverable(d.model(e.key[-1]), e.values) for e in m.entries if e.key
    )
