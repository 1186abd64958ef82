"""Ground-truth side: finite documents, full query semantics, enumeration.

Everything here is independent of the schema-graph machinery: documents are
actual trees, queries run by their textbook semantics (all six axes, union,
qualifiers with both connectives), and satisfiability is approximated by
checking the conforming trees within a depth bound and a per-star repetition
bound.  They come smallest first, by node count and then preorder labels,
and the search stops at the first witness.  A found witness is definitive;
exhaustion of the bound is reported as unknown, never as unsatisfiable.

A search compiles its query once, into closures, and runs them on every
tree.  They work on parent-linked nodes: a step reads the children of the
node or of its parent, or follows the parent link, and never walks down
from the root again.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import inf, prod

from . import content_model as cm
from .content_model import (
    Concat, Disj, Epsilon, Expr, Hash, Opt, Plus, Star, Symbol, expand_hash,
)
from .dtd import Dtd
from .errors import ParseError
from .xpath import Axis, Path, QAnd, QOr, QPath, Qexpr, Qual, Seq, Step, Union

Word = tuple[str, ...]
NodePath = tuple[int, ...]  # child indices from the root; () is the root


@dataclass(frozen=True, slots=True)
class DocTree:
    label: str
    children: tuple["DocTree", ...] = ()

    def node_count(self) -> int:
        return 1 + sum(c.node_count() for c in self.children)

    def preorder_labels(self) -> tuple[str, ...]:
        out = [self.label]
        for c in self.children:
            out.extend(c.preorder_labels())
        return tuple(out)


def render_tree(t: DocTree) -> str:
    if not t.children:
        return t.label
    return f"{t.label}({','.join(render_tree(c) for c in t.children)})"


def parse_tree(text: str) -> DocTree:
    # labels in tree terms are whole tokens: children are always
    # comma-separated, so juxtaposition never appears here
    toks = cm._tokenize_raw(text)
    pos = [0]

    def peek():
        return toks[pos[0]] if pos[0] < len(toks) else None

    def take():
        tok = peek()
        if tok is None:
            raise ParseError("unexpected end of tree term")
        pos[0] += 1
        return tok

    def term() -> DocTree:
        label = take()
        if not label or label[0] not in cm._SYMBOL_START:
            raise ParseError(f"bad node label {label!r}")
        children: list[DocTree] = []
        if peek() == "(":
            take()
            children.append(term())
            while peek() == ",":
                take()
                children.append(term())
            if take() != ")":
                raise ParseError("expected ')' in tree term")
        return DocTree(label, tuple(children))

    t = term()
    if peek() is not None:
        raise ParseError(f"trailing input in tree term: {peek()!r}")
    return t


# --- conformance ---------------------------------------------------------------

def conforms(t: DocTree, d: Dtd) -> bool:
    if t.label != d.root:
        return False
    nfas = {lbl: cm.Nfa(d.model(lbl)) for lbl in d.labels}

    def ok(v: DocTree) -> bool:
        if v.label not in nfas:
            return False
        word = tuple(c.label for c in v.children)
        return nfas[v.label].accepts(word) and all(ok(c) for c in v.children)

    return ok(t)


# --- full query semantics --------------------------------------------------------
#
# A query is compiled once into nested closures that map a set of context
# nodes to the set the query selects from them.  A node is a context
# `(path, node, parent context)`: child and sibling steps read the parent's
# children, parent and ancestor steps follow the parent link, so no step
# walks down from the root.  A set of nodes is a dict keyed by NodePath.

Ctx = tuple  # (NodePath, DocTree, parent Ctx), with None above the root
Nodes = dict[NodePath, Ctx]


def _compile(p: Path) -> Callable[[Nodes], Nodes]:
    match p:
        case Step(axis, label):
            return _compile_step(axis, label)
        case Seq(steps):
            parts = [_compile(x) for x in steps]

            def seq(nodes: Nodes) -> Nodes:
                for part in parts:
                    if not nodes:
                        break
                    nodes = part(nodes)
                return nodes
            return seq
        case Union(items):
            parts = [_compile(x) for x in items]

            def union(nodes: Nodes) -> Nodes:
                out: Nodes = {}
                for part in parts:
                    out.update(part(nodes))
                return out
            return union
        case Qual(base, quals):
            f = _compile(base)
            tests = [_compile_qual(q) for q in quals]  # innermost first, as they apply

            def qualified(nodes: Nodes) -> Nodes:
                return {k: c for k, c in f(nodes).items() if all(q(c) for q in tests)}
            return qualified
    raise TypeError(f"not a path: {p!r}")


def _compile_qual(q: Qexpr) -> Callable[[Ctx], bool]:
    match q:
        case QPath(path):
            f = _compile(path)
            return lambda c: bool(f({c[0]: c}))
        case QAnd(items):
            tests = [_compile_qual(x) for x in items]
            return lambda c: all(q(c) for q in tests)
        case QOr(items):
            tests = [_compile_qual(x) for x in items]
            return lambda c: any(q(c) for q in tests)
    raise TypeError(f"not a qualifier: {q!r}")


def _compile_step(axis: Axis, label: str) -> Callable[[Nodes], Nodes]:
    match axis:
        case Axis.CHILD:
            def step(nodes: Nodes) -> Nodes:
                out = {}
                for c in nodes.values():
                    path = c[0]
                    for i, v in enumerate(c[1].children):
                        if v.label == label:
                            k = path + (i,)
                            out[k] = (k, v, c)
                return out
        case Axis.PARENT:
            def step(nodes: Nodes) -> Nodes:
                out = {}
                for _, _, up in nodes.values():
                    if up is not None and up[1].label == label:
                        out[up[0]] = up
                return out
        case Axis.DESC_OR_SELF:
            def step(nodes: Nodes) -> Nodes:
                out = {}
                stack = list(nodes.values())
                while stack:
                    c = stack.pop()
                    path, v, _ = c
                    if v.label == label:
                        out[path] = c
                    stack.extend((path + (i,), w, c) for i, w in enumerate(v.children))
                return out
        case Axis.ANC_OR_SELF:
            def step(nodes: Nodes) -> Nodes:
                out = {}
                for c in nodes.values():
                    while c is not None:
                        if c[1].label == label:
                            out[c[0]] = c
                        c = c[2]
                return out
        case Axis.FSIB | Axis.PSIB:
            following = axis is Axis.FSIB

            def step(nodes: Nodes) -> Nodes:
                out = {}
                for path, _, up in nodes.values():
                    if up is None:
                        continue
                    kids = up[1].children
                    for j in range(path[-1] + 1, len(kids)) if following else range(path[-1]):
                        if kids[j].label == label:
                            k = up[0] + (j,)
                            out[k] = (k, kids[j], up)
                return out
        case _:
            raise TypeError(f"not an axis: {axis!r}")
    return step


def eval_xpath_full(t: DocTree, p: Path, start: NodePath = ()) -> set[NodePath]:
    """All nodes the query selects from `start`, by the standard semantics."""
    c: Ctx = ((), t, None)
    for i in start:
        c = (c[0] + (i,), c[1].children[i], c)
    return set(_compile(p)({start: c}))


def satisfies(t: DocTree, p: Path) -> bool:
    """Match from the document root (the root is the initial context node)."""
    return bool(_compile(p)({(): ((), t, None)}))


# --- bounded enumeration ---------------------------------------------------------

def words_capped(e: Expr, rep: int) -> set[Word]:
    """Words of L(e) where every starred or plussed scope iterates at most
    `rep` times (each iteration chosen independently)."""
    return _words(expand_hash(e), rep)


def _words(e: Expr, rep: int) -> set[Word]:
    match e:
        case Epsilon():
            return {()}
        case Symbol(name):
            return {(name,)}
        case Concat(items):
            acc: set[Word] = {()}
            for it in items:
                ws = _words(it, rep)
                acc = {a + w for a in acc for w in ws}
            return acc
        case Disj(items):
            out: set[Word] = set()
            for it in items:
                out |= _words(it, rep)
            return out
        case Opt(item):
            return {()} | _words(item, rep)
        case Star(item) | Plus(item):
            ws = _words(item, rep)
            acc = {()}
            reached: set[Word] = {()} if isinstance(e, Star) else set()
            for _ in range(rep):
                acc = {a + w for a in acc for w in ws}
                reached |= acc
            return reached
    raise TypeError(f"not an expression: {e!r}")


def min_heights(d: Dtd) -> dict[str, int]:
    """Least height of a conforming tree per label (a lone leaf has height 1)."""
    INF = float("inf")
    h: dict[str, float] = {lbl: INF for lbl in d.labels}

    def needed(e: Expr) -> float:
        # least over words of the max height among the word's labels
        match e:
            case Epsilon():
                return 0
            case Symbol(name):
                return h[name] if name in h else INF
            case Concat(items):
                return max((needed(it) for it in items), default=0)
            case Disj(items):
                return min(needed(it) for it in items)
            case Star(_) | Opt(_):
                return 0
            case Plus(item):
                return needed(item)
            case Hash(left, right):
                return min(
                    max((needed(it) for it in left), default=0),
                    max((needed(it) for it in right), default=0),
                )
        raise TypeError(f"not an expression: {e!r}")

    changed = True
    while changed:
        changed = False
        for lbl in d.labels:
            v = 1 + needed(d.model(lbl))
            if v < h[lbl]:
                h[lbl] = v
                changed = True
    return {lbl: (int(v) if v != INF else -1) for lbl, v in h.items()}


def iter_trees(d: Dtd, depth: int, rep: int) -> Iterator[DocTree]:
    """Every conforming tree of depth <= depth whose children words stay
    within the repetition bound, smallest first: by node count, then by
    preorder labels.  Trees tied on both come in word-then-product order: by
    their children word among the sorted words, then by their children's own
    positions in that order.

    Trees are built one node count at a time from per-call tables of the
    subtrees of each `(label, height budget, node count)`; nothing outlives
    the call, and a caller that stops early never builds the larger trees."""
    heights = min_heights(d)

    @lru_cache(maxsize=None)
    def words_of(label: str) -> list[Word]:
        return sorted(words_capped(d.model(label), rep))

    @lru_cache(maxsize=None)
    def shape(label: str, budget: int) -> tuple[int, float, int, list]:
        # tree count, least and greatest node count, and the words that root
        # some tree, each with its rank offset and its children's shapes
        total, lo, hi, live = 0, inf, 0, []
        if 0 <= heights[label] <= budget:
            for word in words_of(label):
                if any(heights[lbl] < 0 or heights[lbl] > budget - 1 for lbl in word):
                    continue
                kids = [shape(lbl, budget - 1) for lbl in word]
                if n := prod(k[0] for k in kids):
                    live.append((word, total, kids))
                    total += n
                    lo = min(lo, 1 + sum(k[1] for k in kids))
                    hi = max(hi, 1 + sum(k[2] for k in kids))
        return total, lo, hi, live

    def splits(kids: list, total: int) -> Iterator[tuple[int, ...]]:
        # node counts, one per child within its shape, adding up to total
        if not kids:
            if total == 0:
                yield ()
            return
        rest = kids[1:]
        least = max(kids[0][1], total - sum(k[2] for k in rest))
        most = min(kids[0][2], total - sum(k[1] for k in rest))
        for n in range(least, most + 1):
            for tail in splits(rest, total - n):
                yield (n, *tail)

    def build(label: str, budget: int, size: int) -> Iterator[tuple]:
        # (preorder labels, rank among all trees of label and budget, tree);
        # the rank is the tree's mixed-radix position in word-then-product order
        for word, offset, kids in shape(label, budget)[3]:
            radices = [k[0] for k in kids]
            for sizes in splits(kids, size - 1):
                tables = [table(lbl, budget - 1, n) for lbl, n in zip(word, sizes)]
                for combo in product(*tables):
                    pres, ranks, trees = zip(*combo) if combo else ((), (), ())
                    rank = 0
                    for k, r in zip(radices, ranks):
                        rank = rank * k + r
                    yield sum(pres, (label,)), offset + rank, DocTree(label, trees)

    @lru_cache(maxsize=None)
    def table(label: str, budget: int, size: int) -> tuple[tuple, ...]:
        return tuple(build(label, budget, size))

    count, lo, hi, _ = shape(d.root, depth)
    if not count:
        return
    for size in range(lo, hi + 1):
        for _, _, t in sorted(build(d.root, depth, size)):
            yield t


def oracle_satisfiable(d: Dtd, p: Path, depth: int, rep: int) -> DocTree | None:
    """First conforming tree (smallest first: node count, then preorder
    labels) matching p; the search stops there.  None when the bounded
    search is exhausted, which means unknown, not unsatisfiable.  The query
    is compiled once and run on every tree."""
    matches = _compile(p)
    for t in iter_trees(d, depth, rep):
        if matches({(): ((), t, None)}):
            return t
    return None
