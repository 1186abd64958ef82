"""Ground-truth side: finite documents, full query semantics, enumeration.

Everything here is independent of the schema-graph machinery: documents are
actual trees, queries run by their textbook semantics (all six axes, union,
qualifiers with both connectives), and satisfiability is approximated by
checking the conforming trees within a depth bound and a per-star repetition
bound.  They come smallest first, by node count and then preorder labels,
and the search stops at the first witness.  A found witness is definitive;
exhaustion of the bound is reported as unknown, never as unsatisfiable.

The module keeps its own state on the `Dtd` instance, in its `vars` under
private keys: the automata `conforms` runs, and the tree space for the last
bound asked of it, so a later search replays the same stream.  Each node
count's trees are built when a search first reaches that count; like
`Dtd.covers`, the kept state assumes the instance's rules are not mutated.

A search compiles its query once, into closures over parent-linked nodes
that never walk down from the root again, and tests per node count the
objects `_plan` picks, in an order where the first passing one names the
first matching tree.  A path that reads no level above its start node
(`_deepest`) selects by that node's subtree alone, which the trees of a
space share as objects, so its answer is kept per object; and a query led
by `↓::l` or `↓*::l` whose rest stays in that step's node's subtree tests
each distinct root-child object once per search, at its first tree
(`_Space.kids`).  Any other query reads no node below a level its syntax
names (`_deepest`; a `↓*` reads every level), so it runs on the first tree
of each class of a count's trees that agree down to that level.  So does
the rest of a `↓*::l` first step when l is the root's label, tested at the
root alone: a passing l node below a root roots a smaller tree of the
space, which comes earlier.  Each way the witness is the tree a scan of
every tree would find.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from itertools import accumulate, product
from math import inf, prod

from . import content_model as cm
from .content_model import (
    Concat, Disj, Epsilon, Expr, Opt, Plus, Star, Symbol, expand_hash,
)
from .dtd import Dtd, min_heights
from .errors import ParseError
from .record import Record, _set
from .xpath import Axis, Path, QAnd, QOr, QPath, Qexpr, Qual, Seq, Step, Union

Word = tuple[str, ...]
NodePath = tuple[int, ...]  # child indices from the root; () is the root


class DocTree(Record):
    __slots__ = __match_args__ = ("label", "children")

    def __init__(self, label: str, children: tuple[DocTree, ...] = ()):
        _set(self, "label", label)
        _set(self, "children", children)


def render_tree(t: DocTree) -> str:
    # a stack of (node, index of its next child), not recursion, as a tree
    # may be very deep
    parts, todo = [t.label], [(t, 0)]
    while todo:
        v, i = todo.pop()
        if i < len(v.children):
            todo.append((v, i + 1))
            c = v.children[i]
            parts.append(("," if i else "(") + c.label)
            if c.children:
                todo.append((c, 0))
        elif i:
            parts.append(")")
    return "".join(parts)


# labels in tree terms are whole tokens: children are always
# comma-separated, so juxtaposition never appears here
_tree_tokens = cm.lexer(r"[(),]", "tree term")


def parse_tree(text: str) -> DocTree:
    return cm.Cursor(_tree_tokens(text), "tree term").whole(_term)


def _term(cur: cm.Cursor) -> DocTree:
    label = cur.take()
    if label[0] not in cm.LABEL_START:
        raise ParseError(f"bad node label {label!r}")
    children: list[DocTree] = []
    if cur.peek() == "(":
        cur.take()
        children.append(_term(cur))
        while cur.peek() == ",":
            cur.take()
            children.append(_term(cur))
        if cur.take() != ")":
            raise ParseError("expected ')' in tree term")
    return DocTree(label, tuple(children))


# --- conformance ---------------------------------------------------------------

def conforms(t: DocTree, d: Dtd) -> bool:
    if t.label != d.root:
        return False
    nfas = vars(d).get("_nfas")
    if nfas is None:
        nfas = vars(d)["_nfas"] = {lbl: cm.Nfa(e) for lbl, e in d.rules.items()}
    stack = [t]
    while stack:
        v = stack.pop()
        word = tuple(c.label for c in v.children)
        if v.label not in nfas or not nfas[v.label].accepts(word):
            return False
        stack.extend(v.children)
    return True


# --- full query semantics --------------------------------------------------------
#
# A query is compiled once into nested closures that map a set of context
# nodes to the set the query selects from them.  A node is a context
# `(path, node, parent context)`: child and sibling steps read the parent's
# children, parent and ancestor steps follow the parent link, so no step
# walks down from the root.  A set of nodes is a dict keyed by NodePath.
# A path that never reads above its context node (`_deepest`) runs with that
# node's subtree as the root, and `_subtree_test` keeps its answer per
# subtree object: a subtree shared by several positions or trees is read
# once.

Ctx = tuple  # (NodePath, DocTree, parent Ctx), with None above the root
Nodes = dict[NodePath, Ctx]


def _compile(p: Path) -> Callable[[Nodes], Nodes]:
    match p:
        case Step(axis, label):
            return _compile_step(axis, label)
        case Seq(steps):
            return _chain([_compile(x) for x in steps])
        case Union(items):
            return _merge([_compile(x) for x in items])
        case Qual(base, quals):
            # innermost first, as they apply
            return _filter(_compile(base), [_compile_qual(q) for q in quals])
    raise TypeError(f"not a path: {p!r}")


def _chain(parts: list[Callable]) -> Callable:
    def seq(nodes: dict) -> dict:
        for part in parts:
            if not nodes:
                break
            nodes = part(nodes)
        return nodes
    return seq


def _merge(parts: list[Callable]) -> Callable:
    def union(nodes: dict) -> dict:
        out = {}
        for part in parts:
            out.update(part(nodes))
        return out
    return union


def _filter(f: Callable, tests: list[Callable]) -> Callable:
    def qualified(nodes: dict) -> dict:
        return {k: c for k, c in f(nodes).items() if all(q(c) for q in tests)}
    return qualified


def _compile_qual(q: Qexpr) -> Callable[[Ctx], bool]:
    # a test of a context node; a path that stays inside the node's subtree
    # is tested once per subtree object
    match q:
        case QPath(path) if _deepest(path)[1] >= 0:
            test = _subtree_test(_compile(path))
            return lambda c: test(c[1])
        case QPath(path):
            f = _compile(path)
            return lambda c: bool(f({c[0]: c}))
        case QAnd(items) | QOr(items):
            tests, join = [_compile_qual(x) for x in items], all if isinstance(q, QAnd) else any
            return lambda c: join(t(c) for t in tests)
    raise TypeError(f"not a qualifier: {q!r}")


def _subtree_test(f: Callable[[Nodes], Nodes]) -> Callable[[DocTree], bool]:
    # whether f, a compiled path that stays inside its start's subtree,
    # selects a node from v when run with v as the root, kept per subtree
    # object; an entry holds its subtree, so no other takes its id
    seen: dict[int, tuple[DocTree, bool]] = {}

    def test(v: DocTree) -> bool:
        got = seen.get(id(v))
        if got is None:
            got = seen[id(v)] = v, bool(f({(): ((), v, None)}))
        return got[1]
    return test


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


def _deepest(p: Path | Qexpr, top: float = 0, bottom: float = 0) -> tuple[float, ...]:
    # (the deepest and the shallowest level p reads, and the shallowest and
    # deepest it can end on) from context nodes at levels top to bottom; the
    # start node is level 0, and p stays inside its subtree when it reads no
    # level above.  `↓*` may end at any level below, `↑*` reads every one above
    match p:
        case Step(axis, _):
            if axis is Axis.CHILD:
                return bottom + 1, top, top + 1, bottom + 1
            if axis is Axis.DESC_OR_SELF:
                return inf, top, top, inf
            if axis is Axis.PARENT:
                return bottom, top - 1, top - 1, bottom - 1
            if axis is Axis.ANC_OR_SELF:
                return bottom, -inf, -inf, bottom
            return bottom, top - 1, top, bottom  # a sibling step reads the parent's children
        case Seq(steps):
            deep, shallow = bottom, top
            for x in steps:
                d, s, top, bottom = _deepest(x, top, bottom)
                deep, shallow = max(deep, d), min(shallow, s)
            return deep, shallow, top, bottom
        case Union(items) | QAnd(items) | QOr(items):
            deep, shallow, tops, bottoms = zip(*(_deepest(x, top, bottom) for x in items))
            return max(deep), min(shallow), min(tops), max(bottoms)
        case Qual(base, quals):
            deep, shallow, top, bottom = _deepest(base, top, bottom)
            for q in quals:
                d, s, _, _ = _deepest(q, top, bottom)
                deep, shallow = max(deep, d), min(shallow, s)
            return deep, shallow, top, bottom
        case QPath(path):
            return _deepest(path, top, bottom)
    raise TypeError(f"not a query: {p!r}")


def eval_xpath_full(t: DocTree, p: Path, start: NodePath = ()) -> set[NodePath]:
    """All nodes the query selects from `start`, by the standard semantics."""
    c: Ctx = ((), t, None)
    for i in start:
        c = (c[0] + (i,), c[1].children[i], c)
    return set(_compile(p)({start: c}))


def satisfies(t: DocTree, p: Path) -> bool:
    """Match from the document root (the root is the initial context node)."""
    return _decider(p)(t)


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


class _Space:
    """The trees of one DTD within one bound, per node count.  A count's
    root trees are built and sorted when an iterator first reaches it, then
    kept.  They are built from tables of the subtrees of each `(label,
    height budget, node count)`, which go once every count is built."""

    def __init__(self, d: Dtd, depth: int, rep: int):
        self.rules, self.rep, self.heights = d.rules, rep, min_heights(d)
        self.root, self.depth = d.root, depth
        self.built: dict[int, tuple[DocTree, ...]] = {}  # node count -> root trees
        self.firsts: dict[tuple[int, int], tuple[DocTree, ...]] = {}  # (count, level) -> classes
        # count -> (ids of the root children up to it, label or None -> id -> (position, child))
        self.roots: dict[int, tuple[frozenset[int], dict]] = {}
        self.forget()
        count, lo, hi, _ = self.shape(d.root, depth)
        self.counts = range(lo, hi + 1) if count else range(0)
        if not count:
            self.forget()

    def forget(self) -> None:
        # fresh memos: replacing them, rather than dropping them, leaves
        # correct a build that another thread is still running on the old ones
        self.words: dict[str, list[Word]] = {}
        self.shapes: dict[tuple[str, int], tuple[int, float, int, list]] = {}
        self.tables: dict[tuple[str, int, int], tuple[tuple, ...]] = {}

    def trees(self, size: int) -> tuple[DocTree, ...]:
        got = self.built.get(size)
        if got is None:
            ranked = sorted(self.build(self.root, self.depth, size))
            got = self.built[size] = tuple(t for _, _, t in ranked)
            if len(self.built) == len(self.counts):
                self.forget()
        return got

    def classes(self, size: int, level: float) -> tuple[DocTree, ...]:
        # the first tree, in stream order, of each class of a count's trees
        # that agree down to `level`; a count's classes depend on its trees
        # alone, so a build racing another one keeps an equal tuple
        if level >= self.depth - 1:
            return self.trees(size)
        got = self.firsts.get((size, level))
        if got is None:
            first: dict[tuple | str, DocTree] = {}
            for t in self.trees(size):
                first.setdefault(_cut(t, level), t)
            got = self.firsts[size, level] = tuple(first.values())
        return got

    def kids(self, size: int, label: str | None) -> Iterable[tuple[int, DocTree]]:
        # (position of its first holder among the count's trees, v), in that
        # order, for each child object v labeled `label` (any label for None)
        # of the count's root trees that no smaller count's tree holds, so a
        # scan of the counts meets each object once, at its first holder.  One
        # pass indexes every label; an index is a pure function of the trees
        # up to its count, so a build racing another one keeps an equal index
        if size not in self.roots:
            held: frozenset[int] = frozenset()
            for n in range(self.counts.start, size + 1):
                got = self.roots.get(n)
                if got is None:
                    new: dict = {None: {}}
                    for i, t in enumerate(self.trees(n)):
                        for v in t.children:
                            if id(v) not in held and id(v) not in new[None]:
                                new[None][id(v)] = new.setdefault(v.label, {})[id(v)] = i, v
                    got = self.roots[n] = held.union(new[None]), new
                held = got[0]
        return self.roots[size][1].get(label, {}).values()

    def shape(self, label: str, budget: int) -> tuple[int, float, int, list]:
        # tree count, least and greatest node count, and the words that root
        # some tree, each with its rank offset, its children's shapes and its
        # trees' least and greatest node count
        got = self.shapes.get((label, budget))
        if got is not None:
            return got
        heights = self.heights
        total, lo, hi, live = 0, inf, 0, []
        if 0 <= heights[label] <= budget:
            words = self.words.get(label)
            if words is None:
                words = self.words[label] = sorted(words_capped(self.rules[label], self.rep))
            for word in words:
                if any(heights[lbl] < 0 or heights[lbl] > budget - 1 for lbl in word):
                    continue
                kids = [self.shape(lbl, budget - 1) for lbl in word]
                if n := prod(k[0] for k in kids):
                    least, most = 1 + sum(k[1] for k in kids), 1 + sum(k[2] for k in kids)
                    live.append((word, total, kids, least, most))
                    total += n
                    lo, hi = min(lo, least), max(hi, most)
        got = self.shapes[label, budget] = total, lo, hi, live
        return got

    def build(self, label: str, budget: int, size: int) -> Iterator[tuple]:
        # (preorder labels, rank among all trees of label and budget, tree);
        # the rank is the tree's mixed-radix position in word-then-product order
        tables = self.tables
        for word, offset, kids, least, most in self.shape(label, budget)[3]:
            if not least <= size <= most:
                continue
            radices = [k[0] for k in kids]
            for sizes in _splits(kids, size - 1):
                parts = []
                for lbl, n in zip(word, sizes):
                    part = tables.get((lbl, budget - 1, n))
                    if part is None:
                        part = tables[lbl, budget - 1, n] = tuple(self.build(lbl, budget - 1, n))
                    parts.append(part)
                for combo in product(*parts):
                    pres, ranks, trees = zip(*combo) if combo else ((), (), ())
                    rank = 0
                    for k, r in zip(radices, ranks):
                        rank = rank * k + r
                    yield sum(pres, (label,)), offset + rank, DocTree(label, trees)


def _cut(t: DocTree, levels: int) -> tuple | str:
    # t's labels down to `levels` below it, as nested tuples
    if not levels:
        return t.label
    return t.label, *(_cut(c, levels - 1) for c in t.children)


def _splits(kids: list, total: int) -> Iterator[tuple[int, ...]]:
    # node counts, one per child within its shape, adding up to total, in
    # lexicographic order; a stack, not recursion, as a word may be very long
    least = [0, *accumulate(k[1] for k in reversed(kids))]  # node bounds of the
    most = [0, *accumulate(k[2] for k in reversed(kids))]   # last 0, 1, ... kids
    todo = [((), total)]  # (counts of the first kids, nodes left for the rest)
    while todo:
        sizes, left = todo.pop()
        rest = len(kids) - len(sizes)
        if rest:
            k = kids[-rest]
            lo, hi = max(k[1], left - most[rest - 1]), min(k[2], left - least[rest - 1])
            todo += (((*sizes, n), left - n) for n in range(hi, lo - 1, -1))
        elif not left:
            yield sizes


def iter_trees(d: Dtd, depth: int, rep: int) -> Iterator[DocTree]:
    """Every conforming tree of depth <= depth whose children words stay
    within the repetition bound, smallest first: by node count, then by
    preorder labels.  Trees tied on both come in word-then-product order: by
    their children word among the sorted words, then by their children's own
    positions in that order.

    The space is kept on the `Dtd` instance for the last bound asked of it,
    and a later call replays it.  A node count's trees are built when an
    iterator first reaches that count, so a caller that stops early leaves
    the larger trees unbuilt, and the next one resumes there.  Like
    `Dtd.covers`, the space assumes `d.rules` is not mutated."""
    space = _space(d, depth, rep)
    for size in space.counts:
        yield from space.trees(size)


def _space(d: Dtd, depth: int, rep: int) -> _Space:
    # the one space kept on d, replaced when the bound differs
    space = vars(d).get("_tree_space")
    if space is None or (space.depth, space.rep) != (depth, rep):
        space = vars(d)["_tree_space"] = _Space(d, depth, rep)
    return space


def oracle_satisfiable(d: Dtd, p: Path, depth: int, rep: int) -> DocTree | None:
    """First conforming tree (smallest first: node count, then preorder
    labels) matching p; the search stops there.  None when the bounded
    search is exhausted, which means unknown, not unsatisfiable.  A query
    whose first step is `↓::l`, or `↓*::l` for an l other than the root's
    label, and whose rest never reads above the node that step selects,
    tests each distinct root-child object once per search, at the node
    count of the first tree holding it.  Every other search tests, per node
    count, the first tree of each class of trees that agree down to a
    level: the deepest the query reads, or for `↓*::l` with l the root's
    label, the deepest its rest reads, tested at the root."""
    space = _space(d, depth, rep)
    scan, test = _plan(p, d.root)
    for size in space.counts:
        trees, objects = scan(space, size)
        hit = next((i for i, v in objects if test(v)), None)
        if hit is not None:
            return trees[hit]
    return None


def _plan(p: Path, root: str) -> tuple[Callable, Callable[[DocTree], bool]]:
    # for a node count, the trees a hit is returned from and the (position
    # among them, object) pairs to test in order; and the test of an object
    first, *rest = p.steps if isinstance(p, Seq) else (p,)
    base, quals = (first.base, first.quals) if isinstance(first, Qual) else (first, ())
    # the deepest and shallowest levels the first step's qualifiers and later
    # steps read from its node: they stay in its subtree when none is above
    reads = [_deepest(x) for x in (*quals, Seq(tuple(rest)))]
    level, inside = max(r[0] for r in reads), min(r[1] for r in reads) >= 0
    if not (isinstance(base, Step) and base.axis in (Axis.CHILD, Axis.DESC_OR_SELF) and inside):
        level = _deepest(p)[0]
        return lambda space, n: _each(space.classes(n, level)), _decider(p)
    # whether a node passes the first step's qualifiers and the steps after
    # it select a node from it, kept per subtree object
    parts = [_filter(lambda nodes: nodes, [_compile_qual(q) for q in quals])] if quals else []
    test = _subtree_test(_chain([*parts, *map(_compile, rest)]))
    if base.axis is Axis.CHILD:
        return lambda space, n: (space.trees(n), space.kids(n, base.label)), test
    if base.label == root:
        # a passing l node below a root roots a smaller tree of the space,
        # which comes earlier and passes at its root; and two roots that
        # agree down to level pass alike
        return lambda space, n: _each(space.classes(n, level)), test
    below = _subtree_test(_filter(_compile(base), [lambda c: test(c[1])]))
    return lambda space, n: (space.trees(n), space.kids(n, None)), below


def _each(trees: tuple[DocTree, ...]) -> tuple[tuple[DocTree, ...], Iterable]:
    return trees, enumerate(trees)


def _decider(p: Path) -> Callable[[DocTree], bool]:
    # whether p selects a node from a tree's root
    f = _compile(p)
    return lambda t: bool(f({(): ((), t, None)}))
