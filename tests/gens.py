"""Seeded random generators shared across the test modules.

Every generator takes an explicit random.Random so a failing seed can be
replayed; nothing in here touches global random state.  The DTD generators
only emit instances inside the class they promise (asserted at the end),
so tests can lean on that without re-checking.
"""

from xpathsat import (
    Concat, Disj, Dtd, Epsilon, Expr, Hash, Opt, Plus, Star, Symbol,
    classify_dtd, is_mrw, validate_no_useless, words_capped,
)
from xpathsat.content_model import concat_of, disj_of, symbol_counts
from xpathsat.constraints import SibEntry, SibMap, psi
from xpathsat.xpath import Axis, Path, QAnd, QOr, QPath, Qexpr, Qual, Seq, Step, Union


# --- arbitrary content models (no class guarantee) ---------------------------

def random_content_model(rng, alphabet=("a", "b", "c", "d"), depth=3) -> Expr:
    if depth <= 0:
        return Symbol(rng.choice(alphabet)) if rng.random() < 0.9 else Epsilon()
    kind = rng.choice(
        ["sym", "sym", "eps", "concat", "disj", "star", "opt", "plus", "hash"]
    )
    sub = lambda: random_content_model(rng, alphabet, depth - 1)
    if kind == "sym":
        return Symbol(rng.choice(alphabet))
    if kind == "eps":
        return Epsilon()
    if kind == "concat":
        return concat_of([sub() for _ in range(rng.randint(2, 3))])
    if kind == "disj":
        return disj_of([sub() for _ in range(rng.randint(2, 3))])
    if kind == "star":
        return Star(sub())
    if kind == "opt":
        return Opt(sub())
    if kind == "plus":
        return Plus(sub())
    # hash operands carry at least one factor each; avoid bare epsilon there
    mk = lambda: [s if not isinstance(s, Epsilon) else Symbol(rng.choice(alphabet))
                  for s in (sub(),)][0]
    left = tuple(mk() for _ in range(rng.randint(1, 2)))
    right = tuple(mk() for _ in range(rng.randint(1, 2)))
    return Hash(left, right)


# --- mrw models (for the normalization tests) --------------------------------

def _star_body(rng, pool, depth=2) -> Expr:
    kinds = ["sym", "sym", "concat", "disj", "star"] if depth > 0 else ["sym"]
    kind = rng.choice(kinds)
    if kind == "sym":
        return Symbol(rng.choice(pool))
    if kind == "concat":
        return concat_of([_star_body(rng, pool, depth - 1),
                          _star_body(rng, pool, depth - 1)])
    if kind == "disj":
        return disj_of([_star_body(rng, pool, depth - 1),
                        _star_body(rng, pool, depth - 1)])
    return Star(_star_body(rng, pool, depth - 1))


def random_mrw_model(rng) -> Expr:
    """MRW content model: single-use labels outside stars, a separate pool of
    labels that only ever appear under a star or plus."""
    fresh = list("abcdefgh")
    rng.shuffle(fresh)
    star_pool = [fresh.pop() for _ in range(3)]
    factors: list[Expr] = []
    for _ in range(rng.randint(1, 4)):
        kinds = ["star", "plus"]
        if fresh:
            kinds += ["sym", "opt"]
        if len(fresh) >= 2:
            kinds += ["disj"]
        if len(fresh) >= 4:
            kinds += ["hash"]
        kind = rng.choice(kinds)
        if kind == "sym":
            factors.append(Symbol(fresh.pop()))
        elif kind == "disj":
            factors.append(disj_of([Symbol(fresh.pop()), Symbol(fresh.pop())]))
        elif kind == "star":
            factors.append(Star(_star_body(rng, star_pool)))
        elif kind == "plus":
            factors.append(Plus(_star_body(rng, star_pool)))
        elif kind == "opt":
            body = (Symbol(fresh.pop()) if rng.random() < 0.6
                    else Star(_star_body(rng, star_pool)))
            factors.append(Opt(body))
        else:
            left = tuple(Symbol(fresh.pop()) for _ in range(rng.randint(1, 2)))
            right = tuple(Symbol(fresh.pop()) for _ in range(rng.randint(1, 2)))
            factors.append(Hash(left, right))
    e = concat_of(factors)
    assert is_mrw(e)
    return e


# --- mdf_dc DTDs ---------------------------------------------------------------

def _mdf_dc_model(rng, pool, max_factors) -> Expr:
    if not pool:
        return Epsilon()
    pool = list(pool)
    rng.shuffle(pool)
    cut = rng.randint(0, len(pool))
    once, starrable = pool[:cut], pool[cut:]
    factors: list[Expr] = []
    for _ in range(rng.randint(0, max_factors)):
        kinds = []
        if once:
            kinds += ["sym", "sym"]
        if len(once) >= 2:
            kinds += ["disj"]
        if starrable:
            kinds += ["star", "star"]
        if not kinds:
            break
        kind = rng.choice(kinds)
        if kind == "sym":
            factors.append(Symbol(once.pop()))
        elif kind == "disj":
            factors.append(disj_of([Symbol(once.pop()), Symbol(once.pop())]))
        else:
            factors.append(Star(_star_body(rng, starrable, depth=1)))
    return concat_of(factors)


def random_mdf_dc_dtd(rng, labels=("r", "a", "b", "c"), max_factors=3) -> Dtd:
    """Recursion-free mdf_dc DTD: label i's model only mentions later labels,
    so every tree has height at most len(labels).  All labels reachable."""
    rules = {lbl: _mdf_dc_model(rng, labels[i + 1:], max_factors)
             for i, lbl in enumerate(labels)}
    seen = {labels[0]}
    frontier = [labels[0]]
    while frontier:
        lbl = frontier.pop()
        for child in symbol_counts(rules[lbl]):
            if child not in seen:
                seen.add(child)
                frontier.append(child)
    missing = [lbl for lbl in labels if lbl not in seen]
    if missing:
        # unreachable labels never occur in the root model, so one extra
        # starred factor keeps the model mdf_dc
        patch = Star(disj_of([Symbol(lbl) for lbl in missing]))
        rules[labels[0]] = concat_of([rules[labels[0]], patch])
    d = Dtd(labels[0], rules)
    validate_no_useless(d)
    assert classify_dtd(d)["mdf_dc"]
    return d


def random_recursive_mdf_dc_dtd(rng, labels=("r", "a", "b", "c")) -> Dtd:
    """A random_mdf_dc_dtd with back edges: models gain a starred factor over
    labels they do not mention yet, drawn from the label itself and those
    before it, so trees can nest without bound.  At least one back edge."""
    while True:
        d = random_mdf_dc_dtd(rng, labels)
        rules = dict(d.rules)
        for i, lbl in enumerate(labels):
            fresh = [x for x in labels[:i + 1] if x not in symbol_counts(rules[lbl])]
            if fresh and rng.random() < 0.6:
                pick = rng.sample(fresh, rng.randint(1, min(2, len(fresh))))
                rules[lbl] = concat_of([rules[lbl], Star(disj_of([Symbol(x) for x in pick]))])
        if rules != d.rules:
            d = Dtd(labels[0], rules)
            validate_no_useless(d)
            assert classify_dtd(d)["mdf_dc"]
            return d


def dense_dtd(n: int) -> Dtd:
    """Root r and labels x0..x(n-1), every content model (x0|...|x(n-1))*."""
    body = Star(disj_of([Symbol(f"x{i}") for i in range(n)]))
    return Dtd("r", {"r": body, **{f"x{i}": body for i in range(n)}})


def tree_count(d: Dtd, rep: int) -> int:
    """Number of conforming trees within the repetition bound, assuming the
    depth bound is slack (true for the recursion-free DTDs above)."""
    counts: dict[str, int] = {}
    for lbl in reversed(d.labels):
        total = 0
        for word in words_capped(d.model(lbl), rep):
            prod = 1
            for child in word:
                prod *= counts[child]
            total += prod
        counts[lbl] = total
    return counts[d.root]


# --- queries ------------------------------------------------------------------

def _seq(steps: list[Step]) -> Path:
    return Seq(tuple(steps)) if len(steps) > 1 else steps[0]


def _flat(kind, left, right):
    """left and right joined by a node of `kind` (Union, QAnd or QOr), as
    the parser builds one: a side of the same kind splices in."""
    return kind(tuple(
        x for p in (left, right) for x in (p.items if isinstance(p, kind) else (p,))
    ))


def _qualified(base: Path, q: Qexpr) -> Path:
    """base with one more qualifier, stacked onto base's own if it has some."""
    if isinstance(base, Qual):
        return Qual(base.base, base.quals + (q,))
    return Qual(base, (q,))


def _pick_label(rng, labels, stray="z") -> str:
    return stray if rng.random() < 0.05 else rng.choice(labels)


def random_eval1_query(rng, d: Dtd, max_steps=4) -> Path:
    """Child/parent/sibling step sequence.  A simulated ancestor stack keeps
    parent labels mostly honest so runs go somewhere before dying."""
    labels = list(d.labels)
    steps: list[Step] = []
    stack = [d.root]
    n = rng.randint(1, max_steps)
    for i in range(n):
        if i == 0:
            axis = Axis.CHILD if rng.random() < 0.9 else rng.choice(
                [Axis.FSIB, Axis.PSIB])
        else:
            axis = rng.choices(
                [Axis.CHILD, Axis.PARENT, Axis.FSIB, Axis.PSIB],
                weights=[45, 20, 20, 15])[0]
            if axis is Axis.PARENT and len(stack) == 1:
                axis = Axis.CHILD
        if axis is Axis.PARENT:
            lbl = stack[-2] if rng.random() < 0.85 else rng.choice(labels)
            stack.pop()
        elif axis is Axis.CHILD:
            lbl = _pick_label(rng, labels)
            stack.append(lbl)
        else:
            lbl = _pick_label(rng, labels)
            stack[-1] = lbl
        steps.append(Step(axis, lbl))
    return _seq(steps)


def random_eval2_query(rng, d: Dtd, budget=4) -> Path:
    """Child/sibling steps with at least one qualifier."""
    labels = list(d.labels)
    spine = rng.randint(1, max(1, budget - 1))
    steps: list[Path] = []
    for i in range(spine):
        axis = Axis.CHILD if (i == 0 or rng.random() < 0.6) else rng.choice(
            [Axis.FSIB, Axis.PSIB])
        steps.append(Step(axis, _pick_label(rng, labels)))
    left = budget - spine
    # hang qualifiers off random spine steps until the size budget runs out
    slots = list(range(spine))
    rng.shuffle(slots)
    attached = False
    for slot in slots:
        if left <= 0 and attached:
            break
        take = 1 if left <= 1 else rng.randint(1, min(2, left))
        qsteps = [Step(Axis.CHILD if rng.random() < 0.8 else Axis.FSIB,
                       _pick_label(rng, labels))
                  for _ in range(take)]
        q: object = QPath(_seq(qsteps))
        if left - take >= 1 and rng.random() < 0.25:
            q = QAnd((q, QPath(Step(Axis.CHILD, _pick_label(rng, labels)))))
            take += 1
        steps[slot] = Qual(steps[slot], (q,))
        left -= take
        attached = True
        if rng.random() < 0.6:
            break
    return _seq(steps)  # type: ignore[arg-type]


def random_full_query(rng, labels, depth=2, axes=tuple(Axis)) -> Path:
    """A query of the whole language: steps on the given axes (all six by
    default), sequences, union, and qualifiers (stacked ones too) joined by
    `and` and `or`, nested at most `depth` deep."""

    def path(depth: int) -> Path:
        kind = rng.choice(["step", "seq", "seq", "union", "qual"]) if depth else "step"
        if kind == "step":
            return Step(rng.choice(axes), _pick_label(rng, labels))
        if kind == "seq":
            parts: list[Path] = []
            for _ in range(rng.randint(2, 3)):
                x = path(depth - 1)
                parts.extend(x.steps if isinstance(x, Seq) else (x,))
            return Seq(tuple(parts))
        if kind == "union":
            return _flat(Union, path(depth - 1), path(depth - 1))
        return _qualified(path(depth - 1), qual(depth - 1))

    def qual(depth: int) -> Qexpr:
        kind = rng.choice(["path", "path", "and", "or"]) if depth else "path"
        if kind == "path":
            return QPath(path(depth))
        return _flat(QAnd if kind == "and" else QOr, qual(depth - 1), qual(depth - 1))

    return path(depth)


def random_doc_walk(rng, t, max_steps=40) -> Path:
    """A query that walks document t (a tree of `oracle.iter_trees`, whose
    root has a child) from its root: 1 to max_steps random child, parent,
    following- and preceding-sibling moves, each step labeled with the node
    it reaches.  The walk may move between siblings of one label, and t
    witnesses that the query is satisfiable."""
    path = [t]      # the nodes from the root to the current one
    index = []      # the current node's position among its siblings, per level
    steps: list[Step] = []
    for _ in range(rng.randint(1, max_steps)):
        node = path[-1]
        sibs = path[-2].children if len(path) > 1 else ()
        moves = [axis for axis, ok in (
            (Axis.CHILD, node.children), (Axis.PARENT, len(path) > 1),
            (Axis.FSIB, index and index[-1] < len(sibs) - 1),
            (Axis.PSIB, index and index[-1] > 0),
        ) if ok]
        axis = rng.choice(moves)
        if axis is Axis.CHILD:
            index.append(rng.randrange(len(node.children)))
            path.append(node.children[index[-1]])
        elif axis is Axis.PARENT:
            index.pop()
            path.pop()
        else:
            lo, hi = (index[-1] + 1, len(sibs)) if axis is Axis.FSIB else (0, index[-1])
            index[-1] = rng.randrange(lo, hi)
            path[-1] = sibs[index[-1]]
        steps.append(Step(axis, path[-1].label))
    return _seq(steps)


# --- sibling-constraint maps ---------------------------------------------------

def random_sibmap(rng, d: Dtd, graph) -> SibMap:
    """Requirement map shaped like the ones evaluation records: entries sit on
    root-anchored chains, a child label's psi lands in its parent entry, and
    extra demands only ever name single-occurrence labels."""
    entries: dict[tuple[str, ...], tuple[set, tuple[bool, ...]]] = {}
    for _ in range(rng.randint(1, 2)):
        path = (d.root,)
        bits = (True,)
        cur = d.root
        for _ in range(rng.randint(0, 2)):
            kids = graph.children(cur)
            if not kids:
                break
            v = rng.choice(kids)
            vals, _ = entries.get(path, (set(), bits))
            vals |= psi(v)
            entries[path] = (vals, bits)
            targets = graph.children_with_label(cur, v.label)
            bit = len(targets) == 1 and targets[0].is_dfs
            path = path + (v.label,)
            bits = bits + (bit,)
            cur = v.label
        entries.setdefault(path, (set(), bits))
    for key, (vals, _) in entries.items():
        counts = symbol_counts(d.model(key[-1]))
        for lbl, cnt in counts.items():
            if cnt == 1 and rng.random() < 0.3:
                vals.add(lbl)
    return SibMap(tuple(
        SibEntry(key, frozenset(vals), bits)
        for key, (vals, bits) in sorted(entries.items())
    ))
