"""Seeded inputs for the four workloads, each with its expected answers.

Every operation carries what the reference side (`ref.py`) knows about it
by construction: SAT queries are walks over a sampled document, UNSAT
queries end in a step that no document can take.  The package under test
sees only the rendered DTD texts and query strings.

An operation is a dict:

* ``kind``: "sat", "oracle" or "cli"
* ``dtd``: index into the workload's DTD list
* ``query``: the query text (not for `classify`)
* ``expect``: True for SAT, False for UNSAT, None where no verdict is asked
* ``steps``: the query as reference steps (for witness checks)
* ``doc``: the document a SAT query was walked on
* ``alg``: the decider the query's shape selects ("eval1" or "eval2")
* ``shape``: for UNSAT queries, which kind of ending makes them UNSAT
* oracle ops: ``depth`` and ``rep``; cli ops: ``argv``, ``exit``, ``check``
* ``known_fault``: set on the one operation kept although it fails

Operations come in rounds of equal make-up; a run executes whole rounds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ref import (
    Doc, Sampler, Schema, labels_of, parse_term, query_size, render_query, walk,
)

EVAL1_AXES = {"child": 4, "parent": 1.5, "fsib": 1.5, "psib": 1.5}
EVAL2_AXES = {"child": 4, "fsib": 1.5, "psib": 1.5}


@dataclass
class Workload:
    name: str
    dtds: list            # list[Schema]
    rounds: list          # list[list[op]], all of one make-up
    warm: list            # one operation per DTD, run during set-up
    tail_pct: int         # percentile reported as latency_tail_ms
    trace_rounds: int     # rounds replayed by the traced run
    files: dict = field(default_factory=dict)  # file name -> text (cli only)

    def ops(self):
        return [op for r in self.rounds for op in r]


# --- DTD shapes ------------------------------------------------------------------

def worked_dtd() -> Schema:
    """The README's worked DTD: r := r*(a*b|c)r*, a := eps, b := a, c := eps."""
    return Schema("r", {
        "r": ("cat", (("star", ("sym", "r")),
                      ("alt", (("cat", (("star", ("sym", "a")), ("sym", "b"))),
                               ("sym", "c"))),
                      ("star", ("sym", "r")))),
        "a": ("eps",),
        "b": ("sym", "a"),
        "c": ("eps",),
    })


def chain_dtd(n: int = 49) -> Schema:
    """The cyclic chain x00 := x01*, ..., x48 := x00*."""
    names = [f"x{i:02d}" for i in range(n)]
    return Schema(names[0], {
        names[i]: ("star", ("sym", names[(i + 1) % n])) for i in range(n)
    })


def dense_dtd(n: int, root: int = 0) -> Schema:
    """Every one of the n+1 labels has content (x0|...|xn)*."""
    names = [f"x{i}" for i in range(n + 1)]
    body = ("star", ("alt", tuple(("sym", x) for x in names)))
    return Schema(names[root], {x: body for x in names})


def mrw_dtd(rng, levels) -> Schema:
    """A recursive MRW DTD declared top-down, level by level.

    `levels` gives the number of labels per level (the first level is the
    root).  Each label below the root is owned by a random label of the
    level above and appears in its owner's model as a mandatory child, an
    optional one, a member of a disjunction or of an either-or-both, or
    inside a starred group.  15% of the models also carry a starred
    back-reference to an earlier label, which makes the DTD recursive; a
    back-reference sits only under a star, so every label still has a
    finite tree and labels repeat only in stars.  Fixed level sizes keep
    the depth of mandatory chains, and with it the cost of the package's
    productivity fixpoint, the same from seed to seed."""
    n = sum(levels)
    names = [f"e{i}" for i in range(n)]
    owned: dict[str, list[str]] = {x: [] for x in names}
    start = 0
    for above, size in zip(levels, levels[1:]):
        for j in range(start + above, start + above + size):
            owned[names[start + rng.randrange(above)]].append(names[j])
        start += above
    rules = {}
    for i, x in enumerate(names):
        kids = owned[x][:]
        rng.shuffle(kids)
        factors = []
        while kids:
            r = rng.random()
            if r < 0.45 or len(kids) == 1:
                a = kids.pop()
                factors.append(("sym", a) if rng.random() < 0.75 else ("opt", ("sym", a)))
            elif r < 0.65:
                k = min(len(kids), rng.randint(2, 3))
                factors.append(("alt", tuple(("sym", kids.pop()) for _ in range(k))))
            elif r < 0.75:
                factors.append(("hash", ("sym", kids.pop()), ("sym", kids.pop())))
            elif r < 0.9:
                k = min(len(kids), rng.randint(1, 2))
                grp = tuple(("sym", kids.pop()) for _ in range(k))
                body = grp[0] if k == 1 else ("alt", grp)
                factors.append(("star", body) if rng.random() < 0.7 else ("plus", body))
            else:
                factors.append(("star", ("sym", kids.pop())))
        if i > 0 and rng.random() < 0.15:
            factors.insert(rng.randrange(len(factors) + 1),
                           ("star", ("sym", names[rng.randrange(i)])))
        if not factors:
            rules[x] = ("eps",)
        elif len(factors) == 1:
            rules[x] = factors[0]
        else:
            rules[x] = ("cat", tuple(factors))
    return Schema(names[0], rules)


def tree_space(schema: Schema, depth: int, rep: int) -> tuple[int, int]:
    """Number of conforming trees of height <= depth with stars iterated <=
    rep times (over distinct children words), and their summed node count."""
    memo: dict = {}

    def words(e) -> set:
        kind = e[0]
        if kind == "eps":
            return {()}
        if kind == "sym":
            return {(e[1],)}
        if kind == "cat":
            acc = {()}
            for it in e[1]:
                ws = words(it)
                acc = {a + w for a in acc for w in ws}
            return acc
        if kind == "alt":
            return set().union(*(words(it) for it in e[1]))
        if kind == "opt":
            return {()} | words(e[1])
        if kind == "hash":
            x, y = words(e[1]), words(e[2])
            return x | y | {a + b for a in x for b in y}
        ws, acc = words(e[1]), {()}
        reached = {()} if kind == "star" else set()
        for _ in range(rep):
            acc = {a + w for a in acc for w in ws}
            reached |= acc
        return reached

    wmemo = {lbl: words(e) for lbl, e in schema.rules.items()}

    def space(label: str, budget: int) -> tuple[int, int]:
        if budget < 1:
            return 0, 0
        key = (label, budget)
        if key not in memo:
            count = nodes = 0
            for w in wmemo[label]:
                # trees: product of child counts; nodes: each tree's root
                # plus, per child slot, that slot's nodes times the others
                n, sz = 1, 0
                for c in w:
                    cn, cs = space(c, budget - 1)
                    n, sz = n * cn, sz * cn + cs * n
                count += n
                nodes += n + sz
            memo[key] = (count, nodes)
        return memo[key]

    return space(schema.root, depth)


def small_tree_dtd(rng, labels: int, lo: int, hi: int, depth: int, rep: int,
                   trees=(0, float("inf"))) -> Schema:
    """A recursion-free DTD whose bounded tree space sums to lo..hi nodes
    and holds a number of trees within `trees` (the oracle's work grows with
    both).  Each label after the first is owned by one earlier label, so
    every label is reachable."""
    names = [chr(ord("a") + i) for i in range(labels)]
    while True:
        owned: dict[str, list[str]] = {x: [] for x in names}
        for j in range(1, labels):
            owned[names[rng.randrange(j)]].append(names[j])
        rules = {}
        for x in names:
            factors = []
            for a in owned[x]:
                wrap = rng.choice(("sym", "opt", "star", "star", "plus"))
                factors.append(("sym", a) if wrap == "sym" else (wrap, ("sym", a)))
            if len(factors) >= 2 and rng.random() < 0.3:
                factors[:2] = [("alt", (factors[0], factors[1]))]
            if not factors:
                rules[x] = ("eps",)
            else:
                rules[x] = factors[0] if len(factors) == 1 else ("cat", tuple(factors))
        s = Schema(names[0], rules)
        if s.minh[s.root] > depth:
            continue
        count, nodes = tree_space(s, depth, rep)
        if lo <= nodes <= hi and trees[0] <= count <= trees[1]:
            return s


# --- UNSAT endings --------------------------------------------------------------

def _fixed_positions(e, under_star=False, out=None):
    """Labels occurring once in e outside every star, in syntactic order."""
    if out is None:
        counts: dict = {}
        for lbl in labels_of(e):
            counts[lbl] = counts.get(lbl, 0) + 1
        out = []
        _fixed_positions(e, False, out)
        return [lbl for lbl in out if counts[lbl] == 1]
    kind = e[0]
    if kind == "sym":
        if not under_star:
            out.append(e[1])
    elif kind in ("cat", "alt"):
        for it in e[1]:
            _fixed_positions(it, under_star, out)
    elif kind == "hash":
        _fixed_positions(e[1], under_star, out)
        _fixed_positions(e[2], under_star, out)
    elif kind in ("star", "plus"):
        _fixed_positions(e[1], True, out)
    elif kind == "opt":
        _fixed_positions(e[1], under_star, out)
    return out


def _exclusive_pairs(e):
    """Pairs of labels that sit in different branches of one disjunction that
    is under no star, each label occurring once in e: no word has both."""
    once = set(_fixed_positions(e))
    pairs = []

    def visit(x, under_star):
        kind = x[0]
        if kind == "alt" and not under_star:
            branches = [[l for l in labels_of(it) if l in once] for it in x[1]]
            for i in range(len(branches)):
                for j in range(i + 1, len(branches)):
                    pairs.extend((a, b) for a in branches[i] for b in branches[j])
        if kind in ("cat", "alt"):
            for it in x[1]:
                visit(it, under_star)
        elif kind == "hash":
            visit(x[1], under_star)
            visit(x[2], under_star)
        elif kind in ("star", "plus"):
            visit(x[1], True)
        elif kind == "opt":
            visit(x[1], under_star)

    visit(e, False)
    return pairs


def unsat_endings(schema: Schema, doc: Doc, n: int, allow_parent: bool, allow_quals: bool):
    """Ways to end a walk that stopped at node n so that no document of the
    schema matches.  Each is (kind, steps to append, qualifiers to add to
    the walk's last step)."""
    label = doc.label[n]
    model = schema.rules[label]
    out = []
    present = set(labels_of(model))
    absent = sorted(set(schema.rules) - present)
    if absent:
        out.append(("absent-child", [("child", a, []) for a in absent[:6]], None))
    if allow_parent:
        actual = doc.label[doc.parent[n]] if n else None
        wrong = sorted(x for x in schema.rules if x != actual)
        out.append(("wrong-parent", [("parent", w, []) for w in wrong[:6]], None))
    if n:
        fixed = _fixed_positions(schema.rules[doc.label[doc.parent[n]]])
        if label in fixed:
            i = fixed.index(label)
            steps = [("fsib", a, []) for a in fixed[:i]]
            steps += [("psib", a, []) for a in fixed[i + 1:]]
            if steps:
                out.append(("sibling-order", steps, None))
    if allow_quals:
        pairs = _exclusive_pairs(model)
        if pairs:
            out.append(("exclusive-quals", None, pairs))
    return out


def end_unsat(rng, schema, doc, steps, n, allow_parent, allow_quals):
    """Append one UNSAT ending to a SAT walk; None if the node offers none."""
    options = unsat_endings(schema, doc, n, allow_parent, allow_quals)
    if not options:
        return None
    kind, choices, pairs = rng.choice(options)
    if pairs is not None:
        a, b = rng.choice(pairs)
        axis, lbl, quals = steps[-1]
        return kind, steps[:-1] + [(axis, lbl, quals + [[("child", a, [])], [("child", b, [])]])]
    return kind, steps + [rng.choice(choices)]


# --- query makers ---------------------------------------------------------------

def sat_op(kind, i, doc, made, **extra):
    """An operation from make_query's result: SAT with the document it was
    walked on, or UNSAT with the shape of its ending."""
    steps, shape = made
    op = {"kind": kind, "dtd": i, "query": render_query(steps),
          "steps": steps, "doc": doc if shape is None else None,
          "expect": shape is None, "shape": shape,
          "alg": "eval2" if any(q for _, _, q in steps) else "eval1"}
    op.update(extra)
    return op


def make_query(rng, schema, doc, length, qualified, sat, qual_p=0.45, qual_len=(1, 2),
               same_label_sibs=False):
    """A SAT walk of `length` steps, or one of `length - 1` steps with an
    UNSAT ending.  Returns (steps, shape) or None when the draw fails.

    Queries for the fast deciders never visit two different same-label
    siblings: eval1 and eval2 answer some of those SAT queries UNSAT (see
    known_fault_op), which would make the failure count depend on the
    seed."""
    n_walk = length if sat else length - 1
    for _ in range(20):
        if qualified:
            steps, n = walk(doc, rng, 0, n_walk, EVAL2_AXES, qual_p, qual_len,
                            same_label_sibs=same_label_sibs)
            if not any(q for _, _, q in steps):
                continue
        else:
            steps, n = walk(doc, rng, 0, n_walk, EVAL1_AXES,
                            same_label_sibs=same_label_sibs)
        if len(steps) != n_walk or not steps:
            continue
        if sat:
            return steps, None
        ended = end_unsat(rng, schema, doc, steps, n, not qualified, qualified)
        if ended is not None:
            shape, full = ended
            return full, shape
    return None


# --- the workloads --------------------------------------------------------------

def known_fault_op() -> dict:
    """The one operation kept although it fails at every seed.  On the
    worked DTD the document r(r(c),r(b(a)),c) matches this query, but eval1
    keeps the requirement {c} of the first r child when the walk moves to
    its same-label sibling, then finds {b,c} uncoverable and answers UNSAT.
    It does not depend on the seed, so it fails once in every round."""
    steps = [("child", "r", []), ("child", "c", []), ("parent", "r", []),
             ("fsib", "r", []), ("child", "b", [])]
    op = sat_op("sat", 0, parse_term("r(r(c),r(b(a)),c)"), (steps, None))
    op["known_fault"] = True
    return op


def warm_ops(dtds, kind="sat", first=0, **extra) -> list:
    """One cheap warm-up verdict per DTD (numbered from `first`): a child
    step below the root."""
    ops = []
    for i, s in enumerate(dtds, first):
        child = labels_of(s.rules[s.root])[0]
        ops.append({"kind": kind, "dtd": i, "query": f"↓::{child}", **extra})
    return ops


def draw(rng, schema, docs, length, qualified, sat, **kw):
    """make_query on documents from `docs` (a list to pick from, or a
    sampler) until a draw succeeds."""
    for _ in range(5000):
        doc = rng.choice(docs) if isinstance(docs, list) else docs.sample()
        made = make_query(rng, schema, doc, length(), qualified, sat, **kw)
        if made:
            return doc, made
    raise RuntimeError(f"no query drawn on {schema.root!r}")


SR_LEVELS = (1, 4, 12, 30, 63, 90)   # 200 labels
SR_MAX_SIZE = 14                      # steps, qualifier steps included


def schema_reuse(seed: int, levels=SR_LEVELS, rounds: int = 150) -> Workload:
    """One recursive MRW DTD (200 labels in six levels); eval1 and eval2
    queries of 2..8 steps (at most SR_MAX_SIZE steps with qualifiers), half
    SAT.  A round holds 7 eval1 and 3 eval2
    queries, five of them SAT: 4 + 1 in even rounds, 3 + 2 in odd ones.
    With most queries on one decider, the median falls inside one cluster
    of costs rather than between two."""
    rng = random.Random(f"schema-reuse:{seed}")
    schema = mrw_dtd(rng, levels)
    sampler = Sampler(schema, rng, depth=10, rep=2, cap=400)
    docs = [sampler.sample(spine=6) for _ in range(24)]
    out = []
    for r in range(rounds):
        ops = []
        for k in range(10):
            qualified = k >= 7
            sat = k < (4 if r % 2 == 0 else 3) or 7 <= k < (8 if r % 2 == 0 else 9)
            while True:
                doc, made = draw(rng, schema, docs, lambda: rng.randint(2, 8), qualified, sat)
                if query_size(made[0]) <= SR_MAX_SIZE:
                    break
            ops.append(sat_op("sat", 0, doc, made))
        rng.shuffle(ops)
        out.append(ops)
    return Workload("schema-reuse", [schema], out, warm_ops([schema]), 90, 6)


QH_CHAIN_LENGTHS = (64, 128, 192, 192, 192, 256, 320)
QH_DENSE_SIZES = (5, 7)   # steps, qualifier steps included, of dense-DTD eval2


def query_heavy(seed: int, rounds: int = 12) -> Workload:
    """Small DTDs, long or qualified queries.  A round holds one eval1 query
    of each length in QH_CHAIN_LENGTHS on the worked DTD and on the 49-label
    chain (SAT and UNSAT alternating), two eval2 queries with stacked
    qualifiers, of QH_DENSE_SIZES steps, on each dense DTD (all SAT: a dense
    DTD has no UNSAT shape),
    two on the worked DTD (one UNSAT), and the known-fault operation.  The
    median falls in the middle of the six 192-step chains, a class of
    similar cost."""
    rng = random.Random(f"query-heavy:{seed}")
    dtds = [worked_dtd(), chain_dtd(49), dense_dtd(9, rng.randrange(10)),
            dense_dtd(11, rng.randrange(12))]
    samplers = [
        Sampler(dtds[0], rng, depth=60, rep=2, cap=600, star_p=0.45),
        Sampler(dtds[1], rng, depth=90, rep=2, cap=600, star_p=0.3),
        Sampler(dtds[2], rng, depth=6, rep=3, cap=120, star_p=0.6),
        Sampler(dtds[3], rng, depth=6, rep=3, cap=120, star_p=0.6),
    ]
    docs = [[s.sample(spine=s.depth - 4) for _ in range(6)] for s in samplers]
    out = []
    for r in range(rounds):
        ops = [known_fault_op()]
        for i in (0, 1):
            for j, length in enumerate(QH_CHAIN_LENGTHS):
                sat = (r + j + i) % 2 == 0
                doc, made = draw(rng, dtds[i], docs[i], lambda: length, False, sat)
                ops.append(sat_op("sat", i, doc, made))
        for i, sizes in ((2, QH_DENSE_SIZES), (3, QH_DENSE_SIZES), (0, (None, None))):
            for k, size in enumerate(sizes):
                sat = not (i == 0 and k == 1)
                while True:
                    doc, made = draw(rng, dtds[i], docs[i], lambda: rng.randint(2, 3), True,
                                     sat, qual_p=0.5, qual_len=(1, 2))
                    if size is None or query_size(made[0]) == size:
                        break
                ops.append(sat_op("sat", i, doc, made))
        rng.shuffle(ops)
        out.append(ops)
    return Workload("query-heavy", dtds, out, warm_ops(dtds), 95, 1)


ORACLE_DEPTH, ORACLE_REP = 4, 2
ORACLE_NODES = (100_000, 120_000)   # summed nodes of one bounded tree space
ORACLE_TREES = (7_000, 8_500)       # trees in it


def oracle_search(seed: int, rounds: int = 20) -> Workload:
    """`oracle_satisfiable` on three recursion-free 6-label DTDs at depth 4 and
    rep 2, whose bounded spaces each hold ORACLE_TREES trees summing to
    ORACLE_NODES nodes, and on the worked DTD at depth 3.  A round holds,
    per DTD, one SAT query of three steps whose document fits the bounds
    (with qualifiers in even rounds) and one UNSAT query of three steps,
    which searches the whole space."""
    rng = random.Random(f"oracle-search:{seed}")
    dtds, spaces = [], set()
    while len(dtds) < 3:   # three different tree spaces
        s = small_tree_dtd(rng, 6, *ORACLE_NODES, ORACLE_DEPTH, ORACLE_REP, ORACLE_TREES)
        if tree_space(s, ORACLE_DEPTH, ORACLE_REP) not in spaces:
            spaces.add(tree_space(s, ORACLE_DEPTH, ORACLE_REP))
            dtds.append(s)
    dtds.append(worked_dtd())
    bounds = [(ORACLE_DEPTH, ORACLE_REP)] * 3 + [(3, ORACLE_REP)]
    samplers = [Sampler(s, rng, depth=d, rep=rp, cap=30, star_p=0.5)
                for s, (d, rp) in zip(dtds, bounds)]
    out = []
    for r in range(rounds):
        ops = []
        for i, (d, rp) in enumerate(bounds):
            for sat in (True, False):
                doc, made = draw(rng, dtds[i], samplers[i], lambda: 3,
                                 sat and r % 2 == 0, sat, same_label_sibs=True)
                ops.append(sat_op("oracle", i, doc, made, depth=d, rep=rp))
        rng.shuffle(ops)
        out.append(ops)
    warm = [dict(op, depth=d, rep=rp)
            for op, (d, rp) in zip(warm_ops(dtds, "oracle"), bounds)]
    return Workload("oracle-search", dtds, out, warm, 80, 1)


def cli_one_shot(seed: int, rounds: int = 30) -> Workload:
    """One `python -m xpathsat.cli` process per verdict.  A round of ten
    holds six `sat` calls (three SAT, three UNSAT) on a 40-label MRW DTD and
    the worked DTD, one `classify`, one `oracle` at depth 3 on a small DTD,
    and two refusals: `sat` on a DTD outside MRW (exit 3) and a query with
    a descendant axis (exit 4)."""
    rng = random.Random(f"cli-one-shot:{seed}")
    mrw = mrw_dtd(rng, (1, 3, 8, 12, 16))
    small = small_tree_dtd(rng, 5, 1000, 6000, 3, 2)
    not_mrw = Schema("r", {"r": ("cat", (("sym", "a"), ("sym", "b"), ("sym", "a"))),
                           "a": ("eps",), "b": ("opt", ("sym", "a"))})
    dtds = [mrw, worked_dtd(), small, not_mrw]
    files = {f"d{i}.dtd": s.text() for i, s in enumerate(dtds)}
    docs = [[Sampler(mrw, rng, depth=8, rep=2, cap=200).sample(spine=4) for _ in range(8)],
            [Sampler(dtds[1], rng, depth=8, rep=2, cap=200).sample(spine=4)
             for _ in range(8)]]
    small_sampler = Sampler(small, rng, depth=3, rep=2, cap=30)

    def cli_op(op, argv, code, check):
        op.update(kind="cli", argv=argv, exit=code, check=check)
        return op

    out = []
    for r in range(rounds):
        ops = []
        for k in range(6):
            i, sat = (r + k) % 2, k < 3
            doc, made = draw(rng, dtds[i], docs[i], lambda: rng.randint(2, 6),
                             rng.random() < 0.5, sat)
            op = sat_op("sat", i, doc, made)
            ops.append(cli_op(op, ["sat", "--dtd", f"d{i}.dtd", "--xpath", op["query"]],
                              0 if sat else 1, "sat"))
        ops.append(cli_op({"dtd": r % 2, "expect": None, "mrw": True},
                          ["classify", "--dtd", f"d{r % 2}.dtd"], 0, "classify"))
        sat = r % 2 == 0
        doc, made = draw(rng, small, small_sampler,
                         lambda: rng.randint(2, 3), False, sat, same_label_sibs=True)
        op = sat_op("oracle", 2, doc, made, depth=3, rep=2)
        ops.append(cli_op(op, ["oracle", "--dtd", "d2.dtd", "--xpath", op["query"],
                               "--depth", "3", "--rep", "2"], 0 if sat else 1, "oracle"))
        ops.append(cli_op({"dtd": 3, "expect": None},
                          ["sat", "--dtd", "d3.dtd", "--xpath", "↓::a"], 3, "refused"))
        lbl = rng.choice(sorted(mrw.rules))
        ops.append(cli_op({"dtd": 0, "expect": None},
                          ["sat", "--dtd", "d0.dtd", "--xpath", f"↓*::{lbl}"], 4, "refused"))
        rng.shuffle(ops)
        out.append(ops)
    # set-up warms each DTD with one library call of the kind its files get
    warm = warm_ops(dtds[:2]) + warm_ops([small], "oracle", 2, depth=3, rep=2)
    return Workload("cli-one-shot", dtds, out, warm, 80, 3, files)


WORKLOADS = {
    "schema-reuse": schema_reuse,
    "query-heavy": query_heavy,
    "oracle-search": oracle_search,
    "cli-one-shot": cli_one_shot,
}
