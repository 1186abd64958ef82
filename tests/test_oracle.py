"""Bounded tree enumeration and the full-axes reference evaluator."""

from __future__ import annotations

import copy
import pickle
import random
import re
import sys
from functools import lru_cache
from itertools import islice, product, zip_longest
from math import inf

import pytest

from xpathsat import (
    ParseError, content_model, oracle, parse_content_model, parse_dtd, parse_xpath,
)
from xpathsat.constraints import SibMap
from xpathsat.dtd import Dtd
from xpathsat.oracle import (
    DocTree,
    _splits,
    conforms,
    eval_xpath_full,
    iter_trees,
    min_heights,
    oracle_satisfiable,
    parse_tree,
    render_tree,
    satisfies,
    words_capped,
)
from xpathsat.xpath import Axis, QPath, Qual, Seq, Step, features, render_xpath

from gens import random_doc_walk, random_full_query, random_mdf_dc_dtd, tree_count
from support import (
    beta_satisfied,
    compute_sg_mappings,
    enumerate_trees,
    find_beta_witness,
    node_at,
    node_count,
    preorder_labels,
    reference_eval,
    reference_search,
    sibmap_of,
)

WORKED = "root r\nr := r*(a*b|c)r*\na := eps\nb := a\nc := eps\n"
WORKED_TREE = "r(r(c),a,a,b(a))"


def worked():
    return parse_dtd(WORKED)


# ------------------------------------------------------------------ tree terms


def test_tree_term_round_trip():
    t = parse_tree(WORKED_TREE)
    assert render_tree(t) == WORKED_TREE
    assert t.label == "r"
    assert [c.label for c in t.children] == ["r", "a", "a", "b"]
    assert node_count(t) == 7
    assert preorder_labels(t) == ("r", "r", "c", "a", "a", "b", "a")


def test_a_deep_tree_renders_without_recursion():
    chain = DocTree("r")
    for _ in range(3000):
        chain = DocTree("r", (chain,))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the interpreter's default
    try:
        assert render_tree(chain) == "r(" * 3000 + "r" + ")" * 3000
    finally:
        sys.setrecursionlimit(limit)


def test_tree_term_single_node():
    t = parse_tree("r")
    assert t.children == ()
    assert render_tree(t) == "r"


def test_tree_term_multichar_labels():
    t = parse_tree("doc(title,item(title),item)")
    assert [c.label for c in t.children] == ["title", "item", "item"]
    assert render_tree(t) == "doc(title,item(title),item)"


@pytest.mark.parametrize("bad", ["", "r(", "r)a", "r(a,)", "r(a))", "r a", "(a)"])
def test_tree_term_errors(bad):
    with pytest.raises(ParseError):
        parse_tree(bad)


@pytest.mark.parametrize("bad, char", [("r(a,é)", "é"), ("r(a|b)", "|"), ("r(a*)", "*")])
def test_tree_term_lexer_errors_name_the_tree_term(bad, char):
    with pytest.raises(ParseError, match=f"^unexpected character '{re.escape(char)}' in tree term$"):
        parse_tree(bad)


@pytest.mark.parametrize("text, message", [
    ("r(" * 3000 + "a" + ")" * 3000, "tree term nested too deeply"),
    ("", "empty tree term"),
    ("r a", "trailing input from token 'a'"),
], ids=["deep", "empty", "trailing"])
def test_tree_term_whole_input_errors(text, message):
    with pytest.raises(ParseError) as info:
        parse_tree(text)
    assert str(info.value) == message


def test_node_at():
    t = parse_tree(WORKED_TREE)
    assert node_at(t, ()).label == "r"
    assert node_at(t, (0, 0)).label == "c"
    assert node_at(t, (3, 0)).label == "a"


# ------------------------------------------------------------------- conforms


def test_conforms_worked_examples():
    d = worked()
    assert conforms(parse_tree(WORKED_TREE), d)
    assert not conforms(parse_tree("r(b,c)"), d)  # b,c not a word of the model
    assert not conforms(parse_tree("r"), d)  # the model has no empty word
    assert conforms(parse_tree("r(b(a))"), d)
    assert not conforms(parse_tree("r(b)"), d)  # b requires exactly one a below
    assert not conforms(parse_tree("r(b(b))"), d)


def test_conforms_single_label():
    d = parse_dtd("root r\nr := eps\n")
    assert conforms(parse_tree("r"), d)
    assert not conforms(parse_tree("r(r)"), d)


def test_conforms_rejects_undeclared_label():
    assert not conforms(parse_tree("r(q)"), worked())


def test_conforms_checks_a_deep_chain_without_recursion():
    d = parse_dtd("root r\nr := r?\n")
    chain, bad = DocTree("r"), DocTree("q")
    for _ in range(2000):
        chain, bad = DocTree("r", (chain,)), DocTree("r", (bad,))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the interpreter's default
    try:
        assert conforms(chain, d)  # 2,001 nodes
        assert not conforms(bad, d)  # its deepest node is undeclared
    finally:
        sys.setrecursionlimit(limit)


def test_conforms_builds_its_automata_once_per_dtd(monkeypatch):
    built = 0

    class CountedNfa(content_model.Nfa):
        def __init__(self, e):
            nonlocal built
            built += 1
            super().__init__(e)

    monkeypatch.setattr(content_model, "Nfa", CountedNfa)
    d = worked()
    assert conforms(parse_tree(WORKED_TREE), d)
    assert built == len(d.rules)
    assert not conforms(parse_tree("r(b,c)"), d)
    assert conforms(parse_tree("r(b(a))"), d)
    assert built == len(d.rules)


# ------------------------------------------------------------ full evaluator


def test_eval_full_child_and_parent():
    t = parse_tree(WORKED_TREE)
    assert eval_xpath_full(t, parse_xpath("↓::r")) == {(0,)}
    assert eval_xpath_full(t, parse_xpath("↓::a")) == {(1,), (2,)}
    assert eval_xpath_full(t, parse_xpath("↓::b/↑::r")) == {()}
    assert eval_xpath_full(t, parse_xpath("↓::b/↑::b")) == set()


def test_eval_full_siblings():
    t = parse_tree(WORKED_TREE)
    assert eval_xpath_full(t, parse_xpath("↓::r/→⁺::b")) == {(3,)}
    assert eval_xpath_full(t, parse_xpath("↓::b/←⁺::a")) == {(1,), (2,)}
    assert eval_xpath_full(t, parse_xpath("↓::r/←⁺::a")) == set()
    assert eval_xpath_full(t, parse_xpath("→⁺::a")) == set()  # root: no siblings


def test_eval_full_recursive_axes():
    t = parse_tree(WORKED_TREE)
    assert eval_xpath_full(t, parse_xpath("↓*::c")) == {(0, 0)}
    assert eval_xpath_full(t, parse_xpath("↓*::a")) == {(1,), (2,), (3, 0)}
    assert eval_xpath_full(t, parse_xpath("↓::b/↓::a/↑*::r")) == {()}
    assert eval_xpath_full(t, parse_xpath("↓::b/↑*::b")) == {(3,)}


def test_eval_full_union_and_qualifiers():
    t = parse_tree(WORKED_TREE)
    assert eval_xpath_full(t, parse_xpath("↓::q ∪ ↓::b")) == {(3,)}
    assert eval_xpath_full(t, parse_xpath("↓::b[↓::q or ↓::a]")) == {(3,)}
    assert eval_xpath_full(t, parse_xpath("↓::b[↓::q and ↓::a]")) == set()
    assert eval_xpath_full(t, parse_xpath("↓::r[↓::c]")) == {(0,)}


def test_eval_full_start_context():
    t = parse_tree(WORKED_TREE)
    assert eval_xpath_full(t, parse_xpath("↓::c"), start=(0,)) == {(0, 0)}
    assert eval_xpath_full(t, parse_xpath("→⁺::b"), start=(0,)) == {(3,)}


def test_satisfies_worked_queries():
    t = parse_tree(WORKED_TREE)
    assert satisfies(t, parse_xpath("(↓::r/→⁺::b)/(↓::a/↑::b)"))
    assert satisfies(t, parse_xpath("↓::r/→⁺::b[↓::a]"))
    assert not satisfies(t, parse_xpath("(↓::r/→⁺::b)/(↓::a/↑::b)/→⁺::c"))
    assert not satisfies(parse_tree("r"), parse_xpath("↓::a"))


def _differential_dtds():
    """Small recursion-free gens DTDs and two recursive ones, each with the
    bounds its trees are drawn at."""
    rng = random.Random(808)
    out = [
        (worked(), 3, 3),
        (parse_dtd("root r\nr := s*a?\ns := s?a?\na := eps\n"), 4, 2),
    ]
    while len(out) < 10:
        d = random_mdf_dc_dtd(rng)
        if tree_count(d, 2) <= 400:
            out.append((d, len(d.labels), 2))
    return out


def _node_paths(t, path=()):
    yield path
    for i, c in enumerate(t.children):
        yield from _node_paths(c, path + (i,))


def test_compiled_steps_select_what_the_reference_selects():
    # every axis and label from every node of sampled trees
    rng = random.Random(1617)
    selected = 0
    for d, depth, rep in _differential_dtds():
        trees = list(iter_trees(d, depth, rep))
        for t in rng.sample(trees, min(8, len(trees))):
            for start in _node_paths(t):
                for axis in Axis:
                    for label in d.labels:
                        q = Step(axis, label)
                        got = eval_xpath_full(t, q, start)
                        assert got == reference_eval(t, q, start), (render_tree(t), q, start)
                        selected += len(got)
    assert selected > 5000


def test_compiled_queries_select_what_the_reference_selects():
    rng = random.Random(3141)
    cases = nonempty = inner = 0
    for d, depth, rep in _differential_dtds():
        trees = list(iter_trees(d, depth, rep))
        for t in rng.sample(trees, min(10, len(trees))):
            nodes = list(_node_paths(t))
            for _ in range(30):
                q = random_full_query(rng, d.labels)
                start = rng.choice(nodes)
                got = eval_xpath_full(t, q, start)
                assert got == reference_eval(t, q, start), (
                    render_tree(t), render_xpath(q, arrows=True), start)
                assert satisfies(t, q) == bool(reference_eval(t, q))
                cases += 1
                nonempty += bool(got)
                inner += bool(start)
    assert cases > 2000 and nonempty > 250 and inner > 1500


def test_oracle_search_answers_what_the_former_search_answered():
    # at each DTD's own bound and at every smaller depth, with a stated
    # share of the queries reading less than the whole depth, so that the
    # search runs them on one tree per class
    rng = random.Random(2718)
    answers, cut = [], 0
    for d, depth, rep in _differential_dtds():
        for bound in range(depth, 0, -1):
            for _ in range(25 if bound == depth else 12):
                q = random_full_query(rng, d.labels)
                got = oracle_satisfiable(d, q, bound, rep)
                want = reference_search(d, q, bound, rep)
                assert got == want, (bound, render_xpath(q, arrows=True))
                answers.append(None if got is None else render_tree(got))
                cut += oracle._deepest(q)[0] < bound - 1
    found = [a for a in answers if a is not None]
    assert len(found) > 40 and len(answers) - len(found) > 300
    assert len(set(found)) > 10 and cut > len(answers) // 3


def test_reused_dtd_searches_like_a_fresh_one():
    # one instance answers SAT searches that stop early, whole-space UNSAT
    # searches and searches at a second bound, in turn, as fresh ones do
    rng = random.Random(1551)
    found = exhausted = switches = 0
    for d, depth, rep in _differential_dtds():
        bounds = [(depth, rep), (depth - 1, rep)]
        last = None
        for _ in range(24):
            bound = rng.choice(bounds)
            q = random_full_query(rng, d.labels)
            got = oracle_satisfiable(d, q, *bound)
            want = reference_search(Dtd(d.root, dict(d.rules)), q, *bound)
            assert got == want, (bound, render_xpath(q, arrows=True))
            found += got is not None
            exhausted += got is None
            switches += last not in (None, bound)
            last = bound
        for bound in bounds:
            fresh = Dtd(d.root, dict(d.rules))
            assert list(iter_trees(d, *bound)) == list(iter_trees(fresh, *bound))
    assert found > 25 and exhausted > 150 and switches > 80


def test_two_live_iterators_each_yield_the_whole_space():
    for d, depth, rep in _differential_dtds():
        want = list(iter_trees(Dtd(d.root, dict(d.rules)), depth, rep))
        d = Dtd(d.root, dict(d.rules))
        first, second = iter_trees(d, depth, rep), iter_trees(d, depth, rep)
        head = list(islice(first, len(want) // 3))
        pairs = list(zip_longest(first, second))
        assert head + [a for a, _ in pairs if a is not None] == want
        assert [b for _, b in pairs] == want


def _count_runs(monkeypatch, q):
    """Records every path `oracle._compile` is given, and counts the trees
    the query compiled for `q` itself runs on."""
    compiled, runs = [], [0]
    real = oracle._compile

    def counted(p):
        compiled.append(p)
        f = real(p)
        if p is not q:
            return f

        def run(nodes):
            runs[0] += 1
            return f(nodes)
        return run

    monkeypatch.setattr(oracle, "_compile", counted)
    return compiled, runs


def test_oracle_search_compiles_once_and_has_no_node_at(monkeypatch):
    # an UNSAT query that reads every level runs on all 36 trees of the
    # bounded space, and the search compiles it as often as one direct
    # compilation does
    q = parse_xpath("(↓::r/→⁺::b)/(↓::a/↑::b)/→⁺::c[↓::q or ↑*::r]")
    compiled, runs = _count_runs(monkeypatch, q)
    oracle._compile(q)
    once = len(compiled)
    compiled.clear()
    runs[0] = 0
    assert oracle_satisfiable(worked(), q, depth=3, rep=2) is None
    assert runs[0] == 36
    assert compiled[0] is q and len(compiled) == once
    assert not hasattr(oracle, "node_at")


def test_a_shallow_search_runs_on_one_tree_per_class(monkeypatch):
    # at depth 3 the worked DTD's 36 trees differ at level 1 already, so a
    # query that reads level 1 runs on all of them; one that reads the root
    # alone runs on the first tree of each node count
    d = worked()
    q = parse_xpath("→⁺::r ∪ ↑*::a")
    _, runs = _count_runs(monkeypatch, q)
    assert oracle_satisfiable(d, q, depth=3, rep=2) is None
    counts = {node_count(t) for t in iter_trees(d, 3, 2)}
    assert runs[0] == len(counts) < 36


@pytest.mark.parametrize("query, level", [
    ("↓::b", 1),
    ("↑::r", 0),                         # above the root there is no node
    ("↑::r/↓::a/↓::b", 1),
    ("→⁺::r", 0),
    ("↓::a/←⁺::b", 1),
    ("↓::a/↓::b/↑*::a/↓::c", 3),         # ↑* may stay where it is
    ("↓::b/↑::a/↑::c", 1),
    ("↓::r[↓::c]/←⁺::r/↓::c", 2),
    ("↓::a ∪ ↓::b/↓::c", 2),
    ("(↓::a/↑::r ∪ ↓::b)/↓::c", 2),      # a union ends as deep as its deepest operand
    ("↓::a[↓::b and ↓::c/↓::d]/↑::r", 3),
    ("↓::a[↑::r or ↓::b]/→⁺::c", 2),
    ("↓::a[↓::b[↓::c]]", 3),
    ("↓*::a", inf),
    ("↑::r/↓*::a", inf),
    ("↓::a[↓::b or ↓*::c]", inf),
    ("↓::a ∪ ↓*::b/↑::c", inf),
])
def test_deepest_level_a_query_reads(query, level):
    assert oracle._deepest(parse_xpath(query))[0] == level


# ------------------------------------------------- downward-only memoization

DOWN = (Axis.CHILD, Axis.DESC_OR_SELF)
A, AB = DocTree("a"), DocTree("a", (DocTree("b"),))
SHARED = [  # one subtree object at two positions, and at several trees
    (DocTree("r", (AB, AB)), "↓::a[↓::b]", {(0,), (1,)}),
    # a qualifier that is not downward-only is never kept per subtree
    (DocTree("r", (A, A)), "↓::a[←⁺::a]", {(1,)}),
    (DocTree("r", (A, AB, A)), "↓::a[↓::b or →⁺::a]", {(0,), (1,)}),
    (DocTree("r", (AB, DocTree("a", (AB,)), AB)), "↓*::a[↓::b]", {(0,), (1, 0), (2,)}),
]


@pytest.mark.parametrize("tree, query, want", SHARED, ids=[q for _, q, _ in SHARED])
def test_shared_subtrees_select_what_the_reference_selects(tree, query, want):
    q = parse_xpath(query)
    assert eval_xpath_full(tree, q) == reference_eval(tree, q) == want
    assert satisfies(tree, q)
    for start in _node_paths(tree):
        assert eval_xpath_full(tree, q, start) == reference_eval(tree, q, start)


def test_one_search_decides_trees_that_share_subtrees():
    # one decider, as a search holds it, over trees that reuse A and AB
    # at several positions and across trees, in turn
    trees = [t for t, _, _ in SHARED] + [DocTree("r", (A,)), DocTree("r", (A, DocTree("r", (AB,))))]
    queries = [q for _, q, _ in SHARED] + [
        "↓::a/↓::b", "↓::a[↓::b]/↓::b", "↓*::a/↓::b", "↓::r/↓*::b", "↓::a ∪ ↓::r/↓::a[↓::b]",
        "↓::a[↓::b and ↓::b/↓::a]", "↓::a[↓::q or ↓*::b]",
    ]
    for query in queries:
        q = parse_xpath(query)
        matches = oracle._decider(q)
        for t in trees * 2:
            assert matches(t) == bool(reference_eval(t, q)), (query, render_tree(t))


def test_downward_searches_answer_what_the_former_search_answered():
    # downward-only queries, which the search runs once per subtree object
    # below the root, at every depth bound of each DTD, with a stated share
    # reading the whole depth, so that no class cut spares a tree
    rng = random.Random(1923)
    answers, whole = [], 0
    for d, depth, rep in _differential_dtds():
        for bound in range(depth, 0, -1):
            for _ in range(25 if bound == depth else 12):
                q = random_full_query(rng, d.labels, axes=DOWN)
                assert oracle._deepest(q)[1] >= 0
                got = oracle_satisfiable(d, q, bound, rep)
                want = reference_search(d, q, bound, rep)
                assert got is want, (bound, render_xpath(q, arrows=True))
                answers.append(None if got is None else render_tree(got))
                whole += oracle._deepest(q)[0] >= bound - 1
    found = [a for a in answers if a is not None]
    assert len(found) > 150 and len(answers) - len(found) > 350
    assert len(set(found)) > 15 and whole > 450


def test_doc_walk_searches_answer_what_the_former_search_answered(monkeypatch):
    # walks of the trees of each DTD, with child, parent and sibling steps,
    # some with a `↓*` step that repeats the label before it, half with one
    # label changed and the rest, where the label allows, with a qualifier
    # that walks below its anchor, sideways too, at every depth
    # bound; a stated share has a step other than `↓` and `↓*` and is yet
    # searched over root-child objects, sorting no tree into classes
    rng = random.Random(2829)
    classed, real = [0], oracle._Space.classes

    def classes(space, size, level):
        classed[0] += 1
        return real(space, size, level)

    monkeypatch.setattr(oracle._Space, "classes", classes)
    answers, widened, sideways = [], 0, 0
    for d, depth, rep in _differential_dtds():
        trees = [t for t in iter_trees(d, depth, rep) if t.children]
        inner = {}  # label -> distinct subtree objects with a child
        for t in trees:
            stack = [t]
            while stack:
                v = stack.pop()
                if v.children:
                    inner.setdefault(v.label, {})[id(v)] = v
                    stack.extend(v.children)
        for bound in range(depth, 0, -1):
            for _ in range(25 if bound == depth else 12):
                q = random_doc_walk(rng, rng.choice(trees), 6)
                steps = list(q.steps) if isinstance(q, Seq) else [q]
                if rng.random() < 0.3:  # selects the node before it again, among others
                    j = rng.randrange(len(steps))
                    steps.insert(j + 1, Step(Axis.DESC_OR_SELF, steps[j].label))
                i = rng.randrange(len(steps))
                if rng.random() < 0.5:
                    steps[i] = Step(steps[i].axis, rng.choice(sorted(d.labels)))
                elif steps[i].label in inner:
                    anchor = rng.choice(list(inner[steps[i].label].values()))
                    steps[i] = Qual(steps[i], (QPath(random_doc_walk(rng, anchor, 4)),))
                q = Seq(tuple(steps)) if len(steps) > 1 else steps[0]
                sideways += isinstance(steps[i], Qual) and bool(
                    features(steps[i].quals[0])[0] & {Axis.FSIB, Axis.PSIB})
                classed[0] = 0
                got = oracle_satisfiable(d, q, bound, rep)
                assert got is reference_search(d, q, bound, rep), (bound, render_xpath(q, arrows=True))
                answers.append(None if got is None else render_tree(got))
                widened += not classed[0] and not features(q)[0] <= set(DOWN)
    found = [a for a in answers if a is not None]
    assert len(found) > 220 and len(answers) - len(found) > 220 and len(set(found)) > 50
    assert widened > len(answers) // 6 and sideways > 30


def test_a_downward_search_runs_the_rest_once_per_subtree(monkeypatch):
    # a whole-depth UNSAT chain runs its remainder once per subtree object
    # the first step selects from the root, not once per tree
    d = parse_dtd("root r\nr := s*a?\ns := s?a?\na := eps\n")
    q = parse_xpath("↓::s/↓::s/↓::s/↓::a")
    assert oracle._deepest(q)[0] == 4
    runs, real = [0], oracle._chain

    def counted(parts):
        f = real(parts)

        def run(nodes):
            runs[0] += 1
            return f(nodes)
        return run

    monkeypatch.setattr(oracle, "_chain", counted)
    assert oracle_satisfiable(d, q, depth=4, rep=2) is None
    trees = list(iter_trees(d, 4, 2))
    selected = {id(c) for t in trees for c in t.children if c.label == "s"}
    assert runs[0] == len(selected) and runs[0] * 20 < len(trees)


def test_a_downward_qualifier_runs_once_per_subtree(monkeypatch):
    # in a query whose rest reads above its first node, a qualifier that
    # stays inside its anchor's subtree runs once per subtree object it is
    # asked about over the whole search, not once per (tree, node) pair
    d = parse_dtd("root r\nr := b*a?\nb := d?a?\nd := a?\na := x?\nx := eps\n")
    q = parse_xpath("↓::b[↓::d/↓::a]/→⁺::b/↓::a")
    qual = q.steps[0].quals[0].path
    assert oracle._deepest(Seq(q.steps[1:]))[1] < 0 and oracle._deepest(qual)[1] >= 0
    assert oracle._deepest(q)[0] == 3  # reads the whole depth: every tree runs
    _, runs = _count_runs(monkeypatch, qual)
    got = oracle_satisfiable(d, q, depth=4, rep=2)
    assert got is reference_search(d, q, 4, 2)
    assert render_tree(got) == "r(b(d(a)),b(a))"
    asked = []
    for t in iter_trees(d, 4, 2):
        asked += [c for c in t.children if c.label == "b"]
        if t is got:
            break
    assert runs[0] == len({id(c) for c in asked}) and runs[0] * 10 < len(asked)


def test_long_downward_queries_still_answer():
    # a 1,500-step chain and a 1,500-qualifier stack take the memoized
    # route without one call per step or per qualifier
    d = worked()
    assert oracle._deepest(parse_xpath("↓::r" + "[↓::c]" * 1500))[1] >= 0
    assert oracle_satisfiable(d, parse_xpath("/".join(["↓::r"] * 1500)), depth=3, rep=2) is None
    w = oracle_satisfiable(d, parse_xpath("/".join(["↓*::r"] * 1500)), depth=3, rep=2)
    assert render_tree(w) == "r(c)"
    w = oracle_satisfiable(d, parse_xpath("↓::r" + "[↓::c]" * 1500), depth=3, rep=2)
    assert render_tree(w) == "r(c,r(c))"
    # so does a 1,501-step chain whose `↑` steps stay inside the first node
    q = parse_xpath("↓::r" + "/↓::c/↑::r" * 750)
    assert oracle._deepest(Seq(q.steps[1:]))[1] == 0
    assert render_tree(oracle_satisfiable(d, q, depth=3, rep=2)) == "r(c,r(c))"


@pytest.mark.parametrize("query, inside", [
    ("↓::a/↓*::b", True),
    ("↓::a[↓::b or ↓*::c] ∪ ↓::d", True),
    ("↓::a[↓::b[↓::c and ↓::d]]", True),
    ("↓::a[↓::b or →⁺::c]", True),        # the sibling step reads level 0
    ("↓::a[↓::b[↑::a]]", True),
    ("↓::a/←⁺::b", True),
    ("↓::b/↓::e/↑::a", True),
    ("↓::a/↑::r", True),                  # ends on the start node itself
    ("↓::a[↓::b or →⁺::c]/↑::r/→⁺::d", False),
    ("↓::a ∪ ↑*::b", False),
    ("↓::a/↓::b/↑*::c", False),           # ↑* reads every level above
    ("↓*::a/↑::b", False),                # ↓* may stay on the start node
    ("→⁺::a", False),
    ("↓::a[↑::r/↑::s]", False),
    ("↑::a", False),
])
def test_queries_that_stay_inside_their_start_subtree(query, inside):
    assert (oracle._deepest(parse_xpath(query))[1] >= 0) is inside


def test_top_level_unions_and_qualified_sequences_answer_as_before():
    # a downward-only union or qualified sequence runs whole on each tree,
    # its downward-only qualifiers kept per subtree object
    d = parse_dtd("root r\nr := b*a?\nb := d?a?\nd := a?\na := x?\nx := eps\n")
    found = []
    for query in [
        "↓::b/↓::d/↓::c ∪ ↓::a/↓::x", "↓::b/↓::d/↓::c ∪ ↓::a/↓::c",
        "(↓::b/↓::d/↓::a)[↓::x]", "(↓::b/↓::d/↓::a)[↓::c]",
        "(↓::b/↓::d ∪ ↓::b/↓::a)[↓::a or ↓*::x]",
    ]:
        q = parse_xpath(query)
        assert oracle._deepest(q)[1] >= 0 and not isinstance(q, Seq)
        for depth in (3, 4, 5):
            got = oracle_satisfiable(d, q, depth, 2)
            assert got is reference_search(d, q, depth, 2), (query, depth)
            found.append(got is not None)
    assert found.count(True) == 6 and found.count(False) == 9
    # so does a downward-only sequence led by a union or a group
    led = []
    for query in [
        "(↓::b ∪ ↓::a)/↓::x", "(↓::b ∪ ↓::a)/↓::c", "(↓::b/↓::d ∪ ↓*::d)/↓::a/↓::x",
        "(↓::b[↓::a] ∪ ↓::a)[↓::x]/↓::x", "(↓::b/↓::d)[↓::a]/↓::a/↓::x",
    ]:
        q = parse_xpath(query)
        assert oracle._deepest(q)[1] >= 0 and isinstance(q, Seq) and not isinstance(q.steps[0], Step)
        for depth in (3, 4, 5):
            got = oracle_satisfiable(d, q, depth, 2)
            assert got is reference_search(d, q, depth, 2), (query, depth)
            led.append(got is not None)
    assert led.count(True) == 8 and led.count(False) == 7


# ------------------------------------------------------- root-child searches

# the root's first child is one of three leaves, so one `b` object sits in
# three trees of a count
SIBS = "root r\nr := (c|e|f)b*\nb := d?a?\nd := a?\na := x?\nc := eps\ne := eps\nf := eps\nx := eps\n"


def _by_count(d, depth, rep):
    counts = {}
    for t in iter_trees(d, depth, rep):
        counts.setdefault(node_count(t), []).append(t)
    return counts


def _first_trees(trees, label):
    """Each distinct root child object labeled `label` (any label for None)
    of `trees`, with the position of the first tree that holds it."""
    first = {}
    for i, t in enumerate(trees):
        for v in t.children:
            if label in (None, v.label):
                first.setdefault(id(v), (i, v))
    return list(first.values())


@pytest.mark.parametrize("dtd, query, depth, want", [
    (SIBS, "↓::b[↓::d]/↓::a", 4, "r(c,b(d,a))"),           # a qualified first step
    (SIBS, "↓::b/↓::d/↓::a/↓::x", 5, "r(c,b(d(a(x))))"),
    (SIBS, "↓::b[↓::a/↓::x]/↓::d", 4, "r(c,b(d,a(x)))"),
    (SIBS, "↓::b/↓::d/↓::q", 4, None),
    (SIBS, "↓::c", 3, "r(c)"),                              # a single step
    (SIBS, "↓*::d[↓::a/↓::x]", 5, "r(c,b(d(a(x))))"),     # the root is not labeled d
    (SIBS, "↓*::a/↓::x", 4, "r(c,b(a(x)))"),
    (SIBS, "↓*::d[↓::a/↓::x]", 4, None),
    (WORKED, "↓*::r/↓::b/↓::a", 3, "r(b(a))"),              # the root is labeled r
    (WORKED, "↓*::r[↓::c]/↓::c", 3, "r(c)"),
    (WORKED, "↓*::r/↓::q", 3, None),
    (WORKED, "↓*::r[↓::r/↓::b]/↓::c", 3, None),
])
def test_root_child_searches_return_the_reference_witness(dtd, query, depth, want):
    d, q = parse_dtd(dtd), parse_xpath(query)
    got = oracle_satisfiable(d, q, depth, 2)
    assert got is reference_search(d, q, depth, 2)
    assert (None if got is None else render_tree(got)) == want


def test_the_root_child_index_keeps_each_object_with_its_first_tree():
    # each object is listed once, under the count of its first holder in the
    # whole stream, with that holder's position among the count's trees
    d = parse_dtd(SIBS)
    space = oracle._space(d, 4, 2)
    held, shared = set(), 0
    for n, trees in _by_count(d, 4, 2).items():
        for label in (None, "b", "c", "q"):
            want = [(i, v) for i, v in _first_trees(trees, label) if id(v) not in held]
            got = list(space.kids(n, label))
            assert [(i, id(v)) for i, v in got] == [(i, id(v)) for i, v in want]
        shared += sum(id(v) in held for _, v in _first_trees(trees, None))
        held |= {id(v) for _, v in _first_trees(trees, None)}
    assert shared > 10


def test_a_child_first_witness_is_the_first_tree_holding_a_passing_child():
    # in the witness's count other `b` objects first appear in earlier
    # trees, its passing `b` object is held by three trees, and a smaller
    # count holds no `b` child at all
    d, q = parse_dtd(SIBS), parse_xpath("↓::b[↓::d]/↓::a")
    got = oracle_satisfiable(d, q, 4, 2)
    assert got is reference_search(d, q, 4, 2)
    counts = _by_count(d, 4, 2)
    trees = counts[node_count(got)]
    pos = next(i for i, t in enumerate(trees) if t is got)
    assert sum(i < pos for i, _ in _first_trees(trees, "b")) >= 5
    [v] = [v for v in got.children if v.label == "b"]
    assert sum(any(c is v for c in t.children) for t in trees) == 3
    assert any(not _first_trees(counts[n], "b") for n in counts if n < node_count(got))


def test_a_second_child_first_search_reads_only_the_kept_index(monkeypatch):
    # after one UNSAT chain has indexed the space, a second one runs its
    # remainder at most once per distinct `s` child object of each count's
    # root trees, and reads no root tree's children
    d = parse_dtd("root r\nr := s*a?\ns := s?a?\na := eps\n")
    assert oracle_satisfiable(d, parse_xpath("↓::s/↓::s/↓::s/↓::a"), 4, 3) is None
    counts = _by_count(d, 4, 3)
    bound = sum(len(_first_trees(trees, "s")) for trees in counts.values())
    assert bound * 5 < sum(map(len, counts.values()))

    class Sealed(DocTree):
        __slots__ = ()

        def __getattribute__(self, name):
            assert name != "children", "a root tree's children were read"
            return super().__getattribute__(name)

    space = oracle._space(d, 4, 3)
    for n, trees in space.built.items():
        space.built[n] = tuple(Sealed(t.label, t.children) for t in trees)
    runs, real = [0], oracle._chain

    def counted(parts):
        f = real(parts)

        def run(nodes):
            runs[0] += 1
            return f(nodes)
        return run

    monkeypatch.setattr(oracle, "_chain", counted)
    assert oracle_satisfiable(d, parse_xpath("↓::s/↓::a/↓::s"), 4, 3) is None
    assert 0 < runs[0] <= bound


def _scanned(monkeypatch):
    """Records every object `_Space.kids` yields to a search."""
    yielded, real = [], oracle._Space.kids

    def kids(space, size, label):
        got = list(real(space, size, label))
        yielded.extend(v for _, v in got)
        return got

    monkeypatch.setattr(oracle._Space, "kids", kids)
    return yielded


def test_a_child_first_search_tests_each_root_child_once(monkeypatch):
    # the scan of a whole-space UNSAT chain yields each distinct `s` child of
    # a root once, not once per node count that holds it, and the chain's
    # rest runs once per such object
    d = parse_dtd("root r\nr := s*a?\ns := s?a?\na := eps\n")
    yielded = _scanned(monkeypatch)
    runs, real = [0], oracle._chain

    def counted(parts):
        f = real(parts)

        def run(nodes):
            runs[0] += 1
            return f(nodes)
        return run

    monkeypatch.setattr(oracle, "_chain", counted)
    assert oracle_satisfiable(d, parse_xpath("↓::s/↓::s/↓::s/↓::a"), 4, 3) is None
    counts = _by_count(d, 4, 3)
    distinct = {id(v) for trees in counts.values() for _, v in _first_trees(trees, "s")}
    per_count = sum(len(_first_trees(trees, "s")) for trees in counts.values())
    assert len({id(v) for v in yielded}) == len(yielded) == len(distinct) == runs[0]
    assert len(distinct) * 2 < per_count


@pytest.mark.parametrize("query, want", [
    ("↓::s/↓::s/↑::r", None),                   # an s child's parent is an s
    ("↓::s/↓::s/↑::s", "r(s(s))"),
    ("↓::s[↓::s/→⁺::a]/↓::a/↑::s", "r(s(s,a))"),
    ("↓::s/↓::a/←⁺::s/↓::s", "r(s(s(s),a))"),
    ("↓*::s/↓::s/↑::r", None),
])
def test_a_search_whose_rest_stays_below_its_first_node_tests_root_children(monkeypatch, query, want):
    # the rest reads no level above the node the first step selects, so the
    # search tests root-child objects and sorts no tree into classes
    d, q = parse_dtd("root r\nr := s*a?\ns := s?a?\na := eps\n"), parse_xpath(query)
    yielded = _scanned(monkeypatch)

    def no_classes(*args):
        raise AssertionError("the class route ran")

    monkeypatch.setattr(oracle._Space, "classes", no_classes)
    got = oracle_satisfiable(d, q, 4, 2)
    assert yielded and got is reference_search(d, q, 4, 2)
    assert (None if got is None else render_tree(got)) == want


# ------------------------------------------------------- root-label searches

ROOTED = "root r\nr := s*a?\ns := s?a?\na := eps\n"


def _cut_classes(trees, level):
    """How many classes of `trees` agree on their labels down to `level`."""
    def cut(t, k):
        return t.label if not k else (t.label, *(cut(c, k - 1) for c in t.children))
    return len({cut(t, level) for t in trees})


# (dtd, query, the deepest level its qualifiers and rest read, bounds);
# each qualifier is a single step, so `_chain` builds only the rest's chain
ROOT_LABEL_SEARCHES = [
    (WORKED, "↓*::r/↓::b/↓::a", 2, [(3, 2), (3, 3)]),
    (WORKED, "↓*::r[↓::c]/↓::c", 1, [(3, 2), (3, 3)]),
    (WORKED, "↓*::r/↓::q", 1, [(3, 2), (3, 3)]),
    (WORKED, "↓*::r/↓::b/↑::r/↓::c", 1, [(3, 2), (3, 3)]),        # ↑ back to the first node
    (WORKED, "↓*::r/↓::c/↑::r/↓::b", 1, [(3, 2), (3, 3)]),        # c and b never share a parent
    (WORKED, "↓*::r/↓::a/→⁺::b/↓::a", 2, [(3, 2), (3, 3)]),
    (WORKED, "↓*::r[↓::b and ↓::r]/↓::c/→⁺::a", 1, [(3, 3)]),      # an a never follows a c
    (SIBS, "↓*::r/↓::b/↓::d/↓::a/↓::x", 4, [(4, 2), (5, 2)]),
    (SIBS, "↓*::r[↓::e]/↓::b/↓::a/↑::b/↓::d", 2, [(3, 2), (4, 2), (5, 2)]),
    (SIBS, "↓*::r/↓::b/←⁺::f", 1, [(3, 2), (4, 2)]),
    (SIBS, "↓*::r/↓::b/→⁺::c", 1, [(3, 2), (4, 2), (5, 2)]),       # c only comes first
    (SIBS, "↓*::r[↓::c]/↓::b/↓::d/↓::q", 3, [(4, 2), (5, 2)]),
    (ROOTED, "↓*::r/↓::q", 1, [(4, 3), (5, 2)]),
    (ROOTED, "↓*::r[↓::a]/↓::s/↓::q", 2, [(4, 3), (5, 2)]),
    (ROOTED, "↓*::r[↓::a]/↓::s/↓::s/↓::a", 3, [(4, 2), (5, 2)]),
    (ROOTED, "↓*::r/↓::s/↓::a/←⁺::s/↓::s", 3, [(4, 2), (4, 3), (5, 2)]),
    (ROOTED, "↓*::r/↓::a/→⁺::s", 1, [(3, 2), (4, 3)]),            # a comes after the s children
    (ROOTED, "↓*::r/↓::s/↑::r/↓::a", 1, [(3, 2), (4, 3)]),
]


def test_root_label_searches_run_the_rest_once_per_level_cut_class(monkeypatch):
    # a `↓*::l` first step with l the root's label is tested at the root,
    # on the first tree of each class of a count's trees that agree down to
    # the deepest level its qualifiers and rest read
    runs, real = [0], oracle._chain

    def counted(parts):
        f = real(parts)

        def run(nodes):
            runs[0] += 1
            return f(nodes)
        return run

    monkeypatch.setattr(oracle, "_chain", counted)
    answers, classes, scanned = [], 0, 0
    for dtd, query, level, bounds in ROOT_LABEL_SEARCHES:
        q = parse_xpath(query)
        quals = q.steps[0].quals if isinstance(q.steps[0], Qual) else ()
        reads = [oracle._deepest(x) for x in (*quals, Seq(q.steps[1:]))]
        assert max(r[0] for r in reads) == level and min(r[1] for r in reads) >= 0, query
        for depth, rep in bounds:
            d = parse_dtd(dtd)
            runs[0] = 0
            got = oracle_satisfiable(d, q, depth, rep)
            assert got is reference_search(d, q, depth, rep), (query, depth, rep)
            answers.append(None if got is None else render_tree(got))
            counts = _by_count(d, depth, rep)
            upto = [n for n in counts if got is None or n <= node_count(got)]
            bound = sum(_cut_classes(counts[n], level) for n in upto)
            assert 0 < runs[0] <= bound, (query, depth, rep)
            classes += bound
            scanned += sum(len(counts[n]) for n in upto)
    found = [a for a in answers if a is not None]
    assert len(found) > 12 and len(answers) - len(found) > 12
    assert classes * 3 < scanned


def test_root_label_searches_answer_what_the_former_search_answered():
    # `↓*::r` before a random walk from the root, which stays inside the
    # root's subtree, as the rest or as a qualifier, one label sometimes
    # changed so that the walk may fail
    rng = random.Random(4242)
    answers = []
    for dtd, bounds in [(WORKED, [(3, 2)]), (SIBS, [(4, 2), (5, 2)]), (ROOTED, [(4, 2), (5, 2)])]:
        d = parse_dtd(dtd)
        for depth, rep in bounds:
            trees = [t for t in iter_trees(d, depth, rep) if t.children]
            for _ in range(30):
                walk = random_doc_walk(rng, rng.choice(trees), 6)
                steps = list(walk.steps) if isinstance(walk, Seq) else [walk]
                if rng.random() < 0.5:
                    i = rng.randrange(len(steps))
                    steps[i] = Step(steps[i].axis, rng.choice(sorted(d.labels)))
                rest = Seq(tuple(steps)) if len(steps) > 1 else steps[0]
                first = Step(Axis.DESC_OR_SELF, "r")
                if rng.random() < 0.5:
                    q = Seq((first, rest) if isinstance(rest, Step) else (first, *rest.steps))
                else:
                    q = Qual(first, (QPath(rest),))
                got = oracle_satisfiable(d, q, depth, rep)
                assert got is reference_search(d, q, depth, rep), render_xpath(q, arrows=True)
                answers.append(None if got is None else render_tree(got))
    found = [a for a in answers if a is not None]
    assert len(found) > 80 and len(answers) - len(found) > 30 and len(set(found)) > 25


def test_pickles_and_copies_of_a_searched_dtd_hold_no_oracle_state():
    # the automata and the tree space live in the instance's `vars`; a
    # pickle or copy starts without them and answers alike
    d = parse_dtd(WORKED)
    declared = set(vars(parse_dtd(WORKED)))
    q = parse_xpath("↓*::r[↓::b]/↓::r/↓::c")
    witness = oracle_satisfiable(d, q, 3, 2)
    trees = [parse_tree(WORKED_TREE), parse_tree("r(a,c)"), parse_tree("r(b(a),r(c))")]
    verdicts = [conforms(t, d) for t in trees]
    assert verdicts == [True, False, True] and set(vars(d)) > declared
    for other in (pickle.loads(pickle.dumps(d)), copy.copy(d), copy.deepcopy(d)):
        assert other == d and set(vars(other)) == declared
        assert render_tree(oracle_satisfiable(other, q, 3, 2)) == render_tree(witness)
        assert [conforms(t, other) for t in trees] == verdicts
        assert oracle._space(other, 3, 2) is not oracle._space(d, 3, 2)


def test_building_a_space_splits_only_words_that_reach_the_count(monkeypatch):
    # r's 301 words each hold one node count, so a count splits one word
    # rather than every word of r
    calls, real = [0], oracle._splits

    def counted(kids, total):
        calls[0] += 1
        return real(kids, total)

    monkeypatch.setattr(oracle, "_splits", counted)
    d = parse_dtd("root r\nr := a*\na := eps\n")
    assert oracle_satisfiable(d, parse_xpath("↓::q"), 2, 300) is None
    counts = oracle._space(d, 2, 300).counts
    assert len(counts) == 301 and calls[0] <= 2 * len(counts)


def test_a_deep_descendant_search_still_answers():
    # a `↓*` step walks a subtree with a stack, so the search recurses no
    # deeper than building the space does
    d = parse_dtd("root r\nr := r?\n")
    assert oracle_satisfiable(d, parse_xpath("↓*::q"), 320, 2) is None
    assert oracle_satisfiable(d, parse_xpath("↓*::r/↓::q"), 320, 2) is None
    assert render_tree(oracle_satisfiable(d, parse_xpath("↓*::r/↓::r"), 320, 2)) == "r(r)"


def test_a_descendant_search_for_the_root_label_tests_the_roots_alone():
    # a passing `r` node below a root roots a smaller tree, which comes
    # earlier in the stream, so no count's root children are indexed
    d = parse_dtd("root r\nr := s*a?\ns := s?a?\na := eps\n")
    assert oracle_satisfiable(d, parse_xpath("↓*::r/↓::q"), 5, 3) is None
    assert not oracle._space(d, 5, 3).roots


# --------------------------------------------------------------- enumeration


def test_enumerate_trees_tiny_golden():
    d = parse_dtd("root r\nr := ab?\na := eps\nb := eps\n")
    got = [render_tree(t) for t in enumerate_trees(d, 2, 2)]
    assert got == ["r(a)", "r(a,b)"]


def test_enumerate_trees_single_tree():
    d = parse_dtd("root r\nr := eps\n")
    assert [render_tree(t) for t in enumerate_trees(d, 2, 2)] == ["r"]


def test_enumerate_trees_depth_too_small_is_empty():
    # the worked root model has no empty word, so height 1 cannot conform
    assert enumerate_trees(worked(), 1, 2) == []


def _height(t):
    return 1 + max((_height(c) for c in t.children), default=0)


def test_enumerate_trees_all_conform_and_ordered():
    d = worked()
    trees = enumerate_trees(d, 3, 2)
    assert trees
    keys = []
    for t in trees:
        assert conforms(t, d)
        assert _height(t) <= 3
        keys.append((node_count(t), preorder_labels(t)))
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_enumerate_trees_on_random_dtds():
    rng = random.Random(4242)
    seen = 0
    while seen < 8:
        d = random_mdf_dc_dtd(rng)
        if tree_count(d, 2) > 800:
            continue
        trees = enumerate_trees(d, len(d.labels), 2)
        for t in trees:
            assert conforms(t, d)
        assert len({render_tree(t) for t in trees}) == len(trees)
        seen += 1


def _enumerate_trees_by_sorting(d, depth, rep):
    """Every tree built first, then stably sorted by size and preorder
    labels: the reference the stream of iter_trees must reproduce."""
    heights = min_heights(d)

    @lru_cache(maxsize=None)
    def trees_for(label: str, budget: int) -> tuple[DocTree, ...]:
        if heights[label] < 0 or heights[label] > budget:
            return ()
        out: list[DocTree] = []
        for word in sorted(words_capped(d.model(label), rep)):
            if any(heights[lbl] < 0 or heights[lbl] > budget - 1 for lbl in word):
                continue
            child_choices = [trees_for(lbl, budget - 1) for lbl in word]
            for combo in product(*child_choices):
                out.append(DocTree(label, combo))
        return tuple(out)

    trees = list(trees_for(d.root, depth))
    trees.sort(key=lambda t: (node_count(t), preorder_labels(t)))
    return trees


def _assert_stream_matches_reference(d, depth, rep):
    want = _enumerate_trees_by_sorting(d, depth, rep)
    assert list(iter_trees(d, depth, rep)) == want, (depth, rep)
    assert enumerate_trees(d, depth, rep) == want


def test_iter_trees_matches_reference_on_random_dtds():
    rng = random.Random(2008)
    seen = 0
    while seen < 100:
        d = random_mdf_dc_dtd(rng)
        if tree_count(d, 2) > 3000:
            continue
        for depth in range(1, 5):
            for rep in (1, 2):
                _assert_stream_matches_reference(d, depth, rep)
        seen += 1


def test_iter_trees_matches_reference_on_worked_dtd():
    for depth in range(1, 4):
        for rep in (1, 2):
            _assert_stream_matches_reference(worked(), depth, rep)


def test_iter_trees_keeps_the_order_of_tied_keys():
    # r(s(a)) and r(s,a) share size and preorder labels: only the rank
    # among the unsorted trees tells them apart
    d = parse_dtd("root r\nr := s*a?\ns := s?a?\na := eps\n")
    for depth in range(2, 5):
        for rep in (1, 2):
            _assert_stream_matches_reference(d, depth, rep)
    keys = [(node_count(t), preorder_labels(t)) for t in iter_trees(d, 4, 2)]
    assert len(keys) - len(set(keys)) == 142
    # r(s(b,c),d(d)) and r(s(b(c,d)),d) tie, and the second comes first:
    # s's word (b) sorts before (b,c) although its first child is larger
    d = parse_dtd("root r\nr := s d\ns := b c?\nb := (c d)?\nc := eps\nd := d?\n")
    for depth in range(3, 6):
        _assert_stream_matches_reference(d, depth, 2)
    trees = [render_tree(t) for t in iter_trees(d, 4, 2)]
    assert trees.index("r(s(b(c,d)),d)") < trees.index("r(s(b,c),d(d))")


def test_oracle_stops_at_the_first_witness(monkeypatch):
    # README quick start at the CLI defaults: the whole bounded space is far
    # too large to build, the witness has five nodes
    built = 0

    class CountedTree(DocTree):
        __slots__ = ()

        def __new__(cls, *args, **kwargs):
            nonlocal built
            built += 1
            return super().__new__(cls)

    monkeypatch.setattr(oracle, "DocTree", CountedTree)
    w = oracle_satisfiable(worked(), parse_xpath("↓::r/→⁺::b"), depth=4, rep=2)
    assert render_tree(w) == "r(r(c),b(a))"
    assert built < 100


def test_a_repeated_search_replays_the_kept_space(monkeypatch):
    # the space is kept for the last bound only: a search at another bound
    # builds its trees, and a return to the first builds those again
    built = 0

    class CountedTree(DocTree):
        __slots__ = ()

        def __new__(cls, *args, **kwargs):
            nonlocal built
            built += 1
            return super().__new__(cls)

    monkeypatch.setattr(oracle, "DocTree", CountedTree)
    d = worked()
    q = parse_xpath("(↓::r/→⁺::b)/(↓::a/↑::b)/→⁺::c[↓::q or ↑*::r]")
    counts = []
    for bound in [(3, 2), (3, 2), (3, 1), (3, 1), (3, 2)]:
        built = 0
        assert oracle_satisfiable(d, q, *bound) is None
        counts.append(built)
    assert counts[0] >= 36 and counts[2] > 0 and counts[4] == counts[0]
    assert counts[1] == counts[3] == 0


def test_words_capped_golden():
    e = parse_content_model("(a|b)*", {"a", "b"})
    assert words_capped(e, 2) == {
        (), ("a",), ("a", "a"), ("a", "b"), ("b",), ("b", "a"), ("b", "b")
    }
    assert words_capped(parse_content_model("a+", {"a"}), 1) == {("a",)}


def test_words_capped_cap_is_per_scope():
    e = parse_content_model("a*a*", {"a"})
    assert words_capped(e, 1) == {(), ("a",), ("a", "a")}


def test_min_heights():
    assert min_heights(worked()) == {"r": 2, "a": 1, "b": 2, "c": 1}
    assert min_heights(parse_dtd("root a\na := a\n")) == {"a": -1}
    d = parse_dtd("root r\nr := a#b\na := eps\nb := eps\n")
    assert min_heights(d) == {"r": 2, "a": 1, "b": 1}


# -------------------------------------------------------------------- search


def test_oracle_satisfiable_witness():
    d = worked()
    w = oracle_satisfiable(d, parse_xpath("↓::r/→⁺::b[↓::a]"), depth=3, rep=2)
    assert w is not None
    assert render_tree(w) == "r(r(c),b(a))"
    assert conforms(w, d)
    assert satisfies(w, parse_xpath("↓::r/→⁺::b[↓::a]"))


def test_oracle_satisfiable_unsat_within_bounds():
    d = worked()
    q = parse_xpath("(↓::r/→⁺::b)/(↓::a/↑::b)/→⁺::c")
    assert oracle_satisfiable(d, q, depth=3, rep=2) is None


def test_oracle_satisfiable_no_trees_at_all():
    d = parse_dtd("root r\nr := eps\n")
    assert oracle_satisfiable(d, parse_xpath("↓::a"), depth=2, rep=1) is None


def test_oracle_handles_full_fragment():
    d = worked()
    w = oracle_satisfiable(d, parse_xpath("↓*::a ∪ ↓::q"), depth=3, rep=1)
    assert w is not None and satisfies(w, parse_xpath("↓*::a ∪ ↓::q"))
    assert render_tree(w) == "r(b(a))"


# ------------------------------------------------------------------ mappings


def test_mappings_unique_for_worked_tree():
    ms = compute_sg_mappings(parse_tree(WORKED_TREE), worked())
    assert len(ms) == 1
    assert {p: n.name for p, n in ms[0].items()} == {
        (): "u0",
        (0,): "u1",
        (0, 0): "u4",
        (1,): "u2",
        (2,): "u2",
        (3,): "u3",
        (3, 0): "u6",
    }


def test_mappings_single_node():
    d = parse_dtd("root r\nr := eps\n")
    ms = compute_sg_mappings(parse_tree("r"), d)
    assert len(ms) == 1
    assert {p: n.name for p, n in ms[0].items()} == {(): "u0"}


def test_mappings_ambiguous_star_places():
    # two r children can sit in the leading or trailing star place
    ms = compute_sg_mappings(parse_tree("r(r,r)"), worked())
    pairs = [(th[(0,)].pos, th[(1,)].pos) for th in ms]
    assert pairs == [(5, 5), (1, 5), (1, 1)]


def test_mappings_none_for_bad_tree():
    assert compute_sg_mappings(parse_tree("r(b,b)"), worked()) == []


def test_mappings_respect_positions():
    # positions along each mapped sibling group never decrease
    ms = compute_sg_mappings(parse_tree(WORKED_TREE), worked())
    th = ms[0]
    poss = [th[(i,)].pos for i in range(4)]
    assert poss == sorted(poss)


# -------------------------------------------------------------- demand checks


def test_beta_satisfied_worked_examples():
    d = worked()
    t = parse_tree(WORKED_TREE)
    good = sibmap_of(
        [
            (("r",), {"a", "b"}, (True,)),
            (("r", "r"), {"c"}, (True, False)),
            (("r", "b"), {"a"}, (True, True)),
        ]
    )
    assert beta_satisfied(t, good, d)
    assert not beta_satisfied(t, sibmap_of([(("r",), {"a", "b", "c"}, (True,))]), d)
    assert beta_satisfied(t, SibMap.empty(), d)


def test_beta_satisfied_missing_path():
    # a demanded key with no matching node fails even with empty values
    d = worked()
    t = parse_tree(WORKED_TREE)
    assert not beta_satisfied(t, sibmap_of([(("r", "c"), set(), (True, True))]), d)


def test_beta_satisfied_relative_keys_are_skipped():
    d = worked()
    t = parse_tree(WORKED_TREE)
    assert beta_satisfied(t, sibmap_of([((), {"q"}, ())]), d)


def test_find_beta_witness():
    d = worked()
    ok = sibmap_of([(("r",), {"b"}, (True,)), (("r", "b"), {"a"}, (True, True))])
    w = find_beta_witness(d, ok, depth=3, rep=2)
    assert w is not None
    t, theta = w
    assert render_tree(t) == "r(b(a))"
    assert theta[()].name == "u0"
    assert beta_satisfied(t, ok, d)
    bad = sibmap_of([(("r",), {"b", "c"}, (True,))])
    assert find_beta_witness(d, bad, depth=3, rep=2) is None


def test_splits_of_a_wide_word_need_no_recursion():
    # a shape is (trees, least nodes, most nodes, words); 2,000 one-node
    # children split one way, at the default recursion limit
    assert list(_splits([(1, 1, 1, [])] * 2_000, 2_000)) == [(1,) * 2_000]
    # counts come in lexicographic order, each child within its bounds
    kids = [(1, 1, 2, []), (1, 0, 2, []), (1, 1, 1, [])]
    assert list(_splits(kids, 3)) == [(1, 1, 1), (2, 0, 1)]
    assert list(_splits(kids, 7)) == [] and list(_splits([], 0)) == [()]
