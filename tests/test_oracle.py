"""Bounded tree enumeration and the full-axes reference evaluator."""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import product

import pytest

from xpathsat import ParseError, oracle, parse_content_model, parse_dtd, parse_xpath
from xpathsat.constraints import SibMap
from xpathsat.oracle import (
    DocTree,
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
from xpathsat.xpath import Axis, Step, render_xpath

from gens import random_full_query, random_mdf_dc_dtd, tree_count
from support import (
    beta_satisfied,
    compute_sg_mappings,
    enumerate_trees,
    find_beta_witness,
    node_at,
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
    assert t.node_count() == 7
    assert t.preorder_labels() == ("r", "r", "c", "a", "a", "b", "a")


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
    rng = random.Random(2718)
    answers = []
    for d, depth, rep in _differential_dtds():
        for _ in range(25):
            q = random_full_query(rng, d.labels)
            got = oracle_satisfiable(d, q, depth, rep)
            want = reference_search(d, q, depth, rep)
            assert got == want, render_xpath(q, arrows=True)
            answers.append(None if got is None else render_tree(got))
    found = [a for a in answers if a is not None]
    assert len(found) > 25 and len(answers) - len(found) > 25
    assert len(set(found)) > 10


def test_oracle_search_compiles_once_and_has_no_node_at(monkeypatch):
    # an UNSAT query runs on all 36 trees of the bounded space, and the
    # search compiles it as often as one direct compilation does
    q = parse_xpath("(↓::r/→⁺::b)/(↓::a/↑::b)/→⁺::c[↓::q or ↑*::r]")
    compiled = []
    real = oracle._compile
    monkeypatch.setattr(oracle, "_compile", lambda p: compiled.append(p) or real(p))
    oracle._compile(q)
    once = len(compiled)
    compiled.clear()
    checked = 0
    real_iter = oracle.iter_trees

    def counted_trees(*args):
        nonlocal checked
        for t in real_iter(*args):
            checked += 1
            yield t

    monkeypatch.setattr(oracle, "iter_trees", counted_trees)
    assert oracle_satisfiable(worked(), q, depth=3, rep=2) is None
    assert checked == 36
    assert compiled[0] is q and len(compiled) == once
    assert not hasattr(oracle, "node_at")


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
        keys.append((t.node_count(), t.preorder_labels()))
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
    trees.sort(key=lambda t: (t.node_count(), t.preorder_labels()))
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
    keys = [(t.node_count(), t.preorder_labels()) for t in iter_trees(d, 4, 2)]
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
