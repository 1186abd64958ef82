"""Satisfiability decision procedures over the schema graph."""

from __future__ import annotations

import pickle
import random
import sys
import tracemalloc
from itertools import islice

import pytest

from xpathsat import (
    Dtd,
    DtdError,
    NotMRW,
    UnsupportedFragment,
    build_schema_graph,
    delta_dtd,
    fragment_of,
    parse_dtd,
    parse_xpath,
    render_xpath,
    satisfiable,
    size,
)
from xpathsat.constraints import SibMap, consistent, render_map
from xpathsat import sat_checker
from xpathsat.oracle import iter_trees, oracle_satisfiable, parse_tree, render_tree, satisfies
from xpathsat.schema_graph import SchemaGraph
from xpathsat.sat_checker import (
    Eval2Tuple, Level, _accepting, compile_dtd, eval1, eval2, render_tuple_set,
)
from xpathsat.xpath import Axis, QAnd, Qual, Seq, Step, Union, normalize

from gens import (
    dense_dtd,
    random_doc_walk,
    random_eval1_query,
    random_eval2_query,
    random_mdf_dc_dtd,
    random_recursive_mdf_dc_dtd,
    tree_count,
)
from support import (
    eager_eval2_verdict, entry_at, label_path_eval1, probing_child_arm, probing_sibling_arm,
)

WORKED = "root r\nr := r*(a*b|c)r*\na := eps\nb := a\nc := eps\n"

SAT_QUERY = "(↓::r/→⁺::b)/(↓::a/↑::b)"
UNSAT_QUERY = "(↓::r/→⁺::b)/(↓::a/↑::b)/→⁺::c"

SAT_TRACE = (
    "start: ({u0}, β⊥)",
    "↓::r → ({u0}{u1,u5}, {r↦∅})",
    "→⁺::b → ({u0}{u3}, {r↦{b}})",
    "↓::a → ({u0}{u3}{u6}, {r↦{b}, rb↦{a}})",
    "↑::b → ({u0}{u3}, {r↦{b}, rb↦{a}})",
    "verdict: SAT",
)

UNSAT_TRACE = SAT_TRACE[:-1] + (
    "→⁺::c → ({u0}{u4}, {r↦{b,c}, rb↦{a}}) inconsistent",
    "verdict: UNSAT",
)


def worked_graph():
    return build_schema_graph(delta_dtd(parse_dtd(WORKED)))


# ------------------------------------------------------------------- eval1


def test_eval1_sat_trace():
    r = eval1(worked_graph(), parse_xpath(SAT_QUERY))
    assert r.sat
    assert r.trace == SAT_TRACE
    assert r.final_state == "({u0}{u3}, {r↦{b}, rb↦{a}})"
    assert r.reason is None


def test_eval1_sat_result_fields():
    r = eval1(worked_graph(), parse_xpath(SAT_QUERY))
    assert [lv.label for lv in r.levels] == ["r", "b"]
    assert [sorted(n.name for n in lv.nodes) for lv in r.levels] == [["u0"], ["u3"]]
    assert render_map(r.beta) == "{r↦{b}, rb↦{a}}"


def test_eval1_unsat_trace():
    r = eval1(worked_graph(), parse_xpath(UNSAT_QUERY))
    assert not r.sat
    assert r.trace == UNSAT_TRACE
    assert r.reason == "requirements {r↦{b,c}, rb↦{a}} are not coverable"


def test_eval1_untraced_matches_traced():
    g = worked_graph()
    a = eval1(g, parse_xpath(SAT_QUERY), trace=True)
    b = eval1(g, parse_xpath(SAT_QUERY), trace=False)
    assert (a.sat, a.levels, a.beta, a.reason) == (b.sat, b.levels, b.beta, b.reason)
    assert b.trace == ()
    assert b.final_state is None


def test_eval1_untraced_unsat_skips_rendering():
    # without tracing the reason names the key instead of the whole map
    r = eval1(worked_graph(), parse_xpath(UNSAT_QUERY), trace=False)
    assert not r.sat
    assert r.levels is None and r.beta is None
    assert r.reason == "requirements at r are not coverable"
    assert r.trace == ()


def test_eval1_deterministic():
    g = worked_graph()
    p = parse_xpath(SAT_QUERY)
    assert eval1(g, p) == eval1(g, p)


def test_eval1_no_parent_above_root():
    r = eval1(worked_graph(), parse_xpath("↑::r"))
    assert not r.sat
    assert r.reason == "no parent above the root"


def test_eval1_root_has_no_siblings():
    r = eval1(worked_graph(), parse_xpath("→⁺::r"))
    assert not r.sat
    assert r.reason == "the root has no siblings"
    assert r.trace[1] == "→⁺::r → ∅ (no admissible place)"


def test_eval1_child_label_missing():
    r = eval1(worked_graph(), parse_xpath("↓::q"))
    assert not r.sat
    assert r.reason == "no place labeled 'q' below 'r'"


def test_eval1_wrong_parent_label():
    r = eval1(worked_graph(), parse_xpath("↓::r/↓::b/↑::c"))
    assert not r.sat
    assert r.reason == "parent is labeled 'r', not 'c'"


# every UNSAT exit of eval1: (query, traced reason, untraced reason, last
# state line of the trace)
EVAL1_EXITS = [
    ("↓::q", "no place labeled 'q' below 'r'", None,
     "↓::q → ∅ (no admissible place)"),
    ("↓::r/↓::b/↑::c", "parent is labeled 'r', not 'c'", None,
     "↑::c → ∅ (no admissible place)"),
    ("↓::r/↓::c/←⁺::c", "no admissible sibling labeled 'c'", None,
     "←⁺::c → ∅ (no admissible place)"),
    ("↓::r/↓::b/↑::r/↓::c", "requirements {r↦∅, rr↦{b,c}} are not coverable",
     "requirements at rr are not coverable",
     "↓::c → ({u0}{u1,u5}{u4}, {r↦∅, rr↦{b,c}}) inconsistent"),
    ("↓::r/↓::b/→⁺::c", "requirements {r↦∅, rr↦{b,c}} are not coverable",
     "requirements at rr are not coverable",
     "→⁺::c → ({u0}{u1,u5}{u4}, {r↦∅, rr↦{b,c}}) inconsistent"),
]


@pytest.mark.parametrize("q,reason,untraced_reason,last", EVAL1_EXITS)
def test_eval1_unsat_exits(q, reason, untraced_reason, last):
    g = worked_graph()
    traced = eval1(g, parse_xpath(q))
    untraced = eval1(g, parse_xpath(q), trace=False)
    assert not traced.sat and not untraced.sat
    assert traced.reason == reason
    assert untraced.reason == (untraced_reason or reason)
    assert traced.trace[-2:] == (last, "verdict: UNSAT")
    assert traced.final_state == last
    assert untraced.final_state is None


# sibling admissibility is position arithmetic over the factor list
def test_eval1_sibling_positions():
    d = parse_dtd("root r\nr := abc\na := eps\nb := eps\nc := eps\n")
    g = build_schema_graph(d)
    assert eval1(g, parse_xpath("↓::a/→⁺::c")).sat
    assert eval1(g, parse_xpath("↓::a/→⁺::b/→⁺::c")).sat
    assert not eval1(g, parse_xpath("↓::c/→⁺::a")).sat
    assert eval1(g, parse_xpath("↓::c/←⁺::a")).sat
    assert not eval1(g, parse_xpath("↓::a/←⁺::c")).sat


def test_eval1_star_place_allows_same_position_sibling():
    d = parse_dtd("root r\nr := a*\na := eps\n")
    g = build_schema_graph(d)
    assert eval1(g, parse_xpath("↓::a/→⁺::a")).sat
    d2 = parse_dtd("root r\nr := ab\na := eps\nb := eps\n")
    g2 = build_schema_graph(d2)
    assert not eval1(g2, parse_xpath("↓::a/→⁺::a")).sat


# the inclusive prefix rule: standing on a non-DFS node keeps its demands
def test_eval1_remembers_current_branch_demands():
    d = parse_dtd("root r\nr := a*\na := b|c\nb := eps\nc := eps\n")
    r = satisfiable(d, "↓::a/↓::b/↑::a/↓::c")
    assert not r.sat
    assert r.reason == "requirements {r↦{a}, ra↦{b,c}} are not coverable"
    assert satisfiable(d, "↓::a/↓::b/↑::a").sat
    assert satisfiable(d, "↓::a/↓::b/↑::a/↓::b").sat


# ------------------------------------------------------- eval1 invariants


def _prefixes(p):
    """Step sequences of every length, as paths."""
    steps = p.steps if isinstance(p, Seq) else (p,)
    return [Seq(steps[:i]) if i > 1 else steps[0] for i in range(1, len(steps) + 1)]


def test_eval1_invariants_on_random_runs():
    rng = random.Random(777)
    runs = 0
    for _ in range(40):
        d = random_mdf_dc_dtd(rng)
        g = build_schema_graph(d)
        for _ in range(6):
            p = random_eval1_query(rng, d)
            results = []
            for pref in _prefixes(p):
                r = eval1(g, pref, trace=False)
                if not r.sat:
                    break
                results.append(r)
                # each level holds places of one label only
                for lv in r.levels:
                    assert {n.label for n in lv.nodes} == {lv.label}
                # recorded demands never mention abandoned non-DFS branches
                cur = tuple(lv.label for lv in r.levels)
                assert r.beta.restrict(cur) == r.beta
            # DFS-keyed demands only ever grow along the run
            for a, b in zip(results, results[1:]):
                for e in a.beta.entries:
                    if e.key and all(e.dfs):
                        after = entry_at(b.beta, e.key)
                        assert after is not None and e.values <= after.values
            runs += 1
    assert runs == 240


def test_eval1_builds_one_level_per_place_group(monkeypatch):
    # a 10,000-step child chain lands on one group of places after the root
    built = 0

    class CountedLevel(Level):
        __slots__ = ()

        def __new__(cls, *args, **kwargs):
            nonlocal built
            built += 1
            return super().__new__(cls)

    monkeypatch.setattr(sat_checker, "Level", CountedLevel)
    r = eval1(worked_graph(), parse_xpath("/".join(["↓::r"] * 10_000)), trace=False)
    assert r.sat
    assert built <= 3


@pytest.mark.parametrize("unit", ["↓::r/↓::c/↑::r", "↓::r/(↓::r/→⁺::r)"])
def test_eval1_cost_per_step_does_not_grow_with_the_query(monkeypatch, unit):
    # Counts, not times.  eval1 asks the graph for places only on a move it
    # has not seen, a move being (level, axis, label), and a level stands
    # for one group of target places.  On the worked graph the places
    # labeled r below r are u1 and u5, and c below r is u4 alone, so:
    # - `↓::r/↓::c/↑::r` moves from the root's level by ↓::r to {u1,u5},
    #   from {u1,u5} by ↓::c to {u4}, and (from the second unit on) from
    #   {u1,u5} by ↓::r again; ↑ asks nothing: 3 moves;
    # - `↓::r/(↓::r/→⁺::r)` moves from the root's level by ↓::r to {u1,u5},
    #   from {u1,u5} by ↓::r to {u1,u5}, and from {u1,u5} by →⁺::r to the
    #   r places after or at a starred u1 or u5, {u1,u5} again: 3 moves.
    # A coverability check follows only a demand that starts or grows, at
    # most one per step.  The first query parses as a chain and the second
    # through the parser, so both routes to a Seq are pinned.
    graph = worked_graph()
    seen = []
    for k in (100, 1_000):
        p = parse_xpath("/".join([unit] * k))
        counts: dict[str, int] = {}
        with monkeypatch.context() as m:
            _count_calls(m, SchemaGraph, "children_with_label", counts)
            _count_calls(m, sat_checker, "coverable", counts)
            assert eval1(graph, p, trace=False).sat
        assert counts.get("coverable", 0) <= len(p.steps) == 3 * k
        seen.append(counts["children_with_label"])
    assert seen == [3, 3]


# ------------------------------------------------------------------- eval2


EVAL2_RENDERS = {
    "↓::r": "{((u0,β⊥),(u1,{r↦∅}),r), ((u0,β⊥),(u5,{r↦∅}),r), "
    "((u1,β⊥),(u1,{r↦∅}),r), ((u1,β⊥),(u5,{r↦∅}),r), "
    "((u5,β⊥),(u1,{r↦∅}),r), ((u5,β⊥),(u5,{r↦∅}),r)}",
    "→⁺::b": "{((u1,{ε↦∅}),(u3,{ε↦{b}}),ε), ((u2,{ε↦{a}}),(u3,{ε↦{a,b}}),ε)}",
    "↓::a": "{((u0,β⊥),(u2,{r↦{a}}),r), ((u1,β⊥),(u2,{r↦{a}}),r), "
    "((u3,β⊥),(u6,{b↦{a}}),b), ((u5,β⊥),(u2,{r↦{a}}),r)}",
    "→⁺::b[↓::a]": "{((u1,{ε↦∅}),(u3,{ε↦{b}, b↦{a}}),ε), "
    "((u2,{ε↦{a}}),(u3,{ε↦{a,b}, b↦{a}}),ε)}",
    "↓::r/→⁺::b[↓::a]": "{((u0,β⊥),(u3,{r↦{b}, rb↦{a}}),r), "
    "((u1,β⊥),(u3,{r↦{b}, rb↦{a}}),r), ((u5,β⊥),(u3,{r↦{b}, rb↦{a}}),r)}",
    "→⁺::c": "{((u1,{ε↦∅}),(u4,{ε↦{c}}),ε), ((u2,{ε↦{a}}),(u4,{ε↦{a,c}}),ε), "
    "((u3,{ε↦{b}}),(u4,{ε↦{b,c}}),ε)}",
}


@pytest.mark.parametrize("q", sorted(EVAL2_RENDERS))
def test_eval2_tuple_sets(q):
    ts = eval2(worked_graph(), parse_xpath(q))
    assert render_tuple_set(ts) == EVAL2_RENDERS[q]


def test_eval2_cardinalities():
    g = worked_graph()
    sizes = [len(eval2(g, parse_xpath(q))) for q in
             ("↓::r", "→⁺::b", "↓::a", "→⁺::b[↓::a]", "↓::r/→⁺::b[↓::a]", "→⁺::c")]
    assert sizes == [6, 2, 4, 2, 3, 3]


def test_eval2_inconsistent_composition_is_empty():
    ts = eval2(worked_graph(), parse_xpath("↓::r/→⁺::b[↓::a]/→⁺::c"))
    assert ts == ()
    assert render_tuple_set(ts) == "∅"


def test_eval2_trace_lines():
    tr = []
    eval2(worked_graph(), parse_xpath("↓::r/→⁺::b[↓::a]"), trace=tr)
    assert tr == [
        f"eval2(↓::r) = {EVAL2_RENDERS['↓::r']}",
        f"eval2(→⁺::b) = {EVAL2_RENDERS['→⁺::b']}",
        f"eval2(↓::a) = {EVAL2_RENDERS['↓::a']}",
        f"eval2(→⁺::b[↓::a]) = {EVAL2_RENDERS['→⁺::b[↓::a]']}",
        f"eval2(↓::r/→⁺::b[↓::a]) = {EVAL2_RENDERS['↓::r/→⁺::b[↓::a]']}",
    ]


def test_eval2_trace_lists_every_proper_prefix():
    # the lines of a walk down the left spine of ((↓::r/→⁺::b[↓::a])/→⁺::c)
    tr = []
    eval2(worked_graph(), parse_xpath("↓::r/→⁺::b[↓::a]/→⁺::c"), trace=tr)
    assert tr == [
        f"eval2(↓::r) = {EVAL2_RENDERS['↓::r']}",
        f"eval2(→⁺::b) = {EVAL2_RENDERS['→⁺::b']}",
        f"eval2(↓::a) = {EVAL2_RENDERS['↓::a']}",
        f"eval2(→⁺::b[↓::a]) = {EVAL2_RENDERS['→⁺::b[↓::a]']}",
        f"eval2(↓::r/→⁺::b[↓::a]) = {EVAL2_RENDERS['↓::r/→⁺::b[↓::a]']}",
        f"eval2(→⁺::c) = {EVAL2_RENDERS['→⁺::c']}",
        "eval2(↓::r/→⁺::b[↓::a]/→⁺::c) = ∅",
    ]


def test_render_tuple_set_renders_each_map_once(monkeypatch):
    counts: dict[str, int] = {}
    _count_calls(monkeypatch, sat_checker, "render_map", counts)
    g = worked_graph()
    for q in sorted(EVAL2_RENDERS):
        ts = eval2(g, parse_xpath(q))
        counts.clear()
        assert render_tuple_set(ts) == EVAL2_RENDERS[q]
        assert counts == {"render_map": 2 * len(ts)}, q


def test_long_queries_need_no_recursion():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the interpreter's default
    try:
        text = "/".join(["↓::r"] * 10_000)
        p = parse_xpath(text)
        assert len(p.steps) == 10_000
        assert normalize(p) == p
        assert size(p) == 10_000
        assert fragment_of(p) == "eval1"
        assert render_xpath(p, arrows=True) == text
        assert eval1(worked_graph(), Seq(p.steps[:2000]), trace=False).sat
        up = parse_xpath("/".join(["↑::r"] * 5_000))
        assert not satisfies(parse_tree("r(r)"), up)
    finally:
        sys.setrecursionlimit(limit)


def test_stacked_qualifiers_need_no_recursion():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the interpreter's default
    try:
        text = "↓::r" + "[↓::c and ↓::r]" * 1_000
        p = normalize(parse_xpath(text))
        assert p.base == Step(Axis.CHILD, "r") and len(p.quals) == 2_000
        heads = [render_xpath(q.path, arrows=True) for q in p.quals[:3]]
        assert heads == ["↓::c", "↓::r", "↓::c"]
        assert fragment_of(p) == "eval2"
        assert render_xpath(p, arrows=True) == "↓::r" + "[↓::c][↓::r]" * 1_000
        assert satisfiable(parse_dtd(WORKED), p).sat
        assert not satisfiable(parse_dtd(WORKED), text + "[↓::b]").sat
        assert size(parse_xpath("↓::r" + "[↓::c]" * 1_500)) == 1_501
        # a union and a connective chain of 1,500 operands are one node each
        union = " ∪ ".join(["↓::c"] * 1_500)
        chain = "↓::r[" + " and ".join(["↓::c"] * 1_500) + "]"
        for text, kind, frag, rendered, steps in [
            (union, Union, "full", "|u|".join(["↓::c"] * 1_500), 1_500),
            (chain, QAnd, "eval2", "↓::r" + "[↓::c]" * 1_500, 1_501),
        ]:
            p = parse_xpath(text)
            node = p if kind is Union else p.quals[0]
            assert isinstance(node, kind) and len(node.items) == 1_500
            assert render_xpath(p, arrows=True) == text.replace(" ∪ ", "|u|")
            assert parse_xpath(render_xpath(p)) == p
            n = normalize(p)
            assert render_xpath(n, arrows=True) == rendered
            assert fragment_of(p) == fragment_of(n) == frag
            assert size(p) == size(n) == steps
    finally:
        sys.setrecursionlimit(limit)


def _entailed_by(small: SibMap, big: SibMap) -> bool:
    return all(
        (found := entry_at(big, e.key)) is not None and e.values <= found.values
        for e in small.entries
    )


@pytest.mark.parametrize("p1,p2", [("↓::r", "→⁺::b[↓::a]"), ("↓::a", "→⁺::b[↓::a]")])
def test_eval2_composition_structure(p1, p2):
    g = worked_graph()
    T1 = eval2(g, parse_xpath(p1))
    T2 = eval2(g, parse_xpath(p2))
    T = eval2(g, parse_xpath(f"{p1}/{p2}"))
    assert T
    for t in T:
        matched = False
        for t1 in T1:
            for t2 in T2:
                if t1.start != t.start or t2.start != t1.end or t2.end != t.end:
                    continue
                if t.rel != t1.rel + t2.rel:
                    continue
                want_post = t1.post.join(t2.post.shift(t1.rel, t1.rel_dfs))
                if t.post != want_post:
                    continue
                # the junction demands of the tail leg were already recorded
                assert _entailed_by(t2.pre.shift(t1.rel, t1.rel_dfs), t1.post)
                matched = True
        assert matched


def test_eval2_relative_results_are_start_dependent():
    # a run may demand labels at its unknown start context
    ts = eval2(worked_graph(), parse_xpath("→⁺::b/→⁺::c"))
    got = {(t.start.name, render_map(t.post)) for t in ts}
    assert got == {("u1", "{ε↦{b,c}}"), ("u2", "{ε↦{a,b,c}}")}


# ----------------------------------------------------------------- routing


def test_satisfiable_routes_eval1():
    d = parse_dtd(WORKED)
    v = satisfiable(d, SAT_QUERY)
    assert v.sat and v.algorithm == "eval1"
    assert v.final_state == "({u0}{u3}, {r↦{b}, rb↦{a}})"
    v2 = satisfiable(d, UNSAT_QUERY)
    assert not v2.sat and v2.algorithm == "eval1"
    assert v2.reason == "requirements {r↦{b,c}, rb↦{a}} are not coverable"


def test_satisfiable_routes_eval2():
    d = parse_dtd(WORKED)
    v = satisfiable(d, "↓::r/→⁺::b[↓::a]")
    assert v.sat and v.algorithm == "eval2"
    v2 = satisfiable(d, "→⁺::b[↓::a]")
    assert not v2.sat
    assert v2.reason == "no run starts at the virtual root place"
    v3 = satisfiable(d, "↓::q[↓::a]")
    assert not v3.sat
    assert v3.reason == "no realizable run"


def test_satisfiable_accepts_ast():
    d = parse_dtd(WORKED)
    assert satisfiable(d, parse_xpath(SAT_QUERY)).sat


def test_satisfiable_normalizes_conjunctions():
    d = parse_dtd(WORKED)
    v = satisfiable(d, "↓::r[↓::b and ↓::r]")
    assert v.algorithm == "eval2"
    assert v.sat


def test_satisfiable_rejects_non_mrw():
    d = parse_dtd("root r\nr := a|aa\na := eps\n")
    with pytest.raises(NotMRW, match="'r'"):
        satisfiable(d, "↓::a")


@pytest.mark.parametrize("q", ["↓*::a", "↑*::a", "↓::a ∪ ↓::b", "↓::a[↓::b or ↓::c]"])
def test_satisfiable_rejects_full_fragment(q):
    d = parse_dtd(WORKED)
    with pytest.raises(UnsupportedFragment, match="bounded oracle"):
        satisfiable(d, q)


@pytest.mark.parametrize("decide,q,message", [
    (eval1, "↓::r[↓::b]", "not a plain step sequence: child::r[child::b]"),
    (eval1, "↓*::r", "axis desc-or-self is outside eval1"),
    (eval2, "↑::r", "axis parent is outside eval2"),
    (eval2, "↓::r[↓::b or ↓::c]", "qualifier disjunction is outside eval2"),
    (eval2, "↓::r ∪ ↓::b", "union is outside eval2"),
])
def test_deciders_refuse_queries_outside_their_fragment(decide, q, message):
    with pytest.raises(UnsupportedFragment) as info:
        decide(worked_graph(), parse_xpath(q))
    assert str(info.value) == message


def test_satisfiable_normalizes_mrw_dtd_first():
    # an MRW model that is not MDF/DC must still be decidable
    d = parse_dtd("root r\nr := (a|b)*ca+\na := eps\nb := eps\nc := eps\n")
    assert satisfiable(d, "↓::c/→⁺::a").sat
    assert not satisfiable(d, "↓::a/↓::q").sat


# ------------------------------------------------------ same-label siblings

# Keyed by label path, the two r children below the root would share one
# entry: the b demanded below the first r would still bind after the walk
# moves to a preceding r sibling, and this satisfiable query read UNSAT.
# eval1 keeps one frame per node, so the two siblings are two frames.
SHARED_KEY_DTD = "root r\nr := r*(b|c)r*\nb := eps\nc := eps\n"
SHARED_KEY_QUERY = "↓::r/↓::b/↑::r/←⁺::r/↓::c"


def test_shared_key_query_has_an_oracle_witness():
    t = oracle_satisfiable(parse_dtd(SHARED_KEY_DTD), parse_xpath(SHARED_KEY_QUERY), 3, 2)
    assert t is not None and render_tree(t) == "r(b,r(c),r(b))"


def test_shared_key_query_is_sat():
    assert satisfiable(parse_dtd(SHARED_KEY_DTD), SHARED_KEY_QUERY).sat


def _walk_dtds(rng) -> list[Dtd]:
    return [parse_dtd(WORKED), parse_dtd(SHARED_KEY_DTD)] + [
        random_recursive_mdf_dc_dtd(rng) for _ in range(20)
    ] + [random_mdf_dc_dtd(rng) for _ in range(20)]


def test_document_walks_read_sat():
    # a query that walks a conforming document is satisfiable by
    # construction; walks may move between siblings of one label, which the
    # label-path walk merged into one node
    rng = random.Random(2515)
    walks = flips = 0
    for d in _walk_dtds(rng):
        g = compile_dtd(d)
        trees = [t for t in islice(iter_trees(d, 4, 2), 300) if t.children]
        for _ in range(60):
            t = rng.choice(trees)
            p = random_doc_walk(rng, t)
            assert satisfiable(d, p).sat, (d.rules, render_xpath(p, arrows=True), render_tree(t))
            if not label_path_eval1(g, p, trace=False).sat:
                flips += 1
                assert oracle_satisfiable(d, p, 4, 2) is not None
            walks += 1
    assert walks == 2_520 and flips > 0, flips


def test_frames_lose_no_sat_verdict_of_the_label_path_walk():
    rng = random.Random(6300)
    verdicts = []
    for d in _walk_dtds(rng):
        g = compile_dtd(d)
        for _ in range(150):
            p = random_eval1_query(rng, d)
            before = label_path_eval1(g, p, trace=False).sat
            now = eval1(g, p, trace=False).sat
            assert now or not before, (d.rules, render_xpath(p, arrows=True))
            if now and not before:
                assert oracle_satisfiable(d, p, 5, 2) is not None
            verdicts.append(now)
    assert len(verdicts) == 6_300 and 1_000 < sum(verdicts) < 5_300, sum(verdicts)


# -------------------------------------------------------------- differential


def test_small_differential_against_oracle():
    rng = random.Random(90210)
    checked = 0
    dtds = []
    while len(dtds) < 10:
        d = random_mdf_dc_dtd(rng)
        if tree_count(d, 4) <= 3000:
            dtds.append(d)
    for d in dtds:
        depth, rep = len(d.labels), 4
        for _ in range(4):
            for gen in (random_eval1_query, random_eval2_query):
                p = gen(rng, d)
                got = satisfiable(d, p).sat
                witness = oracle_satisfiable(d, p, depth=depth, rep=rep)
                assert got == (witness is not None), (d.rules, p)
                checked += 1
    assert checked >= 60


def test_eval1_and_eval2_agree_on_their_shared_fragment():
    # qualifier-free child and sibling steps lie in both fragments.  eval2
    # keys requirements by label path, so it still has the same-label gap
    # that eval1's frames close (README, Known incompleteness): this pins
    # their agreement on these queries, not eval2's completeness.
    rng = random.Random(1357)
    dtds = [random_mdf_dc_dtd(rng) for _ in range(30)]
    dtds += [random_recursive_mdf_dc_dtd(rng) for _ in range(30)]
    dtds += [dense_dtd(4), parse_dtd(WORKED), parse_dtd(SHARED_KEY_DTD)]
    axes = (Axis.CHILD, Axis.CHILD, Axis.FSIB, Axis.PSIB)
    verdicts = []
    for d in dtds:
        g = compile_dtd(d)
        for _ in range(30):
            steps = tuple(
                Step(rng.choice(axes), rng.choice(d.labels)) for _ in range(rng.randint(1, 7))
            )
            p = Seq(steps) if len(steps) > 1 else steps[0]
            one = eval1(g, p, trace=False).sat
            two = any(_accepting(t, g) for t in eval2(g, p, starts={g.sentinel}))
            assert one == two, (d.rules, render_xpath(p, arrows=True))
            verdicts.append(one)
    assert len(verdicts) == 1_890 and sum(verdicts) > 100, sum(verdicts)


# ------------------------------------------------------------- compile once


def _count_calls(monkeypatch, module, name, counts):
    original = getattr(module, name)

    def counted(*args):
        counts[name] = counts.get(name, 0) + 1
        return original(*args)

    monkeypatch.setattr(module, name, counted)


def test_dtd_is_compiled_once_per_instance(monkeypatch):
    counts: dict[str, int] = {}
    for name in ("validate_no_useless", "delta_dtd", "build_schema_graph"):
        _count_calls(monkeypatch, sat_checker, name, counts)
    d = parse_dtd(WORKED)
    for _ in range(5):
        assert satisfiable(d, SAT_QUERY).sat
        assert not satisfiable(d, UNSAT_QUERY).sat
        assert satisfiable(d, "↓::r/→⁺::b[↓::a]").sat
    assert counts == {"validate_no_useless": 1, "delta_dtd": 1, "build_schema_graph": 1}
    satisfiable(parse_dtd(WORKED), SAT_QUERY)  # an equal but new Dtd compiles again
    assert counts["build_schema_graph"] == 2


def test_failed_compile_raises_on_every_call(monkeypatch):
    counts: dict[str, int] = {}
    _count_calls(monkeypatch, sat_checker, "validate_no_useless", counts)
    not_mrw = parse_dtd("root r\nr := a|aa\na := eps\n")
    useless = parse_dtd("root r\nr := a\na := eps\nb := eps\n")
    for _ in range(3):
        with pytest.raises(NotMRW, match="'r'"):
            satisfiable(not_mrw, "↓::a")
        with pytest.raises(DtdError, match="unreachable labels: b"):
            satisfiable(useless, "↓::a")
    assert counts["validate_no_useless"] == 6


def test_reused_dtd_answers_like_a_fresh_one():
    rng = random.Random(1550)
    cases = []
    for _ in range(8):
        d = random_mdf_dc_dtd(rng)
        cases += [(d, random_eval1_query(rng, d)) for _ in range(4)]
        cases += [(d, random_eval2_query(rng, d)) for _ in range(4)]
    dense = dense_dtd(10)
    cases += [(dense, random_eval2_query(rng, dense, budget=3)) for _ in range(12)]
    for d, _ in cases:
        compile_dtd(d)
    sat = set()
    for d, q in cases:
        reused = satisfiable(d, q)
        fresh = satisfiable(Dtd(d.root, dict(d.rules)), q)
        assert reused == fresh, (d.rules, q)
        sat.add((reused.algorithm, reused.sat))
    assert sat == {("eval1", True), ("eval1", False), ("eval2", True), ("eval2", False)}


def _join_by_definition(graph, p):
    """eval2 of a Seq or Qual node as its definition reads: every pair of
    sub-results whose places meet, kept when the joined map is consistent.
    A Seq splits into all its parts but the last, and the last part."""
    seq = isinstance(p, Seq)
    if seq:
        left = Seq(p.steps[:-1]) if len(p.steps) > 2 else p.steps[0]
        right = p.steps[-1]
    else:
        left = Qual(p.base, p.quals[:-1]) if len(p.quals) > 1 else p.base
        right = p.quals[-1].path
    t1s = eval2(graph, left)
    t2s = eval2(graph, right)
    out = set()
    for t1 in t1s:
        for t2 in t2s:
            post = t1.post.join(t2.post.shift(t1.rel, t1.rel_dfs))
            if t2.start != t1.end or not consistent(post, graph.dtd):
                continue
            if seq:
                out.add(Eval2Tuple(t1.start, t1.pre, t2.end, post,
                                   t1.rel + t2.rel, t1.rel_dfs + t2.rel_dfs))
            else:
                out.add(Eval2Tuple(t1.start, t1.pre, t1.end,
                                   post.restrict(t1.rel + (t1.end.label,)),
                                   t1.rel, t1.rel_dfs))
    return out


def test_eval2_joins_match_their_definition_on_a_dense_dtd():
    # 111 places, so a join that matched places by anything but identity
    # would pair tuples that do not meet
    rng = random.Random(4242)
    d = dense_dtd(10)
    g = compile_dtd(d)
    kinds = set()
    for _ in range(8):
        p = normalize(random_eval2_query(rng, d, budget=3))
        assert isinstance(p, (Seq, Qual))
        assert set(eval2(g, p)) == _join_by_definition(g, p), p
        kinds.add(type(p))
    assert kinds == {Seq, Qual}


def test_child_arm_pairs_the_places_that_probing_every_place_finds():
    rng = random.Random(3131)
    dtds = [random_mdf_dc_dtd(rng) for _ in range(20)] + [dense_dtd(10)]
    total = 0
    for d in dtds:
        g = compile_dtd(d)
        for label in d.labels + ("zz",):
            got = eval2(g, Step(Axis.CHILD, label))
            assert set(got) == set(probing_child_arm(g, label)), (d.rules, label)
            total += len(got)
    assert total > 500


def test_sibling_arms_pair_the_places_that_probing_every_place_finds():
    rng = random.Random(3131)
    dtds = [random_mdf_dc_dtd(rng) for _ in range(20)] + [dense_dtd(10)]
    total = 0
    for d in dtds:
        g = compile_dtd(d)
        for axis in (Axis.FSIB, Axis.PSIB):
            for label in d.labels + ("zz",):
                got = eval2(g, Step(axis, label))
                want = probing_sibling_arm(g, axis, label)
                assert len(got) == len(want), (d.rules, axis, label)
                assert set(got) == set(want), (d.rules, axis, label)
                total += len(got)
    assert total > 500


# ------------------------------------------------------ eval2 from chosen starts


def _settling(graph, p, starts, full):
    """The (subexpression, tuple set) pairs that eval2 settles on its way to
    p from `starts`, in eval2's order, by definition: each set is the full
    one filtered to the places the run reaches there.  A sequence's later
    parts start where the prefix to their left ends, and a qualifier's path
    where its base ends.  `full` maps a subexpression to its full set."""
    sets = []

    def filtered(q, s):
        result = {t for t in full(q) if t.start in s}
        sets.append((q, result))
        return result

    def walk(q, s):
        if isinstance(q, Seq):
            left = walk(q.steps[0], s)
            for i in range(1, len(q.steps)):
                walk(q.steps[i], {t.end for t in left})
                if i < len(q.steps) - 1:
                    left = filtered(Seq(q.steps[:i + 1]), s)
        elif isinstance(q, Qual):
            left = walk(q.base, s)
            for i, qual in enumerate(q.quals):
                walk(qual.path, {t.end for t in left})
                if i < len(q.quals) - 1:
                    left = filtered(Qual(q.base, q.quals[:i + 1]), s)
        return filtered(q, s)

    walk(p, starts)
    return sets


def _restriction_cases():
    rng = random.Random(2024)
    dtds = [random_mdf_dc_dtd(rng) for _ in range(12)]
    dtds += [random_recursive_mdf_dc_dtd(rng) for _ in range(12)]
    dtds += [parse_dtd(WORKED), parse_dtd(SHARED_KEY_DTD), dense_dtd(6)]
    for d in dtds:
        for _ in range(5):
            yield d, normalize(random_eval2_query(rng, d, budget=rng.randint(2, 6))), rng


def test_eval2_from_starts_is_the_full_set_filtered_to_them(monkeypatch):
    settled = []

    def recorded(out, p, trace):
        result = real(out, p, trace)
        settled.append((p, set(result)))
        return result

    real = sat_checker._settled
    monkeypatch.setattr(sat_checker, "_settled", recorded)
    checked = nonempty = 0
    for d, p, rng in _restriction_cases():
        g = compile_dtd(d)
        memo = {}

        def full(q):
            if q not in memo:
                memo[q] = set(eval2(g, q))
            return memo[q]

        for starts in ({g.sentinel}, set(rng.sample(g.nodes, rng.randint(1, len(g.nodes))))):
            want = _settling(g, p, starts, full)
            settled.clear()
            got = eval2(g, p, starts=starts)
            # every set it built, not only the last, holds no other tuple
            assert settled == want, (d.rules, render_xpath(p), starts)
            assert set(got) == want[-1][1]
            for q in {q for q, _ in want}:
                assert set(eval2(g, q, starts=starts)) == {
                    t for t in full(q) if t.start in starts}, (d.rules, render_xpath(q))
                checked += 1
            nonempty += bool(got)
    assert checked > 1000 and nonempty > 30


def test_the_untraced_decision_builds_only_what_the_root_reaches(monkeypatch):
    # 381 places; every full set here has 380 or 381 tuples
    built = []

    def counted(out, p, trace):
        built.append(len(out))
        return real(out, p, trace)

    real = sat_checker._settled
    monkeypatch.setattr(sat_checker, "_settled", counted)
    d = dense_dtd(19)
    g = compile_dtd(d)
    q = "↓::x1/↓::x2/↓::x3[→⁺::x1]"
    v = satisfiable(d, q)
    assert v.sat and len(built) == 7
    assert max(built) <= 2 and sum(built) < len(g.nodes) // 10
    built.clear()
    eager = eager_eval2_verdict(g, normalize(parse_xpath(q)))
    assert v.trace == eager.trace and v.final_state == eager.final_state
    # the traced re-run and the eager run each list every context
    assert len(built) == 14 and min(built) >= len(g.nodes) - 1


# ------------------------------------------------------- traces on first read

_RENDERERS = ("render_state", "render_map", "render_tuple_set", "_row")


def _count_renders(monkeypatch) -> list[str]:
    calls: list[str] = []
    for name in _RENDERERS:
        def counted(*args, _real=getattr(sat_checker, name), _name=name):
            calls.append(_name)
            return _real(*args)
        monkeypatch.setattr(sat_checker, name, counted)
    return calls


@pytest.mark.parametrize("q, algorithm, sat", [
    (SAT_QUERY, "eval1", True),
    (UNSAT_QUERY, "eval1", False),
    ("↓::r/→⁺::b[↓::a]", "eval2", True),
    ("→⁺::b[↓::a]", "eval2", False),
    ("↓::q[↓::a]", "eval2", False),
])
def test_satisfiable_renders_nothing_until_the_trace_is_read(monkeypatch, q, algorithm, sat):
    calls = _count_renders(monkeypatch)
    v = satisfiable(parse_dtd(WORKED), q)
    assert (v.sat, v.algorithm) == (sat, algorithm)
    assert calls == []
    assert v.trace[-1] == f"verdict: {'SAT' if sat else 'UNSAT'}"
    assert calls


def test_deferred_fields_equal_the_eager_ones():
    rng = random.Random(1717)
    seen = set()
    for _ in range(25):
        d = random_mdf_dc_dtd(rng)
        g = compile_dtd(d)
        for q in [random_eval1_query(rng, d) for _ in range(4)] + [
            random_eval2_query(rng, d) for _ in range(4)
        ]:
            v = satisfiable(d, q)
            p = normalize(q)
            eager = eval1(g, p) if v.algorithm == "eval1" else eager_eval2_verdict(g, p)
            # an untraced eval1 SAT builds levels and beta from its frames
            assert (v.levels, v.beta) == (eager.levels, eager.beta), (d.rules, q)
            assert (v.trace, v.final_state, v.reason) == (
                eager.trace, eager.final_state, eager.reason), (d.rules, q)
            assert v == eager and repr(v) == repr(eager)
            seen.add((v.algorithm, v.sat))
    assert seen == {("eval1", True), ("eval1", False), ("eval2", True), ("eval2", False)}


def test_untraced_eval1_builds_levels_and_beta_on_first_read():
    d = parse_dtd(WORKED)
    v = satisfiable(d, SAT_QUERY)
    assert "levels" not in vars(v) and "beta" not in vars(v)
    assert render_map(v.beta) == "{r↦{b}, rb↦{a}}"
    assert [lv.label for lv in v.levels] == ["r", "b"]
    assert "_frames" not in vars(v)


def test_deferred_long_chain_verdict_pickles():
    # a pickle holds levels and beta, not the nested frames behind them
    d = parse_dtd(WORKED)
    v = satisfiable(d, "/".join(["↓::r"] * 1_500))
    w = pickle.loads(pickle.dumps(v))
    assert w.sat and len(w.levels) == 1_501 and len(w.beta.entries) == 1_500
    assert (w.levels, w.beta) == (v.levels, v.beta)


def test_long_chain_verdict_is_cheap_until_its_trace_is_read(monkeypatch):
    d = parse_dtd(WORKED)
    compile_dtd(d)
    calls = _count_renders(monkeypatch)
    tracemalloc.start()
    try:
        v = satisfiable(d, "/".join(["↓::r"] * 1000))
        assert v.sat
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert calls == []
    assert peak < 20 * 2**20
    assert len(v.trace) == 1002
