"""Acceptance checklist for the package as a whole.

Each test here covers one numbered criterion and prints a single PASS/FAIL
line, so `pytest tests/test_acceptance.py -s` reads as a checklist.  The
frozen strings deliberately repeat values the per-module suites pin: this
file alone should go red if any advertised behavior drifts.  Criteria with
a wall-clock budget fail on overrun, not just on wrong answers.
"""

from __future__ import annotations

import contextlib
import io
import pathlib
import random
import time
from itertools import combinations

from xpathsat import (
    Dtd,
    Star,
    Symbol,
    build_schema_graph,
    classify_model,
    consistent,
    coverable,
    delta,
    delta_dtd,
    equivalent,
    eval1,
    eval2,
    is_mdf_dc,
    parse_content_model,
    parse_dtd,
    parse_xpath,
    render,
    render_tuple_set,
    satisfiable,
    satisfies,
)
from xpathsat.cli import main as cli_main
from xpathsat.content_model import (
    Concat, Disj, Hash, Opt, Plus, symbol_counts,
)
from xpathsat.xpath import Axis, Seq, Step

import gens
from support import (
    beta_satisfied, enumerate_trees, enumerate_words, find_beta_witness, with_entry,
)

DATA = pathlib.Path(__file__).parent / "data"

WORKED = "root r\nr := r*(a*b|c)r*\na := eps\nb := a\nc := eps\n"
SAT_Q = "(↓::r/→⁺::b)/(↓::a/↑::b)"
UNSAT_Q = "(↓::r/→⁺::b)/(↓::a/↑::b)/→⁺::c"


def _report(num: int, budget: float | None, body) -> None:
    """Run one criterion body, print its checklist line, re-raise failures."""
    t0 = time.perf_counter()
    try:
        detail = body()
        elapsed = time.perf_counter() - t0
        if budget is not None and elapsed >= budget:
            raise AssertionError(
                f"finished but took {elapsed:.2f}s (budget {budget:g}s)")
    except BaseException as exc:
        print(f"FAIL criterion {num}: {exc or type(exc).__name__}", flush=True)
        raise
    print(f"PASS criterion {num}: {detail}  [{elapsed:.2f}s]", flush=True)


# ------------------------------------------------- 1: classification table

# model, then (df, dc, dc_qph, rw, mrw, mdf_dc)
CLASS_TABLE = [
    ("a*(b|c)a*", (False, False, False, True, True, True)),
    ("a*(b|c)b*", (False, False, False, False, False, False)),
    ("a*ba*", (False, True, True, True, True, True)),
    ("a*ba", (False, True, True, True, False, False)),
    ("a(b|c)*", (True, True, True, True, True, True)),
    ("(a|b)c*", (True, False, False, True, True, True)),
    ("(a|b)*ca+", (False, False, True, True, True, False)),
    ("(a|b)*ca?", (False, False, True, True, False, False)),
    ("a?b?b?c", (False, False, True, True, False, False)),
    ("a|aa", (False, False, False, False, False, False)),
    ("(a|b)*(c(a|b)*(d(a|b)*)?|d(a|b)*c(a|b)*)",
     (False, False, False, False, False, False)),
]
FLAG_ORDER = ("df", "dc", "dc_qph", "rw", "mrw", "mdf_dc")


def test_criterion_01_classification_table():
    def body():
        bad = []
        for src, want in CLASS_TABLE:
            got = classify_model(parse_content_model(src))
            if tuple(got[f] for f in FLAG_ORDER) != want:
                bad.append(src)
        assert not bad, f"misclassified: {bad}"
        return f"{len(CLASS_TABLE)} content models classified, 0 mismatches"

    _report(1, 1.0, body)


# ------------------------------------------------------- 2: normalization


def test_criterion_02_delta_golden_and_random():
    def body():
        e = parse_content_model("a*((b#(c#d))a*)?")
        out = render(delta(e))
        assert out == "a*bcda*", out
        rng = random.Random(20260819)
        for _ in range(20):
            m = gens.random_mrw_model(rng)
            assert is_mdf_dc(delta(m)), render(m)
        return "golden a*bcda* exact; 20 random models normalize into the target class"

    _report(2, 1.0, body)


# ------------------------------------------------ 3: rewrite equivalences

EQUIV_PAIRS = [
    ("ab+|ab+c", "ab+c?"),
    ("a*(bc?d?a*|cd?a*|da*)?", "a*((b#(c#d))a*)?"),
    ("a*b?(cdef+|gc?d?e?f*)a*", "a*b?(g#(c,d,e,f+))a*"),
    ("a(bc)*|(bc)+a((bc)*)?", "(bc)*a(bc)*"),
    ("ab?|b", "a#b"),
]


def test_criterion_03_rewrite_equivalences():
    def body():
        for left, right in EQUIV_PAIRS:
            assert equivalent(
                parse_content_model(left), parse_content_model(right)
            ), f"{left} vs {right}"
        return f"{len(EQUIV_PAIRS)} rewrite pairs equivalent by automaton product"

    _report(3, 5.0, body)


# ------------------------------------------------ 4: schema graph snapshot

GRAPH_ROWS = [
    ("u0", None, 1, "-", "r", True, True),
    ("u1", "r", 1, "*", "r", False, False),
    ("u2", "r", 2, "*", "a", True, False),
    ("u3", "r", 3, "-", "b", True, True),
    ("u4", "r", 4, "-", "c", True, True),
    ("u5", "r", 5, "*", "r", False, False),
    ("u6", "b", 1, "-", "a", True, True),
]


def _worked_graph():
    return build_schema_graph(delta_dtd(parse_dtd(WORKED)))


def test_criterion_04_schema_graph_snapshot():
    def body():
        g = _worked_graph()
        rows = [
            (n.name, n.parent_label, n.pos, n.omega, n.label, n.is_df, n.is_dfs)
            for n in g.nodes
        ]
        assert rows == GRAPH_ROWS, rows
        golden = (DATA / "schema_graph_golden.txt").read_text()
        assert g.render_text() == golden
        return "7 places carry the pinned attributes; export matches the snapshot"

    _report(4, None, body)


# ------------------------------------------------- 5: eval1 trace replay

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


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(argv)
        except SystemExit as e:
            code = e.code
    return code, out.getvalue(), err.getvalue()


def test_criterion_05_eval1_trace_replay(tmp_path):
    def body():
        g = _worked_graph()
        r = eval1(g, parse_xpath(SAT_Q))
        assert r.sat and r.trace == SAT_TRACE, r.trace
        r2 = eval1(g, parse_xpath(UNSAT_Q))
        assert not r2.sat and r2.trace == UNSAT_TRACE, r2.trace
        assert r2.reason == "requirements {r↦{b,c}, rb↦{a}} are not coverable"
        f = tmp_path / "worked.dtd"
        f.write_text(WORKED)
        for q, code, lines in ((SAT_Q, 0, SAT_TRACE), (UNSAT_Q, 1, UNSAT_TRACE)):
            got = _run_cli(["sat", "--dtd", str(f), "--xpath", q, "--trace"])
            assert got == (code, "\n".join(lines) + "\n", ""), got
        return "every intermediate state replays verbatim, library and CLI alike"

    _report(5, None, body)


# --------------------------------------------------- 6: eval2 tuple sets

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


def test_criterion_06_eval2_tuple_sets():
    def body():
        g = _worked_graph()
        sizes = []
        for q, want in EVAL2_RENDERS.items():
            ts = eval2(g, parse_xpath(q))
            assert render_tuple_set(ts) == want, q
            sizes.append(len(ts))
        assert sizes == [6, 2, 4, 2, 3, 3], sizes
        full = eval2(g, parse_xpath("↓::r/→⁺::b[↓::a]/→⁺::c"))
        assert len(full) == 0 and render_tuple_set(full) == "∅"
        d = parse_dtd(WORKED)
        assert satisfiable(d, parse_xpath("↓::r/→⁺::b[↓::a]")).sat
        assert not satisfiable(d, parse_xpath("↓::r/→⁺::b[↓::a]/→⁺::c")).sat
        return "six tuple sets render exactly (6,2,4,2,3,3); final composition empty"

    _report(6, None, body)


# ------------------------------------------- 7: oracle equivalence, both lanes


def _star_depth(e) -> int:
    if isinstance(e, (Star, Plus)):
        return 1 + _star_depth(e.item)
    if isinstance(e, Opt):
        return _star_depth(e.item)
    if isinstance(e, (Concat, Disj)):
        return max((_star_depth(i) for i in e.items), default=0)
    if isinstance(e, Hash):
        return max((_star_depth(i) for i in e.left + e.right), default=0)
    return 0


def _small_dtd(rng) -> Dtd:
    # alphabet <= 4 labels, each model <= 6 symbol occurrences with no nested
    # stars, and few enough conforming trees to enumerate outright
    while True:
        d = gens.random_mdf_dc_dtd(rng)
        if all(
            _star_depth(d.model(l)) <= 1
            and sum(symbol_counts(d.model(l)).values()) <= 6
            for l in d.labels
        ) and gens.tree_count(d, 4) <= 3000:
            return d


def test_criterion_07_differential_against_oracle():
    def body():
        rng = random.Random(11)
        disagree, totals = [], {}
        for fragment, gen in (
            ("eval1", gens.random_eval1_query),
            ("eval2", gens.random_eval2_query),
        ):
            n = n_sat = 0
            for _ in range(25):
                d = _small_dtd(rng)
                # depth 4 covers every tree of these recursion-free DTDs,
                # rep 4 covers the bound policy for queries of <= 4 steps
                trees = enumerate_trees(d, 4, 4)
                for _ in range(8):
                    q = gen(rng, d)
                    got = satisfiable(d, q).sat
                    want = any(satisfies(t, q) for t in trees)
                    n += 1
                    n_sat += got
                    if got != want:
                        disagree.append((fragment, d, q))
            totals[fragment] = (n, n_sat)
        assert not disagree, disagree[:3]
        assert all(n == 200 for n, _ in totals.values()), totals
        sat1, sat2 = totals["eval1"][1], totals["eval2"][1]
        return (
            "400 random instances agree with exhaustive enumeration "
            f"(200 per lane; {sat1} and {sat2} satisfiable)"
        )

    _report(7, 300.0, body)


# --------------------------------------- 8: consistency vs witness search


def test_criterion_08_consistency_witness_agreement():
    def body():
        rng = random.Random(13)
        checked = n_cons = 0
        disagree = []
        while checked < 100:
            d = gens.random_mdf_dc_dtd(rng)
            if gens.tree_count(d, 6) > 20000:
                continue
            g = build_schema_graph(d)
            for _ in range(5):
                b = gens.random_sibmap(rng, d, g)
                if checked % 2 and b.entries:
                    # every other map gets one extra demand, which keeps the
                    # inconsistent side of the split populated
                    e = rng.choice(b.entries)
                    once = [lbl for lbl, n in
                            symbol_counts(d.model(e.key[-1])).items() if n == 1]
                    if once:
                        b = with_entry(
                            b, e.key, e.dfs, e.values | {rng.choice(once)})
                want = consistent(b, d)
                rep = max(2, max(
                    (len(e.values) for e in b.entries), default=0) + 2)
                found = find_beta_witness(d, b, len(d.labels), rep)
                if found is not None:
                    t, theta = found
                    assert beta_satisfied(t, b, d)
                if want != (found is not None):
                    disagree.append((d, b))
                n_cons += want
                checked += 1
                if checked >= 100:
                    break
        assert not disagree, disagree[:3]
        return (
            "100 requirement maps agree with bounded witness search "
            f"({n_cons} consistent, {100 - n_cons} not)"
        )

    _report(8, 120.0, body)


# ------------------------------------------------ 9: coverable brute force


def test_criterion_09_coverable_brute_force():
    def body():
        rng = random.Random(17)
        models = subsets = 0
        disagree = []
        while models < 100:
            e = gens._mdf_dc_model(rng, list("abcd"), 3)
            counts = symbol_counts(e)
            if not counts or sum(counts.values()) > 8:
                continue
            models += 1
            once = sorted(lbl for lbl, n in counts.items() if n == 1)
            words = [set(w) for w in enumerate_words(e, 8)]
            for k in range(len(once) + 1):
                for combo in combinations(once, k):
                    demand = set(combo)
                    want = any(demand <= w for w in words)
                    if coverable(e, demand) != want:
                        disagree.append((render(e), demand))
                    subsets += 1
        assert not disagree, disagree[:3]
        return f"100 models, {subsets} demand subsets agree with word enumeration"

    _report(9, 60.0, body)


# ---------------------------------------------------- 10: complexity smoke

CHAIN_LEN = 49  # cyclic chain, so the graph has 49 places plus the sentinel


def _chain_setting():
    labels = [f"x{i:02d}" for i in range(CHAIN_LEN)]
    rules = {
        labels[i]: Star(Symbol(labels[(i + 1) % CHAIN_LEN]))
        for i in range(CHAIN_LEN)
    }
    g = build_schema_graph(Dtd(labels[0], rules))

    def chain(k: int):
        steps = tuple(Step(Axis.CHILD, labels[(i + 1) % CHAIN_LEN]) for i in range(k))
        return Seq(steps) if k > 1 else steps[0]

    return g, chain


def test_criterion_10_complexity_smoke():
    def body():
        g, chain = _chain_setting()
        assert len(g.nodes) == 50
        queries = {k: chain(k) for k in (8, 16, 32, 64)}
        for q in queries.values():
            assert eval1(g, q, trace=False).sat  # also warms the caches

        def best_time(k: int) -> float:
            q, reps = queries[k], 2000 // k
            best = float("inf")
            for _ in range(7):
                t0 = time.perf_counter()
                for _ in range(reps):
                    eval1(g, q, trace=False)
                best = min(best, (time.perf_counter() - t0) / reps)
            return best

        times = {k: best_time(k) for k in queries}
        per_step = times[8] / 8
        ratios = {k: times[k] / k / per_step for k in (16, 32, 64)}
        assert all(r <= 3.0 for r in ratios.values()), ratios

        bound = len(g.nodes) ** 2
        biggest = max(len(eval2(g, chain(i))) for i in range(1, 65))
        assert biggest <= bound, (biggest, bound)
        return (
            f"walk time stays linear (worst ratio {max(ratios.values()):.2f}); "
            f"tuple sets peak at {biggest} of {bound} allowed"
        )

    _report(10, None, body)
