"""The benchmark's own tests.  Run from the checkout root:

    python3 bench/selftest.py

They check the reference side against itself and against the package on
small inputs, run every workload at a tiny size, and exercise the tracer.
No test measures time.
"""

from __future__ import annotations

import random
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from ref import Sampler, conforms, matches, parse_term, render_query  # noqa: E402

from xpathsat import load_dtd, oracle, satisfiable  # noqa: E402

TINY = {
    "schema-reuse": lambda seed: workloads.schema_reuse(seed, (1, 3, 8, 16, 32), rounds=2),
    "query-heavy": lambda seed: workloads.query_heavy(seed, rounds=1),
    "oracle-search": lambda seed: workloads.oracle_search(seed, rounds=1),
    "cli-one-shot": lambda seed: workloads.cli_one_shot(seed, rounds=1),
}


def tiny(name: str, seed: int = 3):
    w = TINY[name](seed)
    w.trace_rounds = min(w.trace_rounds, len(w.rounds))
    return w


class ReferenceTests(unittest.TestCase):
    def test_sampled_documents_conform_both_ways(self):
        rng = random.Random(7)
        schemas = [workloads.worked_dtd(), workloads.chain_dtd(),
                   workloads.dense_dtd(9), workloads.mrw_dtd(rng, (1, 3, 8, 16, 32)),
                   workloads.small_tree_dtd(rng, 6, 20000, 60000, 4, 2)]
        for schema in schemas:
            d = load_dtd(schema.text())
            sampler = Sampler(schema, rng, depth=8, rep=2, cap=150)
            for _ in range(10):
                doc = sampler.sample(spine=4)
                self.assertTrue(conforms(doc, schema), doc.term())
                self.assertTrue(oracle.conforms(oracle.parse_tree(doc.term()), d))
                # a node given a child label its model lacks fails both tests
                leaf = next(n for n in range(doc.size()) if not doc.kids[n])
                absent = sorted(set(schema.rules) - set(
                    workloads.labels_of(schema.rules[doc.label[leaf]])))
                if absent:
                    doc.add(absent[0], leaf)
                    self.assertFalse(conforms(doc, schema))
                    self.assertFalse(oracle.conforms(oracle.parse_tree(doc.term()), d))

    def test_sat_walks_match_their_documents(self):
        for name in TINY:
            w = tiny(name)
            for op in w.ops():
                if op.get("expect") and op.get("steps") is not None:
                    self.assertTrue(matches(op["doc"], op["steps"]), op["query"])

    def test_term_round_trip(self):
        doc = parse_term("r(r(c),b(a))")
        self.assertEqual(doc.term(), "r(r(c),b(a))")
        self.assertEqual((doc.size(), doc.height()), (5, 3))


class ReadmeQuickStart(unittest.TestCase):
    """The README's quick-start answers.  The oracle runs at depth 3: at its
    default bounds it does not finish (see CHANGES.md)."""

    def setUp(self):
        self.schema = workloads.worked_dtd()
        self.d = load_dtd(self.schema.text())

    def test_sat_answers(self):
        self.assertTrue(satisfiable(self.d, "↓::r/→⁺::b/↓::a/↑::b").sat)
        self.assertFalse(satisfiable(self.d, "↓::r/→⁺::b/↓::a/↑::b/→⁺::c").sat)
        v = satisfiable(self.d, "↓::r/→⁺::b[↓::a]")
        self.assertEqual((v.sat, v.algorithm), (True, "eval2"))

    def test_oracle_witness(self):
        from xpathsat import parse_xpath

        t = oracle.oracle_satisfiable(self.d, parse_xpath("↓::r/→⁺::b"), 3, 2)
        term = oracle.render_tree(t)
        self.assertEqual(term, "r(r(c),b(a))")
        doc = parse_term(term)
        self.assertTrue(conforms(doc, self.schema))
        self.assertTrue(matches(doc, [("child", "r", []), ("fsib", "b", [])]))


class TinyWorkloads(unittest.TestCase):
    def setUp(self):
        self._probes = run.SETUP_PROBES, run.IMPORT_PROBES
        run.SETUP_PROBES = run.IMPORT_PROBES = 1

    def tearDown(self):
        run.SETUP_PROBES, run.IMPORT_PROBES = self._probes

    def test_each_workload_completes_without_failures(self):
        for name in TINY:
            w = tiny(name)
            check, metrics, notes = run.measure(w, 0, False)
            known = sum(1 for op in w.rounds[0] if op.get("known_fault"))
            self.assertEqual(check.failed, known * check.attempted // len(w.rounds[0]),
                             name)
            self.assertGreater(check.attempted, 0)
            for key, (value, unit) in metrics.items():
                self.assertGreater(value, 0, f"{name} {key}")

    def test_traced_counts_repeat(self):
        for name in ("schema-reuse", "query-heavy"):
            first = run.measure(tiny(name), 0, True)[1]
            second = run.measure(tiny(name), 0, True)[1]
            for key in tracer.EXACT_COUNTS:
                self.assertEqual(first[key], second[key], f"{name} {key}")
            self.assertGreater(first["sat_checker.eval1_ms"][0], 0)


class TracerTests(unittest.TestCase):
    def test_missing_function_is_reported_not_fatal(self):
        extra = tracer.Probe("sat_checker", "no_such_function", "sat_checker.gone")
        saved = tracer.PROBES
        tracer.PROBES = saved + (extra,)
        tr = tracer.Tracer()
        try:
            tr.install()
            d = load_dtd(workloads.worked_dtd().text())
            self.assertTrue(satisfiable(d, "↓::r/→⁺::b").sat)
        finally:
            tr.uninstall()
            tracer.PROBES = saved
        self.assertIn("sat_checker.no_such_function", tr.absent)
        m = tr.metrics()
        self.assertEqual(m["sat_checker.eval1_ms"] > 0, True)
        self.assertGreater(m["schema_graph.places"], 0)

    def test_uninstall_restores_functions(self):
        from xpathsat import sat_checker

        before = sat_checker.validate_no_useless
        tr = tracer.Tracer()
        tr.install()
        self.assertIsNot(sat_checker.validate_no_useless, before)
        tr.uninstall()
        self.assertIs(sat_checker.validate_no_useless, before)

    def test_render_query_forms(self):
        quals = [[("child", "b", [])], [("fsib", "c", [])]]
        steps = [("child", "a", quals), ("child", "d", quals)]
        self.assertEqual(render_query(steps), "↓::a[↓::b and →⁺::c]/↓::d[↓::b][→⁺::c]")


if __name__ == "__main__":
    unittest.main()
