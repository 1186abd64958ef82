"""Command line interface: output text, JSON shapes, exit codes."""

from __future__ import annotations

import contextlib
import inspect
import io
import json
import os
import pathlib
import shlex
import subprocess
import sys

import pytest

from xpathsat import cli, sat_checker
from xpathsat import load_dtd, parse_content_model, parse_dtd
from xpathsat.cli import main

WORKED = "root r\nr := r*(a*b|c)r*\na := eps\nb := a\nc := eps\n"
XML_DTD = (
    "<!ELEMENT doc (title, item*)>\n"
    "<!ELEMENT title (#PCDATA)>\n"
    "<!ELEMENT item (title?)>\n"
)

SAT_Q = "(↓::r/→⁺::b)/(↓::a/↑::b)"
UNSAT_Q = "(↓::r/→⁺::b)/(↓::a/↑::b)/→⁺::c"

DATA = pathlib.Path(__file__).parent / "data"
README = pathlib.Path(__file__).parent.parent / "README.md"


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:  # argparse exits on usage errors
            code = e.code
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def worked_file(tmp_path):
    p = tmp_path / "worked.dtd"
    p.write_text(WORKED)
    return str(p)


@pytest.fixture
def bad_file(tmp_path):
    p = tmp_path / "bad.dtd"
    p.write_text("root r\nr := a|aa\na := eps\n")
    return str(p)


# ------------------------------------------------------------------ classify


def test_classify_text(worked_file):
    code, out, err = run(["classify", "--dtd", worked_file])
    assert (code, err) == (0, "")
    assert out == (
        "rule r: df=no dc=no dc_qph=no rw=yes mrw=yes mdf_dc=yes\n"
        "rule a: df=yes dc=yes dc_qph=yes rw=yes mrw=yes mdf_dc=yes\n"
        "rule b: df=yes dc=yes dc_qph=yes rw=yes mrw=yes mdf_dc=yes\n"
        "rule c: df=yes dc=yes dc_qph=yes rw=yes mrw=yes mdf_dc=yes\n"
        "dtd: df=no dc=no dc_qph=no rw=yes mrw=yes mdf_dc=yes\n"
    )


def test_classify_json(worked_file):
    code, out, _ = run(["classify", "--dtd", worked_file, "--json"])
    assert code == 0
    obj = json.loads(out)
    assert set(obj) == {"dtd", "root", "rules"}
    assert obj["root"] == "r"
    assert set(obj["rules"]) == {"r", "a", "b", "c"}
    assert obj["dtd"] == {
        "df": False, "dc": False, "dc_qph": False,
        "rw": True, "mrw": True, "mdf_dc": True,
    }
    assert obj["rules"]["a"]["df"] is True


# ----------------------------------------------------------------------- sat


def test_sat_plain(worked_file):
    assert run(["sat", "--dtd", worked_file, "--xpath", SAT_Q]) == (0, "SAT\n", "")
    assert run(["sat", "--dtd", worked_file, "--xpath", UNSAT_Q]) == (1, "UNSAT\n", "")


def test_sat_trace_eval1(worked_file):
    code, out, _ = run(["sat", "--dtd", worked_file, "--xpath", SAT_Q, "--trace"])
    assert code == 0
    assert out == (
        "start: ({u0}, β⊥)\n"
        "↓::r → ({u0}{u1,u5}, {r↦∅})\n"
        "→⁺::b → ({u0}{u3}, {r↦{b}})\n"
        "↓::a → ({u0}{u3}{u6}, {r↦{b}, rb↦{a}})\n"
        "↑::b → ({u0}{u3}, {r↦{b}, rb↦{a}})\n"
        "verdict: SAT\n"
    )
    code, out, _ = run(["sat", "--dtd", worked_file, "--xpath", UNSAT_Q, "--trace"])
    assert code == 1
    assert out.endswith(
        "→⁺::c → ({u0}{u4}, {r↦{b,c}, rb↦{a}}) inconsistent\nverdict: UNSAT\n"
    )


def test_sat_json_eval1(worked_file):
    code, out, _ = run(["sat", "--dtd", worked_file, "--xpath", SAT_Q, "--json"])
    assert code == 0
    obj = json.loads(out)
    assert set(obj) == {"algorithm", "final_state", "trace", "verdict"}
    assert obj["algorithm"] == "eval1"
    assert obj["verdict"] == "SAT"
    assert obj["final_state"] == "({u0}{u3}, {r↦{b}, rb↦{a}})"
    assert obj["trace"][0] == "start: ({u0}, β⊥)"
    code, out, _ = run(["sat", "--dtd", worked_file, "--xpath", UNSAT_Q, "--json"])
    assert code == 1
    assert json.loads(out)["verdict"] == "UNSAT"


def test_sat_json_eval2(worked_file):
    code, out, _ = run(
        ["sat", "--dtd", worked_file, "--xpath", "↓::r/→⁺::b[↓::a]", "--json"]
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["algorithm"] == "eval2"
    assert obj["verdict"] == "SAT"
    assert obj["final_state"] == "((u0,β⊥),(u3,{r↦{b}, rb↦{a}}),r)"
    assert obj["trace"][-1] == "verdict: SAT"
    assert obj["trace"][0].startswith("eval2(↓::r) = {((u0,β⊥),(u1,{r↦∅}),r)")


def test_sat_trace_eval2(worked_file):
    code, out, _ = run(
        ["sat", "--dtd", worked_file, "--xpath", "↓::r/→⁺::b[↓::a]", "--trace"]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("eval2(↓::r) = ")
    assert lines[-1] == "verdict: SAT"
    assert (
        "eval2(↓::r/→⁺::b[↓::a]) = {((u0,β⊥),(u3,{r↦{b}, rb↦{a}}),r), "
        "((u1,β⊥),(u3,{r↦{b}, rb↦{a}}),r), ((u5,β⊥),(u3,{r↦{b}, rb↦{a}}),r)}"
        in lines
    )


def test_sat_decides_once(worked_file, monkeypatch):
    # --trace and --json print the trace, so its traced run is the only run;
    # a plain verdict comes from one untraced run
    calls = []

    def counting(name):
        real = getattr(sat_checker, name)
        sig = inspect.signature(real)

        def counted(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            calls.append((name, bound.arguments["trace"]))
            return real(*args, **kwargs)

        return counted

    for name in ("eval1", "eval2"):
        monkeypatch.setattr(sat_checker, name, counting(name))
    for flags in ([], ["--trace"], ["--json"]):
        calls.clear()
        assert run(["sat", "--dtd", worked_file, "--xpath", SAT_Q] + flags)[0] == 0
        assert calls == [("eval1", bool(flags))]
        calls.clear()
        assert run(["sat", "--dtd", worked_file, "--xpath", "↓::r/→⁺::b[↓::a]"] + flags)[0] == 0
        # eval2 calls itself once per subexpression; one run shares one trace
        assert len(calls) == 5 and {name for name, _ in calls} == {"eval2"}
        assert len({id(trace) for _, trace in calls}) == 1
        assert (calls[0][1] is not None) == bool(flags)


def test_sat_rejects_non_mrw(bad_file):
    code, out, err = run(["sat", "--dtd", bad_file, "--xpath", "↓::a"])
    assert (code, out) == (3, "")
    assert err == "error: content model of 'r' is not MRW: a|aa\n"


def test_sat_rejects_full_fragment(worked_file):
    code, out, err = run(["sat", "--dtd", worked_file, "--xpath", "↓*::a"])
    assert (code, out) == (4, "")
    assert err == (
        "error: query needs recursive axes, union, or qualifier disjunction; "
        "only the bounded oracle covers those\n"
    )


def test_sat_rejects_qualifiers_with_parent_axis(worked_file):
    # no recursive axis, union or `or`: eval1 takes ↑ without qualifiers and
    # eval2 qualifiers without ↑, and neither takes both
    code, out, err = run(["sat", "--dtd", worked_file, "--xpath", "↓::r[↓::b]/↑::r"])
    assert (code, out) == (4, "")
    assert err == (
        "error: query combines qualifiers with the parent axis; "
        "only the bounded oracle covers those\n"
    )


def test_sat_query_parse_error(worked_file):
    code, out, err = run(["sat", "--dtd", worked_file, "--xpath", "↓::a["])
    assert (code, out) == (2, "")
    assert err == "error: unexpected end of query\n"


def test_sat_internal_error_exits_5(worked_file, monkeypatch):
    # a fault of the program must never read as exit 1 (UNSAT), and its
    # message stays on one line
    def broken(d, q):
        raise RuntimeError("first line\nsecond line")

    monkeypatch.setattr("xpathsat.cli.satisfiable", broken)
    code, out, err = run(["sat", "--dtd", worked_file, "--xpath", "↓::r"])
    assert (code, out) == (5, "")
    assert err == "error: internal error: RuntimeError: first line second line\n"


def test_nesting_too_deep_to_parse_exits_2(worked_file, tmp_path):
    q = "(" * 2000 + "↓::r" + ")" * 2000
    code, out, err = run(["sat", "--dtd", worked_file, "--xpath", q])
    assert (code, out, err) == (2, "", "error: query nested too deeply\n")
    deep = tmp_path / "deep.dtd"
    deep.write_text("root r\nr := " + "(" * 2000 + "a" + ")" * 2000 + "\na := eps\n")
    code, out, err = run(["sat", "--dtd", str(deep), "--xpath", "↓::a"])
    assert (code, out, err) == (2, "", "error: content model nested too deeply\n")


def test_sat_missing_dtd_file(tmp_path):
    code, out, err = run(["sat", "--dtd", str(tmp_path / "nope.dtd"), "--xpath", "↓::a"])
    assert code == 2
    assert "No such file" in err


def test_dtd_file_that_is_not_utf8_is_an_input_error(tmp_path):
    p = tmp_path / "latin.dtd"
    p.write_bytes(b"root r\nr := \xff\n")
    code, out, err = run(["sat", "--dtd", str(p), "--xpath", "↓::a"])
    assert (code, out) == (2, "")
    assert err.startswith("error: 'utf-8' codec can't decode byte 0xff")


class _FailingOut(io.StringIO):
    def write(self, s):
        raise OSError(5, "Input/output error")


@pytest.mark.parametrize("argv", [["equiv", "a", "aa"], ["equiv", "--json", "a", "a"]])
def test_a_failed_output_write_has_its_own_exit_code(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(_FailingOut()), contextlib.redirect_stderr(err):
        assert main(argv) == cli.EXIT_OUTPUT == 6
    assert err.getvalue() == "error: cannot write output: [Errno 5] Input/output error\n"


def test_a_closed_pipe_exits_6_from_the_console_script():
    # stdout is block-buffered here, so the write fails when `main` flushes it
    # and not when the interpreter exits (which would exit 120)
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "xpathsat.cli", "equiv", "a", "aa"], stdout=w,
            stderr=subprocess.PIPE, text=True, env={**os.environ, "PYTHONUNBUFFERED": ""},
        )
    finally:
        os.close(w)
    assert proc.returncode == 6
    assert proc.stderr == "error: cannot write output: [Errno 32] Broken pipe\n"


def test_sat_empty_dtd_file(tmp_path):
    p = tmp_path / "empty.dtd"
    p.write_text("")
    code, _, err = run(["sat", "--dtd", str(p), "--xpath", "↓::a"])
    assert code == 2
    assert err == "error: DTD declares no rules\n"


# --------------------------------------------------------------------- oracle


def test_oracle_witness(worked_file):
    code, out, _ = run(
        ["oracle", "--dtd", worked_file, "--xpath", "↓::r/→⁺::b[↓::a]",
         "--depth", "3", "--rep", "2"]
    )
    assert (code, out) == (0, "SAT r(r(c),b(a))\n")


# 1,500 operands of one `and`, and a union of 1,500 operands whose last is
# ↓::r[↓::c] (no q exists in the worked DTD): each is one flat node, walked in
# a loop rather than by one call per operand
AND_CHAIN = "↓::r[" + " and ".join(["↓::c"] * 1500) + "]"
WIDE_UNION = "↓::q ∪ " * 1499 + "↓::r[↓::c]"


def test_oracle_stacked_qualifiers(worked_file):
    # 1,500 stacked qualifiers are one stack, not one call each; --rep is
    # always given, since the default rep grows with the query's size
    argv = ["oracle", "--dtd", worked_file, "--depth", "3", "--rep", "2", "--xpath"]
    want = (0, "SAT r(c,r(c))\n", "")
    assert run(argv + ["↓::r[↓::c]"]) == want
    assert run(argv + ["↓::r" + "[↓::c]" * 1500]) == want
    assert run(argv + [AND_CHAIN]) == want
    assert run(argv + [WIDE_UNION]) == want


def test_sat_stacked_qualifiers(worked_file):
    # the sat path walks 1,500 stacked qualifiers in a loop as well
    argv = ["sat", "--dtd", worked_file, "--xpath"]
    assert run(argv + ["↓::r[↓::c]"]) == (0, "SAT\n", "")
    assert run(argv + ["↓::r" + "[↓::c]" * 1500]) == (0, "SAT\n", "")
    assert run(argv + ["↓::r" + "[↓::c]" * 1500 + "[↓::b]"]) == (1, "UNSAT\n", "")
    assert run(argv + [AND_CHAIN]) == (0, "SAT\n", "")
    code, out, _ = run(argv + [WIDE_UNION])
    assert (code, out) == (4, "")


def test_oracle_readme_quick_start(worked_file):
    # default bounds: depth 4, rep max(2, query size)
    code, out, _ = run(["oracle", "--dtd", worked_file, "--xpath", "↓::r/→⁺::b"])
    assert (code, out) == (0, "SAT r(r(c),b(a))\n")


def test_oracle_unknown(worked_file):
    code, out, _ = run(
        ["oracle", "--dtd", worked_file, "--xpath", UNSAT_Q, "--depth", "3", "--rep", "2"]
    )
    assert (code, out) == (1, "UNKNOWN\n")


def test_oracle_json(worked_file):
    code, out, _ = run(
        ["oracle", "--dtd", worked_file, "--xpath", "↓::r/→⁺::b[↓::a]",
         "--depth", "3", "--rep", "2", "--json"]
    )
    assert code == 0
    assert json.loads(out) == {"verdict": "SAT", "witness": "r(r(c),b(a))"}
    code, out, _ = run(
        ["oracle", "--dtd", worked_file, "--xpath", "↓::a/↓::a",
         "--depth", "3", "--rep", "2", "--json"]
    )
    assert code == 1
    assert json.loads(out) == {"verdict": "UNKNOWN"}


def test_oracle_covers_full_fragment(worked_file):
    code, out, _ = run(
        ["oracle", "--dtd", worked_file, "--xpath", "↓*::a", "--depth", "3", "--rep", "1"]
    )
    assert code == 0
    assert out.startswith("SAT ")


def test_oracle_bad_bounds(worked_file):
    code, out, err = run(
        ["oracle", "--dtd", worked_file, "--xpath", "↓::a", "--depth", "0"]
    )
    assert (code, out) == (2, "")
    assert err == "error: search bounds must be at least 1\n"


@pytest.mark.parametrize("depth,query", [
    # the tree space recurses once per level as it is built
    (600, "↓::q"),
    # a witness 451 levels deep is found, and its tree term recurses per level
    (460, "/".join(["↓::r"] * 450)),
], ids=["space", "witness"])
def test_oracle_depth_too_deep_is_an_input_error(tmp_path, depth, query):
    chain = tmp_path / "chain.dtd"
    chain.write_text("root r\nr := r?\n")
    # the frames a tree level takes differ between interpreters, so the
    # limit is lowered to make both bounds too deep on each of them
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(400)
    try:
        code, out, err = run(
            ["oracle", "--dtd", str(chain), "--xpath", query, "--depth", str(depth), "--rep", "2"]
        )
    finally:
        sys.setrecursionlimit(limit)
    assert (code, out) == (2, "")
    assert err == f"error: depth bound {depth} is too deep to search\n"


# ---------------------------------------------------------------------- equiv


def test_equiv_equivalent():
    assert run(["equiv", "ab+|ab+c", "ab+c?"]) == (0, "equivalent\n", "")
    assert run(["equiv", "a#b", "a|b|ab"]) == (0, "equivalent\n", "")


def test_equiv_counterexample():
    assert run(["equiv", "a", "aa"]) == (1, "not equivalent: a\n", "")
    # the empty word prints as ε
    assert run(["equiv", "eps", "a"]) == (1, "not equivalent: ε\n", "")


@pytest.mark.parametrize("m1,m2,want", [
    ("ab+|ab+c", "ab+c?", {"equivalent": True}),
    ("a", "ab", {"equivalent": False, "counterexample": ["a"]}),
    # the empty word is the empty list
    ("eps", "a", {"equivalent": False, "counterexample": []}),
])
def test_equiv_json(m1, m2, want):
    code, out, err = run(["equiv", m1, m2, "--json"])
    assert (code, err) == (0 if want["equivalent"] else 1, "")
    assert json.loads(out) == want


def test_equiv_parse_error():
    code, out, err = run(["equiv", "a(", "a"])
    assert (code, out) == (2, "")
    assert err == "error: unexpected end of content model\n"


# ---------------------------------------------------------------------- delta


def test_delta_model():
    assert run(["delta", "--model", "a*((b#(c#d))a*)?"]) == (0, "a*bcda*\n", "")


def test_delta_model_json():
    code, out, err = run(["delta", "--model", "a?b+", "--json"])
    assert (code, err) == (0, "")
    assert json.loads(out) == {"model": "ab*"}


def test_delta_model_rejects_non_mrw():
    code, out, err = run(["delta", "--model", "a|aa"])
    assert (code, out) == (3, "")
    assert err == "error: content model of '<model>' is not MRW: a|aa\n"


def test_delta_dtd(worked_file):
    # the worked DTD is already normal, so it comes back unchanged
    assert run(["delta", "--dtd", worked_file]) == (0, WORKED, "")


@pytest.mark.parametrize("fmt, text", [
    ("native", "r := e p s\ne := eps\np := eps\ns := eps\n"),
    ("native", "r := a b ab\na := eps\nb := eps\nab := eps\n"),
    ("native", "root := a*\na := eps\n"),
    ("xml-dtd", "<!ELEMENT r (e,p,s)> <!ELEMENT e EMPTY> <!ELEMENT p EMPTY> <!ELEMENT s EMPTY>"),
    ("xml-dtd", "<!ELEMENT r (a,b,ab)> <!ELEMENT a EMPTY> <!ELEMENT b EMPTY> <!ELEMENT ab EMPTY>"),
    ("xml-dtd", "<!ELEMENT root (a*)> <!ELEMENT a EMPTY>"),
])
def test_delta_dtd_prints_text_that_reads_back(tmp_path, fmt, text):
    # each DTD is already normal, so delta's text must read back as the DTD
    p = tmp_path / "in.dtd"
    p.write_text(text)
    code, out, err = run(["delta", "--dtd", str(p), "--format", fmt])
    assert (code, err) == (0, "")
    assert parse_dtd(out) == load_dtd(text, fmt)
    code, out, _ = run(["delta", "--dtd", str(p), "--format", fmt, "--json"])
    assert code == 0
    d = load_dtd(text, fmt)
    alphabet = frozenset(d.labels)
    rules = json.loads(out)["rules"]
    assert {lbl: parse_content_model(m, alphabet) for lbl, m in rules.items()} == d.rules


def test_delta_model_prints_text_that_reads_back():
    code, out, _ = run(["delta", "--model", "e,p,s"])
    assert code == 0
    assert parse_content_model(out.strip()) == parse_content_model("e,p,s")


def test_delta_dtd_rejects_non_mrw(bad_file):
    code, _, err = run(["delta", "--dtd", bad_file])
    assert code == 3
    assert err == "error: content model of 'r' is not MRW: a|aa\n"


# ---------------------------------------------------------------------- graph


def test_graph_text(worked_file):
    code, out, _ = run(["graph", "--dtd", worked_file])
    assert code == 0
    assert out == (DATA / "schema_graph_golden.txt").read_text()


def test_graph_json(worked_file):
    code, out, _ = run(["graph", "--dtd", worked_file, "--json"])
    assert code == 0
    obj = json.loads(out)
    assert set(obj) == {"root", "nodes", "edges"}
    assert obj["root"] == "r"
    assert len(obj["nodes"]) == 7
    assert len(obj["edges"]) == 16
    assert obj["nodes"][3] == {
        "name": "u3", "parent_label": "r", "pos": 3, "omega": "-",
        "label": "b", "df": True, "dfs": True,
    }


# ------------------------------------------------------------------- xml dtds


@pytest.fixture
def xml_file(tmp_path):
    p = tmp_path / "doc.dtd"
    p.write_text(XML_DTD)
    return str(p)


def test_xml_dtd_sat(xml_file):
    code, out, _ = run(
        ["sat", "--dtd", xml_file, "--format", "xml-dtd",
         "--xpath", "↓::title/→⁺::item[↓::title]"]
    )
    assert (code, out) == (0, "SAT\n")


def test_xml_dtd_root_override(tmp_path):
    p = tmp_path / "cyc.dtd"
    p.write_text("<!ELEMENT a (b*)>\n<!ELEMENT b (a*)>\n")
    code, out, _ = run(
        ["sat", "--dtd", str(p), "--format", "xml-dtd", "--root", "b",
         "--xpath", "↓::a/↓::b"]
    )
    assert (code, out) == (0, "SAT\n")


def test_root_override_must_keep_labels_reachable(xml_file):
    code, out, err = run(
        ["sat", "--dtd", xml_file, "--format", "xml-dtd", "--root", "item",
         "--xpath", "↓::title"]
    )
    assert (code, out) == (2, "")
    assert err == "error: unreachable labels: doc\n"


def test_xml_dtd_classify(xml_file):
    code, out, _ = run(["classify", "--dtd", xml_file, "--format", "xml-dtd"])
    assert code == 0
    assert "rule doc:" in out and "dtd:" in out


@pytest.mark.parametrize("cmd,name", [("graph", "9r"), ("classify", "9b:c")])
def test_xml_dtd_bad_element_name(tmp_path, cmd, name):
    p = tmp_path / "bad.xml"
    p.write_text(f"<!ELEMENT {name} EMPTY>\n")
    code, out, err = run([cmd, "--dtd", str(p), "--format", "xml-dtd"])
    assert (code, out) == (2, "")
    assert f"bad label {name!r}" in err


@pytest.mark.parametrize("cmd", ["classify", "sat"])
def test_xml_dtd_element_named_eps(tmp_path, cmd):
    p = tmp_path / "eps.xml"
    p.write_text("<!ELEMENT r (eps, a)>\n<!ELEMENT eps EMPTY>\n<!ELEMENT a EMPTY>\n")
    extra = ["--xpath", "↓::a"] if cmd == "sat" else []
    code, out, err = run([cmd, "--dtd", str(p), "--format", "xml-dtd"] + extra)
    assert (code, out) == (2, "")
    assert err == "error: 'eps' is reserved\n"


def test_classify_long_label_run(tmp_path):
    # a run of 3,000 labels once overflowed the recursion of the split
    p = tmp_path / "run.dtd"
    p.write_text("root r\nr := " + "a" * 3_000 + "\na := eps\n")
    code, out, err = run(["classify", "--dtd", str(p)])
    assert (code, err) == (0, "")
    assert "rule r: df=no dc=yes" in out


# ------------------------------------------------------------------- plumbing


def test_usage_errors():
    code, _, err = run(["bogus"])
    assert code == 2 and "invalid choice" in err
    code, _, err = run([])
    assert code == 2


def test_console_script_exits_with_mains_code(worked_file, monkeypatch, capsys):
    # `entry` is the console-script target: it reads sys.argv
    for q, code, out in [(SAT_Q, 0, "SAT\n"), (UNSAT_Q, 1, "UNSAT\n")]:
        monkeypatch.setattr(sys, "argv", ["xpathsat", "sat", "--dtd", worked_file, "--xpath", q])
        with pytest.raises(SystemExit) as info:
            cli.entry()
        assert info.value.code == code
        assert capsys.readouterr().out == out


def test_module_entry_point(worked_file):
    r = subprocess.run(
        [sys.executable, "-m", "xpathsat.cli", "sat", "--dtd", worked_file,
         "--xpath", SAT_Q],
        capture_output=True,
        text=True,
    )
    assert (r.returncode, r.stdout) == (0, "SAT\n")


# eval2 returns its tuple set unordered; the reported winner must still be
# the same under every string-hash seed
def test_eval2_final_state_ignores_hash_seed(worked_file):
    outs = set()
    for seed in "0123":
        r = subprocess.run(
            [sys.executable, "-m", "xpathsat.cli", "sat", "--json", "--dtd", worked_file,
             "--xpath", "↓::r[↓::c]"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONHASHSEED": seed},
        )
        assert r.returncode == 0, r.stderr
        outs.add(r.stdout)
    assert len(outs) == 1
    assert json.loads(outs.pop())["final_state"] == "((u0,β⊥),(u1,{r↦∅, rr↦{c}}),r)"


# ------------------------------------------------------------------- README


def test_readme_examples_print_what_they_show(tmp_path):
    text = README.read_text(encoding="utf-8")
    dtd_block = text.split("`doc.dtd`:\n\n```\n", 1)[1].split("```", 1)[0]
    dtd = tmp_path / "doc.dtd"
    dtd.write_text(dtd_block)
    examples: list[tuple[str, list[str]]] = []
    for line in text.splitlines():
        if line.startswith("```"):
            examples.append(("", []))  # a block boundary ends the output
        elif line.startswith("$ xpathsat "):
            examples.append((line, []))
        elif examples and examples[-1][0]:
            examples[-1][1].append(line)
    examples = [(cmd, shown) for cmd, shown in examples if cmd]
    assert len(examples) == 4
    for cmd, shown in examples:
        argv = [str(dtd) if a == "doc.dtd" else a for a in shlex.split(cmd)[2:]]
        _, out, _ = run(argv)
        assert out.splitlines() == shown, cmd

    snippet = text.split("## Library\n\n```python\n", 1)[1].split("```", 1)[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(snippet, {})
    assert out.getvalue() == "True eval2\n"
