"""DTD classification, normalization, parsing, and sanity checks."""

import copy
import pickle
import random
import re

import pytest

from xpathsat import (
    Concat, Disj, Dtd, DtdError, Epsilon, Hash, NotMRW, Opt, ParseError,
    Plus, Star, Symbol, classify_dtd, classify_model, delta, delta_dtd,
    equivalent, is_dc, is_dc_qph, is_df, is_mdf_dc, is_mrw, is_rw, load_dtd,
    oracle_satisfiable, parse_content_model, parse_dtd, parse_xml_dtd,
    parse_xpath, render, render_dtd, render_tree, satisfiable,
    validate_no_useless,
)
from xpathsat import build_schema_graph
from xpathsat import dtd as dtd_module, oracle as oracle_module
from xpathsat.content_model import concat_of, disj_of, operands, symbol_counts, symbols
from xpathsat.dtd import min_heights

from gens import (
    dense_dtd, random_content_model, random_mdf_dc_dtd, random_mrw_model,
    random_recursive_mdf_dc_dtd,
)
from support import (
    reference_classify_model, reference_min_heights, reference_symbol_counts,
    subsequence_preserves,
)

F3 = "(a|b)*(c(a|b)*(d(a|b)*)?|d(a|b)*c(a|b)*)"

# model, df, dc, dc_qph, rw, mrw, mdf_dc
CLASS_TABLE = [
    ("a*(b|c)a*",  False, False, False, True,  True,  True),
    ("a*(b|c)b*",  False, False, False, False, False, False),
    ("a*ba",       False, True,  True,  True,  False, False),
    ("a?b?b?c",    False, False, True,  True,  False, False),
    ("a|aa",       False, False, False, False, False, False),
    (F3,           False, False, False, False, False, False),
    ("(a|b)*ca?",  False, False, True,  True,  False, False),
    ("(a|b)*ca+",  False, False, True,  True,  True,  False),
    ("a(b|c)*",    True,  True,  True,  True,  True,  True),
    ("(a|b)c*",    True,  False, False, True,  True,  True),
    ("(a|b)c",     True,  False, False, True,  True,  True),
    # not part of the core table, pinned against regressions
    ("a*ba*",      False, True,  True,  True,  True,  True),
    ("eps",        True,  True,  True,  True,  True,  True),
    ("r*(a*b|c)r*", False, False, False, True, True,  True),
]


@pytest.mark.parametrize("text,df,dc,qph,rw,mrw,mdf", CLASS_TABLE)
def test_classification_table(text, df, dc, qph, rw, mrw, mdf):
    e = parse_content_model(text)
    assert is_df(e) is df
    assert is_dc(e) is dc
    assert is_dc_qph(e) is qph
    assert is_rw(e) is rw
    assert is_mrw(e) is mrw
    assert is_mdf_dc(e) is mdf
    assert classify_model(e) == {
        "df": df, "dc": dc, "dc_qph": qph, "rw": rw, "mrw": mrw, "mdf_dc": mdf,
    }


def _dc_by_tree_walk(e, under_star=False) -> bool:
    # a disjunction anywhere outside a star disqualifies, as does any
    # occurrence of ?, + or #
    if isinstance(e, (Epsilon, Symbol)):
        return True
    if isinstance(e, (Opt, Plus, Hash)):
        return False
    if isinstance(e, Star):
        return _dc_by_tree_walk(e.item, True)
    if isinstance(e, Disj):
        return under_star and all(_dc_by_tree_walk(i, under_star) for i in e.items)
    return all(_dc_by_tree_walk(i, under_star) for i in e.items)


def test_is_dc_matches_tree_walk_on_table():
    for text, *_ in CLASS_TABLE:
        e = parse_content_model(text)
        assert is_dc(e) is _dc_by_tree_walk(e), text


def test_is_dc_matches_tree_walk_on_random_models():
    rng = random.Random(20210)
    for _ in range(500):
        e = random_content_model(rng)
        assert is_dc(e) is _dc_by_tree_walk(e), render(e)


def test_class_hierarchy_implications_on_random_models():
    rng = random.Random(11)
    for _ in range(1000):
        e = random_content_model(rng)
        c = classify_model(e)
        assert not c["dc"] or c["dc_qph"]
        assert not c["dc_qph"] or c["rw"]
        assert not c["df"] or (c["rw"] and c["mrw"])
        assert not c["mrw"] or c["rw"]
        assert not c["mdf_dc"] or c["mrw"]


def test_incomparability_witnesses():
    e1 = parse_content_model("(a|b)*ca?")
    assert is_dc_qph(e1) and not is_mrw(e1)
    e2 = parse_content_model("a*(b|c)a*")
    assert is_mrw(e2) and not is_dc_qph(e2)


# --- delta --------------------------------------------------------------------

def _delta_local(e):
    if isinstance(e, (Epsilon, Symbol)):
        return e
    if isinstance(e, Concat):
        return concat_of([_delta_local(i) for i in e.items])
    if isinstance(e, Disj):
        return disj_of([_delta_local(i) for i in e.items])
    if isinstance(e, Star):
        return Star(_delta_local(e.item))
    if isinstance(e, Opt):
        return _delta_local(e.item)
    if isinstance(e, Plus):
        return Star(_delta_local(e.item))
    ops = [_delta_local(i) for i in e.left] + [_delta_local(i) for i in e.right]
    return concat_of(ops)


def test_delta_goldens():
    assert render(delta(parse_content_model("a*((b#(c#d))a*)?"))) == "a*bcda*"
    assert delta(Epsilon()) == Epsilon()
    assert render(delta(parse_content_model("(a|b)*ca+"))) == "(a|b)*ca*"


def test_delta_matches_independent_recursion():
    rng = random.Random(4242)
    for _ in range(300):
        e = random_content_model(rng)
        assert delta(e) == _delta_local(e), render(e)


def test_delta_of_mrw_is_mdf_dc():
    rng = random.Random(99)
    for _ in range(200):
        e = random_mrw_model(rng)
        assert is_mdf_dc(delta(e)), render(e)


def test_delta_keeps_label_subsequences_on_fixtures():
    for text, *_ in CLASS_TABLE:
        e = parse_content_model(text)
        assert subsequence_preserves(e, delta(e), 6), text


WORKED = "root r\nr := r*(a*b|c)r*\na := eps\nb := a\nc := eps\n"


def test_delta_dtd_fixed_point_on_normalized_input():
    d = parse_dtd(WORKED)
    dd = delta_dtd(d)
    assert dd.rules == d.rules and dd.root == d.root


def test_delta_dtd_golden():
    d = parse_dtd("root r\nr := (a|b)*ca+\na := eps\nb := eps\nc := eps\n")
    dd = delta_dtd(d)
    assert render(dd.model("r")) == "(a|b)*ca*"
    assert classify_dtd(dd)["mdf_dc"]


def test_delta_dtd_rejects_non_mrw():
    d = parse_dtd("root r\nr := a|aa\na := eps\n")
    with pytest.raises(NotMRW, match="'r'"):
        delta_dtd(d)


def test_not_mrw_refusals_print_the_model_as_declared():
    d = parse_dtd("r := a b ab a\na := eps\nb := eps\nab := eps\n")
    for build in (delta_dtd, build_schema_graph):
        with pytest.raises(NotMRW) as info:
            build(d)
        assert str(info.value) == "content model of 'r' is not MRW: a,b,ab,a"


# --- sanity checks --------------------------------------------------------------

def test_validate_accepts_worked_dtd():
    validate_no_useless(parse_dtd(WORKED))
    validate_no_useless(parse_dtd("root r\nr := eps\n"))


def test_validate_rejects_undeclared():
    d = Dtd("r", {"r": Symbol("a")})
    with pytest.raises(DtdError, match="undeclared"):
        validate_no_useless(d)


def test_validate_rejects_unreachable():
    d = parse_dtd("root r\nr := a\na := eps\nb := eps\n")
    with pytest.raises(DtdError, match="unreachable.*b"):
        validate_no_useless(d)


def test_validate_rejects_labels_without_finite_trees():
    d = parse_dtd("root r\nr := a\na := a\n")
    with pytest.raises(DtdError, match="finite"):
        validate_no_useless(d)


def _validate_by_fixpoint(d):
    """The productivity check as a rescan until nothing changes: the
    reference the worklist in validate_no_useless must agree with."""
    reachable = {d.root}
    frontier = [d.root]
    while frontier:
        lbl = frontier.pop()
        for s in symbols(d.model(lbl)):
            if s not in d.rules:
                raise DtdError(f"model of {lbl!r} uses undeclared label {s!r}")
            if s not in reachable:
                reachable.add(s)
                frontier.append(s)
    unreachable = [lbl for lbl in d.labels if lbl not in reachable]
    if unreachable:
        raise DtdError(f"unreachable labels: {', '.join(sorted(unreachable))}")
    productive: set[str] = set()
    changed = True
    while changed:
        changed = False
        for lbl in d.labels:
            if lbl not in productive and dtd_module._some_word_within(
                d.model(lbl), productive
            ):
                productive.add(lbl)
                changed = True
    dead = [lbl for lbl in d.labels if lbl not in productive]
    if dead:
        raise DtdError(f"labels with no finite tree: {', '.join(sorted(dead))}")


def _outcome(check, d):
    try:
        check(d)
    except DtdError as exc:
        return str(exc)
    return None


def test_validate_worklist_agrees_with_fixpoint():
    rng = random.Random(1308)
    labels = ("r", "a", "b", "c", "d")
    outcomes = set()
    for _ in range(400):
        # arbitrary models over the declared labels plus, now and then, an
        # undeclared one: some DTDs pass, others have unreachable, dead or
        # undeclared labels
        alphabet = labels + ("z",) if rng.random() < 0.1 else labels
        rules = {lbl: random_content_model(rng, alphabet, depth=2) for lbl in labels}
        d = Dtd("r", rules)
        want = _outcome(_validate_by_fixpoint, d)
        assert _outcome(validate_no_useless, d) == want, rules
        outcomes.add(want.split(":")[0] if want else None)
    for _ in range(100):
        d = random_mdf_dc_dtd(rng)
        assert _outcome(validate_no_useless, d) is None
        assert _outcome(_validate_by_fixpoint, d) is None
    assert {None, "unreachable labels", "labels with no finite tree"} <= outcomes


def _subexprs(e):
    yield e
    match e:
        case Concat(items) | Disj(items):
            for it in items:
                yield from _subexprs(it)
        case Star(item) | Opt(item) | Plus(item):
            yield from _subexprs(item)
        case Hash(left, right):
            for it in left + right:
                yield from _subexprs(it)


def test_validate_productivity_is_linear_on_a_top_down_chain(monkeypatch):
    # x0 := x1, x1 := x2, ..., declared top-down: a rescan until fixpoint
    # learns one label per pass, the worklist one label per check
    n = 200
    rules = {f"x{i}": Symbol(f"x{i + 1}") for i in range(n - 1)}
    rules[f"x{n - 1}"] = Epsilon()
    d = Dtd("x0", rules)
    calls = 0
    original = dtd_module._some_word_within

    def counted(e, allowed):
        nonlocal calls
        calls += 1
        return original(e, allowed)

    monkeypatch.setattr(dtd_module, "_some_word_within", counted)
    validate_no_useless(d)
    total = sum(len(list(_subexprs(e))) for e in rules.values())
    assert calls <= 2 * total
    calls = 0
    _validate_by_fixpoint(d)
    assert calls > 10 * total  # the reference really is quadratic here


def test_min_heights_match_the_rescan():
    rng = random.Random(4411)
    labels = ("r", "a", "b", "c", "d")
    seen: set[int] = set()
    for _ in range(400):
        # models with ?, +, #, stars and, now and then, an undeclared label;
        # some labels head no finite tree
        alphabet = labels + ("z",) if rng.random() < 0.1 else labels
        rules = {lbl: random_content_model(rng, alphabet, depth=2) for lbl in labels}
        d = Dtd("r", rules)
        got = min_heights(d)
        assert got == reference_min_heights(d), rules
        seen.update(got.values())
    for _ in range(50):
        d = random_recursive_mdf_dc_dtd(rng)
        assert min_heights(d) == reference_min_heights(d), d.rules
    assert {-1, 1, 2, 3} <= seen, seen
    assert oracle_module.min_heights is min_heights


# --- native format ----------------------------------------------------------------

def test_parse_dtd_worked_example():
    d = parse_dtd(WORKED)
    assert d.root == "r"
    assert d.labels == ("r", "a", "b", "c")
    assert render(d.model("r")) == "r*(a*b|c)r*"
    assert d.model("a") == Epsilon()
    assert d.model("b") == Symbol("a")


def test_parse_dtd_first_rule_is_root_without_directive():
    d = parse_dtd("b := eps\na := b\n")
    assert d.root == "b"


def test_parse_dtd_comments_and_blank_lines():
    # whole-line comments are skipped; a mid-line '#' is the either-or-both
    # operator, not a comment
    d = parse_dtd("# heading\n\nroot r\nr := a#b\n\na := eps\nb := eps\n")
    assert d.model("r") == Hash((Symbol("a"),), (Symbol("b"),))
    assert d.labels == ("r", "a", "b")


def test_parse_dtd_errors():
    with pytest.raises(ParseError, match="duplicate"):
        parse_dtd("root r\nr := a\na := eps\na := eps\n")
    with pytest.raises(ParseError):
        parse_dtd("root r\nroot r\nr := eps\n")
    with pytest.raises(ParseError):
        parse_dtd("eps := a\n")
    with pytest.raises(ParseError, match="undeclared|cannot split"):
        parse_dtd("root r\nr := q\n")


def test_render_dtd_round_trip():
    assert render_dtd(parse_dtd(WORKED)) == WORKED
    d = parse_dtd("x := y*\ny := eps\n")
    assert parse_dtd(render_dtd(d)).rules == d.rules


@pytest.mark.parametrize("d", [
    parse_dtd("r := e p s\ne := eps\np := eps\ns := eps\n"),
    parse_dtd("r := a b ab\na := eps\nb := eps\nab := eps\n"),
    parse_xml_dtd("<!ELEMENT root (a*)> <!ELEMENT a EMPTY>"),
])
def test_render_dtd_reads_back_as_the_same_dtd(d):
    assert parse_dtd(render_dtd(d)) == d


def test_native_reader_takes_an_element_named_root():
    d = parse_dtd("root root\nroot := a*\na := eps\n")
    assert (d.root, d.labels) == ("root", ("root", "a"))
    assert parse_dtd("a := root?\nroot := eps\n").labels == ("a", "root")


_POSTFIX = {Star: "*", Opt: "?", Plus: "+"}


def _comma_text(e):
    """e written fully parenthesized with commas, so no run is juxtaposed."""
    match e:
        case Epsilon():
            return "eps"
        case Symbol(name):
            return name
        case Concat(items):
            return "(" + ",".join(map(_comma_text, items)) + ")"
        case Disj(items):
            return "(" + "|".join(map(_comma_text, items)) + ")"
        case Star(item) | Opt(item) | Plus(item):
            return f"({_comma_text(item)}){_POSTFIX[type(e)]}"
        case Hash(left, right):
            return f"({','.join(map(_comma_text, left))})#({','.join(map(_comma_text, right))})"


def test_render_dtd_round_trips_parser_output():
    # models as the parser builds them over labels that juxtapose into
    # other labels: e,p,s into the empty word, a,b into ab
    rng = random.Random(17)
    labels = ("root", "e", "p", "s", "a", "b", "ab")
    for _ in range(6000):
        names = rng.sample(labels, rng.randint(1, len(labels)))
        alphabet = frozenset(names)
        rules = {lbl: parse_content_model(_comma_text(random_content_model(rng, names)), alphabet)
                 for lbl in names}
        d = Dtd(rng.choice(names), rules)
        assert parse_dtd(render_dtd(d)) == d, render_dtd(d)


def test_load_dtd_root_override():
    d = load_dtd(WORKED, "native", root="b")
    assert d.root == "b"
    with pytest.raises(ParseError):
        load_dtd(WORKED, "native", root="q")


# --- xml-dtd format ----------------------------------------------------------------

def test_parse_xml_dtd_basic():
    d = parse_xml_dtd("<!ELEMENT r (a)><!-- root: r --><!ELEMENT a EMPTY>")
    assert d.root == "r"
    assert d.model("r") == Symbol("a")
    assert d.model("a") == Epsilon()


def test_parse_xml_dtd_multichar_and_pcdata():
    text = """
    <!-- root: doc -->
    <!ELEMENT doc (title, item*)>
    <!ELEMENT title (#PCDATA)>
    <!ELEMENT item (title?)>
    <!ATTLIST item kind CDATA #IMPLIED>
    """
    d = parse_xml_dtd(text)
    assert d.root == "doc"
    assert d.model("doc") == Concat((Symbol("title"), Star(Symbol("item"))))
    assert d.model("title") == Epsilon()
    assert d.model("item") == Opt(Symbol("title"))


def test_parse_xml_dtd_rejections():
    with pytest.raises(ParseError, match="ANY"):
        parse_xml_dtd("<!-- root: r --><!ELEMENT r ANY>")
    with pytest.raises(ParseError):
        parse_xml_dtd("<!-- root: r --><!ELEMENT r (#PCDATA|a)*><!ELEMENT a EMPTY>")
    with pytest.raises(ParseError):
        parse_xml_dtd('<!ENTITY x "y"><!-- root: r --><!ELEMENT r EMPTY>')


def test_xml_element_named_eps_is_reserved():
    # the native format rejects the name too: `eps` in a model is the empty word
    with pytest.raises(ParseError, match="^'eps' is reserved$"):
        parse_xml_dtd("<!ELEMENT r (eps, a)> <!ELEMENT eps EMPTY> <!ELEMENT a EMPTY>")
    with pytest.raises(ParseError, match="'eps' is reserved"):
        parse_dtd("root r\nr := a\na := eps\neps := eps\n")


@pytest.mark.parametrize("name", ["9r", "9b:c", "-a", ".x", "a:b", "é"])
def test_xml_element_names_follow_the_label_syntax(name):
    # the native format rejects the same names
    with pytest.raises(ParseError, match=re.escape(f"bad label {name!r}")):
        parse_dtd(f"{name} := eps\n")
    with pytest.raises(ParseError, match=re.escape(f"bad label {name!r}")):
        parse_xml_dtd(f"<!ELEMENT {name} EMPTY>")
    assert parse_xml_dtd("<!ELEMENT a.b-9_ EMPTY>").root == "a.b-9_"


def test_parse_xml_dtd_root_resolution():
    text = "<!ELEMENT r (a?)><!ELEMENT a EMPTY>"
    assert parse_xml_dtd(text).root == "r"          # first declaration
    assert parse_xml_dtd(text, root="a").root == "a"
    assert load_dtd(text, "xml-dtd", root="a").root == "a"


# --- both readers -------------------------------------------------------------------

REFUSALS = [
    # xml-dtd: the scan
    ("xml-dtd", "<!-- root: r", "unterminated comment"),
    ("xml-dtd", "<!ELEMENT r EMPTY", "unterminated <!ELEMENT"),
    ("xml-dtd", "<!ELEMENT r EMPTY><!ATTLIST r x CDATA #IMPLIED",
     "unterminated <!ATTLIST"),
    ("xml-dtd", '<!ENTITY x "y"><!ELEMENT r EMPTY>', "entities are not supported"),
    ("xml-dtd", "%x;<!ELEMENT r EMPTY>", "entities are not supported"),
    ("xml-dtd", "<![INCLUDE[<!ELEMENT r EMPTY>]]>",
     "conditional sections are not supported"),
    ("xml-dtd", "<!ELEMENT r EMPTY>\n  junk after the declarations",
     "unexpected content at offset 21: 'junk after the decla'"),
    ("xml-dtd", "<!ELEMENT r>", "malformed element declaration: 'r'"),
    ("xml-dtd", "<!-- root: r -->", "no element declarations"),
    ("xml-dtd", "", "no element declarations"),
    # xml-dtd: names, models and the root
    ("xml-dtd", "<!ELEMENT 9r EMPTY>", "bad label '9r'"),
    ("xml-dtd", "<!ELEMENT r EMPTY><!ELEMENT eps EMPTY>", "'eps' is reserved"),
    ("xml-dtd", "<!ELEMENT r (a)><!ELEMENT a EMPTY><!ELEMENT a EMPTY>",
     "duplicate declaration for 'a'"),
    ("xml-dtd", "<!-- root: q --><!ELEMENT r EMPTY>", "root 'q' has no declaration"),
    ("xml-dtd", "<!ELEMENT r ANY>", "r: ANY content is not supported"),
    ("xml-dtd", "<!ELEMENT r (#PCDATA|a)*><!ELEMENT a EMPTY>",
     "r: mixed content beyond (#PCDATA) is not supported"),
    ("xml-dtd", "<!ELEMENT r (q)>", "r: cannot split 'q' into declared labels"),
    # native: the line scan
    ("native", "root\nr := eps\n", "line 1: malformed root directive"),
    ("native", "r := eps\nroot a b\n", "line 2: malformed root directive"),
    ("native", "root r\nroot r\nr := eps\n", "line 2: duplicate root directive"),
    ("native", "root r\nr = eps\n", "line 2: expected '<label> := <model>'"),
    ("native", "", "DTD declares no rules"),
    ("native", "# only a comment\nroot r\n", "DTD declares no rules"),
    # native: names, models and the root
    ("native", "# c\n9r := eps\n", "line 2: bad label '9r'"),
    ("native", "r := a\n\neps := eps\n", "line 3: 'eps' is reserved"),
    ("native", "root r\nr := a\na := eps\na := eps\n", "duplicate rule for 'a'"),
    ("native", "root q\nr := eps\n", "root 'q' has no rule"),
    ("native", "root r\nr := q\n", "cannot split 'q' into declared labels"),
]


@pytest.mark.parametrize("fmt,text,message", REFUSALS)
def test_reader_refusals(fmt, text, message):
    read = parse_dtd if fmt == "native" else parse_xml_dtd
    for refuse in (lambda: read(text), lambda: load_dtd(text, fmt)):
        with pytest.raises(ParseError) as info:
            refuse()
        assert str(info.value) == message


@pytest.mark.parametrize("fmt,text,noun", [
    ("native", "r := eps\n", "rule"),
    ("xml-dtd", "<!ELEMENT r EMPTY>", "declaration"),
])
def test_root_override_with_no_rule_is_refused(fmt, text, noun):
    with pytest.raises(ParseError) as info:
        load_dtd(text, fmt, root="q")
    assert str(info.value) == f"root 'q' has no {noun}"


@pytest.mark.parametrize("refuse,error,message", [
    (lambda: load_dtd("root r\nr := eps\n", fmt="sgml"), ParseError, "unknown DTD format 'sgml'"),
    (lambda: Dtd("x", {}), DtdError, "root 'x' has no rule"),
])
def test_api_refusals(refuse, error, message):
    with pytest.raises(error) as info:
        refuse()
    assert str(info.value) == message


def _as_xml(d):
    return f"<!-- root: {d.root} -->\n" + "".join(
        f"<!ELEMENT {lbl} {render(d.model(lbl))}>\n" for lbl in d.labels
    )


def test_both_readers_agree_on_random_dtds():
    rng = random.Random(5)
    labels = ("r", "a", "b", "c", "d")
    dtds = [dense_dtd(n) for n in (1, 3, 12)]
    for _ in range(100):
        dtds.append(random_mdf_dc_dtd(rng))
        dtds.append(random_recursive_mdf_dc_dtd(rng))
        rules = {lbl: random_content_model(rng, labels) for lbl in labels}
        dtds.append(Dtd(rng.choice(labels), rules))
    for d in dtds:
        native = parse_dtd(render_dtd(d))
        assert native == parse_xml_dtd(_as_xml(d)) == load_dtd(_as_xml(d), "xml-dtd")
        assert (native.root, native.labels) == (d.root, d.labels)


def test_pickles_and_copies_carry_only_the_declaration():
    d = parse_dtd(WORKED)
    size = len(pickle.dumps(d))
    q = parse_xpath("↓::r/→⁺::b[↓::a]")
    sat = satisfiable(d, q).sat
    witness = render_tree(oracle_satisfiable(d, q, 3, 2))
    assert len(pickle.dumps(d)) == size
    for other in (pickle.loads(pickle.dumps(d)), copy.copy(d), copy.deepcopy(d)):
        assert other == d and set(vars(other)) == {"root", "rules", "order"}
        assert satisfiable(other, q).sat is sat
        assert render_tree(oracle_satisfiable(other, q, 3, 2)) == witness


def test_class_walkers_match_their_earlier_forms():
    rng = random.Random(27)
    mrw = 0
    for _ in range(2_000):
        e = random_content_model(rng, depth=4)
        # dc_convert reads a factor's labels in first-occurrence order
        assert list(symbol_counts(e).items()) == list(reference_symbol_counts(e).items())
        want = reference_classify_model(e)
        assert classify_model(e) == want, render(e)
        if want["mrw"]:
            mrw += 1
            d = delta(e)
            assert classify_model(d) == reference_classify_model(d)
            assert classify_model(d)["mdf_dc"], render(e)
    assert mrw > 1_000, mrw


def test_operands_name_a_models_parts_in_order():
    a, b, c = Symbol("a"), Symbol("b"), Symbol("c")
    assert operands(a) == operands(Epsilon()) == ()
    assert operands(Concat((a, b))) == operands(Disj((a, b))) == (a, b)
    assert operands(Star(a)) == operands(Opt(a)) == operands(Plus(a)) == (a,)
    assert operands(Hash((a, b), (c,))) == (a, b, c)
    with pytest.raises(TypeError):
        operands("a")
