"""Query parsing, rendering, sizing, fragment routing."""

from __future__ import annotations

import random

from hypothesis import given, strategies as st

import pytest

from xpathsat import ParseError, fragment_of, normalize, parse_xpath, render_xpath, size
from xpathsat.content_model import LABEL_START
from xpathsat.xpath import (
    Axis, QAnd, QOr, QPath, Qual, Seq, Step, Union, _tokenize, features, operands,
)

from gens import _flat, _qualified, random_full_query
from support import (
    reference_features, reference_fragment_of, reference_normalize, reference_parse_xpath,
    reference_size, reference_tokenize,
)


# ------------------------------------------------------------------- parsing


def test_parse_step_with_qualifier():
    got = parse_xpath("child::r/fsib::b[child::a]")
    want = Seq((
        Step(Axis.CHILD, "r"),
        Qual(Step(Axis.FSIB, "b"), (QPath(Step(Axis.CHILD, "a")),)),
    ))
    assert got == want


def test_parse_single_step():
    assert parse_xpath("child::a") == Step(Axis.CHILD, "a")
    assert parse_xpath("parent::x") == Step(Axis.PARENT, "x")


def test_arrow_aliases():
    pairs = [
        ("↓::a", "child::a"),
        ("↑::a", "parent::a"),
        ("↓*::a", "desc-or-self::a"),
        ("↑*::a", "anc-or-self::a"),
        ("→⁺::a", "fsib::a"),
        ("←⁺::a", "psib::a"),
        ("→+::a", "fsib::a"),
        ("←+::a", "psib::a"),
    ]
    for alias, plain in pairs:
        assert parse_xpath(alias) == parse_xpath(plain)


def test_union_aliases():
    a = parse_xpath("↓::a ∪ ↓::b")
    b = parse_xpath("child::a |u| child::b")
    assert a == b == Union((Step(Axis.CHILD, "a"), Step(Axis.CHILD, "b")))
    # `∪` is associative: a parenthesized union splices in
    flat = Union(tuple(Step(Axis.CHILD, x) for x in "abc"))
    assert parse_xpath("↓::a ∪ (↓::b ∪ ↓::c)") == flat
    assert parse_xpath("(↓::a ∪ ↓::b) ∪ ↓::c") == flat
    assert parse_xpath("↓::a ∪ ↓::b ∪ ↓::c") == flat


def test_grouping():
    # `/` is associative: grouped and flat forms are one flat Seq
    got = parse_xpath("(↓::r/→⁺::b)/(↓::a/↑::b)")
    want = Seq((
        Step(Axis.CHILD, "r"), Step(Axis.FSIB, "b"),
        Step(Axis.CHILD, "a"), Step(Axis.PARENT, "b"),
    ))
    assert got == want
    assert parse_xpath("↓::r/→⁺::b/↓::a/↑::b") == want


def _q(label):
    return QPath(Step(Axis.CHILD, label))


def test_qualifier_chain_right_associative():
    # `and` and `or` bind equally and group to the right; a run of one
    # connective is one node
    b, c, d = _q("b"), _q("c"), _q("d")
    got = parse_xpath("↓::a[↓::b and ↓::c and ↓::d]")
    assert got.quals == (QAnd((b, c, d)),)
    got2 = parse_xpath("↓::a[↓::b or ↓::c and ↓::d]")
    assert got2.quals == (QOr((b, QAnd((c, d)))),)
    got3 = parse_xpath("↓::a[↓::b and ↓::c or ↓::d]")
    assert got3.quals == (QAnd((b, QOr((c, d)))),)


def test_stacked_qualifiers():
    want = Qual(Step(Axis.CHILD, "a"), (_q("b"), _q("c")))
    assert parse_xpath("↓::a[↓::b][↓::c]") == want
    # a qualified group followed by more qualifiers is one stack
    assert parse_xpath("(↓::a[↓::b])[↓::c]") == want


@pytest.mark.parametrize(
    "bad",
    ["", "child::a[", "child::", "::a", "child::a/", "(child::a", "child::a]",
     "child::a |u|", "↓::a[and ↓::b]", "foo::a"],
)
def test_parse_errors(bad):
    with pytest.raises(ParseError):
        parse_xpath(bad)


@pytest.mark.parametrize(
    "bad,message",
    [
        ("↓::a[]", "expected a step, got ']'"),
        ("↓::a//↓::b", "expected a step, got '/'"),
        ("()", "expected a step, got ')'"),
        ("↓::a[↓::b and]", "expected a step, got ']'"),
        # a label-shaped token where an axis belongs is an unknown axis
        ("foo::a", "unknown axis 'foo'"),
    ],
)
def test_parse_error_names_what_stands_where_a_step_belongs(bad, message):
    with pytest.raises(ParseError) as exc:
        parse_xpath(bad)
    assert str(exc.value) == message


# single characters, plus whole tokens so that many strings lex cleanly
_LEX_ALPHABET = list("↓↑→←∪⁺+*:|u/[]()0123456789.-_abrxZ \t\n\x1cé!") + [
    "::", "|u|", "↓*", "→⁺", "←+", "child", "and", "x.1-b",
]


def _lex(lexer, text):
    try:
        return lexer(text)
    except ParseError as exc:
        return f"ParseError: {exc}"


def test_tokenize_matches_the_reference_lexer():
    rng = random.Random(2024)
    outcomes = {"tokens": 0, "error": 0}
    for _ in range(20_000):
        text = "".join(rng.choices(_LEX_ALPHABET, k=rng.randint(0, 12)))
        got = _lex(_tokenize, text)
        assert got == _lex(reference_tokenize, text), repr(text)
        outcomes["error" if isinstance(got, str) else "tokens"] += 1
    assert min(outcomes.values()) > 2_000, outcomes


# whole steps, well formed or nearly so, that the lexer reads whole or not
_STEP_PIECES = ["↓::a", "child :: r", "→+::b[", "childx::a", "↓::a::b", "/"]


def _pieced_query(rng) -> str:
    """Step pieces, the well-formed ones more often, joined mostly by `/` and
    otherwise by an item of _LEX_ALPHABET; a qualifier that a piece opens is
    mostly given one piece and closed."""
    def piece() -> str:
        return rng.choices(_STEP_PIECES, [3, 3, 2, 1, 1, 1])[0]

    out: list[str] = []
    for i in range(rng.randint(1, 6)):
        if i:
            out.append("/" if rng.random() < 0.8 else rng.choice(_LEX_ALPHABET))
        out.append(piece())
        if out[-1].endswith("[") and rng.random() < 0.8:
            out.append(piece() + "]")
    return "".join(out)


def _parsed(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return f"ParseError: {exc}"


def _reference_parsed(text):
    """The reference parser's outcome, in the one wording that changed: a
    token that cannot start a label is no unknown axis but no step at all."""
    got = _parsed(reference_parse_xpath, text)
    if isinstance(got, str) and got.startswith("ParseError: unknown axis "):
        tok = got.removeprefix("ParseError: unknown axis ")
        if tok[1] not in LABEL_START:  # tok is a repr, quotes included
            return f"ParseError: expected a step, got {tok}"
    return got


def test_parser_matches_the_reference_parser():
    rng = random.Random(515)
    texts = [_pieced_query(rng) for _ in range(20_000)]
    for _ in range(1_000):
        p = random_full_query(rng, ["a", "r", "x.1-b"])
        texts += [render_xpath(p), render_xpath(p, arrows=True)]
    clean = 0
    for text in texts:
        got = _parsed(parse_xpath, text)
        assert got == _reference_parsed(text), repr(text)
        clean += not isinstance(got, str)
    assert clean > 4_000, clean


def test_a_chain_shares_its_steps_and_normalizes_to_itself():
    p = parse_xpath("/".join(["↓::r"] * 10_000))
    assert len({id(s) for s in p.steps}) == 1
    assert normalize(p) is p


# whole steps in every spelling of one step, whitespace a step may hold
# around `::` and `/`, and pieces that are not one whole step
_CHAIN_STEPS = ["child::r", "↓::r", "→+::b", "→⁺::b", "fsib::b"]
_CHAIN_SPACES = ["", "", "", " ", "\t", "\n", "\x1c"]
_NOT_A_STEP = ["foo::a", "↓::a::b", "↓::", "↓::and", "↓::a[↓::b]", "|u|", ""]


def _chain_text(rng) -> str:
    """Steps joined by `/`, spaced at random, with at most one piece that is
    not a whole step and sometimes an empty piece at either end."""
    def space() -> str:
        return rng.choice(_CHAIN_SPACES)

    def step() -> str:
        axis, label = rng.choice(_CHAIN_STEPS).split("::")
        return f"{space()}{axis}{space()}::{space()}{label}{space()}"

    pieces = [step() for _ in range(rng.randint(1, 8))]
    if rng.random() < 0.5:
        pieces.insert(rng.randint(0, len(pieces)), rng.choice(_NOT_A_STEP))
    return "/".join(pieces)


def test_a_chain_parses_as_the_reference_parser_reads_it():
    rng = random.Random(31)
    clean = 0
    for _ in range(5_000):
        text = _chain_text(rng)
        got = _parsed(parse_xpath, text)
        assert got == _reference_parsed(text), repr(text)
        clean += not isinstance(got, str)
    assert 1_500 < clean < 4_000, clean


def test_equal_steps_spelled_apart_are_one_step():
    rng = random.Random(31)
    p = parse_xpath("/".join(rng.choice(["child::r", "↓::r", " ↓ :: r\t"]) for _ in range(100_000)))
    assert p == Seq((Step(Axis.CHILD, "r"),) * 100_000)
    assert len({id(s) for s in p.steps}) == 1
    p = parse_xpath("/".join(rng.choice(["→+::b", "→⁺::b", "fsib::b", "↓::r"]) for _ in range(100_000)))
    assert len({id(s) for s in p.steps}) == 2


# ----------------------------------------------------------------- rendering


def test_render_plain_and_arrows():
    p = parse_xpath("↓*::a/↑*::b ∪ ↓::c")
    assert render_xpath(p) == "desc-or-self::a/anc-or-self::b|u|child::c"
    assert render_xpath(p, arrows=True) == "↓*::a/↑*::b|u|↓::c"


def test_render_grouped_tail():
    p = parse_xpath("(↓::r/→⁺::b)/(↓::a/↑::b)")
    assert render_xpath(p, arrows=True) == "↓::r/→⁺::b/↓::a/↑::b"
    # a union group and a qualified group keep their parentheses
    for q in ["(↓::a ∪ ↓::b)/↓::c", "(↓::a/↓::b)[↓::c]"]:
        p = parse_xpath(q)
        assert render_xpath(p, arrows=True) == q.replace(" ∪ ", "|u|")
        assert parse_xpath(render_xpath(p, arrows=True)) == p


def test_render_qualifier_chain():
    p = parse_xpath("↓::a[↓::b and ←⁺::c or ↓::d]")
    assert render_xpath(p, arrows=True) == "↓::a[↓::b and ←⁺::c or ↓::d]"


def test_render_refuses_a_connective_no_text_groups():
    x, y, z = (QPath(Step(Axis.CHILD, lbl)) for lbl in "xyz")
    # `and` and `or` group to the right, so `x and y or z` is x and (y or z)
    for q in [QOr((QAnd((x, y)), z)), QAnd((QOr((x, y)), z))]:
        with pytest.raises(ValueError):
            render_xpath(Qual(Step(Axis.CHILD, "a"), (q,)))
    # a connective as the last operand is what the text means
    p = Qual(Step(Axis.CHILD, "a"), (QOr((z, QAnd((x, y)))),))
    assert render_xpath(p, arrows=True) == "↓::a[↓::z or ↓::x and ↓::y]"
    assert parse_xpath(render_xpath(p)) == p


def test_rendered_queries_read_back_or_are_refused():
    rng = random.Random(27)
    refused = 0
    for _ in range(2_000):
        p = random_full_query(rng, ["a", "r", "x.1-b"], depth=3)
        for arrows in (False, True):
            try:
                text = render_xpath(p, arrows)
            except ValueError:
                refused += 1
                continue
            assert parse_xpath(text) == p, text
    # 43 draws nest a connective before the last operand of another
    assert refused == 2 * 43


_labels = st.sampled_from(["a", "b", "c", "r"])
_axes = st.sampled_from(list(Axis))


def _seq(left, right):
    """left/right as the parser builds it: one flat Seq of both sides' parts."""
    parts = [x for p in (left, right) for x in (p.steps if isinstance(p, Seq) else (p,))]
    return Seq(tuple(parts))


def _connected(operands, ands):
    """The operands joined by `and` (where ands says so) or `or`, as the
    parser builds them: grouped to the right, a run of one connective one node."""
    q = operands[-1]
    for op, is_and in zip(operands[-2::-1], ands):
        kind = QAnd if is_and else QOr
        q = kind((op, *q.items)) if isinstance(q, kind) else kind((op, q))
    return q


def _paths():
    steps = st.builds(Step, _axes, _labels)
    return st.recursive(
        steps,
        lambda kids: st.one_of(
            st.builds(_seq, kids, kids),
            st.builds(_flat, st.just(Union), kids, kids),
            st.builds(_qualified, kids, st.builds(QPath, kids)),
            st.builds(
                _qualified,
                kids,
                st.builds(
                    _connected,
                    st.lists(st.builds(QPath, kids), min_size=2, max_size=4),
                    st.lists(st.booleans(), min_size=3, max_size=3),
                ),
            ),
        ),
        max_leaves=8,
    )


@given(_paths())
def test_parse_render_identity(p):
    assert parse_xpath(render_xpath(p)) == p
    assert parse_xpath(render_xpath(p, arrows=True)) == p


# ---------------------------------------------------------------------- size


def test_size_counts_steps_and_qualifiers():
    assert size(parse_xpath("↓::a")) == 1
    assert size(parse_xpath("(↓::r/→⁺::b)/(↓::a/↑::b)")) == 4
    assert size(parse_xpath("↓::r/→⁺::b[↓::a]")) == 3
    assert size(parse_xpath("↓::a ∪ ↓::b")) == 2
    assert size(parse_xpath("↓::a[↓::b and ↓::c or ↓::d]")) == 4


def test_walkers_match_their_earlier_forms():
    rng = random.Random(27)
    for _ in range(2_000):
        p = random_full_query(rng, ["a", "r", "x.1-b"], depth=3)
        for x in (p, QPath(p)):
            assert size(x) == reference_size(x)
            assert features(x)[0] == reference_features(x)[0]
            # no caller reads whether Step itself is a node type
            assert features(x)[1] == reference_features(x)[1] - {Step}
        assert fragment_of(p) == reference_fragment_of(p)
        want = reference_normalize(p)
        assert normalize(p) == want
        assert (normalize(p) is p) == (want is p)


def test_operands_name_a_nodes_parts_in_order():
    a, b = Step(Axis.CHILD, "a"), Step(Axis.FSIB, "b")
    q = QPath(b)
    assert operands(a) == ()
    assert operands(Seq((a, b))) == operands(Union((a, b))) == (a, b)
    assert operands(Qual(a, (q, QAnd((q, q))))) == (a, q, QAnd((q, q)))
    assert operands(q) == (b,)
    with pytest.raises(TypeError):
        operands("↓::a")


# ----------------------------------------------------------------- fragments


@pytest.mark.parametrize(
    "q,frag",
    [
        ("(↓::r/→⁺::b)/(↓::a/↑::b)", "eval1"),
        ("↓::a", "eval1"),
        ("↑::a/←⁺::b", "eval1"),
        ("↓::r/→⁺::b[↓::a]", "eval2"),
        ("←⁺::a[←⁺::b]", "eval2"),
        ("↓::a[↓::b and ↓::c]", "eval2"),
        ("↓::a ∪ ↓::b", "full"),
        ("↓*::a", "full"),
        ("↑*::a", "full"),
        ("↓::a[↓::b]/↑::r", "full"),  # parent after a qualifier
        ("↓::a[↓::b or ↓::c]", "full"),  # disjunctive qualifier
        ("↓::a[↓::b ∪ ↓::c]", "full"),  # union inside a qualifier
    ],
)
def test_fragment_of(q, frag):
    assert fragment_of(parse_xpath(q)) == frag


# ----------------------------------------------------------------- normalize


def test_normalize_splits_conjunctions():
    p = parse_xpath("↓::a[↓::b and ↓::c]")
    assert normalize(p) == parse_xpath("↓::a[↓::b][↓::c]")


def test_normalize_flattens_chains():
    p = parse_xpath("↓::a[↓::b and ↓::c and ↓::d]")
    assert render_xpath(normalize(p), arrows=True) == "↓::a[↓::b][↓::c][↓::d]"


def test_normalize_keeps_disjunctions():
    p = parse_xpath("↓::a[↓::b or ↓::c and ↓::d]")
    assert normalize(p) == p


def test_normalize_recurses_into_sequences():
    p = parse_xpath("↓::a[↓::b and ↓::c]/↓::d")
    assert render_xpath(normalize(p), arrows=True) == "↓::a[↓::b][↓::c]/↓::d"


def test_normalize_preserves_fragment():
    for q in ["↓::r/→⁺::b[↓::a]", "↓::a[↓::b and ↓::c]", "↓::a"]:
        p = parse_xpath(q)
        assert fragment_of(normalize(p)) == fragment_of(p)
