"""Content-model parsing, rendering, and the word-level machinery.

The matcher and enumerator are cross-checked against a split-point
recursion written here from the operator definitions, so the automaton
code never vouches for itself.
"""

import random

import pytest
from hypothesis import given, strategies as st

from xpathsat import (
    Concat, Disj, Epsilon, Hash, Opt, ParseError, Plus, Star, Symbol,
    equivalence_counterexample, equivalent, expand_hash,
    matches, parse_content_model, render,
)
from xpathsat.content_model import (
    _segment, concat_of, disj_of, symbol_counts, symbols, tokenize,
)

from support import (
    enumerate_words, reference_content_lexer, reference_segment,
    subsequence_matches, subsequence_preserves,
)


def _concat_match(items, w) -> bool:
    if not items:
        return w == ()
    return any(
        _lang(items[0], w[:i]) and _concat_match(items[1:], w[i:])
        for i in range(len(w) + 1)
    )


def _lang(e, w) -> bool:
    """Membership by brute-force split points, straight off the operator
    meanings."""
    if isinstance(e, Epsilon):
        return w == ()
    if isinstance(e, Symbol):
        return w == (e.name,)
    if isinstance(e, Concat):
        return _concat_match(list(e.items), w)
    if isinstance(e, Disj):
        return any(_lang(b, w) for b in e.items)
    if isinstance(e, Star):
        if w == ():
            return True
        return any(
            _lang(e.item, w[:i]) and _lang(e, w[i:])
            for i in range(1, len(w) + 1)
        )
    if isinstance(e, Opt):
        return w == () or _lang(e.item, w)
    if isinstance(e, Plus):
        return any(
            _lang(e.item, w[:i]) and _lang(Star(e.item), w[i:])
            for i in range(len(w) + 1)
        )
    lefts, rights = list(e.left), list(e.right)
    return (
        _concat_match(lefts + [Opt(b) for b in rights], w)
        or _concat_match([Opt(a) for a in lefts] + rights, w)
    )


def _all_words(alphabet, max_len):
    frontier = [()]
    for w in frontier:
        yield w
        if len(w) < max_len:
            frontier.extend(w + (s,) for s in alphabet)


def _nonempty(e):
    return Symbol("a") if isinstance(e, Epsilon) else e


def _operands(e):
    # a parenthesized operand group is always splat into the # tuple, so a
    # Concat can only ever appear there pre-flattened
    e = _nonempty(e)
    return e.items if isinstance(e, Concat) else (e,)


models = st.recursive(
    st.sampled_from([Epsilon(), Symbol("a"), Symbol("b"), Symbol("c")]),
    lambda kids: st.one_of(
        st.lists(kids, min_size=2, max_size=3).map(concat_of),
        st.lists(kids, min_size=2, max_size=3).map(disj_of),
        kids.map(Star),
        kids.map(Opt),
        kids.map(Plus),
        st.tuples(kids, kids).map(
            lambda t: Hash(_operands(t[0]), _operands(t[1]))
        ),
    ),
    max_leaves=6,
)


# --- parsing ------------------------------------------------------------------

def test_parse_shapes():
    a, b, c = Symbol("a"), Symbol("b"), Symbol("c")
    assert parse_content_model("a*(b|c)a*") == Concat(
        (Star(a), Disj((b, c)), Star(a))
    )
    assert parse_content_model("(a,b)#(c)") == Hash((a, b), (c,))
    assert parse_content_model("a#b") == Hash((a,), (b,))
    assert parse_content_model("eps") == Epsilon()
    assert parse_content_model("(eps|a)") == Disj((Epsilon(), a))
    assert parse_content_model("a?b+") == Concat((Opt(a), Plus(b)))


def test_comma_and_juxtaposition_agree():
    assert parse_content_model("ab") == parse_content_model("a,b")
    al = frozenset({"item", "seq"})
    two = Concat((Symbol("item"), Symbol("seq")))
    assert parse_content_model("item,seq", al) == two
    assert parse_content_model("itemseq", al) == two
    assert render(two) == "item,seq"


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_content_model("")
    with pytest.raises(ParseError):
        parse_content_model("a|")
    with pytest.raises(ParseError):
        parse_content_model("(a")
    with pytest.raises(ParseError, match="alphabet"):
        parse_content_model("a1b")  # digit cannot stand alone charwise
    with pytest.raises(ParseError, match="cannot split|undeclared"):
        parse_content_model("ab", frozenset({"a"}))
    assert parse_content_model("a1b", frozenset({"a1b"})) == Symbol("a1b")


# single characters, whitespace among them, plus whole tokens so that many
# strings lex cleanly
_LEX_ALPHABET = list("()|,*?+#aZ_09.- \t\n\x1c\x85\xa0\u3000é!") + [
    "eps", "item", "x.1-b",
]


def _lex(lexer, text):
    try:
        return lexer(text)
    except ParseError as exc:
        return f"ParseError: {exc}"


def test_tokenize_matches_the_reference_lexer():
    rng = random.Random(2026)
    outcomes = {"tokens": 0, "error": 0}
    for _ in range(20_000):
        text = "".join(rng.choices(_LEX_ALPHABET, k=rng.randint(0, 12)))
        got = _lex(tokenize, text)
        assert got == _lex(reference_content_lexer, text), repr(text)
        outcomes["error" if isinstance(got, str) else "tokens"] += 1
    assert min(outcomes.values()) > 2_000, outcomes


def test_segment_matches_the_backtracking_split():
    rng = random.Random(1119)
    outcomes = {"split": 0, "error": 0}
    for _ in range(20_000):
        alphabet = frozenset(
            "".join(rng.choices("ab", k=rng.randint(1, 3)))
            for _ in range(rng.randint(1, 4))
        )
        run = "".join(rng.choices("ab", k=rng.randint(1, 9)))
        got = _lex(lambda r: _segment(r, alphabet), run)
        assert got == _lex(lambda r: reference_segment(r, alphabet), run), (run, alphabet)
        outcomes["error" if isinstance(got, str) else "split"] += 1
    assert min(outcomes.values()) > 2_000, outcomes


def test_long_label_run_splits():
    # the backtracking split recursed once per label and overflowed here
    e = parse_content_model("a" * 3_000, frozenset({"a", "aa"}))
    assert e == Concat((Symbol("aa"),) * 1_500)


class _CountingAlphabet(frozenset):
    def __contains__(self, label):
        self.lookups += 1
        return super().__contains__(label)


def test_unsplittable_label_run_fails_fast():
    # the backtracking split tried about 1.6**n ways to split this run
    run = "a" * 200 + "x"
    alphabet = _CountingAlphabet({"a", "aa"})
    alphabet.lookups = 0
    with pytest.raises(ParseError, match=f"cannot split '{run}' into declared labels"):
        parse_content_model(run, alphabet)
    assert alphabet.lookups <= 3 * len(run)


def test_render_fixpoints():
    for s in [
        "a*(b|c)a*", "(a|b)*ca+", "a?b?b?c", "a|aa", "eps",
        "a(b|c)*", "(a|b)c*", "(a|b)c", "a*ba", "r*(a*b|c)r*",
        "(a|b)*(c(a|b)*(d(a|b)*)?|d(a|b)*c(a|b)*)",
    ]:
        assert render(parse_content_model(s)) == s


@given(models)
def test_parse_render_identity(e):
    assert parse_content_model(render(e)) == e


# --- membership ---------------------------------------------------------------

@given(models)
def test_matches_agrees_with_split_point_recursion(e):
    for w in _all_words(("a", "b", "c"), 4):
        assert matches(e, w) == _lang(e, w), (render(e), w)


def test_matches_goldens():
    e = parse_content_model("r*(a*b|c)r*")
    assert matches(e, ("r", "a", "a", "b"))
    assert not matches(e, ("r", "a", "a", "b", "c"))
    assert matches(Epsilon(), ())


@given(models)
def test_enumerate_words_exact(e):
    got = enumerate_words(e, 3)
    want = sorted(
        (w for w in _all_words(tuple(sorted(symbols(e))), 3) if _lang(e, w)),
        key=lambda w: (len(w), w),
    )
    assert got == want


def test_enumerate_words_goldens():
    assert enumerate_words(parse_content_model("a*"), 2) == [
        (), ("a",), ("a", "a")]
    assert enumerate_words(parse_content_model("a#b"), 2) == [
        ("a",), ("b",), ("a", "b")]
    assert enumerate_words(parse_content_model("r*(a*b|c)r*"), 1) == [
        ("b",), ("c",)]


@given(models)
def test_language_never_empty(e):
    bound = sum(symbol_counts(e).values())
    assert enumerate_words(e, bound)


# --- hash expansion -------------------------------------------------------------

def test_expand_hash_golden():
    a, b = Symbol("a"), Symbol("b")
    assert expand_hash(Hash((a,), (b,))) == Disj(
        (Concat((a, Opt(b))), Concat((Opt(a), b)))
    )


def test_hash_word_set():
    e = parse_content_model("(ab)#(cd)")
    assert enumerate_words(e, 4) == [
        ("a", "b"), ("c", "d"),
        ("a", "b", "c"), ("a", "b", "d"), ("a", "c", "d"), ("b", "c", "d"),
        ("a", "b", "c", "d"),
    ]


@given(models)
def test_expand_hash_is_hash_free_and_equivalent(e):
    out = expand_hash(e)

    def hash_free(x):
        if isinstance(x, Hash):
            return False
        if isinstance(x, (Concat, Disj)):
            return all(hash_free(i) for i in x.items)
        if isinstance(x, (Star, Opt, Plus)):
            return hash_free(x.item)
        return True

    assert hash_free(out)
    assert equivalent(e, out)


# --- equivalence -----------------------------------------------------------------

def test_equivalent_goldens():
    assert equivalent(parse_content_model("a#b"), parse_content_model("a|b|ab"))
    assert equivalent(
        parse_content_model("ab+|ab+c"), parse_content_model("ab+c?"))
    assert not equivalent(Symbol("a"), Symbol("b"))
    assert equivalence_counterexample(Symbol("a"), Symbol("b")) == ("a",)


@given(models, models)
def test_counterexample_is_shortest_and_distinguishing(e1, e2):
    cex = equivalence_counterexample(e1, e2)
    if cex is None:
        assert enumerate_words(e1, 4) == enumerate_words(e2, 4)
    else:
        assert matches(e1, cex) != matches(e2, cex)
        n = len(cex)
        if n:
            assert enumerate_words(e1, n - 1) == enumerate_words(e2, n - 1)


# --- subsequence closure ----------------------------------------------------------

def _is_subseq(w, w2):
    it = iter(w2)
    return all(s in it for s in w)


def _preserves_brute(e1, e2, max_len, search_len=6):
    def one_way(src, dst):
        return all(
            any(_is_subseq(w, w2) for w2 in enumerate_words(dst, search_len))
            for w in enumerate_words(src, max_len)
        )

    return one_way(e1, e2) and one_way(e2, e1)


def test_subsequence_matches_goldens():
    e = parse_content_model("(ab)*")
    assert subsequence_matches(e, ("b", "a"))
    assert subsequence_matches(e, ("a", "a"))
    assert not subsequence_matches(parse_content_model("ab"), ("b", "a"))


@pytest.mark.parametrize(
    "m1,m2,bound,expected",
    [
        ("a+", "a*", 4, True),
        ("a#b", "ab", 3, True),
        ("ab", "ba", 2, False),
    ],
)
def test_subsequence_preserves_fixtures(m1, m2, bound, expected):
    e1, e2 = parse_content_model(m1), parse_content_model(m2)
    assert subsequence_preserves(e1, e2, bound) is expected
    assert _preserves_brute(e1, e2, bound) is expected
