"""Regular expressions over element labels, as used in DTD content models.

The expression language is the usual one (epsilon, symbols, concatenation,
disjunction, star, option, plus) extended with the either-or-both operator
``(a1,..,am)#(b1,..,bl)``, which requires a word from the left tuple, or from
the right tuple, or from both in order.  Words are sequences of labels, not
characters: the alphabet is the set of element names of a DTD.

Membership, equivalence and word enumeration run on a position automaton
built from the hash-free expansion of an expression, so every operation here
is exact on the whole language, not on samples.  Walkers that only visit
a node's direct parts, such as `symbol_counts`, read them through `operands`.
"""

from __future__ import annotations

import re
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass
from typing import Optional, TypeVar

from .errors import ParseError

Word = tuple[str, ...]
T = TypeVar("T")


# --- AST -------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Epsilon:
    """The empty word."""


@dataclass(frozen=True, slots=True)
class Symbol:
    name: str


@dataclass(frozen=True, slots=True)
class Concat:
    items: tuple["Expr", ...]  # always >= 2 items, none Epsilon, none Concat


@dataclass(frozen=True, slots=True)
class Disj:
    items: tuple["Expr", ...]  # always >= 2 items, none Disj


@dataclass(frozen=True, slots=True)
class Star:
    item: "Expr"


@dataclass(frozen=True, slots=True)
class Opt:
    item: "Expr"


@dataclass(frozen=True, slots=True)
class Plus:
    item: "Expr"


@dataclass(frozen=True, slots=True)
class Hash:
    """Either-or-both over two operand tuples.

    Operands are single items (a parenthesized group contributes its
    top-level concatenation items as separate operands).
    """

    left: tuple["Expr", ...]   # >= 1 operand
    right: tuple["Expr", ...]  # >= 1 operand


Expr = Epsilon | Symbol | Concat | Disj | Star | Opt | Plus | Hash

EPSILON = Epsilon()


def concat_of(items: list[Expr] | tuple[Expr, ...]) -> Expr:
    """Concatenation with flattening; drops epsilon factors."""
    flat: list[Expr] = []
    for it in items:
        if isinstance(it, Concat):
            flat.extend(it.items)
        elif not isinstance(it, Epsilon):
            flat.append(it)
    if not flat:
        return EPSILON
    if len(flat) == 1:
        return flat[0]
    return Concat(tuple(flat))


def disj_of(items: list[Expr] | tuple[Expr, ...]) -> Expr:
    """Disjunction with flattening.  Duplicates are kept (syntax matters)."""
    flat: list[Expr] = []
    for it in items:
        if isinstance(it, Disj):
            flat.extend(it.items)
        else:
            flat.append(it)
    if not flat:
        raise ValueError("empty disjunction")
    if len(flat) == 1:
        return flat[0]
    return Disj(tuple(flat))


def operands(e: Expr) -> tuple[Expr, ...]:
    """e's direct parts, left to right; a # lists its left tuple first."""
    match e:
        case Concat(items) | Disj(items):
            return items
        case Symbol(_) | Epsilon():
            return ()
        case Star(item) | Opt(item) | Plus(item):
            return (item,)
        case Hash(left, right):
            return left + right
    raise TypeError(f"not an expression: {e!r}")


def symbol_counts(e: Expr) -> dict[str, int]:
    """Occurrences of each label in e, keyed in first-occurrence order."""
    counts: dict[str, int] = {}
    todo = [e]
    while todo:
        x = todo.pop()
        if type(x) is Symbol:
            counts[x.name] = counts.get(x.name, 0) + 1
        else:
            todo += reversed(operands(x))
    return counts


def symbols(e: Expr) -> frozenset[str]:
    return frozenset(symbol_counts(e))


# --- parsing ---------------------------------------------------------------

# The one label syntax: element names in DTDs, content models and tree terms,
# and node tests in queries.  A lexer's token is a label iff it starts with
# one of LABEL_START, which no operator does.
LABEL = r"[A-Za-z_][A-Za-z0-9_.\-]*"
is_label = re.compile(LABEL).fullmatch
LABEL_START = frozenset(filter(is_label, map(chr, range(128))))


def lexer(operators: str, what: str) -> Callable[[str], list[str]]:
    """A maximal-munch tokenizer: tokens matching the `operators` pattern or
    LABEL, with whitespace between them.  Any other character is a
    ParseError that names `what`, the input being read."""
    # one token, whitespace, or (second group) a character no token starts with
    token = re.compile(rf"({operators}|{LABEL})|\s+|(.)")

    def tokenize(text: str) -> list[str]:
        found = token.findall(text)
        for _, bad in found:
            if bad:
                raise ParseError(f"unexpected character {bad!r} in {what}")
        return [tok for tok, _ in found if tok]
    return tokenize


# operators and unbroken label runs
tokenize = lexer(r"[()|,*?+#]", "content model")


class Cursor:
    """Front-to-back reading of a token list; `what` names the input in
    errors."""

    def __init__(self, toks: list[str], what: str):
        self.toks = toks
        self.pos = 0
        self.what = what

    def peek(self) -> Optional[str]:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ParseError(f"unexpected end of {self.what}")
        self.pos += 1
        return tok

    def expect(self, tok: str) -> None:
        got = self.take()
        if got != tok:
            raise ParseError(f"expected {tok!r}, got {got!r}")

    def whole(self, rule: Callable[["Cursor"], T]) -> T:
        """`rule` read over the whole token list, which must be non-empty
        and leave nothing behind."""
        if not self.toks:
            raise ParseError(f"empty {self.what}")
        try:
            out = rule(self)
        except RecursionError:
            raise ParseError(f"{self.what} nested too deeply") from None
        if self.peek() is not None:
            raise ParseError(f"trailing input from token {self.peek()!r}")
        return out


def _segment(run: str, alphabet: Optional[frozenset[str]]) -> list[str]:
    """Split a label run into labels.

    Juxtaposition is the usual way to write concatenation ("a*ba*"), so a run
    is a sequence of labels.  With a declared alphabet the run is segmented
    into declared labels, longest prefix first among those whose rest still
    splits; without one every character stands for itself."""
    if alphabet is None:
        for c in run:
            if c not in LABEL_START:
                raise ParseError(
                    f"label run {run!r}: {c!r} cannot stand alone; "
                    "multi-character labels need a declared alphabet"
                )
        return list(run)
    if run in alphabet:  # the longest prefix is the whole run
        return [run]
    n = len(run)
    longest = max(map(len, alphabet), default=0)
    # ends[i]: the end of the longest declared label at i after which the
    # rest of the run splits too, filled right to left; 0 where none does
    ends = [0] * n + [n]
    for i in range(n - 1, -1, -1):
        for j in range(min(n, i + longest), i, -1):
            if ends[j] and run[i:j] in alphabet:
                ends[i] = j
                break
    if not ends[0]:
        raise ParseError(f"cannot split {run!r} into declared labels")
    out, i = [], 0
    while i < n:
        out.append(run[i:ends[i]])
        i = ends[i]
    return out


def _tokenize(text: str, alphabet: Optional[frozenset[str]]) -> list[str]:
    toks: list[str] = []
    for tok in tokenize(text):
        if tok != "eps" and tok[0] in LABEL_START:
            toks.extend(_segment(tok, alphabet))
        else:
            toks.append(tok)
    return toks


class _Parser(Cursor):
    def parse_expr(self) -> Expr:
        parts = [self.parse_seq()]
        while self.peek() == "|":
            self.take()
            parts.append(self.parse_seq())
        return disj_of(parts)

    def parse_seq(self) -> Expr:
        items = [self.parse_hashable()]
        while True:
            tok = self.peek()
            if tok == ",":
                self.take()
                tok = self.peek()
                if tok is None or tok in ")|,":
                    raise ParseError("dangling comma in content model")
            if tok is None or tok in ")|":
                break
            items.append(self.parse_hashable())
        return concat_of(items)

    def parse_hashable(self) -> Expr:
        item = self.parse_item()
        if self.peek() != "#":
            return item
        self.take()
        rhs = self.parse_item()
        if self.peek() == "#":
            raise ParseError("chained # needs parentheses")
        return Hash(_hash_operands(item), _hash_operands(rhs))

    def parse_item(self) -> Expr:
        e = self.parse_base()
        while self.peek() in ("*", "?", "+"):
            tok = self.take()
            if tok == "*":
                e = Star(e)
            elif tok == "?":
                e = Opt(e)
            else:
                e = Plus(e)
        return e

    def parse_base(self) -> Expr:
        tok = self.take()
        if tok == "(":
            e = self.parse_expr()
            self.expect(")")
            return e
        if tok == "eps":
            return EPSILON
        if tok[0] in LABEL_START:  # segmented into declared labels already
            return Symbol(tok)
        raise ParseError(f"unexpected token {tok!r} in content model")


def _hash_operands(e: Expr) -> tuple[Expr, ...]:
    # A parenthesized group lists its concatenation items as # operands.
    if isinstance(e, Concat):
        return e.items
    return (e,)


def parse_content_model(text: str, alphabet: Optional[frozenset[str]] = None) -> Expr:
    """Parse a content model.  With an alphabet, unknown labels are errors."""
    return _Parser(_tokenize(text, alphabet), "content model").whole(_Parser.parse_expr)


# --- printing --------------------------------------------------------------

_PREC_DISJ = 0
_PREC_CONCAT = 1
_PREC_POSTFIX = 2
_PREC_TIGHT = 3     # directly under a postfix operator


def render(e: Expr, alphabet: Optional[frozenset[str]] = None) -> str:
    """Deterministic text that `parse_content_model` reads back as e under the
    same alphabet.  Single-letter labels juxtapose (abc) while their run reads
    back as those letters: never `eps`, and no declared longer label ends in
    it.  A comma separates any other labels that meet."""
    longer: dict[str, list[str]] = {}  # last letter -> longer labels ending in it
    for lbl in alphabet or ():
        if len(lbl) > 1:
            longer.setdefault(lbl[-1], []).append(lbl)
    return _render(e, _PREC_DISJ, longer)


def _render(e: Expr, prec: int, longer: dict[str, list[str]]) -> str:
    match e:
        case Epsilon():
            return "eps"
        case Symbol(name):
            return name
        case Star(item):
            return _render(item, _PREC_TIGHT, longer) + "*"
        case Opt(item):
            return _render(item, _PREC_TIGHT, longer) + "?"
        case Plus(item):
            return _render(item, _PREC_TIGHT, longer) + "+"
        case Disj(items):
            s = "|".join(_render(it, _PREC_CONCAT, longer) for it in items)
            return f"({s})" if prec > _PREC_DISJ else s
        case Concat(items):
            # "a*bcda*": run is the label run out ends with, as the reader
            # will see it; a letter joins it only if it stays those letters
            out, last, run = "", None, ""
            for it in items:
                part = _render(it, _PREC_POSTFIX, longer)
                first, part_last = _edge_tokens(part)
                if last and first:  # two labels meet
                    run += first
                    if len(last) > 1 or len(first) > 1 or run == "eps" or any(
                            map(run.endswith, longer.get(first, ()))):
                        out += ","
                        run = first
                else:
                    run = first or ""
                out += part
                last = part_last
            return f"({out})" if prec > _PREC_CONCAT else out
        case Hash(left, right):
            # the reader lists a group's concatenation items as operands, so
            # a tuple it would read otherwise prints as the expanded model
            if any(_hash_operands(concat_of(ops)) != ops for ops in (left, right)):
                return _render(expand_hash(e), prec, longer)
            ls = ",".join(_render(it, _PREC_POSTFIX, longer) for it in left)
            rs = ",".join(_render(it, _PREC_POSTFIX, longer) for it in right)
            s = f"({ls})#({rs})"
            return f"({s})" if prec > _PREC_POSTFIX else s
    raise TypeError(f"not an expression: {e!r}")


def _edge_tokens(s: str) -> tuple[Optional[str], Optional[str]]:
    """First and last token of a rendered fragment, None where the edge is an
    operator or a parenthesis rather than a label."""
    toks = tokenize(s)
    first = toks[0] if toks[0][0] in LABEL_START else None
    last = toks[-1] if toks[-1][0] in LABEL_START else None
    return first, last


# --- rewriting -------------------------------------------------------------

def rebuilt(e: Expr, rewrite: Callable[[Expr], Expr]) -> Expr:
    """e rebuilt from its operands, each passed through `rewrite`."""
    match e:
        case Epsilon() | Symbol(_):
            return e
        case Concat(items):
            return concat_of([rewrite(it) for it in items])
        case Disj(items):
            return disj_of([rewrite(it) for it in items])
        case Star(item) | Opt(item) | Plus(item):
            return type(e)(rewrite(item))
        case Hash(left, right):
            return Hash(tuple(map(rewrite, left)), tuple(map(rewrite, right)))
    raise TypeError(f"not an expression: {e!r}")


def expand_hash(e: Expr) -> Expr:
    """Rewrite every # into plain operators.

    (a1,..,am)#(b1,..,bl) accepts a word from the left tuple, the right
    tuple, or both in order, so it expands to
    a1..am b1?..bl? | a1?..am? b1..bl.
    """
    e = rebuilt(e, expand_hash)
    if not isinstance(e, Hash):
        return e
    both_l = concat_of([*e.left, *map(Opt, e.right)])
    both_r = concat_of([*map(Opt, e.left), *e.right])
    return disj_of([both_l, both_r])


# --- position automaton ----------------------------------------------------

class Nfa:
    """Glushkov automaton.  State 0 is initial; states 1..n are symbol
    positions.  No epsilon transitions."""

    def __init__(self, e: Expr):
        e = expand_hash(e)
        self.syms: dict[int, str] = {}
        follow: dict[int, set[int]] = {}
        counter = [0]

        def lin(x: Expr) -> tuple[bool, set[int], set[int]]:
            # returns (nullable, first, last)
            match x:
                case Epsilon():
                    return True, set(), set()
                case Symbol(name):
                    counter[0] += 1
                    p = counter[0]
                    self.syms[p] = name
                    follow[p] = set()
                    return False, {p}, {p}
                case Concat(items):
                    nul, first, last = lin(items[0])
                    for it in items[1:]:
                        n2, f2, l2 = lin(it)
                        for q in last:
                            follow[q] |= f2
                        first = first | f2 if nul else first
                        last = last | l2 if n2 else l2
                        nul = nul and n2
                    return nul, first, last
                case Disj(items):
                    nul, first, last = False, set(), set()
                    for it in items:
                        n2, f2, l2 = lin(it)
                        nul = nul or n2
                        first |= f2
                        last |= l2
                    return nul, first, last
                case Star(item):
                    _, f, l = lin(item)
                    for q in l:
                        follow[q] |= f
                    return True, f, l
                case Plus(item):
                    n, f, l = lin(item)
                    for q in l:
                        follow[q] |= f
                    return n, f, l
                case Opt(item):
                    _, f, l = lin(item)
                    return True, f, l
            raise TypeError(f"not an expression: {x!r}")

        nullable, first, last = lin(e)
        self.accepting: frozenset[int] = frozenset(last | ({0} if nullable else set()))
        # delta[state][label] -> frozenset of next states
        delta: dict[int, dict[str, set[int]]] = {0: {}}
        for p in first:
            delta[0].setdefault(self.syms[p], set()).add(p)
        for p, fol in follow.items():
            delta[p] = {}
            for q in fol:
                delta[p].setdefault(self.syms[q], set()).add(q)
        self.delta: dict[int, dict[str, frozenset[int]]] = {
            s: {a: frozenset(t) for a, t in row.items()} for s, row in delta.items()
        }
        self.alphabet: frozenset[str] = frozenset(self.syms.values())

    def step(self, states: frozenset[int], label: str) -> frozenset[int]:
        out: set[int] = set()
        for s in states:
            out |= self.delta[s].get(label, frozenset())
        return frozenset(out)

    def accepts(self, word: Word) -> bool:
        states = frozenset({0})
        for a in word:
            states = self.step(states, a)
            if not states:
                return False
        return bool(states & self.accepting)


def matches(e: Expr, word: Word) -> bool:
    return Nfa(e).accepts(word)


def equivalence_counterexample(e1: Expr, e2: Expr) -> Optional[Word]:
    """Shortest word in exactly one of the two languages; None if equivalent.

    Breadth-first product of the subset-construction determinizations.
    """
    n1, n2 = Nfa(e1), Nfa(e2)
    alphabet = sorted(n1.alphabet | n2.alphabet)
    start = (frozenset({0}), frozenset({0}))
    seen: set[tuple[frozenset[int], frozenset[int]]] = {start}
    queue: deque[tuple[tuple[frozenset[int], frozenset[int]], Word]] = deque([(start, ())])
    while queue:
        (s1, s2), word = queue.popleft()
        a1 = bool(s1 & n1.accepting)
        a2 = bool(s2 & n2.accepting)
        if a1 != a2:
            return word
        for a in alphabet:
            t = (n1.step(s1, a), n2.step(s2, a))
            if t not in seen:
                seen.add(t)
                queue.append((t, word + (a,)))
    return None


def equivalent(e1: Expr, e2: Expr) -> bool:
    return equivalence_counterexample(e1, e2) is None
