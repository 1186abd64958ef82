"""Navigational XPath: steps along six axes, composition, union, qualifiers.

Concrete syntax examples::

    child::a/fsib::b[child::c and child::d]
    ↓::a/→⁺::b[↓::c]
    desc-or-self::a | ↑*::r        (written with the |u| or ∪ separator)

Arrows are aliases: ↓ child, ↑ parent, ↓* desc-or-self, ↑* anc-or-self,
→⁺ (or →+) fsib, ←⁺ (or ←+) psib.  Qualifier conjunctions can be split into
stacked qualifiers by `normalize`, which preserves meaning and is what the
tuple-based evaluation expects.

`/` and `∪` are associative, so a sequence is one flat `Seq` of its parts
and a union one flat `Union` of its operands, looped over rather than
recursed into: `(↓::a/↓::b)/↓::c` parses to the node of `↓::a/↓::b/↓::c`,
and `↓::a ∪ (↓::b ∪ ↓::c)` to that of `↓::a ∪ ↓::b ∪ ↓::c`; both print flat.
Likewise a stack of qualifiers is one `Qual` over a base that is not itself
qualified, and a run of one connective is one `QAnd` or `QOr`: `and` and
`or` bind equally and group to the right, so `a or b and c and d` is
`QOr((a, QAnd((b, c, d))))`.  Nesting too deep to parse is a ParseError.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass

from .errors import ParseError


class Axis(enum.Enum):
    CHILD = "child"
    PARENT = "parent"
    DESC_OR_SELF = "desc-or-self"
    ANC_OR_SELF = "anc-or-self"
    FSIB = "fsib"
    PSIB = "psib"


_ALIASES = {
    "↓*": Axis.DESC_OR_SELF,
    "↑*": Axis.ANC_OR_SELF,
    "→⁺": Axis.FSIB,
    "←⁺": Axis.PSIB,
    "→+": Axis.FSIB,
    "←+": Axis.PSIB,
    "↓": Axis.CHILD,
    "↑": Axis.PARENT,
}

ARROW = {
    Axis.CHILD: "↓",
    Axis.PARENT: "↑",
    Axis.DESC_OR_SELF: "↓*",
    Axis.ANC_OR_SELF: "↑*",
    Axis.FSIB: "→⁺",
    Axis.PSIB: "←⁺",
}


@dataclass(frozen=True, slots=True)
class Step:
    axis: Axis
    label: str


@dataclass(frozen=True, slots=True)
class Seq:
    steps: tuple["Path", ...]  # always >= 2 items, none Seq


@dataclass(frozen=True, slots=True)
class Union:
    items: tuple["Path", ...]  # always >= 2 items, none Union


@dataclass(frozen=True, slots=True)
class QPath:
    path: "Path"


@dataclass(frozen=True, slots=True)
class QAnd:
    items: tuple["Qexpr", ...]  # always >= 2 items, none QAnd


@dataclass(frozen=True, slots=True)
class QOr:
    items: tuple["Qexpr", ...]  # always >= 2 items, none QOr


Qexpr = QPath | QAnd | QOr


@dataclass(frozen=True, slots=True)
class Qual:
    base: "Path"               # never a Qual
    quals: tuple[Qexpr, ...]   # innermost first, at least one


Path = Step | Seq | Union | Qual


# --- lexer -------------------------------------------------------------------

_WORD_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
# one token, whitespace, or (second group) a character no token starts with
_TOKEN = re.compile(
    r"(::|\|u\||[↓↑]\*|[→←][⁺+]|[↓↑∪/\[\]()]|[A-Za-z_][A-Za-z0-9_.\-]*)|\s+|(.)"
)


def _tokenize(text: str) -> list[str]:
    found = _TOKEN.findall(text)
    for _, bad in found:
        if bad:
            raise ParseError(f"unexpected character {bad!r} in query")
    return ["|u|" if tok == "∪" else tok for tok, _ in found if tok]


_AXIS_BY_NAME = {a.value: a for a in Axis}


class _Parser:
    def __init__(self, toks: list[str]):
        self.toks = toks
        self.pos = 0

    def peek(self) -> str | None:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of query")
        self.pos += 1
        return tok

    def expect(self, tok: str) -> None:
        got = self.take()
        if got != tok:
            raise ParseError(f"expected {tok!r}, got {got!r}")

    def parse_pathexpr(self) -> Path:
        items: list[Path] = []
        while True:
            p = self.parse_path()
            # a parenthesized union splices in: `∪` is associative
            items.extend(p.items if isinstance(p, Union) else (p,))
            if self.peek() != "|u|":
                return Union(tuple(items)) if len(items) > 1 else items[0]
            self.take()

    def parse_path(self) -> Path:
        parts: list[Path] = []
        while True:
            p = self.parse_step()
            # a parenthesized sequence splices in: `/` is associative
            parts.extend(p.steps if isinstance(p, Seq) else (p,))
            if self.peek() != "/":
                return Seq(tuple(parts)) if len(parts) > 1 else parts[0]
            self.take()

    def parse_step(self) -> Path:
        tok = self.peek()
        if tok == "(":
            self.take()
            p: Path = self.parse_pathexpr()
            self.expect(")")
        else:
            axis_tok = self.take()
            axis = _ALIASES.get(axis_tok) or _AXIS_BY_NAME.get(axis_tok)
            if axis is None:
                raise ParseError(f"unknown axis {axis_tok!r}")
            self.expect("::")
            label = self.take()
            if not label or label[0] not in _WORD_START:
                raise ParseError(f"bad label {label!r}")
            p = Step(axis, label)
        if self.peek() != "[":
            return p
        # a qualified group's stack splices in: its qualifiers apply first
        quals: list[Qexpr] = []
        if isinstance(p, Qual):
            p, quals = p.base, list(p.quals)
        while self.peek() == "[":
            self.take()
            quals.append(self.parse_qexpr())
            self.expect("]")
        return Qual(p, tuple(quals))

    def parse_qexpr(self) -> Qexpr:
        q: Qexpr = QPath(self.parse_pathexpr())
        if self.peek() not in _CONNECTIVES:
            return q
        operands, words = [q], []
        while self.peek() in _CONNECTIVES:
            words.append(self.take())
            operands.append(QPath(self.parse_pathexpr()))
        # equal precedence, grouped to the right: from the right, each run of
        # one connective is one node whose last operand is the node built so far
        q = operands.pop()
        while words:
            word, run = words[-1], [q]
            while words and words[-1] == word:
                words.pop()
                run.append(operands.pop())
            q = _CONNECTIVES[word](tuple(reversed(run)))
        return q


_CONNECTIVES = {"and": QAnd, "or": QOr}


def parse_xpath(text: str) -> Path:
    toks = _tokenize(text)
    if not toks:
        raise ParseError("empty query")
    p = _Parser(toks)
    try:
        out = p.parse_pathexpr()
    except RecursionError:
        raise ParseError("query nested too deeply") from None
    if p.peek() is not None:
        raise ParseError(f"trailing input from token {p.peek()!r}")
    return out


# --- printing ----------------------------------------------------------------

_PREC_UNION = 0
_PREC_SEQ = 1
_PREC_STEP = 2


def render_xpath(p: Path, arrows: bool = False) -> str:
    return _render(p, _PREC_UNION, arrows)


def _render(p: Path, prec: int, arrows: bool) -> str:
    match p:
        case Step(axis, label):
            name = ARROW[axis] if arrows else axis.value
            return f"{name}::{label}"
        case Seq(steps):
            s = "/".join(_render(x, _PREC_STEP, arrows) for x in steps)
            return f"({s})" if prec > _PREC_SEQ else s
        case Union(items):
            s = "|u|".join(_render(x, _PREC_SEQ, arrows) for x in items)
            return f"({s})" if prec > _PREC_UNION else s
        case Qual(base, quals):
            qs = "".join(f"[{_render_q(q, arrows)}]" for q in quals)
            return _render(base, _PREC_STEP, arrows) + qs
    raise TypeError(f"not a path: {p!r}")


def _render_q(q: Qexpr, arrows: bool) -> str:
    match q:
        case QPath(path):
            return _render(path, _PREC_UNION, arrows)
        case QAnd(items):
            return " and ".join(_render_q(x, arrows) for x in items)
        case QOr(items):
            return " or ".join(_render_q(x, arrows) for x in items)
    raise TypeError(f"not a qualifier: {q!r}")


# --- shape queries -----------------------------------------------------------

def size(p: Path | Qexpr) -> int:
    """Number of atomic steps, qualifiers included."""
    match p:
        case Step(_, _):
            return 1
        case Seq(parts) | Union(parts) | QAnd(parts) | QOr(parts):
            return sum(size(x) for x in parts)
        case Qual(base, quals):
            return size(base) + sum(size(q) for q in quals)
        case QPath(path):
            return size(path)
    raise TypeError(f"not a path: {p!r}")


def _collect(p: Path | Qexpr, axes: set[Axis], kinds: set[type]) -> None:
    kinds.add(type(p))
    match p:
        case Step(axis, _):
            axes.add(axis)
        case Seq(parts) | Union(parts) | QAnd(parts) | QOr(parts):
            for x in parts:
                _collect(x, axes, kinds)
        case Qual(base, quals):
            for x in (base, *quals):
                _collect(x, axes, kinds)
        case QPath(path):
            _collect(path, axes, kinds)


_EVAL1_AXES = {Axis.CHILD, Axis.PARENT, Axis.FSIB, Axis.PSIB}
_EVAL2_AXES = {Axis.CHILD, Axis.FSIB, Axis.PSIB}


def fragment_of(p: Path) -> str:
    """Which decision procedure fits: 'eval1', 'eval2', or 'full' (neither)."""
    axes: set[Axis] = set()
    kinds: set[type] = set()
    _collect(p, axes, kinds)
    if not kinds & {Union, Qual} and axes <= _EVAL1_AXES:
        return "eval1"
    if not kinds & {Union, QOr} and axes <= _EVAL2_AXES:
        return "eval2"
    return "full"


# --- qualifier normalization ---------------------------------------------------

def normalize(p: Path) -> Path:
    """Split qualifier conjunctions into stacked qualifiers: p[q and q'] becomes
    p[q][q'].  Disjunctions are kept (and normalized inside)."""
    match p:
        case Step(_, _):
            return p
        case Seq(parts) | Union(parts):
            return type(p)(tuple(normalize(x) for x in parts))
        case Qual(base, quals):
            split = [x for q in quals for x in (q.items if isinstance(q, QAnd) else (q,))]
            return Qual(normalize(base), tuple(_normalize_q(q) for q in split))
    raise TypeError(f"not a path: {p!r}")


def _normalize_q(q: Qexpr) -> Qexpr:
    match q:
        case QPath(path):
            return QPath(normalize(path))
        case QAnd(items) | QOr(items):
            return type(q)(tuple(_normalize_q(x) for x in items))
    raise TypeError(f"not a qualifier: {q!r}")
