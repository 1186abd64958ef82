"""Navigational XPath: steps along six axes, composition, union, qualifiers.

Concrete syntax examples::

    child::a/fsib::b[child::c and child::d]
    ↓::a/→⁺::b[↓::c]
    desc-or-self::a | ↑*::r        (written with the |u| or ∪ separator)

Arrows are aliases: ↓ child, ↑ parent, ↓* desc-or-self, ↑* anc-or-self,
→⁺ (or →+) fsib, ←⁺ (or ←+) psib.  Qualifier conjunctions can be split into
stacked qualifiers by `normalize`, which preserves meaning and is what the
tuple-based evaluation expects.

`/` is associative, so a sequence is one flat `Seq` of its parts, looped
over rather than recursed into: `(↓::a/↓::b)/↓::c` parses to the node of
`↓::a/↓::b/↓::c` and prints flat.  Nesting too deep to parse is a ParseError.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from functools import reduce

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
    left: "Path"
    right: "Path"


@dataclass(frozen=True, slots=True)
class QPath:
    path: "Path"


@dataclass(frozen=True, slots=True)
class QAnd:
    left: "Qexpr"
    right: "Qexpr"


@dataclass(frozen=True, slots=True)
class QOr:
    left: "Qexpr"
    right: "Qexpr"


Qexpr = QPath | QAnd | QOr


@dataclass(frozen=True, slots=True)
class Qual:
    base: "Path"
    qual: Qexpr


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
        p = self.parse_path()
        while self.peek() == "|u|":
            self.take()
            p = Union(p, self.parse_path())
        return p

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
        while self.peek() == "[":
            self.take()
            q = self.parse_qexpr()
            self.expect("]")
            p = Qual(p, q)
        return p

    def parse_qexpr(self) -> Qexpr:
        left: Qexpr = QPath(self.parse_pathexpr())
        if self.peek() == "and":
            self.take()
            return QAnd(left, self.parse_qexpr())
        if self.peek() == "or":
            self.take()
            return QOr(left, self.parse_qexpr())
        return left


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
        case Union(left, right):
            s = f"{_render(left, _PREC_UNION, arrows)}|u|{_render(right, _PREC_SEQ, arrows)}"
            return f"({s})" if prec > _PREC_UNION else s
        case Qual():
            base, quals = peel(p)
            qs = "".join(f"[{_render_q(q, arrows)}]" for q in quals)
            return _render(base, _PREC_STEP, arrows) + qs
    raise TypeError(f"not a path: {p!r}")


def _render_q(q: Qexpr, arrows: bool) -> str:
    match q:
        case QPath(path):
            return _render(path, _PREC_UNION, arrows)
        case QAnd(left, right):
            return f"{_render_q(left, arrows)} and {_render_q(right, arrows)}"
        case QOr(left, right):
            return f"{_render_q(left, arrows)} or {_render_q(right, arrows)}"
    raise TypeError(f"not a qualifier: {q!r}")


# --- shape queries -----------------------------------------------------------

def peel(p: Path) -> tuple[Path, list[Qexpr]]:
    """A qualifier stack's innermost base and its qualifiers, innermost first."""
    quals = []
    while isinstance(p, Qual):
        quals.append(p.qual)
        p = p.base
    return p, quals[::-1]


def size(p: Path | Qexpr) -> int:
    """Number of atomic steps, qualifiers included."""
    match p:
        case Step(_, _):
            return 1
        case Seq(steps):
            return sum(size(x) for x in steps)
        case Union(left, right) | QAnd(left, right) | QOr(left, right):
            return size(left) + size(right)
        case Qual(base, qual):
            return size(base) + size(qual)
        case QPath(path):
            return size(path)
    raise TypeError(f"not a path: {p!r}")


def _collect(p: Path | Qexpr, axes: set[Axis], flags: dict[str, bool]) -> None:
    match p:
        case Step(axis, _):
            axes.add(axis)
        case Seq(steps):
            for x in steps:
                _collect(x, axes, flags)
        case Union(left, right):
            flags["union"] = True
            _collect(left, axes, flags)
            _collect(right, axes, flags)
        case Qual():
            flags["qualifier"] = True
            base, quals = peel(p)
            for x in (base, *quals):
                _collect(x, axes, flags)
        case QPath(path):
            _collect(path, axes, flags)
        case QAnd(left, right):
            _collect(left, axes, flags)
            _collect(right, axes, flags)
        case QOr(left, right):
            flags["qual_or"] = True
            _collect(left, axes, flags)
            _collect(right, axes, flags)


_EVAL1_AXES = {Axis.CHILD, Axis.PARENT, Axis.FSIB, Axis.PSIB}
_EVAL2_AXES = {Axis.CHILD, Axis.FSIB, Axis.PSIB}


def fragment_of(p: Path) -> str:
    """Which decision procedure fits: 'eval1', 'eval2', or 'full' (neither)."""
    axes: set[Axis] = set()
    flags = {"union": False, "qualifier": False, "qual_or": False}
    _collect(p, axes, flags)
    if not flags["union"] and not flags["qualifier"] and axes <= _EVAL1_AXES:
        return "eval1"
    if not flags["union"] and not flags["qual_or"] and axes <= _EVAL2_AXES:
        return "eval2"
    return "full"


# --- qualifier normalization ---------------------------------------------------

def normalize(p: Path) -> Path:
    """Split qualifier conjunctions into stacked qualifiers: p[q and q'] becomes
    p[q][q'].  Disjunctions are kept (and normalized inside)."""
    match p:
        case Step(_, _):
            return p
        case Seq(steps):
            return Seq(tuple(normalize(x) for x in steps))
        case Union(left, right):
            return Union(normalize(left), normalize(right))
        case Qual():
            base, quals = peel(p)
            return reduce(_apply_quals, quals, normalize(base))
    raise TypeError(f"not a path: {p!r}")


def _apply_quals(base: Path, q: Qexpr) -> Path:
    if isinstance(q, QAnd):
        return _apply_quals(_apply_quals(base, q.left), q.right)
    return Qual(base, _normalize_q(q))


def _normalize_q(q: Qexpr) -> Qexpr:
    match q:
        case QPath(path):
            return QPath(normalize(path))
        case QAnd(left, right):
            return QAnd(_normalize_q(left), _normalize_q(right))
        case QOr(left, right):
            return QOr(_normalize_q(left), _normalize_q(right))
    raise TypeError(f"not a qualifier: {q!r}")
