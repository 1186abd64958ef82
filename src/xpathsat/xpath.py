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

The lexer reads each well-formed step (axis, `::`, label) whole, in one
match, so a run of unqualified steps parses without a token-by-token walk.
A parsed query holds one `Step` object per distinct step: equal steps share
it.  `normalize` returns its input, not a copy, when nothing in it splits.
`operands` alone names a node's direct parts, which `size` and `features`
visit; the printer and `normalize` take qualifiers as they take paths, and
the printer refuses (ValueError) a connective that no text groups.
Syntax only: `features` names the axes and node types a query uses, and
`sat_checker.fragment_of` reads it to say which decider fits.
"""

from __future__ import annotations

import enum
import re

from . import content_model as cm
from .errors import ParseError
from .record import Record, _set


class Axis(enum.Enum):
    CHILD = "child"
    PARENT = "parent"
    DESC_OR_SELF = "desc-or-self"
    ANC_OR_SELF = "anc-or-self"
    FSIB = "fsib"
    PSIB = "psib"

    # members are singletons, so identity is equality: hash them in C
    __hash__ = object.__hash__


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


class Step(Record):
    __slots__ = __match_args__ = ("axis", "label")

    def __init__(self, axis: Axis, label: str):
        _set(self, "axis", axis)
        _set(self, "label", label)

    # compared and hashed field by field, cheaper than through `Record`
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.axis == other.axis and self.label == other.label
        return NotImplemented

    def __hash__(self):
        return hash((self.axis, self.label))


class Seq(Record):
    __slots__ = __match_args__ = ("steps",)  # always >= 2 items, none Seq

    def __init__(self, steps: tuple[Path, ...]):
        _set(self, "steps", steps)


class Union(Record):
    __slots__ = __match_args__ = ("items",)  # always >= 2 items, none Union


class QPath(Record):
    __slots__ = __match_args__ = ("path",)

    def __init__(self, path: Path):
        _set(self, "path", path)


class QAnd(Record):
    __slots__ = __match_args__ = ("items",)  # always >= 2 items, none QAnd

    def __init__(self, items: tuple[Qexpr, ...]):
        _set(self, "items", items)


class QOr(Record):
    __slots__ = __match_args__ = ("items",)  # always >= 2 items, none QOr


Qexpr = QPath | QAnd | QOr


class Qual(Record):
    __slots__ = __match_args__ = ("base", "quals")  # base no Qual; quals innermost first

    def __init__(self, base: Path, quals: tuple[Qexpr, ...]):
        _set(self, "base", base)
        _set(self, "quals", quals)


Path = Step | Seq | Union | Qual


# --- lexer -------------------------------------------------------------------

_AXIS_BY_NAME = {a.value: a for a in Axis}

# a whole well-formed step (axis, `::`, label) with the `/` after it if one
# follows, one token, whitespace, or (last group) a character no token
# starts with.  An axis word or arrow that opens a step reads as the token
# it would be on its own.
_token = re.compile(
    r"([↓↑]\*?|[→←][⁺+]|" + "|".join(_AXIS_BY_NAME) + rf")\s*::\s*({cm.LABEL})(\s*/)?"
    rf"|(::|\|u\||[↓↑]\*|[→←][⁺+]|[↓↑∪/\[\]()]|{cm.LABEL})|\s+|(.)"
)


class _StepToken(str):
    """The axis token of a step the lexer read whole; `step` is that step."""

    step: Step


def _tokenize(text: str) -> list[str]:
    """The query's tokens; a step read whole is its axis token, `::` and its
    label.  The tokens of equal step texts are made once, on their first
    sight, and equal steps share one Step."""
    toks: list[str] = []
    runs: dict[tuple[str, str, str], tuple[str, ...]] = {}  # a step's text -> its tokens
    steps: dict[Step, Step] = {}
    for axis, label, slash, tok, bad in _token.findall(text):
        if axis:
            run = runs.get((axis, label, slash))
            if run is None:
                head = _StepToken(axis)
                step = Step(_ALIASES.get(axis) or _AXIS_BY_NAME[axis], label)
                head.step = steps.setdefault(step, step)
                run = (head, "::", label, "/") if slash else (head, "::", label)
                runs[axis, label, slash] = run
            toks += run
        elif tok:
            toks.append("|u|" if tok == "∪" else tok)
        elif bad:
            raise ParseError(f"unexpected character {bad!r} in query")
    return toks


class _Parser(cm.Cursor):
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
        toks, i, n = self.toks, self.pos, len(self.toks)
        while True:
            tok = toks[i] if i < n else None
            if type(tok) is _StepToken and (i + 3 == n or toks[i + 3] != "["):
                parts.append(tok.step)  # a whole step without qualifiers
                i += 3
            else:
                self.pos = i
                p = self.parse_step()
                # a parenthesized sequence splices in: `/` is associative
                parts.extend(p.steps if isinstance(p, Seq) else (p,))
                i = self.pos
            if i == n or toks[i] != "/":
                self.pos = i
                return Seq(tuple(parts)) if len(parts) > 1 else parts[0]
            i += 1

    def parse_step(self) -> Path:
        tok = self.take()
        if tok == "(":
            p: Path = self.parse_pathexpr()
            self.expect(")")
        elif type(tok) is _StepToken:
            p = tok.step
            self.pos += 2
        else:
            # the lexer reads every well-formed step whole, so this one is not
            if tok not in _ALIASES and tok not in _AXIS_BY_NAME:
                if tok[0] in cm.LABEL_START:
                    raise ParseError(f"unknown axis {tok!r}")
                raise ParseError(f"expected a step, got {tok!r}")
            self.expect("::")
            raise ParseError(f"bad label {self.take()!r}")
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
    return _Parser(_tokenize(text), "query").whole(_Parser.parse_pathexpr)


# --- printing ----------------------------------------------------------------

_PREC_UNION = 0
_PREC_SEQ = 1
_PREC_STEP = 2


def render_xpath(p: Path | Qexpr, arrows: bool = False) -> str:
    return _render(p, _PREC_UNION, arrows)


def _render(p: Path | Qexpr, prec: int, arrows: bool) -> str:
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
            qs = "".join(f"[{_render(q, _PREC_UNION, arrows)}]" for q in quals)
            return _render(base, _PREC_STEP, arrows) + qs
        case QPath(path):
            return _render(path, _PREC_UNION, arrows)
        case QAnd(items) | QOr(items):
            # no text groups a connective that is not its parent's last operand
            if any(isinstance(x, (QAnd, QOr)) for x in items[:-1]):
                raise ValueError(f"no query text groups {p!r}")
            word = " and " if type(p) is QAnd else " or "
            return word.join(_render(x, _PREC_UNION, arrows) for x in items)
    raise TypeError(f"not a query: {p!r}")


# --- shape queries -----------------------------------------------------------

def operands(p: Path | Qexpr) -> tuple[Path | Qexpr, ...]:
    """p's direct parts, left to right; a qualified path's base comes first."""
    match p:
        case Seq(parts) | Union(parts) | QAnd(parts) | QOr(parts):
            return parts
        case Step(_, _):
            return ()
        case Qual(base, quals):
            return (base, *quals)
        case QPath(path):
            return (path,)
    raise TypeError(f"not a query: {p!r}")


def size(p: Path | Qexpr) -> int:
    """Number of atomic steps, qualifiers included."""
    return 1 if type(p) is Step else sum(map(size, operands(p)))


def features(p: Path | Qexpr) -> tuple[set[Axis], set[type]]:
    """The axes of p's steps and the types of its other nodes, qualifiers included."""
    axes: set[Axis] = set()
    kinds: set[type] = set()
    todo = [p]
    while todo:
        x = todo.pop()
        if type(x) is Step:
            axes.add(x.axis)
            continue
        kinds.add(type(x))
        for y in operands(x):
            if type(y) is Step:  # most parts are steps: read without a push
                axes.add(y.axis)
            else:
                todo.append(y)
    return axes, kinds


# --- qualifier normalization ---------------------------------------------------

def normalize(p: Path | Qexpr) -> Path | Qexpr:
    """Split qualifier conjunctions into stacked qualifiers: p[q and q'] becomes
    p[q][q'].  Disjunctions are kept (and normalized inside).  A node that
    nothing inside splits comes back as it is."""
    match p:
        case Step(_, _):
            return p
        case Seq(parts) | Union(parts) | QAnd(parts) | QOr(parts):
            new = _normalized(parts)
            return p if new is parts else type(p)(new)
        case Qual(base, quals):
            split = tuple(x for q in quals for x in (q.items if isinstance(q, QAnd) else (q,)))
            new_base, new_quals = normalize(base), _normalized(split)
            if new_base is base and len(split) == len(quals) and new_quals is split:
                return p
            return Qual(new_base, new_quals)
        case QPath(path):
            new = normalize(path)
            return p if new is path else QPath(new)
    raise TypeError(f"not a query: {p!r}")


def _normalized(parts: tuple) -> tuple:
    """parts, each normalized; parts itself when none changes.  A step never
    changes, so it is passed over."""
    out = None
    for i, x in enumerate(parts):
        if type(x) is not Step:
            y = normalize(x)
            if y is not x:
                if out is None:
                    out = list(parts)
                out[i] = y
    return parts if out is None else tuple(out)
