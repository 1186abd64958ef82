"""DTDs as label-indexed content models, and the structural classes that make
XPath satisfiability tractable.

A DTD maps every element label to a content model over the same label set and
names a root.  The class predicates below are purely syntactic:

* df: every label occurs at most once in the model.
* dc_qph: the model is a concatenation whose factors are single labels,
  starred or plussed subexpressions, optional dc_qph subexpressions, or
  either-or-both combinations of dc_qph operands.
* dc: dc_qph without any ?, + or # anywhere.
* rw: every concatenation factor is dc_qph, or uses only labels that occur
  once in the whole model.
* mrw: rw, and every label with two or more occurrences sits inside a
  starred or plussed scope at each occurrence.
* mdf_dc: mrw with no ?, + or # anywhere.  This is the shape the schema
  graph construction consumes; `delta` maps any mrw model onto it without
  changing which label sets can co-occur below a node.

`min_heights` gives the least height of a conforming tree per label.  The
oracle's enumerator prunes with it, and `validate_no_useless` rejects the
labels it finds no height for.
"""

from __future__ import annotations

from collections.abc import Container, Iterable
from dataclasses import dataclass, field
from functools import cached_property

from . import content_model as cm
from .constraints import Cover
from .content_model import (
    Concat, Disj, Epsilon, Expr, Hash, Opt, Plus, Star, Symbol,
    concat_of, disj_of, parse_content_model, render, symbol_counts,
)
from .errors import DtdError, NotMRW, ParseError


@dataclass(frozen=True)
class Dtd:
    root: str
    rules: dict[str, Expr]          # insertion order = declaration order
    order: tuple[str, ...] = field(default=())

    def __post_init__(self):
        if not self.order:
            object.__setattr__(self, "order", tuple(self.rules))
        if self.root not in self.rules:
            raise DtdError(f"root {self.root!r} has no rule")

    def model(self, label: str) -> Expr:
        return self.rules[label]

    @property
    def labels(self) -> tuple[str, ...]:
        return self.order

    @cached_property
    def covers(self) -> dict[str, Cover]:
        """Every rule prepared for `coverable`, once per instance."""
        return {lbl: Cover(e) for lbl, e in self.rules.items()}


# --- factor decomposition ---------------------------------------------------

def top_factors(e: Expr) -> tuple[Expr, ...]:
    """Top-level concatenation factors (the model itself if not a concat)."""
    if isinstance(e, Concat):
        return e.items
    if isinstance(e, Epsilon):
        return ()
    return (e,)


def _is_dc_qph_factor(f: Expr) -> bool:
    match f:
        case Symbol(_) | Epsilon():
            return True
        case Star(_) | Plus(_):
            return True
        case Opt(item):
            return is_dc_qph(item)
        case Hash(left, right):
            return all(is_dc_qph(op) for op in left + right)
        case _:
            return False


def is_dc_qph(e: Expr) -> bool:
    return all(_is_dc_qph_factor(f) for f in top_factors(e))


def _contains(e: Expr, kinds: tuple[type, ...]) -> bool:
    if isinstance(e, kinds):
        return True
    match e:
        case Concat(items) | Disj(items):
            return any(_contains(it, kinds) for it in items)
        case Star(item) | Opt(item) | Plus(item):
            return _contains(item, kinds)
        case Hash(left, right):
            return any(_contains(it, kinds) for it in left + right)
    return False


def is_dc(e: Expr) -> bool:
    return is_dc_qph(e) and not _contains(e, (Opt, Plus, Hash))


def is_df(e: Expr) -> bool:
    return all(n == 1 for n in symbol_counts(e).values())


def is_rw(e: Expr) -> bool:
    counts = symbol_counts(e)
    return all(
        _is_dc_qph_factor(f)
        or all(counts[s] == 1 for s in cm.symbols(f))
        for f in top_factors(e)
    )


def _label_star_scope(e: Expr) -> tuple[dict[str, int], set[str]]:
    """Occurrence counts plus the labels with at least one occurrence outside
    every * / + scope."""
    counts: dict[str, int] = {}
    outside: set[str] = set()

    def walk(x: Expr, under: bool) -> None:
        match x:
            case Symbol(name):
                counts[name] = counts.get(name, 0) + 1
                if not under:
                    outside.add(name)
            case Concat(items) | Disj(items):
                for it in items:
                    walk(it, under)
            case Star(item) | Plus(item):
                walk(item, True)
            case Opt(item):
                walk(item, under)
            case Hash(left, right):
                for it in left + right:
                    walk(it, under)

    walk(e, False)
    return counts, outside


def is_mrw(e: Expr) -> bool:
    if not is_rw(e):
        return False
    counts, outside = _label_star_scope(e)
    return all(lbl not in outside for lbl, n in counts.items() if n >= 2)


def is_mdf_dc(e: Expr) -> bool:
    return is_mrw(e) and not _contains(e, (Opt, Plus, Hash))


_MODEL_CLASSES = {
    "df": is_df,
    "dc": is_dc,
    "dc_qph": is_dc_qph,
    "rw": is_rw,
    "mrw": is_mrw,
    "mdf_dc": is_mdf_dc,
}


def classify_model(e: Expr) -> dict[str, bool]:
    return {name: pred(e) for name, pred in _MODEL_CLASSES.items()}


def classify_dtd(d: Dtd) -> dict[str, bool]:
    """DTD-level class flags: a DTD is in a class iff every rule is."""
    per_rule = [classify_model(d.model(lbl)) for lbl in d.labels]
    return {name: all(r[name] for r in per_rule) for name in _MODEL_CLASSES}


# --- delta ------------------------------------------------------------------

def delta(e: Expr) -> Expr:
    """Normalization onto the mdf_dc shape: drops ?, turns + into *, and
    concatenates # operands.  Preserves which label subsequences are
    realizable, which is all the satisfiability algorithms depend on."""
    match e:
        case Epsilon() | Symbol(_):
            return e
        case Concat(items):
            return concat_of([delta(it) for it in items])
        case Disj(items):
            return disj_of([delta(it) for it in items])
        case Star(item):
            return Star(delta(item))
        case Plus(item):
            return Star(delta(item))
        case Opt(item):
            return delta(item)
        case Hash(left, right):
            return concat_of([delta(it) for it in left + right])
    raise TypeError(f"not an expression: {e!r}")


def delta_dtd(d: Dtd) -> Dtd:
    """Apply delta to every rule.  Requires an MRW DTD; the result is MDF/DC,
    which `SchemaGraph` checks when it is built."""
    new_rules: dict[str, Expr] = {}
    for lbl in d.labels:
        e = d.model(lbl)
        if not is_mrw(e):
            raise NotMRW(lbl, render(e))
        new_rules[lbl] = delta(e)
    return Dtd(d.root, new_rules)


# --- sanity: reachability and non-emptiness ---------------------------------

def validate_no_useless(d: Dtd) -> None:
    """Reject DTDs with unreachable labels or labels that cannot head a finite
    tree.  Both make schema-graph nodes meaningless."""
    reachable = {d.root}
    frontier = [d.root]
    users: dict[str, list[str]] = {lbl: [] for lbl in d.labels}
    while frontier:
        lbl = frontier.pop()
        for s in cm.symbols(d.model(lbl)):
            if s not in d.rules:
                raise DtdError(f"model of {lbl!r} uses undeclared label {s!r}")
            users[s].append(lbl)
            if s not in reachable:
                reachable.add(s)
                frontier.append(s)
    unreachable = [lbl for lbl in d.labels if lbl not in reachable]
    if unreachable:
        raise DtdError(f"unreachable labels: {', '.join(sorted(unreachable))}")

    heights = _heights(d, users)
    dead = [lbl for lbl in d.labels if lbl not in heights]
    if dead:
        raise DtdError(f"labels with no finite tree: {', '.join(sorted(dead))}")


def min_heights(d: Dtd) -> dict[str, int]:
    """Least height of a conforming tree per label (a lone leaf has height 1),
    -1 for a label that heads no finite tree."""
    users: dict[str, list[str]] = {}
    for lbl in d.labels:
        for s in cm.symbols(d.model(lbl)):
            users.setdefault(s, []).append(lbl)
    heights = _heights(d, users)
    return {lbl: heights.get(lbl, -1) for lbl in d.labels}


def _heights(d: Dtd, users: dict[str, list[str]]) -> dict[str, int]:
    """The least tree height of every label that heads a finite tree, found
    in layers.  A label of height k has a word over labels of height below k,
    one of them of height k-1, so after the first layer only the users of the
    labels found in the layer before are checked."""
    heights: dict[str, int] = {}
    layer: Iterable[str] = d.labels
    k = 1
    while layer:
        found = [lbl for lbl in layer if _some_word_within(d.model(lbl), heights)]
        heights.update(dict.fromkeys(found, k))
        layer = {u for lbl in found for u in users.get(lbl, ()) if u not in heights}
        k += 1
    return heights


def _some_word_within(e: Expr, allowed: Container[str]) -> bool:
    match e:
        case Epsilon():
            return True
        case Symbol(name):
            return name in allowed
        case Concat(items):
            return all(_some_word_within(it, allowed) for it in items)
        case Disj(items):
            return any(_some_word_within(it, allowed) for it in items)
        case Star(_) | Opt(_):
            return True
        case Plus(item):
            return _some_word_within(item, allowed)
        case Hash(left, right):
            return all(_some_word_within(it, allowed) for it in left) or all(
                _some_word_within(it, allowed) for it in right
            )
    raise TypeError(f"not an expression: {e!r}")


# --- parsing: native format -------------------------------------------------

def parse_dtd(text: str) -> Dtd:
    """Line format: optional `root <label>`, then `<label> := <model>` lines.
    Lines whose first non-blank character is '#' are comments (mid-line '#'
    is the either-or-both operator).  Without a root directive the first rule
    is the root."""
    root: str | None = None
    raw_rules: list[tuple[str, str]] = []
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("root ") or stripped == "root":
            parts = stripped.split()
            if len(parts) != 2:
                raise ParseError(f"line {lineno}: malformed root directive")
            if root is not None:
                raise ParseError(f"line {lineno}: duplicate root directive")
            root = parts[1]
            continue
        if ":=" not in stripped:
            raise ParseError(f"line {lineno}: expected '<label> := <model>'")
        lhs, rhs = stripped.split(":=", 1)
        lhs = lhs.strip()
        if not cm.is_label(lhs):
            raise ParseError(f"line {lineno}: bad label {lhs!r}")
        if lhs == "eps":
            raise ParseError(f"line {lineno}: 'eps' is reserved")
        raw_rules.append((lhs, rhs.strip()))

    if not raw_rules:
        raise ParseError("DTD declares no rules")
    seen: set[str] = set()
    for lhs, _ in raw_rules:
        if lhs in seen:
            raise ParseError(f"duplicate rule for {lhs!r}")
        seen.add(lhs)
    alphabet = frozenset(seen)
    rules = {lhs: parse_content_model(rhs, alphabet) for lhs, rhs in raw_rules}
    if root is None:
        root = raw_rules[0][0]
    if root not in rules:
        raise ParseError(f"root {root!r} has no rule")
    return Dtd(root, rules)


def render_dtd(d: Dtd) -> str:
    lines = [f"root {d.root}"]
    lines += [f"{lbl} := {render(d.model(lbl))}" for lbl in d.labels]
    return "\n".join(lines) + "\n"


# --- parsing: XML DTD subset --------------------------------------------------

def parse_xml_dtd(text: str, root: str | None = None) -> Dtd:
    """<!ELEMENT name (model)> declarations with the connectors ',' '|' and
    the occurrence marks '?' '*' '+'.  EMPTY and (#PCDATA) map to the empty
    model; ANY and mixed content beyond (#PCDATA) are rejected.  <!ATTLIST>
    is skipped; entities and conditional sections are rejected.  The root is
    the explicit argument, else a `<!-- root: name -->` comment, else the
    first declared element."""
    comment_root: str | None = None
    decls: list[tuple[str, str]] = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if text.startswith("<!--", i):
            end = text.find("-->", i + 4)
            if end < 0:
                raise ParseError("unterminated comment")
            body = text[i + 4:end].strip()
            if body.startswith("root:"):
                comment_root = body[5:].strip()
            i = end + 3
            continue
        if text.startswith("<!ELEMENT", i):
            end = text.find(">", i)
            if end < 0:
                raise ParseError("unterminated <!ELEMENT")
            inner = text[i + len("<!ELEMENT"):end].strip()
            parts = inner.split(None, 1)
            if len(parts) != 2:
                raise ParseError(f"malformed element declaration: {inner!r}")
            if not cm.is_label(parts[0]):
                raise ParseError(f"bad label {parts[0]!r}")
            if parts[0] == "eps":
                raise ParseError("'eps' is reserved")
            decls.append((parts[0], parts[1].strip()))
            i = end + 1
            continue
        if text.startswith("<!ATTLIST", i):
            end = text.find(">", i)
            if end < 0:
                raise ParseError("unterminated <!ATTLIST")
            i = end + 1
            continue
        if text.startswith("<!ENTITY", i) or c == "%":
            raise ParseError("entities are not supported")
        if text.startswith("<![", i):
            raise ParseError("conditional sections are not supported")
        raise ParseError(f"unexpected content at offset {i}: {text[i:i+20]!r}")

    if not decls:
        raise ParseError("no element declarations")
    seen: set[str] = set()
    for name, _ in decls:
        if name in seen:
            raise ParseError(f"duplicate declaration for {name!r}")
        seen.add(name)
    alphabet = frozenset(seen)

    rules: dict[str, Expr] = {}
    for name, model_text in decls:
        rules[name] = _xml_content_model(name, model_text, alphabet)

    chosen = root or comment_root or decls[0][0]
    if chosen not in rules:
        raise ParseError(f"root {chosen!r} has no declaration")
    return Dtd(chosen, rules)


def _xml_content_model(name: str, text: str, alphabet: frozenset[str]) -> Expr:
    if text == "EMPTY":
        return Epsilon()
    if text == "ANY":
        raise ParseError(f"{name}: ANY content is not supported")
    if "#PCDATA" in text:
        if text.replace(" ", "") in ("(#PCDATA)", "(#PCDATA)*"):
            return Epsilon()
        raise ParseError(f"{name}: mixed content beyond (#PCDATA) is not supported")
    # XML content particles are exactly our grammar with ',' separators
    try:
        return parse_content_model(text, alphabet)
    except ParseError as exc:
        raise ParseError(f"{name}: {exc}") from exc


def load_dtd(text: str, fmt: str = "native", root: str | None = None) -> Dtd:
    if fmt == "native":
        d = parse_dtd(text)
        if root is not None and root != d.root:
            if root not in d.rules:
                raise ParseError(f"root {root!r} has no rule")
            d = Dtd(root, d.rules)
        return d
    if fmt == "xml-dtd":
        return parse_xml_dtd(text, root)
    raise ParseError(f"unknown DTD format {fmt!r}")
