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

import re
from collections.abc import Callable, Container, Iterable
from functools import cached_property

from . import content_model as cm
from .constraints import Cover
from .content_model import (
    Concat, Disj, Epsilon, Expr, Hash, Opt, Plus, Star, Symbol,
    concat_of, operands, parse_content_model, render, symbol_counts,
)
from .errors import DtdError, NotMRW, ParseError
from .record import Record


class Dtd(Record):
    __match_args__ = ("root", "rules", "order")  # rules: in declaration order

    def __init__(self, root: str, rules: dict[str, Expr], order: tuple[str, ...] = ()):
        if root not in rules:
            raise DtdError(f"root {root!r} has no rule")
        vars(self).update(root=root, rules=rules, order=order or tuple(rules))

    def model(self, label: str) -> Expr:
        return self.rules[label]

    @property
    def labels(self) -> tuple[str, ...]:
        return self.order

    @cached_property
    def covers(self) -> dict[str, Cover]:
        """Every rule prepared for `coverable`, once per instance."""
        return {lbl: Cover(e) for lbl, e in self.rules.items()}

    def __reduce__(self):
        # a pickle or copy carries the declaration, never what the instance
        # keeps: `covers`, and what other modules keep in its `vars`
        return Dtd, (self.root, self.rules, self.order)


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
        case Symbol(_) | Epsilon() | Star(_) | Plus(_):
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
    return isinstance(e, kinds) or any(_contains(it, kinds) for it in operands(e))


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


def _outside_stars(e: Expr) -> set[str]:
    """The labels with an occurrence outside every * / + scope."""
    match e:
        case Symbol(name):
            return {name}
        case Star(_) | Plus(_):
            return set()
    return set().union(*map(_outside_stars, operands(e)))


def is_mrw(e: Expr) -> bool:
    counts = symbol_counts(e)
    return is_rw(e) and all(counts[lbl] == 1 for lbl in _outside_stars(e))


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
        case Plus(item):
            return Star(delta(item))
        case Opt(item):
            return delta(item)
        case Hash(left, right):
            return concat_of([delta(it) for it in left + right])
    return cm.rebuilt(e, delta)


def delta_dtd(d: Dtd) -> Dtd:
    """Apply delta to every rule.  Requires an MRW DTD; the result is MDF/DC,
    which `SchemaGraph` checks when it is built."""
    new_rules: dict[str, Expr] = {}
    for lbl in d.labels:
        e = d.model(lbl)
        if not is_mrw(e):
            raise NotMRW(lbl, render(e, frozenset(d.labels)))
        new_rules[lbl] = delta(e)
    return Dtd(d.root, new_rules)


# --- sanity: reachability and non-emptiness ---------------------------------

def validate_no_useless(d: Dtd) -> None:
    """Reject DTDs with unreachable labels or labels that cannot head a finite
    tree.  Both make schema-graph nodes meaningless."""
    reachable = {d.root}
    frontier = [d.root]
    while frontier:
        lbl = frontier.pop()
        for s in cm.symbols(d.model(lbl)):
            if s not in d.rules:
                raise DtdError(f"model of {lbl!r} uses undeclared label {s!r}")
            if s not in reachable:
                reachable.add(s)
                frontier.append(s)
    unreachable = [lbl for lbl in d.labels if lbl not in reachable]
    if unreachable:
        raise DtdError(f"unreachable labels: {', '.join(sorted(unreachable))}")

    dead = [lbl for lbl, h in min_heights(d).items() if h < 0]
    if dead:
        raise DtdError(f"labels with no finite tree: {', '.join(sorted(dead))}")


def min_heights(d: Dtd) -> dict[str, int]:
    """Least height of a conforming tree per label (a lone leaf has height 1),
    -1 for a label that heads no finite tree.  Found in layers: a label of
    height k has a word over lower labels, one of height k-1, so each layer
    checks only the users of the labels the layer before found."""
    users: dict[str, list[str]] = {}
    for lbl in d.labels:
        for s in cm.symbols(d.model(lbl)):
            users.setdefault(s, []).append(lbl)
    heights: dict[str, int] = {}
    layer: Iterable[str] = d.labels
    k = 1
    while layer:
        found = [lbl for lbl in layer if _some_word_within(d.model(lbl), heights)]
        heights.update(dict.fromkeys(found, k))
        layer = {u for lbl in found for u in users.get(lbl, ()) if u not in heights}
        k += 1
    return {lbl: heights.get(lbl, -1) for lbl in d.labels}


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


# --- parsing ----------------------------------------------------------------

def _build(decls: list[tuple[str, str, str]], root: str | None, noun: str,
           parse_model: Callable[[str, str, frozenset[str]], Expr]) -> Dtd:
    """The one way from declarations `(name, model text, where)` to a Dtd:
    `where` prefixes the errors about that name, `noun` names a declaration
    in errors, and the root defaults to the first declaration."""
    seen: set[str] = set()
    for name, _, where in decls:
        if not cm.is_label(name):
            raise ParseError(f"{where}bad label {name!r}")
        if name == "eps":
            raise ParseError(f"{where}'eps' is reserved")
        if name in seen:
            raise ParseError(f"duplicate {noun} for {name!r}")
        seen.add(name)
    alphabet = frozenset(seen)
    rules = {name: parse_model(name, text, alphabet) for name, text, _ in decls}
    root = root or decls[0][0]
    if root not in rules:
        raise ParseError(f"root {root!r} has no {noun}")
    return Dtd(root, rules)


def parse_dtd(text: str) -> Dtd:
    """Line format: optional `root <label>`, then `<label> := <model>` lines.
    Lines whose first non-blank character is '#' are comments (mid-line '#'
    is the either-or-both operator).  Without a root directive the first rule
    is the root."""
    return _native_dtd(text, None)


def _native_dtd(text: str, root: str | None) -> Dtd:
    named: str | None = None
    decls: list[tuple[str, str, str]] = []
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if ":=" in stripped:
            lhs, rhs = stripped.split(":=", 1)
            decls.append((lhs.strip(), rhs.strip(), f"line {lineno}: "))
        elif stripped.startswith("root ") or stripped == "root":
            parts = stripped.split()
            if len(parts) != 2:
                raise ParseError(f"line {lineno}: malformed root directive")
            if named is not None:
                raise ParseError(f"line {lineno}: duplicate root directive")
            named = parts[1]
        else:
            raise ParseError(f"line {lineno}: expected '<label> := <model>'")
    if not decls:
        raise ParseError("DTD declares no rules")
    return _build(decls, root or named, "rule",
                  lambda _, model, alphabet: parse_content_model(model, alphabet))


def render_dtd(d: Dtd) -> str:
    alphabet = frozenset(d.labels)
    lines = [f"root {d.root}"]
    lines += [f"{lbl} := {render(d.model(lbl), alphabet)}" for lbl in d.labels]
    return "\n".join(lines) + "\n"


# one markup item or whitespace; an item left open, an unsupported one, or
# any other character is a refusal (the named groups after `element`)
_XML_ITEM = re.compile(
    r"<!--\s*root:(?P<root>.*?)-->|<!--.*?-->|<!ELEMENT\s*(?P<element>[^>]*?)\s*>"
    r"|<!ATTLIST[^>]*>|\s+|(?P<unterminated><!--|<!ELEMENT|<!ATTLIST)"
    r"|(?P<entity><!ENTITY|%)|(?P<conditional><!\[)|(?P<other>.)",
    re.DOTALL,
)


def parse_xml_dtd(text: str, root: str | None = None) -> Dtd:
    """<!ELEMENT name (model)> declarations with the connectors ',' '|' and
    the occurrence marks '?' '*' '+'.  EMPTY and (#PCDATA) map to the empty
    model; ANY and mixed content beyond (#PCDATA) are rejected.  <!ATTLIST>
    is skipped; entities and conditional sections are rejected.  The root is
    the explicit argument, else a `<!-- root: name -->` comment, else the
    first declared element."""
    named: str | None = None
    decls: list[tuple[str, str, str]] = []
    for m in _XML_ITEM.finditer(text):
        kind = m.lastgroup
        if kind == "root":
            named = m[kind].strip()
        elif kind == "element":
            parts = m[kind].split(None, 1)
            if len(parts) != 2:
                raise ParseError(f"malformed element declaration: {m[kind]!r}")
            decls.append((*parts, ""))
        elif kind == "unterminated":
            raise ParseError(f"unterminated {m[kind].replace('<!--', 'comment')}")
        elif kind == "entity":
            raise ParseError("entities are not supported")
        elif kind == "conditional":
            raise ParseError("conditional sections are not supported")
        elif kind == "other":
            i = m.start()
            raise ParseError(f"unexpected content at offset {i}: {text[i:i+20]!r}")
    if not decls:
        raise ParseError("no element declarations")
    return _build(decls, root or named, "declaration", _xml_content_model)


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
    """Read either format; `root` overrides the root the text names."""
    if fmt == "native":
        return _native_dtd(text, root)
    if fmt == "xml-dtd":
        return parse_xml_dtd(text, root)
    raise ParseError(f"unknown DTD format {fmt!r}")
