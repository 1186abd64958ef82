"""Sibling-requirement maps.

Evaluation over a schema graph cannot keep one document in mind; instead it
records, per label path, which child labels have been demanded below that
path's end node.  A map entry ``key -> values`` says: the node reached by
``key`` must carry children with every label in ``values``.  Values only ever
contain labels that occur exactly once in the end node's content model (df
labels), so each requirement pins a concrete child place.

Whether an entry stays binding after evaluation moves elsewhere depends on
duplicability: a node whose label occurs once in its parent's model *and*
outside every star (dfs) is the same node in every conforming placement, so
requirements below a chain of dfs nodes can never be escaped by picking a
different witness subtree.  Each entry therefore carries one dfs bit per key
node; `restrict` drops exactly the entries that a fresh witness could dodge.

Entries and maps are named tuples, as cheap to build, hash and compare as
plain tuples; a map's entries are sorted by key, and `join` merges through a dict.

Consistency reduces to coverability: all demanded child labels of one node
must be producible by a single word of its content model.  A `Cover`, kept per
rule by `Dtd.covers`, remembers every label set it decided (never one that
raised), so each set is decided once per DTD.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, NamedTuple, Optional

from .content_model import Concat, Disj, Epsilon, Expr, Star, Symbol, symbol_counts, symbols

if TYPE_CHECKING:
    from .dtd import Dtd

Key = tuple[str, ...]
DfsBits = tuple[bool, ...]


class SibEntry(NamedTuple):
    key: Key
    values: frozenset[str]
    dfs: DfsBits  # one bit per key node


class SibMap(NamedTuple):
    entries: tuple[SibEntry, ...]  # sorted by key, keys unique

    @staticmethod
    def empty() -> "SibMap":
        return _EMPTY

    @staticmethod
    def of(items: Iterable[tuple[Key, Iterable[str], DfsBits]]) -> "SibMap":
        m = _EMPTY
        for key, values, dfs in items:
            assert len(key) == len(dfs)
            m = m.join(SibMap((SibEntry(key, frozenset(values), tuple(dfs)),)))
        return m

    def get(self, key: Key) -> Optional[SibEntry]:
        return next((e for e in self.entries if e.key == key), None)

    def join(self, other: "SibMap") -> "SibMap":
        """Both maps' requirements; a key on both sides gets both value sets."""
        if not self.entries or not other.entries:
            return self if self.entries else other
        merged = {e.key: e for e in self.entries}
        for e in other.entries:
            mine = merged.get(e.key)
            if mine is not None:
                assert mine.dfs == e.dfs, f"dfs mismatch on key {e.key}"
                e = SibEntry(e.key, mine.values | e.values, e.dfs)
            merged[e.key] = e
        return SibMap(tuple(merged[key] for key in sorted(merged)))

    def shift(self, prefix: Key, prefix_dfs: DfsBits) -> "SibMap":
        """Prepend a path: reinterpret relative keys one level further out."""
        assert len(prefix) == len(prefix_dfs)
        if not prefix:
            return self
        return SibMap(tuple(
            SibEntry(prefix + key, values, prefix_dfs + dfs)
            for key, values, dfs in self.entries
        ))

    def restrict(self, current: Key) -> "SibMap":
        """Drop entries a fresh witness subtree could dodge (see `surviving`)."""
        return SibMap(tuple(surviving(self.entries, current)))

    def all_values_empty(self) -> bool:
        return all(not e.values for e in self.entries)


_EMPTY = SibMap(())


def surviving(entries: Iterable[SibEntry], current: Key) -> list[SibEntry]:
    """The entries that stay binding once evaluation stands at `current`.

    An entry survives iff every key node past the longest common prefix
    with the current path is dfs.  Prefixes of the current path (the
    current path itself included) always survive: those nodes are pinned
    by the evaluation position."""
    kept = []
    for e in entries:
        key = e.key
        lcp = 0
        n = min(len(key), len(current))
        while lcp < n and key[lcp] == current[lcp]:
            lcp += 1
        if all(e.dfs[lcp:]):
            kept.append(e)
    return kept


# --- rendering ---------------------------------------------------------------

def render_label_set(s: frozenset[str]) -> str:
    if not s:
        return "∅"
    return "{" + ",".join(sorted(s)) + "}"


def render_key(key: Key) -> str:
    return "".join(key) if key else "ε"


def render_map(m: SibMap) -> str:
    if not m.entries:
        return "β⊥"
    parts = [f"{render_key(e.key)}↦{render_label_set(e.values)}" for e in m.entries]
    return "{" + ", ".join(parts) + "}"


# --- coverability and consistency --------------------------------------------

class Cover:
    """A model prepared for `coverable`: its occurrence counts, the label set
    of every sub-expression `_cov` looks into, and the answers so far."""

    __slots__ = ("counts", "tree", "memo")

    def __init__(self, e: Expr):
        self.counts = symbol_counts(e)
        self.tree = _annotate(e)
        self.memo: dict[frozenset[str], bool] = {}  # label set -> coverable


def _annotate(e: Expr) -> tuple:
    # (e, labels of e, annotated items of a concatenation or disjunction)
    match e:
        case Concat(items) | Disj(items):
            kids = tuple(_annotate(it) for it in items)
            return (e, frozenset().union(*(k[1] for k in kids)), kids)
    return (e, symbols(e), ())


def coverable(e: Expr | Cover, s: Iterable[str]) -> bool:
    """Can one word of L(e) contain every label of s?  e is a model, or a
    model prepared once with `Cover` (as `Dtd.covers` keeps them).

    Defined for MDF/DC models and label sets whose members occur exactly once
    in e; anything else is a caller bug and raises."""
    cover = e if isinstance(e, Cover) else Cover(e)
    need = frozenset(s)
    known = cover.memo.get(need)
    if known is None:
        for lbl in need:
            n = cover.counts.get(lbl, 0)
            if n != 1:
                raise ValueError(
                    f"label {lbl!r} occurs {n} times in the model; "
                    "coverable needs exactly one occurrence"
                )
        known = cover.memo[need] = _cov(cover.tree, need)
    return known


def _cov(node: tuple, s: frozenset[str]) -> bool:
    # s only holds labels of node's expression
    if not s:
        return True
    e, labels, kids = node
    match e:
        case Epsilon() | Symbol(_) | Star(_):
            return s <= labels
        case Concat(_):
            # occurrences are unique, so membership splits s between factors
            return all(_cov(k, s & k[1]) for k in kids)
        case Disj(_):
            return any(s <= k[1] and _cov(k, s) for k in kids)
    raise ValueError("coverable needs an MDF/DC model")


def first_violation(m: SibMap, d: Dtd) -> Optional[SibEntry]:
    """First entry whose demanded children no single word can provide.

    Entries with an empty key constrain an unknown context and are exempt."""
    for e in m.entries:
        if not e.key:
            continue
        label = e.key[-1]
        if label not in d.rules:
            raise ValueError(f"map key ends in undeclared label {label!r}")
        if not coverable(d.covers[label], e.values):
            return e
    return None


def consistent(m: SibMap, d: Dtd) -> bool:
    return first_violation(m, d) is None


def psi(node) -> frozenset[str]:
    """Requirement contributed by stepping onto a node: df labels pin their
    single place, everything else demands nothing."""
    return frozenset({node.label}) if node.is_df else frozenset()
