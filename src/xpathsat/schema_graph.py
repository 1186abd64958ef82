"""Schema graphs: one node per place a label can appear under a parent.

For an MDF/DC content model, disjunctions outside stars are first replaced by
concatenation (which keeps exactly the realizable label subsequences).  The
result is a concatenation of single labels and starred subexpressions; each
factor gets a 1-based position and a width mark ("-" for a single mandatory
or droppable label, "*" for a starred group).  A schema-graph node is then
(parent label, position, width, label), plus two per-label flags:

* df: the label occurs exactly once in the parent's original model, so all
  occurrences of that child label map to this single node.
* dfs: df and outside every star, so the child additionally appears at most
  once among the parent's children.

A virtual node above the root anchors evaluations.  Edges go from a node to
every node whose parent label equals its own label.
"""

from __future__ import annotations

from .content_model import (
    Concat, Disj, Epsilon, Expr, Star, Symbol, concat_of, render, symbol_counts,
)
from .dtd import Dtd, NotMRW, is_mdf_dc, is_mrw, top_factors
from .errors import DtdError
from .record import Record


class DcFactor(Record):
    # pos: 1-based position in the converted model; body: the Symbol or Star
    # factor; omega: "-" or "*"; labels: first-occurrence order in the body
    __slots__ = __match_args__ = ("pos", "body", "omega", "labels", "df_labels", "dfs_labels")


def dc_convert(e: Expr) -> tuple[DcFactor, ...]:
    """Factor list of the disjunction-free rewrite of an MDF/DC model."""
    converted = top_factors(_strip_disj(e))
    df = frozenset(lbl for lbl, n in symbol_counts(e).items() if n == 1)
    # a lone-label factor is outside every star
    dfs = df & frozenset(f.name for f in converted if isinstance(f, Symbol))
    factors = []
    for i, f in enumerate(converted, 1):
        match f:
            case Symbol(name):
                labels: tuple[str, ...] = (name,)
                omega = "-"
            case Star(body):
                labels = tuple(symbol_counts(body))  # first-occurrence order
                omega = "*"
            case _:
                raise DtdError(f"unexpected factor {render(f)} after conversion")
        factors.append(DcFactor(
            pos=i, body=f, omega=omega, labels=labels,
            df_labels=df & frozenset(labels), dfs_labels=dfs & frozenset(labels),
        ))
    return tuple(factors)


def _strip_disj(e: Expr) -> Expr:
    """Replace disjunction by concatenation, outside stars only."""
    match e:
        case Epsilon() | Symbol(_) | Star(_):
            return e
        case Concat(items) | Disj(items):
            return concat_of([_strip_disj(it) for it in items])
    raise DtdError(f"model is not MDF/DC: {render(e)}")


class SgNode(Record):
    # name: u0, u1, ... in construction order; parent_label: None only for
    # the virtual node above the root
    __slots__ = __match_args__ = (
        "name", "index", "parent_label", "pos", "omega", "label", "is_df", "is_dfs")

    def __str__(self) -> str:
        return self.name

    def __hash__(self) -> int:
        return self.index  # a graph's places have distinct indices


class SchemaGraph:
    def __init__(self, d: Dtd):
        for lbl in d.labels:
            model = d.model(lbl)
            if not is_mdf_dc(model):
                if not is_mrw(model):
                    raise NotMRW(lbl, render(model, frozenset(d.labels)))
                raise DtdError(
                    f"model of {lbl!r} is MRW but not MDF/DC; normalize it first"
                )
        self.dtd = d
        nodes: list[SgNode] = [SgNode("u0", 0, None, 1, "-", d.root, True, True)]
        for lbl in d.labels:
            for f in dc_convert(d.model(lbl)):
                for sym in f.labels:
                    nodes.append(SgNode(
                        name=f"u{len(nodes)}", index=len(nodes),
                        parent_label=lbl, pos=f.pos, omega=f.omega, label=sym,
                        is_df=sym in f.df_labels, is_dfs=sym in f.dfs_labels,
                    ))
        self.nodes: tuple[SgNode, ...] = tuple(nodes)
        self.sentinel: SgNode = nodes[0]
        children: dict[str, list[SgNode]] = {lbl: [] for lbl in d.labels}
        by_label: dict[tuple[str, str], list[SgNode]] = {}
        labeled: dict[str, list[SgNode]] = {d.root: [self.sentinel]}
        for u in nodes[1:]:
            children[u.parent_label].append(u)
            by_label.setdefault((u.parent_label, u.label), []).append(u)
            labeled.setdefault(u.label, []).append(u)
        # parent label, (parent label, label) and label -> places, index order
        self._children, self._by_label, self._labeled = (
            {key: tuple(us) for key, us in m.items()} for m in (children, by_label, labeled)
        )

    def children(self, parent_label: str | None) -> tuple[SgNode, ...]:
        """The places under parent_label; none for None, the virtual
        node's parent label."""
        return self._children.get(parent_label, ())

    def children_with_label(self, parent_label: str | None, label: str) -> tuple[SgNode, ...]:
        """The places labeled label under parent_label; none for None."""
        return self._by_label.get((parent_label, label), ())

    def places_labeled(self, label: str | None) -> tuple[SgNode, ...]:
        """Every place carrying label, the virtual node included; none for
        None, the virtual node's parent label."""
        return self._labeled.get(label, ())

    def edges(self) -> list[tuple[SgNode, SgNode]]:
        return [(u, v) for u in self.nodes for v in self.children(u.label)]

    def render_text(self) -> str:
        lines = []
        for u in self.nodes:
            par = u.parent_label if u.parent_label is not None else "⊥"
            lines.append(
                f"node {par} {u.pos} {u.omega} {u.label} "
                f"df={int(u.is_df)} dfs={int(u.is_dfs)}"
            )
        for u, v in self.edges():
            lines.append(f"edge {u.name} {v.name}")
        return "\n".join(lines) + "\n"

    def to_json_obj(self) -> dict:
        return {
            "root": self.dtd.root,
            "nodes": [
                {
                    "name": u.name,
                    "parent_label": u.parent_label,
                    "pos": u.pos,
                    "omega": u.omega,
                    "label": u.label,
                    "df": u.is_df,
                    "dfs": u.is_dfs,
                }
                for u in self.nodes
            ],
            "edges": [[u.name, v.name] for u, v in self.edges()],
        }


def build_schema_graph(d: Dtd) -> SchemaGraph:
    return SchemaGraph(d)
