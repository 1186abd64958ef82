"""Reference side of the benchmark, written apart from `xpathsat`.

Nothing here imports the package under test.  Content models are small
tuple trees that the generators build directly; the benchmark renders them
into the package's DTD syntax and, separately, into Python regular
expressions over label tokens, which decide conformance.  Documents are
sampled from the same trees, and queries are evaluated on documents by the
textbook node-set semantics.  Verdicts of the package are checked against
what these functions compute.

Content-model trees::

    ("eps",)  ("sym", label)  ("cat", items)  ("alt", items)
    ("star", e)  ("plus", e)  ("opt", e)  ("hash", e1, e2)

`e1#e2` accepts a word of e1, of e2, or of e1 followed by one of e2.  The
generators only use single items as hash operands.

Queries are lists of steps ``(axis, label, quals)`` where ``quals`` is a
list of relative queries of the same shape; axes are "child", "parent",
"fsib" and "psib".  A query is evaluated from the document root itself.
"""

from __future__ import annotations

import re

ARROWS = {"child": "↓", "parent": "↑", "fsib": "→⁺", "psib": "←⁺"}
INF = float("inf")


# --- content models ------------------------------------------------------------

def labels_of(e) -> list[str]:
    """Labels in left-to-right syntactic order, with repeats."""
    kind = e[0]
    if kind == "eps":
        return []
    if kind == "sym":
        return [e[1]]
    if kind in ("cat", "alt"):
        return [lbl for it in e[1] for lbl in labels_of(it)]
    if kind == "hash":
        return labels_of(e[1]) + labels_of(e[2])
    return labels_of(e[1])


def render_model(e) -> str:
    """The package's native syntax, fully parenthesised and comma-separated."""
    kind = e[0]
    if kind == "eps":
        return "eps"
    if kind == "sym":
        return e[1]
    if kind == "cat":
        return ", ".join(_atom(it) if it[0] == "alt" else render_model(it) for it in e[1])
    if kind == "alt":
        return " | ".join(_atom(it) if it[0] == "cat" else render_model(it) for it in e[1])
    if kind == "hash":
        return f"({_atom(e[1])} # {_atom(e[2])})"
    return _atom(e[1]) + {"star": "*", "plus": "+", "opt": "?"}[kind]


def _atom(e) -> str:
    if e[0] in ("sym", "eps", "hash"):
        return render_model(e)
    return f"({render_model(e)})"


def render_dtd(root: str, rules: dict) -> str:
    lines = [f"root {root}"]
    lines += [f"{lbl} := {render_model(e)}" for lbl, e in rules.items()]
    return "\n".join(lines) + "\n"


def regex_of(e) -> str:
    """Regular expression over the word encoding `label,label,...,`."""
    kind = e[0]
    if kind == "eps":
        return ""
    if kind == "sym":
        return re.escape(e[1] + ",")
    if kind == "cat":
        return "".join(f"(?:{regex_of(it)})" for it in e[1])
    if kind == "alt":
        return "(?:" + "|".join(regex_of(it) for it in e[1]) + ")"
    if kind == "hash":
        x, y = regex_of(e[1]), regex_of(e[2])
        return f"(?:(?:{x})|(?:{y})|(?:{x})(?:{y}))"
    return f"(?:{regex_of(e[1])})" + {"star": "*", "plus": "+", "opt": "?"}[kind]


def encode_word(word) -> str:
    return "".join(lbl + "," for lbl in word)


class Schema:
    """A DTD as the reference sees it: the model trees, compiled regexes,
    least tree heights, and which labels head arbitrarily deep trees."""

    def __init__(self, root: str, rules: dict):
        self.root = root
        self.rules = dict(rules)
        self.regex = {lbl: re.compile(regex_of(e)) for lbl, e in self.rules.items()}
        self.minh = self._min_heights()
        self.deep = self._deep_labels()

    def text(self) -> str:
        return render_dtd(self.root, self.rules)

    def accepts(self, label: str, word) -> bool:
        rx = self.regex.get(label)
        return rx is not None and rx.fullmatch(encode_word(word)) is not None

    def _need(self, e, h) -> float:
        kind = e[0]
        if kind == "eps":
            return 0
        if kind == "sym":
            return h[e[1]]
        if kind == "cat":
            return max((self._need(it, h) for it in e[1]), default=0)
        if kind == "alt":
            return min(self._need(it, h) for it in e[1])
        if kind in ("star", "opt"):
            return 0
        if kind == "plus":
            return self._need(e[1], h)
        return min(self._need(e[1], h), self._need(e[2], h))

    def _min_heights(self) -> dict:
        h = {lbl: INF for lbl in self.rules}
        changed = True
        while changed:
            changed = False
            for lbl, e in self.rules.items():
                v = 1 + self._need(e, h)
                if v < h[lbl]:
                    h[lbl] = v
                    changed = True
        return h

    def _deep_labels(self) -> set:
        succ = {lbl: set(labels_of(e)) for lbl, e in self.rules.items()}
        deep = set()
        for start in self.rules:
            seen, stack = set(), list(succ[start])
            while stack:
                x = stack.pop()
                if x == start:
                    deep.add(start)
                    break
                if x not in seen:
                    seen.add(x)
                    stack.extend(succ[x])
        # a label that reaches a cyclic label also heads deep trees
        changed = True
        while changed:
            changed = False
            for lbl in self.rules:
                if lbl not in deep and succ[lbl] & deep:
                    deep.add(lbl)
                    changed = True
        return deep


# --- documents -----------------------------------------------------------------

class Doc:
    """A document as flat arrays; node 0 is the root."""

    def __init__(self):
        self.label: list[str] = []
        self.parent: list[int] = []
        self.kids: list[list[int]] = []
        self.index: list[int] = []  # position among the parent's children

    def add(self, label: str, parent: int) -> int:
        n = len(self.label)
        self.label.append(label)
        self.parent.append(parent)
        self.kids.append([])
        if parent >= 0:
            self.index.append(len(self.kids[parent]))
            self.kids[parent].append(n)
        else:
            self.index.append(0)
        return n

    def size(self) -> int:
        return len(self.label)

    def height(self, n: int = 0) -> int:
        best, stack = 0, [(n, 1)]
        while stack:
            v, h = stack.pop()
            best = max(best, h)
            stack.extend((c, h + 1) for c in self.kids[v])
        return best

    def term(self, n: int = 0) -> str:
        """Tree-term syntax `r(a,b(c))`, as the package prints witnesses."""
        if not self.kids[n]:
            return self.label[n]
        return self.label[n] + "(" + ",".join(self.term(c) for c in self.kids[n]) + ")"


def parse_term(text: str) -> Doc:
    toks = re.findall(r"[A-Za-z_][A-Za-z0-9_.\-]*|[(),]", text)
    if "".join(toks) != re.sub(r"\s+", "", text):
        raise ValueError(f"bad tree term {text!r}")
    doc, pos = Doc(), 0

    def node(parent: int) -> None:
        nonlocal pos
        label = toks[pos]
        if label in "(),":
            raise ValueError(f"bad tree term {text!r}")
        pos += 1
        me = doc.add(label, parent)
        if pos < len(toks) and toks[pos] == "(":
            pos += 1
            node(me)
            while toks[pos] == ",":
                pos += 1
                node(me)
            if toks[pos] != ")":
                raise ValueError(f"bad tree term {text!r}")
            pos += 1

    node(-1)
    if pos != len(toks):
        raise ValueError(f"trailing input in tree term {text!r}")
    return doc


def conforms(doc: Doc, schema: Schema) -> bool:
    if doc.label[0] != schema.root:
        return False
    return all(
        schema.accepts(doc.label[n], [doc.label[c] for c in doc.kids[n]])
        for n in range(doc.size())
    )


class Sampler:
    """Draws conforming documents.  Stars iterate at most `rep` times, the
    tree stays within `depth` levels, and once `cap` nodes exist every
    optional part is left out.  With `spine` set, the sampler keeps one path
    going down to that depth where the schema allows it."""

    def __init__(self, schema: Schema, rng, depth: int, rep: int = 2,
                 cap: int = 400, star_p: float = 0.5):
        self.s = schema
        self.rng = rng
        self.depth = depth
        self.rep = rep
        self.cap = cap
        self.star_p = star_p

    def sample(self, spine: int = 0) -> Doc:
        if self.s.minh[self.s.root] > self.depth:
            raise ValueError("depth bound is below the root's least height")
        doc = Doc()
        self._tree(doc, self.s.root, -1, self.depth, spine)
        return doc

    def _tree(self, doc: Doc, label: str, parent: int, left: int, spine: int) -> None:
        me = doc.add(label, parent)
        word: list[str] = []
        carrier = -1
        for _ in range(30 if spine > 1 else 1):
            word = self._word(self.s.rules[label], left - 1, doc)
            deep = [i for i, lbl in enumerate(word) if lbl in self.s.deep]
            if spine <= 1 or deep:
                carrier = self.rng.choice(deep) if spine > 1 and deep else -1
                break
        for i, lbl in enumerate(word):
            self._tree(doc, lbl, me, left - 1, spine - 1 if i == carrier else 0)

    def _fits(self, e, budget: int) -> bool:
        return self.s._need(e, self.s.minh) <= budget

    def _word(self, e, budget: int, doc: Doc) -> list[str]:
        kind, rng = e[0], self.rng
        full = doc.size() >= self.cap
        if kind == "eps":
            return []
        if kind == "sym":
            return [e[1]]
        if kind == "cat":
            return [lbl for it in e[1] for lbl in self._word(it, budget, doc)]
        if kind == "alt":
            ok = [it for it in e[1] if self._fits(it, budget)]
            if full:
                ok = [min(ok, key=lambda it: len(self._shortest(it)))]
            return self._word(rng.choice(ok), budget, doc)
        if kind == "opt":
            if full or not self._fits(e[1], budget) or rng.random() < 0.5:
                return []
            return self._word(e[1], budget, doc)
        if kind in ("star", "plus"):
            lo = 1 if kind == "plus" else 0
            n = lo
            if not full and self._fits(e[1], budget):
                while n < self.rep and rng.random() < self.star_p:
                    n += 1
            return [lbl for _ in range(n) for lbl in self._word(e[1], budget, doc)]
        options = [x for x in ((e[1],), (e[2],), (e[1], e[2]))
                   if all(self._fits(it, budget) for it in x)]
        pick = options[0] if full else rng.choice(options)
        return [lbl for it in pick for lbl in self._word(it, budget, doc)]

    def _shortest(self, e) -> list[str]:
        kind = e[0]
        if kind in ("eps", "star", "opt"):
            return []
        if kind == "sym":
            return [e[1]]
        if kind == "cat":
            return [lbl for it in e[1] for lbl in self._shortest(it)]
        if kind == "alt":
            return min((self._shortest(it) for it in e[1]), key=len)
        if kind == "plus":
            return self._shortest(e[1])
        return min(self._shortest(e[1]), self._shortest(e[2]), key=len)


# --- queries -------------------------------------------------------------------

def render_query(steps) -> str:
    """Native query syntax.  A step's qualifiers are joined with `and` at
    even step positions and stacked as `[q][q']` at odd ones, so that both
    forms occur; they mean the same."""
    parts = []
    for i, (axis, label, quals) in enumerate(steps):
        s = f"{ARROWS[axis]}::{label}"
        if len(quals) > 1 and i % 2 == 0:
            s += "[" + " and ".join(render_query(q) for q in quals) + "]"
        else:
            s += "".join(f"[{render_query(q)}]" for q in quals)
        parts.append(s)
    return "/".join(parts)


def query_size(steps) -> int:
    return sum(1 + sum(query_size(q) for q in quals) for _, _, quals in steps)


def evaluate(doc: Doc, steps, context=(0,)) -> set:
    """Nodes the query selects from the context nodes."""
    cur = set(context)
    for axis, label, quals in steps:
        nxt = set()
        for n in cur:
            nxt.update(c for c in _targets(doc, n, axis) if doc.label[c] == label)
        cur = {n for n in nxt if all(evaluate(doc, q, (n,)) for q in quals)}
        if not cur:
            break
    return cur


def matches(doc: Doc, steps) -> bool:
    return bool(evaluate(doc, steps))


def walk(doc: Doc, rng, start: int, length: int, axes: dict,
         qual_p: float = 0.0, qual_len=(1, 2), qual_depth: int = 1,
         same_label_sibs: bool = True, _seen: dict | None = None):
    """A query the document satisfies, built by walking from `start`.

    `axes` weighs the moves; a move with no target is skipped.  After each
    move, with probability `qual_p`, qualifiers are attached: short
    sub-walks (child and sibling moves only) from the node just reached.
    With `same_label_sibs` off, the walk and its qualifiers never visit two
    different siblings that carry the same label.  Returns the steps and
    the node the walk ends on."""
    seen = {} if _seen is None else _seen   # (parent, label) -> node visited
    seen.setdefault((doc.parent[start], doc.label[start]), start)
    steps, n = [], start
    names = list(axes)
    weights = [axes[a] for a in names]
    tries = 0
    while len(steps) < length and tries < 50 * (length + 1):
        tries += 1
        axis = rng.choices(names, weights)[0]
        cand = _targets(doc, n, axis)
        if not same_label_sibs:
            cand = [c for c in cand
                    if seen.get((doc.parent[c], doc.label[c]), c) == c]
        if not cand:
            continue
        n = rng.choice(cand)
        seen.setdefault((doc.parent[n], doc.label[n]), n)
        quals = []
        while qual_depth > 0 and rng.random() < qual_p and len(quals) < 3:
            sub, _ = walk(doc, rng, n, rng.randint(*qual_len),
                          {"child": 3, "fsib": 1, "psib": 1},
                          qual_p / 2, qual_len, qual_depth - 1, same_label_sibs, seen)
            if sub:
                quals.append(sub)
        steps.append((axis, doc.label[n], quals))
    return steps, n


def _targets(doc: Doc, n: int, axis: str) -> list[int]:
    if axis == "child":
        return doc.kids[n]
    if axis == "parent":
        return [doc.parent[n]] if doc.parent[n] >= 0 else []
    if n == 0:
        return []
    sibs = doc.kids[doc.parent[n]]
    i = doc.index[n]
    return sibs[i + 1:] if axis == "fsib" else sibs[:i]
