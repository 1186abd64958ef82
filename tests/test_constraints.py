"""Sibling-constraint maps: rendering, algebra, coverability."""

from __future__ import annotations

import random

import pytest

from xpathsat import build_schema_graph, delta_dtd, parse_content_model, parse_dtd
from xpathsat.content_model import symbol_counts
from xpathsat.constraints import (
    Cover,
    SibMap,
    consistent,
    coverable,
    first_violation,
    psi,
    render_key,
    render_label_set,
    render_map,
)

from xpathsat.sat_checker import _row, compile_dtd, eval2
from xpathsat.xpath import normalize

from gens import dense_dtd, random_eval2_query, random_mdf_dc_dtd, random_sibmap
from support import (
    ReferenceEntry, entry_at, enumerate_words, reference_consistent, reference_join,
    reference_shift, sibmap_of,
)

WORKED = "root r\nr := r*(a*b|c)r*\na := eps\nb := a\nc := eps\n"


def worked():
    d = parse_dtd(WORKED)
    return d, build_schema_graph(delta_dtd(d))


# ------------------------------------------------------------------ rendering


def test_render_empty_map():
    assert render_map(SibMap.empty()) == "β⊥"


def test_render_two_entry_map():
    b = sibmap_of([(("r",), {"b", "c"}, (True,)), (("r", "b"), {"a"}, (True, True))])
    assert render_map(b) == "{r↦{b,c}, rb↦{a}}"


def test_render_relative_key():
    assert render_map(sibmap_of([((), {"a"}, ())])) == "{ε↦{a}}"


def test_render_empty_value_set():
    assert render_map(sibmap_of([(("r",), set(), (True,))])) == "{r↦∅}"


def test_render_key_and_label_set():
    assert render_key(("r", "b")) == "rb"
    assert render_key(()) == "ε"
    assert render_label_set({"b", "a"}) == "{a,b}"
    assert render_label_set(set()) == "∅"


def test_of_sorts_entries_by_key():
    a = sibmap_of([(("r", "b"), {"a"}, (True, True)), (("r",), {"b"}, (True,))])
    b = sibmap_of([(("r",), {"b"}, (True,)), (("r", "b"), {"a"}, (True, True))])
    assert a == b
    assert [e.key for e in a.entries] == [("r",), ("r", "b")]


def test_get():
    b = sibmap_of([(("r",), {"b"}, (True,))])
    assert entry_at(b, ("r",)).values == {"b"}
    assert entry_at(b, ("x",)) is None
    assert entry_at(b, ()) is None


# ----------------------------------------------------------------------- psi


def test_psi_worked_nodes():
    _, g = worked()
    by_name = {n.name: n for n in g.nodes}
    assert psi(by_name["u0"]) == {"r"}
    assert psi(by_name["u1"]) == set()
    assert psi(by_name["u2"]) == {"a"}
    assert psi(by_name["u3"]) == {"b"}
    assert psi(by_name["u5"]) == set()
    assert psi(by_name["u6"]) == {"a"}


# ---------------------------------------------------------------------- join


def test_join_merges_values_on_shared_key():
    a = sibmap_of([(("r",), {"b"}, (True,))])
    b = sibmap_of([(("r",), {"c"}, (True,))])
    assert render_map(a.join(b)) == "{r↦{b,c}}"


def test_join_with_empty_is_identity():
    a = sibmap_of([(("r",), {"b"}, (True,)), (("r", "b"), {"a"}, (True, True))])
    assert a.join(SibMap.empty()) == a
    assert SibMap.empty().join(a) == a


def test_join_disjoint_keys():
    a = sibmap_of([(("r",), {"b"}, (True,))])
    b = sibmap_of([(("r", "b"), {"a"}, (True, True))])
    assert render_map(a.join(b)) == "{r↦{b}, rb↦{a}}"


def test_join_rejects_conflicting_dfs_bits():
    a = sibmap_of([(("r",), {"b"}, (True,))])
    b = sibmap_of([(("r",), {"c"}, (False,))])
    with pytest.raises(AssertionError, match="dfs mismatch"):
        a.join(b)


# keys get fixed bits so random maps always join cleanly
_KEY_POOL = [
    ((), ()),
    (("r",), (True,)),
    (("r", "b"), (True, True)),
    (("r", "b", "a"), (True, True, True)),
    (("r", "r"), (True, False)),
]


def _random_map(rng):
    entries = []
    for key, bits in _KEY_POOL:
        if rng.random() < 0.6:
            vals = {x for x in "abc" if rng.random() < 0.5}
            entries.append((key, vals, bits))
    return sibmap_of(entries)


def test_join_algebra():
    rng = random.Random(7)
    for _ in range(200):
        a, b, c = _random_map(rng), _random_map(rng), _random_map(rng)
        assert a.join(a) == a
        assert a.join(b) == b.join(a)
        assert a.join(b).join(c) == a.join(b.join(c))


# --------------------------------------------------------------------- shift


def test_shift_prefixes_keys():
    assert render_map(sibmap_of([((), {"b"}, ())]).shift(("r",), (True,))) == "{r↦{b}}"
    m = sibmap_of([(("b",), {"a"}, (True,))])
    assert render_map(m.shift(("r",), (True,))) == "{rb↦{a}}"


def test_shift_empty_map():
    assert SibMap.empty().shift(("r",), (True,)) == SibMap.empty()


def test_shift_preserves_entries_and_values():
    rng = random.Random(13)
    for _ in range(100):
        m = _random_map(rng)
        s = m.shift(("q", "r"), (False, True))
        assert len(s.entries) == len(m.entries)
        for e in m.entries:
            moved = entry_at(s, ("q", "r") + e.key)
            assert moved is not None
            assert moved.values == e.values
            assert moved.dfs == (False, True) + e.dfs


# ------------------------------------------------------------------ restrict


def _restricted(entries, current):
    return render_map(sibmap_of(entries).restrict(current))


def test_restrict_drops_non_dfs_divergence():
    # old branch through a non-DFS place is gone once we sit elsewhere
    assert _restricted([(("r", "r"), {"c"}, (True, False))], ("r", "b")) == "β⊥"


def test_restrict_keeps_dfs_divergence():
    assert _restricted([(("r", "r"), {"c"}, (True, True))], ("r", "b")) == "{rr↦{c}}"


def test_restrict_keeps_prefixes_of_current():
    assert _restricted([(("r",), {"b"}, (False,))], ("r", "b")) == "{r↦{b}}"
    assert _restricted([((), {"a"}, ())], ("r",)) == "{ε↦{a}}"


def test_restrict_keeps_current_key_itself():
    # the node we stand on is real even if its place is not DFS
    assert _restricted([(("r", "r"), {"c"}, (True, False))], ("r", "r")) == "{rr↦{c}}"


def test_restrict_extensions_below_current():
    assert (
        _restricted([(("r", "b", "a"), {"x"}, (True, True, True))], ("r",))
        == "{rba↦{x}}"
    )
    assert _restricted([(("r", "b", "a"), {"x"}, (True, False, True))], ("r",)) == "β⊥"


def test_restrict_is_contraction():
    rng = random.Random(29)
    currents = [(), ("r",), ("r", "b"), ("r", "r"), ("r", "b", "a")]
    for _ in range(200):
        m = _random_map(rng)
        cur = rng.choice(currents)
        r = m.restrict(cur)
        for e in r.entries:
            orig = entry_at(m, e.key)
            assert orig is not None and orig.values == e.values


# ----------------------------------------------------------------- coverable


def test_coverable_worked_examples():
    e = parse_content_model("r*(a*b|c)r*", {"r", "a", "b", "c"})
    assert coverable(e, {"a", "b"})
    assert not coverable(e, {"a", "b", "c"})  # b and c sit in rival branches
    assert coverable(e, set())
    assert coverable(e, {"c"})


def test_coverable_requires_unique_occurrence():
    e = parse_content_model("r*(a*b|c)r*", {"r", "a", "b", "c"})
    with pytest.raises(ValueError, match="'q' occurs 0 times"):
        coverable(e, {"q"})
    with pytest.raises(ValueError, match="'r' occurs 2 times"):
        coverable(e, {"r"})
    with pytest.raises(ValueError, match="'a' occurs 2 times"):
        coverable(parse_content_model("a*a*", {"a"}), {"a"})


def test_coverable_simple_models():
    assert coverable(parse_content_model("a*bc", {"a", "b", "c"}), {"a", "b", "c"})
    d = parse_content_model("a|b", {"a", "b"})
    assert coverable(d, {"a"})
    assert not coverable(d, {"a", "b"})
    e = parse_content_model("(ab)*", {"a", "b"})
    assert coverable(e, {"a", "b"})
    f = parse_content_model("(a|b)c*", {"a", "b", "c"})
    assert coverable(f, {"a", "c"})
    assert not coverable(f, {"a", "b"})


def test_coverable_rejects_non_mdf_dc_shapes():
    with pytest.raises(ValueError, match="MDF/DC"):
        coverable(parse_content_model("a?b", {"a", "b"}), {"a"})


def _coverable_brute(e, s):
    bound = sum(symbol_counts(e).values())
    return any(s <= set(w) for w in enumerate_words(e, max(bound, 1)))


def test_coverable_matches_word_search():
    rng = random.Random(31337)
    checked = 0
    for _ in range(25):
        d = random_mdf_dc_dtd(rng)
        for label in d.labels:
            e = d.model(label)
            once = sorted(k for k, v in symbol_counts(e).items() if v == 1)
            subsets = [set()]
            for x in once:
                subsets += [s | {x} for s in subsets]
            for s in subsets[:16]:
                assert coverable(e, s) == _coverable_brute(e, s)
                checked += 1
    assert checked >= 200


# ---------------------------------------------------------------- consistent


def test_consistent_worked_maps():
    d = parse_dtd(WORKED)
    bad = sibmap_of([(("r",), {"b", "c"}, (True,)), (("r", "b"), {"a"}, (True, True))])
    ok = sibmap_of([(("r",), {"b"}, (True,)), (("r", "b"), {"a"}, (True, True))])
    assert not consistent(bad, d)
    assert consistent(ok, d)
    v = first_violation(bad, d)
    assert v.key == ("r",) and v.values == {"b", "c"}
    assert first_violation(ok, d) is None


def test_consistent_skips_relative_key():
    d = parse_dtd(WORKED)
    assert consistent(sibmap_of([((), {"a", "c"}, ())]), d)


def test_consistent_skips_empty_value_sets():
    d = parse_dtd(WORKED)
    m = sibmap_of([(("r",), set(), (True,))])
    assert consistent(m, d)
    assert first_violation(m, d) is None


def test_consistent_rejects_undeclared_end_label():
    d = parse_dtd(WORKED)
    m = sibmap_of([(("r", "q"), {"a"}, (True, True))])
    with pytest.raises(ValueError, match="undeclared label 'q'"):
        consistent(m, d)


def test_consistent_agrees_with_per_key_coverability():
    rng = random.Random(4096)
    d, g = worked()
    agree = 0
    for _ in range(150):
        m = random_sibmap(rng, d, g)
        want = all(
            coverable(d.model(e.key[-1]), e.values)
            for e in m.entries
            if e.key and e.values
        )
        assert consistent(m, d) == want
        agree += 1
    assert agree == 150


def test_all_values_empty():
    assert SibMap.empty().all_values_empty()
    assert sibmap_of([(("r",), set(), (True,))]).all_values_empty()
    assert not sibmap_of([(("r",), {"b"}, (True,))]).all_values_empty()


# ------------------------------------------------- against the former algebra


def _triples(m: SibMap) -> list:
    return [(e.key, e.values, e.dfs) for e in m.entries]


def test_map_algebra_matches_its_dataclass_reference(monkeypatch):
    # named-tuple entries, the dict-merging join and memoized coverability
    # give what the checking dataclass entries and the rebuilding join gave
    rng = random.Random(2008)
    dtds = [random_mdf_dc_dtd(rng) for _ in range(15)] + [dense_dtd(4), dense_dtd(6)]
    queries, shared = [], 0
    for d in dtds:
        g = compile_dtd(d)
        for _ in range(12):
            a, b = random_sibmap(rng, g.dtd, g), random_sibmap(rng, g.dtd, g)
            if rng.random() < 0.2:
                a = SibMap.empty()
            joined = a.join(b)
            shared += len(joined.entries) < len(a.entries) + len(b.entries)
            assert _triples(joined) == _triples(reference_join(a, b))
            assert render_map(joined) == render_map(reference_join(a, b))
            prefix, bits = rng.choice([((), ()), (("q",), (False,)), (("q", "r"), (True, False))])
            assert _triples(b.shift(prefix, bits)) == _triples(reference_shift(b, prefix, bits))
            cur = rng.choice(joined.entries).key if joined.entries else ()
            assert _triples(joined.restrict(cur)) == _triples(reference_join(a, b).restrict(cur))
            for _ in range(2):  # the second call answers from the memo
                assert consistent(joined, g.dtd) == reference_consistent(joined, g.dtd)
        queries += [(g, normalize(random_eval2_query(rng, d, budget=4))) for _ in range(4)]
    fast = [sorted(map(_row, eval2(g, p))) for g, p in queries]
    monkeypatch.setattr(SibMap, "join", reference_join)
    monkeypatch.setattr(SibMap, "shift", reference_shift)
    monkeypatch.setattr("xpathsat.sat_checker.consistent", reference_consistent)
    slow = [eval2(g, p) for g, p in queries]
    assert fast == [sorted(map(_row, ts)) for ts in slow]
    assert sum(map(len, fast)) > 150 and shared > 50
    assert any(isinstance(e, ReferenceEntry) for ts in slow for t in ts for e in t.post.entries)


def test_coverable_never_remembers_a_failure():
    cover = Cover(parse_content_model("a*a*b", {"a", "b"}))
    assert coverable(cover, {"b"})
    for _ in range(3):
        with pytest.raises(ValueError, match="occurs 2 times"):
            coverable(cover, {"a"})
    assert frozenset({"a"}) not in cover.memo and cover.memo == {frozenset({"b"}): True}

