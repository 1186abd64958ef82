"""The value records every AST node, tree and verdict is built on."""

from __future__ import annotations

import copy
import pickle

import pytest

from xpathsat import (
    Axis, DocTree, Opt, Plus, QAnd, QOr, QPath, Qual, Seq, Star, Step, Symbol, Union,
    compile_dtd, dc_convert, parse_dtd, parse_tree, parse_xpath, satisfiable,
)

WORKED = "root r\nr := r*(a*b|c)r*\na := eps\nb := a\nc := eps\n"
A, B = Step(Axis.CHILD, "a"), Step(Axis.CHILD, "b")


def test_equality_needs_the_same_type():
    x = Symbol("a")
    assert Star(x) != Opt(x) != Plus(x) != Star(x)
    assert Seq((A, B)) != Union((A, B))
    assert QAnd((QPath(A), QPath(B))) != QOr((QPath(A), QPath(B)))
    assert Star(x) == Star(Symbol("a")) and Seq((A, B)) == Seq((A, B))
    assert Step(Axis.CHILD, "a") != Step(Axis.PARENT, "a") != Step(Axis.PARENT, "b")
    assert Step(Axis.CHILD, "a") != ("child", "a") and Symbol("a") != "a"


def test_equal_records_hash_equal_and_refuse_assignment():
    for make in (lambda: Step(Axis.FSIB, "a"), lambda: Seq((A, B)),
                 lambda: parse_tree("r(a,b(c))"), lambda: Star(Symbol("a"))):
        x, y = make(), make()
        assert x is not y and x == y and hash(x) == hash(y)
        field = type(x).__match_args__[0]
        with pytest.raises(AttributeError):
            setattr(x, field, None)
        with pytest.raises(AttributeError):
            delattr(x, field)
    d = parse_dtd(WORKED)
    with pytest.raises(AttributeError):
        d.root = "a"
    v = satisfiable(d, "↓::r")
    with pytest.raises(AttributeError):
        v.sat = False


def test_records_without_a_dict_stay_so():
    # every record but Dtd and Verdict keeps its fields in slots
    assert not hasattr(parse_tree("r(a)"), "__dict__")
    assert not hasattr(A, "__dict__")
    assert not hasattr(compile_dtd(parse_dtd(WORKED)).nodes[0], "__dict__")


def _round_trips(x):
    return [pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)]


def test_pickle_and_copy_round_trips():
    d = parse_dtd(WORKED)
    graph = compile_dtd(d)
    for x in (Step(Axis.PSIB, "b"), parse_tree("r(r(c),b(a))"), graph.nodes[3],
              dc_convert(d.model("r"))[1], parse_xpath("↓::r[↓::a or ↑::b]/→⁺::c")):
        for y in _round_trips(x):
            assert type(y) is type(x) and y == x
    for y in _round_trips(d):
        assert (y.root, y.rules, y.labels) == (d.root, d.rules, d.labels)
        assert "covers" not in vars(y)


def test_a_deferred_verdict_pickles_and_copies_equal():
    d = parse_dtd(WORKED)
    for q in ("↓::r/→⁺::b/↓::a/↑::b", "↓::r/→⁺::b[↓::a]", "↓::r/→⁺::b/↓::a/↑::b/→⁺::c"):
        v = satisfiable(d, q)
        assert "trace" not in vars(v)  # deferred until read
        copies = _round_trips(v)
        assert all("trace" not in vars(w) for w in copies)
        for w in copies:
            assert w == v and w.trace == v.trace and w.levels == v.levels


def test_repr_reads_as_the_fields():
    assert repr(Step(Axis.CHILD, "a")) == "Step(axis=<Axis.CHILD: 'child'>, label='a')"
    assert repr(parse_tree("r(a)")) == "DocTree(label='r', children=(DocTree(label='a', children=()),))"
    assert repr(Star(Symbol("a"))) == "Star(item=Symbol(name='a'))"


def test_a_positional_class_pattern_binds_the_fields():
    match Step(Axis.FSIB, "x"):
        case Step(axis, label):
            assert (axis, label) == (Axis.FSIB, "x")
        case _:
            pytest.fail("no match")
    match parse_xpath("↓::a[↓::b]"):
        case Seq(_) | Step(_, _):
            pytest.fail("another type matched")
        case Qual(base, (QPath(path),)):
            assert (base, path) == (A, B)
        case _:
            pytest.fail("no match")


def test_constructors_take_fields_by_position_or_name():
    assert DocTree("r") == DocTree(label="r", children=())
    assert Symbol(name="a") == Symbol("a")
    with pytest.raises(TypeError):
        Symbol()
    with pytest.raises(TypeError):
        Symbol("a", "b")
    with pytest.raises(TypeError):
        Symbol("a", name="b")
    with pytest.raises(TypeError):
        Symbol(label="a")
