"""The package's public namespace."""

from __future__ import annotations

import ast
import pathlib
import subprocess
import sys
import types

import xpathsat


def test_star_import_exports_no_submodules():
    ns: dict = {}
    exec("from xpathsat import *", ns)
    ns.pop("__builtins__")
    assert not [name for name, v in ns.items() if isinstance(v, types.ModuleType)]
    assert sorted(ns) == sorted(xpathsat.__all__)
    assert len(set(xpathsat.__all__)) == len(xpathsat.__all__)
    for name in ("satisfiable", "eval2", "SibMap", "Dtd", "parse_xpath", "oracle_satisfiable"):
        assert name in ns


def _modules_after(code: str) -> set[str]:
    """The modules a fresh interpreter holds after running `code`, with the
    package on its path and no `site` (whose imports vary by environment)."""
    src = str(pathlib.Path(xpathsat.__file__).parent.parent)
    code = f"import sys; sys.path.insert(0, {src!r})\n{code}\nprint(repr(sorted(sys.modules)))"
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True)
    return set(ast.literal_eval(out.stdout.splitlines()[-1]))


def test_a_bare_import_loads_no_submodule():
    loaded = _modules_after("import xpathsat")
    assert "xpathsat" in loaded
    assert not [m for m in loaded if m.startswith("xpathsat.")]
    loaded = _modules_after("import xpathsat\nxpathsat.parse_xpath")
    assert sorted(m for m in loaded if m.startswith("xpathsat.")) == [
        "xpathsat.content_model", "xpathsat.errors", "xpathsat.record", "xpathsat.xpath"]


def test_a_one_shot_sat_loads_only_what_it_runs(tmp_path):
    # start-up is most of a one-shot verdict, so `sat` stays clear of the
    # oracle, of JSON output and of `dataclasses` (which pulls in `inspect`)
    dtd = tmp_path / "worked.dtd"
    dtd.write_text("root r\nr := r*(a*b|c)r*\na := eps\nb := a\nc := eps\n")
    loaded = _modules_after(
        "from xpathsat import cli\n"
        f"assert cli.main(['sat', '--dtd', {str(dtd)!r}, '--xpath', '↓::r/→⁺::b/↓::a/↑::b']) == 0"
    )
    assert "xpathsat.sat_checker" in loaded
    assert not loaded & {"dataclasses", "inspect", "json", "xpathsat.oracle"}
    # the other commands load what they need on first use
    loaded = _modules_after(
        "from xpathsat import cli\n"
        f"assert cli.main(['oracle', '--json', '--dtd', {str(dtd)!r}, '--xpath', '↓::r']) == 0"
    )
    assert {"json", "xpathsat.oracle"} <= loaded


def test_names_resolve_on_first_use():
    assert set(dir(xpathsat)) >= set(xpathsat.__all__)
    for name in xpathsat.__all__:
        value = getattr(xpathsat, name)
        assert vars(xpathsat)[name] is value  # kept for the next read
        homes = [m for key, m in sys.modules.items() if key.startswith("xpathsat.")]
        assert any(vars(m).get(name) is value for m in homes)
    try:
        xpathsat.no_such_name
    except AttributeError as exc:
        assert "no_such_name" in str(exc)
    else:
        raise AssertionError("an unknown name resolved")


def test_modules_use_every_name_they_import():
    # no linter runs offline, so the package's own import lines are read
    # here; `__init__` imports to re-export
    src = pathlib.Path(xpathsat.__file__).parent
    unused = {}
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            (a.asname or a.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
            for a in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if imported - used:
            unused[path.name] = sorted(imported - used)
    assert not unused


def test_every_private_top_level_name_is_used_elsewhere():
    # a private function, class or constant that only its own body names
    # is left over from a removed route; tests do not count as a use
    src = pathlib.Path(xpathsat.__file__).parent
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(src.glob("*.py"))}
    defined = {}  # (module, name) -> ids of the nodes of its definition
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            else:
                targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined[module, name] = {id(n) for n in ast.walk(node)}
    uses = []  # (node id, name) of every read of a name, attribute or import
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                uses.append((id(node), node.id))
            elif isinstance(node, ast.Attribute):
                uses.append((id(node), node.attr))
            elif isinstance(node, ast.alias):
                uses.append((id(node), node.name))
    orphans = [
        f"{module}:{name}" for (module, name), own in defined.items()
        if not any(used == name and i not in own for i, used in uses)
    ]
    assert not orphans


def test_every_dtd_cache_is_read_by_two_other_modules():
    # a cache on `Dtd` that one module alone reads lives in that module,
    # kept in the instance's `vars` the way `compile_dtd` keeps its graph
    src = pathlib.Path(xpathsat.__file__).parent
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(src.glob("*.py"))}
    dtd = next(n for n in trees["dtd.py"].body if isinstance(n, ast.ClassDef) and n.name == "Dtd")
    cached = [
        node.name for node in dtd.body
        if isinstance(node, ast.FunctionDef)
        and any(ast.unparse(dec).split(".")[-1] == "cached_property" for dec in node.decorator_list)
    ]
    readers = {
        name: sorted(
            module for module, tree in trees.items() if module != "dtd.py"
            and any(isinstance(n, ast.Attribute) and n.attr == name for n in ast.walk(tree))
        )
        for name in cached
    }
    assert "covers" in readers
    assert {name: got for name, got in readers.items() if len(got) < 2} == {}


def test_only_cli_main_prints():
    # commands return their result and `cli.main` alone prints it, as text
    # or JSON, so output added to a command is written once
    src = pathlib.Path(xpathsat.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = set()
        if path.name == "cli.py":
            main = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "main")
            allowed = {id(n) for n in ast.walk(main)}
        for node in ast.walk(tree):
            prints = (
                isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "print" and id(node) not in allowed
            )
            stdout = (
                isinstance(node, ast.Attribute) and node.attr == "stdout"
                and isinstance(node.value, ast.Name) and node.value.id == "sys"
            ) or (
                isinstance(node, ast.ImportFrom) and node.module == "sys"
                and any(a.name == "stdout" for a in node.names)
            )
            if prints or stdout:
                found.append(f"{path.name}:{node.lineno}")
    assert not found
