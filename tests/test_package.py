"""The package's lazy exports: `signedgraph.X` is always the binding of X in
the submodule that defines it, and submodules load by name."""

import ast
import json
import os
import subprocess
import sys
import types

import pytest

import signedgraph
from conftest import cli_env

MODULES = ("core", "balance", "minors", "frame", "matrices", "orientation",
           "coloring", "linegraph", "angle", "polynomial", "oracles", "cli")


def test_every_export_is_its_submodule_binding():
    for name in signedgraph.__all__:
        obj = getattr(signedgraph, name)
        assert obj is getattr(sys.modules[obj.__module__], name), name
        assert obj.__module__.rpartition(".")[0] == "signedgraph", name


def test_from_import_and_version():
    from signedgraph import SgError, balance_partition, spectrum

    assert SgError is signedgraph.core.SgError
    assert balance_partition is signedgraph.balance.balance_partition
    assert spectrum is signedgraph.matrices.spectrum
    assert signedgraph.__version__ == "0.1.0"


def test_export_follows_a_rebinding_in_its_submodule(monkeypatch):
    original = signedgraph.balance_partition
    sentinel = object()
    monkeypatch.setattr(signedgraph.balance, "balance_partition", sentinel)
    assert signedgraph.balance_partition is sentinel
    monkeypatch.undo()
    assert signedgraph.balance_partition is original
    assert "balance_partition" not in vars(signedgraph)


def test_submodules_by_name():
    for name in MODULES:
        mod = getattr(signedgraph, name)
        assert isinstance(mod, types.ModuleType), name
        assert mod.__name__ == f"signedgraph.{name}"


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        signedgraph.no_such_name
    with pytest.raises(ImportError):
        from signedgraph import no_such_name  # noqa: F401


def test_dir_lists_every_export_and_submodule():
    listed = set(dir(signedgraph))
    assert set(signedgraph.__all__) <= listed
    assert set(MODULES) <= listed
    assert "__version__" in listed


def test_matrices_loads_core_alone():
    code = "import json, sys, signedgraph.matrices; print(json.dumps(sorted(sys.modules)))"
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, env=cli_env())
    assert r.returncode == 0, r.stderr
    loaded = {m for m in json.loads(r.stdout) if m.startswith("signedgraph.")}
    assert loaded == {"signedgraph.core", "signedgraph.matrices"}


def test_frame_loads_core_alone():
    code = "import json, sys, signedgraph.frame; print(json.dumps(sorted(sys.modules)))"
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, env=cli_env())
    assert r.returncode == 0, r.stderr
    loaded = {m for m in json.loads(r.stdout) if m.startswith("signedgraph.")}
    assert loaded == {"signedgraph.core", "signedgraph.frame"}


HERE = os.path.dirname(os.path.abspath(__file__))
# id -> path: the package's modules by name, then the test and demo scripts
SOURCES = {m: os.path.join(os.path.dirname(signedgraph.__file__), f"{m}.py") for m in ("__init__",) + MODULES}
SOURCES.update(
    (f"{d}/{f}", os.path.join(HERE, os.pardir, d, f))
    for d in ("tests", "demos") for f in sorted(os.listdir(os.path.join(HERE, os.pardir, d))) if f.endswith(".py")
)
UNUSED_ON_PURPOSE = {"tests/test_package.py": {"no_such_name"}}  # the import that must fail


def _imports_and_names(path):
    """(names the file's import statements bind, names it reads), from its
    syntax tree; `from __future__` imports bind none."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    bound, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return bound, used


@pytest.mark.parametrize("module", SOURCES)
def test_no_module_imports_a_name_it_never_uses(module):
    bound, used = _imports_and_names(SOURCES[module])
    assert sorted(bound - used - UNUSED_ON_PURPOSE.get(module, set())) == []
    if module in ("__init__",) + MODULES and module != "core":  # only core sets a record's slots
        assert "_set" not in bound


def _row_length(node, rows):
    """Whether node is len(r) or len(m[i]) for r in rows, a set of loop variables: a row's length."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "len"):
        return False
    arg = node.args[0]
    return isinstance(arg, ast.Subscript) or isinstance(arg, ast.Name) and arg.id in rows


def _input_rule_copies(module):
    """Where module writes an input rule that core or matrices owns: an int
    check by `type(x) is not int`, a `must be an int >=` or `must be simple`
    message, or, in matrices outside `_rows`, a comparison of a row's length."""
    with open(SOURCES[module], encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare) and isinstance(node.ops[0], ast.IsNot):
            left, right = node.left, node.comparators[0]
            if (isinstance(left, ast.Call) and isinstance(left.func, ast.Name) and left.func.id == "type"
                    and isinstance(right, ast.Name) and right.id == "int"):
                found.append(f"line {node.lineno}: type(...) is not int")
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            for text in ("must be an int >=", "must be simple"):
                if text in node.value:
                    found.append(f"line {node.lineno}: {text!r}")
    if module == "matrices":
        for f in ast.walk(tree):
            if not isinstance(f, ast.FunctionDef) or f.name == "_rows":
                continue
            rows = {t.id for loop in ast.walk(f) if isinstance(loop, (ast.For, ast.comprehension))
                    for t in ast.walk(loop.target) if isinstance(t, ast.Name)}
            found += [f"line {node.lineno}: a row's length compared in {f.name}" for node in ast.walk(f)
                      if isinstance(node, ast.Compare)
                      and any(_row_length(x, rows) for x in [node.left, *node.comparators])]
    return found


@pytest.mark.parametrize("module", [m for m in ("__init__",) + MODULES if m != "core"])
def test_each_input_rule_is_written_once(module):
    # counts, vertex sets and simple edge lists are checked in core
    # (_count, _vertices, _pairs), matrix shapes in matrices._rows
    assert _input_rule_copies(module) == []


def _dense_builder_copies(module):
    """Where module, outside `matrices._dense`, checks the dense-matrix cap
    or, in matrices, builds a list of lists with a row per number of a range."""
    with open(SOURCES[module], encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    builder = {id(node) for f in ast.walk(tree) if module == "matrices"
               and isinstance(f, ast.FunctionDef) and f.name == "_dense" for node in ast.walk(f)}
    found = []
    for node in ast.walk(tree):
        if id(node) in builder:
            continue
        if (isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "_cap"
                and node.args and getattr(node.args[0], "value", None) == "dense-matrix"):
            found.append(f"line {node.lineno}: a dense-matrix cap check")
        elif (module == "matrices" and isinstance(node, ast.ListComp)
              and (isinstance(node.elt, ast.ListComp) or isinstance(node.elt, ast.BinOp) and ast.List in
                   {type(node.elt.left), type(node.elt.right)})
              and any(isinstance(g.iter, ast.Call) and getattr(g.iter.func, "id", None) == "range"
                      for g in node.generators)):
            found.append(f"line {node.lineno}: a list of lists over a range")
    return found


@pytest.mark.parametrize("module", ("__init__",) + MODULES)
def test_the_graph_matrices_have_one_dense_builder(module):
    # the adjacency, degree, incidence and Laplacian matrices, and the line
    # graph's 2I - H^T H, are filled by matrices._dense, the one dense-matrix cap site
    assert _dense_builder_copies(module) == []


def _unchecked_edges(module):
    """Where module calls core's unchecked edge constructor `_edge`."""
    with open(SOURCES[module], encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    return [f"line {node.lineno}: an _edge call" for node in ast.walk(tree) if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == "_edge"]


@pytest.mark.parametrize("module", [m for m in ("__init__",) + MODULES if m != "core"])
def test_only_core_builds_an_edge_without_checks(module):
    # the parser and _relabel (minors and switchings) are the only callers of _edge
    assert _unchecked_edges(module) == []
