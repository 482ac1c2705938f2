"""The public surface: README's quick tour runs as written, each export is
the object of its home module and loads that module only when first read,
every name that conjchern exports is used by the library itself, not only by
its tests, no top-level definition is left without a reader, and no module
imports a name it never reads."""

import ast
import importlib
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import conjchern

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "conjchern"


def test_readme_python_blocks_run():
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.S | re.M)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {"__name__": "readme"})


def test_each_export_is_the_object_of_its_home_module():
    """The package reads each name from its home module on first access, so
    the exported object is the one that module defines."""
    assert conjchern.__version__ is importlib.import_module("conjchern._version").__version__
    for name in set(conjchern.__all__) - {"__version__"}:
        obj = getattr(conjchern, name)
        assert obj.__module__.startswith("conjchern.")
        assert getattr(importlib.import_module(obj.__module__), name) is obj


def test_star_import_binds_every_export():
    namespace = {}
    exec("from conjchern import *", namespace)
    assert {name: namespace.get(name) for name in conjchern.__all__} == {
        name: getattr(conjchern, name) for name in conjchern.__all__
    }


def test_package_import_loads_no_layer_and_lists_every_export():
    """A fresh `import conjchern` imports only its version module, and dir()
    lists every export before any is read."""
    code = (
        "import json, sys, conjchern; "
        "print(json.dumps([sorted(m for m in sys.modules if m.startswith('conjchern.')), "
        "sorted(set(conjchern.__all__) - set(dir(conjchern)))]))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [["conjchern._version"], []]


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'conjchern' has no attribute 'verify_all'"):
        conjchern.verify_all


def _used_names(tree) -> set:
    """The names that a module reads, as variables or as attributes, outside
    the top-level definition of the same name: a recursive call or an
    isinstance test of a class in its own methods is not a use."""
    used = set()
    for node in tree.body:
        own = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                name = sub.id
            elif isinstance(sub, ast.Attribute):
                name = sub.attr
            else:
                continue
            if name != own:
                used.add(name)
    return used


def test_every_export_has_a_library_use():
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            used |= _used_names(ast.parse(path.read_text(), str(path)))
    assert sorted(set(conjchern.__all__) - used) == []


def test_every_top_level_definition_is_read():
    """Each top-level function and class of the package is read somewhere in
    src/ outside its own definition, or exported through __all__, so no
    helper outlives its last caller.  The import system, not src/, reads the
    package's module __getattr__ and __dir__ (PEP 562), so exactly those two
    count as read."""
    used = set(conjchern.__all__)
    defined = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        used |= _used_names(tree)
        defined += [
            (path.name, node.name)
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        ]
    hooks = {"__init__.py: __getattr__", "__init__.py: __dir__"}
    unread = [f"{module}: {name}" for module, name in defined if name not in used]
    assert [entry for entry in unread if entry not in hooks] == []


def test_every_import_is_read():
    """Each name a module imports is read in that module.  `from __future__`
    imports are exempt, and __init__.py reads its re-exports through __all__."""
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        if path.name == "__init__.py":
            read |= set(conjchern.__all__)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).partition(".")[0]
                    if name not in read:
                        unread.append(f"{path.name}: {name}")
    assert unread == []


def test_no_import_inside_a_function():
    """Every module imports at its top, so what a function uses is loaded
    when its module is."""
    local = {}  # the place of each import -> its outermost function
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(func):
                    if isinstance(node, (ast.Import, ast.ImportFrom)):
                        local.setdefault(f"{path.name}:{node.lineno}", func.name)
    assert local == {}


def test_only_the_guard_helper_raises_size_guard():
    """Every cost guard refuses through report.refuse_above, so SizeGuard is
    built there and only in the two structural guards: the packed-key field
    check and the determinant size."""
    builders = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))

        def visit(node, scope):
            for child in ast.iter_child_nodes(node):
                inner = scope
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    inner = f"{scope}.{child.name}"
                elif isinstance(child, ast.Call):
                    func = child.func
                    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
                    if name == "SizeGuard":
                        builders.add(scope)
                visit(child, inner)

        visit(tree, path.stem)
    assert builders == {"report.refuse_above", "poly._ExponentLayout._fit", "poly.determinant"}
