"""The public surface: README's quick tour runs as written, and every name that
conjchern exports is used by the library itself, not only by its tests."""

import ast
import re
from pathlib import Path

import conjchern

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "conjchern"


def test_readme_python_blocks_run():
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.S | re.M)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {"__name__": "readme"})


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
