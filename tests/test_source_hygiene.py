"""Source hygiene: no module in ``src/repro`` imports a name it never uses.

A module-level import is dead when its bound name occurs nowhere else in
the module's text (a word-boundary match, so uses in docstrings and
string annotations count).  Package ``__init__`` modules re-export by
importing, so they are skipped; ``__future__`` imports and names listed
in a module's ``__all__`` are exempt.
"""

import ast
import pathlib
import re

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"


def _exported(tree: ast.Module) -> set:
    names = set()
    for node in tree.body:
        if not isinstance(node, ast.Assign):
            continue
        if any(isinstance(t, ast.Name) and t.id == "__all__"
               for t in node.targets):
            names |= {e.value for e in getattr(node.value, "elts", ())
                      if isinstance(e, ast.Constant)}
    return names


def dead_imports(path: pathlib.Path) -> list:
    """``(line, name)`` for every module-level import of *path* whose name
    appears nowhere else in the file."""
    text = path.read_text()
    tree = ast.parse(text)
    exempt = _exported(tree) | {"*"}
    dead = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name in exempt:
                continue
            if len(re.findall(rf"\b{re.escape(name)}\b", text)) <= 1:
                dead.append((node.lineno, name))
    return dead


def test_no_dead_module_imports():
    modules = [p for p in sorted(SRC.rglob("*.py")) if p.name != "__init__.py"]
    assert modules
    found = [
        f"{p.relative_to(SRC)}:{line}: {name}"
        for p in modules
        for line, name in dead_imports(p)
    ]
    assert not found, "dead imports:\n" + "\n".join(found)


def test_rule_flags_an_unused_import(tmp_path):
    mod = tmp_path / "m.py"
    mod.write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "from typing import List, Optional\n"
        "__all__ = ['Optional']\n"
        "def f() -> List[int]:\n"
        "    return []\n"
    )
    assert dead_imports(mod) == [(2, "os")]
