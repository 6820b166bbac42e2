"""Every name a defsim module imports is used in that module, and every
module-level constant is referenced somewhere in the package.

A stdlib stand-in for a linter's unused-name rules: deleting a function
often leaves its imports and constants behind, and nothing else notices them.
"""

import ast
import re
from pathlib import Path

import pytest

import defsim

SOURCES = sorted(Path(defsim.__file__).parent.glob("*.py"))


def imported_names(tree: ast.Module) -> dict[str, int]:
    names: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.Module) -> set[str]:
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # quoted annotations such as -> "KnowledgeBase"
            try:
                used |= used_names(ast.parse(node.value, mode="eval"))
            except SyntaxError:
                pass
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {elt.value for elt in node.value.elts}
    return used


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = used_names(tree)
    return [f"{name} (line {line})"
            for name, line in sorted(imported_names(tree).items()) if name not in used]


def test_checker_flags_an_unused_import_and_accepts_used_ones():
    source = ("from dataclasses import dataclass, field\n"
              "from typing import Optional\n"
              "import json\n"
              "__all__ = ['json']\n"
              "@dataclass\nclass A:\n    x: 'Optional[int]'\n")
    assert unused_imports(source) == ["field (line 1)"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*")


def module_constants(tree: ast.Module) -> dict[str, int]:
    names: dict[str, int] = {}
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else (
            [node.target] if isinstance(node, ast.AnnAssign) and node.value is not None else [])
        for target in targets:
            if isinstance(target, ast.Name) and CONSTANT.fullmatch(target.id):
                names[target.id] = node.lineno
    return names


def referenced_names(tree: ast.Module) -> set[str]:
    """Names read in a module: loaded names, attribute names (module.NAME)
    and names imported from another module."""
    refs: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs |= {alias.name for alias in node.names}
    return refs


def unreferenced_constants(sources: dict[str, str]) -> list[str]:
    trees = {name: ast.parse(text) for name, text in sources.items()}
    refs = set().union(*(referenced_names(tree) for tree in trees.values()))
    return [f"{name}: {const} (line {line})"
            for name, tree in sorted(trees.items())
            for const, line in sorted(module_constants(tree).items()) if const not in refs]


def test_checker_flags_an_unreferenced_constant_and_accepts_used_ones():
    sources = {
        "a.py": "LIMIT = 3\nUNUSED: int = 4\n_TABLE = {}\nlower = 5\n"
                "def f(x=LIMIT):\n    return x\n",
        "b.py": "from a import _TABLE\nimport c\nprint(_TABLE, c.SHARED)\n",
        "c.py": "SHARED = 1\n",
    }
    assert unreferenced_constants(sources) == ["a.py: UNUSED (line 2)"]


def test_every_module_constant_is_referenced():
    sources = {path.name: path.read_text() for path in SOURCES}
    assert unreferenced_constants(sources) == []
