"""Every name a defsim module imports is used in that module.

A stdlib stand-in for a linter's unused-import rule: deleting a function
often leaves its imports behind, and nothing else notices them.
"""

import ast
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
