"""Every import in the package sits at module level and is used, and the
CLI reads only the package's public names."""

import ast
from pathlib import Path

import pytest

import mndbn

SRC = Path(__file__).resolve().parents[1] / "src" / "mndbn"


def unused_imports(source: str) -> list:
    """(line, name) of each name a module-level import binds that no
    expression in the module reads. `from __future__` imports are exempt."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_checker_flags_an_unused_import():
    source = (
        "from __future__ import annotations\nimport os\nimport os.path as osp\n"
        "from sys import argv, exit\n\ndef f(x: osp.sep):\n    exit(0)\n"
    )
    assert unused_imports(source) == [(2, "os"), (4, "argv")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_level_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def nested_imports(source: str) -> list:
    """Line of each import statement below module level."""
    tree = ast.parse(source)
    top = set(map(id, tree.body))
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top)


def test_checker_flags_a_nested_import():
    source = "import os\n\ndef f():\n    import sys\n\nclass C:\n    from os import sep\n"
    assert nested_imports(source) == [4, 7]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_import_below_module_level(path):
    # The package's lazy attributes keep numpy out of `import mndbn.cli`,
    # so no module needs to defer an import into a function.
    assert nested_imports(path.read_text(encoding="utf-8")) == []


def test_cli_reads_only_public_names():
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "mndbn"}
    assert "make_synthetic" in read
    assert sorted(read - set(mndbn.__all__)) == []
