"""Every name a module imports is used in it, and no library module imports
dataclasses.

The scan is stdlib ast only: an imported binding counts as used when a Name
node reads it, when a quoted annotation mentions it, or when __all__ lists
it.  src/ffsym/__init__.py is exempt, since it imports only to re-export.
A frozen dataclass execs its generated methods when its class is created, on
every import of the library; the result records are NamedTuples instead.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC_FILES = sorted((ROOT / "src" / "ffsym").glob("*.py"))
FILES = sorted(
    [path for path in SRC_FILES if path.name != "__init__.py"]
    + list((ROOT / "tests").rglob("*.py")),
)


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]:
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def unused_imports(source: str) -> list[str]:
    """The imported bindings of a module that nothing in it reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # with postponed evaluation an annotation may be a quoted expression
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= {n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                         if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets):
            used |= set(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", FILES, ids=[str(path.relative_to(ROOT)) for path in FILES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_finds_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import itertools\n"
        "import os.path\n"
        "from random import Random, choice as pick\n"
        "from typing import Iterable\n"
        "def f(x: 'Iterable[int]') -> int:\n"
        "    return os.path.sep\n"
    )
    assert unused_imports(source) == ["Random (line 4)", "itertools (line 2)", "pick (line 4)"]


def imported_modules(source: str) -> set[str]:
    """The top-level names of the absolute modules a module imports."""
    modules = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.add(node.module.split(".")[0])
    return modules


@pytest.mark.parametrize("path", SRC_FILES, ids=[str(path.relative_to(ROOT)) for path in SRC_FILES])
def test_no_dataclasses_import(path):
    assert "dataclasses" not in imported_modules(path.read_text())


def test_scan_finds_imported_modules():
    source = (
        "import dataclasses as dc\n"
        "import os.path\n"
        "from typing import NamedTuple\n"
        "from . import gf\n"
        "def f():\n"
        "    from json import dumps\n"
    )
    assert imported_modules(source) == {"dataclasses", "json", "os", "typing"}
