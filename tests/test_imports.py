"""Every module-level import of the package, its tests and its demos is used, and
every module-level private name of the package is read somewhere."""

import ast
from functools import cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(path for top in ("src", "tests", "demos") for path in (ROOT / top).rglob("*.py"))
PACKAGE = sorted((ROOT / "src" / "defectcost").glob("*.py"))
READERS = sorted(
    path for top in ("src", "tests", "demos", "bench") for path in (ROOT / top).rglob("*.py")
)


def unused_imports(source: str) -> list[str]:
    """The names a module binds by a module-level import and never reads, apart
    from ``__future__`` features and the names its ``__all__`` lists."""
    tree = ast.parse(source)
    exported = set()
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
        elif isinstance(node, ast.Import):
            imported.extend(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.extend(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used | exported]


def test_the_scan_finds_an_unused_import():
    imports = "from __future__ import annotations\nimport os, sys\nimport a.b\nfrom c import d as e"
    assert unused_imports(f"{imports}\n__all__ = ['e']\nsys.exit(a.b)\n") == ["os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: str(path.relative_to(ROOT)))
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def private_names(source: str) -> list[str]:
    """The private functions, classes and constants a module defines at module level."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.extend(
                name.id for target in targets for name in ast.walk(target)
                if isinstance(name, ast.Name)
            )
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def read_names(source: str) -> set[str]:
    """The names a module reads: loaded names, attributes, imported names and the
    name strings passed to a ``setattr``, such as ``monkeypatch.setattr``'s."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            read.update(alias.name for alias in node.names)
        elif (
            isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None)) == "setattr"
            and len(node.args) > 1
            and isinstance(node.args[1], ast.Constant)
        ):
            read.add(node.args[1].value)
    return read


@cache
def read_anywhere() -> frozenset[str]:
    return frozenset().union(*(read_names(path.read_text()) for path in READERS))


def test_the_scan_finds_an_unread_private_name():
    module = (
        "_LOADED = 1\n_A, (_B, _UNREAD) = 2, (3, 4)\n_typed: int = 5\n"
        "def _imported(): pass\nclass _Patched: pass\ndef public(): return _LOADED\n"
    )
    reader = (
        "from m import _imported\nimport m\nm._A + m._typed\n"
        "monkeypatch.setattr(m, '_Patched', None)\nsetattr(m, '_B', 0)\n"
    )
    unread = set(private_names(module)) - read_names(module) - read_names(reader)
    assert unread == {"_UNREAD"}


@pytest.mark.parametrize("path", PACKAGE, ids=lambda path: str(path.relative_to(ROOT)))
def test_every_private_name_is_read(path):
    assert [name for name in private_names(path.read_text()) if name not in read_anywhere()] == []
