"""Every module-level import of the package, its tests and its demos is used."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(path for top in ("src", "tests", "demos") for path in (ROOT / top).rglob("*.py"))


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
