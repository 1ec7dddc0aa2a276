"""Every imported name is used: a stdlib-ast stand-in for a linter's unused-import rule.

Package ``__init__.py`` files are skipped, since their imports are the
re-exported API, and so are ``from __future__`` imports.
"""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(
    path
    for folder in ("src/qfhe", "tests", "scripts")
    for path in (ROOT / folder).rglob("*.py")
    if path.name != "__init__.py"
)


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import statement and never read anywhere in the module."""
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds "a"
                imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert not unused_imports(ast.parse(path.read_text(), str(path)))


def test_detector_flags_an_unused_name():
    tree = ast.parse("from __future__ import annotations\nimport os, os.path\nfrom m import a, b as c\nc(a)\n")
    assert unused_imports(tree) == ["line 2: os"]
