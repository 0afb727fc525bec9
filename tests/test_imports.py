"""Every name a module of the package imports is used in that module."""

from __future__ import annotations

import ast
from pathlib import Path

import pmasafety

PACKAGE = Path(pmasafety.__file__).parent


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read as an identifier
    in `source`, each with the line of its import."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


def test_unused_imports_detected():
    source = 'import os\nfrom x import a, b as c\n"""c in a docstring"""\nprint(a)\n'
    assert unused_imports(source) == ["c (line 2)", "os (line 1)"]
    assert unused_imports("import os.path\nos.sep\n") == []


def test_no_unused_imports_in_package():
    found = {
        str(path.relative_to(PACKAGE)): unused
        for path in sorted(PACKAGE.rglob("*.py"))
        if (unused := unused_imports(path.read_text()))
    }
    assert found == {}
