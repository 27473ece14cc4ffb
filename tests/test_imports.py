"""Every module under src/, tests/ and demos/ uses each name it imports.

A standard-library stand-in for a linter's unused-import rule: a module is
parsed with ``ast`` and each name an import binds must appear as a name
somewhere else in it.  ``from __future__`` imports and the re-exports of the
package ``__init__`` are exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for top in ("src", "tests", "demos") for p in (ROOT / top).rglob("*.py"))
#: modules whose imports are the public interface, not uses
REEXPORTS = {ROOT / "src" / "thetamu" / "__init__.py"}


def unused_imports(source: str) -> list[str]:
    """The names that an import binds and the module never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds a
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(bound.items(), key=lambda kv: kv[1])
            if name not in used]


def test_the_checker_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport json\nimport os.path\n"
              "import numpy as np\nnp.ones(os.sep)\n")
    assert unused_imports(source) == ["line 2: json"]


@pytest.mark.parametrize("path", [p for p in MODULES if p not in REEXPORTS],
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
