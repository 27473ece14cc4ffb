"""Import rules, checked with ``ast`` and one subprocess.

* Every module under src/, tests/ and demos/ uses each name it imports: a
  standard-library stand-in for a linter's unused-import rule.  Each name
  an import binds must appear as a name somewhere else in the module;
  ``from __future__`` imports and the re-exports of the package
  ``__init__`` are exempt.
* The verdict path is a small core: no package module but ``reference``
  and ``torsion`` imports either of them, and ``import thetamu`` does not
  load the reference layer.
* Seeded draws come from the stdlib ``random``: running scenarios loads
  neither ``numpy.random`` nor, through it, OpenSSL's ``_hashlib``.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "thetamu"
MODULES = sorted(p for top in ("src", "tests", "demos") for p in (ROOT / top).rglob("*.py"))
#: modules whose imports are the public interface, not uses
REEXPORTS = {PACKAGE / "__init__.py"}
#: the package modules outside the verdict path, which it must not import
OUTSIDE_CORE = {"reference", "torsion"}
CORE = sorted(p for p in PACKAGE.glob("*.py") if p.stem not in OUTSIDE_CORE | {"__init__"})


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


def package_imports(source: str) -> set[str]:
    """The thetamu modules a module imports, by name: relative imports and
    imports from ``thetamu`` alike."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {a.name.split(".")[1] for a in node.names if a.name.startswith("thetamu.")}
        elif isinstance(node, ast.ImportFrom) and (
                node.level == 1 or (node.module or "").split(".")[0] == "thetamu"):
            module = (node.module or "").removeprefix("thetamu").lstrip(".")
            found |= {module.split(".")[0]} if module else {a.name for a in node.names}
    return found


def test_the_checker_finds_a_package_import():
    source = ("from . import mult\nfrom .theta import lex_vectors\nimport thetamu.torsion\n"
              "from thetamu.reference import mu_matrix\nfrom thetamu import cli\nimport numpy\n")
    assert package_imports(source) == {"mult", "theta", "torsion", "reference", "cli"}


@pytest.mark.parametrize("path", CORE, ids=lambda p: p.stem)
def test_core_module_imports_no_reference_or_torsion(path):
    assert package_imports(path.read_text(encoding="utf-8")) & OUTSIDE_CORE == set()


def loaded_modules(code: str) -> list[str]:
    """The names in sys.modules after a fresh interpreter runs ``code``."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    code += "; import json, sys; print(json.dumps(sorted(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": path}).stdout
    return json.loads(out)


def test_import_thetamu_leaves_the_reference_layer_unloaded():
    loaded = loaded_modules("import thetamu")
    assert "thetamu.mult" in loaded and "thetamu.reference" not in loaded


def test_scenarios_leave_numpy_random_unloaded():
    # a mu verdict with its blocks, a Wirtinger check and a spanning check,
    # each drawing its seeded Omega and the Wirtinger one its sample points
    loaded = loaded_modules(
        "import thetamu as t; names = ('elliptic-d3', 'wirtinger-g1-n1', 'spanning-g1-n2'); "
        "[t.emit_report(t.run_scenario(c)) for c in t.catalog() if c.name in names]")
    assert "thetamu.scenarios" in loaded
    assert "numpy.random" not in loaded and "_hashlib" not in loaded
