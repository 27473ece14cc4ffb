"""Every cross-reference in the docstrings under src/ and in README.md names
something the package defines.

A standard-library stand-in for a documentation linter.  Each module is
parsed with ``ast``, and these references are checked:

* the targets of :func:, :class:, :meth: and :data: roles in docstrings,
  which must name a definition at the top level of a package module, a
  member of a package class (``Class.member`` or a bare member name), or a
  builtin;
* module.name in double backquotes in docstrings and in single backquotes
  in README.md, where module is a package module, which must name a
  top-level definition of that module.
"""

import ast
import builtins
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "thetamu"
SOURCES = sorted(PACKAGE.rglob("*.py"))
ROLE = re.compile(r":(?:func|class|meth|data):`([\w.]+)`")
DOC_MODULE_REF = re.compile(r"``(\w+)\.(\w+)")
README_MODULE_REF = re.compile(r"`(\w+)\.(\w+)")


def definitions(source: str) -> tuple[set[str], dict[str, set[str]]]:
    """The names a module binds at its top level, and the members each of
    its classes binds in its body."""
    top, members = set(), {}
    for node in ast.parse(source).body:
        names = _bound(node)
        top |= names
        if isinstance(node, ast.ClassDef):
            members[node.name] = set().union(*map(_bound, node.body))
    return top, members


def _bound(node: ast.stmt) -> set[str]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return {t.id for t in targets if isinstance(t, ast.Name)}


MODULES = {p.stem: definitions(p.read_text(encoding="utf-8")) for p in SOURCES}
TOP = set().union(*(top for top, _ in MODULES.values()))
CLASSES = {name: names for _, members in MODULES.values() for name, names in members.items()}
MEMBERS = set().union(*CLASSES.values())


def resolves(target: str) -> bool:
    """Whether a role target names a package definition, a member of a
    package class or a builtin."""
    head, _, rest = target.partition(".")
    if head in MODULES:
        return rest in MODULES[head][0]
    if rest:
        return rest in CLASSES.get(head, ())
    return head in TOP or head in MEMBERS or hasattr(builtins, head)


def module_ref_resolves(module: str, name: str) -> bool:
    """Whether ``module.name`` names a top-level definition, for a package
    module; a reference whose head is no package module is not checked."""
    return module not in MODULES or name in MODULES[module][0]


def stale_references(source: str) -> list[str]:
    """The references in the docstrings of ``source`` that name nothing."""
    stale = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        doc = ast.get_docstring(node, clean=False)
        if doc is None:
            continue
        line = node.body[0].lineno
        stale += [f"line {line}: {t}" for t in ROLE.findall(doc) if not resolves(t)]
        stale += [f"line {line}: {m}.{n}" for m, n in DOC_MODULE_REF.findall(doc)
                  if not module_ref_resolves(m, n)]
    return stale


def test_the_checker_finds_a_stale_reference():
    source = ('"""See :func:`box_radius`, :meth:`eval_matrix`, :class:`ValueError`\n'
              'and ``theta.lex_vectors``."""\n'
              'def f():\n    """:func:`section_indices`, ``mult._as_points``, ``np.ones``,\n'
              '    :meth:`ThetaBasis.position` and :meth:`ScenarioConfig.from_dict`."""\n')
    assert stale_references(source) == [
        "line 4: section_indices", "line 4: ThetaBasis.position", "line 4: mult._as_points",
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_docstring_references_resolve(path):
    assert stale_references(path.read_text(encoding="utf-8")) == []


def test_readme_module_references_resolve():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    refs = README_MODULE_REF.findall(readme)
    assert refs, "README.md names no module attribute"
    assert [f"{m}.{n}" for m, n in refs if not module_ref_resolves(m, n)] == []
