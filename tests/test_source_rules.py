"""Rules on the package source that python -O or a broad handler would
otherwise defeat: validation raises the typed errors of ``errors.py``, since
``-O`` strips ``assert``, and no ``except Exception`` swallows an error.
And a rule that keeps test-only code out of the package: every top-level
function and class is exported or used by the package, the benchmark or the
tools."""

import ast
from pathlib import Path

import pytest

import paramodular

ROOT = Path(__file__).parent.parent
BROAD = ("Exception", "BaseException")
SOURCES = sorted((ROOT / "src" / "paramodular").glob("*.py"))
USERS = sorted((ROOT / "perfbench").glob("*.py")) + sorted((ROOT / "tools").glob("*.py"))
# the exact enumerator stays until an exact LLL front end settles whether it
# is the fallback of the float enumeration
UNUSED_ALLOWED = {"short_vectors_exact"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_and_no_broad_except(path):
    bad = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Assert):
            bad.append(f"{path.name}:{node.lineno}: assert")
        elif isinstance(node, ast.ExceptHandler):
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if any(t is None or getattr(t, "id", None) in BROAD for t in types):
                bad.append(f"{path.name}:{node.lineno}: broad except")
    assert not bad, bad


def test_sources_found():
    assert len(SOURCES) >= 10


def _referenced_names() -> set[str]:
    """The names read, as a name, an attribute or an import, anywhere in the
    package, the benchmark and the tools, except by a definition of itself."""
    out = set()
    for path in SOURCES + USERS:
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            own = getattr(top, "name", None)
            for node in ast.walk(top):
                name = (node.id if isinstance(node, ast.Name) else
                        node.attr if isinstance(node, ast.Attribute) else
                        node.name if isinstance(node, ast.alias) else None)
                if name is not None and name != own:
                    out.add(name)
    return out


def test_no_test_only_code_in_the_package():
    used = _referenced_names() | set(paramodular.__all__) | UNUSED_ALLOWED
    bad = [f"{path.name}:{node.lineno}: {node.name}" for path in SOURCES
           for node in ast.parse(path.read_text(), filename=str(path)).body
           if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in used]
    assert not bad, bad
