"""Rules on the package source that python -O or a broad handler would
otherwise defeat: validation raises the typed errors of ``errors.py``, since
``-O`` strips ``assert``, and no ``except Exception`` swallows an error."""

import ast
from pathlib import Path

import pytest

BROAD = ("Exception", "BaseException")
SOURCES = sorted((Path(__file__).parent.parent / "src" / "paramodular").glob("*.py"))


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
