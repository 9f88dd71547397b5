"""Rules on the package source that python -O or a broad handler would
otherwise defeat: validation raises the typed errors of ``errors.py``, since
``-O`` strips ``assert``, and no ``except Exception`` swallows an error.
And a rule that keeps test-only code out of the package: every top-level
function and class is exported or used by the package, the benchmark or the
tools.  And a rule that keeps every cache bounded: each ``lru_cache`` names
an integer ``maxsize``, so no cache grows with the inputs of a long run."""

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



def _callee(node) -> str | None:
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _cache_faults(source: str, name: str) -> list[str]:
    """functools.cache, a bare lru_cache and an lru_cache without an integer
    maxsize in the source, as "name:line: what": functools.cache and
    maxsize=None never evict, and a bare lru_cache leaves its size unstated."""
    bad = []
    for node in ast.walk(ast.parse(source, filename=name)):
        where = f"{name}:{getattr(node, 'lineno', 0)}"
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            bad += [f"{where}: functools.cache" for a in node.names if a.name == "cache"]
        elif isinstance(node, ast.Attribute) and node.attr == "cache" \
                and _callee(node.value) == "functools":
            bad.append(f"{where}: functools.cache")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bad += [f"{where}: bare lru_cache" for d in node.decorator_list
                    if _callee(d) == "lru_cache"]
        elif isinstance(node, ast.Call) and _callee(node.func) == "lru_cache":
            size = [k.value for k in node.keywords if k.arg == "maxsize"] + node.args[:1]
            if not (size and isinstance(size[0], ast.Constant) and type(size[0].value) is int):
                bad.append(f"{where}: lru_cache without an integer maxsize")
    return bad


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_cache_is_bounded(path):
    assert not _cache_faults(path.read_text(), path.name)


@pytest.mark.parametrize("source, refused", [
    ("from functools import cache", True),
    ("import functools\n@functools.cache\ndef f(x): pass", True),
    ("from functools import lru_cache\n@lru_cache\ndef f(x): pass", True),
    ("import functools\n@functools.lru_cache(maxsize=None)\ndef f(x): pass", True),
    ("from functools import lru_cache\n@lru_cache(None)\ndef f(x): pass", True),
    ("from functools import lru_cache\nf = lru_cache(maxsize=SIZE)(abs)", True),
    ("from functools import lru_cache\nf = lru_cache()(abs)", True),
    ("import functools\n@functools.lru_cache(maxsize=8)\ndef f(x): pass", False),
    ("from functools import lru_cache\n@lru_cache(8)\ndef f(x): pass", False),
    ("from functools import lru_cache\nf = lru_cache(maxsize=8)(abs)", False)])
def test_unbounded_caches_are_refused(source, refused):
    assert bool(_cache_faults(source, "m.py")) == refused
