"""Imports and definitions: every imported name is used, every definition
of the package is named somewhere, and a run loads only what it uses.

The unused-import scan reads the syntax tree only: a name counts as used
where it appears as a ``Name`` node anywhere in the module, annotations
included.  ``from __future__`` imports and the re-exports of a package's
``__init__`` are allowed.

The dead-definition scan also reads syntax trees only.  A function or
class of ``src/depthzero`` counts as named where it appears as a ``Name``
or ``Attribute`` node in the package, the tests or ``perfbench``; a
method (a function directly in a class body) only as an ``Attribute``.
The names that ``perfbench/spans.py`` wraps through the strings of its
``SPANS`` table count too, and each of them must resolve on its module,
because a traced run wraps it there.  Dunder methods are exempt.

The footprint guards run ``identity`` and ``all --jobs 2`` in a fresh
interpreter, because pytest itself loads some of the modules they forbid.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "depthzero").glob("*.py"))
SCANNED = PACKAGE + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names that ``source`` imports and never uses, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_scan_sees_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport numpy as np\nfrom math import gcd, lcm\n"
        "def f(x: np.ndarray):\n    from json import dumps\n    return gcd(x, 2)\n"
    )
    assert unused_imports(source) == ["os", "lcm", "dumps"]


@pytest.mark.parametrize("path", [p for p in SCANNED if p.name != "__init__.py"],
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def definitions(source: str) -> list[tuple[str, bool]]:
    """(name, is a method) of every function and class that ``source``
    defines, nested ones included, dunder methods left out."""
    tree = ast.parse(source)
    methods = {id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
               for node in cls.body}
    return [(node.name, id(node) in methods) for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))]


def references(source: str) -> tuple[set[str], set[str]]:
    """The ``Name`` ids and the ``Attribute`` names of ``source``."""
    nodes = list(ast.walk(ast.parse(source)))
    return ({n.id for n in nodes if isinstance(n, ast.Name)},
            {n.attr for n in nodes if isinstance(n, ast.Attribute)})


def span_rows(source: str) -> list[tuple[str, list[str]]]:
    """(module, attribute names) of every row of a ``SPANS`` table."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "SPANS"
                                                for t in node.targets):
            return [(row.elts[1].value, [attr.value for attr in row.elts[2].elts])
                    for row in node.value.elts]
    return []


def span_names(source: str) -> set[str]:
    """Every name in the attribute lists of a ``SPANS`` table, with
    "Class.method" split into both parts."""
    return {part for _, attrs in span_rows(source) for attr in attrs for part in attr.split(".")}


def dead_definitions(sources: dict[str, str], referencing: list[str], spans: str) -> list[str]:
    """``module:name`` of every definition in ``sources`` that no source in
    ``referencing`` names, sorted."""
    names, attributes = set(), set(span_names(spans))
    for source in referencing:
        ids, attrs = references(source)
        names |= ids
        attributes |= attrs
    return sorted(f"{module}:{name}" for module, source in sources.items()
                  for name, method in definitions(source)
                  if name not in attributes and (method or name not in names))


def test_scan_sees_dead_definitions():
    module = (
        "class A:\n    def used(self): pass\n    def dead(self): pass\n"
        "    def __repr__(self): pass\n    def wrapped(self): pass\n"
        "def f():\n    def inner(): pass\n    return A().used(), inner, dead\n"
        "def g(): pass\n"
    )
    spans = 'SPANS = [("group", "m", ["A.wrapped"], TIMED)]\n'
    assert dead_definitions({"m": module}, [module, "f()"], spans) == ["m:dead", "m:g"]


def test_every_span_name_resolves():
    """The scan above counts the names that ``perfbench/spans.py`` wraps as
    references, so deleting a span target would pass it and stop every
    traced run; each must resolve on its module, a "Class.method" through
    the class ``__dict__`` as the tracer reads it."""
    rows = span_rows((ROOT / "perfbench" / "spans.py").read_text())
    missing = []
    for module, attributes in rows:
        namespace = vars(importlib.import_module(f"depthzero.{module}"))
        for attribute in attributes:
            owner, _, name = attribute.rpartition(".")
            scope = namespace
            if owner:
                scope = vars(namespace[owner]) if owner in namespace else {}
            if name not in scope:
                missing.append(f"{module}:{attribute}")
    assert rows and missing == []


def test_every_package_definition_is_named():
    sources = {path.stem: path.read_text() for path in PACKAGE}
    referencing = [path.read_text() for path in SCANNED + sorted((ROOT / "perfbench").glob("*.py"))]
    spans = (ROOT / "perfbench" / "spans.py").read_text()
    assert dead_definitions(sources, referencing, spans) == []


# modules the identity campaign does not need, with what each costs in peak
# RSS after numpy: hashlib and _hashlib load OpenSSL (~3.5 MB); secrets and
# numpy.random pull hashlib in.  No run needs a process pool (~1.5 MB):
# --jobs > 1 forks.  No run needs fractions: the threshold and rigidity
# ratios are reduced with integer gcds.
NOT_ON_ANY_PATH = ("concurrent.futures", "multiprocessing", "fractions")
NOT_ON_THE_IDENTITY_PATH = ("hashlib", "_hashlib", "secrets", "numpy.random", *NOT_ON_ANY_PATH)

FOOTPRINT = """
import json, sys
import numpy
before = set(sys.modules)
from depthzero.driver import main
code = main(sys.argv[2:] + ["--out", sys.argv[1]])
print(json.dumps({"exit": code, "added": sorted(set(sys.modules) - before)}))
"""


def loaded_by(tmp_path, argv, forbidden) -> list[str]:
    """The modules in ``forbidden`` (or under one) that a run of ``argv``
    in a fresh interpreter loads after numpy; the run must pass."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", FOOTPRINT, str(tmp_path / "out"), *argv],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["exit"] == 0
    assert "depthzero.driver" in result["added"]
    return [name for name in result["added"]
            if any(name == m or name.startswith(m + ".") for m in forbidden)]


def test_identity_run_loads_no_module_it_does_not_use(tmp_path):
    argv = ["identity", "--q", "3", "--kind", "both", "--jobs", "1"]
    assert loaded_by(tmp_path, argv, NOT_ON_THE_IDENTITY_PATH) == []


def test_parallel_run_loads_no_process_pool(tmp_path):
    assert loaded_by(tmp_path, ["all", "--jobs", "2"], NOT_ON_ANY_PATH) == []
