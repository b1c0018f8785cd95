"""Every imported name is used by the module that imports it.

The scan reads the syntax tree only: a name counts as used where it
appears as a ``Name`` node anywhere in the module, annotations included.
``from __future__`` imports and the re-exports of a package's
``__init__`` are allowed.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCANNED = sorted((ROOT / "src" / "depthzero").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


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
