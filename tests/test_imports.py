"""Imports: every imported name is used, and a run loads only what it uses.

The unused-import scan reads the syntax tree only: a name counts as used
where it appears as a ``Name`` node anywhere in the module, annotations
included.  ``from __future__`` imports and the re-exports of a package's
``__init__`` are allowed.

The footprint guard runs ``identity`` in a fresh interpreter, because
pytest itself loads some of the modules it forbids.
"""

import ast
import json
import os
import subprocess
import sys
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


# modules the identity campaign does not need, with what each costs in peak
# RSS after numpy: hashlib and _hashlib load OpenSSL (~3.5 MB); secrets and
# numpy.random pull hashlib in; the process pool (~1.5 MB) serves --jobs > 1
# only; fractions serves the threshold and rigidity checks only
NOT_ON_THE_IDENTITY_PATH = ("hashlib", "_hashlib", "secrets", "numpy.random",
                            "concurrent.futures.process", "multiprocessing", "fractions")

FOOTPRINT = """
import json, sys
import numpy
before = set(sys.modules)
from depthzero.driver import main
code = main(["identity", "--q", "3", "--kind", "both", "--jobs", "1", "--out", sys.argv[1]])
print(json.dumps({"exit": code, "added": sorted(set(sys.modules) - before)}))
"""


def test_identity_run_loads_no_module_it_does_not_use(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", FOOTPRINT, str(tmp_path / "out")],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["exit"] == 0
    assert "depthzero.driver" in result["added"]
    loaded = [name for name in result["added"]
              if any(name == m or name.startswith(m + ".") for m in NOT_ON_THE_IDENTITY_PATH)]
    assert loaded == []
