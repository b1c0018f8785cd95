import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from depthzero import charformula, driver, tori

TESTS = Path(__file__).resolve().parent


@pytest.fixture(autouse=True)
def fresh_tables():
    """Empty table caches for every test, so that no table an earlier test
    filled hides what a test patches (a negative control above all)."""
    tori.clear_tables()
    charformula._check_summation.cache_clear()


@pytest.fixture
def certificates(monkeypatch):
    """The outcomes, in order, of every ``same_terms`` comparison that the
    checks and ``SumTables.certify`` make during the test."""
    results = []
    original = charformula.same_terms

    def spy(lhs, rhs):
        results.append(original(lhs, rhs))
        return results[-1]

    for module in (charformula, driver):
        monkeypatch.setattr(module, "same_terms", spy)
    return results


@pytest.fixture
def run_optimized():
    """Run a script under ``python -O``, which strips every ``assert``, with
    ``src`` and ``tests`` on the path: the JSON of its last printed line."""
    def run(script):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(TESTS.parent / "src"), str(TESTS)]))
        script = f"if __debug__:\n    raise SystemExit('asserts are on')\n{script}"
        done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        return json.loads(done.stdout.splitlines()[-1])
    return run
