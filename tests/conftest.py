import pytest

from depthzero import charformula, driver, tori


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
