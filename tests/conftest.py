import pytest

from depthzero import charformula, driver


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
