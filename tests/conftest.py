import pytest

from tradekit.linalg import IntegerEchelon


@pytest.fixture
def add_calls(monkeypatch):
    """Counts the `IntegerEchelon.add` calls made while the test runs."""
    calls = []
    add = IntegerEchelon.add

    def counted(self, vec):
        calls.append(vec)
        return add(self, vec)

    monkeypatch.setattr(IntegerEchelon, "add", counted)
    return calls
