import pytest

from tradekit import verify
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


def _clear_verify_caches():
    for obj in vars(verify).values():
        if hasattr(obj, "cache_clear") and obj.__module__ == verify.__name__:
            obj.cache_clear()


@pytest.fixture
def fresh_verify_caches():
    """Clears every `functools.cache` in `verify` before and after the test,
    so a test that patches what a memo reads neither sees values cached
    before it nor leaves its own behind."""
    _clear_verify_caches()
    yield
    _clear_verify_caches()
