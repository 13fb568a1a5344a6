from fractions import Fraction

import pytest


@pytest.fixture
def fraction_count(monkeypatch):
    """Count ``Fraction.__new__`` calls while the test runs; the list's one
    element is the count so far."""
    built = [0]
    original = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built[0] += 1
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    assert Fraction(1, 2) == Fraction(2, 4) and built[0] == 2  # the counter sees them
    built[0] = 0
    return built
