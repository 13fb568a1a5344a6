from fractions import Fraction

import pytest

from hochord import functors


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


@pytest.fixture
def term_count(monkeypatch):
    """Count the entries ``functors._functor_matrix`` writes while the test
    runs (each is one term: the kernel never sums); the list's one element
    is the count so far."""
    written = [0]
    original = functors._functor_matrix

    def counting(*args, **kwargs):
        m = original(*args, **kwargs)
        written[0] += len(m.entries)
        return m

    monkeypatch.setattr(functors, "_functor_matrix", counting)
    return written
