from fractions import Fraction

import pytest

from hochord import functors
from hochord.algebras import (cyclic_group_algebra, matrix_algebra, symmetric_group_algebra_s3,
                              trunc_poly, unit_first, upper_tri)


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


@pytest.fixture
def oracle_algebras():
    """The algebras new code and its oracles are compared on, over a given
    field: trunc-poly 1-3, upper-tri 1-3, matrix 2, C3 and S3, then the
    unit-first copies that differ from their algebra."""
    def build(field):
        plain = [trunc_poly(1, field), trunc_poly(2, field), trunc_poly(3, field),
                 upper_tri(1, field), upper_tri(2, field), upper_tri(3, field),
                 matrix_algebra(2, field), cyclic_group_algebra(3, field),
                 symmetric_group_algebra_s3(field)]
        return plain + [b for b in (unit_first(a)[0] for a in plain) if b not in plain]
    return build
