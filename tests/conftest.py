from fractions import Fraction
from itertools import combinations_with_replacement
from typing import NamedTuple

import pytest

from hochord import functors, hochschild
from hochord.algebras import (cyclic_group_algebra, matrix_algebra, symmetric_group_algebra_s3,
                              trunc_poly, unit_first, upper_tri)
from hochord.ordering import InconclusiveSearch, NncmoResult, classify_nncmo, search_nncmo
from hochord.simplicial import SimplicialSet, from_file


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
    """Count the terms the functor kernel's write loop handles while the test
    runs, as ``functors._write_functor`` returns them (one per source term
    the kernel kept, whether or not its target position is kept); the list's
    one element is the count so far.  The kernel is wrapped under every name
    that calls it: its own module's (the standalone face matrices) and the
    assembler's."""
    written = [0]
    original = functors._write_functor

    def counting(*args, **kwargs):
        terms = original(*args, **kwargs)
        written[0] += terms
        return terms

    monkeypatch.setattr(functors, "_write_functor", counting)
    monkeypatch.setattr(hochschild, "_write_functor", counting)
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


TWO_LOOPS_AND_A_TRIANGLE = """
basepoint v0
simplex v0 dim=0
simplex e dim=1 faces=[v0, v0]
simplex f dim=1 faces=[v0, v0]
simplex sigma dim=2 faces=[f, s0 v0, e]
"""


@pytest.fixture
def two_loops_and_a_triangle():
    """Two loops e, f at v0 and a 2-simplex on them whose d_1 is the
    degenerate edge on v0."""
    return from_file(TWO_LOOPS_AND_A_TRIANGLE, "two-loops-and-a-triangle")


FAMILY_CUTOFF = 3


class FamilySet(NamedTuple):
    X: SimplicialSet
    cutoff: int  # FAMILY_CUTOFF, the cutoff of both verdicts
    canonical: NncmoResult | InconclusiveSearch  # classify_nncmo
    searched: NncmoResult | InconclusiveSearch  # search_nncmo


def _family_outcome(decide, X):
    try:
        return decide(X, FAMILY_CUTOFF)
    except InconclusiveSearch as e:
        return e


@pytest.fixture(scope="session")
def one_dimensional_family():
    """Every pointed one-dimensional set on the vertices v0 (the basepoint),
    v0 and p, or v0, p and q, with 1-4, 1-4 or 1-3 edges: each edge a -> b
    is an ordered pair of vertices (d_1 = a, d_0 = b), and the edges a
    multiset of them, named by their pairs.  That is
    4 + 69 + 219 = 292 sets, each with its canonical and its searched
    verdict at ``FAMILY_CUTOFF``, or the ``InconclusiveSearch`` raised
    instead.  Built once per session: the searches take a few seconds."""
    family = []
    for vertices, most in ((("v0",), 4), (("v0", "p"), 4), (("v0", "p", "q"), 3)):
        ends = [(a, b) for a in vertices for b in vertices]
        for k in range(1, most + 1):
            for edges in combinations_with_replacement(ends, k):
                text = "\n".join(["basepoint v0"] + [f"simplex {v} dim=0" for v in vertices]
                                 + [f"simplex e{j} dim=1 faces=[{b}, {a}]"
                                    for j, (a, b) in enumerate(edges, 1)])
                X = from_file(text, " ".join(f"{a}->{b}" for a, b in edges))
                family.append(FamilySet(X, FAMILY_CUTOFF, _family_outcome(classify_nncmo, X),
                                        _family_outcome(search_nncmo, X)))
    return family
