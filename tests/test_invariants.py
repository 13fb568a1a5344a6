"""Invariants every fast path of the complex construction must keep.

Duality: the cochain complex with coefficients in ``dual_module(M)`` is the
linear dual of the chain complex with coefficients in M, so their Betti
numbers agree in every degree, on the plain and on the normalized complex.

Primes: the structure constants here are integers, so a complex over F_p is
the reduction mod p of the one over Q, and a matrix cannot gain rank mod p.
Every differential has rank over F(101) at most its rank over Q, hence every
Betti number over F(101) is at least the one over Q.  This runs both field
branches of the elimination kernel on real complexes.
"""

import pytest

from hochord.algebras import trunc_poly, upper_tri
from hochord.exact import Field, rank
from hochord.hochschild import CHAIN, COCHAIN, build_complex, make_spec
from hochord.modules import (dual_module, regular_bimodule, symmetric_module,
                             tensor_square_bimodule)
from hochord.simplicial import circle, from_file, interval, sphere2, wedge_of_circles

SETS = {"circle": circle, "wedge2": lambda: wedge_of_circles(2), "interval": interval,
        "sphere2": sphere2}
ALGEBRAS = {"upper-tri2": lambda f: upper_tri(2, f), "trunc-poly2": lambda f: trunc_poly(2, f),
            "trunc-poly3": lambda f: trunc_poly(3, f)}
MODULES = {"regular": regular_bimodule, "symmetric": symmetric_module}

# (set, algebra, module, characteristic or None for Q)
DUALITY_CASES = [
    ("circle", "upper-tri2", "regular", None),
    ("circle", "upper-tri2", "regular", 101),
    ("wedge2", "trunc-poly2", "symmetric", None),
    ("interval", "upper-tri2", "regular", None),
    ("sphere2", "trunc-poly2", "symmetric", None),
    ("circle", "trunc-poly3", "regular", None),
]


@pytest.mark.parametrize("normalized", [False, True], ids=["plain", "normalized"])
@pytest.mark.parametrize("set_name,alg_name,module_name,p", DUALITY_CASES)
def test_chain_betti_equal_cochain_betti_of_dual_module(set_name, alg_name, module_name,
                                                        p, normalized):
    X, alg = SETS[set_name](), ALGEBRAS[alg_name](Field(p))
    M = MODULES[module_name](alg)
    chain = build_complex(make_spec(X, alg, M, CHAIN, 3, normalized=normalized))
    cochain = build_complex(make_spec(X, alg, dual_module(M), COCHAIN, 3,
                                      normalized=normalized))
    assert chain.betti == cochain.betti


# the duality cases without their field: each is built over Q and over F(101)
PRIMES_CASES = sorted({case[:3] for case in DUALITY_CASES})


@pytest.mark.parametrize("normalized", [False, True], ids=["plain", "normalized"])
@pytest.mark.parametrize("variant", [CHAIN, COCHAIN])
@pytest.mark.parametrize("set_name,alg_name,module_name", PRIMES_CASES)
def test_rank_mod_p_never_exceeds_rank_over_q(set_name, alg_name, module_name, variant,
                                              normalized):
    complexes = {}
    for p in (None, 101):
        alg = ALGEBRAS[alg_name](Field(p))
        complexes[p] = build_complex(make_spec(SETS[set_name](), alg, MODULES[module_name](alg),
                                               variant, 3, normalized=normalized))
    over_q, over_p = complexes[None], complexes[101]
    assert over_q.dims == over_p.dims
    assert over_q.differentials.keys() == over_p.differentials.keys()
    for n, d in over_q.differentials.items():
        assert rank(over_p.differentials[n]) <= rank(d), f"degree {n}"
    assert all(bp >= bq for bq, bp in zip(over_q.betti, over_p.betti))


# Model independence.  Higher Hochschild homology of a commutative algebra
# depends only on the homotopy type of X (Pirashvili, Ann. Sci. ENS 33, 2000),
# so simplicial models of one space give the same Betti numbers; below the top
# degree, which lacks its next differential, these are exact.  The bigon (two
# edges) and the triangle (three edges, three vertices) are circles; the theta
# graph (three edges v0 -> p) is homotopy equivalent to wedge2.
MODELS = {
    "circle": circle,
    "wedge2": lambda: wedge_of_circles(2),
    "bigon": lambda: from_file("""
basepoint v0
simplex v0 dim=0
simplex p dim=0
simplex e1 dim=1 faces=[p, v0]
simplex e2 dim=1 faces=[v0, p]
""", "bigon"),
    "triangle": lambda: from_file("""
basepoint v0
simplex v0 dim=0
simplex p dim=0
simplex q dim=0
simplex a dim=1 faces=[p, v0]
simplex b dim=1 faces=[q, p]
simplex c dim=1 faces=[v0, q]
""", "triangle"),
    "theta": lambda: from_file("""
basepoint v0
simplex v0 dim=0
simplex p dim=0
simplex a dim=1 faces=[p, v0]
simplex b dim=1 faces=[p, v0]
simplex c dim=1 faces=[p, v0]
""", "theta"),
}


def _betti_below_top(set_name, alg, module, variant, D):
    c = build_complex(make_spec(MODELS[set_name](), alg, module, variant, D))
    assert c.caveat_degrees == (D,)
    return c.betti[:D]


@pytest.mark.parametrize("variant", [CHAIN, COCHAIN])
@pytest.mark.parametrize("models,D", [(("circle", "bigon", "triangle"), 4),
                                      (("wedge2", "theta"), 3)],
                         ids=["circle", "wedge2"])
def test_commutative_betti_do_not_depend_on_the_model(models, D, variant):
    alg = trunc_poly(2)
    module = symmetric_module(alg)
    found = {name: _betti_below_top(name, alg, module, variant, D) for name in models}
    assert len(set(found.values())) == 1, found


# Over a noncommutative algebra no theorem is invoked: these circle models
# agreed when measured, and a disagreement here is a finding to record, not a
# case to drop or shrink.
@pytest.mark.parametrize("module", [regular_bimodule, tensor_square_bimodule],
                         ids=["regular", "tensor-square"])
def test_noncommutative_circle_models_agree(module):
    alg = upper_tri(2)
    found = {name: _betti_below_top(name, alg, module(alg), CHAIN, 4)
             for name in ("circle", "bigon")}
    assert found["circle"] == found["bigon"], found
