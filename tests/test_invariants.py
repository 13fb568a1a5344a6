"""Invariants every fast path of the complex construction must keep.

Duality: the cochain complex with coefficients in ``dual_module(M)`` is the
linear dual of the chain complex with coefficients in M, so their Betti
numbers agree in every degree, on the plain and on the normalized complex.
"""

import pytest

from hochord.algebras import trunc_poly, upper_tri
from hochord.exact import Field
from hochord.hochschild import CHAIN, COCHAIN, build_complex, make_spec
from hochord.modules import dual_module, regular_bimodule, symmetric_module
from hochord.simplicial import circle, interval, sphere2, wedge_of_circles

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
