"""The normalized complex against the Moore-complex oracle.

``build_complex(..., normalized=True)`` keeps the nondegenerate basis tensors
by index.  The oracle below is the linear-algebra construction it replaced:
chain degree n is the joint kernel of the faces d_1..d_n, cochain degree n the
joint kernel of the codegeneracies, each found with ``nullspace`` and
every differential re-expressed in those bases with ``solve``.  Both compute
complexes isomorphic to the quotient by degeneracies, so dims, Betti numbers
and d^2 = 0 must agree, and both must refuse the same inputs.
"""

from dataclasses import replace
from fractions import Fraction

import pytest

from hochord.algebras import custom_algebra, cyclic_group_algebra, trunc_poly, upper_tri
from hochord.exact import Field, Matrix, nullspace, solve
from hochord.hochschild import (CHAIN, COCHAIN, Complex, ComplexError, _Assembler,
                                _normalize, _resolve, build_complex, make_spec)
from hochord.modules import regular_bimodule
from hochord.simplicial import circle, interval, point, sphere2, wedge_of_circles


def _moore_normalize(spec, asm, dims, diffs):
    """Cut to the Moore subcomplex: chain degree n keeps the joint kernel of
    d_1..d_n, cochain degree n the joint kernel of the codegeneracies
    s^0..s^{n-1}.  Differentials are re-expressed in the kernel bases."""
    f = spec.algebra.field
    bases = []
    for n in range(spec.max_degree + 1):
        if n == 0:
            bases.append(Matrix.identity(dims[0], f))
            continue
        if spec.variant == CHAIN:
            mats = [asm.face_matrix(n, i) for i in range(1, n + 1)]
        else:
            mats = [asm.degeneracy_matrix(n - 1, i) for i in range(n)]
        stacked_entries = {}
        offset = 0
        for m in mats:
            for (r, c), v in m.entries.items():
                stacked_entries[(r + offset, c)] = v
            offset += m.rows
        basis = nullspace(Matrix(offset, dims[n], f, stacked_entries))
        bases.append(Matrix(dims[n], len(basis), f,
                            {(r, c): v for c, col in enumerate(basis)
                             for r, v in enumerate(col)}))
    new_diffs = {}
    for n, d in diffs.items():
        dst = bases[n - 1] if spec.variant == CHAIN else bases[n + 1]
        new_diffs[n] = solve(dst, d * bases[n])
    return [b.cols for b in bases], new_diffs


def _moore_complex(spec):
    """(dims, betti, square_zero) of the Moore complex of ``spec``."""
    plain = build_complex(replace(spec, normalized=False))
    classes, amap = _resolve(spec)
    asm = _Assembler(spec, classes, amap)
    dims, diffs = _moore_normalize(spec, asm, plain.dims, plain.differentials)
    moore = Complex(spec.variant, spec.algebra.field, dims, diffs)
    return moore.dims, moore.betti, moore.verify_square_zero()


def _two_idempotents(field):
    """k x k: basis e1, e2 with e_i e_i = e_i, unit (1, 1)."""
    return custom_algebra("k x k", field, ["e1", "e2"], [1, 1],
                          [[[1, 0], [0, 0]], [[0, 0], [0, 1]]])


def _half_unit(field):
    """k[x]/(x^2) on the basis 2, x: the unit is (1/2, 0)."""
    return custom_algebra("half unit", field, ["u", "x"], [Fraction(1, 2), 0],
                          [[[2, 0], [0, 2]], [[0, 2], [0, 0]]])


SETS = {"point": point, "interval": interval, "circle": circle,
        "wedge2": lambda: wedge_of_circles(2), "sphere2": sphere2}
ALGEBRAS = {"trunc-poly2": lambda f: trunc_poly(2, f),
            "upper-tri2": lambda f: upper_tri(2, f),
            "group-cyclic2": lambda f: cyclic_group_algebra(2, f),
            "kxk": _two_idempotents,
            "half-unit": _half_unit}


def _outcome(fn):
    try:
        return fn()
    except Exception as e:  # the refusal type is part of the contract
        return type(e)


def _index_path(X, alg, variant):
    c = build_complex(make_spec(X, alg, regular_bimodule(alg), variant, 3,
                                normalized=True))
    return c.dims, c.betti, c.verify_square_zero()


def _moore_path(X, alg, variant):
    return _moore_complex(make_spec(X, alg, regular_bimodule(alg), variant, 3,
                                    normalized=True))


# Every set x algebra pair in both variants, over Q and over F(101).
CASES = [(s, a, v, p) for s in SETS for a in ALGEBRAS for v in (CHAIN, COCHAIN)
         for p in (None, 101)]


@pytest.mark.parametrize("set_name,alg_name,variant,p", CASES)
def test_index_restriction_matches_moore_complex(set_name, alg_name, variant, p):
    alg = ALGEBRAS[alg_name](Field(p))
    X = SETS[set_name]()
    got = _outcome(lambda: _index_path(X, alg, variant))
    want = _outcome(lambda: _moore_path(X, alg, variant))
    assert got == want


@pytest.mark.parametrize("variant", [CHAIN, COCHAIN])
def test_closure_check_catches_a_dropped_tensor_reaching_a_kept_one(variant):
    alg = trunc_poly(2)
    spec = make_spec(circle(), alg, regular_bimodule(alg), variant, 3, normalized=True)
    plain = build_complex(replace(spec, normalized=False))
    _normalize(spec, plain.differentials)  # the true differentials pass
    # The circle's one degree-1 slot misses every degeneracy image, so a
    # degree-1 tensor is degenerate when that slot holds the unit: with
    # regular coefficients index 0 (module 1, slot 1) is dropped and index 1
    # (module 1, slot x) kept.  In degree 2, index 0 (unit in both slots) is
    # dropped; degree 0 keeps everything.  Closure makes these entries zero.
    d = plain.differentials[1]
    r, c = (0, 0) if variant == CHAIN else (0, 1)
    assert d.get(r, c) == 0
    broken = dict(plain.differentials)
    broken[1] = Matrix(d.rows, d.cols, alg.field, dict(d.entries) | {(r, c): 1})
    with pytest.raises(ComplexError, match="not a subcomplex"):
        _normalize(spec, broken)
