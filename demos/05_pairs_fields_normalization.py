"""Odds and ends: pairs of simplicial sets, prime fields, normalization.

For a pair X inside Y (two algebras joined by a map eps: B -> A), the
dimensions of the two sets decide how much noncommutativity survives.  All
homology runs equally well over a prime field, and the normalized complex
computes the same Betti numbers from much smaller matrices.  The normalized
complex is the quotient by degeneracies, computed by index restriction: the
basis tensors carrying the unit in every slot a degeneracy misses are dropped
and each differential keeps the submatrix on the rest.  When the unit is not
a basis vector (upper-triangular or matrix algebras) the algebra is first
rewritten in a unit-first basis.
"""

from hochord import (CHAIN, Field, NondegSimplex, SimplexRef, SimplicialSet,
                     build_complex, circle, make_spec, pair_constraints,
                     regular_bimodule, sphere2, symmetric_module, trunc_poly,
                     upper_tri, wedge_of_circles)

bp_edge = SimplexRef(0, (0,))
sphere_with_circle = SimplicialSet("sphere2+circle", "v0", [
    NondegSimplex("v0", 0, ()),
    NondegSimplex("e", 1, (SimplexRef(0), SimplexRef(0))),
    NondegSimplex("sigma", 2, (bp_edge, bp_edge, bp_edge)),
])

print("pair constraints:")
for inner, ambient in ((circle(), circle()),
                       (circle(), sphere_with_circle),
                       (sphere2(), sphere2())):
    rep = pair_constraints(inner, ambient)
    print(f"  {rep['pair'][0]} in {rep['pair'][1]}: {rep['verdict']}")
    print(f"    {rep['detail']}")

print("\nBetti numbers over Q and over F(5):")
for field in (Field(), Field(5)):
    alg = trunc_poly(2, field)
    c = build_complex(make_spec(circle(), alg, symmetric_module(alg), CHAIN, 4))
    print(f"  {field.describe():5s} {c.betti[:4]}")

print("\nnormalization (quotient by degeneracies) shrinks the complex without "
      "changing homology:")
alg = trunc_poly(2)
mod = symmetric_module(alg)
for X in (circle(), wedge_of_circles(2)):
    plain = build_complex(make_spec(X, alg, mod, CHAIN, 3))
    norm = build_complex(make_spec(X, alg, mod, CHAIN, 3, normalized=True))
    print(f"  {X.name}: dims {plain.dims} -> {norm.dims}; "
          f"betti {plain.betti[:3]} == {norm.betti[:3]}")

# upper-tri(2) has unit e11+e22, so it is normalized in the unit-first basis
alg = upper_tri(2)
mod = regular_bimodule(alg)
plain = build_complex(make_spec(circle(), alg, mod, CHAIN, 3))
norm = build_complex(make_spec(circle(), alg, mod, CHAIN, 3, normalized=True))
print(f"  circle over {alg.name}: dims {plain.dims} -> {norm.dims}; "
      f"betti {plain.betti[:3]} == {norm.betti[:3]}")
