"""Which simplicial sets support noncommutative coefficients?

A noncommutative algebra needs every face map to say in which order its
fibers multiply, and the orders of equal compositions have to agree.  A set
of dimension 2 or more never has such a system of orders (a four-simplex
witness shows it); a one-dimensional set is decided by construction or by
search, which may also fail or be inconclusive.  Both sides are mechanized
here -- the fast classifier and the exhaustive backtracking search -- and
they must agree.
"""

from hochord import (circle, classify_nncmo, interval, point, search_nncmo,
                     sphere2, wedge_of_circles)

sets = [point(), interval(), circle(), wedge_of_circles(2),
        wedge_of_circles(3), sphere2()]

print(f"{'set':10s} {'dim':>3s} {'classified':>11s} {'searched':>9s}")
for X in sets:
    fast = classify_nncmo(X, 4)
    slow = search_nncmo(X, 4)
    print(f"{X.name:10s} {X.dimension():3d} {fast.verdict:>11s} {slow.verdict:>9s}")

# The sphere's failure certificate: four 4-simplices carried onto the
# nondegenerate 2-simplex by two factorizations of the same composition.
S = sphere2()
w = search_nncmo(S, 4).witness
fa, fb = w.factorization_strings()
print(f"\nsphere witness at level {w.level}, target {S.monotone_name(w.target)}")
print("  fiber:", ", ".join(S.monotone_name(r) for r in w.fiber))
print(f"  factorizations: {fa} = {fb}")
print("  equal as maps:", w.verify_equal_maps(S))
print("  no joint order exists (4! enumeration):", w.reverify_unsat(S))

# A one-dimensional set that has no face-monotone ("cyclic") order but still
# admits a multiplicative ordering, found by search: the subdivided circle.
from hochord import from_file

bigon = from_file("""
basepoint v0
simplex v0 dim=0
simplex p dim=0
simplex e1 dim=1 faces=[p, v0]
simplex e2 dim=1 faces=[v0, p]
""", "bigon")
res = classify_nncmo(bigon, 3)
print(f"\nsubdivided circle: {res.verdict} (certificate found by search)")
for line in res.assignment.describe():
    print(" ", line)
