"""Tensor and hom functors on finite pointed sets with ordered fibers.

A pointed map ``phi: m_+ -> n_+`` (with ``phi(0) = 0``) acts on
``M (x) A^(x)m`` by multiplying each fiber into one tensor slot and routing
the basepoint fiber through module actions: this is the covariant tensor
functor.  The contravariant hom functor does the same on
``hom(A^(x)m, M)``.

Fiber products are ordered: the factor of the *largest* fiber member is
multiplied leftmost (ascending fiber order is read right to left).  Basepoint
fiber members carry no order; each names a module action, and the action
operators are applied smallest member first.  Distinct actions commute by the
multimodule axioms, which makes that application order immaterial; a test
asserts this rather than assuming it.

Basis enumeration is mixed-radix with the module factor most significant and
slot 1 next, so matrices are reproducible.

A matrix is built by one table-driven pass: the ordered product of every
coordinate tuple is tabulated once per fiber length, each fiber reads that
table with the strides of its members' slots, and a term's packed row and
column are sums of stride offsets, so no per-term index is re-derived and a
coefficient of 1 is never multiplied.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .algebras import Algebra, multiply
from .exact import Matrix
from .modules import Multimodule


class FunctorError(ValueError):
    pass


@dataclass(frozen=True)
class PointedMap:
    """A map of pointed sets m_+ -> n_+ with a total order on every
    non-basepoint fiber.

    ``images[j]`` is the image of j (``images[0]`` must be 0).  ``orders[i]``
    lists the fiber over i in ascending order, for every i in 1..n with a
    nonempty fiber.
    """

    m: int
    n: int
    images: tuple[int, ...]
    orders: dict[int, tuple[int, ...]]

    def __post_init__(self):
        if len(self.images) != self.m + 1 or self.images[0] != 0:
            raise FunctorError("images must list phi(0..m) with phi(0)=0")
        if any(not (0 <= v <= self.n) for v in self.images):
            raise FunctorError("image out of range")
        for i in range(1, self.n + 1):
            fiber = tuple(j for j in range(1, self.m + 1) if self.images[j] == i)
            if fiber:
                order = self.orders.get(i)
                if order is None:
                    raise FunctorError(f"missing fiber order over {i}")
                if sorted(order) != sorted(fiber):
                    raise FunctorError(f"order over {i} is not a permutation of the fiber")
            elif i in self.orders:
                raise FunctorError(f"order given for empty fiber over {i}")

    def basepoint_fiber(self) -> tuple[int, ...]:
        return tuple(j for j in range(1, self.m + 1) if self.images[j] == 0)

    def fiber(self, i: int) -> tuple[int, ...]:
        return self.orders.get(i, ())


def pointed_map(m: int, n: int, images, orders=None) -> PointedMap:
    """Build a pointed map; fibers default to ascending numeric order."""
    images = tuple(images)
    if orders is None:
        orders = {}
        for i in range(1, n + 1):
            fiber = tuple(j for j in range(1, m + 1) if images[j] == i)
            if fiber:
                orders[i] = fiber
    return PointedMap(m, n, images, dict(orders))


def identity_map(m: int) -> PointedMap:
    return pointed_map(m, m, tuple(range(m + 1)))


def compose(psi: PointedMap, phi: PointedMap,
            psi_actions: dict[int, str] | None = None,
            phi_actions: dict[int, str] | None = None):
    """Composite psi o phi with composition-induced fiber orders.

    Two members of a composite fiber compare inside phi's order when their
    phi-images agree and by psi's order of the images otherwise.  When action
    names are supplied, the composite's basepoint fiber inherits phi's action
    for members killed by phi and psi's action (of the image) for the rest.
    Returns (map, actions) if actions were given, else just the map.
    """
    if phi.n != psi.m:
        raise FunctorError("maps are not composable")
    images = tuple(psi.images[phi.images[j]] for j in range(phi.m + 1))

    def cmp(a, b):
        fa, fb = phi.images[a], phi.images[b]
        if fa == fb:
            order = phi.orders[fa]
            return -1 if order.index(a) < order.index(b) else 1
        order = psi.orders[psi_key(fa, fb)]
        return -1 if order.index(fa) < order.index(fb) else 1

    def psi_key(fa, fb):
        i = psi.images[fa]
        assert psi.images[fb] == i and i != 0
        return i

    orders = {}
    for i in range(1, psi.n + 1):
        fiber = [j for j in range(1, phi.m + 1) if images[j] == i]
        if fiber:
            orders[i] = tuple(sorted(fiber, key=functools.cmp_to_key(cmp)))
    comp = PointedMap(phi.m, psi.n, images, orders)
    if psi_actions is None and phi_actions is None:
        return comp
    actions = {}
    for j in range(1, phi.m + 1):
        if images[j] != 0:
            continue
        if phi.images[j] == 0:
            actions[j] = (phi_actions or {})[j]
        else:
            actions[j] = (psi_actions or {})[phi.images[j]]
    return comp, actions


# ---------------------------------------------------------------------------
# evaluation

def _fiber_products(alg: Algebra, lengths) -> dict[int, list[list]]:
    """For each fiber length, the nonzero ``(k, v)`` pairs of the ordered
    product of every coordinate tuple, the first coordinate most significant.
    The last factor (the largest fiber member) multiplies on the left, so each
    length extends the one before by one ``multiply`` per tuple."""
    f = alg.field
    basis = [alg.basis_vector(c) for c in range(alg.dim)]
    vecs = [alg.unit]
    table = {}
    for length in range(max(lengths, default=0) + 1):
        if length == 1:
            vecs = basis  # a single factor times the unit
        elif length:
            vecs = [multiply(alg, e, v) if any(v) else v for v in vecs for e in basis]
        if length in lengths:
            table[length] = [[(k, v) for k, v in enumerate(vec) if v != f.zero()]
                             for vec in vecs]
    return table


def _functor_matrix(alg: Algebra, module: Multimodule, phi: PointedMap,
                    actions: dict[int, str] | None, source_rows: bool) -> Matrix:
    """The functor on ``phi`` as a matrix, built from offset triples.

    Source slot j has the mixed-radix stride ``da**(m-j)`` and target slot i
    the stride ``da**(n-i)``.  The products of each fiber length are
    tabulated once; a fiber of that length turns the table into triples
    (source offset, target offset, coeff), and the slots fold into partial
    triples by Cartesian extension.  The basepoint-fiber operator composites
    add their source offset and the module indices: ``mu_in`` (column) maps
    to ``mu_out`` (row), and the tensor coordinates of the source side index
    the rows if ``source_rows``, else the columns.  Distinct terms land on
    distinct keys, so entries are written, never summed.
    """
    f = alg.field
    da, dm, m, n = alg.dim, module.dim, phi.m, phi.n
    one = f.one()
    slots = [phi.fiber(i) for i in range(1, n + 1)]
    products = _fiber_products(alg, {len(s) for s in slots})
    partial = [(0, 0, one)]  # (row offset, col offset, coeff)
    for i, fiber in enumerate(slots, 1):
        offsets = [0]
        for j in fiber:
            stride = da ** (m - j)
            offsets = [o + c * stride for o in offsets for c in range(da)]
        stride = da ** (n - i)
        triples = [(o, k * stride, v) if source_rows else (k * stride, o, v)
                   for o, nz in zip(offsets, products[len(fiber)]) for k, v in nz]
        partial = [(r + r2, c + c2, v2 if v == one else v if v2 == one else f.mul(v, v2))
                   for r, c, v in partial for r2, c2, v2 in triples]

    ops = [(0, Matrix.identity(dm, f))]  # (source offset, operator composite)
    for t, j in enumerate(phi.basepoint_fiber()):  # smallest member acts first
        name = (actions or {}).get(j)
        if name is None:
            raise FunctorError(f"basepoint fiber member {j} has no assigned action")
        operators = module.action(name).operators
        stride = da ** (m - j)
        ops = [(o + c * stride, op * acc if t else op) for o, acc in ops if acc.entries
               for c, op in enumerate(operators)]

    rows, cols = (m, n) if source_rows else (n, m)
    entries: dict[tuple[int, int], object] = {}
    for o, acc in ops:
        for (mu_out, mu_in), w in acc.entries.items():
            r0 = mu_out * da ** rows + (o if source_rows else 0)
            c0 = mu_in * da ** cols + (0 if source_rows else o)
            entries.update(((r0 + r, c0 + c), v if w == one else f.mul(v, w))
                           for r, c, v in partial)
    return Matrix._trusted(dm * da ** rows, dm * da ** cols, f, entries)


def loday_on_morphism(alg: Algebra, module: Multimodule, phi: PointedMap,
                      actions: dict[int, str] | None = None) -> Matrix:
    """Matrix of the tensor functor on ``phi``:
    M (x) A^(x)m  ->  M (x) A^(x)n.

    Columns and rows are mixed-radix indices (module most significant, then
    slot 1, 2, ...).
    """
    return _functor_matrix(alg, module, phi, actions, source_rows=False)


def hom_functor_on_morphism(alg: Algebra, module: Multimodule, phi: PointedMap,
                            actions: dict[int, str] | None = None) -> Matrix:
    """Matrix of the hom functor on ``phi``:
    hom(A^(x)n, M)  ->  hom(A^(x)m, M).

    Basis functionals send one tensor basis element to one module basis
    vector; indices are mixed-radix like the tensor side.  A functional f on
    the target tensors pulls back to evaluate the operator composite against
    f of the fiber products, which transposes the tensor-coordinate part of
    the term expansion but not the module part.
    """
    return _functor_matrix(alg, module, phi, actions, source_rows=True)
