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
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import product as iter_product

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

def _morphism_terms(alg: Algebra, module: Multimodule, phi: PointedMap,
                    actions: dict[int, str]):
    """Sparse expansion of the functor action on ``phi``.

    Yields tuples (src_coords, dst_coords, mu_out, mu_in, coeff): the basis
    tensor with algebra coordinates ``src_coords`` and module index ``mu_in``
    contributes ``coeff`` times the basis tensor (``mu_out``, ``dst_coords``).

    Fiber products and basepoint operator composites are tabulated once per
    call, so the cost is proportional to the number of nonzero terms.
    """
    f = alg.field
    da = alg.dim
    bp = phi.basepoint_fiber()

    slot_items = []  # per output slot: (fiber slots, [(coords, k, coeff), ...])
    for i in range(1, phi.n + 1):
        fiber = phi.fiber(i)
        items = []
        for coords in iter_product(range(da), repeat=len(fiber)):
            # ascending fiber order, larger member multiplied on the left
            acc = alg.unit
            for c in coords:
                acc = multiply(alg, alg.basis_vector(c), acc)
            for k, v in enumerate(acc):
                if v != f.zero():
                    items.append((coords, k, v))
        slot_items.append((fiber, items))

    op_items = []  # (bp coords, [((mu_out, mu_in), coeff), ...])
    for coords in iter_product(range(da), repeat=len(bp)):
        acc = Matrix.identity(module.dim, f)
        for j, c in zip(bp, coords):  # smallest slot acts first
            try:
                name = actions[j]
            except KeyError:
                raise FunctorError(
                    f"basepoint fiber member {j} has no assigned action") from None
            acc = module.action(name).operators[c] * acc
        op_items.append((coords, sorted(acc.entries.items())))

    slot_choices = [items for (_, items) in slot_items]
    for bp_coords, opnz in op_items:
        if not opnz:
            continue
        for choice in iter_product(*slot_choices) if slot_choices else [()]:
            src = [0] * phi.m
            for j, c in zip(bp, bp_coords):
                src[j - 1] = c
            coeff = f.one()
            dst = []
            for (fiber, _), (coords, k, v) in zip(slot_items, choice):
                for j, c in zip(fiber, coords):
                    src[j - 1] = c
                dst.append(k)
                coeff = f.mul(coeff, v)
            src_t, dst_t = tuple(src), tuple(dst)
            for (mu_out, mu_in), v in opnz:
                yield src_t, dst_t, mu_out, mu_in, f.mul(coeff, v)


def _pack(da: int, mu: int, coords) -> int:
    idx = mu
    for t in coords:
        idx = idx * da + t
    return idx


def _functor_matrix(alg: Algebra, module: Multimodule, phi: PointedMap,
                    actions: dict[int, str] | None, source_rows: bool) -> Matrix:
    """Sum the terms of ``_morphism_terms`` into a matrix.  Module indices
    always map ``mu_in`` (column) to ``mu_out`` (row); the tensor coordinates
    of the source side index the rows if ``source_rows``, else the columns."""
    f = alg.field
    da, dm = alg.dim, module.dim
    entries: dict[tuple[int, int], object] = {}
    for src, dst, mu_out, mu_in, coeff in _morphism_terms(alg, module, phi, actions or {}):
        row, col = (src, dst) if source_rows else (dst, src)
        key = (_pack(da, mu_out, row), _pack(da, mu_in, col))
        s = f.add(entries.get(key, f.zero()), coeff)
        if s == f.zero():
            entries.pop(key, None)
        else:
            entries[key] = s
    rows, cols = (phi.m, phi.n) if source_rows else (phi.n, phi.m)
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
