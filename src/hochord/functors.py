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
coordinate tuple is tabulated once per algebra and fiber length, on the
algebra (``Algebra.fiber_products``), each fiber reads that table with the
strides of its members' slots, and a term's packed row and column are sums
of stride offsets, so no per-term index is re-derived and a coefficient of 1
is never multiplied.  Only the lengths a map asks for are tabulated, as
tabulating every length up to the top level costs more than it saves.

The pass has one write loop, ``_write_functor``, which adds each signed term
into a row table ``{row: {col: value}}`` (see ``exact``).  A standalone
matrix (``loday_on_morphism``, ``hom_functor_on_morphism``) is written with
sign 1 on a fresh table.  An assembler passes a differential's table, the
face's sign and maps from plain indices to kept positions, so every face
writes its terms straight into the differential and no face matrix exists.

For the normalized complex the kernel also takes, per degeneracy into the
source level, the bitmask of source slots it misses.  A source tensor with
the unit in every slot of one mask is degenerate; each partial term and
operator composite carries a bitmask of the degeneracies it may still lie
in and is dropped as soon as the slots it fixes settle one, so no term from
a degenerate source is ever written.  ``nondegenerate_tensors`` enumerates
the kept tensors of a level the same way.

Callers may share state across calls: a level's ``_Degeneracies`` between
its kept indices and face matrices, and one dict of operator composites
between the matrices of a build, so each composite is multiplied once.  The
matrices are the same without them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebras import Algebra
from .exact import Matrix
from .modules import Multimodule
from .simplicial import fibers


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
        fibs = fibers(self.images)
        for i in sorted(fibs.keys() | self.orders.keys()):
            if i not in fibs:
                raise FunctorError(f"order given for empty fiber over {i}")
            if i not in self.orders:
                raise FunctorError(f"missing fiber order over {i}")
            if sorted(self.orders[i]) != fibs[i]:
                raise FunctorError(f"order over {i} is not a permutation of the fiber")

    @classmethod
    def _trusted(cls, m: int, n: int, images: tuple[int, ...],
                 orders: dict[int, tuple[int, ...]]) -> "PointedMap":
        """Wrap images and fiber orders the library derived itself (the
        face tables and ``face_fibers`` of a set) without the checks of
        ``__post_init__``."""
        phi = object.__new__(cls)
        for name, value in (("m", m), ("n", n), ("images", images), ("orders", orders)):
            object.__setattr__(phi, name, value)
        return phi

    def basepoint_fiber(self) -> tuple[int, ...]:
        return tuple(j for j in range(1, self.m + 1) if self.images[j] == 0)

    def fiber(self, i: int) -> tuple[int, ...]:
        return self.orders.get(i, ())


def pointed_map(m: int, n: int, images, orders=None) -> PointedMap:
    """Build a pointed map; fibers default to ascending numeric order."""
    images = tuple(images)
    if orders is None:
        orders = {i: tuple(members) for i, members in fibers(images).items()}
    return PointedMap(m, n, images, dict(orders))


def identity_map(m: int) -> PointedMap:
    return pointed_map(m, m, tuple(range(m + 1)))


def compose(psi: PointedMap, phi: PointedMap,
            psi_actions: dict[int, str] | None = None,
            phi_actions: dict[int, str] | None = None):
    """Composite psi o phi with composition-induced fiber orders.

    A member of a composite fiber sorts by the psi-position of its
    phi-image, then by its own phi-position: members compare inside phi's
    order when their phi-images agree and by psi's order of the images
    otherwise.  When action names are supplied, the composite's basepoint
    fiber inherits phi's action for members killed by phi and psi's action
    (of the image) for the rest.  Returns (map, actions) if actions were
    given, else just the map.
    """
    if phi.n != psi.m:
        raise FunctorError("maps are not composable")
    images = tuple(psi.images[phi.images[j]] for j in range(phi.m + 1))
    phi_pos = {j: p for order in phi.orders.values() for p, j in enumerate(order)}
    psi_pos = {k: p for order in psi.orders.values() for p, k in enumerate(order)}
    orders = {i: tuple(sorted(members, key=lambda j: (psi_pos[phi.images[j]], phi_pos[j])))
              for i, members in fibers(images).items()}
    comp = PointedMap(phi.m, psi.n, images, orders)
    if psi_actions is None and phi_actions is None:
        return comp
    actions = {j: (psi_actions or {})[phi.images[j]] if phi.images[j] else (phi_actions or {})[j]
               for j in comp.basepoint_fiber()}
    return comp, actions


# ---------------------------------------------------------------------------
# evaluation

def _unit_slot(alg: Algebra) -> int:
    """The basis index of the unit, which marks the slots a degeneracy fills."""
    k = next((k for k, c in enumerate(alg.unit) if c), 0)
    if alg.unit == alg.basis_vector(k):
        return k
    raise FunctorError("degenerate tensors are recognized by index only when "
                       "the unit is a basis vector (see algebras.unit_first)")


class _Degeneracies:
    """Bit bookkeeping for recognizing degenerate source tensors on
    ``slots`` slots, built once per level and shared by the level's kept
    indices and face matrices.

    ``missed[t]`` is the bitmask of source slots (bit j for slot j) that the
    t-th degeneracy misses; a tensor lies in its image when it carries the
    unit in all of them.  A term tracks ``state``, the bitmask of the
    degeneracies whose missed slots, among those fixed so far, all hold the
    unit: it starts at ``full`` and a non-unit coordinate in slot j clears
    ``kill[j]``.  Once the slots ``fixed`` are all set, the term is
    degenerate exactly when ``state & self.done(fixed)`` is nonzero."""

    def __init__(self, alg: Algebra, missed, slots: int):
        self.missed = tuple(missed)
        self.unit = _unit_slot(alg) if self.missed else -1
        self.full = (1 << len(self.missed)) - 1
        self.kill = [sum(1 << t for t, mask in enumerate(self.missed) if mask >> j & 1)
                     for j in range(slots + 1)]

    def done(self, fixed: int) -> int:
        """The degeneracies whose missed slots all lie in the mask ``fixed``."""
        return sum(1 << t for t, mask in enumerate(self.missed) if not mask & ~fixed)


def nondegenerate_tensors(alg: Algebra, deg: _Degeneracies) -> list[int]:
    """Ascending mixed-radix indices (slot 1 most significant) of the basis
    tensors on the slots of ``deg`` that carry the unit in every slot of
    none of its ``missed`` bitmasks (bit j for slot j).  Slots are fixed one
    at a time and a prefix is dropped as soon as it is degenerate."""
    da = alg.dim
    tensors = [(0, deg.full)] if not deg.full & deg.done(0) else []
    for j in range(1, len(deg.kill)):
        done, keep = deg.done((2 << j) - 1), ~deg.kill[j]
        tensors = [(t * da + c, w) for t, s in tensors for c in range(da)
                   for w in (s if c == deg.unit else s & keep,) if not w & done]
    return [t for t, _ in tensors]


def _functor_matrix(alg: Algebra, module: Multimodule, phi: PointedMap,
                    actions: dict[int, str] | None, source_rows: bool,
                    missed=(), composites: dict | None = None) -> Matrix:
    """The functor on ``phi`` as a standalone matrix: ``_write_functor`` on
    a fresh row table, with sign 1 and plain indices."""
    dm, da = module.dim, alg.dim
    rows, cols = (phi.m, phi.n) if source_rows else (phi.n, phi.m)
    table: dict = {}
    _write_functor(table, 1, None, None, alg, module, phi, actions, source_rows, missed,
                   composites)
    return Matrix._trusted(dm * da ** rows, dm * da ** cols, alg.field, table)


def _write_functor(table: dict, sign: int, rows_at, cols_at, alg: Algebra,
                   module: Multimodule, phi: PointedMap, actions: dict[int, str] | None,
                   source_rows: bool, missed=(), composites: dict | None = None) -> int:
    """Add ``sign`` times the functor on ``phi`` into the row table
    ``table``; returns the number of terms the loop handled, those dropped
    at a None position included.

    Source slot j has the mixed-radix stride ``da**(m-j)`` and target slot i
    the stride ``da**(n-i)``.  The products of each fiber length are
    tabulated once; a fiber of that length turns the table into terms
    (source offset, target offset, coeff), and the slots fold into partial
    terms by Cartesian extension.  The basepoint-fiber operator composites
    add their source offset and the module indices: ``mu_in`` (column) maps
    to ``mu_out`` (row), and the tensor coordinates of the source side index
    the rows if ``source_rows``, else the columns.  Distinct terms of one
    map land on distinct positions, so a term is summed only with what other
    maps wrote there before; an entry that cancels to zero is deleted, and
    so is a row it leaves empty.

    ``rows_at`` and ``cols_at`` move a term's plain row and column to their
    positions in ``table`` (a term is dropped where either is None); with
    None the plain indices are kept.  ``missed`` holds one bitmask of source
    slots (bit j for slot j) per degeneracy into the source level: the slots
    it misses.  A source tensor carrying the unit in every slot of one mask
    is degenerate and gets no term.  Partial terms and operator composites
    carry a degeneracy state (``_Degeneracies``) and are dropped as soon as
    the slots they fix make them degenerate, so degenerate sources are never
    extended.  With no masks (the default) every source tensor is kept.
    ``missed`` may also be the level's shared ``_Degeneracies``.
    ``composites`` memoizes operator composites by their sequence of (action
    name, coordinate), first applied first, the empty sequence holding the
    identity.
    """
    f = alg.field
    da, dm, m, n = alg.dim, module.dim, phi.m, phi.n
    one = f.one()
    deg = missed if isinstance(missed, _Degeneracies) else _Degeneracies(alg, missed, m)
    composites = {} if composites is None else composites
    if () not in composites:
        composites[()] = Matrix.identity(dm, f)
    slots = [phi.fiber(i) for i in range(1, n + 1)]
    products = alg.fiber_products({len(s) for s in slots})
    fixed = 0  # the source slots the partial terms have set
    # (row offset, col offset, coeff, degeneracy state)
    partial = [(0, 0, one, deg.full)] if not deg.full & deg.done(fixed) else []
    for i, fiber in enumerate(slots, 1):
        offsets = [(0, deg.full)]  # (source offset, state) per coordinate tuple
        for j in fiber:
            stride, keep = da ** (m - j), ~deg.kill[j]
            offsets = [(o + c * stride, s if c == deg.unit else s & keep)
                       for o, s in offsets for c in range(da)]
            fixed |= 1 << j
        done = deg.done(fixed)
        stride = da ** (n - i)
        terms = [(o, k * stride, v, s) if source_rows else (k * stride, o, v, s)
                 for (o, s), nz in zip(offsets, products[len(fiber)]) for k, v in nz]
        partial = [(r + r2, c + c2, v2 if v == one else v if v2 == one else f.mul(v, v2),
                    s & s2)
                   for r, c, v, s in partial for r2, c2, v2, s2 in terms
                   if not s & s2 & done]
    if sign < 0:
        partial = [(r, c, f.neg(v), s) for r, c, v, s in partial]

    # (source offset, operator composite key, degeneracy state)
    ops = [(0, (), deg.full)]
    bp_fixed = 0
    for j in phi.basepoint_fiber():  # smallest member acts first
        name = (actions or {}).get(j)
        if name is None:
            raise FunctorError(f"basepoint fiber member {j} has no assigned action")
        operators = module.action(name).operators
        bp_fixed |= 1 << j
        done, stride, keep = deg.done(bp_fixed), da ** (m - j), ~deg.kill[j]
        ops = [(o + c * stride, key + ((name, c),), w)
               for o, key, s in ops if composites[key].table
               for c in range(da)
               for w in (s if c == deg.unit else s & keep,) if not w & done]
        for _, key, _ in ops:
            if key not in composites:
                composites[key] = operators[key[-1][1]] * composites[key[:-1]]

    row_stride, col_stride = (da ** m, da ** n) if source_rows else (da ** n, da ** m)
    add, written = f.add, 0
    live = {0: partial}  # operator state -> the partial terms it keeps
    for o, key, s in ops:
        kept = live.get(s)
        if kept is None:
            kept = live[s] = [p for p in partial if not s & p[3]]
        for mu_out, by_in in composites[key].table.items():
            r0 = mu_out * row_stride + (o if source_rows else 0)
            for mu_in, w in by_in.items():
                c0 = mu_in * col_stride + (0 if source_rows else o)
                written += len(kept)
                for r, c, v, _ in kept:
                    r, c = r0 + r, c0 + c
                    if rows_at is not None:
                        r, c = rows_at[r], cols_at[c]
                        if r is None or c is None:
                            continue
                    if w != one:
                        v = f.mul(v, w)
                    row = table.get(r)
                    if row is None:
                        table[r] = {c: v}
                    elif c not in row:
                        row[c] = v
                    else:
                        v = add(row[c], v)
                        if v:
                            row[c] = v
                        else:
                            del row[c]
                            if not row:
                                del table[r]
    return written


def loday_on_morphism(alg: Algebra, module: Multimodule, phi: PointedMap,
                      actions: dict[int, str] | None = None, missed=(),
                      composites: dict | None = None) -> Matrix:
    """Matrix of the tensor functor on ``phi``:
    M (x) A^(x)m  ->  M (x) A^(x)n.

    Columns and rows are mixed-radix indices (module most significant, then
    slot 1, 2, ...).  Columns of the source tensors that ``missed`` marks
    degenerate are left empty; ``composites`` is a memo of operator
    composites that a build shares (see ``_functor_matrix``).
    """
    return _functor_matrix(alg, module, phi, actions, False, missed, composites)


def hom_functor_on_morphism(alg: Algebra, module: Multimodule, phi: PointedMap,
                            actions: dict[int, str] | None = None, missed=(),
                            composites: dict | None = None) -> Matrix:
    """Matrix of the hom functor on ``phi``:
    hom(A^(x)n, M)  ->  hom(A^(x)m, M).

    Basis functionals send one tensor basis element to one module basis
    vector; indices are mixed-radix like the tensor side.  A functional f on
    the target tensors pulls back to evaluate the operator composite against
    f of the fiber products, which transposes the tensor-coordinate part of
    the term expansion but not the module part.  Rows of the source tensors
    that ``missed`` marks degenerate are left empty; ``composites`` as for
    ``loday_on_morphism``.
    """
    return _functor_matrix(alg, module, phi, actions, True, missed, composites)
