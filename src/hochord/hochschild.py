"""Hochschild-style (co)chain complexes over a pointed simplicial set.

Degree n of the chain complex is ``M (x) A^(x)s`` with one algebra slot per
non-basepoint level-n simplex (slots in level-enumeration order, module factor
most significant); the cochain complex uses ``hom`` of the same tensor space
into M.  Face and degeneracy matrices come from the tensor/hom functors
applied to the level maps of the simplicial set, with fiber products ordered
by the multiplicative-ordering certificate and basepoint-fiber factors routed
through the class-to-action assignment.  The classes are typed against the
certificate the products use, or handedness and products disagree.

For a noncommutative algebra the certificate is mandatory: without one (or
with one failing the consistency check) construction refuses loudly, carrying
the witness.  There is no silent fallback to commutative multiplication.
The chain construction applies the mirrored handedness of each class (a
cochain-left class acts through a right-law operator in homology), which is
what makes the circle reproduce the classical complex on both sides.

The normalized complex is the quotient by degeneracies (chain) or the
cochains vanishing on degenerate tensors (cochain).  Each degeneracy is
injective and fills the slots it misses with the unit, so once the unit is a
basis vector (after a unit-first change of basis when it is not, see
``algebras.unit_first``) both live on the basis tensors outside every
degeneracy image.  The normalized build assembles on those alone: the kept
indices of each degree are enumerated once from the slots each ``s_j``
misses, the functor kernel writes no term from a degenerate source tensor,
and each differential is accumulated straight into kept positions.  That the
degenerate span is a subcomplex is checked structurally, on face tables,
certificate ranks and site classes (``_check_degenerate_closure``), since
the entries that would show a violation are never computed.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from itertools import product

from .algebras import Algebra, is_commutative, unit_first
# ``nullspace`` and ``solve`` have no caller here; they stay bound because
# hochbench/tracer.py wraps ``hochschild.nullspace``/``hochschild.solve`` (with
# ``rank`` and the two functor entry points) by name to time these layers.
from .exact import Field, Matrix, combine, nullspace, rank, solve  # noqa: F401
from .functors import (PointedMap, hom_functor_on_morphism, loday_on_morphism,
                       nondegenerate_tensors)
from .modules import (LEFT, RIGHT, Multimodule, default_assignment, rebased,
                      validate_assignment)
from .ordering import (ActionClassReport, OrderingAssignment, Witness, check_nncmo,
                       classify_actions, classify_nncmo)
from .simplicial import SimplicialSet

CHAIN = "chain"
COCHAIN = "cochain"


class ComplexError(ValueError):
    pass


class OrderingRefusal(ComplexError):
    """Raised when a noncommutative construction lacks a valid multiplicative
    ordering; carries the witness when the set provably has none."""

    def __init__(self, message: str, witness: Witness | None = None):
        super().__init__(message)
        self.witness = witness


@dataclass(frozen=True)
class ComplexSpec:
    X: SimplicialSet
    algebra: Algebra
    module: Multimodule
    variant: str  # 'chain' | 'cochain'
    max_degree: int
    assignment: OrderingAssignment | None = None
    action_map: dict[str, str] | None = None
    normalized: bool = False

    def __post_init__(self):
        if self.variant not in (CHAIN, COCHAIN):
            raise ComplexError(f"unknown variant {self.variant!r}")
        if self.max_degree < 1:
            raise ComplexError("max_degree must be at least 1")
        if self.module.algebra != self.algebra:
            raise ComplexError("module is not over the given algebra")


class Complex:
    """Graded dimensions plus exact differentials; Betti numbers are computed
    from ranks on first access (rank is the expensive part)."""

    def __init__(self, variant: str, field: Field, dims, differentials: dict[int, Matrix]):
        self.variant = variant
        self.field = field
        self.dims = tuple(dims)
        self.differentials = dict(differentials)
        self.max_degree = len(self.dims) - 1
        self._betti: tuple[int, ...] | None = None

    @property
    def betti(self) -> tuple[int, ...]:
        if self._betti is None:
            self._betti = _betti_table(self.variant, self.dims, self.differentials)
        return self._betti

    @property
    def caveat_degrees(self) -> tuple[int, ...]:
        """Degrees whose Betti number lacks the next differential: the top
        one, on either variant."""
        return (self.max_degree,)

    def differential(self, n: int) -> Matrix:
        try:
            return self.differentials[n]
        except KeyError:
            raise ComplexError(f"no differential at degree {n}") from None

    def verify_square_zero(self) -> bool:
        for n in sorted(self.differentials):
            if n + 1 in self.differentials:
                a, b = self.differentials[n], self.differentials[n + 1]
                prod = a * b if self.variant == CHAIN else b * a
                if not prod.is_zero():
                    return False
        return True


# ---------------------------------------------------------------------------
# level maps as pointed maps

def face_pointed_map(X: SimplicialSet, level: int, i: int,
                     assignment: OrderingAssignment | None,
                     classes: ActionClassReport | None = None,
                     action_map: dict[str, str] | None = None):
    """The face map d_i : X_level -> X_{level-1} as a pointed map between the
    level enumerations, with fiber orders from the assignment (level order
    when no assignment is needed) and basepoint-fiber actions resolved
    through the class assignment."""
    # pointed-map index j is level index j: the basepoint is 0 on both sides
    images = X.face_table(level)[i]
    fibers: dict[int, list[int]] = {}
    for j in range(1, len(images)):
        if images[j] != 0:
            fibers.setdefault(images[j], []).append(j)
    if assignment is not None:
        rank = assignment.ranks(level, i)
        for members in fibers.values():
            members.sort(key=rank.__getitem__)
    orders = {tgt: tuple(members) for tgt, members in fibers.items()}
    phi = PointedMap(len(images) - 1, len(X.level(level - 1)) - 1, images, orders)
    actions = None
    if action_map is not None and classes is not None:
        refs = X.level(level)
        actions = {}
        for j in range(1, len(images)):
            if images[j] == 0:
                cls = classes.class_of_site((level, refs[j], i))
                if cls is None:
                    raise ComplexError(
                        f"no action class covers the site d_{i} of "
                        f"{X.monotone_name(refs[j])} at level {level}")
                actions[j] = action_map[cls.class_id]
    return phi, actions


def degeneracy_pointed_map(X: SimplicialSet, level: int, i: int) -> PointedMap:
    """s_i : X_level -> X_{level+1}; injective, so fibers are singletons."""
    images = X.degeneracy_table(level)[i]
    orders = {images[j]: (j,) for j in range(1, len(images))}
    return PointedMap(len(images) - 1, len(X.level(level + 1)) - 1, images, orders)


class _Assembler:
    """Shared matrix assembly for both variants (no ordering gate here;
    ``build_complex`` is the gated entry point).

    With ``normalized`` the unit must be a basis vector (``_unit_first_spec``)
    and every matrix lives on the nondegenerate basis tensors: the kept
    indices of each degree up to ``max_degree`` are found once, face matrices
    skip degenerate source tensors, and ``differential`` maps rows and
    columns straight to kept positions."""

    def __init__(self, spec: ComplexSpec, classes: ActionClassReport,
                 action_map: dict[str, str], normalized: bool = False):
        self.spec = spec
        self.classes = classes
        self.action_map = action_map
        # level -> one bitmask of missed slots per degeneracy into the level
        self.missed: dict[int, tuple[int, ...]] = {}
        # degree -> (dimension, position of each plain index or None if dropped)
        self.kept: dict[int, tuple[int, list]] = {}
        if normalized:
            X, alg, dm = spec.X, spec.algebra, spec.module.dim
            for n in range(spec.max_degree + 1):
                self.missed[n] = _missed_slots(X, n)
                slots = len(X.level_nonbase(n))
                tensors = nondegenerate_tensors(alg, slots, self.missed[n])
                size, count = alg.dim ** slots, len(tensors)
                pos = [None] * (dm * size)
                for mu in range(dm):
                    for k, t in enumerate(tensors, mu * count):
                        pos[mu * size + t] = k
                self.kept[n] = (dm * count, pos)

    def face_matrix(self, level: int, i: int) -> Matrix:
        """Chain: the matrix C_level -> C_{level-1}; cochain: the coface
        C^{level-1} -> C^level induced by d_i : X_level -> X_{level-1}.
        Plain indices; when normalized, degenerate sources have no entries."""
        spec = self.spec
        phi, actions = face_pointed_map(spec.X, level, i, spec.assignment,
                                        self.classes, self.action_map)
        functor = loday_on_morphism if spec.variant == CHAIN else hom_functor_on_morphism
        return functor(spec.algebra, spec.module, phi, actions, self.missed.get(level, ()))

    def degeneracy_matrix(self, level: int, i: int) -> Matrix:
        """Chain: C_level -> C_{level+1}; cochain: C^{level+1} -> C^level."""
        spec = self.spec
        phi = degeneracy_pointed_map(spec.X, level, i)
        if spec.variant == CHAIN:
            return loday_on_morphism(spec.algebra, spec.module, phi, {})
        return hom_functor_on_morphism(spec.algebra, spec.module, phi, {})

    def degree_dim(self, n: int) -> int:
        if n in self.kept:
            return self.kept[n][0]
        return self.spec.module.dim * self.spec.algebra.dim ** len(
            self.spec.X.level_nonbase(n))

    def differential(self, n: int) -> Matrix:
        """Chain: delta_n = sum (-1)^i d_i from level n; cochain: delta^n from
        the faces of level n+1.  The signed entries of each face matrix are
        moved to their kept row and column (dropped if either is degenerate)
        and summed by one ``combine``, which builds each face matrix only
        after the previous one's entries are consumed."""
        f = self.spec.algebra.field
        chain = self.spec.variant == CHAIN
        level = n if chain else n + 1
        row_deg, col_deg = (n - 1, n) if chain else (n + 1, n)

        def signed_faces():
            for i in range(level + 1):
                items = self.face_matrix(level, i).entries.items()
                if self.kept:
                    items = _moved(items, self.kept[row_deg][1], self.kept[col_deg][1])
                yield (-1) ** i, items

        return Matrix._trusted(self.degree_dim(row_deg), self.degree_dim(col_deg), f,
                               combine(f, signed_faces()))


def _moved(items, rows, cols):
    """Matrix entries moved to the positions ``rows[r]``, ``cols[c]``; an
    entry whose row or column maps to None is dropped."""
    for (r, c), v in items:
        r, c = rows[r], cols[c]
        if r is not None and c is not None:
            yield (r, c), v


def _missed_slots(X: SimplicialSet, n: int) -> tuple[int, ...]:
    """For each degeneracy ``s_j : X_{n-1} -> X_n``, the bitmask of level-n
    slots (bit k for level index k) outside its image.  ``s_j`` is injective
    and puts the unit into each slot it misses, so its image is spanned by the
    basis tensors carrying the unit in all of those slots."""
    every = (1 << len(X.level(n))) - 2  # bits 1..slots
    masks = []
    for images in X.degeneracy_table(n - 1) if n else ():
        hit = 0
        for k in images:
            hit |= 1 << k
        masks.append(every & ~hit)
    return tuple(masks)


def _resolve(spec: ComplexSpec):
    """Validate the spec against the ordering theorem and the action typing;
    returns (classes, action_map) or raises ``OrderingRefusal``."""
    X, D = spec.X, spec.max_degree
    commutative = is_commutative(spec.algebra)
    if not commutative:
        if spec.assignment is None:
            _canonical_certificate(X, max(D, 2))  # refuses with a witness if none
            raise OrderingRefusal(
                "the algebra is noncommutative: an ordering certificate is required "
                "(the set admits one; classify_nncmo constructs it)")
        if spec.assignment.cutoff < D:
            raise OrderingRefusal(
                f"assignment cutoff {spec.assignment.cutoff} is below max_degree {D}")
        bad = check_nncmo(X, spec.assignment, D)
        if bad is not None:
            raise OrderingRefusal(
                "the supplied ordering assignment is not multiplicative; witness: "
                + "; ".join(bad.describe(X)), bad)
    classes, amap = _typed_actions(spec, max(D, 2), not commutative and D >= 2)
    problems = validate_assignment(spec.module, classes, amap, spec.variant)
    if problems:
        raise ComplexError("action assignment rejected: " + "; ".join(problems))
    if not commutative:
        _check_simultaneous_actions(spec, classes, amap)
    return classes, amap


def _canonical_certificate(X: SimplicialSet, cutoff: int) -> OrderingAssignment:
    """The canonical ordering certificate, or ``OrderingRefusal`` carrying the
    witness that the set has none."""
    result = classify_nncmo(X, cutoff)
    if not result.admits:
        raise OrderingRefusal(
            "no multiplicative ordering exists for this simplicial set, so the "
            "construction is undefined over a noncommutative algebra; witness: "
            + "; ".join(result.witness.describe(X)),
            result.witness)
    return result.assignment


def _typed_actions(spec: ComplexSpec, cutoff: int, checked: bool = False):
    """(classes, action map), typed against the certificate the products use:
    ``spec.assignment`` if it reaches ``cutoff`` and is multiplicative there
    (``checked``: the gate found so), else the canonical one."""
    cert = spec.assignment
    if cert is not None and (cert.cutoff < cutoff or not checked
                             and check_nncmo(spec.X, cert, cutoff) is not None):
        cert = None
    classes = classify_actions(spec.X, cutoff, assignment=cert)
    amap = spec.action_map
    if amap is None:
        amap = default_assignment(spec.module, classes, spec.variant)
    return classes, amap


def _check_simultaneous_actions(spec: ComplexSpec, classes, amap):
    """Factors acting through one face map multiply as operators, so their
    assigned actions must commute pairwise.  Distinct actions commute by the
    multimodule axioms; a repeated action only commutes with itself when its
    operators do, which fails for e.g. regular multiplication of a
    noncommutative algebra."""
    X, alg, module = spec.X, spec.algebra, spec.module
    f = alg.field
    self_commuting: dict[str, bool] = {}

    def ok(name: str) -> bool:
        if name not in self_commuting:
            ops = module.action(name).operators
            self_commuting[name] = all(
                ops[i] * ops[j] == ops[j] * ops[i]
                for i in range(alg.dim) for j in range(i + 1, alg.dim))
        return self_commuting[name]

    for level in range(1, spec.max_degree + 1):
        refs = X.level(level)
        for i, images in enumerate(X.face_table(level)):
            names = [amap[classes.class_of_site((level, refs[k], i)).class_id]
                     for k in range(1, len(refs)) if images[k] == 0]
            for k, a in enumerate(names):
                for b in names[k + 1:]:
                    if a == b and not ok(a):
                        raise ComplexError(
                            f"action {a!r} is assigned to two factors of the same "
                            f"face map (d_{i} at level {level}) but its operators "
                            "do not commute with each other; map the classes to "
                            "distinct commuting actions")


def make_spec(X: SimplicialSet, algebra: Algebra, module: Multimodule,
              variant: str, max_degree: int, normalized: bool = False) -> ComplexSpec:
    """Convenience constructor: derives the ordering certificate for
    noncommutative algebras (refusing with a witness when none exists) and a
    default action map."""
    assignment = None
    if not is_commutative(algebra):
        assignment = _canonical_certificate(X, max(max_degree, 2))
    return ComplexSpec(X, algebra, module, variant, max_degree,
                       assignment=assignment, normalized=normalized)


def build_complex(spec: ComplexSpec) -> Complex:
    """Assemble dims, differentials and Betti numbers for the spec.

    Noncommutative algebras refuse without a valid ordering certificate;
    any valid one, canonical or supplied, also types the classes.  With
    ``normalized=True`` the result is the normalized complex: the quotient by
    degeneracies (chain) or the cochains vanishing on degenerate tensors
    (cochain).  It is assembled on the nondegenerate basis tensors only (see
    ``_Assembler``), and ``_check_degenerate_closure`` verifies that the
    degenerate span is a subcomplex.  When the algebra's unit is not a basis
    vector the complex is built after a unit-first change of basis
    (``algebras.unit_first``), so its matrices are in that basis.  Betti
    numbers are unchanged by normalization.
    """
    classes, amap = _resolve(spec)
    if spec.normalized:
        spec = _unit_first_spec(spec)
    asm = _Assembler(spec, classes, amap, spec.normalized)
    D = spec.max_degree
    dims = [asm.degree_dim(n) for n in range(D + 1)]
    degrees = range(1, D + 1) if spec.variant == CHAIN else range(D)
    diffs = {n: asm.differential(n) for n in degrees}
    if spec.normalized:
        _check_degenerate_closure(spec, classes, amap)
    return Complex(spec.variant, spec.algebra.field, dims, diffs)


def _unit_first_spec(spec: ComplexSpec) -> ComplexSpec:
    """The spec over an isomorphic algebra whose unit is a basis vector."""
    alg, basis = unit_first(spec.algebra)
    if alg is spec.algebra:
        return spec
    return replace(spec, algebra=alg, module=rebased(spec.module, alg, basis))


def _check_degenerate_closure(spec: ComplexSpec, classes: ActionClassReport,
                              amap: dict[str, str]) -> None:
    """Raise ``ComplexError`` unless the degenerate tensors span a subcomplex,
    checked on face tables, certificate ranks and site classes.

    For every level n <= max_degree, j < n and i not in {j, j+1}, the
    simplicial identity ``d_i s_j = s_{j-1} d_i`` (i < j) or
    ``d_i s_j = s_j d_{i-1}`` (i > j+1) holds on simplices.  The functor on
    either side multiplies the factors of each x in X_{n-1} over the same
    target slot and routes the factor of each x whose face is the basepoint
    through an action.  The two sides agree as tensor maps when:

    * the fiber order of ``d_i`` at level n, restricted to the images
      ``s_j x``, is the order of the face on the right at level n-1 (only
      read when the algebra is noncommutative);
    * the site ``(n, s_j x, i)`` and the site of x on the right act through
      the same operators.

    Every other slot on the left is missed by ``s_j`` and carries the unit,
    which multiplies and acts trivially by the unit axioms that ``Algebra``
    and ``modules.validate`` enforce; by the same axioms ``d_j s_j`` and
    ``d_{j+1} s_j`` are the identity on tensors.  So each term of
    ``d s_j = sum (-1)^i d_i s_j`` either cancels or lands in the image of a
    degeneracy: the chain differential maps degenerate tensors to degenerate
    ones, and dually the cochain differential keeps the cochains vanishing on
    them.  The check is therefore sufficient for closure, and it accepts no
    input whose assembled differentials link a dropped tensor to a kept one.
    """
    X, module = spec.X, spec.module
    ordered = not is_commutative(spec.algebra)

    def action(level: int, k: int, i: int) -> str | None:
        cls = classes.class_of_site((level, X.level(level)[k], i))
        return None if cls is None else amap.get(cls.class_id)

    def same_operators(a: str | None, b: str | None) -> bool:
        return a == b or (a is not None and b is not None and
                          module.action(a).operators == module.action(b).operators)

    for n in range(2, spec.max_degree + 1):
        for j in range(n):
            degen = X.degeneracy_table(n - 1)[j]
            for i in range(n + 1):
                if i in (j, j + 1):
                    continue
                low = i if i < j else i - 1
                below = X.face_table(n - 1)[low]
                if not all(same_operators(action(n - 1, x, low), action(n, degen[x], i))
                           for x in range(1, len(below)) if below[x] == 0):
                    what = "basepoint actions"
                elif ordered and not _orders_agree(below, spec.assignment.ranks(n - 1, low),
                                                   spec.assignment.ranks(n, i), degen):
                    what = "fiber orders"
                else:
                    continue
                right = f"s_{j - 1} d_{i}" if i < j else f"s_{j} d_{i - 1}"
                raise ComplexError(
                    f"normalization: the degenerate span is not a subcomplex; at "
                    f"level {n}, d_{i} s_{j} and {right} differ in their {what}")


def _orders_agree(below, rank_low, rank, degen) -> bool:
    """Whether each fiber of the face table ``below``, sorted by ``rank_low``,
    is sorted by ``rank`` once mapped through the degeneracy images
    ``degen``."""
    fibers: dict[int, list[int]] = {}
    for x in sorted(range(1, len(below)), key=rank_low.__getitem__):
        if below[x]:
            fibers.setdefault(below[x], []).append(rank[degen[x]])
    return all(seen == sorted(seen) for seen in fibers.values())


def _betti_table(variant, dims, diffs) -> tuple[int, ...]:
    """Homology dimensions per degree: ``dims[n] - rank_n - rank_{n+1}`` for
    a chain complex, ``dims[n] - rank_n - rank_{n-1}`` for a cochain complex
    (rank 0 where no differential was built)."""
    ranks = {n: rank(m) for n, m in diffs.items()}
    step = 1 if variant == CHAIN else -1
    return tuple(dims[n] - ranks.get(n, 0) - ranks.get(n + step, 0)
                 for n in range(len(dims)))


def betti(complex_: Complex, n: int) -> int:
    if not (0 <= n < len(complex_.dims)):
        raise ComplexError(f"degree {n} outside the computed range")
    return complex_.betti[n]


# ---------------------------------------------------------------------------
# the classical complex (independent construction, no simplicial machinery)

def _find_tagged_action(module: Multimodule, tag: str) -> str:
    names = [n for n, a in sorted(module.actions.items()) if a.tag == tag]
    if len(names) != 1:
        raise ComplexError(
            f"classical complex needs exactly one action tagged {tag!r}; "
            f"module {module.name!r} has {names or 'none'}")
    return names[0]


def classical_complex(alg: Algebra, module: Multimodule, variant: str,
                      max_degree: int) -> Complex:
    """The textbook Hochschild (co)chain complex of a bimodule, built directly
    from the three-case face formula (no simplicial sets involved).

    Degree-n tensors are enumerated with the module factor most significant
    and then slots n, n-1, ..., 1, which matches the circle's level
    enumeration (the slot consumed by the top face comes first).
    """
    if variant not in (CHAIN, COCHAIN):
        raise ComplexError(f"unknown variant {variant!r}")
    left = module.action(_find_tagged_action(module, LEFT))
    right = module.action(_find_tagged_action(module, RIGHT))
    f = alg.field
    da, dm = alg.dim, module.dim

    def tensor_index(mu, slots):
        # slots[j-1] holds slot j; significance order (mu, slot n, ..., slot 1)
        idx = mu
        for j in range(len(slots), 0, -1):
            idx = idx * da + slots[j - 1]
        return idx

    def face_chain(n, i) -> Matrix:
        entries = {}
        for mu in range(dm):
            for slots in product(range(da), repeat=n):
                col = tensor_index(mu, slots)
                if i == 0:
                    op = right.operators[slots[0]]
                    mvec = [op.get(r, mu) for r in range(dm)]
                    rest_support = [[(slots[j - 1], f.one())] for j in range(2, n + 1)]
                elif i == n:
                    op = left.operators[slots[n - 1]]
                    mvec = [op.get(r, mu) for r in range(dm)]
                    rest_support = [[(slots[j - 1], f.one())] for j in range(1, n)]
                else:
                    mvec = [f.one() if r == mu else f.zero() for r in range(dm)]
                    prod = tuple(alg.table[slots[i - 1]][slots[i]])
                    rest_support = []
                    for j in range(1, n):
                        if j == i:
                            rest_support.append([(k, c) for k, c in enumerate(prod)
                                                 if c != f.zero()])
                        elif j < i:
                            rest_support.append([(slots[j - 1], f.one())])
                        else:
                            rest_support.append([(slots[j], f.one())])
                for mo in range(dm):
                    if mvec[mo] == f.zero():
                        continue
                    for combo in product(*rest_support) if rest_support else [()]:
                        coeff = mvec[mo]
                        out_slots = []
                        for k, c in combo:
                            coeff = f.mul(coeff, c)
                            out_slots.append(k)
                        if coeff == f.zero():
                            continue
                        row = tensor_index(mo, out_slots)
                        key = (row, col)
                        s = f.add(entries.get(key, f.zero()), coeff)
                        if s == f.zero():
                            entries.pop(key, None)
                        else:
                            entries[key] = s
        return Matrix(dm * da ** (n - 1), dm * da ** n, f, entries)

    def coface(n, i) -> Matrix:
        # C^n -> C^{n+1}: (d^i f)(a_1..a_{n+1})
        entries = {}
        for arg in product(range(da), repeat=n + 1):
            if i == 0:
                op = left.operators[arg[0]]
                inner = [(j, arg[j - 1]) for j in range(2, n + 2)]  # slots shift down
                inner_support = [[(t, f.one())] for (_, t) in inner]
            elif i == n + 1:
                op = right.operators[arg[n]]
                inner_support = [[(arg[j - 1], f.one())] for j in range(1, n + 1)]
            else:
                op = None
                prod = tuple(alg.table[arg[i - 1]][arg[i]])
                inner_support = []
                for j in range(1, n + 1):
                    if j == i:
                        inner_support.append([(k, c) for k, c in enumerate(prod)
                                              if c != f.zero()])
                    elif j < i:
                        inner_support.append([(arg[j - 1], f.one())])
                    else:
                        inner_support.append([(arg[j], f.one())])
            for mu in range(dm):
                if op is None:
                    opcol = [(mu, f.one())]
                else:
                    opcol = [(r, op.get(r, mu)) for r in range(dm)
                             if op.get(r, mu) != f.zero()]
                if not opcol:
                    continue
                for combo in product(*inner_support) if inner_support else [()]:
                    coeff = f.one()
                    in_slots = []
                    for k, c in combo:
                        coeff = f.mul(coeff, c)
                        in_slots.append(k)
                    if coeff == f.zero():
                        continue
                    col = tensor_index(mu, in_slots)
                    for mo, oc in opcol:
                        row = tensor_index(mo, list(arg))
                        key = (row, col)
                        s = f.add(entries.get(key, f.zero()), f.mul(coeff, oc))
                        if s == f.zero():
                            entries.pop(key, None)
                        else:
                            entries[key] = s
        return Matrix(dm * da ** (n + 1), dm * da ** n, f, entries)

    D = max_degree
    dims = [dm * da ** n for n in range(D + 1)]
    diffs: dict[int, Matrix] = {}
    if variant == CHAIN:
        for n in range(1, D + 1):
            acc = None
            for i in range(n + 1):
                m = face_chain(n, i)
                if i % 2:
                    m = m.scale(f.neg(f.one()))
                acc = m if acc is None else acc + m
            diffs[n] = acc
    else:
        for n in range(D):
            acc = None
            for i in range(n + 2):
                m = coface(n, i)
                if i % 2:
                    m = m.scale(f.neg(f.one()))
                acc = m if acc is None else acc + m
            diffs[n] = acc
    return Complex(variant, f, dims, diffs)


# ---------------------------------------------------------------------------
# (co)simplicial identity check on assembled matrices

def cosimplicial_check(spec: ComplexSpec, cutoff: int) -> list[str]:
    """Exhaustively verify the (co)simplicial identities on the assembled
    face and degeneracy matrices up to the cutoff; returns violations.

    Runs without the ordering gate on purpose: this is the diagnostic that
    shows *why* a bad assignment breaks the complex.  Classes are typed as in
    ``build_complex``; a non-multiplicative assignment, canonically.  A
    cutoff above the assignment's raises ``ComplexError``.
    """
    if spec.assignment is not None and spec.assignment.cutoff < cutoff:
        raise ComplexError(
            f"assignment cutoff {spec.assignment.cutoff} is below the check cutoff {cutoff}")
    asm = _Assembler(spec, *_typed_actions(spec, max(cutoff, 2)))
    chain = spec.variant == CHAIN
    F = functools.cache(asm.face_matrix)
    S = functools.cache(asm.degeneracy_matrix)
    problems = []
    for n in range(2, cutoff + 1):
        for j in range(1, n + 1):
            for i in range(j):
                lhs = _compose2(F(n - 1, i), F(n, j), chain)
                rhs = _compose2(F(n - 1, j - 1), F(n, i), chain)
                if lhs != rhs:
                    problems.append(f"d_{i} d_{j} != d_{j-1} d_{i} at level {n}")
    for n in range(0, cutoff - 1):
        for j in range(n + 1):
            for i in range(j + 1):
                a = _compose2(S(n + 1, i), S(n, j), chain)
                b = _compose2(S(n + 1, j + 1), S(n, i), chain)
                if a != b:
                    problems.append(f"s_{i} s_{j} != s_{j+1} s_{i} at level {n}")
    for n in range(1, cutoff):
        for j in range(n + 1):
            for i in range(n + 2):
                lhs = _compose2(F(n + 1, i), S(n, j), chain)
                if i < j:
                    rhs = _compose2(S(n - 1, j - 1), F(n, i), chain)
                elif i in (j, j + 1):
                    dim_n = asm.degree_dim(n)
                    rhs = Matrix.identity(dim_n, spec.algebra.field)
                else:
                    rhs = _compose2(S(n - 1, j), F(n, i - 1), chain)
                if lhs != rhs:
                    problems.append(f"d_{i} s_{j} identity fails at level {n}")
    return problems


def _compose2(second: Matrix, first: Matrix, chain: bool) -> Matrix:
    """Matrix of (second o first) in the given variance."""
    return second * first if chain else first * second


# ---------------------------------------------------------------------------
# pairs of simplicial sets

def is_subsimplicial(X: SimplicialSet, Y: SimplicialSet) -> bool:
    """X's nondegenerate simplices all appear in Y, same names, dims, faces,
    and the basepoints agree."""
    if X.simplices[X.basepoint].name != Y.simplices[Y.basepoint].name:
        return False
    for s in X.simplices:
        try:
            t = Y.simplices[Y.id_of(s.name)]
        except Exception:
            return False
        if t.dim != s.dim:
            return False
        for fx, fy in zip(s.faces, t.faces):
            if fx.word != fy.word:
                return False
            if X.simplices[fx.base].name != Y.simplices[fy.base].name:
                return False
    return True


def pair_constraints(X: SimplicialSet, Y: SimplicialSet) -> dict:
    """Which commutativity constraints a pair X inside Y places on a pair of
    algebras (B acting on the ambient set, A on the subset, via a map
    eps: B -> A)."""
    if not is_subsimplicial(X, Y):
        raise ComplexError(f"{X.name!r} is not a sub-simplicial-set of {Y.name!r}")
    if Y.dimension() <= 1:
        verdict = "both-noncommutative"
        detail = "the ambient set is one dimensional: both algebras may be noncommutative"
    elif X.dimension() <= 1:
        verdict = "A-noncommutative-epsilonB-central"
        detail = ("only the subset is one dimensional: the inner algebra may be "
                  "noncommutative, the ambient one must be commutative and its image "
                  "must land in the center of the inner algebra")
    else:
        verdict = "both-commutative"
        detail = "neither set is one dimensional: both algebras must be commutative"
    return {"pair": [X.name, Y.name],
            "dim_inner": X.dimension(), "dim_ambient": Y.dimension(),
            "verdict": verdict, "detail": detail}
