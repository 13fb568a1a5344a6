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
certificate ranks and the action table (``_check_degenerate_closure``), since
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
from .exact import (Field, Matrix, combine, nullspace, product_row, rank,  # noqa: F401
                     solve)
from .functors import (PointedMap, _Degeneracies, _write_functor, hom_functor_on_morphism,
                       loday_on_morphism, nondegenerate_tensors, pointed_map)
from .modules import (LEFT, RIGHT, Multimodule, default_assignment, rebased,
                      validate_assignment)
from .ordering import (ActionClassReport, OrderingAssignment, Witness, check_nncmo,
                       classify_actions, classify_nncmo, require_own_set)
from .simplicial import SimplicialError, SimplicialSet

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
    from ranks on first access (rank is the expensive part).

    ``betti`` ranks the differentials in one pass, ascending in degree, with
    clearing (see ``_betti_table``): the chain side ranks d_1 first, the
    cochain side the transposes of δ^0, δ^1, ..., and each matrix drops the
    rows named as pivot columns by the one before.  Its numbers assume
    d d = 0, which ``verify_square_zero`` checks and the CLI runs before
    printing any Betti number; on matrices that are not a complex they need
    not equal the dims minus each differential's own rank."""

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
        """Whether every composite of adjacent differentials vanishes.  Each
        product is formed one row at a time, and the check stops at the
        first nonzero row."""
        for n in sorted(self.differentials):
            if n + 1 in self.differentials:
                a, b = self.differentials[n], self.differentials[n + 1]
                first, then = (a, b) if self.variant == CHAIN else (b, a)
                if any(product_row(self.field, row, then.table)
                       for row in first.table.values()):
                    return False
        return True


# ---------------------------------------------------------------------------
# level maps as pointed maps

def face_pointed_map(X: SimplicialSet, level: int, i: int,
                     assignment: OrderingAssignment | None, actions):
    """The face map d_i : X_level -> X_{level-1} as a pointed map between the
    level enumerations, with fiber orders from the assignment (level order
    when no assignment is needed) and the basepoint-fiber actions read from
    the action table ``actions[level][i]`` (see ``_action_table``)."""
    # pointed-map index j is level index j: the basepoint is 0 on both sides
    images = X.face_table(level)[i]
    rank = None if assignment is None else assignment.ranks(level, i).__getitem__
    # face_fibers lists each fiber in level order, so only a certificate sorts
    orders = {t: members if rank is None else tuple(sorted(members, key=rank))
              for t, members in X.face_fibers(level)[i]}
    phi = PointedMap._trusted(len(images) - 1, len(X.level(level - 1)) - 1, images, orders)
    return phi, {j: actions[level][i][j] for j in phi.basepoint_fiber()}


def degeneracy_pointed_map(X: SimplicialSet, level: int, i: int) -> PointedMap:
    """s_i : X_level -> X_{level+1}; injective, so fibers are singletons."""
    images = X.degeneracy_table(level)[i]
    return pointed_map(len(images) - 1, len(X.level(level + 1)) - 1, images)


class _Assembler:
    """Shared matrix assembly for both variants (no ordering gate here;
    ``build_complex`` is the gated entry point).

    What does not depend on the face is built once per assembler (one
    build): the basepoint operator composites, memoized in ``composites``,
    and with ``normalized`` each level's ``_Degeneracies``, shared by its
    kept indices and the passes over its faces.  Fiber products stay on the
    algebra, one table per length a face asks for: tabulating all lengths up
    front costs a build more than it saves.

    ``differential`` hands the functor kernel's write loop its row table,
    each face's sign and, with ``normalized``, the kept-position maps of
    ``kept``: every signed face term is written once, at its row and column
    of the differential.  ``face_matrix`` builds one face on its own, for
    the identity checks.

    With ``normalized`` the unit must be a basis vector (``_unit_first_spec``)
    and every matrix lives on the nondegenerate basis tensors: the kept
    indices of each degree up to ``max_degree`` are found once, the kernel
    skips degenerate source tensors, and ``differential`` maps rows and
    columns straight to kept positions."""

    def __init__(self, spec: ComplexSpec, actions: dict, normalized: bool = False):
        self.spec = spec
        self.actions = actions
        # (action name, coordinate) sequence -> basepoint operator composite
        self.composites: dict[tuple, Matrix] = {}
        # level -> the degeneracy bookkeeping of its slots (normalized only)
        self.degeneracies: dict[int, _Degeneracies] = {}
        # degree -> (dimension, position of each plain index or None if dropped)
        self.kept: dict[int, tuple[int, list]] = {}
        if normalized:
            X, alg, dm = spec.X, spec.algebra, spec.module.dim
            for n in range(spec.max_degree + 1):
                slots = len(X.level_nonbase(n))
                deg = self.degeneracies[n] = _Degeneracies(alg, _missed_slots(X, n), slots)
                tensors = nondegenerate_tensors(alg, deg)
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
        phi, actions = face_pointed_map(spec.X, level, i, spec.assignment, self.actions)
        functor = loday_on_morphism if spec.variant == CHAIN else hom_functor_on_morphism
        return functor(spec.algebra, spec.module, phi, actions,
                       self.degeneracies.get(level, ()), self.composites)

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
        the faces of level n+1.  The functor kernel writes each face's terms
        with its sign straight into the differential's row table, at their
        kept row and column (a term is dropped where either is degenerate),
        so no face matrix is built."""
        spec = self.spec
        chain = spec.variant == CHAIN
        level = n if chain else n + 1
        row_deg, col_deg = (n - 1, n) if chain else (n + 1, n)
        rows_at, cols_at = ((self.kept[row_deg][1], self.kept[col_deg][1]) if self.kept
                            else (None, None))
        table: dict = {}
        for i in range(level + 1):
            phi, actions = face_pointed_map(spec.X, level, i, spec.assignment, self.actions)
            _write_functor(table, (-1) ** i, rows_at, cols_at, spec.algebra, spec.module,
                           phi, actions, not chain, self.degeneracies.get(level, ()),
                           self.composites)
        return Matrix._trusted(self.degree_dim(row_deg), self.degree_dim(col_deg),
                               spec.algebra.field, table)


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


def _resolve(spec: ComplexSpec) -> dict:
    """Validate the spec against the ordering theorem and the action typing;
    returns the action table (``_action_table``) or raises
    ``OrderingRefusal``."""
    X, D, cert = spec.X, spec.max_degree, spec.assignment
    commutative = is_commutative(spec.algebra)
    if cert is None and not commutative:
        _canonical_certificate(X, max(D, 2))  # refuses with a witness if none
        raise OrderingRefusal(
            "the algebra is noncommutative: an ordering certificate is required "
            "(the set admits one; classify_nncmo constructs it)")
    if cert is not None:  # the face maps read a supplied one whatever the algebra
        if cert.cutoff < D:
            raise OrderingRefusal(f"assignment cutoff {cert.cutoff} is below max_degree {D}")
        require_own_set(X, cert)
        bad = None if commutative else check_nncmo(X, cert, D)
        if bad is not None:
            raise OrderingRefusal(
                "the supplied ordering assignment is not multiplicative; witness: "
                + "; ".join(bad.describe(X)), bad)
    classes, amap = _typed_actions(spec, max(D, 2), not commutative and D >= 2)
    problems = validate_assignment(spec.module, classes, amap, spec.variant)
    if problems:
        raise ComplexError("action assignment rejected: " + "; ".join(problems))
    actions = _action_table(classes, amap)
    if not commutative:
        _check_simultaneous_actions(spec, actions)
    return actions


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


def _action_table(classes: ActionClassReport, amap: dict[str, str]) -> dict:
    """``actions[n][i][k]``: the action that the site ``(n, level(n)[k], i)``
    routes its factor through, or None where d_i keeps the simplex off the
    basepoint; one entry per site of ``classes.site_class``."""
    names = [amap.get(c.class_id) for c in classes.classes]
    return {n: [[None if g is None else names[g] for g in row] for row in rows]
            for n, rows in classes.site_class.items()}


def _check_simultaneous_actions(spec: ComplexSpec, actions: dict):
    """Factors acting through one face map multiply as operators, so their
    assigned actions must commute pairwise.  Distinct actions commute by the
    multimodule axioms; a repeated action only commutes with itself when its
    operators do, which fails for e.g. regular multiplication of a
    noncommutative algebra."""
    alg, module = spec.algebra, spec.module
    self_commuting: dict[str, bool] = {}

    def ok(name: str) -> bool:
        if name not in self_commuting:
            ops = module.action(name).operators
            self_commuting[name] = all(
                ops[i] * ops[j] == ops[j] * ops[i]
                for i in range(alg.dim) for j in range(i + 1, alg.dim))
        return self_commuting[name]

    for level in range(1, spec.max_degree + 1):
        for i, row in enumerate(actions[level]):
            names = [a for a in row if a is not None]
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
    actions = _resolve(spec)
    if spec.normalized:
        spec = _unit_first_spec(spec)
    asm = _Assembler(spec, actions, spec.normalized)
    D = spec.max_degree
    dims = [asm.degree_dim(n) for n in range(D + 1)]
    degrees = range(1, D + 1) if spec.variant == CHAIN else range(D)
    diffs = {n: asm.differential(n) for n in degrees}
    if spec.normalized:
        _check_degenerate_closure(spec, actions)
    return Complex(spec.variant, spec.algebra.field, dims, diffs)


def _unit_first_spec(spec: ComplexSpec) -> ComplexSpec:
    """The spec over an isomorphic algebra whose unit is a basis vector."""
    alg, basis = unit_first(spec.algebra)
    if alg is spec.algebra:
        return spec
    return replace(spec, algebra=alg, module=rebased(spec.module, alg, basis))


def _check_degenerate_closure(spec: ComplexSpec, actions: dict) -> None:
    """Raise ``ComplexError`` unless the degenerate tensors span a subcomplex,
    checked on face tables, certificate ranks and the action table.

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
                if not all(same_operators(actions[n - 1][low][x], actions[n][i][degen[x]])
                           for x in range(1, len(below)) if below[x] == 0):
                    what = "basepoint actions"
                elif ordered and not _orders_agree(X.face_fibers(n - 1)[low],
                                                   spec.assignment.ranks(n - 1, low),
                                                   spec.assignment.ranks(n, i), degen):
                    what = "fiber orders"
                else:
                    continue
                right = f"s_{j - 1} d_{i}" if i < j else f"s_{j} d_{i - 1}"
                raise ComplexError(
                    f"normalization: the degenerate span is not a subcomplex; at "
                    f"level {n}, d_{i} s_{j} and {right} differ in their {what}")


def _orders_agree(fibs, rank_low, rank, degen) -> bool:
    """Whether each of the face fibers ``fibs``, sorted by ``rank_low``, is
    sorted by ``rank`` once mapped through the degeneracy images ``degen``."""
    def seen(members):
        return [rank[degen[x]] for x in sorted(members, key=rank_low.__getitem__)]

    return all(s == sorted(s) for s in (seen(members) for _, members in fibs))


def _betti_table(variant, dims, diffs) -> tuple[int, ...]:
    """Homology dimensions per degree: ``dims[n] - rank_n - rank_{n+1}`` for
    a chain complex, ``dims[n] - rank_n - rank_{n-1}`` for a cochain complex
    (rank 0 where no differential was built).

    The ranks come from one pass in ascending degree, over chain-oriented
    matrices: d_n as built, or the transpose of δ^n, since the transposes
    compose to zero in the chain direction.  Each matrix is ranked after the
    one below it, without the rows the echelon below names as pivot columns
    (clearing).  Its columns lie in the kernel of the matrix below, and a
    kernel vector is zero once its non-pivot coordinates are, so dropping
    those rows keeps the rank.  That needs d d = 0, which this does not
    check (``Complex.verify_square_zero`` does)."""
    chain = variant == CHAIN
    ranks: dict[int, int] = {}
    pivots: list[int] = []
    for n in sorted(diffs):
        dropped = pivots if n - 1 in ranks else []
        pivots = []
        ranks[n] = rank(_chain_oriented(diffs[n], chain, dropped), pivots)
    step = 1 if chain else -1
    return tuple(dims[n] - ranks.get(n, 0) - ranks.get(n + step, 0)
                 for n in range(len(dims)))


def _chain_oriented(m: Matrix, chain: bool, dropped: list[int]) -> Matrix:
    """``m`` (chain) or its transpose (cochain) without the rows ``dropped``,
    the other rows renumbered in order; the rows kept are the row dicts of
    ``m`` or of its one transpose, not copies."""
    if not chain:
        m = m.transpose()
    if not dropped:
        return m
    gone = set(dropped)
    pos: list = [None] * m.rows
    for k, r in enumerate(r for r in range(m.rows) if r not in gone):
        pos[r] = k
    return Matrix._trusted(m.rows - len(dropped), m.cols, m.field,
                           {pos[r]: row for r, row in m.table.items() if pos[r] is not None})


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
    from one face rule (no simplicial sets involved).

    Face i of a k-slot tensor (a_1, ..., a_k) acts on the module factor
    through the operator of a_1 (i = 0) or of a_k (i = k), and otherwise
    multiplies a_i a_{i+1}, read from ``alg.table``.  The chain face maps the
    k slots to the k - 1 it leaves, with the right action at i = 0 and the
    left at i = k; the cochain coface maps k - 1 slots to k, with the left
    action at i = 0 and the right at i = k.  Each differential is the
    alternating sum of its k + 1 faces.

    Degree-n tensors are enumerated with the module factor most significant
    and then slots n, n-1, ..., 1, which matches the circle's level
    enumeration (the slot consumed by the top face comes first).
    """
    if variant not in (CHAIN, COCHAIN):
        raise ComplexError(f"unknown variant {variant!r}")
    left = [op.table for op in module.action(_find_tagged_action(module, LEFT)).operators]
    right = [op.table for op in module.action(_find_tagged_action(module, RIGHT)).operators]
    chain = variant == CHAIN
    first, last = (right, left) if chain else (left, right)
    f = alg.field
    da, dm = alg.dim, module.dim
    identity = {m: {m: f.one()} for m in range(dm)}

    def index(mu, slots):
        # slots[j-1] holds slot j; significance order (mu, slot n, ..., slot 1)
        for s in reversed(slots):
            mu = mu * da + s
        return mu

    def face(k, i):
        """The ((row, col), value) terms of face i on k-slot tensors."""
        for slots in product(range(da), repeat=k):
            if i == 0:
                op, outs = first[slots[0]], [(slots[1:], 1)]
            elif i == k:
                op, outs = last[slots[-1]], [(slots[:-1], 1)]
            else:
                op = identity
                outs = [(slots[:i - 1] + (l,) + slots[i + 1:], c)
                        for l, c in enumerate(alg.table[slots[i - 1]][slots[i]]) if c]
            for out, c in outs:
                for r, row in op.items():
                    for m, v in row.items():
                        yield ((index(r, out), index(m, slots)) if chain
                               else (index(r, slots), index(m, out))), v * c

    dims = [dm * da ** n for n in range(max_degree + 1)]
    diffs: dict[int, Matrix] = {}
    for n in range(1, max_degree + 1) if chain else range(max_degree):
        k = n if chain else n + 1
        shape = (dims[k - 1], dims[k]) if chain else (dims[k], dims[k - 1])
        diffs[n] = Matrix(*shape, f, combine(
            f, (((-1) ** i, face(k, i)) for i in range(k + 1))))
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
    asm = _Assembler(spec, _action_table(*_typed_actions(spec, max(cutoff, 2))))
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
        except SimplicialError:
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
