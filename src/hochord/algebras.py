"""Finite-dimensional unital associative algebras given by structure constants.

An algebra is a basis, a unit vector, and a dense 3-index table
``table[i][j][l]`` with ``e_i e_j = sum_l table[i][j][l] e_l``.  Next to it
each algebra derives once the sparse rows ``sparse[i][j]``, the nonzero
``(l, c)`` pairs of ``table[i][j]``; products, multiplication operators, the
exhaustive associativity and unitality checks at construction and the
unit-first change of basis read those pairs, never a zero constant.  The
ordered products of basis tuples that the tensor and hom functors need are
tabulated on the algebra itself (``Algebra.fiber_products``), once per length.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import permutations

from .exact import Field, Matrix, QQ, Scalar, combine, nullspace, rank


class AlgebraError(ValueError):
    pass


@dataclass(frozen=True)
class Algebra:
    name: str
    field: Field
    basis_names: tuple[str, ...]
    unit: tuple[Scalar, ...]
    table: tuple  # table[i][j] = tuple of coefficients over the basis
    # sparse[i][j] = the nonzero (l, c) pairs of table[i][j]
    sparse: tuple = dc_field(init=False, repr=False, compare=False)
    # the ordered fiber products by length, the unit's pairs first
    _products: tuple = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        d = self.dim
        if d < 1:
            raise AlgebraError("algebra must have dimension >= 1")
        if len(set(self.basis_names)) < d:
            twice = next(b for b in self.basis_names if self.basis_names.count(b) > 1)
            raise AlgebraError(f"basis name {twice!r} given more than once")
        if len(self.unit) != d:
            raise AlgebraError("unit/table shape mismatch")
        if len(self.table) != d or any(len(row) != d or any(len(cell) != d for cell in row)
                                       for row in self.table):
            raise AlgebraError("structure-constant table is not dim^3")
        f = self.field
        object.__setattr__(self, "sparse", tuple(
            tuple(tuple((l, c) for l, c in enumerate(map(f.of, cell)) if c) for cell in row)
            for row in self.table))
        object.__setattr__(self, "_products", (
            (tuple((k, u) for k, u in enumerate(map(f.of, self.unit)) if u),),))
        self._check_axioms()

    @property
    def dim(self) -> int:
        return len(self.basis_names)

    # -- construction-time validation ----------------------------------
    def _check_axioms(self):
        """Unitality on every basis element, then associativity on every
        basis triple, each side combined from sparse rows."""
        f = self.field
        d, sp = self.dim, self.sparse
        unit, = self._products[0]
        for i in range(d):
            if (combine(f, ((u, sp[k][i]) for k, u in unit)) != {i: 1}
                    or combine(f, ((u, sp[i][k]) for k, u in unit)) != {i: 1}):
                raise AlgebraError(f"unit axiom fails on basis element {self.basis_names[i]}")
        for i in range(d):
            for j in range(d):
                for l in range(d):
                    if (combine(f, ((c, sp[k][l]) for k, c in sp[i][j]))
                            != combine(f, ((c, sp[i][k]) for k, c in sp[j][l]))):
                        raise AlgebraError(
                            "associativity fails on triple "
                            f"({self.basis_names[i]}, {self.basis_names[j]}, {self.basis_names[l]})")

    # -- helpers --------------------------------------------------------
    def basis_vector(self, i: int) -> tuple[Scalar, ...]:
        f = self.field
        return tuple(f.one() if j == i else f.zero() for j in range(self.dim))

    def zero_vector(self) -> tuple[Scalar, ...]:
        return tuple(self.field.zero() for _ in range(self.dim))

    def basis_index(self, name: str) -> int:
        try:
            return self.basis_names.index(name)
        except ValueError:
            raise AlgebraError(f"unknown basis element {name!r}") from None

    def left_mult_matrix(self, vec) -> Matrix:
        """Matrix of x -> vec * x in the basis."""
        return self._mult_matrix(vec, lambda i, j: self.sparse[i][j])

    def right_mult_matrix(self, vec) -> Matrix:
        """Matrix of x -> x * vec in the basis."""
        return self._mult_matrix(vec, lambda i, j: self.sparse[j][i])

    def _mult_matrix(self, vec, row) -> Matrix:
        """Column j is ``sum_i vec_i row(i, j)``."""
        f, d = self.field, self.dim
        vec, = _coerced(self, vec)
        table: dict = {}
        for j in range(d):
            for l, v in combine(f, ((x, row(i, j)) for i, x in enumerate(vec) if x)).items():
                table.setdefault(l, {})[j] = v
        return Matrix._trusted(d, d, f, table)

    def fiber_products(self, lengths) -> dict[int, tuple]:
        """By fiber length, the nonzero ``(k, v)`` pairs, ascending in k, of
        the ordered product of every coordinate tuple, the first coordinate
        most significant.  Length 0 is the unit; length n + 1 puts each basis
        element left of each length-n product, summed from ``sparse``.  Every
        length is kept on the algebra (``_products``), never recomputed."""
        known, f, sp = self._products, self.field, self.sparse
        while len(known) <= max(lengths, default=0):
            known += (tuple(tuple(sorted(combine(f, ((v, sp[e][k]) for k, v in prev)).items()))
                            for prev in known[-1] for e in range(self.dim)),)
        object.__setattr__(self, "_products", known)
        return {length: known[length] for length in lengths}

    def describe(self) -> str:
        return f"{self.name} (dim {self.dim} over {self.field.describe()})"


def _coerced(alg: Algebra, *vectors) -> list[list[Scalar]]:
    if any(len(x) != alg.dim for x in vectors):
        raise AlgebraError(f"vector length mismatch: expected {alg.dim}")
    return [[alg.field.of(v) for v in x] for x in vectors]


def multiply(alg: Algebra, x, y) -> tuple[Scalar, ...]:
    """Bilinear extension of the structure constants."""
    f = alg.field
    x, y = _coerced(alg, x, y)
    sp = alg.sparse
    out = combine(f, ((f.mul(xi, yj), sp[i][j]) for i, xi in enumerate(x) if xi
                       for j, yj in enumerate(y) if yj))
    return tuple(out.get(l, f.zero()) for l in range(alg.dim))


def is_commutative(alg: Algebra) -> bool:
    d = alg.dim
    for i in range(d):
        for j in range(i + 1, d):
            if alg.table[i][j] != alg.table[j][i]:
                return False
    return True


def _commutator(alg: Algebra, i: int, j: int) -> dict[int, Scalar]:
    """The nonzero coordinates of e_i e_j - e_j e_i."""
    return combine(alg.field, ((1, alg.sparse[i][j]), (-1, alg.sparse[j][i])))


def center(alg: Algebra) -> list[tuple[Scalar, ...]]:
    """Basis of {z : z a = a z for all a}, via the nullspace of the
    stacked commutator system over the algebra basis: row ``a * d + r``,
    column j holds the coefficient of e_r in e_j e_a - e_a e_j."""
    d = alg.dim
    system = Matrix(d * d, d, alg.field, {
        (a * d + r, j): v for a in range(d) for j in range(d)
        for r, v in _commutator(alg, j, a).items()})
    return [tuple(v) for v in nullspace(system)]


def unit_first(alg: Algebra) -> tuple[Algebra, tuple[tuple[Scalar, ...], ...]]:
    """An isomorphic copy of ``alg`` whose unit is a basis vector.

    The first basis vector with a nonzero unit coefficient is replaced by the
    unit itself (so upper-triangular and matrix algebras get e11 + e22 + ...
    in place of e11), and the table is re-expressed in the new basis.  Returns
    the copy and its basis written in the coordinates of ``alg``; an algebra
    whose unit already is a basis vector comes back unchanged, with the
    standard basis.
    """
    f = alg.field
    d = alg.dim
    e = tuple(alg.basis_vector(i) for i in range(d))
    p = next(i for i, c in enumerate(alg.unit) if c != f.zero())
    if alg.unit == e[p]:
        return alg, e

    def coords(pairs):
        # x = sum_{i != p} y_i e_i + y_p * unit, solved for y
        x = dict(pairs)
        yp = f.div(x.get(p, 0), alg.unit[p])
        return tuple(yp if i == p else f.sub(x.get(i, 0), f.mul(yp, alg.unit[i]))
                     for i in range(d))

    # the unit times new basis vector j, on either side, is new basis vector j
    table = tuple(tuple(e[j] if i == p else e[i] if j == p else coords(alg.sparse[i][j])
                        for j in range(d)) for i in range(d))
    names = list(alg.basis_names)
    names[p] = "+".join(n if c == f.one() else f"{c}*{n}"
                        for c, n in zip(alg.unit, alg.basis_names) if c != f.zero())
    return Algebra(alg.name, f, tuple(names), e[p], table), e[:p] + (alg.unit,) + e[p + 1:]


def commutator_span_dim(alg: Algebra) -> int:
    """Dimension of span{ab - ba}; computed by brute force over basis pairs."""
    d = alg.dim
    return rank(Matrix._trusted(d * d, d, alg.field, {
        i * d + j: row for i in range(d) for j in range(d) if (row := _commutator(alg, i, j))}))


# ---------------------------------------------------------------------------
# builders

# The most structure constants (dim^3) a builder tabulates: group C73, the
# largest accepted, builds in 0.6-0.9 s on 2 CPUs with Python 3.11.7.
MAX_TABLE_SIZE = 400_000


def _require_table_size(name: str, dim: int) -> None:
    """Refuse a builder whose table would exceed ``MAX_TABLE_SIZE``, before
    it tabulates anything."""
    if dim ** 3 > MAX_TABLE_SIZE:
        raise AlgebraError(f"{name} has dimension {dim}: its structure table would hold "
                           f"{dim ** 3:,} constants (dim^3), over the budget of "
                           f"{MAX_TABLE_SIZE:,}")


def _build(name, field, basis_names, unit_coeffs, prod) -> Algebra:
    """The algebra whose product ``e_i e_j`` is the basis element of index
    ``prod(i, j)``, or zero where that is None."""
    d = len(basis_names)
    zero, one = field.of(0), field.of(1)
    one_hot = [tuple(one if l == k else zero for l in range(d)) for k in range(d)]
    table = tuple(tuple((zero,) * d if (k := prod(i, j)) is None else one_hot[k]
                        for j in range(d)) for i in range(d))
    unit = tuple(field.of(c) for c in unit_coeffs)
    return Algebra(name, field, tuple(basis_names), unit, table)


def trunc_poly(n: int, field: Field = QQ) -> Algebra:
    """k[x]/(x^n) with basis 1, x, ..., x^(n-1)."""
    if n < 1:
        raise AlgebraError("trunc_poly needs n >= 1")
    _require_table_size(f"trunc-poly {n}", n)
    names = ["1"] + [f"x^{k}" if k > 1 else "x" for k in range(1, n)]
    return _build(f"trunc-poly {n}", field, names, [1] + [0] * (n - 1),
                  lambda i, j: i + j if i + j < n else None)


def upper_tri(n: int, field: Field = QQ) -> Algebra:
    """Upper-triangular n x n matrices; basis e_ij for i <= j."""
    if n < 1:
        raise AlgebraError("upper_tri needs n >= 1")
    _require_table_size(f"upper-tri {n}", n * (n + 1) // 2)
    return _matrix_units(f"upper-tri {n}", field, [(i, j) for i in range(1, n + 1)
                                                   for j in range(i, n + 1)])


def matrix_algebra(n: int, field: Field = QQ) -> Algebra:
    """Full matrix algebra M_n; basis e_ij."""
    if n < 1:
        raise AlgebraError("matrix_algebra needs n >= 1")
    _require_table_size(f"matrix {n}", n * n)
    return _matrix_units(f"matrix {n}", field, [(i, j) for i in range(1, n + 1)
                                                for j in range(1, n + 1)])


def _matrix_units(name: str, field: Field, pairs) -> Algebra:
    """The span of the matrix units e_ij, (i, j) in ``pairs``, closed under
    e_ij e_kl = [j = k] e_il and holding every e_ii."""
    idx = {p: k for k, p in enumerate(pairs)}

    def prod(a, b):
        (i, j), (k, l) = pairs[a], pairs[b]
        return idx[i, l] if j == k else None

    unit = [1 if i == j else 0 for (i, j) in pairs]
    return _build(name, field, [f"e{i}{j}" for (i, j) in pairs], unit, prod)


def cyclic_group_algebra(n: int, field: Field = QQ) -> Algebra:
    """Group algebra k[C_n]; basis g^0 .. g^(n-1)."""
    if n < 1:
        raise AlgebraError("cyclic_group_algebra needs n >= 1")
    _require_table_size(f"group C{n}", n)
    names = [f"g^{k}" if k > 1 else ("g" if k == 1 else "1") for k in range(n)]
    return _build(f"group C{n}", field, names, [1] + [0] * (n - 1), lambda i, j: (i + j) % n)


def symmetric_group_algebra_s3(field: Field = QQ) -> Algebra:
    """Group algebra k[S_3]; basis indexed by the six permutations of (1,2,3)."""
    perms = sorted(permutations((1, 2, 3)))
    idx = {p: k for k, p in enumerate(perms)}
    names = ["".join(map(str, p)) for p in perms]
    unit = [0] * 6
    unit[idx[(1, 2, 3)]] = 1
    # (p*q)(i) = p(q(i)), permutations as images of (1,2,3)
    return _build("group S3", field, names, unit,
                  lambda i, j: idx[tuple(perms[i][q - 1] for q in perms[j])])


def custom_algebra(name: str, field: Field, basis_names, unit, table) -> Algebra:
    """Validated algebra from an explicit table; rejects bad data with the
    offending unit, product or triple named in the error."""
    names = tuple(basis_names)
    label = dict(enumerate(names))

    def of(values, what: str) -> tuple:
        try:
            return tuple(field.of(c) for c in values)
        except ZeroDivisionError as e:
            raise AlgebraError(f"{what}: {e}") from None

    unit = of(unit, "unit")
    tbl = tuple(tuple(of(cell, f"product {label.get(i, i)}*{label.get(j, j)}")
                      for j, cell in enumerate(row)) for i, row in enumerate(table))
    return Algebra(name, field, names, unit, tbl)
