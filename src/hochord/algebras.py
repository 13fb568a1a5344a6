"""Finite-dimensional unital associative algebras given by structure constants.

An algebra is a basis, a unit vector, and a dense 3-index table
``table[i][j][l]`` with ``e_i e_j = sum_l table[i][j][l] e_l``.  Associativity
and unitality are checked exhaustively at construction; dimensions stay small
(at most ~9 for the bundled algebras) so the dense table is the simple choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from .exact import Field, Matrix, QQ, Scalar, nullspace, rank


class AlgebraError(ValueError):
    pass


@dataclass(frozen=True)
class Algebra:
    name: str
    field: Field
    basis_names: tuple[str, ...]
    unit: tuple[Scalar, ...]
    table: tuple  # table[i][j] = tuple of coefficients over the basis

    def __post_init__(self):
        d = self.dim
        if d < 1:
            raise AlgebraError("algebra must have dimension >= 1")
        if len(self.unit) != d or len(self.table) != d:
            raise AlgebraError("unit/table shape mismatch")
        for row in self.table:
            if len(row) != d or any(len(cell) != d for cell in row):
                raise AlgebraError("structure-constant table is not dim^3")
        self._check_axioms()

    @property
    def dim(self) -> int:
        return len(self.basis_names)

    # -- construction-time validation ----------------------------------
    def _check_axioms(self):
        f = self.field
        d = self.dim
        for i in range(d):
            ei = self.basis_vector(i)
            if multiply(self, self.unit, ei) != ei or multiply(self, ei, self.unit) != ei:
                raise AlgebraError(f"unit axiom fails on basis element {self.basis_names[i]}")
        for i in range(d):
            for j in range(d):
                ij = tuple(self.table[i][j])
                for l in range(d):
                    left = multiply(self, ij, self.basis_vector(l))
                    right = multiply(self, self.basis_vector(i), tuple(self.table[j][l]))
                    if left != right:
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
        f = self.field
        entries = {}
        for j in range(self.dim):
            col = multiply(self, vec, self.basis_vector(j))
            for r, v in enumerate(col):
                if v != f.zero():
                    entries[(r, j)] = v
        return Matrix(self.dim, self.dim, f, entries)

    def right_mult_matrix(self, vec) -> Matrix:
        """Matrix of x -> x * vec in the basis."""
        f = self.field
        entries = {}
        for j in range(self.dim):
            col = multiply(self, self.basis_vector(j), vec)
            for r, v in enumerate(col):
                if v != f.zero():
                    entries[(r, j)] = v
        return Matrix(self.dim, self.dim, f, entries)

    def describe(self) -> str:
        return f"{self.name} (dim {self.dim} over {self.field.describe()})"


def multiply(alg: Algebra, x, y) -> tuple[Scalar, ...]:
    """Bilinear extension of the structure-constant table."""
    f = alg.field
    d = alg.dim
    if len(x) != d or len(y) != d:
        raise AlgebraError(f"vector length mismatch: expected {d}")
    x, y = [f.of(v) for v in x], [f.of(v) for v in y]
    out = [f.zero()] * d
    for i, xi in enumerate(x):
        if not xi:
            continue
        for j, yj in enumerate(y):
            if not yj:
                continue
            coef = f.mul(xi, yj)
            for l, c in enumerate(alg.table[i][j]):
                if c:
                    out[l] = f.add(out[l], f.mul(coef, c))
    return tuple(out)


def is_commutative(alg: Algebra) -> bool:
    d = alg.dim
    for i in range(d):
        for j in range(i + 1, d):
            if alg.table[i][j] != alg.table[j][i]:
                return False
    return True


def center(alg: Algebra) -> list[tuple[Scalar, ...]]:
    """Basis of {z : z a = a z for all a}, via the nullspace of the
    stacked commutator system over the algebra basis."""
    f = alg.field
    d = alg.dim
    entries = {}
    for a in range(d):
        la = alg.left_mult_matrix(alg.basis_vector(a))
        ra = alg.right_mult_matrix(alg.basis_vector(a))
        diff = ra - la  # row r, col j: coeff of e_r in e_j*e_a - e_a*e_j
        for (r, c), v in diff.entries.items():
            entries[(a * d + r, c)] = v
    system = Matrix(d * d, d, f, entries)
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
    basis = [alg.basis_vector(i) for i in range(d)]
    p = next(i for i, c in enumerate(alg.unit) if c != f.zero())
    if alg.unit == basis[p]:
        return alg, tuple(basis)
    basis[p] = alg.unit

    def coords(x):
        # x = sum_{i != p} y_i e_i + y_p * unit, solved for y
        yp = f.div(x[p], alg.unit[p])
        return tuple(yp if i == p else f.sub(x[i], f.mul(yp, alg.unit[i]))
                     for i in range(d))

    table = tuple(tuple(coords(multiply(alg, bi, bj)) for bj in basis) for bi in basis)
    names = list(alg.basis_names)
    names[p] = "+".join(n if c == f.one() else f"{c}*{n}"
                        for c, n in zip(alg.unit, alg.basis_names) if c != f.zero())
    return Algebra(alg.name, f, tuple(names), alg.basis_vector(p), table), tuple(basis)


def commutator_span_dim(alg: Algebra) -> int:
    """Dimension of span{ab - ba}; computed by brute force over basis pairs."""
    f = alg.field
    vecs = []
    d = alg.dim
    for i in range(d):
        for j in range(d):
            ij = multiply(alg, alg.basis_vector(i), alg.basis_vector(j))
            ji = multiply(alg, alg.basis_vector(j), alg.basis_vector(i))
            vecs.append([f.sub(a, b) for a, b in zip(ij, ji)])
    m = Matrix(len(vecs), d, f,
               {(r, c): v for r, row in enumerate(vecs) for c, v in enumerate(row)})
    return rank(m)


# ---------------------------------------------------------------------------
# builders

def _build(name, field, basis_names, unit_coeffs, prod) -> Algebra:
    d = len(basis_names)
    table = tuple(tuple(tuple(field.of(c) for c in prod(i, j)) for j in range(d))
                  for i in range(d))
    unit = tuple(field.of(c) for c in unit_coeffs)
    return Algebra(name, field, tuple(basis_names), unit, table)


def trunc_poly(n: int, field: Field = QQ) -> Algebra:
    """k[x]/(x^n) with basis 1, x, ..., x^(n-1)."""
    if n < 1:
        raise AlgebraError("trunc_poly needs n >= 1")
    names = ["1"] + [f"x^{k}" if k > 1 else "x" for k in range(1, n)]

    def prod(i, j):
        out = [0] * n
        if i + j < n:
            out[i + j] = 1
        return out

    return _build(f"trunc-poly {n}", field, names, [1] + [0] * (n - 1), prod)


def upper_tri(n: int, field: Field = QQ) -> Algebra:
    """Upper-triangular n x n matrices; basis e_ij for i <= j."""
    if n < 1:
        raise AlgebraError("upper_tri needs n >= 1")
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
    idx = {p: k for k, p in enumerate(pairs)}
    names = [f"e{i}{j}" for (i, j) in pairs]

    def prod(a, b):
        (i, j), (k, l) = pairs[a], pairs[b]
        out = [0] * len(pairs)
        if j == k:
            out[idx[(i, l)]] = 1
        return out

    unit = [1 if i == j else 0 for (i, j) in pairs]
    return _build(f"upper-tri {n}", field, names, unit, prod)


def matrix_algebra(n: int, field: Field = QQ) -> Algebra:
    """Full matrix algebra M_n; basis e_ij."""
    if n < 1:
        raise AlgebraError("matrix_algebra needs n >= 1")
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    idx = {p: k for k, p in enumerate(pairs)}
    names = [f"e{i}{j}" for (i, j) in pairs]

    def prod(a, b):
        (i, j), (k, l) = pairs[a], pairs[b]
        out = [0] * len(pairs)
        if j == k:
            out[idx[(i, l)]] = 1
        return out

    unit = [1 if i == j else 0 for (i, j) in pairs]
    return _build(f"matrix {n}", field, names, unit, prod)


def cyclic_group_algebra(n: int, field: Field = QQ) -> Algebra:
    """Group algebra k[C_n]; basis g^0 .. g^(n-1)."""
    if n < 1:
        raise AlgebraError("cyclic_group_algebra needs n >= 1")
    names = [f"g^{k}" if k > 1 else ("g" if k == 1 else "1") for k in range(n)]

    def prod(i, j):
        out = [0] * n
        out[(i + j) % n] = 1
        return out

    return _build(f"group C{n}", field, names, [1] + [0] * (n - 1), prod)


def symmetric_group_algebra_s3(field: Field = QQ) -> Algebra:
    """Group algebra k[S_3]; basis indexed by the six permutations of (1,2,3)."""
    perms = sorted(permutations((1, 2, 3)))
    idx = {p: k for k, p in enumerate(perms)}
    names = ["".join(map(str, p)) for p in perms]

    def compose(p, q):
        # (p*q)(i) = p(q(i)), permutations as images of (1,2,3)
        return tuple(p[q[i] - 1] for i in range(3))

    def prod(i, j):
        out = [0] * 6
        out[idx[compose(perms[i], perms[j])]] = 1
        return out

    unit = [0] * 6
    unit[idx[(1, 2, 3)]] = 1
    return _build("group S3", field, names, unit, prod)


def custom_algebra(name: str, field: Field, basis_names, unit, table) -> Algebra:
    """Validated algebra from an explicit table; rejects bad data with the
    offending triple named in the error."""
    d = len(basis_names)
    tbl = tuple(tuple(tuple(field.of(c) for c in table[i][j]) for j in range(d))
                for i in range(d))
    return Algebra(name, field, tuple(basis_names), tuple(field.of(c) for c in unit), tbl)
