"""Exact scalar arithmetic and sparse exact matrices.

Scalars live either in the rationals (arbitrary-precision ``Fraction``) or in
a prime field F_p (residues stored as ints in ``[0, p)``).  No floating point
is used anywhere: homology ranks have to be exact.

Matrices are sparse triplet maps ``(row, col) -> scalar`` holding only nonzero
entries, so structural equality of matrices is equality of field elements.
Rank uses Bareiss fraction-free elimination over the rationals (to control
coefficient growth) and plain Gaussian elimination over F_p, both with the
same deterministic pivot rule: first nonzero entry in a column-major scan.

Everything here is immutable after construction and all operations are pure,
so values can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from typing import Iterable, Union

Scalar = Union[Fraction, int]


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    top = isqrt(p)
    while d <= top:
        if p % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class Field:
    """Ground field: rationals if ``p`` is None, else the prime field F_p."""

    p: int | None = None

    def __post_init__(self):
        if self.p is not None:
            if not (2 <= self.p < 2**31):
                raise ValueError(f"characteristic out of range: {self.p}")
            if not is_prime(self.p):
                raise ValueError(f"{self.p} is not prime")

    @property
    def is_rationals(self) -> bool:
        return self.p is None

    def zero(self) -> Scalar:
        return Fraction(0) if self.p is None else 0

    def one(self) -> Scalar:
        return Fraction(1) if self.p is None else 1

    def of(self, x) -> Scalar:
        """Coerce an int or Fraction into canonical form for this field."""
        if self.p is None:
            return Fraction(x)
        f = Fraction(x)
        den = f.denominator % self.p
        if den == 0:
            raise ZeroDivisionError(f"denominator of {x} vanishes mod {self.p}")
        return f.numerator * pow(den, -1, self.p) % self.p

    def add(self, a: Scalar, b: Scalar) -> Scalar:
        return a + b if self.p is None else (a + b) % self.p

    def sub(self, a: Scalar, b: Scalar) -> Scalar:
        return a - b if self.p is None else (a - b) % self.p

    def mul(self, a: Scalar, b: Scalar) -> Scalar:
        return a * b if self.p is None else (a * b) % self.p

    def neg(self, a: Scalar) -> Scalar:
        return -a if self.p is None else (-a) % self.p

    def inv(self, a: Scalar) -> Scalar:
        if self.p is None:
            if a == 0:
                raise ZeroDivisionError("inverse of zero")
            return Fraction(1) / a
        return pow(a, -1, self.p)

    def div(self, a: Scalar, b: Scalar) -> Scalar:
        return self.mul(a, self.inv(b))

    def describe(self) -> str:
        return "Q" if self.p is None else f"F({self.p})"

    @staticmethod
    def parse(text: str) -> "Field":
        t = text.strip()
        if t in ("Q", "q", "QQ"):
            return Field()
        if t.upper().startswith("F(") and t.endswith(")"):
            return Field(int(t[2:-1]))
        if t.upper().startswith("F") and t[1:].isdigit():
            return Field(int(t[1:]))
        raise ValueError(f"unrecognized field {text!r} (expected Q or F(p))")


QQ = Field()


class Matrix:
    """Immutable sparse matrix over an exact field."""

    __slots__ = ("rows", "cols", "field", "entries")

    def __init__(self, rows: int, cols: int, field: Field, entries=None):
        if rows < 0 or cols < 0:
            raise ValueError("negative dimensions")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "field", field)
        clean = {}
        if entries:
            for (r, c), v in entries.items():
                if not (0 <= r < rows and 0 <= c < cols):
                    raise IndexError(f"entry ({r},{c}) outside {rows}x{cols}")
                v = field.of(v)
                if v != field.zero():
                    clean[(r, c)] = v
        object.__setattr__(self, "entries", clean)

    def __setattr__(self, *a):
        raise AttributeError("Matrix is immutable")

    # -- constructors -------------------------------------------------
    @staticmethod
    def zero(rows: int, cols: int, field: Field = QQ) -> "Matrix":
        return Matrix(rows, cols, field)

    @staticmethod
    def identity(n: int, field: Field = QQ) -> "Matrix":
        return Matrix(n, n, field, {(i, i): field.one() for i in range(n)})

    @staticmethod
    def from_rows(data: Iterable[Iterable], field: Field = QQ) -> "Matrix":
        rows = [list(r) for r in data]
        n = len(rows)
        m = len(rows[0]) if rows else 0
        if any(len(r) != m for r in rows):
            raise ValueError("ragged rows")
        return Matrix(n, m, field,
                      {(i, j): v for i, r in enumerate(rows) for j, v in enumerate(r)})

    # -- basics -------------------------------------------------------
    def get(self, r: int, c: int) -> Scalar:
        return self.entries.get((r, c), self.field.zero())

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matrix) and self.rows == other.rows
                and self.cols == other.cols and self.field == other.field
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, self.field,
                     tuple(sorted(self.entries.items()))))

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols} over {self.field.describe()}, nnz={len(self.entries)})"

    def to_rows(self) -> list[list[Scalar]]:
        out = [[self.field.zero()] * self.cols for _ in range(self.rows)]
        for (r, c), v in self.entries.items():
            out[r][c] = v
        return out

    def transpose(self) -> "Matrix":
        return Matrix(self.cols, self.rows, self.field,
                      {(c, r): v for (r, c), v in self.entries.items()})

    # -- arithmetic ---------------------------------------------------
    def __add__(self, other: "Matrix") -> "Matrix":
        self._compat(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in addition")
        e = dict(self.entries)
        f = self.field
        for k, v in other.entries.items():
            s = f.add(e.get(k, f.zero()), v)
            if s == f.zero():
                e.pop(k, None)
            else:
                e[k] = s
        return Matrix(self.rows, self.cols, f, e)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + other.scale(self.field.neg(self.field.one()))

    def scale(self, s) -> "Matrix":
        s = self.field.of(s)
        return Matrix(self.rows, self.cols, self.field,
                      {k: self.field.mul(v, s) for k, v in self.entries.items()})

    def __mul__(self, other: "Matrix") -> "Matrix":
        return mat_mul(self, other)

    def matvec(self, vec: list) -> list:
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        f = self.field
        out = [f.zero()] * self.rows
        for (r, c), v in self.entries.items():
            if vec[c] != f.zero():
                out[r] = f.add(out[r], f.mul(v, f.of(vec[c])))
        return out

    def _compat(self, other: "Matrix"):
        if self.field != other.field:
            raise ValueError("matrices over different fields")

    # -- serialization (byte-stable) -----------------------------------
    def to_triplets(self) -> list[tuple[int, int, str]]:
        return [(r, c, str(v)) for (r, c), v in sorted(self.entries.items())]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Exact sparse product; raises on inner-dimension mismatch."""
    a._compat(b)
    if a.cols != b.rows:
        raise ValueError(f"dimension mismatch: {a.rows}x{a.cols} times {b.rows}x{b.cols}")
    f = a.field
    by_row: dict[int, list[tuple[int, Scalar]]] = {}
    for (r, c), v in b.entries.items():
        by_row.setdefault(r, []).append((c, v))
    out: dict[tuple[int, int], Scalar] = {}
    for (r, k), va in a.entries.items():
        for c, vb in by_row.get(k, ()):
            key = (r, c)
            s = f.add(out.get(key, f.zero()), f.mul(va, vb))
            if s == f.zero():
                out.pop(key, None)
            else:
                out[key] = s
    return Matrix(a.rows, b.cols, f, out)


def _bareiss_rank(rows: list[list[int]]) -> int:
    """Fraction-free elimination on an integer matrix; returns the rank.

    Pivots are found by scanning columns left to right and, within a column,
    rows top to bottom (first nonzero wins).
    """
    n = len(rows)
    m = len(rows[0]) if n else 0
    prev = 1
    rank = 0
    r = 0
    for c in range(m):
        piv = None
        for i in range(r, n):
            if rows[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
        pv = rows[r][c]
        for i in range(r + 1, n):
            xi = rows[i][c]
            # the update keeps every entry an exact minor determinant, so the
            # division by the previous pivot is exact; it must run even when
            # xi is zero (the row still scales by pv/prev)
            for j in range(c + 1, m):
                rows[i][j] = (pv * rows[i][j] - xi * rows[r][j]) // prev
            rows[i][c] = 0
        prev = pv
        rank += 1
        r += 1
        if r == n:
            break
    return rank


def rank(m: Matrix) -> int:
    """Exact rank: Bareiss over the rationals, Gauss over F_p."""
    if m.rows == 0 or m.cols == 0 or m.is_zero():
        return 0
    if m.field.is_rationals:
        dense = []
        for row in m.to_rows():
            den = 1
            for v in row:
                den = den * v.denominator // gcd(den, v.denominator)
            dense.append([int(v * den) for v in row])
        return _bareiss_rank(dense)
    p = m.field.p
    rows = [[int(v) for v in row] for row in m.to_rows()]
    n, w = len(rows), len(rows[0])
    r = 0
    for c in range(w):
        piv = None
        for i in range(r, n):
            if rows[i][c] % p != 0:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], -1, p)
        for i in range(r + 1, n):
            if rows[i][c] % p != 0:
                factor = rows[i][c] * inv % p
                for j in range(c, w):
                    rows[i][j] = (rows[i][j] - factor * rows[r][j]) % p
        r += 1
        if r == n:
            break
    return r


def rref(m: Matrix) -> tuple[list[list[Scalar]], list[int]]:
    """Reduced row echelon form (dense) and the list of pivot columns."""
    f = m.field
    rows = m.to_rows()
    n, w = m.rows, m.cols
    pivots = []
    r = 0
    for c in range(w):
        piv = None
        for i in range(r, n):
            if rows[i][c] != f.zero():
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = f.inv(rows[r][c])
        rows[r] = [f.mul(v, inv) for v in rows[r]]
        for i in range(n):
            if i != r and rows[i][c] != f.zero():
                factor = rows[i][c]
                rows[i] = [f.sub(rows[i][j], f.mul(factor, rows[r][j])) for j in range(w)]
        pivots.append(c)
        r += 1
        if r == n:
            break
    return rows, pivots


def nullspace(m: Matrix) -> list[list[Scalar]]:
    """Basis of the right kernel, one vector per free column, ascending."""
    f = m.field
    rows, pivots = rref(m)
    pivot_set = set(pivots)
    basis = []
    for free in range(m.cols):
        if free in pivot_set:
            continue
        vec = [f.zero()] * m.cols
        vec[free] = f.one()
        for r, pc in enumerate(pivots):
            vec[pc] = f.neg(rows[r][free])
        basis.append(vec)
    return basis


def solve(a: Matrix, b: Matrix) -> Matrix:
    """Solve a X = b exactly (any one solution); raises if inconsistent."""
    a._compat(b)
    if a.rows != b.rows:
        raise ValueError("row mismatch in solve")
    f = a.field
    aug = Matrix(a.rows, a.cols + b.cols, f,
                 dict(a.entries) | {(r, c + a.cols): v for (r, c), v in b.entries.items()})
    rows, pivots = rref(aug)
    for r in range(len(pivots), a.rows):
        if any(rows[r][c] != f.zero() for c in range(a.cols, aug.cols)):
            raise ValueError("inconsistent linear system")
    for pc in pivots:
        if pc >= a.cols:
            raise ValueError("inconsistent linear system")
    out = {}
    for r, pc in enumerate(pivots):
        for c in range(b.cols):
            v = rows[r][a.cols + c]
            if v != f.zero():
                out[(pc, c)] = v
    return Matrix(a.cols, b.cols, f, out)

