"""Exact scalar arithmetic and sparse exact matrices.

Scalars live either in the rationals, canonically an ``int`` when whole and
an arbitrary-precision ``Fraction`` only otherwise, or in a prime field F_p
(residues stored as ints in ``[0, p)``).  No floating point is used anywhere
(``Field.of`` refuses a ``float``): homology ranks have to be exact.

Matrices are sparse triplet maps ``(row, col) -> scalar`` holding only nonzero
entries, so structural equality of matrices is equality of field elements.
Every sparse sum outside elimination is one sparse linear combination,
``combine``: matrix sums, scalings, products (``product_entries``) and
matrix-vector products, the signed face-map sum of a differential, algebra
products and module operators and their checks.

Rank, kernel and solving share one sparse elimination kernel, ``_echelon``.
Rows are ``{col: int}`` dicts: residues over F_p, and over Q integer
multiples of the input rows, divided by their content after every
combination, so no ``Fraction`` arises while eliminating (fraction-free in the
sense of Bareiss, *Math. Comp.* 22, 1968).  Rows wait in buckets keyed by
their leading column, and the columns are visited in ascending order.  In each
column the shortest row of the bucket is the pivot (sparse pivoting, as in
Dumas, Saunders and Villard, *J. Symb. Comput.* 32, 2001); every other row
there is cleared against it and re-bucketed under its new leading column.

Every pivot row leads in its own column and the pivot rows span the row
space, so the pivot columns are the leading columns of the row space: the
leftmost possible ones, those of the reduced row echelon form, whichever row
of a bucket is chosen.  Back-substitution (``_reduced``) then yields exactly
that unique form, so ``nullspace`` and ``solve`` do not depend on the pivot
choice.

Everything here is immutable after construction and all operations are pure,
so values can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from typing import Iterable, Union

Scalar = Union[Fraction, int]


def _canonical(q: Scalar) -> Scalar:
    """A rational result in canonical form: an int when it is whole."""
    return q if type(q) is int or q.denominator != 1 else q.numerator


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
        return 0

    def one(self) -> Scalar:
        return 1

    def of(self, x) -> Scalar:
        """Coerce an int, a Fraction or a rational string such as ``"-3/4"``
        into canonical form for this field; a float raises ``TypeError``."""
        if type(x) is not int:
            if isinstance(x, float):
                raise TypeError(f"inexact scalar {x!r}: use an int, a Fraction "
                                "or a string such as '1/10'")
            x = _canonical(x if isinstance(x, Fraction) else Fraction(x))
        if self.p is None:
            return x
        if type(x) is int:
            return x % self.p
        den = x.denominator % self.p
        if den == 0:
            raise ZeroDivisionError(f"denominator of {x} vanishes mod {self.p}")
        return x.numerator * pow(den, -1, self.p) % self.p

    def add(self, a: Scalar, b: Scalar) -> Scalar:
        return _canonical(a + b) if self.p is None else (a + b) % self.p

    def sub(self, a: Scalar, b: Scalar) -> Scalar:
        return _canonical(a - b) if self.p is None else (a - b) % self.p

    def mul(self, a: Scalar, b: Scalar) -> Scalar:
        return _canonical(a * b) if self.p is None else (a * b) % self.p

    def neg(self, a: Scalar) -> Scalar:
        return -a if self.p is None else (-a) % self.p

    def inv(self, a: Scalar) -> Scalar:
        if self.p is None:
            if a == 0:
                raise ZeroDivisionError("inverse of zero")
            return _canonical(Fraction(a.denominator, a.numerator))
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
        if t.upper().startswith("F(") and t.endswith(")") and t[2:-1].strip().isdecimal():
            return Field(int(t[2:-1]))
        if t.upper().startswith("F") and t[1:].isdecimal():
            return Field(int(t[1:]))
        raise ValueError(f"unrecognized field {text!r} (expected Q or F(p))")


QQ = Field()


class Matrix:
    """Immutable sparse matrix over an exact field."""

    __slots__ = ("rows", "cols", "field", "entries")

    def __init__(self, rows: int, cols: int, field: Field, entries=None):
        if rows < 0 or cols < 0:
            raise ValueError("negative dimensions")
        clean = {}
        for (r, c), v in (entries or {}).items():
            if not (0 <= r < rows and 0 <= c < cols):
                raise IndexError(f"entry ({r},{c}) outside {rows}x{cols}")
            v = field.of(v)
            if v:
                clean[(r, c)] = v
        self._fill(rows, cols, field, clean)

    @classmethod
    def _trusted(cls, rows: int, cols: int, field: Field, entries: dict) -> "Matrix":
        """Wrap an entry dict the library built itself (keys in range, values
        nonzero and canonical) without the checks of ``__init__``."""
        m = object.__new__(cls)
        m._fill(rows, cols, field, entries)
        return m

    def _fill(self, *values):
        for name, value in zip(Matrix.__slots__, values):
            object.__setattr__(self, name, value)

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

    def transpose(self) -> "Matrix":
        return Matrix._trusted(self.cols, self.rows, self.field,
                               {(c, r): v for (r, c), v in self.entries.items()})

    # -- arithmetic ---------------------------------------------------
    def __add__(self, other: "Matrix") -> "Matrix":
        return self._plus(other, 1)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._plus(other, -1)

    def _plus(self, other: "Matrix", sign: int) -> "Matrix":
        self._compat(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in addition")
        return Matrix._trusted(self.rows, self.cols, self.field, combine(
            self.field, ((1, self.entries.items()), (sign, other.entries.items()))))

    def scale(self, s) -> "Matrix":
        return Matrix._trusted(self.rows, self.cols, self.field, combine(
            self.field, ((self.field.of(s), self.entries.items()),)))

    def __mul__(self, other: "Matrix") -> "Matrix":
        return mat_mul(self, other)

    def matvec(self, vec: list) -> list:
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        f = self.field
        out = combine(f, ((f.of(vec[c]), ((r, v),)) for (r, c), v in self.entries.items()
                          if vec[c] != f.zero()))
        return [out.get(r, f.zero()) for r in range(self.rows)]

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
    return Matrix._trusted(a.rows, b.cols, a.field,
                           product_entries(a.field, a.entries, by_row(b.entries)))


def combine(f: Field, terms) -> dict:
    """The nonzero entries of ``sum c * row`` over the ``(c, row)`` terms,
    each row an iterable of ``(key, value)`` pairs."""
    out: dict = {}
    p = f.p
    for c, row in terms:
        for k, v in row:
            s = out.get(k, 0) + c * v
            s = _canonical(s) if p is None else s % p
            if s:
                out[k] = s
            else:
                out.pop(k, None)
    return out


def by_row(entries: dict) -> dict:
    """``{row: [(col, value), ...]}`` for a matrix entry dict."""
    out: dict = {}
    for (r, c), v in entries.items():
        out.setdefault(r, []).append((c, v))
    return out


def product_entries(f: Field, a: dict, b_rows: dict) -> dict:
    """Entries of the product of an entry dict and a ``by_row`` table."""
    return combine(f, ((va, [((r, c), vb) for c, vb in b_rows.get(k, ())])
                       for (r, k), va in a.items()))


def _primitive(row: dict) -> dict:
    g = gcd(*row.values())
    return row if g == 1 else {k: v // g for k, v in row.items()}


def _combine(row: dict, piv: dict, c: int, p: int | None) -> dict:
    """Clear column ``c`` of ``row`` with ``piv``, whose entry there is nonzero.

    Over F_p this is ``row - (row[c]/piv[c]) piv``.  Over Q it is the
    fraction-free ``a row - b piv`` (``a/b = piv[c]/row[c]`` in lowest terms),
    made primitive again.
    """
    if p is None:
        g = gcd(piv[c], row[c])
        a, b = piv[c] // g, row[c] // g
        out = {k: a * v for k, v in row.items()}
    else:
        b = row[c] * pow(piv[c], -1, p) % p
        out = dict(row)
    for k, v in piv.items():
        s = out.get(k, 0) - b * v
        if p is not None:
            s %= p
        if s:
            out[k] = s
        else:
            del out[k]
    return _primitive(out) if p is None and out else out


def _sparse_rows(m: Matrix) -> list[dict]:
    """Nonzero rows of ``m`` as ``{col: int}``: residues over F_p, primitive
    integer multiples over Q."""
    rows: dict[int, dict] = {}
    for (r, c), v in sorted(m.entries.items()):
        rows.setdefault(r, {})[c] = v
    if m.field.p is not None:
        return list(rows.values())
    out = []
    for row in rows.values():
        den = 1
        for v in row.values():
            den = den * v.denominator // gcd(den, v.denominator)
        out.append(_primitive({c: v.numerator * (den // v.denominator)
                               for c, v in row.items()}))
    return out


def _echelon(m: Matrix) -> list[tuple[int, dict]]:
    """Row echelon form of ``m`` as ``(pivot column, row)`` pairs in
    ascending column order; the only elimination loop in the package."""
    p = m.field.p
    buckets: dict[int, list[dict]] = {}
    for row in _sparse_rows(m):
        buckets.setdefault(min(row), []).append(row)
    echelon = []
    for c in range(m.cols):
        if not buckets:
            break
        bucket = buckets.pop(c, None)
        if bucket is None:
            continue
        piv = min(bucket, key=len)
        echelon.append((c, piv))
        for row in bucket:
            if row is not piv:
                row = _combine(row, piv, c, p)
                if row:
                    buckets.setdefault(min(row), []).append(row)
    return echelon


def _reduced(m: Matrix) -> list[tuple[int, dict]]:
    """The reduced row echelon form of ``m`` as sparse ``(pivot column, row)``
    pairs in ascending column order, each pivot entry 1."""
    f = m.field
    reduced: dict[int, dict] = {}
    for c, row in reversed(_echelon(m)):
        # the rows below are reduced, so clearing one of their pivot columns
        # here changes only that column and non-pivot columns
        for k in [k for k in row if k != c and k in reduced]:
            row = _combine(row, reduced[k], k, f.p)
        reduced[c] = row
    return [(c, {k: f.div(v, row[c]) for k, v in row.items()})
            for c, row in sorted(reduced.items())]


def rank(m: Matrix) -> int:
    """Exact rank: the number of rows in a row echelon form."""
    return len(_echelon(m))


def nullspace(m: Matrix) -> list[list[Scalar]]:
    """Basis of the right kernel, one vector per free column, ascending."""
    f = m.field
    reduced = _reduced(m)
    pivots = {c for c, _ in reduced}
    basis = {}
    for free in range(m.cols):
        if free not in pivots:
            basis[free] = [f.zero()] * m.cols
            basis[free][free] = f.one()
    for c, row in reduced:
        for k, v in row.items():
            if k != c:
                basis[k][c] = f.neg(v)
    return list(basis.values())


def solve(a: Matrix, b: Matrix) -> Matrix:
    """Solve a X = b exactly; free variables are set to 0.  Raises
    ``ValueError`` if the system is inconsistent."""
    a._compat(b)
    if a.rows != b.rows:
        raise ValueError("row mismatch in solve")
    aug = Matrix(a.rows, a.cols + b.cols, a.field,
                 dict(a.entries) | {(r, c + a.cols): v for (r, c), v in b.entries.items()})
    out = {}
    for pc, row in _reduced(aug):
        if pc >= a.cols:
            raise ValueError("inconsistent linear system")
        for k, v in row.items():
            if k >= a.cols:
                out[(pc, k - a.cols)] = v
    return Matrix(a.cols, b.cols, a.field, out)
