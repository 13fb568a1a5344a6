"""Exact scalar arithmetic and sparse exact matrices.

Scalars live either in the rationals, canonically an ``int`` when whole and
an arbitrary-precision ``Fraction`` only otherwise, or in a prime field F_p
(residues stored as ints in ``[0, p)``).  No floating point is used anywhere
(``Field.of`` refuses a ``float``): homology ranks have to be exact.

A matrix is stored as its row table ``{row: {col: scalar}}``, holding only
nonzero entries and no empty row, so structural equality of matrices is
equality of field elements.  That is the one format from assembly to
elimination: the functor kernel writes a differential's rows, products form
one row at a time (``product_row``), and elimination reads the rows as they
are stored (Dumas, Saunders and Villard eliminate on the same sparse rows).
An entry dict ``{(row, col): scalar}`` is only the validating constructor's
input and the read-only ``entries`` view.  ``table_sum`` (one ``combine`` per
row) and ``table_product`` (one ``product_row`` per row) form matrix sums,
scalings and products, module operators and their checks; ``combine`` also
forms algebra products, matrix-vector products and the classical complex.

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
choice, nor on the order the rows and their entries arrive in.

``rank`` can hand those pivot columns back, for the ordered pass of
``hochschild._betti_table``.  It ranks the differentials of a complex in
ascending degree, the transposes of cochain differentials so that every
matrix runs in the chain direction (``g f = 0`` with g ranked first), and
clears: before ranking f it drops the rows that g's echelon names as pivot
columns (Chen and Kerber, "Persistent homology computation with a twist",
2011).  f's columns lie in ker g, and a vector of ker g is zero once its
non-pivot coordinates are (back-substitution), so dropping those rows is
injective on f's column space and keeps its rank.

Everything here is immutable after construction and all operations are pure,
so values can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm
from types import MappingProxyType
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
    """Immutable sparse matrix over an exact field.

    ``table`` is its row table ``{row: {col: value}}``: nonzero canonical
    values only, and no empty row.  ``entries`` is a read-only
    ``{(row, col): value}`` view derived from it."""

    __slots__ = ("rows", "cols", "field", "table")

    def __init__(self, rows: int, cols: int, field: Field, entries=None):
        if rows < 0 or cols < 0:
            raise ValueError("negative dimensions")
        table: dict = {}
        for (r, c), v in (entries or {}).items():
            if not (0 <= r < rows and 0 <= c < cols):
                raise IndexError(f"entry ({r},{c}) outside {rows}x{cols}")
            v = field.of(v)
            if v:
                table.setdefault(r, {})[c] = v
        self._fill(rows, cols, field, table)

    @classmethod
    def _trusted(cls, rows: int, cols: int, field: Field, table: dict) -> "Matrix":
        """Wrap a row table the library built itself (keys in range, values
        nonzero and canonical, no empty row) without the checks of
        ``__init__``."""
        m = object.__new__(cls)
        m._fill(rows, cols, field, table)
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
    @property
    def entries(self) -> MappingProxyType:
        """The nonzero entries as a read-only ``{(row, col): value}`` map, in
        the row table's order; built afresh on every read."""
        return MappingProxyType({(r, c): v for r, row in self.table.items()
                                 for c, v in row.items()})

    def get(self, r: int, c: int) -> Scalar:
        return self.table.get(r, {}).get(c, self.field.zero())

    def is_zero(self) -> bool:
        return not self.table

    def _sorted_items(self):
        t = self.table
        return (((r, c), t[r][c]) for r in sorted(t) for c in sorted(t[r]))

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matrix) and self.rows == other.rows
                and self.cols == other.cols and self.field == other.field
                and self.table == other.table)

    def __hash__(self):
        return hash((self.rows, self.cols, self.field, tuple(self._sorted_items())))

    def __repr__(self):
        nnz = sum(map(len, self.table.values()))
        return f"Matrix({self.rows}x{self.cols} over {self.field.describe()}, nnz={nnz})"

    def transpose(self) -> "Matrix":
        out: dict = {}
        for r, row in self.table.items():
            for c, v in row.items():
                col = out.get(c)
                if col is None:
                    out[c] = {r: v}
                else:
                    col[r] = v
        return Matrix._trusted(self.cols, self.rows, self.field, out)

    # -- arithmetic ---------------------------------------------------
    def __add__(self, other: "Matrix") -> "Matrix":
        return self._plus(other, 1)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._plus(other, -1)

    def _plus(self, other: "Matrix", sign: int) -> "Matrix":
        self._compat(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in addition")
        return Matrix._trusted(self.rows, self.cols, self.field,
                               table_sum(self.field, ((1, self.table), (sign, other.table))))

    def scale(self, s) -> "Matrix":
        f = self.field
        return Matrix._trusted(self.rows, self.cols, f, table_sum(f, ((f.of(s), self.table),)))

    def __mul__(self, other: "Matrix") -> "Matrix":
        return mat_mul(self, other)

    def matvec(self, vec: list) -> list:
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        f = self.field
        out = combine(f, ((f.of(vec[c]), ((r, v),)) for r, row in self.table.items()
                          for c, v in row.items() if vec[c] != f.zero()))
        return [out.get(r, f.zero()) for r in range(self.rows)]

    def _compat(self, other: "Matrix"):
        if self.field != other.field:
            raise ValueError("matrices over different fields")

    # -- serialization (byte-stable) -----------------------------------
    def to_triplets(self) -> list[tuple[int, int, str]]:
        return [(r, c, str(v)) for (r, c), v in self._sorted_items()]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Exact sparse product, row by row; raises on inner-dimension mismatch."""
    a._compat(b)
    if a.cols != b.rows:
        raise ValueError(f"dimension mismatch: {a.rows}x{a.cols} times {b.rows}x{b.cols}")
    return Matrix._trusted(a.rows, b.cols, a.field, table_product(a.field, a.table, b.table))


def combine(f: Field, terms) -> dict:
    """The nonzero entries of ``sum c * row`` over the ``(c, row)`` terms,
    each row an iterable of ``(key, value)`` pairs."""
    out: dict = {}
    p = f.p
    for c, row in terms:
        for k, v in row:
            s = out.get(k, 0) + c * v
            if p is not None:
                s %= p
            elif type(s) is not int:
                s = _canonical(s)
            if s:
                out[k] = s
            else:
                out.pop(k, None)
    return out


def product_row(f: Field, row: dict, table: dict) -> dict:
    """``{col: value}`` of the row vector ``row`` times the matrix whose row
    table is ``table``: the rows ``row`` names, each times its coefficient,
    summed as ``combine`` would, written out here because a product forms
    one such sum for every row of its left factor."""
    out: dict = {}
    p = f.p
    for k, a in row.items():
        b_row = table.get(k)
        if b_row is not None:
            for c, b in b_row.items():
                s = out.get(c, 0) + a * b
                if p is not None:
                    s %= p
                elif type(s) is not int:
                    s = _canonical(s)
                if s:
                    out[c] = s
                else:
                    del out[c]
    return out


def table_sum(f: Field, terms) -> dict:
    """The row table of ``sum c * t`` over the ``(c, t)`` terms, each ``t`` a
    row table: one ``combine`` per row, rows in order of first appearance,
    and no empty row left."""
    terms = list(terms)
    return {r: out for r in dict.fromkeys(r for _, t in terms for r in t)
            if (out := combine(f, ((c, t[r].items()) for c, t in terms if r in t)))}


def table_product(f: Field, a: dict, b: dict) -> dict:
    """The row table of the product of the row tables ``a`` and ``b``: one
    ``product_row`` per row of ``a``, and no empty row left."""
    return {r: out for r, row in a.items() if (out := product_row(f, row, b))}


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
    """The rows of ``m``'s row table as ``{col: int}``: residues over F_p,
    the table's own row dicts (elimination never mutates a row); over Q,
    primitive integer multiples, whose denominators are cleared only in a row
    holding a ``Fraction``."""
    rows = m.table.values()
    if m.field.p is not None:
        return list(rows)
    out = []
    for row in rows:
        if not all(type(v) is int for v in row.values()):
            den = lcm(*(v.denominator for v in row.values()))
            row = {c: v.numerator * (den // v.denominator) for c, v in row.items()}
        out.append(_primitive(row))
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


def rank(m: Matrix, pivots: list | None = None) -> int:
    """Exact rank: the number of rows in a row echelon form.  With
    ``pivots`` given, the echelon's pivot columns are appended to it in
    ascending order."""
    echelon = _echelon(m)
    if pivots is not None:
        pivots.extend(c for c, _ in echelon)
    return len(echelon)


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
    table = {r: dict(row) for r, row in a.table.items()}
    for r, row in b.table.items():
        table.setdefault(r, {}).update((c + a.cols, v) for c, v in row.items())
    aug = Matrix._trusted(a.rows, a.cols + b.cols, a.field, table)
    out = {}
    for pc, row in _reduced(aug):
        if pc >= a.cols:
            raise ValueError("inconsistent linear system")
        if x := {k - a.cols: v for k, v in row.items() if k >= a.cols}:
            out[pc] = x
    return Matrix._trusted(a.cols, b.cols, a.field, out)
