"""Exact scalars and matrices; the sparse kernel against a dense oracle.

``_dense_rref``, ``_dense_nullspace`` and ``_dense_solve`` are the dense
Gauss-Jordan routines the sparse elimination kernel replaced (first nonzero
entry in a column-major scan, every row reduced as its pivot is found).  The
reduced row echelon form is unique, so the kernel must reproduce their
kernels and solutions exactly, not just up to a change of basis.
"""

import random
import time
from fractions import Fraction

import pytest

from hochord.algebras import custom_algebra, upper_tri
from hochord.exact import Field, Matrix, QQ, mat_mul, nullspace, rank, solve
from hochord.hochschild import CHAIN, build_complex, make_spec
from hochord.modules import tensor_square_bimodule
from hochord.simplicial import wedge_of_circles


def test_field_parse_and_primality():
    assert Field.parse("Q").is_rationals
    assert Field.parse("F(7)").p == 7
    assert Field.parse("F7").p == 7
    with pytest.raises(ValueError):
        Field.parse("F(6)")
    with pytest.raises(ValueError):
        Field.parse("R")


def test_scalar_canonical_forms():
    f = Field(7)
    assert f.of(Fraction(1, 2)) == 4  # 1/2 = 4 mod 7
    assert f.of(-1) == 6
    assert QQ.of(2) == Fraction(2)


def _is_canonical(v):
    return type(v) is int or (type(v) is Fraction and v.denominator != 1)


def test_rationals_are_ints_when_whole():
    half = Fraction(1, 2)
    cases = [
        (QQ.zero(), 0), (QQ.one(), 1),
        (QQ.of(7), 7), (QQ.of(Fraction(6, 3)), 2), (QQ.of("-4/2"), -2),
        (QQ.of(True), 1), (QQ.of(half), half), (QQ.of("1/10"), Fraction(1, 10)),
        (QQ.mul(half, 2), 1), (QQ.add(half, half), 1), (QQ.sub(half, Fraction(-1, 2)), 1),
        (QQ.neg(half), Fraction(-1, 2)), (QQ.neg(3), -3),
        (QQ.inv(Fraction(1, 3)), 3), (QQ.inv(Fraction(-1, 3)), -3), (QQ.inv(2), half),
        (QQ.inv(-1), -1), (QQ.div(3, Fraction(3, 2)), 2), (QQ.add(half, 1), Fraction(3, 2)),
    ]
    for got, want in cases:
        assert got == want and _is_canonical(got), (got, want)
        assert str(got) == str(Fraction(want))
    assert type(Field(7).zero()) is int and type(Field(7).one()) is int


def _fraction_residue(x, p):
    """The residue of ``x`` mod p read through ``Fraction``, as F_p scalars
    were once computed."""
    q = Fraction(x)
    return q.numerator * pow(q.denominator % p, -1, p) % p


@pytest.mark.parametrize("p", [2, 7, 101, 2**31 - 1])
def test_prime_field_of_matches_fraction_residue(p):
    ints = [0, 1, -1, p - 1, p, p + 1, -p, -p - 1, 3 * p + 2, -5 * p - 3, 10**40 + 7,
            -(10**40) - 9]
    for x in ints:
        assert Field(p).of(x) == _fraction_residue(x, p), x
        assert type(Field(p).of(x)) is int
    for x in [Fraction(1, 3), Fraction(-5, 9), Fraction(4, 2), Fraction(p + 1, p + 2)]:
        if x.denominator % p:
            assert Field(p).of(x) == _fraction_residue(x, p), x


def test_prime_field_of_builds_no_fraction_for_ints(fraction_count):
    f = Field(7)
    assert [f.of(x) for x in (-15, 0, 3, 100)] == [6, 0, 3, 2]
    assert [QQ.of(x) for x in (-15, 0, 3)] == [-15, 0, 3]
    assert fraction_count == [0]


@pytest.mark.parametrize("field", [QQ, Field(7)])
def test_floats_are_refused(field):
    for value in (0.5, 0.1, 2.0, float("nan")):
        with pytest.raises(TypeError, match=repr(value)):
            field.of(value)
    with pytest.raises(TypeError, match="0.1"):
        Matrix.from_rows([[0.1, 2]], field)
    with pytest.raises(TypeError, match="0.5"):
        custom_algebra("k", field, ["1", "x"], [1, 0.5], [[[1, 0], [0, 1]], [[0, 1], [0, 0]]])
    with pytest.raises(TypeError, match="1.0"):
        custom_algebra("k", field, ["1"], [1.0], [[[1]]])


def test_exact_inputs_still_coerce():
    assert Matrix.from_rows([[Fraction(1, 10), "2/4", 3]]).entries == {
        (0, 0): Fraction(1, 10), (0, 1): Fraction(1, 2), (0, 2): 3}
    assert Matrix.from_rows([["6/3", 0]]).entries == {(0, 0): 2}
    assert type(Matrix.from_rows([["6/3", 0]]).get(0, 0)) is int
    assert Matrix.from_rows([[Fraction(1, 2), 8]], Field(7)).entries == {(0, 0): 4, (0, 1): 1}


def test_public_constructor_keeps_its_checks():
    with pytest.raises(IndexError):
        Matrix(2, 2, QQ, {(2, 0): 1})
    with pytest.raises(ValueError):
        Matrix(-1, 2, QQ)
    m = Matrix(2, 2, Field(5), {(0, 0): 5, (0, 1): 7, (1, 1): Fraction(4, 2)})
    assert m.entries == {(0, 1): 2, (1, 1): 2}
    assert Matrix(1, 1, QQ, {(0, 0): Fraction(0)}).is_zero()


def test_matrix_results_are_canonical():
    a = Matrix.from_rows([[Fraction(1, 2), 1], [2, Fraction(1, 3)]])
    b = Matrix.from_rows([[2, 0], [0, 3]])
    for m in (a * b, a + a, a - a, a.scale(6), a.transpose(), b * a):
        assert all(_is_canonical(v) for v in m.entries.values()), m.entries
        assert Matrix(m.rows, m.cols, m.field, m.entries) == m
    assert (a * b).entries == {(0, 0): 1, (0, 1): 3, (1, 0): 4, (1, 1): 1}
    assert (a - a).is_zero()


def test_mat_mul_identity_and_zero():
    m = Matrix.from_rows([[1, 2], [3, 4], [5, 6]])
    assert mat_mul(Matrix.identity(3), m) == m
    z = Matrix.zero(2, 2)
    assert mat_mul(z, Matrix.from_rows([[1, 2], [3, 4]])).is_zero()


def test_mat_mul_fractions():
    a = Matrix.from_rows([[Fraction(1, 2)]])
    b = Matrix.from_rows([[Fraction(2, 3)]])
    assert mat_mul(a, b) == Matrix.from_rows([[Fraction(1, 3)]])


def test_mat_mul_dimension_mismatch():
    with pytest.raises(ValueError):
        mat_mul(Matrix.zero(2, 3), Matrix.zero(2, 2))


def test_rank_examples():
    assert rank(Matrix.zero(4, 5)) == 0
    assert rank(Matrix.identity(3)) == 3
    assert rank(Matrix.from_rows([[1, 2], [2, 4]])) == 1


def _random_matrix(rng, rows, cols, field, density=0.6, span=5):
    entries = {}
    for r in range(rows):
        for c in range(cols):
            if rng.random() < density:
                entries[(r, c)] = field.of(rng.randint(-span, span))
    return Matrix(rows, cols, field, entries)


def test_rank_equals_rank_of_transpose():
    rng = random.Random(7)
    for _ in range(25):
        m = _random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6), QQ)
        assert rank(m) == rank(m.transpose())


def test_rank_rationals_matches_large_prime_field():
    p = 1_000_003
    fp = Field(p)
    rng = random.Random(11)
    for _ in range(20):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        ints = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        mq = Matrix.from_rows(ints, QQ)
        mp = Matrix.from_rows(ints, fp)
        assert rank(mq) == rank(mp)


def test_mat_mul_associativity():
    rng = random.Random(3)
    for _ in range(15):
        a = _random_matrix(rng, rng.randint(1, 4), 3, QQ)
        b = _random_matrix(rng, 3, rng.randint(1, 4), QQ)
        c = _random_matrix(rng, b.cols, rng.randint(1, 4), QQ)
        assert mat_mul(mat_mul(a, b), c) == mat_mul(a, mat_mul(b, c))


def test_nullspace_and_solve():
    m = Matrix.from_rows([[1, 2, 3], [2, 4, 6]])
    basis = nullspace(m)
    assert len(basis) == 2
    for v in basis:
        col = Matrix(3, 1, QQ, {(i, 0): x for i, x in enumerate(v)})
        assert mat_mul(m, col).is_zero()
    a = Matrix.from_rows([[1, 1], [0, 1]])
    b = Matrix.from_rows([[3], [2]])
    x = solve(a, b)
    assert mat_mul(a, x) == b
    with pytest.raises(ValueError):
        solve(Matrix.from_rows([[1], [1]]), Matrix.from_rows([[1], [2]]))


def test_rank_over_small_prime_field_differs_where_expected():
    # 2x2 with determinant 5: invertible over Q, singular over F_5
    m = [[1, 2], [3, 11]]
    assert rank(Matrix.from_rows(m, QQ)) == 2
    assert rank(Matrix.from_rows(m, Field(5))) == 1


def test_matrix_structural_equality_and_triplets():
    a = Matrix.from_rows([[0, 1], [2, 0]])
    b = Matrix(2, 2, QQ, {(0, 1): 1, (1, 0): 2, (1, 1): 0})
    assert a == b
    assert a.to_triplets() == [(0, 1, "1"), (1, 0, "2")]


# ---------------------------------------------------------------------------
# dense oracle

def _dense_rref(m):
    """Reduced row echelon form (dense) and the list of pivot columns."""
    f = m.field
    rows = [[f.zero()] * m.cols for _ in range(m.rows)]
    for (r, c), v in m.entries.items():
        rows[r][c] = v
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


def _dense_nullspace(m):
    f = m.field
    rows, pivots = _dense_rref(m)
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


def _dense_solve(a, b):
    f = a.field
    aug = Matrix(a.rows, a.cols + b.cols, f,
                 dict(a.entries) | {(r, c + a.cols): v for (r, c), v in b.entries.items()})
    rows, pivots = _dense_rref(aug)
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


FIELDS = [QQ, Field(7), Field(101)]


def _kernel_case(rng, field):
    """A small random matrix with the shapes the kernel must handle: empty,
    zero rows and columns, fractional entries (over Q) and, over F_p, a row
    that is a combination of the others modulo p only."""
    rows, cols = rng.randint(0, 7), rng.randint(0, 7)
    zero_rows = {r for r in range(rows) if rng.random() < 0.2}
    zero_cols = {c for c in range(cols) if rng.random() < 0.2}
    density = rng.choice([0.2, 0.5, 0.9])
    ints = [[rng.randint(-6, 6) if rng.random() < density else 0 for _ in range(cols)]
            for _ in range(rows)]
    if field.p is not None and rows >= 2 and rng.random() < 0.3:
        # last row = sum of the others plus p times noise: rank drops mod p
        ints[-1] = [sum(ints[i][c] for i in range(rows - 1)) + field.p * rng.randint(-2, 2)
                    for c in range(cols)]
    entries = {}
    for r in range(rows):
        for c in range(cols):
            if r in zero_rows or c in zero_cols or not ints[r][c]:
                continue
            v = Fraction(ints[r][c])
            if field.p is None and rng.random() < 0.4:
                v /= rng.randint(1, 9)
            entries[(r, c)] = v
    return Matrix(rows, cols, field, entries)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.describe())
def test_rank_and_nullspace_agree_with_dense_oracle(field):
    rng = random.Random(20 + (field.p or 0))
    for _ in range(300):
        m = _kernel_case(rng, field)
        _, pivots = _dense_rref(m)
        assert rank(m) == len(pivots)
        assert nullspace(m) == _dense_nullspace(m)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.describe())
def test_solve_agrees_with_dense_oracle(field):
    rng = random.Random(40 + (field.p or 0))
    raised = 0
    for _ in range(300):
        a = _kernel_case(rng, field)
        if rng.random() < 0.5:
            x = _kernel_case(rng, field)
            x = Matrix(a.cols, x.cols, field,
                       {(r, c): v for (r, c), v in x.entries.items() if r < a.cols})
            b = mat_mul(a, x)
        else:
            b = _kernel_case(rng, field)
            b = Matrix(a.rows, b.cols, field,
                       {(r, c): v for (r, c), v in b.entries.items() if r < a.rows})
        try:
            expected = _dense_solve(a, b)
        except ValueError:
            raised += 1
            with pytest.raises(ValueError):
                solve(a, b)
            continue
        assert solve(a, b) == expected
    assert 0 < raised < 300


def test_kernel_handles_determinant_zero_mod_p():
    m = [[1, 2], [3, 6 + 101]]  # determinant 101
    for field, expected in ((QQ, 2), (Field(101), 1)):
        a = Matrix.from_rows(m, field)
        assert rank(a) == expected
        assert nullspace(a) == _dense_nullspace(a)


def test_large_sparse_rank_is_fast():
    """wedge2, upper-tri(2), tensor-square, chain: delta_3 is 729 x 6561 with
    4,376 nonzeros; dense elimination took minutes on it."""
    t0 = time.monotonic()
    alg = upper_tri(2)
    cx = build_complex(make_spec(wedge_of_circles(2), alg, tensor_square_bimodule(alg),
                                 CHAIN, 3))
    m = cx.differentials[3]
    assert (m.rows, m.cols, len(m.entries)) == (729, 6561, 4376)
    assert rank(m) == rank(m.transpose())
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# matrix arithmetic against the entry-by-entry loops it replaced

def _loop_add(a, b):
    e = dict(a.entries)
    f = a.field
    for k, v in b.entries.items():
        s = f.add(e.get(k, f.zero()), v)
        if s == f.zero():
            e.pop(k, None)
        else:
            e[k] = s
    return Matrix._trusted(a.rows, a.cols, f, e)


def _loop_scale(a, s):
    s = a.field.of(s)
    return Matrix(a.rows, a.cols, a.field, {k: a.field.mul(v, s) for k, v in a.entries.items()})


def _loop_sub(a, b):
    return _loop_add(a, _loop_scale(b, a.field.neg(a.field.one())))


def _loop_mat_mul(a, b):
    f = a.field
    b_rows = {}
    for (r, c), v in b.entries.items():
        b_rows.setdefault(r, []).append((c, v))
    out = {}
    for (r, k), va in a.entries.items():
        for c, vb in b_rows.get(k, ()):
            key = (r, c)
            s = f.add(out.get(key, f.zero()), f.mul(va, vb))
            if s == f.zero():
                out.pop(key, None)
            else:
                out[key] = s
    return Matrix._trusted(a.rows, b.cols, f, out)


def _loop_matvec(a, vec):
    f = a.field
    out = [f.zero()] * a.rows
    for (r, c), v in a.entries.items():
        if vec[c] != f.zero():
            out[r] = f.add(out[r], f.mul(v, f.of(vec[c])))
    return out


def _typed(m):
    """Shape, field and entries with their Python types, so an int and an
    equal whole Fraction do not compare equal."""
    return (m.rows, m.cols, m.field, sorted((k, type(v).__name__, v) for k, v in m.entries.items()))


def _arith_case(rng, field, fractions, rows, cols):
    entries = {}
    for r in range(rows):
        for c in range(cols):
            if rng.random() < 0.4:
                v = Fraction(rng.randint(-6, 6))
                if fractions and rng.random() < 0.5:
                    v /= rng.randint(2, 9)
                entries[(r, c)] = v
    return Matrix(rows, cols, field, entries)


ARITH_FIELDS = [(QQ, False), (QQ, True), (Field(101), True)]


@pytest.mark.parametrize("field, fractions", ARITH_FIELDS,
                         ids=["Q-ints", "Q-fractions", "F(101)"])
def test_matrix_arithmetic_agrees_with_the_entry_loops(field, fractions):
    rng = random.Random(60 + (field.p or 0) + fractions)
    scalars = [0, 1, -1, 2, -7, Fraction(3, 7) if fractions else 5]
    for _ in range(200):
        rows, inner, cols = (rng.randint(0, 5) for _ in range(3))
        a = _arith_case(rng, field, fractions, rows, inner)
        b = _arith_case(rng, field, fractions, rows, inner)
        # about half of a's entries cancel exactly against b
        b = Matrix(rows, inner, field, b.entries | {
            k: field.neg(v) for k, v in a.entries.items() if rng.random() < 0.5})
        c = _arith_case(rng, field, fractions, inner, cols)
        for got, want in ((a + b, _loop_add(a, b)), (a - b, _loop_sub(a, b)),
                          (b - a, _loop_sub(b, a)), (a - a, _loop_sub(a, a)),
                          (a + a.scale(-1), _loop_add(a, _loop_scale(a, -1))),
                          (a * c, _loop_mat_mul(a, c)), (mat_mul(b, c), _loop_mat_mul(b, c))):
            assert _typed(got) == _typed(want)
        assert (a - a).is_zero() and (a + a.scale(-1)).is_zero()
        for s in scalars:
            assert _typed(a.scale(s)) == _typed(_loop_scale(a, s))
        assert a.scale(0).is_zero()
        vec = [rng.choice(scalars) for _ in range(inner)]
        got, want = a.matvec(vec), _loop_matvec(a, vec)
        assert [(type(v), v) for v in got] == [(type(v), v) for v in want]


def test_matrix_arithmetic_on_empty_matrices():
    for rows, cols in ((0, 0), (0, 3), (3, 0), (2, 2)):
        z = Matrix.zero(rows, cols)
        for m in (z + z, z - z, z.scale(5), z.scale(0)):
            assert _typed(m) == _typed(z)
        assert _typed(z * Matrix.zero(cols, 4)) == _typed(Matrix.zero(rows, 4))
        assert z.matvec([1] * cols) == [0] * rows
    assert _typed(Matrix.zero(2, 0) * Matrix.zero(0, 3)) == _typed(Matrix.zero(2, 3))
    with pytest.raises(ValueError):
        Matrix.zero(2, 2) + Matrix.zero(2, 3)
    with pytest.raises(ValueError):
        Matrix.zero(2, 2) - Matrix.zero(2, 2, Field(7))
