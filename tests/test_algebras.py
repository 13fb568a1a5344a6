import random
from fractions import Fraction

import pytest

from hochord.algebras import (Algebra, AlgebraError, center, commutator_span_dim, custom_algebra,
                              cyclic_group_algebra, is_commutative, matrix_algebra,
                              multiply, symmetric_group_algebra_s3, trunc_poly, unit_first,
                              upper_tri)
from hochord.exact import Field, Matrix, QQ


def test_trunc_poly_square_of_generator_vanishes():
    a = trunc_poly(2)
    x = a.basis_vector(1)
    assert multiply(a, x, x) == a.zero_vector()
    assert a.dim == 2 and a.basis_names == ("1", "x")


def test_unit_is_neutral():
    for alg in (trunc_poly(3), upper_tri(2), cyclic_group_algebra(4),
                matrix_algebra(2), symmetric_group_algebra_s3()):
        for i in range(alg.dim):
            v = alg.basis_vector(i)
            assert multiply(alg, alg.unit, v) == v
            assert multiply(alg, v, alg.unit) == v


def test_upper_tri_strictly_upper_square_vanishes():
    a = upper_tri(2)
    e12 = a.basis_vector(a.basis_index("e12"))
    assert multiply(a, e12, e12) == a.zero_vector()


def test_commutativity_predicate():
    assert is_commutative(trunc_poly(4))
    assert is_commutative(cyclic_group_algebra(3))
    assert not is_commutative(upper_tri(2))
    assert not is_commutative(matrix_algebra(2))
    assert not is_commutative(symmetric_group_algebra_s3())


def _center_by_brute_force(alg):
    # independent oracle: solve z*e_i - e_i*z = 0 directly over all basis e_i
    from hochord.exact import Matrix, nullspace
    d = alg.dim
    rows = []
    for a in range(d):
        ea = alg.basis_vector(a)
        for r in range(d):
            row = []
            for j in range(d):
                ej = alg.basis_vector(j)
                za = multiply(alg, ej, ea)
                az = multiply(alg, ea, ej)
                row.append(za[r] - az[r])
            rows.append(row)
    return nullspace(Matrix.from_rows(rows, alg.field))


def test_center_dimensions():
    assert len(center(upper_tri(2))) == 1
    assert len(center(matrix_algebra(2))) == 1
    assert len(center(trunc_poly(3))) == 3
    for alg in (upper_tri(2), matrix_algebra(2), trunc_poly(3)):
        assert len(center(alg)) == len(_center_by_brute_force(alg))


def test_center_closed_under_multiplication():
    for alg in (upper_tri(2), matrix_algebra(2), symmetric_group_algebra_s3()):
        basis = center(alg)
        for z in basis:
            for w in basis:
                prod = multiply(alg, z, w)
                # prod commutes with every basis element
                for i in range(alg.dim):
                    e = alg.basis_vector(i)
                    assert multiply(alg, prod, e) == multiply(alg, e, prod)


def test_commutator_span():
    assert commutator_span_dim(upper_tri(2)) == 1
    assert commutator_span_dim(trunc_poly(2)) == 0
    assert commutator_span_dim(matrix_algebra(2)) == 3


def test_group_algebra_c2_is_commutative_dim2():
    a = cyclic_group_algebra(2)
    assert a.dim == 2 and is_commutative(a)
    g = a.basis_vector(1)
    assert multiply(a, g, g) == a.basis_vector(0)


def test_prime_field_coefficients():
    a = trunc_poly(2, Field(5))
    x = a.basis_vector(1)
    assert multiply(a, x, x) == a.zero_vector()


def test_custom_algebra_rejects_nonassociative_table():
    # e1*e1 = e2, e2 acts as a second unit-ish element: break associativity
    table = [[[0, 1], [1, 0]], [[1, 0], [0, 0]]]
    with pytest.raises(AlgebraError) as err:
        custom_algebra("bad", QQ, ["e1", "e2"], [1, 0], table)
    assert "fails" in str(err.value)


def test_custom_algebra_rejects_bad_unit():
    # multiplication of C2 but with the unit claimed to be g
    ok = cyclic_group_algebra(2)
    table = [[list(cell) for cell in row] for row in ok.table]
    with pytest.raises(AlgebraError) as err:
        custom_algebra("bad-unit", QQ, ["1", "g"], [0, 1], table)
    assert "unit" in str(err.value)


def test_multiply_length_mismatch():
    a = trunc_poly(2)
    with pytest.raises(AlgebraError):
        multiply(a, (1, 0, 0), a.unit)


def test_s3_group_algebra_structure():
    a = symmetric_group_algebra_s3()
    assert a.dim == 6
    # a transposition squares to the identity
    t = a.basis_vector(a.basis_index("213"))
    assert multiply(a, t, t) == a.unit


def test_unit_first_keeps_an_algebra_whose_unit_is_a_basis_vector():
    a = trunc_poly(3)
    b, basis = unit_first(a)
    assert b is a
    assert basis == tuple(a.basis_vector(i) for i in range(3))


@pytest.mark.parametrize("field", [QQ, Field(101)])
def test_unit_first_replaces_e11_by_the_unit(field):
    a = matrix_algebra(2, field)
    b, basis = unit_first(a)
    assert b.unit == b.basis_vector(0)
    assert b.basis_names == ("e11+e22", "e12", "e21", "e22")
    assert basis[0] == a.unit and basis[1:] == tuple(a.basis_vector(i) for i in (1, 2, 3))
    # the basis change is multiplicative: b_i b_j in new coordinates, mapped
    # back through the basis, is the old product of the old vectors
    for i in range(4):
        for j in range(4):
            new = multiply(b, b.basis_vector(i), b.basis_vector(j))
            old = [field.zero()] * 4
            for k, c in enumerate(new):
                old = [field.add(o, field.mul(c, v)) for o, v in zip(old, basis[k])]
            assert tuple(old) == multiply(a, basis[i], basis[j])


def test_unit_first_rescales_a_scaled_unit():
    a = custom_algebra("half unit", QQ, ["u", "x"], [Fraction(1, 2), 0],
                       [[[2, 0], [0, 2]], [[0, 2], [0, 0]]])
    b, basis = unit_first(a)
    assert b.unit == (1, 0)
    assert basis[0] == (Fraction(1, 2), 0)
    assert b.table == trunc_poly(2).table


def test_multiply_coerces_its_operands():
    a = upper_tri(2)
    # a float is refused on either side, even where the other factor is zero
    with pytest.raises(TypeError, match="inexact scalar"):
        multiply(a, a.unit, (0.5, 0, 0))
    with pytest.raises(TypeError, match="inexact scalar"):
        multiply(a, a.zero_vector(), (0, 0.5, 0))
    # whole rationals come back as ints, other rationals in lowest terms
    got = multiply(a, (Fraction(4, 2), 0, "1/2"), a.unit)
    assert got == (2, 0, Fraction(1, 2)) and type(got[0]) is int
    assert multiply(a, a.unit, ("6/3", Fraction(0), 1)) == (2, 0, 1)
    f5 = Field(5)
    b = upper_tri(2, f5)
    assert multiply(b, (Fraction(1, 2), 0, 0), b.unit) == (3, 0, 0)
    for x, y in (((1, 0), a.unit), (a.unit, (1, 0, 0, 0))):
        with pytest.raises(AlgebraError, match="vector length mismatch: expected 3"):
            multiply(a, x, y)


def test_custom_algebra_refuses_a_short_table_or_row():
    with pytest.raises(AlgebraError, match=r"^structure-constant table is not dim\^3$"):
        custom_algebra("x", QQ, ["a", "b"], [1, 0], [[[1, 0]]])
    with pytest.raises(AlgebraError, match=r"^structure-constant table is not dim\^3$"):
        custom_algebra("x", QQ, ["a", "b"], [1, 0], [[[1, 0], [0, 1]], [[0, 1]]])
    # a longer table is refused the same way, not truncated
    one = [[[1]], [[1]]]
    with pytest.raises(AlgebraError, match=r"^structure-constant table is not dim\^3$"):
        custom_algebra("x", QQ, ["a"], [1], one)


def test_custom_algebra_refuses_a_repeated_basis_name():
    # the dual numbers' table, which passes every axiom, under the names x, x
    table = [[[1, 0], [0, 1]], [[0, 1], [0, 0]]]
    assert custom_algebra("d", QQ, ["one", "x"], [1, 0], table).basis_index("x") == 1
    with pytest.raises(AlgebraError, match=r"^basis name 'x' given more than once$"):
        custom_algebra("d", QQ, ["x", "x"], [1, 0], table)


# ---------------------------------------------------------------------------
# oracles: the dense implementations the sparse structure constants replaced

def _dense_multiply(alg, x, y):
    f = alg.field
    out = [f.zero()] * alg.dim
    for i, xi in enumerate(map(f.of, x)):
        for j, yj in enumerate(map(f.of, y)):
            if xi and yj:
                for l, c in enumerate(alg.table[i][j]):
                    out[l] = f.add(out[l], f.mul(f.mul(xi, yj), c))
    return tuple(out)


def _oracle_axiom_error(alg):
    """The first failing axiom as ``Algebra._check_axioms`` words it, or None;
    reads only ``alg.table``, ``alg.unit`` and the names."""
    d = alg.dim
    for i in range(d):
        ei = alg.basis_vector(i)
        if _dense_multiply(alg, alg.unit, ei) != ei or _dense_multiply(alg, ei, alg.unit) != ei:
            return f"unit axiom fails on basis element {alg.basis_names[i]}"
    for i in range(d):
        for j in range(d):
            for l in range(d):
                left = _dense_multiply(alg, alg.table[i][j], alg.basis_vector(l))
                right = _dense_multiply(alg, alg.basis_vector(i), alg.table[j][l])
                if left != right:
                    n = alg.basis_names
                    return f"associativity fails on triple ({n[i]}, {n[j]}, {n[l]})"
    return None


def _oracle_mult_matrix(alg, vec, left):
    f = alg.field
    entries = {}
    for j in range(alg.dim):
        ej = alg.basis_vector(j)
        col = _dense_multiply(alg, vec, ej) if left else _dense_multiply(alg, ej, vec)
        entries.update(((r, j), v) for r, v in enumerate(col) if v != f.zero())
    return Matrix(alg.dim, alg.dim, f, entries)


class _Unchecked:
    """An algebra's data with no checks, for the oracle to read."""

    def __init__(self, field, names, unit, table):
        self.field, self.basis_names, self.unit, self.table = field, names, unit, table
        self.dim = len(names)

    def basis_vector(self, i):
        return tuple(self.field.one() if j == i else self.field.zero() for j in range(self.dim))


@pytest.mark.parametrize("field", [QQ, Field(101)], ids=["Q", "F101"])
def test_sparse_structure_constants_agree_with_the_dense_oracles(field, oracle_algebras):
    rng = random.Random(11)
    for alg in oracle_algebras(field):
        assert alg.sparse == tuple(tuple(tuple((l, c) for l, c in enumerate(cell) if c)
                                         for cell in row) for row in alg.table)
        assert _oracle_axiom_error(alg) is None
        vectors = [alg.basis_vector(i) for i in range(alg.dim)] + [
            tuple(field.of(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
                  for _ in range(alg.dim)) for _ in range(3)]
        for x in vectors:
            assert alg.left_mult_matrix(x) == _oracle_mult_matrix(alg, x, True)
            assert alg.right_mult_matrix(x) == _oracle_mult_matrix(alg, x, False)
            for y in vectors:
                assert multiply(alg, x, y) == _dense_multiply(alg, x, y)


@pytest.mark.parametrize("field", [QQ, Field(101)], ids=["Q", "F101"])
def test_perturbed_structure_constants_fail_with_the_oracle_message(field):
    base = upper_tri(2, field)
    d, refused = base.dim, 0
    for i in range(d):
        for j in range(d):
            for l in range(d):
                table = [[list(cell) for cell in row] for row in base.table]
                table[i][j][l] = field.add(table[i][j][l], field.one())
                table = tuple(tuple(tuple(cell) for cell in row) for row in table)
                expected = _oracle_axiom_error(
                    _Unchecked(field, base.basis_names, base.unit, table))
                try:
                    Algebra("mutant", field, base.basis_names, base.unit, table)
                    got = None
                except AlgebraError as err:
                    got = str(err)
                assert got == expected, (i, j, l)
                refused += got is not None
    assert refused == d ** 3  # every single perturbation breaks an axiom
