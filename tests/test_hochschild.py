from collections import defaultdict
from fractions import Fraction

import pytest

from hochord.algebras import (commutator_span_dim, center, custom_algebra,
                              cyclic_group_algebra, multiply, trunc_poly, upper_tri)
from hochord.exact import Field, Matrix, QQ, nullspace, rank
from hochord.functors import hom_functor_on_morphism, loday_on_morphism, pointed_map
from hochord.hochschild import (CHAIN, COCHAIN, ComplexError, ComplexSpec,
                                OrderingRefusal, _Assembler, _missed_slots,
                                _resolve, _unit_first_spec, face_pointed_map,
                                build_complex, classical_complex,
                                cosimplicial_check, is_subsimplicial, make_spec,
                                pair_constraints)
from hochord.modules import (dual_module, regular_bimodule, symmetric_module,
                             tensor_square_bimodule)
from hochord import exact, functors, hochschild, ordering
from hochord.ordering import (OrderingAssignment, assignment_from_level_orders,
                              cyclic_ordering, search_nncmo)
from hochord.simplicial import (BUILTIN_SETS, NondegSimplex, SimplexRef, SimplicialSet,
                                circle, fibers, from_file, interval, point, sphere2,
                                wedge_of_circles)


# ---------------------------------------------------------------------------
# independent dense oracle for the classical chain complex

def _dense_classical_chain_betti(alg, max_degree):
    """Direct dense construction of the textbook chain complex of (A, A) from
    the three-case face formula, with plain list-of-lists Gauss elimination.
    Shares nothing with the library's matrix stack."""
    da = alg.dim

    def basis(n):
        # tuples (m, a_1..a_n)
        out = [[]]
        for _ in range(n + 1):
            out = [t + [i] for t in out for i in range(da)]
        return [tuple(t) for t in out]

    def mul(i, j):
        return alg.table[i][j]

    def face(n, i, t):
        m, rest = t[0], list(t[1:])
        out = {}
        if i == 0:
            for k, c in enumerate(mul(m, rest[0])):
                if c:
                    out[(k, *rest[1:])] = c
        elif i == n:
            for k, c in enumerate(mul(rest[-1], m)):
                if c:
                    out[(k, *rest[:-1])] = c
        else:
            for k, c in enumerate(mul(rest[i - 1], rest[i])):
                if c:
                    out[(m, *rest[:i - 1], k, *rest[i + 1:])] = c
        return out

    def differential(n):
        src, dst = basis(n), basis(n - 1)
        index = {t: k for k, t in enumerate(dst)}
        mat = [[Fraction(0)] * len(src) for _ in range(len(dst))]
        for col, t in enumerate(src):
            for i in range(n + 1):
                sign = -1 if i % 2 else 1
                for u, c in face(n, i, t).items():
                    mat[index[u]][col] += sign * Fraction(c)
        return mat

    def dense_rank(m):
        if not m or not m[0]:
            return 0
        m = [row[:] for row in m]
        rows, cols = len(m), len(m[0])
        r = 0
        for c in range(cols):
            piv = next((i for i in range(r, rows) if m[i][c] != 0), None)
            if piv is None:
                continue
            m[r], m[piv] = m[piv], m[r]
            for i in range(rows):
                if i != r and m[i][c] != 0:
                    f = m[i][c] / m[r][c]
                    m[i] = [m[i][j] - f * m[r][j] for j in range(cols)]
            r += 1
        return r

    diffs = {n: differential(n) for n in range(1, max_degree + 2)}
    ranks = {n: dense_rank(d) for n, d in diffs.items()}
    betti = []
    for n in range(max_degree + 1):
        dim_n = da ** (n + 1)
        betti.append(dim_n - ranks.get(n, 0) - ranks.get(n + 1, 0))
    return betti


def test_classical_chain_of_unit_algebra():
    k = trunc_poly(1)
    c = classical_complex(k, regular_bimodule(k), CHAIN, 4)
    assert c.dims == (1, 1, 1, 1, 1)
    assert c.betti[:4] == (1, 0, 0, 0)
    assert c.verify_square_zero()


def test_classical_chain_matches_dense_oracle():
    alg = trunc_poly(2)
    c = classical_complex(alg, regular_bimodule(alg), CHAIN, 4)
    expected = _dense_classical_chain_betti(alg, 3)
    assert list(c.betti[:4]) == expected[:4]
    assert c.betti[0] == 2


def test_classical_hh0_is_commutator_quotient():
    for alg in (upper_tri(2), trunc_poly(2), cyclic_group_algebra(2)):
        c = classical_complex(alg, regular_bimodule(alg), CHAIN, 2)
        assert c.betti[0] == alg.dim - commutator_span_dim(alg)


def test_classical_cochain_hh0_is_center():
    for alg in (upper_tri(2), trunc_poly(2)):
        c = classical_complex(alg, regular_bimodule(alg), COCHAIN, 2)
        assert c.betti[0] == len(center(alg))


@pytest.mark.parametrize("field", [QQ, Field(101)], ids=["Q", "F101"])
def test_circle_equals_classical_matrixwise(field, oracle_algebras):
    """The circle's complex and the classical one, entry by entry, on the
    oracle algebras with the regular bimodule and its dual."""
    for alg in oracle_algebras(field):
        D = 3 if alg.dim <= 3 else 2
        for mod in (regular_bimodule(alg), dual_module(regular_bimodule(alg))):
            for variant in (CHAIN, COCHAIN):
                built = build_complex(make_spec(circle(), alg, mod, variant, D))
                classic = classical_complex(alg, mod, variant, D)
                assert built.dims == classic.dims
                assert built.differentials.keys() == classic.differentials.keys()
                for n, mat in built.differentials.items():
                    assert mat == classic.differentials[n], (alg.name, mod.name, variant, n)


def test_square_zero_for_sphere_with_commutative_algebra():
    alg = trunc_poly(2)
    spec = make_spec(sphere2(), alg, symmetric_module(alg), CHAIN, 3)
    c = build_complex(spec)
    assert c.verify_square_zero()


def test_refusal_without_assignment():
    alg = upper_tri(2)
    spec = ComplexSpec(sphere2(), alg, regular_bimodule(alg), COCHAIN, 3)
    with pytest.raises(OrderingRefusal) as err:
        build_complex(spec)
    assert err.value.witness is not None
    assert err.value.witness.kind == "absolute"
    # one-dimensional set without a certificate: refusal asks for one
    spec2 = ComplexSpec(circle(), alg, regular_bimodule(alg), COCHAIN, 3)
    with pytest.raises(OrderingRefusal) as err2:
        build_complex(spec2)
    assert err2.value.witness is None


def test_refusal_with_inconsistent_assignment():
    alg = upper_tri(2)
    X = circle()
    good = assignment_from_level_orders(X, cyclic_ordering(X, 3), 3)
    orders = dict(good.orders)
    key = (2, 1, SimplexRef(X.id_of("e")))
    orders[key] = tuple(reversed(orders[key]))
    bad = OrderingAssignment(X, 3, orders)
    spec = ComplexSpec(X, alg, regular_bimodule(alg), COCHAIN, 3, assignment=bad)
    with pytest.raises(OrderingRefusal) as err:
        build_complex(spec)
    assert err.value.witness is not None and err.value.witness.kind == "assignment"


@pytest.mark.parametrize("alg", [upper_tri(2), trunc_poly(2)], ids=["upper-tri", "trunc-poly"])
def test_certificate_for_another_set_is_refused(alg):
    for X, Y in ((circle(), wedge_of_circles(2)), (circle(), interval()),
                 (wedge_of_circles(2), circle())):
        spec = ComplexSpec(X, alg, regular_bimodule(alg), CHAIN, 3,
                           assignment=ordering.classify_nncmo(Y, 3).assignment)
        with pytest.raises(ordering.OrderingError,
                           match=f"built for the set '{Y.name}', not for '{X.name}'"):
            build_complex(spec)


@pytest.mark.parametrize("alg", [upper_tri(2), trunc_poly(2)], ids=["upper-tri", "trunc-poly"])
def test_supplied_certificate_is_checked_whatever_the_algebra(alg):
    # the face maps read a supplied certificate even over a commutative
    # algebra, so its cutoff and its set are checked before any is built
    short = ordering.classify_nncmo(circle(), 3).assignment
    for X in (circle(), wedge_of_circles(2)):
        spec = ComplexSpec(X, alg, regular_bimodule(alg), CHAIN, 4, assignment=short)
        with pytest.raises(OrderingRefusal, match="assignment cutoff 3 is below max_degree 4"):
            build_complex(spec)
    for D in (4, 1):  # at D=1 a cutoff-1 certificate is not gated by typing
        spec = ComplexSpec(wedge_of_circles(2), alg, regular_bimodule(alg), CHAIN, D,
                           assignment=ordering.classify_nncmo(circle(), D).assignment)
        with pytest.raises(ordering.OrderingError,
                           match="built for the set 'circle', not for 'wedge2'"):
            build_complex(spec)


def test_refusal_without_assignment_names_no_dimension_cause():
    # the theta graph is one-dimensional yet has no multiplicative ordering
    X = from_file("""
basepoint v0
simplex v0 dim=0
simplex p dim=0
simplex a dim=1 faces=[p, v0]
simplex b dim=1 faces=[p, v0]
simplex c dim=1 faces=[p, v0]
""")
    assert X.dimension() == 1
    alg = upper_tri(2)
    spec = ComplexSpec(X, alg, regular_bimodule(alg), COCHAIN, 3)
    with pytest.raises(OrderingRefusal) as err:
        build_complex(spec)
    assert err.value.witness is not None and err.value.witness.level == 2
    assert "not one-dimensional" not in str(err.value)
    assert "no multiplicative ordering exists" in str(err.value)


def test_point_betti():
    alg = upper_tri(2)
    mod = regular_bimodule(alg)
    c = build_complex(make_spec(point(), alg, mod, COCHAIN, 3))
    assert c.dims == (3, 3, 3, 3)
    assert c.betti[0] == mod.dim and c.betti[1] == 0 and c.betti[2] == 0


def test_dims_follow_the_level_sizes():
    alg = trunc_poly(2)
    mod = symmetric_module(alg)
    X = sphere2()
    c = build_complex(make_spec(X, alg, mod, CHAIN, 4))
    for n in range(5):
        assert c.dims[n] == mod.dim * alg.dim ** (len(X.level(n)) - 1)


def test_betti_degree_out_of_range():
    from hochord.hochschild import betti
    alg = trunc_poly(2)
    c = build_complex(make_spec(circle(), alg, symmetric_module(alg), CHAIN, 2))
    assert betti(c, 0) == 2
    with pytest.raises(ComplexError):
        betti(c, 3)
    assert c.caveat_degrees == (2,)


def test_circle_hh0_oracles_via_pipeline():
    for alg, expected in ((upper_tri(2), (1, 2)), (trunc_poly(2), (2, 2))):
        mod = regular_bimodule(alg)
        co = build_complex(make_spec(circle(), alg, mod, COCHAIN, 2))
        ch = build_complex(make_spec(circle(), alg, mod, CHAIN, 2))
        assert co.betti[0] == expected[0] == len(center(alg))
        assert ch.betti[0] == expected[1] == alg.dim - commutator_span_dim(alg)


def test_normalized_point_collapses():
    alg = trunc_poly(2)
    mod = symmetric_module(alg)
    c = build_complex(make_spec(point(), alg, mod, CHAIN, 3, normalized=True))
    assert c.dims == (2, 0, 0, 0)


def test_normalized_betti_agrees():
    alg = trunc_poly(2)
    mod = symmetric_module(alg)
    for X in (circle(), wedge_of_circles(2)):
        for variant in (CHAIN, COCHAIN):
            plain = build_complex(make_spec(X, alg, mod, variant, 3))
            norm = build_complex(make_spec(X, alg, mod, variant, 3, normalized=True))
            assert all(n <= p for n, p in zip(norm.dims, plain.dims))
            assert norm.betti[:3] == plain.betti[:3]
            assert norm.verify_square_zero()


def test_cosimplicial_check_passes_and_detects_mutation():
    alg = upper_tri(2)
    X = circle()
    mod = regular_bimodule(alg)
    good = make_spec(X, alg, mod, COCHAIN, 3)
    assert cosimplicial_check(good, 3) == []
    orders = dict(good.assignment.orders)
    key = (2, 1, SimplexRef(X.id_of("e")))
    orders[key] = tuple(reversed(orders[key]))
    bad = ComplexSpec(X, alg, mod, COCHAIN, 3,
                      assignment=OrderingAssignment(X, 3, orders))
    problems = cosimplicial_check(bad, 3)
    assert problems and any("d_" in p for p in problems)


def test_cosimplicial_check_refuses_a_cutoff_above_the_certificate():
    alg = upper_tri(2)
    spec = make_spec(circle(), alg, regular_bimodule(alg), COCHAIN, 2)
    with pytest.raises(ComplexError, match="assignment cutoff 2 is below the check cutoff 3"):
        cosimplicial_check(spec, 3)
    assert cosimplicial_check(spec, 2) == []


def test_cosimplicial_check_commutative_sphere():
    alg = trunc_poly(2)
    spec = make_spec(sphere2(), alg, symmetric_module(alg), COCHAIN, 3)
    assert cosimplicial_check(spec, 3) == []


def _supplied_certificate(set_name):
    """A valid certificate other than the canonical one: the search's on the
    interval, the reversed cyclic level orders on the circle."""
    if set_name == "interval":
        X = interval()
        return X, search_nncmo(X, 3).assignment
    X = circle()
    orders = {n: tuple(reversed(o)) for n, o in cyclic_ordering(X, 3).items()}
    return X, assignment_from_level_orders(X, orders, 3)


@pytest.mark.parametrize("set_name", ["interval", "circle"])
@pytest.mark.parametrize("module", [regular_bimodule, tensor_square_bimodule])
@pytest.mark.parametrize("variant", [CHAIN, COCHAIN])
def test_supplied_certificate_types_the_classes_it_orders(set_name, module, variant):
    X, cert = _supplied_certificate(set_name)
    alg = upper_tri(2)
    mod = module(alg)
    canonical = make_spec(X, alg, mod, variant, 3)
    assert cert.orders != canonical.assignment.orders
    spec = ComplexSpec(X, alg, mod, variant, 3, assignment=cert)
    c = build_complex(spec)
    assert c.verify_square_zero()
    assert c.betti == build_complex(canonical).betti
    assert cosimplicial_check(spec, 3) == []


def test_one_certificate_derivation_per_build(monkeypatch):
    calls = []
    original = ordering.classify_nncmo

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(ordering, "classify_nncmo", counting)
    monkeypatch.setattr(hochschild, "classify_nncmo", counting)
    alg = upper_tri(2)
    build_complex(make_spec(circle(), alg, regular_bimodule(alg), COCHAIN, 3))
    assert len(calls) == 1


def test_cochain_is_transpose_of_chain_over_the_dual_module():
    alg = upper_tri(2)
    mod = regular_bimodule(alg)
    dual = dual_module(mod)
    co = build_complex(make_spec(circle(), alg, mod, COCHAIN, 3))
    ch = build_complex(make_spec(circle(), alg, dual, CHAIN, 3))
    for n in co.differentials:
        assert co.differentials[n] == ch.differentials[n + 1].transpose()


def test_prime_field_complex():
    alg = trunc_poly(2, Field(7))
    mod = symmetric_module(alg)
    c = build_complex(make_spec(circle(), alg, mod, CHAIN, 3))
    assert c.verify_square_zero()
    assert c.betti[0] == 2


# ---------------------------------------------------------------------------
# canonical scalars and one-pass assembly

def _half_unit(field=QQ):
    """k[x]/(x^2) on the basis 2, x: the unit is (1/2, 0), and products such
    as (1/2)*2 must come out as the int 1."""
    return custom_algebra("half unit", field, ["u", "x"], [Fraction(1, 2), 0],
                          [[[2, 0], [0, 2]], [[0, 2], [0, 0]]])


def _half_basis(field=QQ):
    """k[x]/(x^2) on the basis 1/2, x: the unit is (2, 0) and the structure
    constants are 1/2, so the plain differentials hold proper fractions."""
    h = Fraction(1, 2)
    return custom_algebra("half basis", field, ["u", "x"], [2, 0],
                          [[[h, 0], [0, h]], [[0, h], [0, 0]]])


# (set, algebra, module, max degree): the bundled complexes of the acceptance
# suite, one degree lower, and k[x]/(x^2) on two bases with fractional units
CANONICAL_CASES = [
    (point, trunc_poly(2), symmetric_module, 3),
    (point, upper_tri(2), regular_bimodule, 3),
    (interval, trunc_poly(2), symmetric_module, 3),
    (interval, upper_tri(2), regular_bimodule, 3),
    (circle, trunc_poly(2), symmetric_module, 3),
    (circle, upper_tri(2), regular_bimodule, 3),
    (circle, cyclic_group_algebra(2), regular_bimodule, 3),
    (lambda: wedge_of_circles(2), trunc_poly(2), symmetric_module, 2),
    (lambda: wedge_of_circles(2), upper_tri(2), tensor_square_bimodule, 2),
    (lambda: wedge_of_circles(3), trunc_poly(2), symmetric_module, 2),
    (sphere2, trunc_poly(2), symmetric_module, 3),
    (circle, _half_unit(), regular_bimodule, 3),
    (sphere2, _half_unit(), symmetric_module, 3),
    (circle, _half_basis(), regular_bimodule, 3),
    (sphere2, _half_basis(), symmetric_module, 3),
]


@pytest.mark.parametrize("case", range(len(CANONICAL_CASES)))
def test_differentials_are_canonical_over_q(case):
    builder, alg, module, degree = CANONICAL_CASES[case]
    X = builder()
    fractions = 0
    for variant in (CHAIN, COCHAIN):
        for normalized in (False, True):
            spec = make_spec(X, alg, module(alg), variant, degree, normalized=normalized)
            for m in build_complex(spec).differentials.values():
                for v in m.entries.values():
                    assert type(v) is int or (type(v) is Fraction and v.denominator != 1)
                    fractions += type(v) is Fraction
                # the trusted constructor holds what the public one would build
                assert Matrix(m.rows, m.cols, m.field, m.entries) == m
    assert (fractions > 0) == (alg.name == "half basis")


def _validated_face_map(X, level, i, assignment):
    """d_i from ``level`` through the public, validating ``pointed_map``, its
    fibers grouped afresh from the face table rather than read from
    ``face_fibers``."""
    images = X.face_table(level)[i]
    ranks = None if assignment is None else assignment.ranks(level, i).__getitem__
    orders = {t: tuple(members if ranks is None else sorted(members, key=ranks))
              for t, members in fibers(images).items()}
    return pointed_map(len(images) - 1, len(X.level(level - 1)) - 1, images, orders)


def test_trusted_face_maps_equal_the_validated_ones(one_dimensional_family):
    """Every face map the build makes without validation, on the bundled sets
    to level 5 and the family (bigon, theta and edge-plus-loop among it) to
    its cutoff, in level order and under each certificate found."""
    cases = []
    for builder in BUILTIN_SETS.values():
        X = builder()
        found = (ordering.classify_nncmo(X, 5), search_nncmo(X, 5))
        cases += [(X, 5, r.assignment if r.admits else None) for r in found]
    for member in one_dimensional_family:
        found = (member.canonical, member.searched)
        cases += [(member.X, member.cutoff, getattr(r, "assignment", None)) for r in found]
    # an action table with no action at any site: only the maps are compared
    no_actions = defaultdict(lambda: defaultdict(lambda: defaultdict(lambda: None)))
    checked = 0
    for X, cutoff, assignment in cases:
        for level in range(1, cutoff + 1):
            for i in range(level + 1):
                phi, _ = face_pointed_map(X, level, i, assignment, no_actions)
                assert phi == _validated_face_map(X, level, i, assignment), (X.name, level, i)
                checked += 1
    # two cases per set; levels 1..5 have 20 face maps, levels 1..3 have 9
    assert checked == 2 * 20 * len(BUILTIN_SETS) + 2 * 9 * len(one_dimensional_family)


def _moved(items, rows, cols):
    """Matrix entries moved to the positions ``rows[r]``, ``cols[c]``; an
    entry whose row or column maps to None is dropped."""
    for (r, c), v in items:
        r, c = rows[r], cols[c]
        if r is not None and c is not None:
            yield (r, c), v


def _accumulated_differential(asm, n, face_matrix=None):
    """The differential summed entry by entry with ``Field.add``/``Field.sub``
    over standalone face matrices, each face's entries moved to kept
    positions first.  The faces come from ``face_matrix``, by default the
    assembler's own."""
    face_matrix = face_matrix or asm.face_matrix
    f = asm.spec.algebra.field
    chain = asm.spec.variant == CHAIN
    level = n if chain else n + 1
    row_deg, col_deg = (n - 1, n) if chain else (n + 1, n)
    entries = {}
    for i in range(level + 1):
        combine = f.sub if i % 2 else f.add
        items = face_matrix(level, i).entries.items()
        if asm.kept:
            items = _moved(items, asm.kept[row_deg][1], asm.kept[col_deg][1])
        for k, v in items:
            s = combine(entries.get(k, 0), v)
            if s:
                entries[k] = s
            else:
                del entries[k]
    return Matrix(asm.degree_dim(row_deg), asm.degree_dim(col_deg), f, entries)


def _assembler(spec):
    """The assembler ``build_complex`` uses for ``spec``."""
    actions = _resolve(spec)
    if spec.normalized:
        spec = _unit_first_spec(spec)
    return _Assembler(spec, actions, spec.normalized)


def _stateless_face_matrix(asm):
    """``asm.face_matrix`` rebuilt from ``face_pointed_map`` and the public
    functor entry points, with no state shared between calls: the masks of
    each level are recomputed and no composite is memoized."""
    spec = asm.spec
    functor = loday_on_morphism if spec.variant == CHAIN else hom_functor_on_morphism

    def face_matrix(level, i):
        phi, actions = face_pointed_map(spec.X, level, i, spec.assignment, asm.actions)
        missed = _missed_slots(spec.X, level) if asm.kept else ()
        return functor(spec.algebra, spec.module, phi, actions, missed)
    return face_matrix


@pytest.mark.parametrize("case", [0, 5, 8, 10, 11, 13])
@pytest.mark.parametrize("p", [None, 7])
@pytest.mark.parametrize("normalized", [False, True])
def test_one_pass_differential_is_the_signed_sum_of_faces(case, p, normalized):
    builder, alg, module, degree = CANONICAL_CASES[case]
    alg = custom_algebra(alg.name, Field(p), alg.basis_names, alg.unit, alg.table)
    X = builder()
    for variant in (CHAIN, COCHAIN):
        asm = _assembler(make_spec(X, alg, module(alg), variant, degree, normalized=normalized))
        for n in range(1, degree + 1) if variant == CHAIN else range(degree):
            got = asm.differential(n)
            want = _accumulated_differential(asm, n)
            entries = got.entries
            assert got == want and all(type(entries[k]) is type(v)
                                       for k, v in want.entries.items()), (variant, n)
            assert got == _accumulated_differential(asm, n, _stateless_face_matrix(asm))
            if not normalized:
                level = n if variant == CHAIN else n + 1
                faces = [asm.face_matrix(level, i).scale((-1) ** i) for i in range(level + 1)]
                total = faces[0]
                for m in faces[1:]:
                    total = total + m
                assert got == total, (variant, n)


@pytest.mark.parametrize("variant", [CHAIN, COCHAIN])
@pytest.mark.parametrize("case", ["wedge2-upper-tri-tensor-square",
                                  "sphere2-trunc-poly-symmetric"])
def test_normalized_build_shares_its_level_and_composite_state(case, variant, monkeypatch):
    # one _Degeneracies per level, shared by the kept indices and every face
    # matrix of the level, and one multiplication per distinct basepoint
    # operator composite of the build
    builder, algebra, module = {
        "wedge2-upper-tri-tensor-square": (lambda: wedge_of_circles(2), upper_tri,
                                           tensor_square_bimodule),
        "sphere2-trunc-poly-symmetric": (sphere2, trunc_poly, symmetric_module)}[case]
    alg, D = algebra(2), 4
    spec = make_spec(builder(), alg, module(alg), variant, D, normalized=True)
    made, products = [0], [0]
    init, mat_mul = functors._Degeneracies.__init__, exact.mat_mul

    def counted_init(self, *args):
        made[0] += 1
        init(self, *args)

    def counted_mul(a, b):
        products[0] += 1
        return mat_mul(a, b)

    monkeypatch.setattr(functors._Degeneracies, "__init__", counted_init)
    build_complex(spec)
    assert made[0] == D + 1
    asm = _assembler(spec)
    monkeypatch.setattr(exact, "mat_mul", counted_mul)
    for n in range(1, D + 1) if variant == CHAIN else range(D):
        asm.differential(n)
    monkeypatch.undo()
    composites = {key: m for key, m in asm.composites.items() if key}  # () is the identity
    assert max(map(len, composites)) >= 2 and products[0] == len(composites)
    operators = {name: a.operators for name, a in asm.spec.module.actions.items()}
    for key, m in composites.items():
        want = operators[key[0][0]][key[0][1]]
        for name, c in key[1:]:
            want = operators[name][c] * want
        assert m == want, key


@pytest.mark.parametrize("variant", [CHAIN, COCHAIN])
@pytest.mark.parametrize("normalized", [False, True])
def test_differential_builds_no_face_matrix(monkeypatch, variant, normalized):
    """``differential`` writes every face's terms into its own row table: no
    ``Matrix`` is built but the differential and operator composites
    (module-sized), and neither a face matrix nor a functor entry point is
    asked for.  It equals the signed sum of standalone face matrices from
    the public entry points, with no state shared between them."""
    alg = trunc_poly(2)
    spec = make_spec(sphere2(), alg, symmetric_module(alg), variant, 4, normalized=normalized)
    asm = _assembler(spec)
    dm = spec.module.dim
    built = []
    fill = Matrix._fill

    def recorded(self, rows, cols, *rest):
        built.append((rows, cols))
        fill(self, rows, cols, *rest)

    def refused(*args, **kwargs):
        raise AssertionError("a face matrix was built")

    monkeypatch.setattr(Matrix, "_fill", recorded)
    for module, name in ((functors, "_functor_matrix"), (functors, "loday_on_morphism"),
                         (functors, "hom_functor_on_morphism"),
                         (hochschild, "loday_on_morphism"),
                         (hochschild, "hom_functor_on_morphism")):
        monkeypatch.setattr(module, name, refused)
    monkeypatch.setattr(asm, "face_matrix", refused)
    degrees = range(1, 5) if variant == CHAIN else range(4)
    got = {}
    for n in degrees:
        built.clear()
        got[n] = asm.differential(n)
        assert built[-1] == (got[n].rows, got[n].cols)
        assert all(shape == (dm, dm) for shape in built[:-1]), (n, built)
    monkeypatch.undo()
    for n in degrees:
        assert got[n] == _accumulated_differential(asm, n, _stateless_face_matrix(asm))


@pytest.mark.parametrize("variant", [CHAIN, COCHAIN])
@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_caveat_is_the_top_degree_and_ranks_nothing(monkeypatch, variant, degree):
    alg = upper_tri(2)
    c = build_complex(make_spec(circle(), alg, regular_bimodule(alg), variant, degree))
    calls = []
    original = hochschild.rank
    monkeypatch.setattr(hochschild, "rank",
                        lambda m, pivots: calls.append(m) or original(m, pivots))
    assert c.caveat_degrees == (degree,)
    assert calls == []
    # dims[n] - rank_n - rank_{n+1} (chain) or - rank_{n-1} (cochain); the
    # top degree lacks the next differential
    ranks = {n: rank(m) for n, m in c.differentials.items()}
    step = 1 if variant == CHAIN else -1
    assert c.betti == tuple(c.dims[n] - ranks.get(n, 0) - ranks.get(n + step, 0)
                            for n in range(degree + 1))
    # one elimination per differential, in ascending degree, each on the
    # chain-oriented matrix C_{k+1} -> C_k less the rows of the previous
    # rank's pivot columns
    below = [0] + [ranks[n] for n in sorted(ranks)][:-1]
    assert [(m.rows, m.cols) for m in calls] == [(c.dims[k] - below[k], c.dims[k + 1])
                                                 for k in range(degree)]
    # the circle computes HH of upper-tri(2): HH^0 is the one-dimensional
    # center, HH_0 = A/[A, A] has dimension 2, and both vanish above degree 0
    assert c.betti[:degree] == ((2 if variant == CHAIN else 1),) + (0,) * (degree - 1)
    assert c.caveat_degrees == (degree,)


def _unreduced_betti(c):
    """dims minus the rank of each differential on its own: the oracle of the
    ordered pass, sharing only the elimination kernel with it."""
    ranks = {n: rank(m) for n, m in c.differentials.items()}
    step = 1 if c.variant == CHAIN else -1
    return tuple(c.dims[n] - ranks.get(n, 0) - ranks.get(n + step, 0)
                 for n in range(len(c.dims)))


def _checked_builds(X, alg, module, D):
    """The square-zero builds of X with these coefficients, chain and cochain,
    plain and normalized; refused builds and builds that are not complexes
    (whose ranks the pass does not claim) are left out."""
    for variant in (CHAIN, COCHAIN):
        for normalized in (False, True):
            try:
                c = build_complex(make_spec(X, alg, module, variant, D, normalized=normalized))
            except ComplexError:
                continue
            if c.verify_square_zero():
                yield c


@pytest.mark.parametrize("p", [None, 3], ids=["Q", "F3"])
def test_ordered_pass_matches_the_unreduced_ranks_on_the_bundled_sets(p):
    checked = 0
    for alg, module in ((trunc_poly(2, Field(p)), regular_bimodule),
                        (upper_tri(2, Field(p)), tensor_square_bimodule)):
        for name in ("point", "interval", "circle", "wedge2", "wedge3", "sphere2"):
            for c in _checked_builds(BUILTIN_SETS[name](), alg, module(alg), 3):
                assert c.betti == _unreduced_betti(c), (name, alg.name, c.variant)
                checked += 1
    assert checked == 40  # sphere2 refuses upper-tri(2)


@pytest.mark.parametrize("p", [None, 3], ids=["Q", "F3"])
def test_ordered_pass_matches_the_unreduced_ranks_on_the_family(one_dimensional_family, p):
    alg = trunc_poly(2, Field(p))
    module, checked = regular_bimodule(alg), 0
    for member in one_dimensional_family:
        for c in _checked_builds(member.X, alg, module, 2):
            assert c.betti == _unreduced_betti(c), (member.X.name, c.variant)
            checked += 1
    assert checked == 4 * len(one_dimensional_family)


def test_clearing_drops_rows_on_the_normalized_wedge2_cochain(monkeypatch):
    """wedge2, trunc-poly(2), cochain, D=4, normalized: the pass ranks the
    transpose of each δ^n less one row per pivot column of the rank below,
    so the cleared matrices have fewer rows than the differentials have
    columns, and the Betti numbers are still the unreduced ones."""
    alg = trunc_poly(2)
    c = build_complex(make_spec(wedge_of_circles(2), alg, regular_bimodule(alg), COCHAIN, 4,
                                normalized=True))
    calls = []
    original = hochschild.rank
    monkeypatch.setattr(hochschild, "rank",
                        lambda m, pivots: calls.append(m) or original(m, pivots))
    assert c.betti == _unreduced_betti(c)
    ranks = [rank(c.differentials[n]) for n in range(4)]
    assert [(m.rows, m.cols) for m in calls] == [
        (c.dims[n] - (ranks[n - 1] if n else 0), c.dims[n + 1]) for n in range(4)]
    dropped = [c.differentials[n].cols - m.rows for n, m in enumerate(calls)]
    assert dropped == [0, 0, 4, 11]  # δ^0 is zero on the normalized complex


def test_normalized_build_constructs_no_fraction(fraction_count):
    """wedge2, trunc-poly(2), symmetric module, chain, D=5, normalized: every
    structure constant is an integer, so no scalar needs a Fraction."""
    alg = trunc_poly(2)
    c = build_complex(make_spec(wedge_of_circles(2), alg, symmetric_module(alg), CHAIN, 5,
                                normalized=True))
    assert len(c.betti) == 6 and c.betti[0] == 2  # H_0 is the module k[x]/(x^2)
    assert fraction_count == [0]


# ---------------------------------------------------------------------------
# pairs of simplicial sets

def _sphere_with_circle():
    bp_edge = SimplexRef(0, (0,))
    return SimplicialSet("sphere2+circle", "v0", [
        NondegSimplex("v0", 0, ()),
        NondegSimplex("e", 1, (SimplexRef(0), SimplexRef(0))),
        NondegSimplex("sigma", 2, (bp_edge, bp_edge, bp_edge)),
    ])


def test_pair_constraints_cases():
    c = circle()
    assert pair_constraints(c, c)["verdict"] == "both-noncommutative"
    y = _sphere_with_circle()
    assert pair_constraints(c, y)["verdict"] == "A-noncommutative-epsilonB-central"
    s = sphere2()
    assert pair_constraints(s, s)["verdict"] == "both-commutative"


def test_pair_constraints_requires_containment():
    assert not is_subsimplicial(wedge_of_circles(2), circle())
    with pytest.raises(ComplexError):
        pair_constraints(wedge_of_circles(2), circle())
    # same name, different faces: not a subset either
    other = SimplicialSet("circle", "v0", [
        NondegSimplex("v0", 0, ()),
        NondegSimplex("w", 0, ()),
        NondegSimplex("e", 1, (SimplexRef(1), SimplexRef(0))),
    ])
    assert not is_subsimplicial(circle(), other)


def test_subsimplicial_check_lets_a_fault_in_the_lookup_propagate(monkeypatch):
    # only an unknown name (SimplicialError) means "not a subset"; any other
    # error from the ambient set's lookup is a fault and is not read as one
    with_extra = from_file("basepoint v0\nsimplex v0 dim=0\nsimplex w dim=0\n"
                           "simplex e dim=1 faces=[v0, v0]\nsimplex f dim=1 faces=[w, v0]\n",
                           "circle plus a leg")
    assert is_subsimplicial(circle(), with_extra)
    with pytest.raises(ComplexError, match="not a sub-simplicial-set"):
        pair_constraints(with_extra, circle())

    def broken(self, name):
        raise RuntimeError("lookup fault")

    monkeypatch.setattr(SimplicialSet, "id_of", broken)
    with pytest.raises(RuntimeError, match="lookup fault"):
        is_subsimplicial(circle(), circle())


def test_wedge_noncommutative_with_tensor_square_module():
    from hochord.modules import tensor_square_bimodule
    alg = upper_tri(2)
    mod = tensor_square_bimodule(alg)
    for variant in (CHAIN, COCHAIN):
        c = build_complex(make_spec(wedge_of_circles(2), alg, mod, variant, 2))
        assert c.verify_square_zero()


def test_simultaneous_same_action_is_rejected():
    # mapping both wedge left-classes to one noncommuting action must refuse
    from hochord.modules import tensor_square_bimodule
    from hochord.ordering import classify_actions
    alg = upper_tri(2)
    mod = tensor_square_bimodule(alg)
    X = wedge_of_circles(2)
    classes = classify_actions(X, 2)
    amap = {}
    for c in classes.classes:
        amap[c.class_id] = "left1" if c.action_type == "left" else "right1"
    spec = make_spec(X, alg, mod, COCHAIN, 2)
    spec = ComplexSpec(X, alg, mod, COCHAIN, 2, assignment=spec.assignment,
                       action_map=amap)
    with pytest.raises(ComplexError) as err:
        build_complex(spec)
    assert "do not commute" in str(err.value)


def test_an_action_map_naming_an_unknown_class_is_rejected():
    alg = upper_tri(2)
    spec = make_spec(circle(), alg, regular_bimodule(alg), CHAIN, 2)
    spec = ComplexSpec(spec.X, alg, spec.module, CHAIN, 2, assignment=spec.assignment,
                       action_map={"nosuch": "left"})
    with pytest.raises(ComplexError) as err:
        build_complex(spec)
    assert str(err.value).startswith("action assignment rejected: unknown class 'nosuch'")


# ---------------------------------------------------------------------------
# the build path works on level indices

def _searched_spec(X, alg, module, variant, max_degree, normalized=False):
    return ComplexSpec(X, alg, module, variant, max_degree, normalized=normalized,
                       assignment=search_nncmo(X, max_degree).assignment)


WARM_CASES = {
    "circle-upper-tri-regular": (circle, upper_tri, regular_bimodule, make_spec, False),
    "circle-upper-tri-regular-normalized": (circle, upper_tri, regular_bimodule, make_spec,
                                            True),
    "interval-upper-tri-regular-searched": (interval, upper_tri, regular_bimodule,
                                            _searched_spec, False),
    "wedge2-trunc-poly-regular-normalized": (lambda: wedge_of_circles(2), trunc_poly,
                                             regular_bimodule, make_spec, True),
    "wedge2-upper-tri-tensor-square": (lambda: wedge_of_circles(2), upper_tri,
                                       tensor_square_bimodule, make_spec, False),
    "sphere2-trunc-poly-symmetric-normalized": (sphere2, trunc_poly, symmetric_module,
                                                make_spec, True),
}


@pytest.mark.parametrize("variant", [CHAIN, COCHAIN])
@pytest.mark.parametrize("case", sorted(WARM_CASES))
def test_warm_rebuild_hashes_no_simplex_ref(case, variant, monkeypatch):
    # once a set object's level tables are built, certificate, action
    # classes, action table, assembly and the closure check read level
    # indices only: a second build looks up no SimplexRef
    builder, algebra, module, spec_of, normalized = WARM_CASES[case]
    X, alg = builder(), algebra(2)
    build_complex(spec_of(X, alg, module(alg), variant, 4, normalized=normalized))
    index = X.index(2)  # the index holds refs, and a warm rebuild builds none
    hashes = [0]
    original = SimplexRef.__hash__

    def counted(self):
        hashes[0] += 1
        return original(self)

    monkeypatch.setattr(SimplexRef, "__hash__", counted)
    build_complex(spec_of(X, alg, module(alg), variant, 4, normalized=normalized))
    assert hashes[0] == 0
    assert X.level(2)[-1] in index and hashes[0] == 1  # the count is live
