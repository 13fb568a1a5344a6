import contextlib
import functools
import io
from fractions import Fraction
from itertools import permutations
from itertools import product as iter_product

import pytest

from hochord import algebras
from hochord.algebras import custom_algebra, multiply, trunc_poly, unit_first, upper_tri
from hochord.exact import Field, Matrix, mat_mul
from hochord.functors import (FunctorError, _write_functor, compose, hom_functor_on_morphism,
                              identity_map, loday_on_morphism, pointed_map)
from hochord.hochschild import (CHAIN, COCHAIN, ComplexSpec, _action_table,
                                _typed_actions, degeneracy_pointed_map, face_pointed_map,
                                make_spec)
from hochord.modules import (multi_regular, rebased, regular_bimodule, symmetric_module,
                             tensor_square_bimodule)
from hochord.ordering import classify_nncmo
from hochord.simplicial import BUILTIN_SETS, wedge_of_circles


def all_pointed_maps(m, n):
    for images in iter_product(range(n + 1), repeat=m):
        yield pointed_map(m, n, (0, *images))


def default_actions(module, phi, names=None):
    names = names or sorted(module.actions)
    bp = phi.basepoint_fiber()
    return {j: names[k % len(names)] for k, j in enumerate(bp)}


def test_identity_laws():
    a = upper_tri(2)
    m = regular_bimodule(a)
    for k in range(3):
        phi = identity_map(k)
        dim = m.dim * a.dim ** k
        assert loday_on_morphism(a, m, phi, {}) == Matrix.identity(dim, a.field)
        assert hom_functor_on_morphism(a, m, phi, {}) == Matrix.identity(dim, a.field)


def test_merge_map_multiplies_in_fiber_order():
    # phi: 2+ -> 1+ with both elements over 1; the larger fiber member's
    # factor lands on the left of the product
    a = upper_tri(2)
    m = regular_bimodule(a)
    phi = pointed_map(2, 1, (0, 1, 1))
    mat = loday_on_morphism(a, m, phi, {})
    da, dm = a.dim, m.dim
    for mu in range(dm):
        for t1 in range(da):
            for t2 in range(da):
                col = mat.matvec([1 if idx == (mu * da + t1) * da + t2 else 0
                                  for idx in range(dm * da * da)])
                expected = multiply(a, a.basis_vector(t2), a.basis_vector(t1))
                for k, v in enumerate(expected):
                    assert col[mu * da + k] == a.field.of(v)


def test_collapse_to_basepoint_applies_the_named_action():
    a = upper_tri(2)
    m = regular_bimodule(a)
    phi = pointed_map(1, 0, (0, 0))
    left = loday_on_morphism(a, m, phi, {1: "left"})
    # m (x) a |-> a.m : block column (mu, t) holds left-mult operator column
    for t in range(a.dim):
        op = m.action("left").operators[t]
        for mu in range(m.dim):
            col = left.matvec([1 if idx == mu * a.dim + t else 0
                               for idx in range(m.dim * a.dim)])
            assert col == [op.get(r, mu) for r in range(m.dim)]


def test_empty_fiber_slot_gets_the_unit():
    # phi: 0+ -> 1+ : nothing maps to slot 1, so its factor is the unit
    a = upper_tri(2)
    m = regular_bimodule(a)
    phi = pointed_map(0, 1, (0,))
    mat = loday_on_morphism(a, m, phi, {})
    for mu in range(m.dim):
        col = mat.matvec([1 if idx == mu else 0 for idx in range(m.dim)])
        for k, v in enumerate(a.unit):
            assert col[mu * a.dim + k] == v


def test_missing_action_raises():
    a = upper_tri(2)
    m = regular_bimodule(a)
    phi = pointed_map(1, 0, (0, 0))
    with pytest.raises(FunctorError):
        loday_on_morphism(a, m, phi, {})


def test_missing_fiber_order_raises():
    from hochord.functors import PointedMap
    with pytest.raises(FunctorError):
        PointedMap(2, 1, (0, 1, 1), {})
    with pytest.raises(FunctorError):
        PointedMap(2, 1, (0, 1, 1), {1: (1,)})


def actions_commute_pairwise(module, action_names):
    """The multimodule contract for basepoint factors: every pair of assigned
    operators commutes.  Distinct actions commute by the axioms; a repeated
    action qualifies only if its own operators commute with each other."""
    names = list(action_names.values())
    alg = module.algebra
    for x in range(len(names)):
        for y in range(x + 1, len(names)):
            if names[x] != names[y]:
                continue
            ops = module.action(names[x]).operators
            for i in range(alg.dim):
                for j in range(alg.dim):
                    if ops[i] * ops[j] != ops[j] * ops[i]:
                        return False
    return True


@pytest.mark.parametrize("algmod", [
    lambda: (trunc_poly(2), symmetric_module(trunc_poly(2))),
    lambda: (upper_tri(2), tensor_square_bimodule(upper_tri(2))),
])
def test_composition_laws_small(algmod):
    a, m = algmod()
    names = sorted(m.actions)
    checked = 0
    for mid in range(3):
        for phi in all_pointed_maps(2, mid):
            for psi in all_pointed_maps(mid, 1):
                phi_actions = default_actions(m, phi, names[:2])
                psi_actions = default_actions(m, psi, names[-2:])
                comp, comp_actions = compose(psi, phi, psi_actions, phi_actions)
                if not actions_commute_pairwise(m, comp_actions):
                    continue
                checked += 1
                lod = mat_mul(loday_on_morphism(a, m, psi, psi_actions),
                              loday_on_morphism(a, m, phi, phi_actions))
                assert lod == loday_on_morphism(a, m, comp, comp_actions)
                hom = mat_mul(hom_functor_on_morphism(a, m, phi, phi_actions),
                              hom_functor_on_morphism(a, m, psi, psi_actions))
                assert hom == hom_functor_on_morphism(a, m, comp, comp_actions)
    assert checked > 20


def test_action_application_order_does_not_matter():
    # two basepoint factors through distinct actions: operators commute, so
    # the composite is independent of application order
    a = upper_tri(2)
    m = tensor_square_bimodule(a)
    phi = pointed_map(2, 0, (0, 0, 0))
    one_way = loday_on_morphism(a, m, phi, {1: "left1", 2: "right2"})
    other = loday_on_morphism(a, m, phi, {2: "left1", 1: "right2"})
    # swapping which slot uses which action is a different map, but each op
    # pair commutes; verify via the operators directly
    for i in range(a.dim):
        for j in range(a.dim):
            o1 = m.action("left1").operators[i]
            o2 = m.action("right2").operators[j]
            assert o1 * o2 == o2 * o1
    assert one_way.rows == other.rows


def test_pointed_map_refuses_orders_over_targets_outside_the_codomain():
    from hochord.functors import PointedMap
    for stray in ({1: (1,), 5: ()}, {1: (1,), 0: (0,)}, {1: (1,), 2: (1,)}):
        with pytest.raises(FunctorError, match="order given for empty fiber over"):
            PointedMap(1, 1, (0, 1), stray)


def all_ordered_maps(m, n):
    """Every pointed map m_+ -> n_+ with every choice of fiber orders."""
    for phi in all_pointed_maps(m, n):
        targets = sorted(phi.orders)
        for choice in iter_product(*(permutations(phi.orders[t]) for t in targets)):
            yield pointed_map(m, n, phi.images, dict(zip(targets, choice)))


def _oracle_compose_orders(psi, phi):
    """The pairwise comparator the rank keys of ``compose`` replaced."""
    images = tuple(psi.images[phi.images[j]] for j in range(phi.m + 1))

    def cmp(a, b):
        fa, fb = phi.images[a], phi.images[b]
        if fa == fb:
            order = phi.orders[fa]
            return -1 if order.index(a) < order.index(b) else 1
        i = psi.images[fa]
        assert psi.images[fb] == i and i != 0
        order = psi.orders[i]
        return -1 if order.index(fa) < order.index(fb) else 1

    orders = {}
    for i in range(1, psi.n + 1):
        fiber = [j for j in range(1, phi.m + 1) if images[j] == i]
        if fiber:
            orders[i] = tuple(sorted(fiber, key=functools.cmp_to_key(cmp)))
    return orders


def test_composed_orders_match_the_comparator_oracle():
    compared = 0
    for m, mid, n in ((3, 2, 1), (3, 3, 2), (2, 3, 2), (3, 2, 2)):
        for phi in all_ordered_maps(m, mid):
            for psi in all_ordered_maps(mid, n):
                assert compose(psi, phi).orders == _oracle_compose_orders(psi, phi)
                compared += 1
    assert compared > 5_000


def test_composed_fiber_orders_are_lexicographic():
    # psi merges 1,2 |-> 1; phi keeps slots separate with a twist
    phi = pointed_map(2, 2, (0, 2, 1))
    psi = pointed_map(2, 1, (0, 1, 1))
    comp = compose(psi, phi)
    # composite fiber over 1 is {1, 2}; their phi-images 2, 1 compare by the
    # psi-order over 1, which is (1, 2): so phi-image 1 (source 2) comes first
    assert comp.orders[1] == (2, 1)


# ---------------------------------------------------------------------------
# the table-driven kernel against the per-term expansion it replaced

def _morphism_terms(alg, module, phi, actions):
    """Oracle: yields (src_coords, dst_coords, mu_out, mu_in, coeff), one term
    per choice of source coordinates, slot products and operator entry, with
    every fiber product recomputed from the unit."""
    f = alg.field
    da = alg.dim
    bp = phi.basepoint_fiber()

    slot_items = []  # per output slot: (fiber slots, [(coords, k, coeff), ...])
    for i in range(1, phi.n + 1):
        fiber = phi.fiber(i)
        items = []
        for coords in iter_product(range(da), repeat=len(fiber)):
            # ascending fiber order, larger member multiplied on the left
            acc = alg.unit
            for c in coords:
                acc = multiply(alg, alg.basis_vector(c), acc)
            for k, v in enumerate(acc):
                if v != f.zero():
                    items.append((coords, k, v))
        slot_items.append((fiber, items))

    op_items = []  # (bp coords, [((mu_out, mu_in), coeff), ...])
    for coords in iter_product(range(da), repeat=len(bp)):
        acc = Matrix.identity(module.dim, f)
        for j, c in zip(bp, coords):  # smallest slot acts first
            try:
                name = actions[j]
            except KeyError:
                raise FunctorError(
                    f"basepoint fiber member {j} has no assigned action") from None
            acc = module.action(name).operators[c] * acc
        op_items.append((coords, sorted(acc.entries.items())))

    slot_choices = [items for (_, items) in slot_items]
    for bp_coords, opnz in op_items:
        if not opnz:
            continue
        for choice in iter_product(*slot_choices) if slot_choices else [()]:
            src = [0] * phi.m
            for j, c in zip(bp, bp_coords):
                src[j - 1] = c
            coeff = f.one()
            dst = []
            for (fiber, _), (coords, k, v) in zip(slot_items, choice):
                for j, c in zip(fiber, coords):
                    src[j - 1] = c
                dst.append(k)
                coeff = f.mul(coeff, v)
            src_t, dst_t = tuple(src), tuple(dst)
            for (mu_out, mu_in), v in opnz:
                yield src_t, dst_t, mu_out, mu_in, f.mul(coeff, v)


def _pack(da, mu, coords):
    idx = mu
    for t in coords:
        idx = idx * da + t
    return idx


def _summed_matrix(alg, module, phi, actions, source_rows):
    """Oracle: the terms summed into a matrix, and the number of terms."""
    f = alg.field
    da, dm = alg.dim, module.dim
    entries = {}
    terms = 0
    for src, dst, mu_out, mu_in, coeff in _morphism_terms(alg, module, phi, actions or {}):
        terms += 1
        row, col = (src, dst) if source_rows else (dst, src)
        key = (_pack(da, mu_out, row), _pack(da, mu_in, col))
        s = f.add(entries.get(key, f.zero()), coeff)
        if s == f.zero():
            entries.pop(key, None)
        else:
            entries[key] = s
    rows, cols = (phi.m, phi.n) if source_rows else (phi.n, phi.m)
    return Matrix(dm * da ** rows, dm * da ** cols, f, entries), terms


def _assert_kernel_matches_oracle(alg, module, phi, actions, variant):
    kernel = loday_on_morphism if variant == CHAIN else hom_functor_on_morphism
    got = kernel(alg, module, phi, actions)
    want, terms = _summed_matrix(alg, module, phi, actions, variant == COCHAIN)
    assert got == want
    # every term has its own key: the kernel writes entries without summing
    assert len(got.entries) == terms
    # the write loop returns its term count; written with sign -1 over the
    # matrix's own entries it cancels each of them and deletes every row
    table = {r: dict(row) for r, row in got.table.items()}
    assert _write_functor(table, -1, None, None, alg, module, phi, actions,
                          variant == COCHAIN) == terms
    assert table == {}


def _half_basis(field):
    """k[x]/(x^2) on the basis 1/2, x: structure constants 1/2, unit (2, 0)."""
    h = Fraction(1, 2)
    return custom_algebra("half basis", field, ["u", "x"], [2, 0],
                          [[[h, 0], [0, h]], [[0, h], [0, 0]]])


KERNEL_ORACLE_DIM = 60_000
KERNEL_CASES = {
    "trunc-poly2-regular": (lambda f: trunc_poly(2, f), regular_bimodule),
    "trunc-poly2-symmetric": (lambda f: trunc_poly(2, f), symmetric_module),
    "trunc-poly2-tensor-square": (lambda f: trunc_poly(2, f), tensor_square_bimodule),
    "trunc-poly2-multi12": (lambda f: trunc_poly(2, f), lambda a: multi_regular(a, 1, 2)),
    "upper-tri2-regular": (lambda f: upper_tri(2, f), regular_bimodule),
    "upper-tri2-tensor-square": (lambda f: upper_tri(2, f), tensor_square_bimodule),
    "half-basis-regular": (_half_basis, regular_bimodule),
}


@pytest.mark.parametrize("p", [None, 101], ids=["Q", "F101"])
@pytest.mark.parametrize("variant", [CHAIN, COCHAIN])
@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_kernel_matches_term_expansion_on_bundled_sets(case, variant, p):
    # every face map to level 4 with its fiber orders and basepoint actions,
    # and every degeneracy map out of levels 0..3, short of the levels with
    # more than KERNEL_ORACLE_DIM basis tensors, where the term-by-term oracle
    # is slow; fibers follow the canonical certificate, or level order on
    # sphere2, which has none
    make_alg, make_module = KERNEL_CASES[case]
    alg = make_alg(Field(p))
    module = make_module(alg)
    for builder in BUILTIN_SETS.values():
        X = builder()
        cert = classify_nncmo(X, 4)
        spec = ComplexSpec(X, alg, module, variant, 4,
                           assignment=cert.assignment if cert.admits else None)
        actions_at = _action_table(*_typed_actions(spec, 4))
        top = max(level for level in range(5)
                  if module.dim * alg.dim ** len(X.level_nonbase(level)) <= KERNEL_ORACLE_DIM)
        for level in range(1, top + 1):
            for i in range(level + 1):
                phi, actions = face_pointed_map(X, level, i, spec.assignment, actions_at)
                _assert_kernel_matches_oracle(alg, module, phi, actions, variant)
        for level in range(top):
            for i in range(level + 1):
                phi = degeneracy_pointed_map(X, level, i)
                _assert_kernel_matches_oracle(alg, module, phi, {}, variant)


def _unit_first_case(case):
    """The kernel case over a unit-first copy of its algebra, the basis that
    normalized builds use, and the module rebased onto it."""
    make_alg, make_module = KERNEL_CASES[case]
    alg = make_alg(Field())
    module = make_module(alg)
    alg1, basis = unit_first(alg)
    return alg1, module if alg1 is alg else rebased(module, alg1, basis)


def _missed_slot_sets(X, level):
    """For each degeneracy into ``level``, the slots (level indices) it misses."""
    slots = set(range(1, len(X.level(level))))
    return [slots - set(degeneracy_pointed_map(X, level - 1, j).images[1:])
            for j in range(level)]


def _nondegenerate_restriction(alg, m, matrix, missed_sets, source_rows):
    """``matrix`` without the entries whose source tensor carries the unit in
    every slot of some missed set; the source index is the row if
    ``source_rows``, else the column, packed module first, then slot 1."""
    unit = alg.unit.index(alg.field.one())
    size = alg.dim ** m
    degenerate = {t for t, coords in enumerate(iter_product(range(alg.dim), repeat=m))
                  if any(all(coords[k - 1] == unit for k in s) for s in missed_sets)}
    entries = {(r, c): v for (r, c), v in matrix.entries.items()
               if (r if source_rows else c) % size not in degenerate}
    return Matrix(matrix.rows, matrix.cols, matrix.field, entries)


@pytest.mark.parametrize("variant", [CHAIN, COCHAIN])
@pytest.mark.parametrize("case", ["trunc-poly2-tensor-square", "trunc-poly2-multi12",
                                  "upper-tri2-regular", "upper-tri2-tensor-square",
                                  "half-basis-regular"])
def test_pruned_kernel_matches_restricted_term_expansion(case, variant):
    # every face map to level 4 of the bundled sets, fed the slots each
    # degeneracy into its source level misses: the kernel must write exactly
    # the oracle's terms whose source tensor is nondegenerate, and skip the
    # rest, including those made degenerate by basepoint-fiber slots
    alg, module = _unit_first_case(case)
    kernel = loday_on_morphism if variant == CHAIN else hom_functor_on_morphism
    source_rows = variant == COCHAIN
    for builder in BUILTIN_SETS.values():
        X = builder()
        cert = classify_nncmo(X, 4)
        spec = ComplexSpec(X, alg, module, variant, 4,
                           assignment=cert.assignment if cert.admits else None)
        actions_at = _action_table(*_typed_actions(spec, 4))
        for level in range(1, 5):
            if module.dim * alg.dim ** len(X.level_nonbase(level)) > KERNEL_ORACLE_DIM:
                break
            missed_sets = _missed_slot_sets(X, level)
            missed = tuple(sum(1 << k for k in s) for s in missed_sets)
            for i in range(level + 1):
                phi, actions = face_pointed_map(X, level, i, spec.assignment, actions_at)
                got = kernel(alg, module, phi, actions, missed)
                want, _ = _summed_matrix(alg, module, phi, actions, source_rows)
                assert got == _nondegenerate_restriction(alg, phi.m, want, missed_sets,
                                                         source_rows)


@pytest.mark.parametrize("variant", [CHAIN, COCHAIN])
def test_kernel_matches_term_expansion_on_every_fiber_order(variant):
    # all maps 3+ -> 2+ under every order of every fiber, the basepoint fiber
    # routed through two distinct actions
    alg = _half_basis(Field())
    module = tensor_square_bimodule(alg)
    for images in iter_product(range(3), repeat=3):
        phi = pointed_map(3, 2, (0, *images))
        fibers = {i: phi.fiber(i) for i in phi.orders}
        for choice in iter_product(*(permutations(f) for f in fibers.values())):
            twisted = pointed_map(3, 2, phi.images, dict(zip(fibers, choice)))
            actions = {j: ("left1", "right2")[k % 2]
                       for k, j in enumerate(twisted.basepoint_fiber())}
            _assert_kernel_matches_oracle(alg, module, twisted, actions, variant)


@pytest.mark.parametrize("kernel", [loday_on_morphism, hom_functor_on_morphism])
def test_kernel_refuses_a_basepoint_member_without_action(kernel):
    a = trunc_poly(2)
    m = tensor_square_bimodule(a)
    phi = pointed_map(3, 1, (0, 0, 1, 0))
    with pytest.raises(FunctorError, match="member 3 has no assigned action"):
        kernel(a, m, phi, {1: "left1"})
    with pytest.raises(FunctorError, match="member 1 has no assigned action"):
        kernel(a, m, phi, None)


def _refuse_multiply(monkeypatch):
    """Make ``algebras.multiply`` fail: the build path tabulates products
    from the sparse structure constants and never calls it."""
    def refused(*args):
        raise AssertionError("algebras.multiply called on the build path")

    monkeypatch.setattr(algebras, "multiply", refused)


def _spy_tabulation(monkeypatch):
    """A list that receives ``(algebra, length)`` for every fiber-product
    length an algebra tabulates."""
    tabulated = []
    real = algebras.Algebra.fiber_products

    def spy(self, lengths):
        before = len(self._products)
        out = real(self, lengths)
        tabulated.extend((self, n) for n in range(before, len(self._products)))
        return out

    monkeypatch.setattr(algebras.Algebra, "fiber_products", spy)
    return tabulated


def test_products_are_tabulated_once_per_fiber_length(monkeypatch):
    # d_1 at level 4 of wedge2 has two fibers of length 2 and four of length 1
    X = wedge_of_circles(2)
    alg = upper_tri(2)
    spec = make_spec(X, alg, regular_bimodule(alg), CHAIN, 4)
    actions_at = _action_table(*_typed_actions(spec, 4))
    phi, actions = face_pointed_map(X, 4, 1, spec.assignment, actions_at)
    lengths = [len(phi.fiber(i)) for i in range(1, phi.n + 1)]
    assert sorted(lengths) == [1, 1, 1, 1, 2, 2]
    _refuse_multiply(monkeypatch)
    tabulated = _spy_tabulation(monkeypatch)
    loday_on_morphism(alg, spec.module, phi, actions)
    assert tabulated == [(alg, 1), (alg, 2)]
    # the products live on the algebra: another face map with no longer
    # fiber, in either functor, reads them and tabulates nothing
    stored = alg._products
    psi, psi_actions = face_pointed_map(X, 4, 2, spec.assignment, actions_at)
    assert max(len(psi.fiber(i)) for i in range(1, psi.n + 1)) <= 2
    loday_on_morphism(alg, spec.module, psi, psi_actions)
    hom_functor_on_morphism(alg, spec.module, phi, actions)
    assert len(tabulated) == 2 and alg._products is stored
    # the unit-first copy is another algebra and tabulates its own products
    alg1, basis = unit_first(alg)
    loday_on_morphism(alg1, rebased(spec.module, alg1, basis), phi, actions)
    assert [a is alg1 for a, _ in tabulated[2:]] == [True, True]
    assert alg._products is stored and len(alg1._products) == len(stored) == 3


def test_stored_products_are_tuples_and_leave_equality_alone():
    alg, twin = upper_tri(2), upper_tri(2)
    products = alg.fiber_products({2})
    assert type(alg._products) is tuple and len(alg._products) == 3
    for pairs in alg._products:
        assert type(pairs) is tuple and all(type(p) is tuple for p in pairs)
        assert all(type(kv) is tuple and len(kv) == 2 for p in pairs for kv in p)
    assert products[2] is alg._products[2]
    # a longer length extends the table; the shorter ones are kept as they were
    first = alg._products
    alg.fiber_products({3})
    assert alg._products[:3] == first and len(alg._products) == 4
    # a fresh algebra holds the unit's pairs alone
    assert twin._products == ((((0, 1), (2, 1)),),)
    assert alg == twin and hash(alg) == hash(twin)
    spec = make_spec(BUILTIN_SETS["circle"](), twin, regular_bimodule(alg), CHAIN, 2)
    assert spec.algebra is twin


def _oracle_fiber_products(alg, lengths):
    """The ordered fiber products tabulated afresh with ``multiply`` on dense
    vectors, as before they were kept on the algebra."""
    f = alg.field
    basis = [alg.basis_vector(c) for c in range(alg.dim)]
    vecs = [alg.unit]
    table = {}
    for length in range(max(lengths, default=0) + 1):
        if length == 1:
            vecs = basis
        elif length:
            vecs = [multiply(alg, e, v) if any(v) else v for v in vecs for e in basis]
        if length in lengths:
            table[length] = tuple(tuple((k, v) for k, v in enumerate(vec) if v != f.zero())
                                  for vec in vecs)
    return table


@pytest.mark.parametrize("field", [Field(), Field(101)], ids=["Q", "F101"])
def test_stored_fiber_products_agree_with_the_oracle(field, oracle_algebras):
    algs = oracle_algebras(field)
    assert len(algs) > 9  # the unit-first copies are included
    for alg in algs:
        want = _oracle_fiber_products(alg, set(range(6)))
        for lengths in ({2}, {0, 5}, {1}, set(range(6))):
            got = alg.fiber_products(lengths)
            # the same tuples in the same order, with the same scalar types
            assert got == {n: want[n] for n in lengths}, alg.name
            assert repr(got) == repr({n: want[n] for n in sorted(lengths)}), alg.name


def test_normalized_cli_jobs_never_multiply(monkeypatch):
    """The four jobs of the benchmark's ``normalized`` workload tabulate each
    fiber-product length once per algebra, and never call ``multiply``."""
    from hochord import cli
    _refuse_multiply(monkeypatch)
    tabulated = _spy_tabulation(monkeypatch)
    for job, (cmd, X, alg) in enumerate((("homology", "sphere2", "trunc-poly 2"),
                                         ("cohomology", "wedge2", "trunc-poly 2"),
                                         ("homology", "circle", "upper-tri 2"),
                                         ("cohomology", "circle", "upper-tri 2"))):
        start = len(tabulated)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main([cmd, X, "--algebra", alg, "--max-degree", "4",
                             "--normalized", "--json"]) == 0
        job_lengths = tabulated[start:]
        assert job_lengths and len(set(job_lengths)) == len(job_lengths), job
