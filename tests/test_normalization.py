"""The normalized complex against two oracles.

``build_complex(..., normalized=True)`` assembles every differential on the
nondegenerate basis tensors only and checks structurally that the degenerate
span is a subcomplex.  Two slower constructions check it:

* the restriction oracle (``_restricted_complex``): every plain differential
  assembled in full, then restricted to the kept indices, with closure
  checked entry by entry (``_normalize``).  The fast path must give the same
  dims, the same entries and the same Betti numbers, or the same refusal;
* the Moore-complex oracle: chain degree n is the joint kernel of the faces
  d_1..d_n, cochain degree n the joint kernel of the codegeneracies, each
  found with ``nullspace`` and every differential re-expressed in those bases
  with ``solve``.  It computes a complex isomorphic to the quotient by
  degeneracies, so dims, Betti numbers and d^2 = 0 must agree.
"""

from dataclasses import replace
from fractions import Fraction
from itertools import product

import pytest

from hochord.algebras import custom_algebra, cyclic_group_algebra, trunc_poly, upper_tri
from hochord.exact import Field, Matrix, nullspace, solve
from hochord.hochschild import (CHAIN, COCHAIN, Complex, ComplexError, ComplexSpec,
                                _Assembler, _check_degenerate_closure, _resolve,
                                _unit_first_spec, build_complex, degeneracy_pointed_map,
                                make_spec)
from hochord.modules import (multi_regular, regular_bimodule, symmetric_module,
                             tensor_square_bimodule)
from hochord.ordering import (OrderingAssignment, assignment_from_level_orders,
                              cyclic_ordering, search_nncmo)
from hochord.simplicial import (BUILTIN_SETS, circle, interval, point, sphere2,
                                wedge_of_circles)

# ---------------------------------------------------------------------------
# the restriction oracle: full assembly, then index restriction


def _nondegenerate(spec, n, unit):
    """Indices of the degree-n basis tensors outside every degeneracy image.

    ``s_j : X_{n-1} -> X_n`` is injective and puts the unit into each slot it
    misses, so with the unit the basis vector ``unit`` its image is spanned by
    the basis tensors carrying ``unit`` in all of those slots; the module
    factor plays no part.  Indices follow the functors' mixed-radix packing
    (module most significant, then slot 1), which ``product`` enumerates in
    ascending order.
    """
    X, da = spec.X, spec.algebra.dim
    slots = len(X.level_nonbase(n))
    missed = []
    for j in range(n):
        hit = set(degeneracy_pointed_map(X, n - 1, j).images[1:])
        missed.append([k for k in range(slots) if k + 1 not in hit])
    kept = [idx for idx, coords in enumerate(product(range(da), repeat=slots))
            if not any(all(coords[k] == unit for k in m) for m in missed)]
    size = da ** slots
    return [mu * size + idx for mu in range(spec.module.dim) for idx in kept]


def _normalize(spec, diffs):
    """Restrict the differentials to the nondegenerate basis tensors.

    Chain degree n becomes the quotient by the span of the degenerate basis
    tensors, cochain degree n the cochains vanishing on them; either way each
    differential keeps the rows and columns of nondegenerate tensors.  The
    unit must be a basis vector (``_unit_first_spec``).  The degenerate span
    must be a subcomplex, which is checked entry by entry: a nonzero entry
    from a dropped column to a kept row (chain), or from a kept column to a
    dropped row (cochain), raises ``ComplexError``.
    """
    f = spec.algebra.field
    chain = spec.variant == CHAIN
    unit = spec.algebra.unit.index(f.one())
    kept = [_nondegenerate(spec, n, unit) for n in range(spec.max_degree + 1)]
    pos = [{idx: k for k, idx in enumerate(ks)} for ks in kept]
    new_diffs = {}
    for n, d in diffs.items():
        tgt = n - 1 if chain else n + 1
        rows, cols = pos[tgt], pos[n]
        entries = {}
        for (r, c), v in d.entries.items():
            kr, kc = rows.get(r), cols.get(c)
            if kr is not None and kc is not None:
                entries[(kr, kc)] = v
            elif (kr is not None) if chain else (kc is not None):
                raise ComplexError(
                    f"normalization: the degenerate span is not a subcomplex; the "
                    f"degree-{n} differential has entry {v} at row {r}, column {c}")
        new_diffs[n] = Matrix(len(kept[tgt]), len(kept[n]), f, entries)
    return [len(ks) for ks in kept], new_diffs


def _restricted_complex(spec):
    """The normalized complex of ``spec`` by full assembly and restriction."""
    actions = _resolve(spec)
    spec = _unit_first_spec(spec)
    asm = _Assembler(spec, actions)
    degrees = range(1, spec.max_degree + 1) if spec.variant == CHAIN else range(spec.max_degree)
    dims, diffs = _normalize(spec, {n: asm.differential(n) for n in degrees})
    return Complex(spec.variant, spec.algebra.field, dims, diffs)


# ---------------------------------------------------------------------------
# the Moore-complex oracle

def _moore_normalize(spec, asm, dims, diffs):
    """Cut to the Moore subcomplex: chain degree n keeps the joint kernel of
    d_1..d_n, cochain degree n the joint kernel of the codegeneracies
    s^0..s^{n-1}.  Differentials are re-expressed in the kernel bases."""
    f = spec.algebra.field
    bases = []
    for n in range(spec.max_degree + 1):
        if n == 0:
            bases.append(Matrix.identity(dims[0], f))
            continue
        if spec.variant == CHAIN:
            mats = [asm.face_matrix(n, i) for i in range(1, n + 1)]
        else:
            mats = [asm.degeneracy_matrix(n - 1, i) for i in range(n)]
        stacked_entries = {}
        offset = 0
        for m in mats:
            for (r, c), v in m.entries.items():
                stacked_entries[(r + offset, c)] = v
            offset += m.rows
        basis = nullspace(Matrix(offset, dims[n], f, stacked_entries))
        bases.append(Matrix(dims[n], len(basis), f,
                            {(r, c): v for c, col in enumerate(basis)
                             for r, v in enumerate(col)}))
    new_diffs = {}
    for n, d in diffs.items():
        dst = bases[n - 1] if spec.variant == CHAIN else bases[n + 1]
        new_diffs[n] = solve(dst, d * bases[n])
    return [b.cols for b in bases], new_diffs


def _moore_complex(spec):
    """(dims, betti, square_zero) of the Moore complex of ``spec``."""
    plain = build_complex(replace(spec, normalized=False))
    asm = _Assembler(spec, _resolve(spec))
    dims, diffs = _moore_normalize(spec, asm, plain.dims, plain.differentials)
    moore = Complex(spec.variant, spec.algebra.field, dims, diffs)
    return moore.dims, moore.betti, moore.verify_square_zero()


def _two_idempotents(field):
    """k x k: basis e1, e2 with e_i e_i = e_i, unit (1, 1)."""
    return custom_algebra("k x k", field, ["e1", "e2"], [1, 1],
                          [[[1, 0], [0, 0]], [[0, 0], [0, 1]]])


def _half_unit(field):
    """k[x]/(x^2) on the basis 2, x: the unit is (1/2, 0)."""
    return custom_algebra("half unit", field, ["u", "x"], [Fraction(1, 2), 0],
                          [[[2, 0], [0, 2]], [[0, 2], [0, 0]]])


def _half_basis(field):
    """k[x]/(x^2) on the basis 1/2, x: structure constants 1/2, unit (2, 0)."""
    h = Fraction(1, 2)
    return custom_algebra("half basis", field, ["u", "x"], [2, 0],
                          [[[h, 0], [0, h]], [[0, h], [0, 0]]])


SETS = {"point": point, "interval": interval, "circle": circle,
        "wedge2": lambda: wedge_of_circles(2), "sphere2": sphere2}
ALGEBRAS = {"trunc-poly2": lambda f: trunc_poly(2, f),
            "upper-tri2": lambda f: upper_tri(2, f),
            "group-cyclic2": lambda f: cyclic_group_algebra(2, f),
            "kxk": _two_idempotents,
            "half-unit": _half_unit}


def _outcome(fn):
    try:
        return fn()
    except Exception as e:  # the refusal type is part of the contract
        return type(e)


def _index_path(X, alg, variant):
    c = build_complex(make_spec(X, alg, regular_bimodule(alg), variant, 3,
                                normalized=True))
    return c.dims, c.betti, c.verify_square_zero()


def _moore_path(X, alg, variant):
    return _moore_complex(make_spec(X, alg, regular_bimodule(alg), variant, 3,
                                    normalized=True))


# Every set x algebra pair in both variants, over Q and over F(101).
CASES = [(s, a, v, p) for s in SETS for a in ALGEBRAS for v in (CHAIN, COCHAIN)
         for p in (None, 101)]


@pytest.mark.parametrize("set_name,alg_name,variant,p", CASES)
def test_index_restriction_matches_moore_complex(set_name, alg_name, variant, p):
    alg = ALGEBRAS[alg_name](Field(p))
    X = SETS[set_name]()
    got = _outcome(lambda: _index_path(X, alg, variant))
    want = _outcome(lambda: _moore_path(X, alg, variant))
    assert got == want


# ---------------------------------------------------------------------------
# the fast path against the restriction oracle

ORACLE_ALGEBRAS = {"trunc-poly2": lambda f: trunc_poly(2, f),
                   "upper-tri2": lambda f: upper_tri(2, f),
                   "half-basis": _half_basis}
# module builder and the power of the algebra dimension giving its dimension
ORACLE_MODULES = {"regular": (regular_bimodule, 1),
                  "symmetric": (symmetric_module, 1),
                  "tensor-square": (tensor_square_bimodule, 2),
                  "multi12": (lambda a: multi_regular(a, 1, 2), 1)}
# refused before either path runs: the builders refuse these modules over the
# noncommutative upper-tri(2), and make_spec refuses it over sphere2, which
# has no multiplicative ordering
REFUSED_INPUTS = {("upper-tri2", "symmetric"), ("upper-tri2", "multi12"),
                  ("sphere2", "upper-tri2")}
CERTIFIED_SETS = ("interval", "circle", "wedge2")
CERTIFICATES = ("canonical", "searched", "reversed-cyclic")

# Cases whose predicted top dimension exceeds this are skipped, and the
# skipped cases are pinned below, so the oracle's reach cannot shrink
# unnoticed.
RESTRICTION_ORACLE_DIM = 2_000
PINNED_SKIPS = {"wedge3/trunc-poly2/tensor-square/D3", "wedge3/half-basis/tensor-square/D3",
                "wedge3/upper-tri2/tensor-square/D3"}


def _certificate(X, kind, cutoff):
    if kind == "searched":
        return search_nncmo(X, cutoff).assignment
    orders = cyclic_ordering(X, cutoff)
    return assignment_from_level_orders(
        X, {n: tuple(reversed(order)) for n, order in orders.items()}, cutoff)


def _oracle_cases():
    for set_name, alg_name, mod_name, D in product(BUILTIN_SETS, ORACLE_ALGEBRAS,
                                                   ORACLE_MODULES, (1, 2, 3)):
        if {(alg_name, mod_name), (set_name, alg_name)} & REFUSED_INPUTS:
            continue
        certs = (CERTIFICATES if alg_name == "upper-tri2" and set_name in CERTIFIED_SETS
                 else CERTIFICATES[:1])
        for cert in certs:
            yield set_name, alg_name, mod_name, D, cert


def _case_id(set_name, alg_name, mod_name, D):
    return f"{set_name}/{alg_name}/{mod_name}/D{D}"


def _predicted_top_dim(set_name, mod_name, D):
    # every oracle algebra has dimension 2
    slots = len(BUILTIN_SETS[set_name]().level_nonbase(D))
    return 2 ** (ORACLE_MODULES[mod_name][1] + slots)


def test_restriction_oracle_skips_only_the_pinned_cases():
    skipped = {_case_id(s, a, m, D) for s, a, m, D, _ in _oracle_cases()
               if _predicted_top_dim(s, m, D) > RESTRICTION_ORACLE_DIM}
    assert skipped == PINNED_SKIPS


def _fast_and_oracle(spec):
    """Both outcomes: the complex's dims, differentials and Betti numbers,
    or the refusal's type (and its message unless it is a closure
    refusal, whose wording names different evidence on each path)."""
    def run(build):
        try:
            c = build(spec)
        except Exception as e:
            msg = str(e)
            return type(e), "not a subcomplex" if "not a subcomplex" in msg else msg
        return (c.dims, c.betti,
                {n: (d.rows, d.cols, d.to_triplets())
                 for n, d in c.differentials.items()})
    return run(build_complex), run(_restricted_complex)


@pytest.mark.parametrize("set_name,alg_name,mod_name,D,cert", list(_oracle_cases()))
@pytest.mark.parametrize("variant", [CHAIN, COCHAIN])
def test_fast_path_matches_restriction_oracle(set_name, alg_name, mod_name, D, cert, variant):
    if _predicted_top_dim(set_name, mod_name, D) > RESTRICTION_ORACLE_DIM:
        pytest.skip("top dimension above RESTRICTION_ORACLE_DIM")
    for p in (None, 101):
        alg = ORACLE_ALGEBRAS[alg_name](Field(p))
        module = ORACLE_MODULES[mod_name][0](alg)
        X = BUILTIN_SETS[set_name]()
        if cert == "canonical":
            spec = make_spec(X, alg, module, variant, D, normalized=True)
        else:
            spec = ComplexSpec(X, alg, module, variant, D, normalized=True,
                               assignment=_certificate(X, cert, max(D, 2)))
        fast, oracle = _fast_and_oracle(spec)
        assert fast == oracle, p


# ---------------------------------------------------------------------------
# closure refusals

@pytest.mark.parametrize("variant", [CHAIN, COCHAIN])
def test_closure_check_catches_a_dropped_tensor_reaching_a_kept_one(variant):
    alg = trunc_poly(2)
    spec = make_spec(circle(), alg, regular_bimodule(alg), variant, 3, normalized=True)
    plain = build_complex(replace(spec, normalized=False))
    _normalize(spec, plain.differentials)  # the true differentials pass
    # The circle's one degree-1 slot misses every degeneracy image, so a
    # degree-1 tensor is degenerate when that slot holds the unit: with
    # regular coefficients index 0 (module 1, slot 1) is dropped and index 1
    # (module 1, slot x) kept.  In degree 2, index 0 (unit in both slots) is
    # dropped; degree 0 keeps everything.  Closure makes these entries zero.
    d = plain.differentials[1]
    r, c = (0, 0) if variant == CHAIN else (0, 1)
    assert d.get(r, c) == 0
    broken = dict(plain.differentials)
    broken[1] = Matrix(d.rows, d.cols, alg.field, dict(d.entries) | {(r, c): 1})
    with pytest.raises(ComplexError, match="not a subcomplex"):
        _normalize(spec, broken)


@pytest.mark.parametrize("variant", [CHAIN, COCHAIN])
def test_structural_check_refuses_orders_tampered_along_a_degeneracy(variant):
    X, alg = circle(), upper_tri(2)
    spec = make_spec(X, alg, regular_bimodule(alg), variant, 3, normalized=True)
    actions = _resolve(spec)
    _check_degenerate_closure(spec, actions)  # the certificate passes
    # level 3 indices 1 and 2 are s_0 of the two level-2 simplices over one
    # target of d_1; reverse the d_2 fiber holding them at level 3 only
    cert, refs = spec.assignment, X.level(3)
    (key,) = [k for k, order in cert.orders.items()
              if k[:2] == (3, 2) and {refs[1], refs[2]} <= set(order)]
    orders = dict(cert.orders)
    orders[key] = orders[key][::-1]
    tampered = replace(spec, assignment=OrderingAssignment(X, cert.cutoff, orders))
    with pytest.raises(ComplexError, match=r"not a subcomplex; at level 3, d_2 s_0 and "
                                           r"s_0 d_1 differ in their fiber orders"):
        _check_degenerate_closure(tampered, actions)


@pytest.mark.parametrize("variant", [CHAIN, COCHAIN])
def test_structural_check_refuses_an_action_that_differs_across_a_degeneracy(variant):
    X, alg = circle(), upper_tri(2)
    spec = make_spec(X, alg, regular_bimodule(alg), variant, 3, normalized=True)
    actions = _resolve(spec)
    # d_0 s_1 = s_0 d_0 from level 1: the circle's edge e (level index 1) has
    # d_0 e = *, and so has s_1 e; route the site of s_1 e through the other
    # action, whose operators differ for upper-tri(2)
    k = X.degeneracy_table(1)[1][1]
    assert X.level(2)[k] == X.degeneracy(X.level(1)[1], 1)
    assert actions[2][0][k] == actions[1][0][1] is not None
    actions[2][0][k] = ({"left", "right"} - {actions[2][0][k]}).pop()
    with pytest.raises(ComplexError, match=r"not a subcomplex; at level 2, d_0 s_1 and "
                                           r"s_0 d_0 differ in their basepoint actions"):
        _check_degenerate_closure(spec, actions)


# ---------------------------------------------------------------------------
# the work done

def test_normalized_build_writes_only_nondegenerate_source_terms(term_count):
    # wedge2, trunc-poly(2), regular, cochain, D=4: the face matrices have
    # 1,706 terms in all, 296 of them from a nondegenerate source tensor
    alg = trunc_poly(2)
    c = build_complex(make_spec(wedge_of_circles(2), alg, regular_bimodule(alg), COCHAIN, 4,
                                normalized=True))
    assert c.dims == (2, 6, 18, 54, 162)
    assert 0 < term_count[0] <= 296
