import random
from itertools import combinations

import pytest

from hochord.algebras import is_commutative, multiply, trunc_poly, unit_first, upper_tri
from hochord.exact import Field, Matrix, QQ, mat_mul
from hochord.modules import (LR, Action, ModuleError, Multimodule, custom_module,
                             default_assignment,
                             dual_module, multi_regular, rebased, regular_bimodule,
                             symmetric_module, tensor_square_bimodule, validate,
                             validate_assignment)
from hochord.ordering import classify_actions
from hochord.simplicial import circle


def test_regular_bimodule_validates():
    m = regular_bimodule(upper_tri(2))
    assert validate(m) == []
    assert m.actions["left"].tag == "left"
    assert m.actions["right"].tag == "right"


def test_tensor_square_has_commuting_left_copies():
    m = tensor_square_bimodule(upper_tri(2))
    assert validate(m) == []
    assert sorted(m.actions) == ["left1", "left2", "right1", "right2"]


def test_left_multiplication_of_noncommutative_tagged_lr_fails():
    a = upper_tri(2)
    ops = tuple(a.left_mult_matrix(a.basis_vector(i)) for i in range(a.dim))
    bad = Multimodule("bad", a, a.dim, {"m": Action(LR, ops)})
    problems = validate(bad)
    assert any("right law" in p for p in problems)


def test_validate_reports_each_axiom_with_its_message():
    a = upper_tri(2)  # basis e11, e12, e22: e_i e_j != e_j e_i at (0,1), (1,2)
    left = tuple(a.left_mult_matrix(a.basis_vector(i)) for i in range(a.dim))

    def problems(**actions):
        return validate(Multimodule("bad", a, a.dim, actions))

    assert problems(count=Action("left", left[:2])) == [
        "action 'count': expected 3 operators, got 2"]
    assert problems(shape=Action("left", (Matrix.identity(2, QQ),) * 3)) == [
        "action 'shape': operator shape mismatch"]
    assert problems(tag=Action("up", left)) == ["action 'tag': unknown tag 'up'"]
    # a malformed action beside a valid one is reported, not read out of range
    assert problems(count=Action("left", left[:2]), left=Action("left", left)) == [
        "action 'count': expected 3 operators, got 2"]
    skew = [(0, 1), (1, 0), (1, 2), (2, 1)]
    actions = {"both": Action(LR, left), "doubled": Action("left", tuple(op.scale(2) for op in left)),
               "left": Action("left", left), "mislabeled": Action("right", left)}
    assert problems(**actions) == (
        [f"action 'both': right law fails at basis pair ({i},{j})" for i, j in skew]
        + ["action 'doubled': not unital"]
        + [f"action 'doubled': left law fails at basis pair ({i},{j})"
           for i, j in [(0, 0), (0, 1), (1, 2), (2, 2)]]
        + [f"action 'mislabeled': right law fails at basis pair ({i},{j})" for i, j in skew]
        + [f"actions {x!r} and {y!r} do not commute at basis pair ({i},{j})"
           for x, y in combinations(sorted(actions), 2) for i, j in skew])


def test_multi_regular_rejects_two_left_copies_on_noncommutative():
    with pytest.raises(ModuleError) as err:
        multi_regular(upper_tri(2), 2, 0)
    assert "commute" in str(err.value)


def test_multi_regular_ok_for_commutative():
    m = multi_regular(trunc_poly(2), 2, 1)
    assert validate(m) == []


def test_symmetric_module_requires_commutative():
    assert validate(symmetric_module(trunc_poly(2))) == []
    with pytest.raises(ModuleError):
        symmetric_module(upper_tri(2))


def test_validated_module_satisfies_commutation_on_random_vectors():
    rng = random.Random(5)
    a = upper_tri(2)
    m = tensor_square_bimodule(a)
    names = m.action_names()
    for _ in range(10):
        va = tuple(QQ.of(rng.randint(-3, 3)) for _ in range(a.dim))
        vb = tuple(QQ.of(rng.randint(-3, 3)) for _ in range(a.dim))
        vec = [QQ.of(rng.randint(-3, 3)) for _ in range(m.dim)]
        for i in range(len(names)):
            for j in range(i + 1, len(names)):
                oa = m.action(names[i]).operator_of(a, va)
                ob = m.action(names[j]).operator_of(a, vb)
                assert oa.matvec(ob.matvec(vec)) == ob.matvec(oa.matvec(vec))


def test_dual_module_mirrors_tags():
    m = regular_bimodule(upper_tri(2))
    d = dual_module(m)
    assert d.actions["left*"].tag == "right"
    assert d.actions["right*"].tag == "left"
    assert validate(d) == []


def test_validate_assignment_against_circle_classes():
    a = upper_tri(2)
    m = regular_bimodule(a)
    classes = classify_actions(circle(), 4)
    by_type = {c.action_type: c.class_id for c in classes.classes}
    good = {by_type["left"]: "left", by_type["right"]: "right"}
    assert validate_assignment(m, classes, good, "cochain") == []
    # the right-typed class cannot use a left-only action
    bad = {by_type["left"]: "left", by_type["right"]: "left"}
    problems = validate_assignment(m, classes, bad, "cochain")
    assert problems and "tagged left" in problems[0]


def test_lr_action_accepts_everything():
    t = trunc_poly(2)
    m = symmetric_module(t)
    classes = classify_actions(circle(), 4)
    assignment = {c.class_id: "mult" for c in classes.classes}
    assert validate_assignment(m, classes, assignment, "cochain") == []
    assert validate_assignment(m, classes, assignment, "chain") == []


def test_validate_assignment_unknown_names():
    m = regular_bimodule(upper_tri(2))
    classes = classify_actions(circle(), 4)
    problems = validate_assignment(m, classes, {"nope": "left"}, "cochain")
    assert any("unknown class" in p for p in problems)
    partial = {classes.classes[0].class_id: "missing"}
    problems = validate_assignment(m, classes, partial, "cochain")
    assert any("unknown action" in p for p in problems)


def test_default_assignment_mirrors_for_chain():
    a = upper_tri(2)
    m = regular_bimodule(a)
    classes = classify_actions(circle(), 4)
    by_type = {c.action_type: c.class_id for c in classes.classes}
    co = default_assignment(m, classes, "cochain")
    ch = default_assignment(m, classes, "chain")
    assert co[by_type["left"]] == "left" and co[by_type["right"]] == "right"
    assert ch[by_type["left"]] == "right" and ch[by_type["right"]] == "left"


def test_default_assignment_prefers_distinct_actions():
    from hochord.simplicial import wedge_of_circles
    a = upper_tri(2)
    m = tensor_square_bimodule(a)
    classes = classify_actions(wedge_of_circles(2), 3)
    amap = default_assignment(m, classes, "cochain")
    left_targets = [amap[c.class_id] for c in classes.classes if c.action_type == "left"]
    assert len(set(left_targets)) == len(left_targets)


def test_rebased_module_acts_through_the_new_basis():
    a = upper_tri(2)
    b, basis = unit_first(a)
    m = rebased(regular_bimodule(a), b, basis)
    assert m.algebra == b and validate(m) == []
    plain = regular_bimodule(a)
    for name, act in m.actions.items():
        assert act.operators[0] == Matrix.identity(3, QQ)  # the unit acts trivially
        assert act.operators[1:] == plain.actions[name].operators[1:]


def test_operators_over_another_field_are_a_validation_problem():
    a = upper_tri(2)
    f7 = Field(7)
    ops = tuple(Matrix(op.rows, op.cols, f7, op.entries)
                for op in regular_bimodule(a).actions["left"].operators)
    problems = validate(Multimodule("foreign", a, a.dim, {"left": Action("left", ops)}))
    assert problems == ["action 'left': operators over F(7), algebra over Q"]
    with pytest.raises(ModuleError, match=r"operators over F\(7\), algebra over Q"):
        custom_module("foreign", a, a.dim, {"left": Action("left", ops)})


def test_operator_of_a_basis_element_is_the_stored_operator():
    a = upper_tri(2)
    act = regular_bimodule(a).actions["left"]
    for i in range(a.dim):
        assert act.operator_of(a, a.basis_vector(i)) is act.operators[i]
    twice = act.operator_of(a, (2, 0, 0))
    assert twice == act.operators[0].scale(2) and twice is not act.operators[0]


# ---------------------------------------------------------------------------
# oracle: the Matrix-product validation that the entry tables replaced

def _oracle_validate(module):
    alg = module.algebra
    f = alg.field
    d = alg.dim
    problems = []
    ident = Matrix.identity(module.dim, f)

    def operator_of(act, vec):
        acc = Matrix.zero(module.dim, module.dim, f)
        for i, c in enumerate(vec):
            if f.of(c) != f.zero():
                acc = acc + act.operators[i].scale(c)
        return acc

    for name, act in sorted(module.actions.items()):
        if act.tag not in ("left", "right", "lr"):
            problems.append(f"action {name!r}: unknown tag {act.tag!r}")
            continue
        if len(act.operators) != d:
            problems.append(f"action {name!r}: expected {d} operators, got {len(act.operators)}")
            continue
        if any(op.rows != module.dim or op.cols != module.dim for op in act.operators):
            problems.append(f"action {name!r}: operator shape mismatch")
            continue
        if operator_of(act, alg.unit) != ident:
            problems.append(f"action {name!r}: not unital")
        for i in range(d):
            for j in range(d):
                comp = mat_mul(act.operators[i], act.operators[j])
                if act.tag in ("left", "lr") and comp != operator_of(act, alg.table[i][j]):
                    problems.append(f"action {name!r}: left law fails at basis pair ({i},{j})")
                if act.tag in ("right", "lr") and comp != operator_of(act, alg.table[j][i]):
                    problems.append(f"action {name!r}: right law fails at basis pair ({i},{j})")
    names = [n for n, a in sorted(module.actions.items()) if len(a.operators) == d
             and all(op.rows == op.cols == module.dim for op in a.operators)]
    for x, y in combinations(names, 2):
        a, b = module.actions[x], module.actions[y]
        for i in range(d):
            for j in range(d):
                if mat_mul(a.operators[i], b.operators[j]) != mat_mul(b.operators[j], a.operators[i]):
                    problems.append(f"actions {x!r} and {y!r} do not commute "
                                    f"at basis pair ({i},{j})")
    return problems


def _unvalidated_modules(a):
    """The library's modules over ``a``; symmetric and multi(1,2) are formed
    without the builders' check, so on a noncommutative algebra they carry
    the problems both validations must report alike."""
    left = tuple(a.left_mult_matrix(a.basis_vector(i)) for i in range(a.dim))
    right = tuple(a.right_mult_matrix(a.basis_vector(i)) for i in range(a.dim))
    regular = regular_bimodule(a)
    out = [regular, tensor_square_bimodule(a), dual_module(regular),
           Multimodule("symmetric", a, a.dim, {"mult": Action(LR, left)}),
           Multimodule("multi-regular 1,2", a, a.dim, {"left": Action("left", left),
                                                       "right1": Action("right", right),
                                                       "right2": Action("right", right)})]
    b, basis = unit_first(a)
    if b is not a:
        out.append(rebased(regular, b, basis))
    return out


@pytest.mark.parametrize("field", [QQ, Field(101)], ids=["Q", "F101"])
def test_validate_agrees_with_the_matrix_oracle(field, oracle_algebras):
    for a in oracle_algebras(field):
        for m in _unvalidated_modules(a):
            problems = validate(m)
            assert problems == _oracle_validate(m), (a.name, m.name)
            assert not problems or m.name in ("symmetric", "multi-regular 1,2")
            assert not problems or not is_commutative(a)


@pytest.mark.parametrize("field", [QQ, Field(101)], ids=["Q", "F101"])
def test_perturbed_operator_entries_fail_like_the_oracle(field):
    a = upper_tri(2, field)
    m = regular_bimodule(a)
    n = m.dim
    caught = 0
    for name, act in sorted(m.actions.items()):
        for k, op in enumerate(act.operators):
            for r in range(n):
                for c in range(n):
                    entries = dict(op.entries)
                    entries[(r, c)] = field.add(op.get(r, c), field.one())
                    ops = act.operators[:k] + (Matrix(n, n, field, entries),) + act.operators[k + 1:]
                    mutant = Multimodule("mutant", a, n, {**m.actions, name: Action(act.tag, ops)})
                    problems = validate(mutant)
                    assert problems == _oracle_validate(mutant), (name, k, r, c)
                    caught += bool(problems)
    # doubling the one entry of op(e12) in either action twists the module by
    # the automorphism e12 -> 2 e12 of the algebra, which is valid; every
    # other single perturbation breaks an axiom
    assert caught == 2 * a.dim * n * n - 2
