import functools
import io
from contextlib import redirect_stdout
from itertools import combinations, permutations, product
from math import factorial, prod

import pytest

from hochord import cli, ordering, simplicial
from hochord.ordering import (CyclicOrderingUnavailable, InconclusiveSearch,
                              NncmoResult, OrderingAssignment, OrderingError, _face_words,
                              assignment_from_level_orders, check_nncmo,
                              check_nncmo_full, classify_actions, classify_nncmo,
                              composition_induced_order, cyclic_ordering, search_nncmo)
from hochord.simplicial import (SimplexRef, SimplicialSet, circle, fibers, from_file,
                                interval, point, sphere2, wedge_of_circles)

BUNDLED = [point, interval, circle, lambda: wedge_of_circles(2),
           lambda: wedge_of_circles(3), sphere2]

BIGON = """
basepoint v0
simplex v0 dim=0
simplex p dim=0
simplex e1 dim=1 faces=[p, v0]
simplex e2 dim=1 faces=[v0, p]
"""


def _level_order_assignment(X, cutoff):
    return assignment_from_level_orders(
        X, {n: X.level_nonbase(n) for n in range(1, cutoff + 1)}, cutoff)


def _names(X, refs):
    return [X.monotone_name(r) for r in refs]


# ---------------------------------------------------------------------------
# composition-induced orders

def test_single_step_induced_order_is_the_fiber_order():
    X = circle()
    asg = classify_nncmo(X, 4).assignment
    fiber = asg.order_of(2, 1, SimplexRef(X.id_of("e")))
    assert composition_induced_order(X, asg, (1,), 2, fiber) == fiber


def test_sphere_level4_induced_order_from_given_step_orders():
    S = sphere2()
    asg = _level_order_assignment(S, 4)
    sigma = SimplexRef(S.id_of("sigma"))
    fiber = [r for r in S.level_nonbase(4) if S.face_word(r, (1, 2)) == sigma]
    # route d_2 o d_1: blocks by d_1-image, ordered by the d_2-order downstream
    induced = composition_induced_order(S, asg, (1, 2), 4, fiber)
    assert _names(S, induced) == ["[00112]", "[01112]", "[00122]", "[01122]"]
    other = composition_induced_order(S, asg, (3, 1), 4, fiber)
    assert _names(S, other) == ["[00112]", "[00122]", "[01112]", "[01122]"]


def test_all_singleton_fibers_give_unique_order():
    P = point()
    asg = _level_order_assignment(P, 4)
    assert check_nncmo(P, asg, 4) is None


# ---------------------------------------------------------------------------
# the consistency check

def test_circle_cyclic_assignment_checks_out_to_level_5():
    X = circle()
    orders = cyclic_ordering(X, 5)
    asg = assignment_from_level_orders(X, orders, 5)
    assert check_nncmo(X, asg, 5) is None
    assert check_nncmo_full(X, asg, 5) is None


def test_sphere_any_assignment_fails_with_the_four_simplex_fiber():
    S = sphere2()
    asg = _level_order_assignment(S, 4)
    w = check_nncmo(S, asg, 4)
    assert w is not None
    assert sorted(_names(S, w.fiber)) == ["[00112]", "[00122]", "[01112]", "[01122]"]
    assert sorted(w.factorization_strings()) == ["d1 d3", "d2 d1"]
    assert w.verify_equal_maps(S)


def test_check_nncmo_catches_a_swapped_fiber_order():
    X = circle()
    asg = assignment_from_level_orders(X, cyclic_ordering(X, 4), 4)
    e = SimplexRef(X.id_of("e"))
    orders = dict(asg.orders)
    orders[(2, 1, e)] = tuple(reversed(orders[(2, 1, e)]))
    mutated = OrderingAssignment(X, 4, orders)
    w = check_nncmo(X, mutated, 4)
    assert w is not None and w.kind == "assignment"


def test_trivial_cutoff_is_ok():
    X = sphere2()
    asg = _level_order_assignment(X, 1)
    # nothing to check below two-step compositions
    assert check_nncmo(X, asg, 1) is None


@pytest.mark.parametrize("cutoff", [0, -3])
def test_ordering_entry_points_refuse_cutoffs_below_one(cutoff):
    X = circle()
    asg = assignment_from_level_orders(X, cyclic_ordering(X, 3), 3)
    calls = [lambda: search_nncmo(X, cutoff),
             lambda: check_nncmo(X, asg, cutoff),
             lambda: check_nncmo_full(X, asg, cutoff),
             lambda: assignment_from_level_orders(X, cyclic_ordering(X, 3), cutoff),
             lambda: OrderingAssignment(X, cutoff, {})]
    for call in calls:
        with pytest.raises(OrderingError, match=f"got cutoff {cutoff}"):
            call()


def test_cutoff_one_still_works():
    X = wedge_of_circles(2)
    res = search_nncmo(X, 1)
    assert res.admits and res.assignment.cutoff == 1
    assert check_nncmo(X, res.assignment, 1) is None
    assert check_nncmo_full(X, res.assignment, 1) is None


def test_assignment_refuses_orders_that_are_not_fibers():
    X = circle()
    e = SimplexRef(X.id_of("e"))
    orders = dict(assignment_from_level_orders(X, cyclic_ordering(X, 2), 2).orders)
    strays = [(1, 0, SimplexRef(X.basepoint)),        # over the basepoint
              (1, 0, SimplexRef(0, (0,))),            # target from the wrong level
              (3, 1, SimplexRef(e.base, (1, 0))),     # above the cutoff
              (2, 3, e)]                              # no face d_3 at level 2
    for stray in strays:
        with pytest.raises(OrderingError, match="not the fiber") as err:
            OrderingAssignment(X, 2, {**orders, stray: ()})
        assert repr(stray) in str(err.value)
    # the circle's level-1 faces all hit the basepoint: nothing to order there
    with pytest.raises(OrderingError, match="not the fiber"):
        OrderingAssignment(X, 1, {(1, 0, SimplexRef(0, (0,))): ()})


def test_assignment_ranks_are_the_fiber_positions():
    X = wedge_of_circles(2)
    asg = classify_nncmo(X, 4).assignment
    for n in range(1, 5):
        level = X.level(n)
        for i in range(n + 1):
            ranks = asg.ranks(n, i)
            for k, ref in enumerate(level):
                target = X.face(ref, i)
                if X.is_basepoint(target):
                    assert ranks[k] == -1
                else:
                    assert ranks[k] == asg.order_of(n, i, target).index(ref)


def test_assignment_requires_full_coverage():
    X = circle()
    orders = dict(assignment_from_level_orders(X, cyclic_ordering(X, 3), 3).orders)
    missing = next(iter(orders))
    del orders[missing]
    with pytest.raises(OrderingError):
        OrderingAssignment(X, 3, orders)


# ---------------------------------------------------------------------------
# search and classification

def test_search_verdicts():
    assert search_nncmo(sphere2(), 4).verdict == "fails"
    assert search_nncmo(wedge_of_circles(2), 4).verdict == "admits"
    assert search_nncmo(interval(), 4).verdict == "admits"


def test_search_node_limit_is_an_error_not_an_answer():
    from hochord.ordering import InconclusiveSearch
    with pytest.raises(InconclusiveSearch):
        search_nncmo(wedge_of_circles(3), 4, node_limit=1)


def test_classify_matches_search_on_bundled_sets():
    for builder in BUNDLED:
        X = builder()
        assert classify_nncmo(X, 4).verdict == search_nncmo(X, 4).verdict


def test_every_admits_passes_the_checker():
    for builder in BUNDLED:
        X = builder()
        for result in (classify_nncmo(X, 4), search_nncmo(X, 4)):
            if result.admits:
                assert check_nncmo(X, result.assignment, 4) is None


def test_full_factorization_oracle_validates_adjacent_reduction():
    for builder in BUNDLED:
        X = builder()
        result = search_nncmo(X, 4)
        if result.admits:
            assert check_nncmo_full(X, result.assignment, 4) is None


def _pair_order_oracle(X, cutoff):
    """The certificate the search must return, from the definition: of the
    assignments of fiber orders (faces evaluated with ``X.face``) that
    ``check_nncmo`` accepts, the greatest in pair order (fibers by level,
    face and target, then each fiber's pairs a < b in order, a before b
    greater), or None when it accepts none.  Each fiber's orders are tried
    from the greatest down, so the first accepted is the greatest."""
    fibers = {}
    for n in range(1, cutoff + 1):
        for i in range(n + 1):
            for ref in X.level_nonbase(n):
                target = X.face(ref, i)
                if not X.is_basepoint(target):
                    fibers.setdefault((n, i, target), []).append(ref)

    def greatest_first(members):
        return sorted(permutations(members), reverse=True, key=lambda order: [
            order.index(a) < order.index(b) for a, b in combinations(members, 2)])

    keys = sorted(fibers)
    for orders in product(*(greatest_first(sorted(fibers[key])) for key in keys)):
        assignment = OrderingAssignment(X, cutoff, dict(zip(keys, orders)))
        if check_nncmo(X, assignment, cutoff) is None:
            return assignment
    return None


def test_search_returns_the_greatest_certificate_in_pair_order(one_dimensional_family):
    """At cutoff 2, on every family or bundled one-dimensional set with at
    most 2000 joint fiber orders, the search admits with exactly the
    oracle's certificate, or both find none."""
    sets = [m.X for m in one_dimensional_family] + [b() for b in BUNDLED[:5]]
    compared = {True: 0, False: 0}
    for X in sets:
        sizes = [len(members) for n in (1, 2) for fibs in X.face_fibers(n)
                 for _, members in fibs]
        if prod(map(factorial, sizes)) > 2000:
            continue
        want = _pair_order_oracle(X, 2)
        try:
            res = search_nncmo(X, 2)
        except InconclusiveSearch:
            res = None
        if want is None:
            assert res is None or not res.admits, X.name
        else:
            assert res is not None and res.admits and res.assignment.orders == want.orders, X.name
        compared[want is not None] += 1
    assert compared[True] > 0 and compared[False] > 0  # both outcomes are compared


def test_sphere_witness_is_certified():
    res = classify_nncmo(sphere2(), 4)
    S = sphere2()
    assert not res.admits
    w = res.witness
    assert w.verify_equal_maps(S)
    assert w.reverify_unsat(S)
    assert sorted(_names(S, w.fiber)) == ["[00112]", "[00122]", "[01112]", "[01122]"]


def test_generic_witness_words_for_higher_sphere_like_sets():
    # glue a 3-simplex onto the basepoint: dimension 3, generic witness applies
    text = """
    basepoint v0
    simplex v0 dim=0
    simplex tau dim=3 faces=[s1 s0 v0, s1 s0 v0, s1 s0 v0, s1 s0 v0]
    """
    from hochord.simplicial import from_file
    X = from_file(text, "glued3")
    res = classify_nncmo(X, 4)
    assert not res.admits
    assert res.witness.level == 5
    assert res.witness.verify_equal_maps(X)
    assert res.witness.reverify_unsat(X)


def _oracle_joint_orders_exist(X, fiber, steps_a, steps_b):
    """The enumeration of every order of the fiber's refs that the search
    on positions replaced."""
    def route_blocks(first_step):
        groups = {}
        for ref in fiber:
            groups.setdefault(X.face(ref, first_step), set()).add(ref)
        return list(groups.values())

    blocks_a, blocks_b = route_blocks(steps_a[0]), route_blocks(steps_b[0])

    def intervals_ok(order, blocks):
        pos = {r: k for k, r in enumerate(order)}
        for block in blocks:
            ps = sorted(pos[r] for r in block)
            if ps[-1] - ps[0] != len(ps) - 1:
                return False
        return True

    return any(intervals_ok(order, blocks_a) and intervals_ok(order, blocks_b)
               for order in permutations(fiber))


def _constraint_sources(X, cutoff):
    """The fibers ``search_nncmo`` may certify a failure with, as refs."""
    for n in range(2, cutoff + 1):
        for steps_a, (steps_b,) in ordering._adjacent_routes(n):
            for _, fiber in X.route_fibers(n, steps_a):
                if len(fiber) <= 7:
                    yield tuple(X.level(n)[k] for k in fiber), steps_a, steps_b


def test_joint_order_search_matches_the_enumeration_oracle(one_dimensional_family):
    cases = [(m.X, m.cutoff) for m in one_dimensional_family]
    cases += [(builder(), 4) for builder in BUNDLED]
    verdicts, mismatches = {True: 0, False: 0}, []
    for X, cutoff in cases:
        for fiber, steps_a, steps_b in _constraint_sources(X, cutoff):
            want = _oracle_joint_orders_exist(X, fiber, steps_a, steps_b)
            verdicts[want] += 1
            if ordering._joint_orders_exist(X, fiber, steps_a, steps_b) != want:
                mismatches.append((X.name, fiber, steps_a, steps_b))
    assert mismatches == []
    assert verdicts[True] > 0 and verdicts[False] > 0  # both verdicts are compared


# ---------------------------------------------------------------------------
# cyclic orderings

def test_circle_cyclic_levels_match_the_wheel():
    X = circle()
    orders = cyclic_ordering(X, 4)
    assert _names(X, orders[2]) == ["[001]", "[011]"]
    assert _names(X, orders[3]) == ["[0001]", "[0011]", "[0111]"]
    assert _names(X, orders[4]) == ["[00001]", "[00011]", "[00111]", "[01111]"]


def test_wedge_interleaving():
    W = wedge_of_circles(2)
    orders = cyclic_ordering(W, 3)
    assert _names(W, orders[2]) == ["[001]_e1", "[011]_e1", "[001]_e2", "[011]_e2"]


def test_cyclic_monotonicity_property_to_level_5():
    for builder in (circle, interval, lambda: wedge_of_circles(2)):
        X = builder()
        orders = cyclic_ordering(X, 5)
        for n in range(2, 6):
            pos = {r: k for k, r in enumerate(orders[n - 1])}
            seq = orders[n]
            for a in range(len(seq)):
                for b in range(a + 1, len(seq)):
                    for i in range(n + 1):
                        fa, fb = X.face(seq[a], i), X.face(seq[b], i)
                        if X.is_basepoint(fa) or X.is_basepoint(fb):
                            continue
                        assert pos[fa] <= pos[fb]


def test_cyclic_ordering_rejects_higher_dimensional_sets():
    with pytest.raises(OrderingError):
        cyclic_ordering(sphere2(), 3)


def test_cyclic_ordering_unavailable_on_subdivided_circle():
    # two edges through an extra vertex: one-dimensional, but no face-monotone
    # order exists; the search still finds a multiplicative ordering
    X = from_file(BIGON, "bigon")
    with pytest.raises(CyclicOrderingUnavailable):
        cyclic_ordering(X, 3)
    res = classify_nncmo(X, 3)
    assert res.admits
    assert check_nncmo(X, res.assignment, 3) is None


def _name_keyed_cyclic_orders(X, cutoff):
    """The cyclic construction by its definition: edge degeneracies by the
    input order of their edge, then alphabetically by monotone word, then
    vertex degeneracies by vertex input order."""
    edge_pos = {b: p for p, b in enumerate(
        b for b, s in enumerate(X.simplices) if s.dim == 1)}

    def key(ref):
        if ref.base in edge_pos:
            return (0, edge_pos[ref.base], X.monotone_name(ref))
        return (1, ref.base, "")

    return {n: tuple(sorted(X.level_nonbase(n), key=key)) for n in range(cutoff + 1)}


def _first_monotonicity_failure(X, orders, cutoff):
    """The message ``cyclic_ordering`` raises for these orders, or None."""
    for n in range(2, cutoff + 1):
        pos = {r: p for p, r in enumerate(orders[n - 1])}
        seq = orders[n]
        for a in range(len(seq)):
            for b in range(a + 1, len(seq)):
                for i in range(n + 1):
                    fa, fb = X.face(seq[a], i), X.face(seq[b], i)
                    if fa in pos and fb in pos and pos[fa] > pos[fb]:
                        return n, (f"face-monotonicity fails at level {n}: "
                                   f"{X.monotone_name(seq[a])} < {X.monotone_name(seq[b])} "
                                   f"but d_{i} reverses them")
    return None


def test_cyclic_order_is_the_name_keyed_construction(one_dimensional_family):
    # sorting each level by edge-first alone gives the name-keyed order; where
    # that order is not face-monotone, both refuse at the same level with the
    # same message, and agree on every level below it
    sets = [f.X for f in one_dimensional_family] + [
        b() for b in BUNDLED if b().dimension() <= 1]
    refused = 0
    for X in sets:
        want = _name_keyed_cyclic_orders(X, 5)
        failure = _first_monotonicity_failure(X, want, 5)
        if failure is None:
            assert cyclic_ordering(X, 5) == want, X.name
            continue
        refused += 1
        level, message = failure
        with pytest.raises(CyclicOrderingUnavailable) as err:
            cyclic_ordering(X, 5)
        assert str(err.value) == message, X.name
        assert cyclic_ordering(X, level - 1) == {n: want[n] for n in range(level)}, X.name
    assert 0 < refused < len(sets)


@pytest.mark.parametrize("cutoff", [0, -2])
def test_cyclic_ordering_refuses_cutoffs_below_one(cutoff):
    with pytest.raises(OrderingError, match=f"got cutoff {cutoff}"):
        cyclic_ordering(circle(), cutoff)


# ---------------------------------------------------------------------------
# action classes

def test_circle_classes_and_types():
    X = circle()
    rep = classify_actions(X, 4)
    assert len(rep.classes) == 2
    by_type = {c.action_type: c for c in rep.classes}
    assert set(by_type) == {"left", "right"}
    # the right action collects the [0..01] sites, the left one the [01..1]s
    right_names = {X.monotone_name(ref) for (_, ref, _) in by_type["right"].sites}
    left_names = {X.monotone_name(ref) for (_, ref, _) in by_type["left"].sites}
    assert right_names == {"[01]", "[001]", "[0001]", "[00001]"}
    assert left_names == {"[01]", "[011]", "[0111]", "[01111]"}
    assert all(i == 0 for (_, _, i) in by_type["left"].sites)


def test_point_has_no_action_sites():
    rep = classify_actions(point(), 4)
    assert rep.classes == ()


def test_wedge_classes_match_per_circle_answer():
    W = wedge_of_circles(2)
    rep = classify_actions(W, 4)
    assert len(rep.classes) == 4
    types = sorted(c.action_type for c in rep.classes)
    assert types == ["left", "left", "right", "right"]
    # per edge: one left class (face index 0) and one right class
    for c in rep.classes:
        bases = {ref.base for (_, ref, _) in c.sites}
        assert len(bases) == 1


def test_sphere_classes_untyped():
    rep = classify_actions(sphere2(), 4)
    assert rep.classes and all(c.action_type == "untyped" for c in rep.classes)
    assert any("not one-dimensional" in n for n in rep.notes)


def test_other_side_halves_of_union_rules_join_two_dimensional_classes(
        two_loops_and_a_triangle):
    # rules (ii) and (iv) of _union_sites restricted to the non-basepoint face
    # on one side of the basepoint one split these 15 sites 6 + 9, and move
    # the trunc-poly(2)/tensor-square chain Betti numbers at D=3 from
    # (4, 2, 2, 1936) to (2, 0, 0, 1934): the other-side halves are not
    # implied by the other rules in dimension 2
    X = two_loops_and_a_triangle
    rep = classify_actions(X, 3)
    assert [(c.action_type, [(n, X.monotone_name(r), i) for n, r, i in c.sites])
            for c in rep.classes] == [("untyped", [
                (1, "[01]_e", 0), (1, "[01]_e", 1), (1, "[01]_f", 0), (1, "[01]_f", 1),
                (2, "[001]_e", 2), (2, "[011]_e", 0), (2, "[001]_f", 2), (2, "[011]_f", 0),
                (2, "[012]_sigma", 1), (3, "[0001]_e", 3), (3, "[0111]_e", 0),
                (3, "[0001]_f", 3), (3, "[0111]_f", 0), (3, "[0012]_sigma", 2),
                (3, "[0122]_sigma", 1)])]


@pytest.mark.parametrize("cutoff", [0, -1])
def test_classify_actions_refuses_cutoffs_below_one(cutoff):
    with pytest.raises(OrderingError, match=f"got cutoff {cutoff}"):
        classify_actions(circle(), cutoff)


def test_classify_actions_accepts_cutoff_one():
    assert classify_actions(circle(), 1).classes


def test_classify_actions_types_against_a_supplied_certificate():
    X = circle()
    assert classify_actions(X, 4, assignment=classify_nncmo(X, 4).assignment) \
        == classify_actions(X, 4)
    # reversing every level order swaps which class acts on which side
    orders = {n: tuple(reversed(o)) for n, o in cyclic_ordering(X, 4).items()}
    reversed_ = classify_actions(X, 4, assignment=assignment_from_level_orders(X, orders, 4))
    assert [(c.class_id, c.action_type) for c in reversed_.classes] == [
        ("d0:[01]", "right"), ("d1:[01]", "left")]
    with pytest.raises(OrderingError, match="below the typing cutoff"):
        classify_actions(X, 4, assignment=classify_nncmo(X, 3).assignment)


def test_a_certificate_for_another_set_is_refused():
    circle_cert = classify_nncmo(circle(), 3).assignment
    W = wedge_of_circles(2)
    for check in (lambda Y, cert: classify_actions(Y, 3, assignment=cert),
                  lambda Y, cert: check_nncmo(Y, cert, 3),
                  lambda Y, cert: check_nncmo_full(Y, cert, 3)):
        with pytest.raises(OrderingError,
                           match="assignment was built for the set 'wedge2', not for 'circle'"):
            check(circle(), classify_nncmo(W, 3).assignment)
        with pytest.raises(OrderingError,
                           match="assignment was built for the set 'interval', not for 'circle'"):
            check(circle(), classify_nncmo(interval(), 3).assignment)
        with pytest.raises(OrderingError,
                           match="assignment was built for the set 'circle', not for 'wedge2'"):
            check(W, circle_cert)
    # an equal set built apart is the same set
    assert check_nncmo(circle(), circle_cert, 3) is None
    assert classify_actions(circle(), 3, assignment=circle_cert) == classify_actions(circle(), 3)


def test_interval_single_right_class():
    rep = classify_actions(interval(), 4)
    assert len(rep.classes) == 1
    assert rep.classes[0].action_type == "right"


# ---------------------------------------------------------------------------
# pair-by-pair typing: the reference the per-level typing must match

def _simulate_route(X, ref, steps):
    """Images of ref along the steps; returns (images list incl. start,
    death step or None)."""
    imgs = [ref]
    death = None
    cur = ref
    for t, i in enumerate(steps, start=1):
        cur = X.face(cur, i)
        imgs.append(cur)
        if death is None and X.is_basepoint(cur):
            death = t
    return imgs, death


def _collect_typing_evidence(X, assignment, site_to_group, evidence,
                             n, x, y, w1, w2):
    """One evidence attempt: on one word the pair merges alive and the merged
    image later dies; on the other word the two members die at different
    steps.  The relative death order types the class of the death sites."""
    for merge_word, split_word in ((w1, w2), (w2, w1)):
        imgs_mx, death_mx = _simulate_route(X, x, merge_word)
        imgs_my, death_my = _simulate_route(X, y, merge_word)
        merge_t = None
        for t in range(1, len(merge_word) + 1):
            if imgs_mx[t] == imgs_my[t]:
                if not X.is_basepoint(imgs_mx[t]):
                    merge_t = t
                break
        if merge_t is None:
            continue
        merged_death = None
        for t in range(merge_t + 1, len(merge_word) + 1):
            if X.is_basepoint(imgs_mx[t]):
                merged_death = t
                break
        if merged_death is None:
            continue
        imgs_sx, death_sx = _simulate_route(X, x, split_word)
        imgs_sy, death_sy = _simulate_route(X, y, split_word)
        if death_sx is None or death_sy is None or death_sx == death_sy:
            continue
        site_merge = (n - merged_death + 1, imgs_mx[merged_death - 1],
                      merge_word[merged_death - 1])
        site_x = (n - death_sx + 1, imgs_sx[death_sx - 1], split_word[death_sx - 1])
        site_y = (n - death_sy + 1, imgs_sy[death_sy - 1], split_word[death_sy - 1])
        g = site_to_group.get(site_merge)
        if g is None or site_to_group.get(site_x) != g or site_to_group.get(site_y) != g:
            continue
        # order the pair by the fiber order at the merge step
        a, b = imgs_mx[merge_t - 1], imgs_my[merge_t - 1]
        level_at = n - merge_t + 1
        i_at = merge_word[merge_t - 1]
        target = imgs_mx[merge_t]
        pa = assignment.position(level_at, i_at, target, a)
        pb = assignment.position(level_at, i_at, target, b)
        smaller_is_x = pa < pb
        death_smaller = death_sx if smaller_is_x else death_sy
        death_larger = death_sy if smaller_is_x else death_sx
        if death_larger < death_smaller:
            evidence[g].add("left")
        elif death_smaller < death_larger:
            evidence[g].add("right")


def _pairwise_type_level(X, assignment, site_to_group, evidence, n, max_word_length):
    """The typing search of one level run pair by pair: every member pair
    meets every pair of equal words, both ways round."""
    members = X.level_nonbase(n)
    for length in range(2, min(n, max_word_length) + 1):
        for _, words in sorted(_face_words(n, length).items(),
                               key=lambda kv: sorted(kv[0])):
            if len(words) < 2:
                continue
            for w1, w2 in combinations(sorted(words), 2):
                for x, y in combinations(members, 2):
                    _collect_typing_evidence(X, assignment, site_to_group,
                                             evidence, n, x, y, w1, w2)


def _pairwise_on_site_table(X, assignment, site_class, evidence, n, max_word_length):
    """The reference, fed the ``site_class[n][i][k]`` table ``_type_level``
    reads, re-keyed by ref sites."""
    site_to_group = {(m, X.level(m)[k], i): g
                     for m, cols in site_class.items()
                     for i, col in enumerate(cols)
                     for k, g in enumerate(col) if g is not None}
    _pairwise_type_level(X, assignment, site_to_group, evidence, n, max_word_length)


@pytest.mark.parametrize("max_word_length", [2, 3, 4])
@pytest.mark.parametrize("builder", [
    point, interval, circle, lambda: wedge_of_circles(2), sphere2,
    lambda: from_file(BIGON, "bigon"),
], ids=["point", "interval", "circle", "wedge2", "sphere2", "bigon"])
def test_route_tables_match_pairwise_typing(builder, max_word_length, monkeypatch):
    got = classify_actions(builder(), 4)
    monkeypatch.setattr(ordering, "_type_level", functools.partial(
        _pairwise_on_site_table, max_word_length=max_word_length))
    want = classify_actions(builder(), 4)
    # ids, types, sites and notes
    assert got == want


# ---------------------------------------------------------------------------
# the word-trie typing against the word-by-word route simulation, the
# subset-lattice typing against the trie, and the adjacent-identity typing
# against the lattice

def _route_tables(X, assignment, site_class, n, depth):
    """Yield ``(kept, tables)`` for each map made by face words of length
    2..depth from level n, faces applied first to last: ``kept`` is the
    map's surviving vertex positions, ``tables`` one ``(deaths, merges)``
    per word, in word order.  ``deaths[x]`` is member x's death step and
    death-site class, or None if x survives or is the basepoint; ``merges``
    lists ``(class, smaller, larger)`` for every member pair whose images
    first meet at a non-basepoint simplex that later dies in a classified
    site, in the fiber order at that meeting.  One depth-first walk over the
    word trie applies each prefix step once, undoing its deaths and meetings
    on backtracking, and yields a map of t faces once its t! words are done.
    """
    deaths = [None] * len(X.level(n))
    meetings = []  # per meeting: a member and its (smaller, larger) member pairs
    groups: dict[tuple[int, ...], list] = {}

    def walk(t, holders, positions):  # holders: alive image -> its members
        m = n - t + 1
        table, classes = X.face_table(m), site_class[m]
        for i in range(m + 1):
            col, parts, dead = table[i], {}, []
            for p, xs in holders.items():
                q = col[p]
                if q:
                    parts.setdefault(q, []).append(p)
                else:
                    death = (t, classes[i][p])
                    for x in xs:
                        deaths[x] = death
                    dead += xs
            mark, rank = len(meetings), assignment.ranks(m, i)
            for ps in parts.values():
                if len(ps) > 1:
                    ranked = [holders[p] for p in sorted(ps, key=rank.__getitem__)]
                    meetings.append((ranked[0][0], [(x, y) for a, b in combinations(ranked, 2)
                                                    for x in a for y in b]))
            below = positions[:i] + positions[i + 1:]
            if t >= 2:
                merges = []
                for rep, pairs in meetings:
                    g = deaths[rep] and deaths[rep][1]
                    if g is not None:
                        merges += [(g, x, y) for x, y in pairs]
                groups.setdefault(below, []).append((deaths.copy(), merges))
                if len(groups[below]) == factorial(t):
                    yield below, groups.pop(below)
            if t < depth:
                yield from walk(t + 1, {q: [x for p in ps for x in holders[p]]
                                        for q, ps in parts.items()}, below)
            for x in dead:
                deaths[x] = None
            del meetings[mark:]

    yield from walk(1, {x: [x] for x in range(1, len(deaths))}, tuple(range(n + 1)))


def _trie_type_level(X, assignment, site_class, evidence, n, max_word_length):
    """The typing loop ``_lattice_type_level`` replaced: every map of word
    length 2..depth, every word of it, read from the trie walk.

    One evidence item is a pair of members and two equal factorizations: on
    the merge word the pair's images meet at a non-basepoint simplex that
    later dies, on the split word the two members die at different steps,
    and all three death sites lie in one class.  The fiber order at the
    meeting step names the smaller member; the smaller member dying strictly
    later makes the class a left action, dying first a right action.
    """
    for _, tables in _route_tables(X, assignment, site_class, n, min(n, max_word_length)):
        # a word that merges a pair kills both members at one step, so the
        # death-step test below skips it without tracking which word merged
        merges = {m for _, word_merges in tables for m in word_merges}
        for deaths, _ in tables:
            for g, small, large in merges:
                ds, dl = deaths[small], deaths[large]
                if ds is None or dl is None or ds[1] != g or dl[1] != g \
                        or ds[0] == dl[0]:
                    continue
                evidence[g].add("left" if dl[0] < ds[0] else "right")


def _lattice_type_level(X, assignment, site_class, evidence, n, max_word_length):
    """The typing loop ``ordering._type_level`` replaced: every map of word
    length 2..depth, read from the lattice of deleted-position subsets.

    A composite of faces from level n is fixed by the set of positions it
    deletes, so the words of one map are the orders of that set and their
    prefixes are its subsets.  Member images (one face-table column composed
    onto one predecessor) and the dead members are computed once per subset,
    and the meetings once per lattice edge A -> A | {p}, from the
    multi-member fibers of that face.  A member's death class is the same on
    every word of a map (``test_death_class_does_not_depend_on_the_word``).
    So a merge (g, s, l) of a map P, met on an edge inside P and killed by
    P, is left evidence exactly when some subset S of P kills l but not s
    (every word through S), and right evidence when S kills s but not l.
    The evidence of P lies in that of every larger map, so only the
    C(n + 1, depth) maps deleting depth = min(n, max_word_length) positions
    are read.
    """
    depth, size = min(n, max_word_length), len(X.level(n))
    # per subset of deleted positions (a bitmask): the members' images and
    # death classes (None while alive), and the pairs meeting on edges into it
    images, deaths, pairs = {0: list(range(size))}, {0: [None] * size}, {}
    layer = [0]
    for t in range(depth):
        table, classes, grown = X.face_table(n - t), site_class[n - t], []
        for A in layer:
            img, dead = images[A], deaths[A]
            for i, p in enumerate(v for v in range(n + 1) if not A >> v & 1):
                B, col, rank = A | 1 << p, table[i], assignment.ranks(n - t, i)
                if B not in images:
                    grown.append(B)
                    images[B] = [col[q] for q in img]
                    deaths[B] = [d if d is not None or col[q] else classes[i][q]
                                 for d, q in zip(dead, img)]
                # image after B -> image after A -> members; two A-images meet
                meets: dict[int, dict[int, list[int]]] = {}
                for x in range(1, size):
                    if col[img[x]]:
                        meets.setdefault(col[img[x]], {}).setdefault(img[x], []).append(x)
                for parts in meets.values():
                    if len(parts) > 1:
                        ranked = [parts[q] for q in sorted(parts, key=rank.__getitem__)]
                        pairs.setdefault(B, []).extend(
                            (x, y) for a, b in combinations(ranked, 2) for x in a for y in b)
        layer = grown
    for P in layer:
        subsets = [S for S in images if S & P == S]
        killed = [0] * size  # member -> bitmask of the subsets of P that kill it
        for j, S in enumerate(subsets):
            for x, q in enumerate(images[S]):
                if not q:
                    killed[x] |= 1 << j
        merges = {(deaths[P][x], x, y) for B in subsets for x, y in pairs.get(B, ())
                  if not images[P][x]}
        for g, s, l in merges:
            if killed[l] & ~killed[s]:
                evidence[g].add("left")
            if killed[s] & ~killed[l]:
                evidence[g].add("right")


def _route_table(X, assignment, site_class, n, word):
    """Simulate every member along ``word`` (faces applied first to last).

    Returns ``(deaths, merges)`` on level-n indices: ``deaths[x]`` is member
    x's death step and the class of its death site, or None if it survives
    the word (or x is the basepoint); ``merges`` lists ``(class, smaller,
    larger)`` for every member pair whose images first meet at a
    non-basepoint simplex that later dies in a classified site, smaller and
    larger in the fiber order at the meeting step.

    The walk moves distinct images, not members: members that met travel
    together from then on.
    """
    deaths = [None] * len(X.level(n))
    holders = {x: [x] for x in range(1, len(deaths))}  # alive image -> its members
    meetings = []  # per meeting: the members of each part, parts in fiber order
    for t, i in enumerate(word, start=1):
        m = n - t + 1
        col = X.face_table(m)[i]
        parts: dict[int, list[int]] = {}
        for p, xs in holders.items():
            q = col[p]
            if q:
                parts.setdefault(q, []).append(p)
            else:
                death = (t, site_class[m][i][p])
                for x in xs:
                    deaths[x] = death
        rank = assignment.ranks(m, i)
        for ps in parts.values():
            if len(ps) > 1:
                meetings.append([holders[p] for p in sorted(ps, key=rank.__getitem__)])
        holders = {q: [x for p in ps for x in holders[p]] for q, ps in parts.items()}

    merges = []
    for ranked in meetings:
        death = deaths[ranked[0][0]]
        if death is None or death[1] is None:
            continue
        for a, b in combinations(ranked, 2):
            merges.extend((death[1], x, y) for x in a for y in b)
    return deaths, merges


def _site_class_table(X, cutoff):
    """The ``site_class[n][i][k]`` table ``classify_actions`` builds."""
    site_class = {n: [[None] * len(X.level(n)) for _ in range(n + 1)]
                  for n in range(1, cutoff + 1)}
    for gi, group in enumerate(ordering._union_sites(X, cutoff)):
        for n, k, i in group:
            site_class[n][i][k] = gi
    return site_class


THETA = """
basepoint v0
simplex v0 dim=0
simplex p dim=0
simplex a dim=1 faces=[p, v0]
simplex b dim=1 faces=[p, v0]
simplex c dim=1 faces=[p, v0]
"""

NAMED_SETS = BUNDLED + [lambda: from_file(BIGON, "bigon"), lambda: from_file(THETA, "theta")]
NAMED_IDS = ["point", "interval", "circle", "wedge2", "wedge3", "sphere2", "bigon", "theta"]

EDGE_PLUS_LOOP = """
basepoint v0
simplex v0 dim=0
simplex p dim=0
simplex a dim=1 faces=[p, v0]
simplex b dim=1 faces=[p, p]
"""

ORACLE_SETS = BUNDLED + [lambda: from_file(BIGON, "bigon"), lambda: from_file(THETA, "theta"),
                         lambda: from_file(EDGE_PLUS_LOOP, "edge-plus-loop")]
ORACLE_IDS = ["point", "interval", "circle", "wedge2", "wedge3", "sphere2", "bigon",
              "theta", "edge-plus-loop"]


@pytest.mark.parametrize("cutoff", [4, 5])
@pytest.mark.parametrize("builder", NAMED_SETS, ids=NAMED_IDS)
def test_trie_walk_matches_route_table_oracle(builder, cutoff):
    X = builder()
    site_class = _site_class_table(X, cutoff)
    # the level-order certificate exists on every set, multiplicative or not
    assignments = [_level_order_assignment(X, cutoff)]
    res = classify_nncmo(X, cutoff)
    if res.admits:
        assignments.append(res.assignment)
    for assignment in assignments:
        for max_word_length in (2, 3, 4, 5):
            for n in range(2, cutoff + 1):
                depth = min(n, max_word_length)
                want = {}
                for length in range(2, depth + 1):
                    for deleted, words in _face_words(n, length).items():
                        kept = tuple(v for v in range(n + 1) if v not in deleted)
                        want[kept] = [_route_table(X, assignment, site_class, n, w)
                                      for w in words]
                got = list(_route_tables(X, assignment, site_class, n, depth))
                # every map once, every word's table, words of one map in order
                assert len(got) == len(want) and dict(got) == want


def _family_certificates(member):
    """The level-order certificate, and the canonical and searched ones of a
    family set where they exist."""
    return [_level_order_assignment(member.X, member.cutoff)] + [
        res.assignment for res in (member.canonical, member.searched)
        if isinstance(res, NncmoResult) and res.admits]


def _evidence_mismatches(X, assignments, cutoff, word_lengths):
    """The (level, word length) cases where the lattice typing and the trie
    typing collect different evidence, over every given certificate."""
    site_class = _site_class_table(X, cutoff)
    classes = range(len(ordering._union_sites(X, cutoff)))
    bad = []
    for assignment in assignments:
        for max_word_length in word_lengths:
            for n in range(2, cutoff + 1):
                got, want = ({g: set() for g in classes} for _ in range(2))
                _lattice_type_level(X, assignment, site_class, got, n, max_word_length)
                _trie_type_level(X, assignment, site_class, want, n, max_word_length)
                if got != want:
                    bad.append((n, max_word_length))
    return bad


def test_lattice_typing_matches_the_trie_on_the_family(one_dimensional_family):
    bad = {member.X.name: cases for member in one_dimensional_family
           if (cases := _evidence_mismatches(member.X, _family_certificates(member),
                                             member.cutoff, (2, 3)))}
    assert bad == {}
    # the 134 sets that admit an ordering carry all three kinds of certificate
    assert sum(len(_family_certificates(m)) == 3 for m in one_dimensional_family) == 134


@pytest.mark.parametrize("cutoff", [4, 5])
@pytest.mark.parametrize("builder", NAMED_SETS, ids=NAMED_IDS)
def test_lattice_typing_matches_the_trie_on_named_sets(builder, cutoff):
    X = builder()
    assert _evidence_mismatches(X, _oracle_certificates(X, cutoff), cutoff, (2, 3, 4, 5)) == []


def _lattice_mismatches(X, assignments, cutoff):
    """The (certificate, lattice depth) cases where ``classify_actions``
    against a certificate differs from the same call typed level by level
    by the lattice oracle, at full depth and at depth 2."""
    bad = []
    for c, assignment in enumerate(assignments):
        got = classify_actions(X, cutoff, assignment=assignment)
        for depth in (cutoff, 2):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(ordering, "_type_level", functools.partial(
                    _lattice_type_level, max_word_length=depth))
                if classify_actions(X, cutoff, assignment=assignment) != got:
                    bad.append((c, depth))
    return bad


def test_adjacent_typing_matches_the_lattice_on_the_family(one_dimensional_family):
    bad = {member.X.name: cases for member in one_dimensional_family
           if (cases := _lattice_mismatches(member.X, _family_certificates(member),
                                            member.cutoff))}
    assert bad == {}


@pytest.mark.parametrize("cutoff", [4, 5, 6])
@pytest.mark.parametrize("builder", ORACLE_SETS, ids=ORACLE_IDS)
def test_adjacent_typing_matches_the_lattice_on_named_sets(builder, cutoff):
    X = builder()
    assert _lattice_mismatches(X, _oracle_certificates(X, cutoff), cutoff) == []


def _word_dependent_deaths(X, cutoff):
    """The maps (level, kept positions) on which two words give some member
    different death classes, read from the trie walk over every word."""
    site_class = _site_class_table(X, cutoff)
    assignment = _level_order_assignment(X, cutoff)
    bad = []
    for n in range(2, cutoff + 1):
        for kept, tables in _route_tables(X, assignment, site_class, n, n):
            classes = {tuple(d and d[1] for d in deaths) for deaths, _ in tables}
            if len(classes) > 1:
                bad.append((n, kept))
    return bad


def test_death_class_does_not_depend_on_the_word(one_dimensional_family):
    # the lemma the lattice typing rests on: the coface rules of
    # _union_sites make every member's death class a function of the map
    cases = [(m.X, m.cutoff) for m in one_dimensional_family]
    cases += [(builder(), 4) for builder in BUNDLED]
    bad = {X.name: maps for X, cutoff in cases if (maps := _word_dependent_deaths(X, cutoff))}
    assert bad == {}


def test_typing_walk_shares_word_prefixes(monkeypatch):
    X = circle()
    assignment = classify_nncmo(X, 4).assignment
    # the fiber tables are built before the count: building one reads its
    # level's face table once, which is no lookup of the walk
    for n in range(2, 5):
        X.face_fibers(n)
    face_table, type_level = X.face_table, ordering._type_level
    typing, calls = [False], [0]

    def counted_table(n):
        calls[0] += typing[0]
        return face_table(n)

    def counted_level(*args):
        typing[0] = True
        try:
            type_level(*args)
        finally:
            typing[0] = False

    monkeypatch.setattr(X, "face_table", counted_table)
    monkeypatch.setattr(ordering, "_type_level", counted_level)
    classify_actions(X, 4, assignment=assignment)
    # two lookups per level (levels 2-4), for the adjacent identities of
    # each; the trie walk over every word took one per trie node, 254, and
    # a simulation per word one per word step, 808
    assert calls[0] == 6


def test_typing_simulates_each_route_once(monkeypatch):
    face = SimplicialSet.face
    calls = [0]

    def counted(X, ref, i):
        calls[0] += 1
        return face(X, ref, i)

    monkeypatch.setattr(SimplicialSet, "face", counted)
    classify_actions(wedge_of_circles(3), 4)
    # the pair-by-pair reference above makes 1,749,138 calls here
    assert calls[0] <= 20_000


def test_typing_reads_each_face_once(monkeypatch):
    X = wedge_of_circles(3)
    face = SimplicialSet.face
    calls = [0]

    def counted(Y, ref, i):
        calls[0] += 1
        return face(Y, ref, i)

    monkeypatch.setattr(SimplicialSet, "face", counted)
    bound = sum(len(X.level(n)) * (n + 1) for n in range(1, 5))
    assert bound == 134
    classify_actions(X, 4)
    # one face-table entry per (simplex, face index) up to the cutoff
    assert calls[0] <= bound


def test_face_words_are_cached_and_read_only():
    words = _face_words(4, 3)
    assert _face_words(4, 3) is words
    with pytest.raises(TypeError):
        words[frozenset()] = ()
    assert all(type(ws) is tuple and all(type(w) is tuple for w in ws)
               for ws in words.values())
    # equal maps share a key: the composite deleting positions D is the same
    # face map for every word, and there are (n+1)!/(n+1-length)! words in all
    assert sum(len(ws) for ws in words.values()) == 5 * 4 * 3
    assert all(len(key) == 3 for key in words)
    assert len(words) == 10  # C(5, 3) deleted-position sets


# ---------------------------------------------------------------------------
# fibers, rank keys and the shared check loop against the code they replaced

ORACLE_CUTOFF = 5


def _oracle_induced_compare(X, assignment, steps, level, x, y):
    """The pairwise comparator the rank keys replaced."""
    if x == y:
        return 0
    for i in steps:
        col = X.face_table(level)[i]
        fx, fy = col[x], col[y]
        if fx == fy:
            if fx == 0:
                raise OrderingError("induced order requested through a basepoint image")
            rank = assignment.ranks(level, i)
            return -1 if rank[x] < rank[y] else 1
        x, y, level = fx, fy, level - 1
    raise OrderingError("members of a fiber cannot differ on the empty composition")


def _oracle_induced_order(X, assignment, steps, level, members):
    cmp = functools.cmp_to_key(
        lambda a, b: _oracle_induced_compare(X, assignment, steps, level, a, b))
    return tuple(sorted(members, key=cmp))


def _oracle_two_step_fibers(X, n, steps):
    """The composite-fiber grouping ``simplicial.fibers`` replaced."""
    images = range(len(X.level(n)))
    for s, i in enumerate(steps):
        col = X.face_table(n - s)[i]
        images = [col[k] for k in images]
    groups = {}
    for k, t in enumerate(images):
        if t:
            groups.setdefault(t, []).append(k)
    return [(t, tuple(members)) for t, members in sorted(groups.items())]


def _oracle_check_nncmo(X, assignment, cutoff):
    """The adjacent-pair check loop ``_first_violation`` replaced."""
    for n in range(2, cutoff + 1):
        for j in range(1, n + 1):
            for i in range(j):
                steps_a, steps_b = (j, i), (i, j - 1)
                for target, fiber in _oracle_two_step_fibers(X, n, steps_a):
                    if len(fiber) < 2:
                        continue
                    order_a = _oracle_induced_order(X, assignment, steps_a, n, fiber)
                    order_b = _oracle_induced_order(X, assignment, steps_b, n, fiber)
                    if order_a != order_b:
                        return ordering._assignment_witness(X, n, target, fiber, steps_a,
                                                            steps_b, order_a, order_b)
    return None


def _oracle_check_nncmo_full(X, assignment, cutoff):
    """The all-pairs check loop ``_first_violation`` replaced."""
    for n in range(2, cutoff + 1):
        for length in range(2, n + 1):
            for _, words in sorted(_face_words(n, length).items(),
                                   key=lambda kv: sorted(kv[0])):
                if len(words) < 2:
                    continue
                words = sorted(words)
                base = words[0]
                base_fibers = _oracle_two_step_fibers(X, n, base)
                for other in words[1:]:
                    for target, fiber in base_fibers:
                        if len(fiber) < 2:
                            continue
                        oa = _oracle_induced_order(X, assignment, base, n, fiber)
                        ob = _oracle_induced_order(X, assignment, other, n, fiber)
                        if oa != ob:
                            return ordering._assignment_witness(X, n, target, fiber, base,
                                                                other, oa, ob)
    return None


def _oracle_certificates(X, cutoff):
    """The level-order certificate, and the canonical one where it exists."""
    certificates = [_level_order_assignment(X, cutoff)]
    try:
        res = classify_nncmo(X, cutoff)
    except InconclusiveSearch:  # the edge plus a loop at p
        return certificates
    if res.admits:
        certificates.append(res.assignment)
    return certificates


def _words_up_to(n, longest):
    return [w for length in range(1, min(n, longest) + 1)
            for words in _face_words(n, length).values() for w in words]


@pytest.mark.parametrize("builder", ORACLE_SETS, ids=ORACLE_IDS)
def test_fibers_and_rank_keys_match_the_comparator_oracle(builder):
    X = builder()
    for assignment in _oracle_certificates(X, ORACLE_CUTOFF):
        for n in range(2, ORACLE_CUTOFF + 1):
            for steps in _words_up_to(n, 4):
                want = _oracle_two_step_fibers(X, n, steps)
                assert list(X.route_images(n, steps)) == _oracle_images(X, n, steps)
                assert X.route_fibers(n, steps) == tuple(f for f in want if len(f[1]) > 1)
                # the keyed members (key >= 0) are those over non-basepoint
                # targets, and every other member is keyed -1
                keys = assignment.induced_keys(n, steps)
                assert len(keys) == len(X.level(n))
                assert ([k for k, key in enumerate(keys) if key >= 0]
                        == sorted(k for _, members in want for k in members))
                assert all(key == -1 for key in keys if key < 0)
                for _, members in want:
                    assert (tuple(sorted(members, key=keys.__getitem__))
                            == _oracle_induced_order(X, assignment, steps, n, members))


def _oracle_tuple_keys(assignment, level, word, memo):
    """The tuple-keyed tables the integer keys replaced: each member the word
    keeps off the basepoint keyed by (final image, rank at the last step,
    ..., rank at the first), each table extending its tail's by one rank."""
    if (level, word) not in memo:
        X = assignment.X
        if word:
            tail, rank = (_oracle_tuple_keys(assignment, level - 1, word[1:], memo),
                          assignment.ranks(level, word[0]))
            memo[level, word] = {k: (*tail[t], rank[k])
                                 for t, members in X.face_fibers(level)[word[0]] if t in tail
                                 for k in members}
        else:
            memo[level, word] = {k: (k,) for k in range(1, len(X.level(level)))}
    return memo[level, word]


def _decoded_key(X, n, steps, key):
    """An integer key read back as (final image, rank at the last step, ...,
    rank at the first): its digits in the radices of the word's levels."""
    ranks = []
    for level in range(n, n - len(steps), -1):
        key, rank = divmod(key, len(X.level(level)))
        ranks.append(rank)
    return (key, *reversed(ranks))


def _integer_key_mismatches(X, cutoff):
    """Per certificate, level and face word: where the integer keys and the
    tuple keys keep different members, where a key is not the tuple written
    in the radices of the word's levels, or where the two sort a route
    fiber differently; and the number of route fibers sorted."""
    bad, compared = [], 0
    for assignment in _oracle_certificates(X, cutoff):
        memo = {}
        for n in range(2, cutoff + 1):
            for steps in _words_up_to(n, n):
                keys = assignment.induced_keys(n, steps)
                tuples = _oracle_tuple_keys(assignment, n, steps, memo)
                if [k for k, key in enumerate(keys) if key != -1] != sorted(tuples):
                    bad.append((X.name, n, steps, "kept"))
                bad += [(X.name, n, steps, k) for k, key in tuples.items()
                        if _decoded_key(X, n, steps, keys[k]) != key]
                compared += len(X.route_fibers(n, steps))
                bad += [(X.name, n, steps, t) for t, fiber in X.route_fibers(n, steps)
                        if sorted(fiber, key=keys.__getitem__)
                        != sorted(fiber, key=tuples.__getitem__)]
    return bad, compared


def test_integer_keys_sort_like_the_tuple_keys(one_dimensional_family):
    cases = [(m.X, m.cutoff) for m in one_dimensional_family]
    cases += [(wedge_of_circles(3), 4), (from_file(THETA, "theta"), 4)]
    results = [_integer_key_mismatches(X, cutoff) for X, cutoff in cases]
    assert [bad for bad, _ in results if bad] == []
    assert sum(compared for _, compared in results) == 34070


@pytest.mark.parametrize("builder", ORACLE_SETS, ids=ORACLE_IDS)
def test_check_loop_matches_both_oracle_loops(builder):
    X = builder()
    for assignment in _oracle_certificates(X, ORACLE_CUTOFF):
        for cutoff in range(2, ORACLE_CUTOFF + 1):
            assert check_nncmo(X, assignment, cutoff) == _oracle_check_nncmo(X, assignment,
                                                                             cutoff)
            assert (check_nncmo_full(X, assignment, cutoff)
                    == _oracle_check_nncmo_full(X, assignment, cutoff))


def _swapped_certificates(X, assignment):
    """Per level and face, the certificate with the ranks of the first two
    members of the face's first fiber of two or more members swapped."""
    for n in range(1, assignment.cutoff + 1):
        for i, fibs in enumerate(X.face_fibers(n)):
            fiber = next((members for _, members in fibs if len(members) > 1), None)
            if fiber is not None:
                ranks = {key: assignment.ranks(*key) for key in assignment._ranks}
                rank, (a, b) = list(ranks[n, i]), fiber[:2]
                rank[a], rank[b] = rank[b], rank[a]
                ranks[n, i] = tuple(rank)
                yield OrderingAssignment._trusted(X, assignment.cutoff, ranks)


def test_swapped_ranks_give_the_oracle_witnesses(one_dimensional_family):
    cases = [(m.X, m.canonical.assignment) for m in one_dimensional_family
             if isinstance(m.canonical, NncmoResult) and m.canonical.admits]
    cases += [(X, classify_nncmo(X, cutoff).assignment)
              for builder in BUNDLED[:-1] for cutoff in (4, 5) for X in [builder()]]
    mismatches, mutations, witnesses = [], 0, 0
    for X, assignment in cases:
        for mutated in _swapped_certificates(X, assignment):
            cutoff, mutations = mutated.cutoff, mutations + 1
            want = (_oracle_check_nncmo(X, mutated, cutoff),
                    _oracle_check_nncmo_full(X, mutated, cutoff))
            witnesses += sum(w is not None for w in want)
            # the full check first on a fresh copy, then after the adjacent
            # check has built its tables
            fresh = OrderingAssignment._trusted(X, cutoff, mutated._ranks)
            got = (check_nncmo(X, mutated, cutoff), check_nncmo_full(X, mutated, cutoff),
                   check_nncmo_full(X, fresh, cutoff))
            if got != (*want, want[1]):
                mismatches.append((X.name, cutoff))
    assert mismatches == []
    assert (len(cases), mutations, witnesses) == (134 + 10, 1087, 2 * 1087)


def test_the_oracles_see_violations():
    # the level-order certificate of the sphere breaks both checks, so the
    # comparisons above are not all between two Nones
    X = sphere2()
    asg = _level_order_assignment(X, 4)
    assert _oracle_check_nncmo(X, asg, 4) is not None
    assert _oracle_check_nncmo_full(X, asg, 4) is not None


def test_full_check_above_the_certificate_cutoff_is_an_ordering_error():
    X = circle()
    asg = search_nncmo(X, 2).assignment
    for check in (check_nncmo, check_nncmo_full):
        with pytest.raises(OrderingError, match="assignment cutoff too small"):
            check(X, asg, 4)


def test_induced_order_refuses_a_level_above_the_cutoff():
    X = circle()
    asg = search_nncmo(X, 2).assignment
    with pytest.raises(OrderingError, match="level 3 is above the assignment cutoff 2"):
        composition_induced_order(X, asg, (1,), 3, X.level_nonbase(3)[:1])


@pytest.mark.parametrize("steps, level", [((1, 0, 0), 2), ((0,), 0), ((3,), 2), ((0, 2), 2)])
def test_induced_order_refuses_a_word_that_is_not_a_face_word(steps, level):
    X = circle()
    asg = classify_nncmo(X, 3).assignment
    with pytest.raises(OrderingError, match=f"not a face word from level {level}"):
        composition_induced_order(X, asg, steps, level, X.level_nonbase(level)[:1])


def test_induced_order_refuses_members_of_another_level():
    X = circle()
    asg = classify_nncmo(X, 3).assignment
    with pytest.raises(OrderingError, match="not one fiber"):
        composition_induced_order(X, asg, (1,), 2, X.level_nonbase(3)[:2])


def test_induced_order_refuses_members_outside_one_fiber():
    X = wedge_of_circles(2)
    asg = _level_order_assignment(X, 3)
    e1, e2 = ([r for r in X.level_nonbase(3)
               if X.face_word(r, (1, 1)) == SimplexRef(X.id_of(name))] for name in ("e1", "e2"))
    killed = [r for r in X.level_nonbase(3) if X.is_basepoint(X.face_word(r, (0, 0)))]
    assert len(e1) > 1 and len(killed) > 1
    for steps, members in (((1, 1), e1 + e2[:1]), ((0, 0), killed[:2]), ((0, 0), killed[:1])):
        with pytest.raises(OrderingError, match="not one fiber"):
            composition_induced_order(X, asg, steps, 3, members)
    with pytest.raises(OrderingError, match="not one fiber"):
        composition_induced_order(X, asg, (), 3, e1)
    assert sorted(composition_induced_order(X, asg, (1, 1), 3, e1)) == sorted(e1)


def test_search_at_cutoff_one_is_the_level_order_assignment():
    # theta's three edges share both endpoints: a level-1 fiber has four members
    X = from_file(THETA, "theta")
    res = search_nncmo(X, 1)
    assert res.admits
    assert res.assignment.orders == _level_order_assignment(X, 1).orders
    assert any(len(order) > 2 for order in res.assignment.orders.values())


# ---------------------------------------------------------------------------
# the per-set fiber tables and ranks-first certificates

def _oracle_images(X, n, steps):
    """The face-table composite the ordering layer grouped into fibers before
    the set tabulated them."""
    images = range(len(X.level(n)))
    for s, i in enumerate(steps):
        col = X.face_table(n - s)[i]
        images = [col[k] for k in images]
    return images


def _fresh_fibers(images, smallest):
    return tuple((t, tuple(members)) for t, members in sorted(fibers(images).items())
                 if len(members) >= smallest)


def test_fiber_tables_match_fresh_fibers(one_dimensional_family):
    sets = [builder() for builder in BUNDLED] + [member.X for member in one_dimensional_family]
    mismatches, routes = [], 0
    for X in sets:
        for n in range(1, ORACLE_CUTOFF + 1):
            table = X.face_fibers(n)
            assert type(table) is tuple and all(type(fibs) is tuple for fibs in table)
            if table != tuple(_fresh_fibers(col, 1) for col in X.face_table(n)):
                mismatches.append((X.name, n))
            # every composite the checks read: the base words of both loops
            for base in {base for read in (ordering._adjacent_routes, ordering._equal_words)
                         for base, _ in read(n) if n > 1}:
                routes += 1
                if X.route_fibers(n, base) != _fresh_fibers(_oracle_images(X, n, base), 2):
                    mismatches.append((X.name, n, base))
    assert routes == len(sets) * (6 + 16 + 35 + 71)
    assert mismatches == []


def _oracle_level_order_orders(X, level_orders, cutoff):
    """The ref-keyed orders ``assignment_from_level_orders`` built and had
    validated before it wrote ranks."""
    orders = {}
    for n in range(1, cutoff + 1):
        refs, below = X.level(n), X.level(n - 1)
        pos = {ref: k for k, ref in enumerate(level_orders[n])}
        for i in range(n + 1):
            for t, members in fibers(X.face_table(n)[i]).items():
                orders[(n, i, below[t])] = tuple(sorted((refs[k] for k in members),
                                                        key=pos.__getitem__))
    return orders


def _same_certificate(a, b):
    return (a.cutoff == b.cutoff and a.orders == b.orders
            and all(a.ranks(n, i) == b.ranks(n, i)
                    for n in range(1, a.cutoff + 1) for i in range(n + 1)))


def test_ranks_first_certificates_match_the_validating_constructor(one_dimensional_family):
    # family members that fail or are inconclusive at the family cutoff are
    # not searched: their verdicts carry no certificate, and the witness
    # search of a failing set is most of the family's search time
    sets = [(builder(), True) for builder in BUNDLED]
    sets += [(m.X, isinstance(m.searched, NncmoResult) and m.searched.admits)
             for m in one_dimensional_family]
    mismatches, compared = [], {"level orders": 0, "searched": 0}
    for X, search in sets:
        for cutoff in (2, 3, 4):
            level_orders = [{n: X.level_nonbase(n) for n in range(1, cutoff + 1)}]
            try:
                level_orders.append(cyclic_ordering(X, cutoff))
            except OrderingError:  # sphere2, or no face-monotone order
                pass
            for orders in level_orders:
                compared["level orders"] += 1
                want = OrderingAssignment(X, cutoff,
                                          _oracle_level_order_orders(X, orders, cutoff))
                if not _same_certificate(assignment_from_level_orders(X, orders, cutoff), want):
                    mismatches.append((X.name, cutoff, "level orders"))
            res = search_nncmo(X, cutoff) if search else None
            if res is not None and res.admits:
                compared["searched"] += 1
                want = OrderingAssignment(X, cutoff, res.assignment.orders)
                if not _same_certificate(res.assignment, want):
                    mismatches.append((X.name, cutoff, "searched"))
    assert mismatches == []
    assert compared == {"level orders": 963, "searched": 419}


def test_level_orders_missing_a_simplex_are_refused():
    # this used to escape as a bare KeyError: SimplexRef(base=1, word=(0,))
    with pytest.raises(OrderingError, match="at level 1 is not a permutation"):
        assignment_from_level_orders(circle(), {1: (), 2: (), 3: ()}, 3)


@pytest.mark.parametrize("make", [lambda X, level: (X.basepoint_ref(2), *level),
                                  lambda X, level: (*level, level[0])],
                         ids=["basepoint", "duplicate"])
def test_level_orders_that_are_not_permutations_are_refused(make):
    # both were accepted silently before
    X = circle()
    orders = {n: X.level_nonbase(n) for n in (1, 2, 3)}
    orders[2] = make(X, orders[2])
    with pytest.raises(OrderingError, match="at level 2 is not a permutation"):
        assignment_from_level_orders(X, orders, 3)


def test_fibers_are_grouped_once_per_column_and_route(monkeypatch):
    grouped = [0]
    original = simplicial.fibers

    def counted(images):
        grouped[0] += 1
        return original(images)

    monkeypatch.setattr(simplicial, "fibers", counted)
    with redirect_stdout(io.StringIO()):
        assert cli.main(["nncmo", "wedge3", "--cutoff", "4", "--oracle", "--json"]) == 0
    # the cyclic certificate's check, the search's constraints and its own
    # check, and the full oracle all read one table per set object
    columns = sum(n + 1 for n in range(1, 5))
    routes = {(n, base) for n in range(2, 5)
              for read in (ordering._adjacent_routes, ordering._equal_words)
              for base, _ in read(n)}
    assert (columns, len(routes)) == (14, 57)
    assert grouped[0] <= columns + len(routes)  # grouping in each consumer: 151
    # the tables hang off the set: a fresh set starts from zero
    for X in (wedge_of_circles(3), wedge_of_circles(3)):
        grouped[0] = 0
        tables = X.face_fibers(2), X.route_fibers(3, (1, 0))
        assert tables == (X.face_fibers(2), X.route_fibers(3, (1, 0)))
        assert X.face_fibers(2) is tables[0] and X.route_fibers(3, (1, 0)) is tables[1]
        assert grouped[0] == 3 + 1


def test_key_tables_are_built_once_per_certificate_and_word(monkeypatch):
    builds = []
    original = OrderingAssignment.induced_keys

    def counted(self, level, word):
        if (level, word) not in self._keys:
            builds.append((self, level, word))  # holding self keeps its id unique
        return original(self, level, word)

    monkeypatch.setattr(OrderingAssignment, "induced_keys", counted)
    with redirect_stdout(io.StringIO()):
        assert cli.main(["nncmo", "wedge3", "--cutoff", "4", "--oracle", "--json"]) == 0
    tables = {(id(cert), level, word) for cert, level, word in builds}
    assert len(tables) == len(builds)
    # the canonical certificate's check, and the searched certificate's
    # check with the full oracle check after it on the same tables
    certificates = list(dict.fromkeys(cert for cert, _, _ in builds))
    assert len(certificates) == 2
    searched = certificates[1]
    builds.clear()
    assert check_nncmo(searched.X, searched, 4) is None
    assert check_nncmo_full(searched.X, searched, 4) is None
    assert builds == []
