"""Fiber orderings of face maps and the multiplicative-ordering machinery.

A noncommutative coefficient algebra needs a recipe for multiplying the
factors that a face map merges into one tensor slot.  The data is a total
order on every fiber of every single face map (an ``OrderingAssignment``);
orders of compositions are always induced lexicographically from the step
data.  The assignment is *multiplicative* (an NNCMO) when, for every pair of
equal two-step compositions d_i d_j = d_{j-1} d_i, the two induced orders
agree on every common fiber whose image is not the basepoint.  Any two equal
factorizations of a longer composition are connected by such adjacent swaps,
so the quadratic adjacent check suffices; a full-factorization oracle check
is available behind a flag to validate the reduction on concrete inputs.

Fibers over the basepoint never carry an order: their factors act on the
coefficient module instead, through the action classes computed here.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field as dc_field
from itertools import combinations, permutations
from math import factorial
from types import MappingProxyType
from typing import Mapping

from .simplicial import SimplexRef, SimplicialSet


class OrderingError(ValueError):
    pass


class InconclusiveSearch(RuntimeError):
    """The backtracking search hit its node limit; no verdict was reached."""


class CyclicOrderingUnavailable(OrderingError):
    """The canonical cyclic-ordering construction does not apply to this set."""


def _require_cutoff(cutoff: int) -> None:
    if cutoff < 1:
        raise OrderingError(f"cutoff must be at least 1, got cutoff {cutoff}")


# ---------------------------------------------------------------------------
# fibers and assignments

def _fibers(X: SimplicialSet, n: int, i: int) -> dict[int, list[int]]:
    """Fibers of d_i : X_n -> X_{n-1} over non-basepoint targets, on level
    indices: target -> members in level order."""
    out: dict[int, list[int]] = {}
    for k, t in enumerate(X.face_table(n)[i]):
        if t:
            out.setdefault(t, []).append(k)
    return out


def fibers_of_face(X: SimplicialSet, level: int, i: int) -> dict[SimplexRef, tuple[SimplexRef, ...]]:
    """Fibers of d_i : X_level -> X_{level-1} over non-basepoint targets,
    each listed in level-enumeration order."""
    fibers = _fibers(X, level, i)
    refs, below = X.level(level), X.level(level - 1)
    return {below[t]: tuple(refs[k] for k in members) for t, members in fibers.items()}


class OrderingAssignment:
    """Per (level <= cutoff, face index): a total order for every fiber of
    d_i over a non-basepoint target, and for nothing else.

    ``ranks(n, i)`` is the integer view the checks read, built once: the
    position of each level-n simplex, by level index, in the order of its
    d_i fiber (-1 where d_i hits the basepoint)."""

    def __init__(self, X: SimplicialSet, cutoff: int,
                 orders: dict[tuple[int, int, SimplexRef], tuple[SimplexRef, ...]]):
        _require_cutoff(cutoff)
        self.X = X
        self.cutoff = cutoff
        self.orders = dict(orders)
        self._ranks: dict[tuple[int, int], tuple[int, ...]] = {}
        covered = set()
        for n in range(1, cutoff + 1):
            index, below = X.index(n), X.level(n - 1)
            for i in range(n + 1):
                rank = [-1] * len(index)
                for t, members in _fibers(X, n, i).items():
                    key = (n, i, below[t])
                    if key not in self.orders:
                        raise OrderingError(
                            f"assignment misses the fiber of d_{i} over "
                            f"{X.monotone_name(below[t])} at level {n}")
                    order = [index.get(ref, -1) for ref in self.orders[key]]
                    if sorted(order) != members:
                        raise OrderingError(
                            f"order at level {n}, d_{i}, target "
                            f"{X.monotone_name(below[t])} is not a permutation of the fiber")
                    for p, k in enumerate(order):
                        rank[k] = p
                    covered.add(key)
                self._ranks[(n, i)] = tuple(rank)
        if len(covered) != len(self.orders):
            stray = next(key for key in self.orders if key not in covered)
            raise OrderingError(
                f"assignment orders {stray!r}, which is not the fiber of a face map "
                f"over a non-basepoint target at a level up to the cutoff {cutoff}")

    def order_of(self, level: int, i: int, target: SimplexRef) -> tuple[SimplexRef, ...]:
        return self.orders[(level, i, target)]

    def position(self, level: int, i: int, target: SimplexRef, ref: SimplexRef) -> int:
        return self.orders[(level, i, target)].index(ref)

    def ranks(self, level: int, i: int) -> tuple[int, ...]:
        return self._ranks[(level, i)]

    def describe(self) -> list[str]:
        lines = []
        for (level, i, target), order in sorted(self.orders.items()):
            if len(order) < 2:
                continue
            chain = " < ".join(self.X.monotone_name(r) for r in order)
            lines.append(f"level {level}, d_{i} over {self.X.monotone_name(target)}: {chain}")
        return lines


def assignment_from_level_orders(X: SimplicialSet, level_orders: dict[int, tuple[SimplexRef, ...]],
                                 cutoff: int) -> OrderingAssignment:
    """Restrict per-level total orders on X_n \\ {*} to every fiber."""
    _require_cutoff(cutoff)
    orders = {}
    for n in range(1, cutoff + 1):
        if n not in level_orders:
            raise OrderingError(f"level orders missing level {n}")
        refs, below = X.level(n), X.level(n - 1)
        pos = {ref: k for k, ref in enumerate(level_orders[n])}
        for i in range(n + 1):
            for t, members in _fibers(X, n, i).items():
                orders[(n, i, below[t])] = tuple(sorted((refs[k] for k in members),
                                                        key=pos.__getitem__))
    return OrderingAssignment(X, cutoff, orders)


# ---------------------------------------------------------------------------
# composition-induced orders

def _induced_compare(X, assignment, steps, level, x: int, y: int) -> int:
    """-1/0/+1 order of two fiber members (level indices) induced by the
    composition applying the faces in ``steps``: they separate inside a
    single-step fiber (its order decides) or earlier in their images."""
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


def composition_induced_order(X: SimplicialSet, assignment: OrderingAssignment,
                              steps: tuple[int, ...], level: int,
                              fiber) -> tuple[SimplexRef, ...]:
    """Sort a fiber of the composition (faces applied in ``steps`` order)."""
    index, refs = X.index(level), X.level(level)
    members = [index[ref] for ref in fiber]
    return tuple(refs[k] for k in _induced_order(X, assignment, steps, level, members))


def _induced_order(X, assignment, steps, level, members) -> tuple[int, ...]:
    """``composition_induced_order`` on level indices."""
    cmp = functools.cmp_to_key(
        lambda a, b: _induced_compare(X, assignment, steps, level, a, b))
    return tuple(sorted(members, key=cmp))


def _composition_word_string(steps: tuple[int, ...]) -> str:
    """Render faces applied first-to-last as the usual right-to-left composite."""
    return " ".join(f"d{i}" for i in reversed(steps))


# ---------------------------------------------------------------------------
# witnesses

@dataclass(frozen=True)
class Witness:
    """A fiber plus two equal face-map factorizations whose induced ordering
    requirements clash.

    ``kind`` is 'absolute' when no total order at all satisfies both routes
    (certified by enumerating every order of the fiber), or 'assignment' when
    a concrete assignment's two induced orders disagree.
    """

    level: int
    target: SimplexRef
    fiber: tuple[SimplexRef, ...]
    steps_a: tuple[int, ...]
    steps_b: tuple[int, ...]
    kind: str
    explanation: str

    def factorization_strings(self) -> tuple[str, str]:
        return (_composition_word_string(self.steps_a), _composition_word_string(self.steps_b))

    def verify_equal_maps(self, X: SimplicialSet) -> bool:
        """Both factorizations act identically on the fiber and hit the
        (non-basepoint) target."""
        for ref in self.fiber:
            a = X.face_word(ref, self.steps_a)
            b = X.face_word(ref, self.steps_b)
            if a != b or a != self.target:
                return False
        return not X.is_basepoint(self.target)

    def reverify_unsat(self, X: SimplicialSet) -> bool:
        """Confirm by exhaustive enumeration that no total order of the fiber
        is inducible by both factorizations."""
        return not _joint_orders_exist(X, self.fiber, self.steps_a, self.steps_b)

    def describe(self, X: SimplicialSet) -> list[str]:
        fa, fb = self.factorization_strings()
        lines = [f"level {self.level} fiber over {X.monotone_name(self.target)} "
                 f"under {fa} = {fb}:",
                 "  " + ", ".join(X.monotone_name(r) for r in self.fiber),
                 "  " + self.explanation]
        return lines


def _route_blocks(X: SimplicialSet, fiber, first_step: int) -> list[tuple[SimplexRef, ...]]:
    groups: dict[SimplexRef, list[SimplexRef]] = {}
    for ref in fiber:
        groups.setdefault(X.face(ref, first_step), []).append(ref)
    return [tuple(v) for _, v in sorted(groups.items())]


def _joint_orders_exist(X: SimplicialSet, fiber, steps_a, steps_b) -> bool:
    """Is some total order of the fiber inducible by both two-step routes?

    A total order is inducible by a route exactly when every same-first-image
    block is an interval of it (step orders are otherwise free), so a small
    fiber can be settled by enumerating all |fiber|! orders.
    """
    blocks_a = [set(b) for b in _route_blocks(X, fiber, steps_a[0])]
    blocks_b = [set(b) for b in _route_blocks(X, fiber, steps_b[0])]

    def intervals_ok(order, blocks):
        pos = {r: k for k, r in enumerate(order)}
        for block in blocks:
            ps = sorted(pos[r] for r in block)
            if ps[-1] - ps[0] != len(ps) - 1:
                return False
        return True

    if len(fiber) > 7:
        raise OrderingError("fiber too large for exhaustive order enumeration")
    for order in permutations(fiber):
        if intervals_ok(order, blocks_a) and intervals_ok(order, blocks_b):
            return True
    return False


# ---------------------------------------------------------------------------
# the NNCMO check (adjacent identities) and the full-factorization oracle

def _adjacent_routes(n: int):
    """All pairs (steps_a, steps_b) realizing d_i d_j = d_{j-1} d_i from level n."""
    for j in range(1, n + 1):
        for i in range(j):
            yield (j, i), (i, j - 1)


def _two_step_fibers(X: SimplicialSet, n: int, steps) -> list[tuple[int, tuple[int, ...]]]:
    """Fibers of the composition (faces applied in ``steps`` order) from level
    n over non-basepoint targets, on level indices and sorted by target."""
    images = range(len(X.level(n)))
    for s, i in enumerate(steps):
        col = X.face_table(n - s)[i]
        images = [col[k] for k in images]
    groups: dict[int, list[int]] = {}
    for k, t in enumerate(images):
        if t:
            groups.setdefault(t, []).append(k)
    return [(t, tuple(members)) for t, members in sorted(groups.items())]


def _assignment_witness(X, n, target, fiber, steps_a, steps_b, order_a, order_b) -> Witness:
    """The witness of two induced orders (level indices) that disagree."""
    refs = X.level(n)

    def chain(order):
        return " < ".join(X.monotone_name(refs[k]) for k in order)

    return Witness(n, X.level(n - len(steps_a))[target], tuple(refs[k] for k in fiber),
                   steps_a, steps_b, "assignment",
                   "induced orders disagree: " + chain(order_a) + "  versus  " + chain(order_b))


def check_nncmo(X: SimplicialSet, assignment: OrderingAssignment, cutoff: int) -> Witness | None:
    """Verify the multiplicative-ordering condition on all adjacent-identity
    pairs up to the cutoff; returns the first violating witness, or None.

    A cutoff of 1 has no two-step compositions and is trivially fine.
    """
    _require_cutoff(cutoff)
    if cutoff > assignment.cutoff:
        raise OrderingError("assignment cutoff too small for the requested check")
    for n in range(2, cutoff + 1):
        for steps_a, steps_b in _adjacent_routes(n):
            for target, fiber in _two_step_fibers(X, n, steps_a):
                if len(fiber) < 2:
                    continue
                order_a = _induced_order(X, assignment, steps_a, n, fiber)
                order_b = _induced_order(X, assignment, steps_b, n, fiber)
                if order_a != order_b:
                    return _assignment_witness(X, n, target, fiber, steps_a, steps_b,
                                               order_a, order_b)
    return None


@functools.cache
def _face_words(n: int, length: int) -> Mapping[frozenset, tuple[tuple[int, ...], ...]]:
    """All compositions of ``length`` face maps from level n, as tuples in
    application order, keyed by the set of deleted positions (equal maps
    share a key).  Cached per ``(n, length)``; the mapping is read-only and
    its values are tuples, so no caller can change the cached value."""
    out: dict[frozenset, list[tuple[int, ...]]] = {}

    def rec(level, word, positions):
        if len(word) == length:
            deleted = frozenset(range(n + 1)) - frozenset(positions)
            out.setdefault(deleted, []).append(tuple(word))
            return
        for i in range(level + 1):
            rec(level - 1, word + [i], positions[:i] + positions[i + 1:])

    rec(n, [], list(range(n + 1)))
    return MappingProxyType({k: tuple(words) for k, words in out.items()})


def check_nncmo_full(X: SimplicialSet, assignment: OrderingAssignment, cutoff: int) -> Witness | None:
    """Brute-force variant: compare induced orders across *all* pairs of equal
    face-map factorizations up to the cutoff, not just adjacent swaps."""
    _require_cutoff(cutoff)
    for n in range(2, cutoff + 1):
        for length in range(2, n + 1):
            for _, words in sorted(_face_words(n, length).items(),
                                   key=lambda kv: sorted(kv[0])):
                if len(words) < 2:
                    continue
                words = sorted(words)
                base = words[0]
                base_fibers = _two_step_fibers(X, n, base)
                for other in words[1:]:
                    for target, fiber in base_fibers:
                        if len(fiber) < 2:
                            continue
                        oa = _induced_order(X, assignment, base, n, fiber)
                        ob = _induced_order(X, assignment, other, n, fiber)
                        if oa != ob:
                            return _assignment_witness(X, n, target, fiber, base, other,
                                                       oa, ob)
    return None


# ---------------------------------------------------------------------------
# exhaustive search for an assignment

@dataclass(frozen=True)
class NncmoResult:
    verdict: str  # 'admits' | 'fails'
    assignment: OrderingAssignment | None = None
    witness: Witness | None = None
    nodes: int = 0

    @property
    def admits(self) -> bool:
        return self.verdict == "admits"


class _PairVars:
    """Precedence variables x_(fiber, a, b) meaning a < b, with equivalence
    constraints and transitivity propagation inside fibers."""

    def __init__(self):
        self.vars: list[tuple] = []
        self.index: dict[tuple, int] = {}
        self.adj: dict[int, list[tuple[int, int]]] = {}
        self.fiber_members: dict[tuple, tuple] = {}
        self.var_fiber: dict[int, tuple] = {}

    def add_fiber(self, key, members):
        self.fiber_members[key] = tuple(members)
        for a, b in combinations(members, 2):
            vid = len(self.vars)
            self.index[(key, a, b)] = vid
            self.vars.append((key, a, b))
            self.var_fiber[vid] = key

    def literal(self, key, a, b) -> tuple[int, int]:
        """(var id, sign): sign +1 if the var asserts a < b, else -1."""
        if (key, a, b) in self.index:
            return self.index[(key, a, b)], 1
        return self.index[(key, b, a)], -1

    def add_equiv(self, lit1, lit2):
        v1, s1 = lit1
        v2, s2 = lit2
        if v1 == v2:
            if s1 != s2:
                return False  # x == not x: immediate clash
            return True
        parity = s1 * s2
        self.adj.setdefault(v1, []).append((v2, parity))
        self.adj.setdefault(v2, []).append((v1, parity))
        return True


def search_nncmo(X: SimplicialSet, cutoff: int, node_limit: int = 500_000) -> NncmoResult:
    """Backtracking search over per-fiber total orders, encoded as pairwise
    precedence variables with equivalence propagation and transitivity.

    This is the brute-force oracle for the classification: it either finds an
    assignment (verified against ``check_nncmo`` before being returned) or
    certifies failure with a single-fiber witness.  An explicit node limit
    turns runaway searches into an ``InconclusiveSearch`` error rather than a
    wrong answer.
    """
    _require_cutoff(cutoff)
    if cutoff < 2:
        orders = {}
        for n in range(1, cutoff + 1):
            for i in range(n + 1):
                for target, fiber in fibers_of_face(X, n, i).items():
                    orders[(n, i, target)] = fiber
        return NncmoResult("admits", OrderingAssignment(X, cutoff, orders))

    # variables, fibers and literals all live on level indices:
    # a fiber key is (level, face index, target index)
    pv = _PairVars()
    fiber_lists: dict[tuple, tuple] = {}
    for n in range(1, cutoff + 1):
        for i in range(n + 1):
            for target, fiber in sorted(_fibers(X, n, i).items()):
                key = (n, i, target)
                fiber_lists[key] = tuple(fiber)
                if len(fiber) >= 2:
                    pv.add_fiber(key, fiber)

    def step_literal(n, steps, target, x, y):
        col = X.face_table(n)[steps[0]]
        fx, fy = col[x], col[y]
        if fx == fy:
            return pv.literal((n, steps[0], fx), x, y)
        return pv.literal((n - 1, steps[1], target), fx, fy)

    direct_clash = None
    constraint_sources = []
    for n in range(2, cutoff + 1):
        for steps_a, steps_b in _adjacent_routes(n):
            for target, fiber in _two_step_fibers(X, n, steps_a):
                if len(fiber) < 2:
                    continue
                constraint_sources.append((n, target, fiber, steps_a, steps_b))
                for x, y in combinations(fiber, 2):
                    lit_a = step_literal(n, steps_a, target, x, y)
                    lit_b = step_literal(n, steps_b, target, x, y)
                    if not pv.add_equiv(lit_a, lit_b):
                        direct_clash = (n, target, fiber, steps_a, steps_b)

    values: dict[int, int] = {}
    nodes = 0

    def propagate(vid, val, trail) -> bool:
        queue = [(vid, val)]
        while queue:
            v, b = queue.pop()
            if v in values:
                if values[v] != b:
                    return False
                continue
            values[v] = b
            trail.append(v)
            for w, parity in pv.adj.get(v, ()):
                queue.append((w, b if parity > 0 else 1 - b))
            # transitivity inside the fiber of v
            key = pv.var_fiber[v]
            members = pv.fiber_members[key]
            _, a, c = pv.vars[v]
            for m in members:
                if m in (a, c):
                    continue
                for (p, q, r) in ((a, c, m), (m, a, c), (a, m, c)):
                    # if p<q and q<r are known, force p<r
                    l1 = pv.literal(key, p, q)
                    l2 = pv.literal(key, q, r)
                    l3 = pv.literal(key, p, r)
                    v1 = values.get(l1[0])
                    v2 = values.get(l2[0])
                    if v1 is None or v2 is None:
                        continue
                    t1 = v1 if l1[1] > 0 else 1 - v1
                    t2 = v2 if l2[1] > 0 else 1 - v2
                    if t1 == 1 and t2 == 1:
                        want = 1 if l3[1] > 0 else 0
                        if l3[0] in values:
                            if values[l3[0]] != want:
                                return False
                        else:
                            queue.append((l3[0], want))
        return True

    satisfiable = direct_clash is None
    if satisfiable:
        order_of_vars = list(range(len(pv.vars)))
        decision_trail: list[tuple[int, int, list[int]]] = []
        idx = 0
        while idx < len(order_of_vars):
            vid = order_of_vars[idx]
            if vid in values:
                idx += 1
                continue
            nodes += 1
            if nodes > node_limit:
                raise InconclusiveSearch(
                    f"node limit {node_limit} exceeded at cutoff {cutoff}; "
                    "no verdict at this cutoff")
            trail: list[int] = []
            if propagate(vid, 1, trail):
                decision_trail.append((idx, 1, trail))
                idx += 1
                continue
            for v in trail:
                del values[v]
            trail = []
            if propagate(vid, 0, trail):
                decision_trail.append((idx, 0, trail))
                idx += 1
                continue
            for v in trail:
                del values[v]
            # backtrack
            while decision_trail:
                j, tried, tr = decision_trail.pop()
                for v in tr:
                    del values[v]
                if tried == 1:
                    nodes += 1
                    tr2: list[int] = []
                    if propagate(order_of_vars[j], 0, tr2):
                        decision_trail.append((j, 0, tr2))
                        idx = j + 1
                        break
                    for v in tr2:
                        del values[v]
            else:
                satisfiable = False
                break

    if satisfiable:
        orders = {}
        for key, fiber in fiber_lists.items():
            if len(fiber) >= 2:

                def cmp(a, b, key=key):
                    v, s = pv.literal(key, a, b)
                    val = values[v] if s > 0 else 1 - values[v]
                    return -1 if val == 1 else 1

                fiber = sorted(fiber, key=functools.cmp_to_key(cmp))
            n, i, target = key
            refs = X.level(n)
            orders[(n, i, X.level(n - 1)[target])] = tuple(refs[k] for k in fiber)
        assignment = OrderingAssignment(X, cutoff, orders)
        bad = check_nncmo(X, assignment, cutoff)
        if bad is not None:
            raise OrderingError("internal error: search produced an assignment "
                                "that fails the consistency check")
        return NncmoResult("admits", assignment, nodes=nodes)

    # unsatisfiable: certify with a single locally-contradictory fiber
    for (n, target, fiber, steps_a, steps_b) in constraint_sources:
        if not 2 <= len(fiber) <= 7:
            continue
        refs = tuple(X.level(n)[k] for k in fiber)
        if not _joint_orders_exist(X, refs, steps_a, steps_b):
            fa, fb = _composition_word_string(steps_a), _composition_word_string(steps_b)
            expl = (f"no total order of the fiber is inducible by both {fa} and {fb}: "
                    "the two block structures interleave")
            witness = Witness(n, X.level(n - 2)[target], refs, steps_a, steps_b,
                              "absolute", expl)
            return NncmoResult("fails", witness=witness, nodes=nodes)
    raise InconclusiveSearch(
        "orders are jointly unsatisfiable but no single-fiber witness exists "
        f"at cutoff {cutoff}")


# ---------------------------------------------------------------------------
# cyclic orderings and the fast classification

def cyclic_ordering(X: SimplicialSet, cutoff: int) -> dict[int, tuple[SimplexRef, ...]]:
    """Per-level total orders on X_n \\ {*} with the face-monotone property:
    sigma < tau implies d_i(sigma) <= d_i(tau) (basepoint counted minimal).

    The basepoint is the wrap point of the cyclic picture (it is both the
    all-0s and the all-1s word), so comparisons in which a face image hits the
    basepoint impose no constraint: such factors act on the coefficient module
    and never enter an induced-order comparison.

    Construction: degeneracies of 1-simplices come first, ordered by the
    input order of their base edge and then alphabetically by monotone binary
    word; degeneracies of non-basepoint vertices follow, by vertex input
    order.  The property is verified exhaustively up to the cutoff, and a
    failure raises ``CyclicOrderingUnavailable`` (some one-dimensional sets,
    e.g. a circle subdivided through an extra vertex, have no face-monotone
    order even though a multiplicative ordering exists via search).
    """
    _require_cutoff(cutoff)
    if X.dimension() > 1:
        raise OrderingError("cyclic orderings are defined for one-dimensional sets only")
    edge_pos = {}
    vertex_pos = {}
    for idx, s in enumerate(X.simplices):
        if s.dim == 1:
            edge_pos[idx] = len(edge_pos)
        elif idx != X.basepoint:
            vertex_pos[idx] = len(vertex_pos)

    def key(ref: SimplexRef):
        base = X.simplices[ref.base]
        if base.dim == 1:
            return (0, edge_pos[ref.base], X.monotone_name(ref))
        return (1, vertex_pos[ref.base], "")

    orders = {n: tuple(sorted(X.level_nonbase(n), key=key)) for n in range(cutoff + 1)}

    for n in range(2, cutoff + 1):
        below, index, table = X.index(n - 1), X.index(n), X.face_table(n)
        pos_below = [0] * len(below)
        for k, ref in enumerate(orders[n - 1]):
            pos_below[below[ref]] = k
        seq = orders[n]
        members = [index[ref] for ref in seq]
        for a in range(len(seq)):
            for b in range(a + 1, len(seq)):
                for i, col in enumerate(table):
                    fa, fb = col[members[a]], col[members[b]]
                    if fa and fb and pos_below[fa] > pos_below[fb]:
                        raise CyclicOrderingUnavailable(
                            f"face-monotonicity fails at level {n}: "
                            f"{X.monotone_name(seq[a])} < {X.monotone_name(seq[b])} "
                            f"but d_{i} reverses them")
    return orders


def classify_nncmo(X: SimplicialSet, cutoff: int = 4) -> NncmoResult:
    """Sets of dimension >= 2 fail with the generic four-simplex witness.  A
    one-dimensional set admits when its cyclic certificate exists and passes
    ``check_nncmo``; otherwise ``search_nncmo`` decides, and it may find a
    certificate, fail with a witness or raise ``InconclusiveSearch``."""
    problems = X.validate()
    if problems:
        raise OrderingError("invalid simplicial set: " + "; ".join(problems))
    if X.dimension() <= 1:
        try:
            orders = cyclic_ordering(X, cutoff)
            assignment = assignment_from_level_orders(X, orders, cutoff)
            bad = check_nncmo(X, assignment, cutoff)
            if bad is None:
                return NncmoResult("admits", assignment)
        except CyclicOrderingUnavailable:
            pass
        return search_nncmo(X, cutoff)
    # generic witness on the first nondegenerate simplex of minimal dim >= 2
    best = None
    for idx, s in enumerate(X.simplices):
        if s.dim >= 2 and (best is None or s.dim < X.simplices[best].dim):
            best = idx
    sigma = SimplexRef(best)
    d = X.simplices[best].dim
    level = d + 2
    fiber = tuple(sorted(SimplexRef(best, w) for w in ((2, 0), (3, 0), (3, 1), (2, 1))))
    steps_a, steps_b = (3, 1), (1, 2)  # d_1 d_3 = d_2 d_1
    witness = Witness(level, sigma, fiber, steps_a, steps_b, "absolute",
                      "the d_1 blocks and d_3 blocks of the four degeneracies interleave, "
                      "so no order is inducible by both routes")
    if not witness.verify_equal_maps(X) or not witness.reverify_unsat(X):
        raise OrderingError("internal error: generic witness failed verification")
    return NncmoResult("fails", witness=witness)


# ---------------------------------------------------------------------------
# action sites and classes

Site = tuple[int, SimplexRef, int]  # (level, simplex, face index)
_IndexSite = tuple[int, int, int]  # (level, index in the level, face index)


@dataclass(frozen=True)
class ActionClass:
    class_id: str
    action_type: str  # 'left' | 'right' | 'lr' | 'untyped'
    sites: tuple[Site, ...]


@dataclass(frozen=True)
class ActionClassReport:
    cutoff: int
    classes: tuple[ActionClass, ...]
    notes: tuple[str, ...]
    _by_site: dict = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_by_site", {
            site: cls for cls in self.classes for site in cls.sites})

    def class_of_site(self, site: Site) -> ActionClass | None:
        return self._by_site.get(site)


_TYPING_NOTE = (
    "action typing reads an equal pair of face-map factorizations as: the "
    "factorization that kills the larger fiber member strictly first makes the "
    "class a left action, killing the smaller member first makes it a right "
    "action; classes are the finest identification of basepoint-hitting sites "
    "under the four coface compatibility rules")


def _union_sites(X: SimplicialSet, cutoff: int) -> list[tuple[_IndexSite, ...]]:
    """Classes of basepoint-hitting sites on level indices, sorted within
    and across classes."""
    parent: dict[_IndexSite, _IndexSite] = {}

    def find(s):
        while parent[s] != s:
            parent[s] = parent[parent[s]]
            s = parent[s]
        return s

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    # member indices of a level follow the (base, word) order of the refs,
    # so sorting index sites sorts the ref sites
    sites = []
    for n in range(1, cutoff + 1):
        table = X.face_table(n)
        for k in range(1, len(table[0])):
            for i in range(n + 1):
                if table[i][k] == 0:
                    site = (n, k, i)
                    parent[site] = site
                    sites.append(site)

    for n in range(2, cutoff + 1):
        table, below = X.face_table(n), X.face_table(n - 1)
        for sigma in range(1, len(table[0])):
            faces = [col[sigma] for col in table]
            star = [f == 0 for f in faces]
            # (i): two basepoint faces of one simplex
            hit = [i for i in range(n + 1) if star[i]]
            for a in range(len(hit)):
                for b in range(a + 1, len(hit)):
                    union((n, sigma, hit[a]), (n, sigma, hit[b]))
            # (ii): the site transports along any non-basepoint face
            for j in range(1, n + 1):
                if not star[j]:
                    continue
                for i in range(n + 1):
                    if i == j or star[i]:
                        continue
                    omega = faces[i]
                    if below[j - 1][omega] == 0:
                        union((n, sigma, j), (n - 1, omega, j - 1))
            # (iii): two faces of a common simplex identify their sites
            for i in range(n + 1):
                for j in range(i + 1, n + 1):
                    omega, mu = faces[j], faces[i]
                    if star[j] or star[i]:
                        continue
                    if i <= n - 1 and below[i][omega] == 0 and below[j - 1][mu] == 0:
                        union((n - 1, omega, i), (n - 1, mu, j - 1))
            # (iv): same face index one level down
            for i in range(n + 1):
                if not star[i]:
                    continue
                for j in range(n + 1):
                    if j == i or star[j]:
                        continue
                    omega = faces[j]
                    if i <= n - 1 and below[i][omega] == 0:
                        union((n, sigma, i), (n - 1, omega, i))

    groups: dict[_IndexSite, list[_IndexSite]] = {}
    for s in sites:
        groups.setdefault(find(s), []).append(s)
    return [tuple(sorted(v)) for _, v in sorted(groups.items())]


def classify_actions(X: SimplicialSet, cutoff: int = 4, max_word_length: int = 4,
                     assignment: OrderingAssignment | None = None) -> ActionClassReport:
    """Partition the basepoint-hitting sites (simplex, face index) into
    classes under the coface compatibility rules, then type each class by a
    factorization search against ``assignment``, the certificate whose fiber
    orders the caller multiplies with (trusted as multiplicative; reaching
    level ``cutoff``, else ``OrderingError``), or when it is None against the
    canonical certificate ``classify_nncmo`` derives.

    Sets of dimension >= 2 carry no multiplicative ordering, so their classes
    are reported untyped (only commutative coefficients apply there and any
    action of a commutative algebra obeys both laws).

    Typing walks each level's trie of face words once (``_route_tables``):
    254 prefix steps at cutoff 4 with words up to length 4, where simulating
    each word alone takes 808, plus merging pairs x word pairs of evidence.
    """
    _require_cutoff(cutoff)
    if max_word_length < 2:
        raise OrderingError(f"max_word_length must be at least 2, got {max_word_length}")
    if assignment is not None and assignment.cutoff < cutoff:
        raise OrderingError(f"assignment cutoff {assignment.cutoff} is below the "
                            f"typing cutoff {cutoff}")
    notes = [_TYPING_NOTE]
    site_groups = _union_sites(X, cutoff)

    if X.dimension() > 1:
        assignment = None
        notes.append("set is not one-dimensional: no multiplicative ordering exists, "
                     "classes left untyped")
    elif assignment is None:
        res = classify_nncmo(X, cutoff)
        if res.admits:
            assignment = res.assignment
        else:
            notes.append("no multiplicative ordering found; classes left untyped")

    # site_class[n][i][k]: the class of the site (n, level(n)[k], i), or None
    site_class = {n: [[None] * len(X.level(n)) for _ in range(n + 1)]
                  for n in range(1, cutoff + 1)}
    for gi, group in enumerate(site_groups):
        for n, k, i in group:
            site_class[n][i][k] = gi
    evidence: dict[int, set[str]] = {gi: set() for gi in range(len(site_groups))}

    if assignment is not None:
        for n in range(2, cutoff + 1):
            _type_level(X, assignment, site_class, evidence, n, max_word_length)

    classes = []
    for gi, group in enumerate(site_groups):
        ev = evidence[gi]
        if "left" in ev and "right" in ev:
            typ = "lr"
        elif "left" in ev:
            typ = "left"
        elif "right" in ev:
            typ = "right"
        else:
            typ = "untyped"
        sites = tuple((n, X.level(n)[k], i) for n, k, i in group)
        _, ref0, i0 = sites[0]
        cid = f"d{i0}:{X.monotone_name(ref0)}"
        classes.append(ActionClass(cid, typ, sites))
    return ActionClassReport(cutoff, tuple(classes), tuple(notes))


def _type_level(X, assignment, site_class, evidence, n, max_word_length):
    """Collect the typing evidence of the level-n members.

    One evidence item is a pair of members and two equal factorizations: on
    the merge word the pair's images meet at a non-basepoint simplex that
    later dies, on the split word the two members die at different steps,
    and all three death sites lie in one class.  The fiber order at the
    meeting step names the smaller member; the smaller member dying strictly
    later makes the class a left action, dying first a right action.
    """
    for _, tables in _route_tables(X, assignment, site_class, n, min(n, max_word_length)):
        # the word a merging pair comes from, or -1 if several words merge it
        owner: dict[tuple[int, int, int], int] = {}
        for w, (_, merges) in enumerate(tables):
            for m in merges:
                owner[m] = w if owner.get(m, w) == w else -1
        for split_at, (deaths, _) in enumerate(tables):
            for (g, small, large), merge_at in owner.items():
                if split_at == merge_at:
                    continue  # a merged pair dies at one step on its own word
                ds, dl = deaths[small], deaths[large]
                if ds is None or dl is None or ds[1] != g or dl[1] != g \
                        or ds[0] == dl[0]:
                    continue
                evidence[g].add("left" if dl[0] < ds[0] else "right")


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
