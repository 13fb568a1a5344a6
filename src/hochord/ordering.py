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

Everything works on level indices: images and fibers are read from the
set's tables (``face_fibers`` for one face; ``route_images``, each
composite built once from its prefix's, and ``route_fibers`` for a
composite) and a certificate is written as ranks.  A certificate keys each
face word's induced order once, one integer per member (-1 where the word
kills it), in a table extending its tail's (``induced_keys``).  Both
checks are one loop (``_first_violation``) that skips a class whose base
images repeat no target and otherwise compares one sort per word, so
checks of one certificate share the tables.
The search (``search_nncmo``) keeps the order relation itself: relations
``(fiber, x, y)``, links between the relations two routes of an adjacent
identity give one pair, and one closure that adds a relation with its links
and its transitive consequences and refuses one whose reverse is known.

Fibers over the basepoint never carry an order: their factors act on the
coefficient module instead, through the action classes computed here.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field as dc_field
from itertools import combinations
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

class OrderingAssignment:
    """Per (level <= cutoff, face index): a total order for every fiber of
    d_i over a non-basepoint target, and for nothing else.

    ``ranks(n, i)`` is the integer view the checks read: the position of
    each level-n simplex, by level index, in the order of its d_i fiber (-1
    where d_i hits the basepoint).  The constructor validates the ``orders``
    a caller supplies; certificates built by ``_trusted`` hold ranks only
    and derive ``orders`` on first read."""

    def __init__(self, X: SimplicialSet, cutoff: int,
                 orders: dict[tuple[int, int, SimplexRef], tuple[SimplexRef, ...]]):
        _require_cutoff(cutoff)
        self.X, self.cutoff, self.orders, self._keys = X, cutoff, dict(orders), {}
        self._ranks, covered = {}, set()
        for n in range(1, cutoff + 1):
            below, index = X.level(n - 1), X.index(n)
            for i, fibs in enumerate(X.face_fibers(n)):
                rank = [-1] * len(index)
                for t, members in fibs:
                    key = (n, i, below[t])
                    if key not in self.orders:
                        raise OrderingError(f"assignment misses the fiber of d_{i} over "
                                            f"{X.monotone_name(key[2])} at level {n}")
                    order = [index.get(ref, -1) for ref in self.orders[key]]
                    if tuple(sorted(order)) != members:
                        raise OrderingError(f"order at level {n}, d_{i}, target "
                                            f"{X.monotone_name(key[2])} is not a permutation "
                                            "of the fiber")
                    for p, k in enumerate(order):
                        rank[k] = p
                    covered.add(key)
                self._ranks[n, i] = tuple(rank)
        if len(covered) != len(self.orders):
            stray = next(key for key in self.orders if key not in covered)
            raise OrderingError(
                f"assignment orders {stray!r}, which is not the fiber of a face map "
                f"over a non-basepoint target at a level up to the cutoff {cutoff}")

    @classmethod
    def _trusted(cls, X: SimplicialSet, cutoff: int,
                 ranks: dict[tuple[int, int], tuple[int, ...]]) -> OrderingAssignment:
        """The certificate with these ranks per (level, face); unvalidated."""
        self = cls.__new__(cls)
        self.X, self.cutoff, self._ranks, self._keys = X, cutoff, ranks, {}
        return self

    @functools.cached_property
    def orders(self) -> dict[tuple[int, int, SimplexRef], tuple[SimplexRef, ...]]:
        """``(level, i, target)`` -> the fiber of d_i over the target, in order."""
        orders = {}
        for (n, i), rank in self._ranks.items():
            refs, below = self.X.level(n), self.X.level(n - 1)
            for t, members in self.X.face_fibers(n)[i]:
                orders[(n, i, below[t])] = tuple(
                    refs[k] for k in sorted(members, key=rank.__getitem__))
        return orders

    def order_of(self, level: int, i: int, target: SimplexRef) -> tuple[SimplexRef, ...]:
        return self.orders[(level, i, target)]

    def position(self, level: int, i: int, target: SimplexRef, ref: SimplexRef) -> int:
        return self.orders[(level, i, target)].index(ref)

    def ranks(self, level: int, i: int) -> tuple[int, ...]:
        return self._ranks[(level, i)]

    def induced_keys(self, level: int, word: tuple[int, ...]) -> list[int]:
        """One integer per member of ``level`` (level indices) that sorts each
        fiber of the composite of ``word`` (faces first to last) in its
        induced order, -1 where the composite hits the basepoint; built once
        per certificate and word.  The empty word keys member k by k; a
        longer one keys k by ``tail[d(k)] * len(level) + rank[k]``, with
        ``tail`` the table of ``word[1:]`` one level down and d, rank the
        first step's.  Ranks are below the level's size, so the keys sort as
        (final image, rank at the last step, ..., rank at the first): two
        members first share an image after the step whose rank tells them
        apart, and share every later rank.  Keys grow as the product of the
        level sizes along the word."""
        keys = self._keys.get((level, word))
        if keys is None:
            if word:  # the tail's table one level down, extended by one rank
                tail, rank = self.induced_keys(level - 1, word[1:]), self._ranks[level, word[0]]
                size = len(rank)
                keys = [-1 if (key := tail[t]) < 0 else key * size + r
                        for t, r in zip(self.X.face_table(level)[word[0]], rank)]
            else:
                keys = [-1, *range(1, len(self.X.level(level)))]
            self._keys[level, word] = keys
        return keys

    def describe(self) -> list[str]:
        """One line per fiber of two or more members, in its order."""
        lines, X = [], self.X
        names = [X.monotone_name(r) for r in X.level(0)]
        for n in range(1, self.cutoff + 1):
            below, names = names, [X.monotone_name(r) for r in X.level(n)]
            for i, fibs in enumerate(X.face_fibers(n)):
                for t, members in fibs:
                    if len(members) > 1:
                        chain = sorted(members, key=self._ranks[n, i].__getitem__)
                        lines.append(f"level {n}, d_{i} over {below[t]}: "
                                     + " < ".join(names[k] for k in chain))
        return lines


def assignment_from_level_orders(X: SimplicialSet, level_orders: dict[int, tuple[SimplexRef, ...]],
                                 cutoff: int) -> OrderingAssignment:
    """Restrict per-level total orders on X_n \\ {*} to every fiber, ranking
    a member by the members of its fiber before it in the level order;
    ``OrderingError`` names a level whose order is missing or not one."""
    _require_cutoff(cutoff)
    orders = {}
    for n in range(1, cutoff + 1):
        if n not in level_orders:
            raise OrderingError(f"level orders missing level {n}")
        index = X.index(n)
        orders[n] = [index.get(ref, 0) for ref in level_orders[n]]
        if sorted(orders[n]) != list(range(1, len(index))):
            raise OrderingError(f"level order at level {n} is not a permutation "
                                "of the level's non-basepoint simplices")
    return _assignment_from_index_orders(X, orders, cutoff)


def _assignment_from_index_orders(X: SimplicialSet, orders: dict[int, list[int]],
                                  cutoff: int) -> OrderingAssignment:
    """``assignment_from_level_orders`` on level indices, unvalidated."""
    ranks = {}
    for n in range(1, cutoff + 1):
        for i, col in enumerate(X.face_table(n)):
            seen, rank = [0] * len(X.level(n - 1)), [-1] * len(col)
            for k in orders[n]:
                t = col[k]
                if t:
                    rank[k], seen[t] = seen[t], seen[t] + 1
            ranks[(n, i)] = tuple(rank)
    return OrderingAssignment._trusted(X, cutoff, ranks)


def require_own_set(X: SimplicialSet, assignment: OrderingAssignment) -> None:
    """``OrderingError`` unless the assignment was built for X: the same
    simplices and basepoint, so a copy of X built apart passes."""
    Y = assignment.X
    if Y is not X and (Y.simplices != X.simplices or Y.basepoint != X.basepoint):
        raise OrderingError(f"assignment was built for the set {Y.name!r}, "
                            f"not for {X.name!r}")


# ---------------------------------------------------------------------------
# composition-induced orders

def composition_induced_order(X: SimplicialSet, assignment: OrderingAssignment,
                              steps: tuple[int, ...], level: int,
                              fiber) -> tuple[SimplexRef, ...]:
    """Sort a fiber of the composition (faces applied in ``steps`` order);
    ``OrderingError`` for a level above the assignment's cutoff, a word that
    is not a face word from the level, or members that do not share one
    non-basepoint image at that level."""
    if level > assignment.cutoff:
        raise OrderingError(f"level {level} is above the assignment cutoff {assignment.cutoff}")
    if len(steps) > level or any(not 0 <= i <= level - p for p, i in enumerate(steps)):
        raise OrderingError(f"{tuple(steps)} is not a face word from level {level}")
    index, refs = X.index(level), X.level(level)
    members = [index.get(ref) for ref in fiber]
    steps = tuple(steps)
    keys, images = assignment.induced_keys(level, steps), X.route_images(level, steps)
    if (any(k is None or keys[k] < 0 for k in members)
            or len({images[k] for k in members}) > 1):
        raise OrderingError("induced order requested on members that are not one "
                            "fiber over a non-basepoint target")
    return tuple(refs[k] for k in sorted(members, key=keys.__getitem__))


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
    (certified by searching every order of the fiber), or 'assignment' when
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
        """Confirm by exhaustive search that no total order of the fiber is
        inducible by both factorizations."""
        return not _joint_orders_exist(X, self.fiber, self.steps_a, self.steps_b)

    def describe(self, X: SimplicialSet) -> list[str]:
        fa, fb = self.factorization_strings()
        return [f"level {self.level} fiber over {X.monotone_name(self.target)} "
                f"under {fa} = {fb}:",
                "  " + ", ".join(X.monotone_name(r) for r in self.fiber),
                "  " + self.explanation]


def _joint_orders_exist(X: SimplicialSet, fiber, steps_a, steps_b) -> bool:
    """Is some total order of the fiber inducible by both two-step routes?

    A total order is inducible by a route exactly when every same-first-image
    block is an interval of it (step orders are otherwise free).  Orders of
    the fiber's positions grow one member at a time, the next taken from the
    block of the last on each route while that block has members left.
    """
    if len(fiber) > 7:
        raise OrderingError("fiber too large for exhaustive order enumeration")
    # per route, the block of each fiber position: its first-step image
    routes = [[X.face(ref, steps[0]) for ref in fiber] for steps in (steps_a, steps_b)]

    def grow(last, rest) -> bool:
        return not rest or any(
            grow(p, rest - {p}) for p in rest
            if last is None or all(of[p] == of[last] or all(of[q] != of[last] for q in rest)
                                   for of in routes))

    return grow(None, frozenset(range(len(fiber))))


# ---------------------------------------------------------------------------
# the NNCMO check (adjacent identities) and the full-factorization oracle

def _adjacent_routes(n: int):
    """Every d_i d_j = d_{j-1} d_i from level n, as ``((j, i), ((i, j - 1),))``:
    a base word and the one word equal to it, faces applied first to last."""
    for j in range(1, n + 1):
        for i in range(j):
            yield (j, i), ((i, j - 1),)


def _fiber_levels(X: SimplicialSet, cutoff: int) -> list[int]:
    """The levels 2 to ``cutoff`` that can hold a fiber of two kept members,
    two non-basepoint simplices over one target: those of three or more."""
    return [n for n in range(2, cutoff + 1) if len(X.level(n)) > 2]


def _assignment_witness(X, n, target, fiber, steps_a, steps_b, order_a, order_b) -> Witness:
    """The witness of two induced orders (level indices) that disagree."""
    refs = X.level(n)

    def chain(order):
        return " < ".join(X.monotone_name(refs[k]) for k in order)

    return Witness(n, X.level(n - len(steps_a))[target], tuple(refs[k] for k in fiber),
                   steps_a, steps_b, "assignment",
                   "induced orders disagree: " + chain(order_a) + "  versus  " + chain(order_b))


def _first_violation(X: SimplicialSet, assignment: OrderingAssignment, cutoff: int,
                     routes) -> Witness | None:
    """The witness of the first pair of equal face words whose induced orders
    disagree on a fiber, or None.  ``routes(n)`` yields ``(base, others)``
    from level n.  A class is skipped when the base word's images
    (``route_images``) repeat no target off the basepoint: every fiber then
    has one member.  Equal words kill the same members and keep the same
    final images, so the level's indices sorted by each word's
    ``induced_keys`` (the killed members, keyed -1, first in level order)
    are compared with the base word's sort; only a mismatch walks the base
    word's ``route_fibers``, in order, to name the first that differs.  A
    cutoff of 1 has nothing to check; one above the assignment's raises
    ``OrderingError``."""
    _require_cutoff(cutoff)
    require_own_set(X, assignment)
    if cutoff > assignment.cutoff:
        raise OrderingError("assignment cutoff too small for the requested check")
    for n in _fiber_levels(X, cutoff):
        members = range(len(X.level(n)))
        for base, others in routes(n):
            # every image but the basepoint's 0 is kept, and 0 is one of them
            images = X.route_images(n, base)
            if len(set(images)) + images.count(0) == len(images) + 1:
                continue
            keys = assignment.induced_keys(n, base)
            order = sorted(members, key=keys.__getitem__)
            for other in others:
                other_keys = assignment.induced_keys(n, other)
                if sorted(members, key=other_keys.__getitem__) == order:
                    continue
                for t, fiber in X.route_fibers(n, base):
                    order_a, order_b = (tuple(sorted(fiber, key=table.__getitem__))
                                        for table in (keys, other_keys))
                    if order_a != order_b:
                        return _assignment_witness(X, n, t, fiber, base, other, order_a, order_b)
    return None


def check_nncmo(X: SimplicialSet, assignment: OrderingAssignment, cutoff: int) -> Witness | None:
    """Verify the multiplicative-ordering condition on all adjacent-identity
    pairs up to the cutoff; returns the first violating witness, or None."""
    return _first_violation(X, assignment, cutoff, _adjacent_routes)


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


@functools.cache
def _equal_words(n: int) -> tuple:
    """Every class of two or more equal face words from level n, by length
    and then by deleted positions, as (smallest word, the others sorted);
    built once per level, as tuples."""
    classes = []
    for length in range(2, n + 1):
        for _, words in sorted(_face_words(n, length).items(), key=lambda kv: sorted(kv[0])):
            if len(words) > 1:
                base, *others = sorted(words)
                classes.append((base, tuple(others)))
    return tuple(classes)


def check_nncmo_full(X: SimplicialSet, assignment: OrderingAssignment, cutoff: int) -> Witness | None:
    """Brute-force variant: compare induced orders across *all* pairs of equal
    face-map factorizations up to the cutoff, not just adjacent swaps."""
    return _first_violation(X, assignment, cutoff, _equal_words)


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


def search_nncmo(X: SimplicialSet, cutoff: int, node_limit: int = 500_000) -> NncmoResult:
    """Backtracking search for fiber orders that every adjacent identity
    induces alike; the brute-force oracle for the classification.

    The state is the order relation itself.  The fibers of two or more
    members are numbered, and a relation ``(fiber, x, y)`` says x comes
    before y.  For each pair x < y of a fiber of d_i d_j = d_{j-1} d_i, each
    route orders the pair in the first fiber that separates it
    (``route_order``), and a link ties the two relations, so either holds
    exactly when the other does (and so do their reverses).  The closure
    ``holds`` adds a relation with its links and its transitive
    consequences in its fiber, and refuses one whose reverse is known, a
    relation linked to its own reverse included.  The decisions are the
    pairs of each fiber in order, a before b tried first; a node is a
    fresh decision or a retry after backtracking.

    It either finds an assignment (verified against ``check_nncmo`` before
    being returned) or certifies failure with a single-fiber witness.  An
    explicit node limit turns runaway searches into an
    ``InconclusiveSearch`` error rather than a wrong answer.
    """
    _require_cutoff(cutoff)
    fiber_id, fibers, decisions = {}, [], []  # fibers[f] = (level, face, members)
    for n in range(1, cutoff + 1):
        for i, fibs in enumerate(X.face_fibers(n)):
            for target, members in fibs:
                if len(members) > 1:
                    f = fiber_id[n, i, target] = len(fibers)
                    fibers.append((n, i, members))
                    decisions += [(f, a, b) for a, b in combinations(members, 2)]

    def route_order(n, steps, target, x, y):
        col = X.face_table(n)[steps[0]]
        if col[x] == col[y]:
            return fiber_id[n, steps[0], col[x]], x, y
        return fiber_id[n - 1, steps[1], target], col[x], col[y]

    # a link is kept under its two relations, not their reverses: ``holds`` reads those reversed
    links: dict[tuple[int, int, int], list[tuple[int, int, int]]] = {}
    for n in _fiber_levels(X, cutoff):
        for steps_a, (steps_b,) in _adjacent_routes(n):
            for target, fiber in X.route_fibers(n, steps_a):
                for x, y in combinations(fiber, 2):
                    ra = route_order(n, steps_a, target, x, y)
                    rb = route_order(n, steps_b, target, x, y)
                    if ra != rb:
                        links.setdefault(ra, []).append(rb)
                        links.setdefault(rb, []).append(ra)

    known: set[tuple[int, int, int]] = set()
    stack = []  # (decision index, relation decided, relations it added)

    def holds(rel, trail) -> bool:
        """Add ``rel`` and all it forces to ``known``, each also to
        ``trail``; False once a forced relation's reverse is known."""
        queue = [rel]
        while queue:
            r = queue.pop()
            f, x, y = r
            if r in known:
                continue
            if (f, y, x) in known:
                return False
            known.add(r)
            trail.append(r)
            queue += links.get(r, ())
            queue += [(g, v, u) for g, u, v in links.get((f, y, x), ())]
            for m in fibers[f][2]:
                if (f, y, m) in known:
                    queue.append((f, x, m))
                if (f, m, x) in known:
                    queue.append((f, m, y))
        return True

    def decide(k, rel) -> bool:
        trail = []
        if holds(rel, trail):
            stack.append((k, rel, trail))
            return True
        known.difference_update(trail)
        return False

    nodes, k = 0, 0
    while k < len(decisions):
        f, a, b = decisions[k]
        if (f, a, b) in known or (f, b, a) in known:
            k += 1
            continue
        nodes += 1
        if nodes > node_limit:
            raise InconclusiveSearch(
                f"node limit {node_limit} exceeded at cutoff {cutoff}; "
                "no verdict at this cutoff")
        if decide(k, (f, a, b)) or decide(k, (f, b, a)):
            k += 1
            continue
        while stack:  # back to the latest decision whose second order is untried
            j, (g, x, y), trail = stack.pop()
            known.difference_update(trail)
            if x < y:
                nodes += 1
                if decide(j, (g, y, x)):
                    k = j + 1
                    break
        else:
            break

    if k == len(decisions):
        # a member's rank is the number of members of its fiber before it
        ranks = {(n, i): [0 if t else -1 for t in col]
                 for n in range(1, cutoff + 1) for i, col in enumerate(X.face_table(n))}
        for f, a, b in decisions:
            n, i, _ = fibers[f]
            ranks[n, i][b if (f, a, b) in known else a] += 1
        assignment = OrderingAssignment._trusted(
            X, cutoff, {key: tuple(rank) for key, rank in ranks.items()})
        if check_nncmo(X, assignment, cutoff) is not None:
            raise OrderingError("internal error: search produced an assignment "
                                "that fails the consistency check")
        return NncmoResult("admits", assignment, nodes=nodes)

    # unsatisfiable: certify with a single locally-contradictory fiber
    for n in _fiber_levels(X, cutoff):
        for steps_a, (steps_b,) in _adjacent_routes(n):
            for target, fiber in X.route_fibers(n, steps_a):
                if len(fiber) > 7:
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
    return {n: tuple(X.level(n)[k] for k in order)
            for n, order in _cyclic_orders(X, cutoff).items()}


def _cyclic_orders(X: SimplicialSet, cutoff: int) -> dict[int, list[int]]:
    """``cyclic_ordering`` on level indices: each level's order with every
    edge degeneracy moved before every vertex degeneracy.  On one edge the
    level's word order is the alphabetical order of the monotone words
    (deleting position m gives m + 1 zeros, and a smaller m a larger word),
    and a vertex has one degeneracy per level, so the stable sort is the
    construction ``cyclic_ordering`` describes."""
    _require_cutoff(cutoff)
    if X.dimension() > 1:
        raise OrderingError("cyclic orderings are defined for one-dimensional sets only")
    orders = {}
    for n in range(cutoff + 1):
        refs = X.level(n)
        orders[n] = sorted(range(1, len(refs)), key=lambda k: X.simplices[refs[k].base].dim == 0)
    for n in range(2, cutoff + 1):
        pos_below = [0] * len(X.level(n - 1))
        for p, k in enumerate(orders[n - 1]):
            pos_below[k] = p
        refs, seq, table = X.level(n), orders[n], X.face_table(n)
        # a face reverses a pair of seq exactly when the positions of its
        # non-basepoint images decrease somewhere along seq; only then is
        # every pair scanned, for the first reversed one
        if _images_ascend(seq, table, pos_below):
            continue
        for a in range(len(seq)):
            for b in range(a + 1, len(seq)):
                for i, col in enumerate(table):
                    fa, fb = col[seq[a]], col[seq[b]]
                    if fa and fb and pos_below[fa] > pos_below[fb]:
                        raise CyclicOrderingUnavailable(
                            f"face-monotonicity fails at level {n}: "
                            f"{X.monotone_name(refs[seq[a]])} < "
                            f"{X.monotone_name(refs[seq[b]])} but d_{i} reverses them")
    return orders


def _images_ascend(seq, table, pos_below) -> bool:
    """Whether, on every face column of ``table``, the positions
    ``pos_below`` of the non-basepoint images of ``seq`` never decrease."""
    for col in table:
        last = 0
        for k in seq:
            t = col[k]
            if t:
                if pos_below[t] < last:
                    return False
                last = pos_below[t]
    return True


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
            assignment = _assignment_from_index_orders(X, _cyclic_orders(X, cutoff), cutoff)
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
    """The action classes up to ``cutoff``; ``site_class[n][i][k]`` is the
    position in ``classes`` of the class of the site ``(n, level(n)[k], i)``,
    or None where d_i does not send that simplex to the basepoint."""

    cutoff: int
    classes: tuple[ActionClass, ...]
    notes: tuple[str, ...]
    site_class: dict[int, list[list[int | None]]] = dc_field(repr=False, compare=False)


_TYPING_NOTE = (
    "action typing reads an equal pair of face-map factorizations as: the "
    "factorization that kills the larger fiber member strictly first makes the "
    "class a left action, killing the smaller member first makes it a right "
    "action; classes are the finest identification of basepoint-hitting sites "
    "under the four coface compatibility rules")


def _union_sites(X: SimplicialSet, cutoff: int) -> list[tuple[_IndexSite, ...]]:
    """Classes of basepoint-hitting sites on level indices, sorted within
    and across classes.  Each rule joins the two death sites of one case of
    d_i d_j = d_{j-1} d_i (i < j) on a simplex sigma that both words kill,
    the word d_j then d_i against d_i then d_{j-1}: (i) both kill sigma at
    once, (sigma, j) ~ (sigma, i); (ii) one at once, the other one level
    down, (sigma, j) ~ (d_i sigma, j - 1); (iii) both one level down,
    (d_j sigma, i) ~ (d_i sigma, j - 1); (iv) the other at once,
    (d_j sigma, i) ~ (sigma, i).  (ii) and (iv) are one loop: a basepoint
    face a and a non-basepoint face b, on either side of a, join (sigma, a)
    with (d_b sigma, m) for m in (a - 1, a), wherever that is a site."""
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
            # (ii) and (iv): the site moves along any non-basepoint face
            for a in hit:
                for omega in [w for w in faces if w]:
                    for m in (a - 1, a):
                        if 0 <= m < n and below[m][omega] == 0:
                            union((n, sigma, a), (n - 1, omega, m))
            # (iii): two faces of a common simplex identify their sites
            for i in range(n + 1):
                for j in range(i + 1, n + 1):
                    omega, mu = faces[j], faces[i]
                    if star[j] or star[i]:
                        continue
                    if below[i][omega] == 0 and below[j - 1][mu] == 0:
                        union((n - 1, omega, i), (n - 1, mu, j - 1))

    groups: dict[_IndexSite, list[_IndexSite]] = {}
    for s in sites:
        groups.setdefault(find(s), []).append(s)
    return [tuple(sorted(v)) for _, v in sorted(groups.items())]


def classify_actions(X: SimplicialSet, cutoff: int = 4,
                     assignment: OrderingAssignment | None = None) -> ActionClassReport:
    """Partition the basepoint-hitting sites (simplex, face index) into
    classes under the coface compatibility rules, then type each class from
    the adjacent identities of every level (``_type_level``) against
    ``assignment``, the certificate whose fiber orders the caller multiplies
    with (trusted as multiplicative; built for X and reaching level
    ``cutoff``, else ``OrderingError``), or when it is None against the
    canonical certificate ``classify_nncmo`` derives.

    Sets of dimension >= 2 carry no multiplicative ordering, so their classes
    are reported untyped (only commutative coefficients apply there and any
    action of a commutative algebra obeys both laws), as are those of a set
    whose ordering search is inconclusive, with a note naming the cutoff.
    """
    _require_cutoff(cutoff)
    if assignment is not None:
        require_own_set(X, assignment)
        if assignment.cutoff < cutoff:
            raise OrderingError(f"assignment cutoff {assignment.cutoff} is below the "
                                f"typing cutoff {cutoff}")
    notes = [_TYPING_NOTE]
    site_groups = _union_sites(X, cutoff)

    if X.dimension() > 1:
        assignment = None
        notes.append("set is not one-dimensional: no multiplicative ordering exists, "
                     "classes left untyped")
    elif assignment is None:
        try:
            assignment = classify_nncmo(X, cutoff).assignment  # None when it fails
            if assignment is None:
                notes.append("no multiplicative ordering found; classes left untyped")
        except InconclusiveSearch:
            notes.append(f"ordering search inconclusive at cutoff {cutoff}; "
                         "classes left untyped")

    site_class = {n: [[None] * len(X.level(n)) for _ in range(n + 1)]
                  for n in range(1, cutoff + 1)}
    for gi, group in enumerate(site_groups):
        for n, k, i in group:
            site_class[n][i][k] = gi
    evidence: dict[int, set[str]] = {gi: set() for gi in range(len(site_groups))}

    if assignment is not None:
        for n in range(2, cutoff + 1):
            _type_level(X, assignment, site_class, evidence, n)

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
    return ActionClassReport(cutoff, tuple(classes), tuple(notes), site_class)


def _type_level(X, assignment, site_class, evidence, n):
    """Collect the typing evidence of the adjacent identities
    d_i d_j = d_{j-1} d_i (i < j) from level n.

    Each identity is two words of two faces.  On one, d_first then
    d_second, a fiber of d_first whose target d_second kills merges its
    members and kills them one step later, in the class of that death site;
    the other word's first face d_other may split them.  For members s < l
    in the fiber order, d_other killing l but not s (the larger member dies
    strictly first) is left evidence, killing s but not l right evidence.
    A member d_other kills makes d_second kill the target, so the death
    test only skips fibers that give no evidence.

    Why these pairs of words find all the evidence longer equal words find:
    only one-dimensional sets are typed.  There a non-basepoint simplex is
    a degenerate vertex, which never dies, or a degeneracy 0^a 1^(n+1-a) of
    one edge e.  Two members meet at a simplex that later dies only if both
    lie on one edge e with an end at v0: they meet once the positions
    between their split points are deleted, and die once all their 1s are
    deleted (source at v0) or all their 0s (target at v0).  So within one
    death class, which member dies first depends only on which split point
    is larger.  A multiplicative certificate gives every factorization of
    a composite that keeps the merged image alive the same meeting order.
    Take the composite whose merged image dies one step later, factored to
    delete every other position first and merge last: the merge and the
    death are one adjacent identity, at a level no higher than n.
    """
    table, below, fibs = X.face_table(n), X.face_table(n - 1), X.face_fibers(n)
    for word, (twin,) in _adjacent_routes(n):
        for (first, second), (other, _) in ((word, twin), (twin, word)):
            rank, kill, split = assignment.ranks(n, first), below[second], table[other]
            for target, members in fibs[first]:
                if len(members) < 2 or kill[target]:
                    continue
                g = site_class[n - 1][second][target]
                for s, l in combinations(sorted(members, key=rank.__getitem__), 2):
                    if not split[l] and split[s]:
                        evidence[g].add("left")
                    elif not split[s] and split[l]:
                        evidence[g].add("right")
