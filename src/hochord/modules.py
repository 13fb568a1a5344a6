"""Multimodules: a vector space with several named, commuting algebra actions.

Each action is stored as one operator matrix per algebra basis element,
always applied on the left of column vectors.  Orientation is a tag, not a
storage difference:

* a ``left`` action satisfies  op(a) op(b) = op(ab),
* a ``right`` action satisfies op(a) op(b) = op(ba),
* an ``lr`` action satisfies both (so op(ab) = op(ba)).

Distinct actions must commute: op_i(a) op_j(b) = op_j(b) op_i(a) for all
basis a, b.  ``validate`` checks every axiom exhaustively over basis pairs and
reports the violated axiom with the basis indices involved.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebras import Algebra, is_commutative
from .exact import Matrix, by_row, combine, product_entries

LEFT = "left"
RIGHT = "right"
LR = "lr"
TAGS = (LEFT, RIGHT, LR)


class ModuleError(ValueError):
    pass


@dataclass(frozen=True)
class Action:
    tag: str
    operators: tuple[Matrix, ...]  # one dim_M x dim_M matrix per algebra basis elt

    def operator_of(self, algebra: Algebra, vec) -> Matrix:
        """Operator of a general algebra element (linear combination); the
        stored operator itself for a basis element with coefficient 1."""
        f = algebra.field
        terms = [(i, c) for i, c in enumerate(map(f.of, vec)) if c]
        if len(terms) == 1 and terms[0][1] == f.one():
            return self.operators[terms[0][0]]
        dim_m = self.operators[0].rows
        return Matrix._trusted(dim_m, dim_m, f, combine(
            f, ((c, self.operators[i].entries.items()) for i, c in terms)))


@dataclass(frozen=True)
class Multimodule:
    name: str
    algebra: Algebra
    dim: int
    actions: dict[str, Action]

    def action(self, name: str) -> Action:
        try:
            return self.actions[name]
        except KeyError:
            raise ModuleError(f"unknown action {name!r}; have {sorted(self.actions)}") from None

    def action_names(self) -> list[str]:
        return sorted(self.actions)

    def describe(self) -> str:
        tags = ", ".join(f"{n}:{a.tag}" for n, a in sorted(self.actions.items()))
        return f"{self.name} (dim {self.dim}; actions {tags})"


def validate(module: Multimodule) -> list[str]:
    """Exhaustive axiom check; returns a list of violation messages (empty = ok).

    Products are formed on entry dicts: each operator's entries by row are
    built once per call, and the operator of ``e_i e_j`` is combined from the
    algebra's sparse structure constants."""
    alg = module.algebra
    f = alg.field
    d = alg.dim
    problems = [f"module dimension {module.dim} is negative"] if module.dim < 0 else []
    ident = {(r, r): f.one() for r in range(module.dim)}
    unit = [(l, u) for l, u in enumerate(map(f.of, alg.unit)) if u]
    rows = {}  # well-formed action -> each operator's entries by row
    for name, act in sorted(module.actions.items()):
        fields = sorted({op.field.describe() for op in act.operators if op.field != f})
        if len(act.operators) != d:
            malformed = f"expected {d} operators, got {len(act.operators)}"
        elif any(op.rows != module.dim or op.cols != module.dim for op in act.operators):
            malformed = "operator shape mismatch"
        elif fields:
            malformed = f"operators over {', '.join(fields)}, algebra over {f.describe()}"
        else:
            malformed = None
            rows[name] = [by_row(op.entries) for op in act.operators]
        if act.tag not in TAGS:
            problems.append(f"action {name!r}: unknown tag {act.tag!r}")
            continue
        if malformed:
            problems.append(f"action {name!r}: {malformed}")
            continue
        ops = [op.entries for op in act.operators]
        if combine(f, ((c, ops[l].items()) for l, c in unit)) != ident:
            problems.append(f"action {name!r}: not unital")
        # operator of e_i e_j, read from the structure constants; the left
        # law at (i, j) and the right law at (j, i) share it
        product_ops = [[combine(f, ((c, ops[l].items()) for l, c in alg.sparse[i][j]))
                        for j in range(d)] for i in range(d)]
        for i in range(d):
            for j in range(d):
                comp = product_entries(f, ops[i], rows[name][j])
                if act.tag in (LEFT, LR) and comp != product_ops[i][j]:
                    problems.append(
                        f"action {name!r}: left law fails at basis pair ({i},{j})")
                if act.tag in (RIGHT, LR) and comp != product_ops[j][i]:
                    problems.append(
                        f"action {name!r}: right law fails at basis pair ({i},{j})")
    # commutation is checked between the actions whose operators have the
    # right count, shape and field; the others are reported above
    names = sorted(rows)
    for x in range(len(names)):
        for y in range(x + 1, len(names)):
            a, b = module.actions[names[x]].operators, module.actions[names[y]].operators
            for i in range(d):
                for j in range(d):
                    if (product_entries(f, a[i].entries, rows[names[y]][j])
                            != product_entries(f, b[j].entries, rows[names[x]][i])):
                        problems.append(
                            f"actions {names[x]!r} and {names[y]!r} do not commute "
                            f"at basis pair ({i},{j})")
    return problems


def _validated(module: Multimodule) -> Multimodule:
    problems = validate(module)
    if problems:
        raise ModuleError("; ".join(problems))
    return module


# ---------------------------------------------------------------------------
# builders

def _mult_operators(alg: Algebra, left: bool) -> tuple[Matrix, ...]:
    mult = alg.left_mult_matrix if left else alg.right_mult_matrix
    return tuple(mult(alg.basis_vector(i)) for i in range(alg.dim))


def regular_bimodule(alg: Algebra) -> Multimodule:
    """A as a bimodule over itself: actions 'left' (a.m) and 'right' (m.a)."""
    actions = {"left": Action(LEFT, _mult_operators(alg, True)),
               "right": Action(RIGHT, _mult_operators(alg, False))}
    return _validated(Multimodule("regular", alg, alg.dim, actions))


def symmetric_module(alg: Algebra) -> Multimodule:
    """A over itself with the single lr multiplication action (commutative only)."""
    if not is_commutative(alg):
        raise ModuleError("symmetric_module requires a commutative algebra")
    act = Action(LR, _mult_operators(alg, True))
    return _validated(Multimodule("symmetric", alg, alg.dim, {"mult": act}))


def multi_regular(alg: Algebra, l: int, r: int) -> Multimodule:
    """M = A with l left-multiplication and r right-multiplication actions.

    Valid only when the copies commute; for noncommutative algebras two
    left-multiplication copies already fail (ab != ba), and the builder
    rejects the configuration with the violated pair reported.
    """
    left = Action(LEFT, _mult_operators(alg, True))
    right = Action(RIGHT, _mult_operators(alg, False))
    actions = {f"left{k + 1}" if l > 1 else "left": left for k in range(l)}
    actions.update((f"right{k + 1}" if r > 1 else "right", right) for k in range(r))
    return _validated(Multimodule(f"multi-regular {l},{r}", alg, alg.dim, actions))


def tensor_square_bimodule(alg: Algebra) -> Multimodule:
    """M = A (x) A with left and right multiplication on each tensor factor.

    The four actions commute pairwise for any associative algebra, giving a
    genuine (2,2)-multimodule usable over wedges of two circles.
    """
    f = alg.field
    d = alg.dim
    dim_m = d * d

    def op(mat: Matrix, factor: int) -> Matrix:
        entries = {}
        for (r, c), v in mat.entries.items():
            for other in range(d):
                if factor == 0:
                    entries[(r * d + other, c * d + other)] = v
                else:
                    entries[(other * d + r, other * d + c)] = v
        return Matrix(dim_m, dim_m, f, entries)

    left, right = _mult_operators(alg, True), _mult_operators(alg, False)
    actions = {}
    for factor, label in ((0, "1"), (1, "2")):
        actions[f"left{label}"] = Action(LEFT, tuple(op(mat, factor) for mat in left))
        actions[f"right{label}"] = Action(RIGHT, tuple(op(mat, factor) for mat in right))
    return _validated(Multimodule("tensor-square", alg, dim_m, actions))


def dual_module(module: Multimodule) -> Multimodule:
    """Transpose every operator and mirror every tag (left <-> right).

    Transposing flips the composition law, so the result is again a valid
    multimodule; it is the coefficient module of the dual complex.
    """
    mirror = {LEFT: RIGHT, RIGHT: LEFT, LR: LR}
    actions = {name + "*": Action(mirror[a.tag], tuple(op.transpose() for op in a.operators))
               for name, a in module.actions.items()}
    return _validated(Multimodule(module.name + "-dual", module.algebra, module.dim, actions))


def rebased(module: Multimodule, algebra: Algebra, basis) -> Multimodule:
    """``module`` over an isomorphic copy ``algebra`` of its algebra whose
    basis vector i is ``basis[i]`` in the old coordinates (as returned by
    ``algebras.unit_first``); each operator becomes the old action of the new
    basis vector."""
    actions = {name: Action(a.tag, tuple(a.operator_of(module.algebra, v) for v in basis))
               for name, a in module.actions.items()}
    return _validated(Multimodule(module.name, algebra, module.dim, actions))


def custom_module(name: str, alg: Algebra, dim: int, actions: dict[str, Action]) -> Multimodule:
    return _validated(Multimodule(name, alg, dim, dict(actions)))


# ---------------------------------------------------------------------------
# assignment compatibility (action classes are produced by the ordering module)

_COMPATIBLE = {
    LEFT: (LEFT, LR),
    RIGHT: (RIGHT, LR),
    LR: (LR,),
    "untyped": TAGS,
}

_MIRROR_TYPE = {LEFT: RIGHT, RIGHT: LEFT, LR: LR, "untyped": "untyped"}


def required_type(class_type: str, variant: str) -> str:
    """Action type a class needs for the given complex variant.

    Class types are normalized on the cochain side; the chain construction
    applies actions with mirrored handedness, so tags flip for variant
    'chain'.
    """
    if variant == "cochain":
        return class_type
    if variant == "chain":
        return _MIRROR_TYPE[class_type]
    raise ModuleError(f"unknown variant {variant!r}")


def validate_assignment(module: Multimodule, classes, assignment: dict[str, str],
                        variant: str = "cochain") -> list[str]:
    """Check a class -> action map preserves action type.

    ``classes`` is an ActionClassReport (ordering module).  Returns violation
    messages; empty list means the assignment is admissible for the variant.
    """
    problems = []
    known = {c.class_id for c in classes.classes}
    for cid in assignment:
        if cid not in known:
            problems.append(f"unknown class {cid!r}")
    for cls in classes.classes:
        if cls.class_id not in assignment:
            problems.append(f"class {cls.class_id!r} has no assigned action")
            continue
        aname = assignment[cls.class_id]
        if aname not in module.actions:
            problems.append(f"class {cls.class_id!r} mapped to unknown action {aname!r}")
            continue
        need = required_type(cls.action_type, variant)
        tag = module.actions[aname].tag
        if tag not in _COMPATIBLE[need]:
            problems.append(
                f"class {cls.class_id!r} (type {cls.action_type}, needs {need} for {variant}) "
                f"mapped to action {aname!r} tagged {tag}")
    return problems


def default_assignment(module: Multimodule, classes, variant: str = "cochain") -> dict[str, str]:
    """Deterministically pick a compatible action for every class.

    Exact-tag matches win over lr fallbacks; unused actions win over reused
    ones (distinct classes can act through the same face map, and only
    distinct actions are guaranteed to commute); remaining ties break by
    action name.  Raises if some class cannot be served.
    """
    out = {}
    used: set[str] = set()
    for cls in classes.classes:
        need = required_type(cls.action_type, variant)
        allowed = _COMPATIBLE[need]
        best = None
        for aname in sorted(module.actions):
            tag = module.actions[aname].tag
            if tag not in allowed:
                continue
            score = (allowed.index(tag), aname in used, aname)
            if best is None or score < best:
                best = score
        if best is None:
            raise ModuleError(
                f"module {module.name!r} has no action compatible with class "
                f"{cls.class_id!r} (type {cls.action_type}, variant {variant})")
        out[cls.class_id] = best[2]
        used.add(best[2])
    return out
