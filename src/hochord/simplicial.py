"""Finite pointed simplicial sets.

Only nondegenerate simplices are stored; every simplex of every level is a
``SimplexRef``: a nondegenerate base plus a degeneracy word in normal form.
Words are tuples read outermost-first and strictly decreasing, the canonical
form every composition of degeneracies reduces to via s_i s_j = s_{j+1} s_i
(i <= j).  Face and degeneracy maps are evaluated by commuting the face index
through the word with the standard identities and renormalizing.

Levels are infinite in principle; everything takes an explicit cutoff and
enumerates levels deterministically (basepoint degeneracy first, then by
(base id, word) lexicographically), so matrices built on top of the level
enumeration are reproducible.

Everything above the face maps works on level indices: ``index(n)`` maps a
level-n ref to its position k in ``level(n)``, and the integer face table
``face_table(n)[i][k]`` is the index in ``level(n - 1)`` of
``d_i(level(n)[k])``.  Both are built once per set object and level, the
table by calling ``face`` on every (simplex, face index) pair of the level,
so ``face`` stays the one evaluator.  The basepoint is index 0 at every
level, so "d_i hits the basepoint" reads ``face_table(n)[i][k] == 0``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations


class SimplicialError(ValueError):
    pass


@dataclass(frozen=True, order=True)
class SimplexRef:
    """A (possibly degenerate) simplex: degeneracy word applied to a base."""

    base: int
    word: tuple[int, ...] = ()


def normalize_word(seq) -> tuple[int, ...]:
    """Normal form of a degeneracy word (outermost-first, strictly decreasing)."""

    def insert(a: int, w: tuple[int, ...]) -> tuple[int, ...]:
        if not w or a > w[0]:
            return (a, *w)
        # s_a s_b = s_{b+1} s_a for a <= b
        return (w[0] + 1, *insert(a, w[1:]))

    out: tuple[int, ...] = ()
    for g in reversed(tuple(seq)):
        out = insert(g, out)
    return out


@dataclass(frozen=True)
class NondegSimplex:
    name: str
    dim: int
    faces: tuple[SimplexRef, ...]  # d_0 .. d_dim, refs one level down


class SimplicialSet:
    """Pointed simplicial set stored by nondegenerate simplices."""

    def __init__(self, name: str, basepoint: str, simplices: list[NondegSimplex]):
        self.name = name
        self.simplices = tuple(simplices)
        self._by_name = {s.name: i for i, s in enumerate(simplices)}
        if len(self._by_name) != len(simplices):
            raise SimplicialError("duplicate simplex names")
        if basepoint not in self._by_name:
            raise SimplicialError(f"basepoint {basepoint!r} not among simplices")
        self.basepoint = self._by_name[basepoint]
        if self.simplices[self.basepoint].dim != 0:
            raise SimplicialError("basepoint must be a 0-simplex")
        self.dim_top = max(s.dim for s in self.simplices)
        self._levels: dict[int, tuple[SimplexRef, ...]] = {}
        self._index: dict[int, dict[SimplexRef, int]] = {}
        self._face_tables: dict[int, tuple[tuple[int, ...], ...]] = {}
        self._degeneracy_tables: dict[int, tuple[tuple[int, ...], ...]] = {}
        self._check_well_formed()

    # -- structure ------------------------------------------------------
    def _check_well_formed(self):
        for s in self.simplices:
            if s.dim == 0:
                if s.faces:
                    raise SimplicialError(f"0-simplex {s.name!r} must have no faces")
                continue
            if len(s.faces) != s.dim + 1:
                raise SimplicialError(
                    f"simplex {s.name!r} of dim {s.dim} needs {s.dim + 1} faces")
            for i, ref in enumerate(s.faces):
                self._check_ref(ref, s.dim - 1,
                                context=f"face d_{i} of {s.name!r}")

    def _check_ref(self, ref: SimplexRef, level: int, context: str = "ref"):
        if not (0 <= ref.base < len(self.simplices)):
            raise SimplicialError(f"{context}: unknown base id {ref.base}")
        d = self.simplices[ref.base].dim
        if d + len(ref.word) != level:
            raise SimplicialError(f"{context}: word length does not match level {level}")
        prev = level  # entries strictly decreasing, all below the level
        for w in ref.word:
            if not (0 <= w < prev):
                raise SimplicialError(f"{context}: word {ref.word} is not in normal form")
            prev = w

    def id_of(self, name: str) -> int:
        try:
            return self._by_name[name]
        except KeyError:
            raise SimplicialError(f"unknown simplex {name!r}") from None

    def level_of(self, ref: SimplexRef) -> int:
        return self.simplices[ref.base].dim + len(ref.word)

    def basepoint_ref(self, level: int) -> SimplexRef:
        return SimplexRef(self.basepoint, tuple(range(level - 1, -1, -1)))

    def is_basepoint(self, ref: SimplexRef) -> bool:
        return ref.base == self.basepoint

    def dimension(self) -> int:
        return self.dim_top

    # -- face / degeneracy evaluation ------------------------------------
    def face(self, ref: SimplexRef, i: int) -> SimplexRef:
        """Evaluate d_i on a ref by commuting d_i through the degeneracy word."""
        level = self.level_of(ref)
        if level < 1:
            raise SimplicialError("no face maps on level 0")
        if not (0 <= i <= level):
            raise SimplicialError(f"face index {i} out of range at level {level}")
        out: list[int] = []
        a = i
        word = ref.word
        for pos, w in enumerate(word):
            if a < w:
                out.append(w - 1)            # d_a s_w = s_{w-1} d_a
            elif a == w or a == w + 1:       # d_a s_w = id
                return SimplexRef(ref.base, normalize_word(out + list(word[pos + 1:])))
            else:
                out.append(w)                # d_a s_w = s_w d_{a-1}
                a -= 1
        base = self.simplices[ref.base]
        if base.dim == 0:
            raise SimplicialError("internal error: face reached a 0-dimensional base")
        target = base.faces[a]
        return SimplexRef(target.base, normalize_word(out + list(target.word)))

    def degeneracy(self, ref: SimplexRef, i: int) -> SimplexRef:
        level = self.level_of(ref)
        if not (0 <= i <= level):
            raise SimplicialError(f"degeneracy index {i} out of range at level {level}")
        return SimplexRef(ref.base, normalize_word((i,) + ref.word))

    def face_word(self, ref: SimplexRef, indices) -> SimplexRef:
        """Apply a composition of face maps; ``indices`` lists the first-applied
        face first."""
        cur = ref
        for i in indices:
            cur = self.face(cur, i)
        return cur

    # -- level enumeration ------------------------------------------------
    def level(self, n: int) -> tuple[SimplexRef, ...]:
        """All level-n simplices: basepoint degeneracy first, then by
        (base id, word) lexicographic order."""
        if n < 0:
            raise SimplicialError("negative level")
        if n not in self._levels:
            refs = []
            for base_id, s in enumerate(self.simplices):
                if s.dim > n or base_id == self.basepoint:
                    continue
                k = n - s.dim
                for subset in combinations(range(n), k):
                    refs.append(SimplexRef(base_id, tuple(sorted(subset, reverse=True))))
            refs.sort(key=lambda r: (r.base, r.word))
            self._levels[n] = (self.basepoint_ref(n), *refs)
        return self._levels[n]

    def level_nonbase(self, n: int) -> tuple[SimplexRef, ...]:
        return self.level(n)[1:]

    def index(self, n: int) -> dict[SimplexRef, int]:
        """``ref -> k`` with ``level(n)[k] == ref``; the basepoint is 0."""
        if n not in self._index:
            self._index[n] = {ref: k for k, ref in enumerate(self.level(n))}
        return self._index[n]

    def face_table(self, n: int) -> tuple[tuple[int, ...], ...]:
        """``face_table(n)[i][k]`` is the index in ``level(n - 1)`` of
        ``d_i(level(n)[k])``; entry 0 of each row is the basepoint's image, 0."""
        if n not in self._face_tables:
            if n < 1:
                raise SimplicialError("no face maps on level 0")
            below = self.index(n - 1)
            refs = self.level(n)
            self._face_tables[n] = tuple(
                tuple(below[self.face(ref, i)] for ref in refs) for i in range(n + 1))
        return self._face_tables[n]

    def degeneracy_table(self, n: int) -> tuple[tuple[int, ...], ...]:
        """``degeneracy_table(n)[j][k]`` is the index in ``level(n + 1)`` of
        ``s_j(level(n)[k])``; entry 0 of each row is the basepoint's image, 0."""
        if n not in self._degeneracy_tables:
            above = self.index(n + 1)
            refs = self.level(n)
            self._degeneracy_tables[n] = tuple(
                tuple(above[self.degeneracy(ref, j)] for ref in refs) for j in range(n + 1))
        return self._degeneracy_tables[n]

    # -- validation ---------------------------------------------------------
    def validate(self) -> list[str]:
        """Check the face-map simplicial identities on every nondegenerate
        simplex of dimension >= 2; returns violation messages."""
        problems = []
        for s in self.simplices:
            if s.dim < 2:
                continue
            ref = SimplexRef(self._by_name[s.name])
            for j in range(1, s.dim + 1):
                for i in range(j):
                    lhs = self.face(self.face(ref, j), i)
                    rhs = self.face(self.face(ref, i), j - 1)
                    if lhs != rhs:
                        problems.append(
                            f"d_{i} d_{j} != d_{j - 1} d_{i} on simplex {s.name!r}")
        return problems

    # -- display ------------------------------------------------------------
    def monotone_name(self, ref: SimplexRef) -> str:
        """Render a ref by its monotone digit word over the base's vertices.

        The base of dimension d starts as the word 0 1 ... d; each s_i in the
        degeneracy word duplicates letter i.  Subscripted with the base name
        unless the set has a single nondegenerate simplex of positive
        dimension.
        """
        if self.is_basepoint(ref):
            return "*"
        base = self.simplices[ref.base]
        digits = list(range(base.dim + 1))
        for i in reversed(ref.word):
            digits.insert(i, digits[i])
        word = "".join(str(d) for d in digits)
        positive = [s for s in self.simplices if s.dim >= 1]
        if len(positive) == 1 and base.dim >= 1:
            return f"[{word}]"
        return f"[{word}]_{base.name}"

    def describe(self) -> str:
        return f"{self.name} (dim {self.dim_top}, {len(self.simplices)} nondegenerate)"


# ---------------------------------------------------------------------------
# builders

def point() -> SimplicialSet:
    return SimplicialSet("point", "v0", [NondegSimplex("v0", 0, ())])


def interval() -> SimplicialSet:
    """Pointed 1-simplex: basepoint v0, free vertex v1, edge e with
    d_0 e = v1 and d_1 e = v0."""
    return SimplicialSet("interval", "v0", [
        NondegSimplex("v0", 0, ()),
        NondegSimplex("v1", 0, ()),
        NondegSimplex("e", 1, (SimplexRef(1), SimplexRef(0))),
    ])


def circle() -> SimplicialSet:
    """Minimal pointed circle: one vertex, one edge with both faces at the
    basepoint."""
    return SimplicialSet("circle", "v0", [
        NondegSimplex("v0", 0, ()),
        NondegSimplex("e", 1, (SimplexRef(0), SimplexRef(0))),
    ])


def wedge_of_circles(k: int) -> SimplicialSet:
    if k < 1:
        raise SimplicialError("wedge needs k >= 1")
    simplices = [NondegSimplex("v0", 0, ())]
    for t in range(1, k + 1):
        simplices.append(NondegSimplex(f"e{t}", 1, (SimplexRef(0), SimplexRef(0))))
    return SimplicialSet(f"wedge{k}", "v0", simplices)


def sphere2() -> SimplicialSet:
    """Minimal 2-sphere: one vertex and one 2-simplex, every face of which is
    the degenerate edge on the basepoint."""
    bp_edge = SimplexRef(0, (0,))
    return SimplicialSet("sphere2", "v0", [
        NondegSimplex("v0", 0, ()),
        NondegSimplex("sigma", 2, (bp_edge, bp_edge, bp_edge)),
    ])


BUILTIN_SETS = {
    "point": point,
    "interval": interval,
    "circle": circle,
    "wedge2": lambda: wedge_of_circles(2),
    "wedge3": lambda: wedge_of_circles(3),
    "sphere2": sphere2,
}


# ---------------------------------------------------------------------------
# text format

def _parse_face(token: str, names: dict[str, int], dims: dict[int, int],
                line_no: int) -> SimplexRef:
    parts = token.split()
    words = []
    while parts and parts[0].startswith("s") and parts[0][1:].isdecimal():
        words.append(int(parts[0][1:]))
        parts = parts[1:]
    if len(parts) != 1:
        raise SimplicialError(
            f"line {line_no}: expected '<name>' or 's<j> ... <name>', got {token!r}")
    name = parts[0]
    if name not in names:
        raise SimplicialError(f"line {line_no}: unknown simplex {name!r} in face list")
    base = names[name]
    return SimplexRef(base, normalize_word(words))


def from_file(text: str, name: str = "from-file") -> SimplicialSet:
    """Parse the line-oriented simplicial set format.

    Grammar::

        basepoint <name>
        simplex <name> dim=<d> [faces=[<face>, ...]]
        # comment

    where ``<face>`` is a simplex name, optionally prefixed by a degeneracy
    word written outermost-first (``s1 s0 v0`` means s_1(s_0(v0))).  Faces are
    listed in order d_0 ... d_d.
    """
    basepoint = None
    records: list[tuple[int, str, int, str | None]] = []
    names: dict[str, int] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 1)
        if parts[0] == "basepoint":
            if len(parts) != 2 or len(parts[1].split()) != 1:
                raise SimplicialError(f"line {line_no}: expected 'basepoint <name>'")
            basepoint = parts[1].strip()
        elif parts[0] == "simplex":
            if len(parts) != 2:
                raise SimplicialError(f"line {line_no}: expected 'simplex <name> dim=<d> ...'")
            rest = parts[1]
            fields = rest.split(None, 1)
            sname = fields[0]
            if sname in names:
                raise SimplicialError(f"line {line_no}: duplicate simplex {sname!r}")
            tail = fields[1] if len(fields) > 1 else ""
            dim = None
            faces_src = None
            while tail:
                tail = tail.strip()
                if tail.startswith("dim="):
                    value = tail[4:].split(None, 1)
                    if not value or not value[0].isdecimal():
                        raise SimplicialError(f"line {line_no}: expected dim=<natural>")
                    dim = int(value[0])
                    tail = value[1] if len(value) > 1 else ""
                elif tail.startswith("faces=["):
                    close = tail.find("]")
                    if close < 0:
                        raise SimplicialError(f"line {line_no}: unterminated faces=[...]")
                    faces_src = tail[len("faces=["):close]
                    tail = tail[close + 1:]
                else:
                    raise SimplicialError(
                        f"line {line_no}: unexpected token {tail.split()[0]!r} "
                        "(expected dim=<d> or faces=[...])")
            if dim is None:
                raise SimplicialError(f"line {line_no}: simplex {sname!r} missing dim=")
            names[sname] = len(records)
            records.append((line_no, sname, dim, faces_src))
        else:
            raise SimplicialError(
                f"line {line_no}: unknown directive {parts[0]!r} "
                "(expected 'basepoint' or 'simplex')")
    if basepoint is None:
        raise SimplicialError("missing 'basepoint <name>' line")
    dims = {i: dim for i, (_, _, dim, _) in enumerate(records)}
    simplices = []
    for line_no, sname, dim, faces_src in records:
        if dim == 0:
            if faces_src:
                raise SimplicialError(f"line {line_no}: 0-simplex {sname!r} cannot have faces")
            simplices.append(NondegSimplex(sname, 0, ()))
            continue
        if faces_src is None:
            raise SimplicialError(f"line {line_no}: simplex {sname!r} missing faces=[...]")
        tokens = [t.strip() for t in faces_src.split(",") if t.strip()]
        if len(tokens) != dim + 1:
            raise SimplicialError(
                f"line {line_no}: simplex {sname!r} needs {dim + 1} faces, got {len(tokens)}")
        faces = tuple(_parse_face(t, names, dims, line_no) for t in tokens)
        simplices.append(NondegSimplex(sname, dim, faces))
    sset = SimplicialSet(name, basepoint, simplices)
    problems = sset.validate()
    if problems:
        raise SimplicialError("; ".join(problems))
    return sset


def to_file(sset: SimplicialSet) -> str:
    lines = [f"# simplicial set: {sset.name}",
             f"basepoint {sset.simplices[sset.basepoint].name}"]
    for s in sset.simplices:
        if s.dim == 0:
            lines.append(f"simplex {s.name} dim=0")
        else:
            faces = ", ".join(
                (" ".join(f"s{w}" for w in ref.word) + " " if ref.word else "")
                + sset.simplices[ref.base].name
                for ref in s.faces)
            lines.append(f"simplex {s.name} dim={s.dim} faces=[{faces}]")
    return "\n".join(lines) + "\n"
