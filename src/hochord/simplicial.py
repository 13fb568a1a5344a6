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
``d_i(level(n)[k])`` (``degeneracy_table(n)[j][k]`` likewise for ``s_j``,
into ``level(n + 1)``).  A ``SimplexRef`` is a named tuple, equal to and
hashed as its plain ``(base, word)`` tuple, so the one index per level looks
up the plain tuples the tables are built on, once per set object and level.
One face evaluator (``_face``) and one degeneracy evaluator
(``_degenerate``) serve both the tables and the ref-level ``face`` and
``degeneracy``, which wrap them.  The basepoint is index 0 at every level,
so "d_i hits the basepoint" reads ``face_table(n)[i][k] == 0``, and a
face-table column is a pointed map whose fibers ``fibers`` groups.  Those
are tabulated per set object too, as ``(target, members)`` tuples sorted by
target: ``face_fibers(n)[i]`` per column, ``route_fibers(n, steps)`` per
composite.  A composite's images (``route_images``) are kept once per level
and word, each extending its prefix's images by one face-table column.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple


class SimplicialError(ValueError):
    pass


class SimplexRef(NamedTuple):
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


def _degenerate(word: tuple[int, ...], j: int) -> tuple[int, ...]:
    """s_j on a word in normal form: s_j s_w = s_{w+1} s_j (j <= w) moves s_j
    past every letter w >= j, raising it by one, and stops above the rest."""
    return (*(w + 1 for w in word if w >= j), j, *(w for w in word if w < j))


def fibers(images) -> dict[int, list[int]]:
    """The fibers of the pointed map k -> ``images[k]`` (0 is the basepoint
    on both sides), such as a face-table column: each non-basepoint target
    maps to its members in ascending order, targets in order of their first
    member.  The basepoint fiber is left out."""
    out: dict[int, list[int]] = {}
    for k, t in enumerate(images):
        if t:
            out.setdefault(t, []).append(k)
    return out


def _sorted_fibers(images, smallest: int) -> tuple:
    """The fibers with ``smallest`` members or more, sorted by target."""
    return tuple(sorted((t, tuple(m)) for t, m in fibers(images).items() if len(m) >= smallest))


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
        self._one_positive = sum(s.dim >= 1 for s in self.simplices) == 1
        self._levels: dict[int, tuple[SimplexRef, ...]] = {}
        self._index: dict[int, dict[SimplexRef, int]] = {}
        self._face_tables: dict[int, tuple[tuple[int, ...], ...]] = {}
        self._face_fibers: dict[int, tuple] = {}
        self._route_images: dict[tuple[int, tuple[int, ...]], tuple[int, ...]] = {}
        self._route_fibers: dict[tuple[int, tuple[int, ...]], tuple] = {}
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
        """Evaluate d_i on a ref (see ``_face``)."""
        level = self.level_of(ref)
        if level < 1:
            raise SimplicialError("no face maps on level 0")
        if not (0 <= i <= level):
            raise SimplicialError(f"face index {i} out of range at level {level}")
        return SimplexRef(*self._face(ref.base, ref.word, i))

    def _face(self, base: int, word: tuple[int, ...], i: int) -> tuple[int, tuple[int, ...]]:
        """d_i on the simplex ``(base, word)``, by commuting d_i through the
        degeneracy word; unchecked, as the level tables call it."""
        # Commuting d_a through a strictly decreasing word keeps it so: the
        # letters above a drop by one to at least a, those d_a passes from
        # above are below a - 1, and the rest after the letter d_a cancels is
        # smaller still.  Only a degenerate face of the base needs renormalizing.
        out: list[int] = []
        a = i
        for pos, w in enumerate(word):
            if a < w:
                out.append(w - 1)            # d_a s_w = s_{w-1} d_a
            elif a == w or a == w + 1:       # d_a s_w = id
                return base, (*out, *word[pos + 1:])
            else:
                out.append(w)                # d_a s_w = s_w d_{a-1}
                a -= 1
        simplex = self.simplices[base]
        if simplex.dim == 0:
            raise SimplicialError("internal error: face reached a 0-dimensional base")
        target = simplex.faces[a]
        if not target.word:
            return target.base, tuple(out)
        return target.base, normalize_word(out + list(target.word))

    def degeneracy(self, ref: SimplexRef, i: int) -> SimplexRef:
        level = self.level_of(ref)
        if not (0 <= i <= level):
            raise SimplicialError(f"degeneracy index {i} out of range at level {level}")
        return SimplexRef(ref.base, _degenerate(ref.word, i))

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
        if n not in self._levels:
            if n < 0:
                raise SimplicialError("negative level")
            down = range(n - 1, -1, -1)  # its combinations are decreasing words
            self._levels[n] = (SimplexRef(self.basepoint, tuple(down)),) + tuple(sorted(
                SimplexRef(b, word) for b, s in enumerate(self.simplices)
                if s.dim <= n and b != self.basepoint for word in combinations(down, n - s.dim)))
        return self._levels[n]

    def level_nonbase(self, n: int) -> tuple[SimplexRef, ...]:
        return self.level(n)[1:]

    def index(self, n: int) -> dict[SimplexRef, int]:
        """``ref -> k`` with ``level(n)[k] == ref``, also keyed by the plain
        ``(base, word)`` tuple; the basepoint is 0."""
        if n not in self._index:
            self._index[n] = {ref: k for k, ref in enumerate(self.level(n))}
        return self._index[n]

    def face_table(self, n: int) -> tuple[tuple[int, ...], ...]:
        """``face_table(n)[i][k]`` is the index in ``level(n - 1)`` of
        ``d_i(level(n)[k])``; entry 0 of each row is the basepoint's image, 0."""
        if n not in self._face_tables:
            if n < 1:
                raise SimplicialError("no face maps on level 0")
            below, refs = self.index(n - 1), self.level(n)
            self._face_tables[n] = tuple(
                tuple(below[self._face(b, w, i)] for b, w in refs) for i in range(n + 1))
        return self._face_tables[n]

    def face_fibers(self, n: int) -> tuple:
        """``face_fibers(n)[i]``: the fibers of ``face_table(n)[i]``."""
        if n not in self._face_fibers:
            self._face_fibers[n] = tuple(_sorted_fibers(col, 1) for col in self.face_table(n))
        return self._face_fibers[n]

    def route_images(self, n: int, steps: tuple[int, ...]) -> tuple[int, ...]:
        """``route_images(n, steps)[k]`` is the index in ``level(n - len(steps))``
        of the composite applying the faces in ``steps`` to ``level(n)[k]``,
        first to last (0 where a step hits the basepoint).  Built once per
        ``(n, steps)``: the prefix's images read through one face-table column."""
        images = self._route_images.get((n, steps))
        if images is None:
            if steps:
                col = self.face_table(n - len(steps) + 1)[steps[-1]]
                images = tuple(map(col.__getitem__, self.route_images(n, steps[:-1])))
            else:
                images = tuple(range(len(self.level(n))))
            self._route_images[n, steps] = images
        return images

    def route_fibers(self, n: int, steps: tuple[int, ...]) -> tuple:
        """The fibers with two or more members of the composite applying the
        faces in ``steps`` from level n, first to last: ``route_images``
        grouped, once per ``(n, steps)``."""
        if (n, steps) not in self._route_fibers:
            self._route_fibers[n, steps] = _sorted_fibers(self.route_images(n, steps), 2)
        return self._route_fibers[n, steps]

    def degeneracy_table(self, n: int) -> tuple[tuple[int, ...], ...]:
        """``degeneracy_table(n)[j][k]`` is the index in ``level(n + 1)`` of
        ``s_j(level(n)[k])``; entry 0 of each row is the basepoint's image, 0."""
        if n not in self._degeneracy_tables:
            above, refs = self.index(n + 1), self.level(n)
            self._degeneracy_tables[n] = tuple(
                tuple(above[b, _degenerate(w, j)] for b, w in refs) for j in range(n + 1))
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
        if self._one_positive and base.dim >= 1:
            return f"[{word}]"
        return f"[{word}]_{base.name}"


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

def _parse_face(token: str, names: dict[str, int], line_no: int) -> SimplexRef:
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
            if basepoint is not None:
                raise SimplicialError(f"line {line_no}: basepoint given more than once")
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
                if (tail.startswith("dim=") and dim is not None
                        or tail.startswith("faces=[") and faces_src is not None):
                    raise SimplicialError(f"line {line_no}: {tail.split('=', 1)[0]}= "
                                          f"given more than once for simplex {sname!r}")
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
        faces = tuple(_parse_face(t, names, line_no) for t in tokens)
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
