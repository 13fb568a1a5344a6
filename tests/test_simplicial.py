import pytest

from hochord.simplicial import (BUILTIN_SETS, NondegSimplex, SimplexRef,
                                SimplicialError, SimplicialSet, circle, from_file, interval,
                                normalize_word, point, sphere2, to_file,
                                wedge_of_circles)


def test_normalize_word():
    assert normalize_word([]) == ()
    assert normalize_word([2, 0]) == (2, 0)
    assert normalize_word([1, 1]) == (2, 1)       # s_1 s_1 = s_2 s_1
    assert normalize_word([0, 0, 0]) == (2, 1, 0)
    assert normalize_word([0, 2]) == (3, 0)       # s_0 s_2 = s_3 s_0


def test_face_degeneracy_identities_consume():
    X = circle()
    e = SimplexRef(X.id_of("e"))
    s1e = X.degeneracy(e, 1)
    assert X.monotone_name(s1e) == "[011]"
    assert X.face(s1e, 1) == e                    # d_1 s_1 = id
    s0e = X.degeneracy(e, 0)
    assert X.monotone_name(s0e) == "[001]"
    assert X.face(s0e, 0) == e                    # d_0 s_0 = id


def test_sphere_faces_hit_basepoint_degeneracy():
    S = sphere2()
    sigma = SimplexRef(S.id_of("sigma"))
    assert S.face(sigma, 1) == S.basepoint_ref(1)
    assert all(S.face(sigma, i) == S.basepoint_ref(1) for i in range(3))


def test_degeneracy_of_basepoint():
    X = circle()
    bp2 = X.basepoint_ref(2)
    assert X.degeneracy(bp2, 0) == X.basepoint_ref(3)
    assert X.degeneracy(bp2, 2) == X.basepoint_ref(3)


def _brute_force_level(X, n):
    """Independent enumeration: close level 0..n under all degeneracies."""
    current = {SimplexRef(i) for i, s in enumerate(X.simplices) if s.dim == 0}
    levels = {0: set(current)}
    for level in range(1, n + 1):
        nxt = set()
        for ref in levels[level - 1]:
            for i in range(level):
                nxt.add(X.degeneracy(ref, i))
        for i, s in enumerate(X.simplices):
            if s.dim == level:
                nxt.add(SimplexRef(i))
        levels[level] = nxt
    return levels[n]


def test_materialize_counts_circle():
    X = circle()
    for n in range(7):
        level = X.level(n)
        assert len(level) == n + 1                # basepoint + n words
        assert len(set(level)) == len(level)
        assert set(level) == _brute_force_level(X, n)


def test_materialize_counts_sphere_and_point():
    S = sphere2()
    lvl2 = S.level(2)
    assert [S.monotone_name(r) for r in lvl2] == ["*", "[012]"]
    assert set(S.level(4)) == _brute_force_level(S, 4)
    P = point()
    for n in range(5):
        assert len(P.level(n)) == 1


def test_level_order_deterministic():
    X = wedge_of_circles(2)
    a = [X.level(n) for n in range(5)]
    Y = wedge_of_circles(2)
    b = [Y.level(n) for n in range(5)]
    assert a == b
    assert a[2][0] == X.basepoint_ref(2)


@pytest.mark.parametrize("builder", [point, interval, circle,
                                     lambda: wedge_of_circles(2), sphere2])
def test_simplicial_identities_exhaustive(builder):
    X = builder()
    cutoff = 4
    for n in range(2, cutoff + 1):
        for ref in X.level(n):
            for j in range(1, n + 1):
                for i in range(j):
                    assert X.face(X.face(ref, j), i) == X.face(X.face(ref, i), j - 1)
    for n in range(1, cutoff):
        for ref in X.level(n):
            for j in range(n + 1):
                for i in range(j + 1):
                    assert X.degeneracy(X.degeneracy(ref, j), i) == \
                        X.degeneracy(X.degeneracy(ref, i), j + 1)
            for j in range(n + 1):
                sref = X.degeneracy(ref, j)
                for i in range(n + 2):
                    lhs = X.face(sref, i)
                    if i < j:
                        assert lhs == X.degeneracy(X.face(ref, i), j - 1)
                    elif i in (j, j + 1):
                        assert lhs == ref
                    else:
                        assert lhs == X.degeneracy(X.face(ref, i - 1), j)


def test_validate_ok_for_builders():
    for X in (point(), interval(), circle(), wedge_of_circles(3), sphere2()):
        assert X.validate() == []


def test_validate_reports_bad_faces():
    # a 2-simplex whose faces do not satisfy d_0 d_1 = d_0 d_0
    bad = SimplicialSet("bad", "v0", [
        NondegSimplex("v0", 0, ()),
        NondegSimplex("w", 0, ()),
        NondegSimplex("a", 1, (SimplexRef(0), SimplexRef(0))),
        NondegSimplex("b", 1, (SimplexRef(1), SimplexRef(1))),
        NondegSimplex("t", 2, (SimplexRef(2), SimplexRef(3), SimplexRef(2))),
    ])
    problems = bad.validate()
    assert problems and "'t'" in problems[0]


def test_dimension():
    assert point().dimension() == 0
    assert circle().dimension() == 1
    assert sphere2().dimension() == 2


def test_file_round_trip():
    for X in (point(), interval(), circle(), wedge_of_circles(2), sphere2()):
        Y = from_file(to_file(X), X.name)
        assert [s.name for s in Y.simplices] == [s.name for s in X.simplices]
        assert Y.level(3) == X.level(3)


def test_from_file_degenerate_faces():
    text = """
    # a 2-simplex glued to the basepoint along every face
    basepoint v0
    simplex v0 dim=0
    simplex sigma dim=2 faces=[s0 v0, s0 v0, s0 v0]
    """
    X = from_file(text, "sphere-ish")
    assert X.dimension() == 2
    assert X.validate() == []


@pytest.mark.parametrize("text,fragment", [
    ("simplex e dim=1 faces=[v0, v0]", "basepoint"),
    ("basepoint v0\nsimplex v0 dim=0\nsimplex e dim=1 faces=[v0]", "2 faces"),
    ("basepoint v0\nsimplex v0 dim=0\nsimplex e dim=1 faces=[w, v0]", "unknown simplex"),
    ("basepoint v0\nsimplex v0 dim=0\nwat is this", "unknown directive"),
    ("basepoint v0\nsimplex v0 dim=0\nsimplex e dim=1", "missing faces"),
])
def test_parse_errors_name_the_problem(text, fragment):
    with pytest.raises(SimplicialError) as err:
        from_file(text)
    assert fragment in str(err.value)


def test_monotone_names_with_multiple_edges():
    W = wedge_of_circles(2)
    names = [W.monotone_name(r) for r in W.level(2)]
    assert names == ["*", "[001]_e1", "[011]_e1", "[001]_e2", "[011]_e2"]


# ---------------------------------------------------------------------------
# level indices and integer face tables

BASEPOINT_LAST = """
basepoint b
simplex v dim=0
simplex b dim=0
simplex e dim=1 faces=[v, b]
simplex f dim=1 faces=[b, b]
"""


# the sets the table oracles cover; "family" is the one_dimensional_family fixture
TABLE_ORACLE_SETS = {**BUILTIN_SETS,
                     "basepoint-last": lambda: from_file(BASEPOINT_LAST, "bp-last"),
                     "family": None}


def _table_oracle_sets(name, request):
    """One bundled set, the basepoint-last file, or the one-dimensional family."""
    if name == "family":
        return [member.X for member in request.getfixturevalue("one_dimensional_family")]
    return [TABLE_ORACLE_SETS[name]()]


@pytest.mark.parametrize("name", TABLE_ORACLE_SETS)
def test_face_table_matches_face(name, request):
    # face and face_table share one evaluator, so the oracle is the test's
    # always-normalized evaluation
    for X in _table_oracle_sets(name, request):
        for n in range(1, 5):
            level, below = X.level(n), X.level(n - 1)
            table = X.face_table(n)
            assert len(table) == n + 1
            for i, col in enumerate(table):
                assert col[0] == 0
                assert list(col) == [below.index(_always_normalized_face(X, ref, i))
                                     for ref in level], (X.name, n, i)


@pytest.mark.parametrize("name", TABLE_ORACLE_SETS)
def test_degeneracy_table_matches_normalize_word(name, request):
    for X in _table_oracle_sets(name, request):
        for n in range(4):
            level, above = X.level(n), X.level(n + 1)
            table = X.degeneracy_table(n)
            assert len(table) == n + 1
            for j, col in enumerate(table):
                assert col[0] == 0
                assert list(col) == [above.index(SimplexRef(ref.base,
                                                             normalize_word((j,) + ref.word)))
                                     for ref in level], (X.name, n, j)
                assert [X.degeneracy(ref, j) for ref in level] == [above[k] for k in col]


@pytest.mark.parametrize("builder", [*BUILTIN_SETS.values(),
                                     lambda: from_file(BASEPOINT_LAST, "bp-last")],
                         ids=[*BUILTIN_SETS, "basepoint-last"])
def test_index_inverts_the_level_and_puts_the_basepoint_first(builder):
    X = builder()
    for n in range(6):
        level = X.level(n)
        assert X.index(n) == {ref: k for k, ref in enumerate(level)}
        assert level[0] == X.basepoint_ref(n) and X.index(n)[X.basepoint_ref(n)] == 0


@pytest.mark.parametrize("name", TABLE_ORACLE_SETS)
def test_a_ref_is_its_level_key(name, request):
    # a ref is a named tuple: the one index per level answers its plain
    # (base, word) key, which the face and degeneracy tables look up
    for X in _table_oracle_sets(name, request):
        for n in range(5):
            level, index = X.level(n), X.index(n)
            assert list(level[1:]) == sorted(level[1:])
            for k, r in enumerate(level):
                assert index[(r.base, r.word)] == k
                assert r == (r.base, r.word) and hash(r) == hash((r.base, r.word))
        with pytest.raises(AttributeError):
            X.level(1)[-1].base = 0
    assert repr(SimplexRef(0)) == "SimplexRef(base=0, word=())"


def test_face_tables_are_built_once_per_level(monkeypatch):
    X = wedge_of_circles(2)
    evaluate = SimplicialSet._face
    calls = [0]

    def counted(Y, base, word, i):
        calls[0] += 1
        return evaluate(Y, base, word, i)

    monkeypatch.setattr(SimplicialSet, "_face", counted)
    first = X.face_table(3)
    assert calls[0] == 4 * len(X.level(3))
    assert X.face_table(3) is first and X.index(2) is X.index(2)
    assert calls[0] == 4 * len(X.level(3))
    X.face(X.level(3)[-1], 0)  # the counter sees the ref-level wrapper too
    assert calls[0] == 4 * len(X.level(3)) + 1


def test_no_face_table_on_level_zero():
    with pytest.raises(SimplicialError):
        circle().face_table(0)


def _always_normalized_face(X, ref, i):
    """``face`` as it was before it skipped renormalizing words that are
    already in normal form."""
    out, a, word = [], i, ref.word
    for pos, w in enumerate(word):
        if a < w:
            out.append(w - 1)
        elif a == w or a == w + 1:
            return SimplexRef(ref.base, normalize_word(out + list(word[pos + 1:])))
        else:
            out.append(w)
            a -= 1
    target = X.simplices[ref.base].faces[a]
    return SimplexRef(target.base, normalize_word(out + list(target.word)))


def test_face_matches_the_always_normalized_evaluation(one_dimensional_family,
                                                       two_loops_and_a_triangle):
    # sphere2 and the triangle have degenerate faces: the renormalized branch
    sets = [builder() for builder in BUILTIN_SETS.values()]
    sets += [member.X for member in one_dimensional_family] + [two_loops_and_a_triangle]
    cases = [(X, ref, i) for X in sets for n in range(1, 6)
             for ref in X.level(n) for i in range(n + 1)]
    assert len(cases) > 70_000
    assert [(X.name, ref, i) for X, ref, i in cases
            if X.face(ref, i) != _always_normalized_face(X, ref, i)] == []
