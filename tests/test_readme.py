"""The README's library tour runs, and each claim in its comments holds."""

import ast
import os

import pytest

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


@pytest.fixture(scope="module")
def tour():
    """``{source line: (value, comment)}`` for every expression statement of
    the README's Python block, each evaluated in order in one namespace."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    blocks = text.split("```python\n")
    assert len(blocks) == 2, "expected exactly one Python block in the README"
    source = blocks[1].split("```", 1)[0]
    lines = source.splitlines()
    namespace, values = {}, {}
    for stmt in ast.parse(source).body:
        code = ast.get_source_segment(source, stmt)
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            comment = lines[stmt.lineno - 1].partition("#")[2].strip()
            values[code] = (value, comment)
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    return values


def test_betti_begins_with_the_center(tour):
    value, comment = tour["cx.betti"]
    assert comment.startswith("(1, 0, 0, 0")
    assert value[:4] == (1, 0, 0, 0)


def test_classical_coface_equals_the_built_one(tour):
    line = next(code for code in tour if code.startswith("classical_complex("))
    value, comment = tour[line]
    assert comment == "True" and value is True


def test_sphere_witness_is_at_level_four(tour):
    value, comment = tour["search_nncmo(sphere2(), 4).witness"]
    assert "four-simplex" in comment
    assert value is not None and value.level == 4


def test_circle_has_one_left_and_one_right_class(tour):
    value, comment = tour["classify_actions(circle(), 4).classes"]
    assert comment == "one left and one right class"
    assert sorted(c.action_type for c in value) == ["left", "right"]


def _file_format_examples():
    """The fenced examples of the README's "File formats" section, by first word."""
    with open(README, encoding="utf-8") as fh:
        section = fh.read().split("### File formats", 1)[1].split("\n## ", 1)[0]
    blocks = section.split("```\n")[1::2]
    return {block.split()[0]: block for block in blocks}


def test_the_file_format_examples_run(tmp_path):
    from hochord.cli import main
    examples = _file_format_examples()
    assert sorted(examples) == ["algebra", "basepoint", "module"]
    for name, block in (("ex.sset", "basepoint"), ("ex.alg", "algebra"), ("ex.mod", "module")):
        (tmp_path / name).write_text(examples[block])
    for argv in (["validate", str(tmp_path / "ex.sset")],
                 ["homology", str(tmp_path / "ex.sset"), "--algebra", str(tmp_path / "ex.alg"),
                  "--module", "symmetric", "--max-degree", "2"],
                 ["cohomology", "circle", "--algebra", "trunc-poly 2",
                  "--module", str(tmp_path / "ex.mod"), "--max-degree", "2"]):
        assert main(argv) == 0, argv
