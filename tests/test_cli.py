import io
import json
import os
import subprocess
import sys

import pytest

import hochord
from hochord import cli
from hochord.algebras import (cyclic_group_algebra, matrix_algebra,
                              symmetric_group_algebra_s3, trunc_poly, upper_tri)
from hochord.cli import main
from hochord.exact import QQ, Field
from hochord.modules import (multi_regular, regular_bimodule, symmetric_module,
                             tensor_square_bimodule)


def run_cli(args):
    import contextlib
    buf = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        code = main(args)
    return code, buf.getvalue(), err.getvalue()


def test_validate_builtin_sets():
    for name in ("point", "interval", "circle", "wedge2", "wedge3", "sphere2"):
        code, out, _ = run_cli(["validate", name])
        assert code == 0
        assert "ok: True" in out


def test_nncmo_exit_codes():
    code, out, _ = run_cli(["nncmo", "circle", "--cutoff", "4"])
    assert code == 0 and "admits" in out
    code, out, _ = run_cli(["nncmo", "sphere2", "--cutoff", "4"])
    assert code == 2
    assert "[00112]" in out and "[01122]" in out
    assert "d1 d3" in out and "d2 d1" in out


def test_nncmo_oracle_flag():
    code, out, _ = run_cli(["nncmo", "wedge2", "--cutoff", "4", "--oracle"])
    assert code == 0
    assert "full_factorization_check: ok" in out


def test_nncmo_rejects_tiny_cutoff():
    code, _, err = run_cli(["nncmo", "circle", "--cutoff", "1"])
    assert code == 1 and "cutoff" in err


@pytest.mark.parametrize("command, cutoff", [
    ("actions", "-1"), ("actions", "0"), ("cyclic", "-2"), ("cyclic", "0")])
def test_cyclic_and_actions_reject_cutoff_below_one(command, cutoff):
    code, out, err = run_cli([command, "circle", "--cutoff", cutoff, "--json"])
    assert code == 1 and out == ""
    assert f"--cutoff >= 1, got --cutoff {cutoff}" in err


def test_cyclic_and_actions_accept_cutoff_one():
    for command in ("actions", "cyclic"):
        code, out, _ = run_cli([command, "circle", "--cutoff", "1", "--json"])
        assert code == 0 and json.loads(out)["cutoff"] == 1


def test_cyclic_tables():
    code, out, _ = run_cli(["cyclic", "circle", "--cutoff", "4"])
    assert code == 0
    assert "[001], [011]" in out
    assert "[0001], [0011], [0111]" in out
    code, _, err = run_cli(["cyclic", "sphere2"])
    assert code == 1 and "one-dimensional" in err


def test_actions_report():
    code, out, _ = run_cli(["actions", "circle", "--cutoff", "4"])
    assert code == 0
    assert "type: left" in out and "type: right" in out


def test_cohomology_circle_uppertri():
    code, out, _ = run_cli(["cohomology", "circle", "--algebra", "upper-tri 2",
                            "--module", "regular", "--max-degree", "4"])
    assert code == 0
    assert "beta^0: 1" in out
    assert "square_zero: True" in out


def test_homology_refusal_on_sphere_noncommutative():
    code, out, _ = run_cli(["cohomology", "sphere2", "--algebra", "upper-tri 2",
                            "--module", "regular", "--max-degree", "3"])
    assert code == 2
    assert "refused: True" in out and "[00112]" in out


def test_homology_sphere_commutative_succeeds():
    code, out, _ = run_cli(["homology", "sphere2", "--algebra", "trunc-poly 2",
                            "--module", "symmetric", "--max-degree", "3"])
    assert code == 0
    assert "square_zero: True" in out


EDGE_PLUS_LOOP = """basepoint v0
simplex v0 dim=0
simplex p dim=0
simplex a dim=1 faces=[p, v0]
simplex b dim=1 faces=[p, p]
"""


def test_inconclusive_search_refuses_only_noncommutative_coefficients(tmp_path):
    # the ordering search on an edge plus a loop at p proves no ordering
    # exists but finds no single-fiber witness, so it is inconclusive
    p = tmp_path / "edge-plus-loop.sset"
    p.write_text(EDGE_PLUS_LOOP)
    code, out, _ = run_cli(["actions", str(p), "--cutoff", "3", "--json"])
    report = json.loads(out)
    assert code == 0 and {c["type"] for c in report["classes"]} == {"untyped"}
    assert "ordering search inconclusive at cutoff 3; classes left untyped" in report["notes"]
    for command in ("homology", "cohomology"):
        code, out, _ = run_cli([command, str(p), "--algebra", "trunc-poly 2",
                                "--module", "regular", "--json"])
        assert code == 0 and json.loads(out)["square_zero"] is True
        code, out, err = run_cli([command, str(p), "--algebra", "upper-tri 2",
                                  "--module", "regular", "--json"])
        assert code == 1 and out == "" and err.startswith("inconclusive:")


def test_json_round_trip_and_determinism():
    args = ["nncmo", "sphere2", "--cutoff", "4", "--json"]
    code1, out1, _ = run_cli(args)
    code2, out2, _ = run_cli(args)
    assert code1 == code2 == 2
    assert out1 == out2
    report = json.loads(out1)
    assert json.loads(json.dumps(report, sort_keys=True)) == report
    assert report["witness"]["fiber"] == ["[00112]", "[01112]", "[00122]", "[01122]"]


def test_pair_constraints_command():
    code, out, _ = run_cli(["pair-constraints", "circle", "circle"])
    assert code == 0 and "both-noncommutative" in out
    code, _, err = run_cli(["pair-constraints", "wedge2", "circle"])
    assert code == 1


def test_sset_file_input(tmp_path):
    p = tmp_path / "torusless.sset"
    p.write_text("""
basepoint v0
simplex v0 dim=0
simplex e dim=1 faces=[v0, v0]
""")
    code, out, _ = run_cli(["nncmo", str(p), "--cutoff", "3"])
    assert code == 0


def test_sset_parse_error_exit_1(tmp_path):
    p = tmp_path / "bad.sset"
    p.write_text("basepoint v0\nsimplex v0 dim=0\nsimplex e dim=1 faces=[w, v0]\n")
    code, _, err = run_cli(["nncmo", str(p)])
    assert code == 1 and "unknown simplex" in err


def test_unknown_set_exit_1():
    code, _, err = run_cli(["validate", "klein-bottle"])
    assert code == 1 and "unknown simplicial set" in err


def test_custom_algebra_file(tmp_path):
    p = tmp_path / "dual_numbers.alg"
    p.write_text("""
# k[x]/(x^2) by hand
algebra custom basis=[one,x] unit=[1,0] field=Q
table:
one*one = one; one*x = x
x*one = x
x*x = 0
""")
    code, out, _ = run_cli(["homology", "circle", "--algebra", str(p),
                            "--module", "symmetric", "--max-degree", "2"])
    assert code == 0
    assert "beta_0: 2" in out


def test_custom_algebra_file_errors(tmp_path):
    p = tmp_path / "broken.alg"
    p.write_text("algebra custom basis=[a,b] unit=[1,0] field=Q\ntable:\na*a = a\n")
    code, _, err = run_cli(["homology", "circle", "--algebra", str(p)])
    assert code == 1 and "missing from the table" in err


def test_custom_module_file(tmp_path):
    p = tmp_path / "sym.mod"
    p.write_text("""
module custom dim=2
action mult tag=lr
op(1) = [[1,0],[0,1]]
op(x) = [[0,0],[1,0]]
""")
    code, out, _ = run_cli(["cohomology", "circle", "--algebra", "trunc-poly 2",
                            "--module", str(p), "--max-degree", "2"])
    assert code == 0


def test_field_option():
    code, out, _ = run_cli(["homology", "circle", "--algebra", "trunc-poly 2",
                            "--module", "symmetric", "--max-degree", "2",
                            "--field", "F(5)"])
    assert code == 0 and "F(5)" in out


def test_report_names_the_field_the_complex_is_computed_over():
    code, out, _ = run_cli(["homology", "circle", "--algebra", "trunc-poly 2 field=F(7)",
                            "--json"])
    report = json.loads(out)
    assert code == 0 and report["algebra"].endswith("over F(7))")
    assert report["field"] == "F(7)"


def test_inline_algebra_refuses_a_second_field():
    code, out, err = run_cli(["homology", "circle", "--algebra",
                              "trunc-poly 2 field=F(3) field=F(5)"])
    assert (code, out) == (1, "")
    assert err == ("error: algebra 'trunc-poly 2 field=F(3) field=F(5)': "
                   "field= given more than once\n")


def test_algebra_file_header_refuses_a_second_field(tmp_path):
    p = tmp_path / "dual_numbers.alg"
    p.write_text("algebra custom basis=[one,x] unit=[1,0] field=F(3) field=F(5)\n"
                 "table:\none*one = one; one*x = x\nx*one = x\nx*x = 0\n")
    code, out, err = run_cli(["homology", "circle", "--algebra", str(p)])
    assert (code, out) == (1, "")
    assert err == f"error: {p}:1: field= given more than once\n"


@pytest.mark.parametrize("field, message", [
    ("Z", "unrecognized field 'Z' (expected Q or F(p))"), ("F(4)", "4 is not prime"),
    ("F(x)", "unrecognized field 'F(x)' (expected Q or F(p))"),
    ("F(1)", "characteristic out of range: 1")])
def test_malformed_field_option_is_one_error_line(field, message):
    code, out, err = run_cli(["homology", "circle", "--algebra", "trunc-poly 2",
                              "--field", field])
    assert (code, out, err) == (1, "", f"error: --field: {message}\n")


CUSTOM_Z = ("algebra custom basis=[one,x] unit=[1,0] field=Z\ntable:\n"
            "one*one = one; one*x = x; x*one = x; x*x = 0\n")


@pytest.mark.parametrize("algebra, module, message", [
    ("trunc-poly 2 field=Z", None, "algebra 'trunc-poly 2 field=Z': unrecognized field 'Z'"),
    ("file:trunc-poly 2 field=F(x)", None, "algebra 'trunc-poly 2 field=F(x)': unrecognized"),
    ("file:" + CUSTOM_Z, None, "bad.alg:1: unrecognized field 'Z'"),
    ("trunc-poly 2", "module custom dim=x\n", "bad.mod:1: expected an integer in 'dim=x'"),
    ("trunc-poly 2", "module custom dim=-1\n", "bad.mod: module dimension -1 is negative"),
    ("trunc-poly \u00b2", None, "algebra trunc-poly expects one natural argument"),
    ("trunc-poly 2", "module multi \u00b2 1\n", "module multi expects two naturals"),
])
def test_malformed_numbers_in_inputs_are_one_error_line(tmp_path, algebra, module, message):
    """Each input names its file and line, or the inline spec, in one line."""
    if algebra.startswith("file:"):
        (tmp_path / "bad.alg").write_text(algebra[len("file:"):])
        algebra = str(tmp_path / "bad.alg")
    args = ["homology", "point", "--algebra", algebra]
    if module is not None:
        (tmp_path / "bad.mod").write_text(module)
        args += ["--module", str(tmp_path / "bad.mod")]
    code, out, err = run_cli(args)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err, err


@pytest.mark.parametrize("line", ["simplex e dim=\u00b2 faces=[v, v]",
                                  "simplex e dim=1 faces=[s\u00b2 v, v]"])
def test_non_decimal_digits_in_a_set_file_are_one_error_line(tmp_path, line):
    p = tmp_path / "bad.sset"
    p.write_text(f"basepoint v\nsimplex v dim=0\n{line}\n")
    code, out, err = run_cli(["validate", str(p)])
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {p}: line 3: ") and err.count("\n") == 1, err


DUAL_TABLE = "table:\none*one = one; one*x = x\nx*one = x\nx*x = 0\n"
SYMMETRIC_OPS = "op(1) = [[1,0],[0,1]]\nop(x) = [[0,0],[1,0]]\n"


@pytest.mark.parametrize("kind, text, line, message", [
    ("alg", "algebra custom basis=[x,x] unit=[1,0]\ntable:\nx*x = x\n", 1,
     "basis name 'x' given more than once"),
    ("alg", "algebra custom basis=[one,x] basis=[one,y] unit=[1,0]\n" + DUAL_TABLE, 1,
     "basis= given more than once"),
    ("alg", "algebra custom basis=[one,x] unit=[1,0] unit=[0,1]\n" + DUAL_TABLE, 1,
     "unit= given more than once"),
    ("alg", "algebra custom basis=[one,x] unit=[1,0]\n" + DUAL_TABLE + "x*x = x\n", 6,
     "product x*x given more than once"),
    ("mod", "module custom dim=2 dim=3\naction mult tag=lr\n" + SYMMETRIC_OPS, 1,
     "dim= given more than once"),
    ("mod", "module custom dim=2\naction mult tag=lr\n" + SYMMETRIC_OPS
     + "op(x) = [[0,0],[0,0]]\n", 5, "op(x) given more than once in action 'mult'"),
    ("mod", "module custom dim=2\naction mult tag=lr\n" + SYMMETRIC_OPS
     + "action mult tag=left\n" + SYMMETRIC_OPS, 5, "action 'mult' declared more than once"),
    ("sset", "basepoint v0\nbasepoint v1\nsimplex v0 dim=0\nsimplex v1 dim=0\n", 2,
     "basepoint given more than once"),
    ("sset", "basepoint v\nsimplex v dim=0 dim=1\n", 2,
     "dim= given more than once for simplex 'v'"),
    ("sset", "basepoint v\nsimplex v dim=0\nsimplex e dim=1 faces=[v, v] faces=[v, v]\n", 3,
     "faces= given more than once for simplex 'e'"),
], ids=["basis-name", "basis", "unit", "product", "module-dim", "op", "action",
        "basepoint", "simplex-dim", "simplex-faces"])
def test_a_duplicate_in_an_input_file_is_refused_at_its_line(tmp_path, kind, text, line,
                                                             message):
    """A value given twice is refused where it is given, never overwritten."""
    p = tmp_path / f"dup.{kind}"
    p.write_text(text)
    where = f"{p}: line {line}" if kind == "sset" else f"{p}:{line}"
    args = {"alg": ["homology", "circle", "--algebra", str(p)],
            "mod": ["homology", "circle", "--algebra", "trunc-poly 2", "--module", str(p)],
            "sset": ["validate", str(p)]}[kind]
    assert run_cli(args) == (1, "", f"error: {where}: {message}\n")


def test_console_script_entry_point():
    src = os.path.dirname(os.path.dirname(hochord.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "hochord.cli", "validate", "circle"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


def test_package_runs_as_a_module():
    src = os.path.dirname(os.path.dirname(hochord.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "hochord", "validate", "circle", "--json"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["command"] == "validate" and report["set"] == "circle"
    assert report["ok"] is True and report["violations"] == []


def test_repeated_main_calls_match_fresh_processes():
    from hochord.cli import CliInputError, _build_parser
    argvs = [["validate", "circle", "--json"],
             ["actions", "wedge2", "--cutoff", "3", "--json"],
             ["actions", "circle", "--cutoff", "x"],
             ["nncmo", "circle", "--cutoff", "3"],
             ["frobnicate", "circle"],
             ["cohomology", "circle", "--algebra", "upper-tri 2", "--max-degree", "2"]]
    src = os.path.dirname(os.path.dirname(hochord.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    fresh = []
    for argv in argvs:
        proc = subprocess.run([sys.executable, "-m", "hochord", *argv],
                              capture_output=True, text=True, env=env)
        fresh.append((proc.returncode, proc.stdout, proc.stderr))
    assert [code for code, _, _ in fresh] == [0, 0, 1, 0, 1, 0]
    # one process, the parser built once and reused across commands and refusals
    for _ in range(2):
        assert [run_cli(argv) for argv in argvs] == fresh
    assert _build_parser() is _build_parser()
    for _ in range(2):
        with pytest.raises(CliInputError, match="invalid int value: 'x'"):
            _build_parser().parse_args(argvs[2])


# the inline builders the README documents, with the direct calls they stand for
DOCUMENTED_ALGEBRAS = {
    "trunc-poly 3": lambda f: trunc_poly(3, f), "upper-tri 2": lambda f: upper_tri(2, f),
    "matrix 2": lambda f: matrix_algebra(2, f),
    "group-cyclic 3": lambda f: cyclic_group_algebra(3, f),
    "group-s3": symmetric_group_algebra_s3}
DOCUMENTED_MODULES = {
    "regular": regular_bimodule, "symmetric": symmetric_module,
    "tensor-square": tensor_square_bimodule, "multi 2 1": lambda a: multi_regular(a, 2, 1)}


def test_the_builder_tables_are_the_documented_builders():
    assert {spec.split()[0] for spec in DOCUMENTED_ALGEBRAS} == set(cli.ALGEBRA_BUILDERS)
    assert {spec.split()[0] for spec in DOCUMENTED_MODULES} == {*cli.MODULE_BUILDERS, "multi"}


@pytest.mark.parametrize("suffix, field", [("", QQ), (" field=F(7)", Field.parse("F(7)"))])
@pytest.mark.parametrize("spec", sorted(DOCUMENTED_ALGEBRAS))
def test_each_documented_algebra_builder_equals_the_direct_call(spec, suffix, field):
    assert cli.parse_algebra(spec + suffix, QQ) == DOCUMENTED_ALGEBRAS[spec](field)
    assert cli.parse_algebra("algebra " + spec + suffix, QQ) == DOCUMENTED_ALGEBRAS[spec](field)


@pytest.mark.parametrize("field", [QQ, Field.parse("F(7)")])
@pytest.mark.parametrize("spec", sorted(DOCUMENTED_MODULES))
def test_each_documented_module_builder_equals_the_direct_call(spec, field):
    alg = trunc_poly(3, field)
    assert cli.resolve_module(spec, alg) == DOCUMENTED_MODULES[spec](alg)
    assert cli.resolve_module("module " + spec, alg) == DOCUMENTED_MODULES[spec](alg)


@pytest.mark.parametrize("algebra, module", [
    ("trunc_poly 2", "regular"), ("upper_tri 2", "regular"), ("group 3", "regular"),
    ("group cyclic 3", "regular"), ("group C 3", "regular"), ("group s3", "regular"),
    ("group S3", "regular"), ("s3", "regular"), ("group-s3 x", "regular"),
    ("group-s3 2", "regular"), ("trunc-poly 2", "tensor_square"),
    ("trunc-poly 2", "regular x")])
def test_undocumented_aliases_and_extra_arguments_are_refused(algebra, module):
    code, out, err = run_cli(["homology", "point", "--algebra", algebra, "--module", module])
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_group_s3_with_an_argument_names_the_builder():
    assert run_cli(["homology", "point", "--algebra", "group-s3 x"]) == (
        1, "", "error: algebra group-s3 takes no argument\n")


def test_spaces_inside_brackets_of_an_algebra_header(tmp_path):
    spaced = tmp_path / "spaced.alg"
    spaced.write_text("algebra custom basis=[one, x] unit=[1, 0]\n" + DUAL_TABLE)
    tight = tmp_path / "tight.alg"
    tight.write_text("algebra custom basis=[one,x] unit=[1,0]\n" + DUAL_TABLE)
    assert cli.parse_algebra_file(str(spaced), QQ).basis_names == ("one", "x")
    assert (cli.parse_algebra_file(str(spaced), QQ).table
            == cli.parse_algebra_file(str(tight), QQ).table)
    code, out, _ = run_cli(["homology", "circle", "--algebra", str(spaced),
                            "--module", "symmetric", "--max-degree", "2"])
    assert code == 0 and "beta_0: 2" in out


def test_spaces_inside_and_between_the_rows_of_a_module_matrix(tmp_path):
    spaced = tmp_path / "spaced.mod"
    spaced.write_text("module custom dim=2\naction mult tag=lr\n"
                      "op(1) = [[1, 0], [0, 1]]\nop(x) = [ [0, 0] ,[1, 0] ]\n")
    tight = tmp_path / "tight.mod"
    tight.write_text("module custom dim=2\naction mult tag=lr\n" + SYMMETRIC_OPS)
    alg = trunc_poly(2)
    built = cli.parse_module_file(str(spaced), alg)
    assert built.actions == cli.parse_module_file(str(tight), alg).actions
    code, _, _ = run_cli(["cohomology", "circle", "--algebra", "trunc-poly 2",
                          "--module", str(spaced), "--max-degree", "2"])
    assert code == 0


@pytest.mark.parametrize("ops", ["op(1) = [[1, 0]; [0, 1]]", "op(1) = [[1, 0],, [0, 1]]",
                                 "op(1) = [[1, 0] [0, 1]]", "op(1) = [[1, 0], [0, 1]] x"])
def test_anything_but_one_comma_between_matrix_rows_is_refused(tmp_path, ops):
    p = tmp_path / "rows.mod"
    p.write_text(f"module custom dim=2\naction mult tag=lr\n{ops}\n")
    assert run_cli(["homology", "circle", "--algebra", "trunc-poly 2", "--module", str(p)]) == (
        1, "", f"error: {p}:3: expected [[...],[...]] matrix literal\n")


@pytest.mark.parametrize("kind, text, line", [
    ("alg", "algebra trunc-poly 2\ntable:\nx*x = x\n", 2),
    ("alg", "# a builder\n\nalgebra upper-tri 2 # comment\n\nmatrix 2\n", 5),
    ("mod", "module symmetric\naction foo tag=left\n", 2),
    ("mod", "module multi 1 1\n# fine\nmodule regular\n", 3)])
def test_a_builder_file_holds_one_line(tmp_path, kind, text, line):
    p = tmp_path / f"builder.{kind}"
    p.write_text(text)
    args = (["--algebra", str(p)] if kind == "alg"
            else ["--algebra", "trunc-poly 2", "--module", str(p)])
    assert run_cli(["homology", "circle", *args]) == (
        1, "", f"error: {p}:{line}: expected nothing after the builder line\n")


def test_a_one_line_builder_file_builds_its_builder(tmp_path):
    alg, mod = tmp_path / "b.alg", tmp_path / "b.mod"
    alg.write_text("# comment\nalgebra upper-tri 2 field=F(7)\n")
    mod.write_text("module tensor-square\n")
    built = cli.resolve_algebra(str(alg), QQ)
    assert built == upper_tri(2, Field.parse("F(7)"))
    assert cli.resolve_module(str(mod), built) == tensor_square_bimodule(built)
