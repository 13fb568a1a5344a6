import io
import json
import os
import subprocess
import sys

import pytest

import hochord
from hochord.cli import main


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


def test_console_script_entry_point():
    proc = subprocess.run([sys.executable, "-m", "hochord.cli", "validate", "circle"],
                          capture_output=True, text=True)
    assert proc.returncode == 0


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
