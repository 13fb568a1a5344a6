"""Golden outputs: CLI runs and API differentials pinned byte for byte.

Every pin is a sha256 digest of one output, stored in ``golden.json`` under
the command line (CLI) or the build (API) it came from, so a failing pin
names its input.  A CLI pin holds the exit code and the digests of stdout
and stderr; a set given as ``<name>.sset`` is written under a temporary
directory first, and only its file name enters the output.  An API pin
digests the ``to_triplets()`` of every differential and the
``cosimplicial_check`` result of one build, or the error that refused it.
One more pins the interval's searched certificate, which is not the
canonical one, and the upper-tri(2) builds over it.

Running this module as a script rewrites ``golden.json`` from the code on
``PYTHONPATH``::

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import os
import shlex
import sys

import pytest

from hochord.algebras import trunc_poly, upper_tri
from hochord.cli import main
from hochord.hochschild import (CHAIN, COCHAIN, ComplexError, ComplexSpec, build_complex,
                                cosimplicial_check, make_spec)
from hochord.modules import ModuleError, regular_bimodule, tensor_square_bimodule
from hochord.ordering import search_nncmo
from hochord.simplicial import circle, interval, sphere2, wedge_of_circles

PINS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

SET_FILES = {
    "bigon.sset": """basepoint v0
simplex v0 dim=0
simplex p dim=0
simplex e1 dim=1 faces=[p, v0]
simplex e2 dim=1 faces=[v0, p]
""",
    "theta.sset": """basepoint v0
simplex v0 dim=0
simplex p dim=0
simplex a dim=1 faces=[p, v0]
simplex b dim=1 faces=[p, v0]
simplex c dim=1 faces=[p, v0]
""",
    # an edge from the basepoint to p and a loop at p: the search proves no
    # ordering exists but finds no single-fiber witness, so it is inconclusive
    "edge-plus-loop.sset": """basepoint v0
simplex v0 dim=0
simplex p dim=0
simplex a dim=1 faces=[p, v0]
simplex b dim=1 faces=[p, p]
""",
}

SETS = ("point", "interval", "circle", "wedge2", "wedge3", "sphere2", *SET_FILES)


def _cli_lines() -> list[str]:
    lines = []
    for s in SETS:
        for cutoff in (2, 3, 4, 5):
            lines += [f"nncmo {s} --cutoff {cutoff} --oracle",
                      f"actions {s} --cutoff {cutoff} --json",
                      f"cyclic {s} --cutoff {cutoff} --json"]
    for s in ("circle", "interval", "wedge2", "sphere2", "edge-plus-loop.sset"):
        for command in ("homology", "cohomology"):
            for alg in ("trunc-poly 2", "upper-tri 2"):
                for module in ("regular", "tensor-square"):
                    for flags in ("", " --normalized"):
                        lines.append(f"{command} {s} --algebra '{alg}' --module {module} "
                                     f"--oracle --json{flags}")
    return lines


API_SETS = {"circle": circle, "interval": interval,
            "wedge2": lambda: wedge_of_circles(2), "sphere2": sphere2}
API_ALGEBRAS = {"trunc-poly 2": lambda: trunc_poly(2), "upper-tri 2": lambda: upper_tri(2),
                "trunc-poly 3": lambda: trunc_poly(3)}
API_MODULES = {"regular": regular_bimodule, "tensor-square": tensor_square_bimodule}
API_D = 3


def _api_keys() -> list[str]:
    return [f"{s}/{a}/{m}/{v}/{'normalized' if norm else 'plain'}/D{API_D}"
            for s in API_SETS for a in API_ALGEBRAS for m in API_MODULES
            for v in (CHAIN, COCHAIN) for norm in (False, True)]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _run_cli(line: str, set_dir: str) -> dict:
    argv = [os.path.join(set_dir, t) if t in SET_FILES else t for t in shlex.split(line)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"exit": code, "stdout": _digest(out.getvalue()), "stderr": _digest(err.getvalue())}


def _build_output(spec) -> str:
    try:
        complex_ = build_complex(spec)
        check = cosimplicial_check(spec, API_D)
    except (ComplexError, ModuleError) as e:
        return f"{type(e).__name__}: {e}"
    diffs = {n: complex_.differential(n).to_triplets() for n in sorted(complex_.differentials)}
    return repr((complex_.dims, diffs, check))


def _api_output(key: str) -> str:
    s, a, m, variant, norm, _ = key.split("/")
    alg = API_ALGEBRAS[a]()
    try:
        spec = make_spec(API_SETS[s](), alg, API_MODULES[m](alg), variant, API_D,
                         normalized=norm == "normalized")
    except ComplexError as e:
        return f"{type(e).__name__}: {e}"
    return _build_output(spec)


def _searched_certificate() -> str:
    X, alg = interval(), upper_tri(2)
    res = search_nncmo(X, API_D)
    builds = [_build_output(ComplexSpec(X, alg, regular_bimodule(alg), variant, API_D,
                                        assignment=res.assignment, normalized=norm))
              for variant in (CHAIN, COCHAIN) for norm in (False, True)]
    return repr((res.verdict, res.nodes, sorted(res.assignment.orders.items()), builds))


def _write_set_files(directory: str) -> None:
    for name, text in SET_FILES.items():
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_pins() -> dict:
    with open(PINS, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def pins():
    return _load_pins()


@pytest.fixture(scope="module")
def set_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("sets")
    _write_set_files(str(directory))
    return str(directory)


def test_pins_cover_the_corpus(pins):
    assert sorted(pins["cli"]) == sorted(_cli_lines())
    assert sorted(pins["api"]) == sorted(_api_keys() + ["interval searched certificate"])


@pytest.mark.parametrize("line", _cli_lines())
def test_cli_output_matches_pin(line, pins, set_dir):
    assert _run_cli(line, set_dir) == pins["cli"][line], line


@pytest.mark.parametrize("key", _api_keys())
def test_api_output_matches_pin(key, pins):
    assert _digest(_api_output(key)) == pins["api"][key], key


def test_searched_certificate_matches_pin(pins):
    assert _digest(_searched_certificate()) == pins["api"]["interval searched certificate"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as directory:
        _write_set_files(directory)
        cli = {line: _run_cli(line, directory) for line in _cli_lines()}
    api = {key: _digest(_api_output(key)) for key in _api_keys()}
    api["interval searched certificate"] = _digest(_searched_certificate())
    with open(PINS, "w", encoding="utf-8") as fh:
        json.dump({"cli": cli, "api": api}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(cli)} CLI and {len(api)} API pins to {PINS}", file=sys.stderr)
