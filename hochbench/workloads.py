"""Workload job lists, their inputs, execution and output checks.

Every workload is a fixed list of jobs run in a closed loop, one after the
other on one thread.  The seed shuffles the job order and picks the prime of
the F_p jobs from ``PRIMES``; each prime there gives the same Betti numbers
as Q on every F_p job (``pin.py`` re-checks that when it re-pins).

Why these workloads (the layer each one exercises or bypasses):

* ``decide`` -- the CLI's ``nncmo --oracle`` and ``actions`` on the six
  bundled sets.  Nearly all time is ``simplicial`` face evaluation and
  ``ordering`` action typing, none is ``exact`` or ``functors``: it exercises
  face tables and the resolve pass and bypasses any elimination change.
  Each command loads its set fresh, like a CLI user.
* ``betti`` -- the API path make_spec -> build_complex -> Complex.betti over
  Q and F_p.  ``exact.rank`` dominates; the Q/F_p twins separate the two rank
  loops, and sphere2 is 2-dimensional so it bypasses action typing.  One set
  object is shared by the jobs of a pass, as in one library session.
* ``normalized`` -- the CLI's ``--normalized`` homology and cohomology.
  Dense rref through nullspace/solve dominates, rank is negligible; it also
  covers degeneracy matrices, the noncommutative ordered fiber products,
  ``verify_square_zero`` and JSON output.
* ``smoke`` -- a tiny mix of all three, for the harness smoke check only.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from importlib import import_module

PRIMES = (101, 103, 107, 109, 113, 127, 131, 137)

BUNDLED_SETS = ("point", "interval", "circle", "wedge2", "wedge3", "sphere2")

# (set, algebra, module, variant, max degree); each runs over Q and over F_p
BETTI_SPECS = (
    ("sphere2", "trunc-poly 2", "symmetric", "chain", 5),
    ("sphere2", "trunc-poly 2", "symmetric", "cochain", 5),
    ("sphere2", "trunc-poly 3", "symmetric", "chain", 4),
    ("interval", "upper-tri 2", "regular", "chain", 4),
)

# (command, set, algebra, max degree); module is the CLI default (regular)
NORMALIZED_SPECS = (
    ("homology", "sphere2", "trunc-poly 2", 4),
    ("cohomology", "wedge2", "trunc-poly 2", 4),
    ("homology", "circle", "upper-tri 2", 4),
    ("cohomology", "circle", "upper-tri 2", 4),
)


@dataclass(frozen=True)
class Job:
    name: str                 # unique within a workload
    key: str                  # entry of expected.json holding the pinned output
    argv: tuple = ()          # CLI job: arguments of ``hochord``
    spec: tuple = ()          # API job: (set, algebra, module, variant, D, field)


def _cli_job(argv) -> Job:
    name = f"{argv[0]}:{argv[1]}"
    if "--algebra" in argv:
        name += "/" + argv[argv.index("--algebra") + 1]
    if "--max-degree" in argv:
        name += "/D" + argv[argv.index("--max-degree") + 1]
    return Job(name, name, argv=tuple(argv))


def _api_jobs(specs, p) -> list[Job]:
    jobs = []
    for s in specs:
        key = "/".join(map(str, s[:4])) + f"/D{s[4]}"
        for field in ("Q", f"F({p})"):
            jobs.append(Job(f"{key}@{'Q' if field == 'Q' else 'Fp'}", key, spec=(*s, field)))
    return jobs


def _decide(p, sets=BUNDLED_SETS):
    return [_cli_job((cmd, s, "--cutoff", "4", *(("--oracle",) if cmd == "nncmo" else ()),
                      "--json"))
            for s in sets for cmd in ("nncmo", "actions")]


def _normalized(p, specs=NORMALIZED_SPECS):
    return [_cli_job((cmd, s, "--algebra", alg, "--max-degree", str(d), "--normalized",
                      "--json"))
            for cmd, s, alg, d in specs]


def _smoke(p):
    return (_decide(p, ("point", "sphere2"))
            + _api_jobs((("sphere2", "trunc-poly 2", "symmetric", "chain", 2),), p)
            + _normalized(p, (("homology", "sphere2", "trunc-poly 2", 2),)))


WORKLOADS = {
    "decide": _decide,
    "betti": lambda p: _api_jobs(BETTI_SPECS, p),
    "normalized": _normalized,
    "smoke": _smoke,
}


def make_jobs(workload: str, seed: int) -> tuple[list[Job], int]:
    """The seed's job order and prime; the same seed gives the same inputs."""
    rng = random.Random(seed)
    p = rng.choice(PRIMES)
    jobs = WORKLOADS[workload](p)
    rng.shuffle(jobs)
    return jobs, p


# ---------------------------------------------------------------------------
# set-up: import the package and build and validate every input

class Package:
    """The hochord modules, looked up by attribute at call time so that the
    tracer's wrappers are seen."""

    def __init__(self):
        for name in ("cli", "exact", "hochschild", "ordering", "simplicial"):
            setattr(self, name, import_module(f"hochord.{name}"))

    def modules(self) -> dict:
        return dict(vars(self))


def _cli_inputs(argv):
    if "--algebra" not in argv:
        return argv[1], None, None, "Q"
    module = argv[argv.index("--module") + 1] if "--module" in argv else "regular"
    return argv[1], argv[argv.index("--algebra") + 1], module, "Q"


def build_inputs(pkg: Package, jobs: list[Job]) -> tuple[dict, dict]:
    """Validated sets, algebras and modules for the jobs, plus the seconds
    spent building algebras and modules."""
    cli, clock = pkg.cli, time.perf_counter
    sets, algebras, modules = {}, {}, {}
    spent = {"algebras.build.s": 0.0, "modules.build.s": 0.0}
    for job in jobs:
        if job.argv:
            set_name, alg, mod, field = _cli_inputs(job.argv)
        else:
            set_name, alg, mod, _, _, field = job.spec
        if set_name not in sets:
            X = cli.load_simplicial_set(set_name)
            problems = X.validate()
            if problems:
                raise ValueError(f"{set_name}: " + "; ".join(problems))
            sets[set_name] = X
        if alg is None:
            continue
        if (alg, field) not in algebras:
            t = clock()
            algebras[alg, field] = cli.resolve_algebra(alg, pkg.exact.Field.parse(field))
            spent["algebras.build.s"] += clock() - t
        if (alg, mod, field) not in modules:
            t = clock()
            modules[alg, mod, field] = cli.resolve_module(mod, algebras[alg, field])
            spent["modules.build.s"] += clock() - t
    return {"sets": sets, "algebras": algebras, "modules": modules}, spent


def fresh_sets(pkg: Package, inputs: dict) -> dict:
    """New set objects for one pass, so no per-set cache outlives its pass."""
    SimplicialSet = pkg.simplicial.SimplicialSet
    return {name: SimplicialSet(X.name, X.simplices[X.basepoint].name, list(X.simplices))
            for name, X in inputs["sets"].items()}


# ---------------------------------------------------------------------------
# running one job

def run_job(pkg: Package, inputs: dict, sets: dict, job: Job):
    """Run one job; returns its output (exit code and stdout, or a Complex)."""
    if job.argv:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = pkg.cli.main(list(job.argv))
        return rc, out.getvalue()
    set_name, alg, mod, variant, D, field = job.spec
    H = pkg.hochschild
    spec = H.make_spec(sets[set_name], inputs["algebras"][alg, field],
                       inputs["modules"][alg, mod, field], variant, D)
    complex_ = H.build_complex(spec)
    complex_.betti
    return complex_


def fingerprint(job: Job, output) -> str:
    """What must not change between an untraced and a traced run."""
    if job.argv:
        rc, text = output
        return f"{rc}:{hashlib.sha256(text.encode()).hexdigest()}"
    return f"{list(output.dims)}:{list(output.betti)}"


# ---------------------------------------------------------------------------
# output checks

def check_job(job: Job, output, expected: dict) -> list[str]:
    """Problems with one job's output against its pinned values."""
    pin = expected["jobs"].get(job.key)
    if pin is None:
        return [f"no pinned output for {job.key!r}"]
    if not job.argv:
        problems = []
        if list(output.dims) != pin["dims"]:
            problems.append(f"dims {list(output.dims)} != pinned {pin['dims']}")
        if list(output.betti) != pin["betti"]:
            problems.append(f"betti {list(output.betti)} != pinned {pin['betti']}")
        if not output.verify_square_zero():
            problems.append("d^2 != 0")
        return problems
    rc, text = output
    problems = []
    if rc != pin["rc"]:
        problems.append(f"exit code {rc} != pinned {pin['rc']}")
    digest = hashlib.sha256(text.encode()).hexdigest()
    if digest != pin["sha256"]:
        problems.append(f"JSON sha256 {digest[:12]} != pinned {pin['sha256'][:12]}")
    try:
        report = json.loads(text)
    except ValueError:
        return problems + ["stdout is not JSON"]
    cmd = job.argv[0]
    if cmd == "nncmo":
        if report.get("agree") is not True:
            problems.append("predicted and searched verdicts disagree")
        if rc == 0 and report.get("full_factorization_check") != "ok":
            problems.append("certificate fails check_nncmo_full")
        if rc == 2 and report.get("witness_verified") is not True:
            problems.append("witness fails verify_equal_maps / reverify_unsat")
    elif cmd in ("homology", "cohomology"):
        if report.get("square_zero") is not True:
            problems.append("d^2 != 0")
        betti = list(report.get("betti", {}).values())
        if betti[:-1] != pin["plain_betti"][:-1]:
            problems.append(f"normalized betti {betti} != plain {pin['plain_betti']} "
                            "below the top degree")
    return problems


def check_pass(jobs: list[Job], outputs: dict, expected: dict) -> dict[str, list[str]]:
    """Problems per job name for one pass, including the F_p >= Q check
    between twin jobs."""
    problems = {}
    for job in jobs:
        out = outputs[job.name]
        if isinstance(out, BaseException):
            problems[job.name] = [f"raised {type(out).__name__}: {out}"]
            continue
        problems[job.name] = check_job(job, out, expected)
        if job.spec and job.name.endswith("@Fp"):
            q = outputs.get(job.name[:-3] + "@Q")
            if q is not None and not isinstance(q, BaseException) and any(
                    bp < bq for bp, bq in zip(out.betti, q.betti)):
                problems[job.name].append(
                    f"F_p betti {list(out.betti)} below Q betti {list(q.betti)}")
    return problems


def report_problems(problems: dict[str, list[str]]):
    for name, probs in problems.items():
        for msg in probs:
            print(f"check failed: {name}: {msg}", file=sys.stderr)
