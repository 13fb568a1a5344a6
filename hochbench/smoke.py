"""Harness smoke check on the tiny ``smoke`` job list.

Usage, from the repository root:  python3 hochbench/smoke.py

It checks that ``run.py`` prints every metric of ``BENCHMARK.json`` by name
with its declared unit, in both trace modes, with no failed job; and that a
deliberately wrong pinned value (one Betti number, one CLI digest) makes
exactly those jobs fail, so ``failed_ratio`` rises above 0.  Exits 1 and
lists the problems when a check fails.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def check_printed(trace: int) -> list[str]:
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", "smoke",
                           "--seed", "1", "--seconds", "1", "--trace", str(trace)],
                          cwd=ROOT, stdout=subprocess.PIPE, timeout=300)
    lines = proc.stdout.decode().splitlines()
    if proc.returncode != 0 or not lines:
        return [f"run.py --trace {trace} exited with {proc.returncode}"]
    problems = []
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"trace {trace}: jobs failed on correct pins")
    declared = run.spec()["per_layer" if trace else "end_to_end"]
    if set(result["metrics"]) != {m["name"] for m in declared}:
        problems.append(f"trace {trace}: printed metrics differ from BENCHMARK.json")
    for m in declared:
        got = result["metrics"].get(m["name"], {})
        if got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
            problems.append(f"trace {trace}: {m['name']} printed as {got}")
    if not any(" failed_ratio " in line and " ratio " in line for line in lines):
        problems.append(f"trace {trace}: failed_ratio not printed with its unit")
    return problems


def check_wrong_pin() -> list[str]:
    jobs, _ = workloads.make_jobs("smoke", 1)
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        wrong = json.load(fh)
    api = next(job for job in jobs if job.spec)
    cli = next(job for job in jobs if job.argv)
    wrong["jobs"][api.key]["betti"][0] += 1
    wrong["jobs"][cli.key]["sha256"] = "0" * 64
    broken = sum(1 for job in jobs if job.key in (api.key, cli.key))
    pkg = workloads.Package()
    inputs, _ = workloads.build_inputs(pkg, jobs)
    res = worker.measure(pkg, inputs, jobs, wrong, seconds=0)
    if res["failed"] != broken:
        return [f"{res['failed']} of {res['attempted']} jobs failed on wrong pins, "
                f"expected {broken}"]
    return []


def main() -> int:
    problems = check_printed(0) + check_printed(1)
    print("smoke: the wrong-pin check reports its failing jobs below", file=sys.stderr)
    problems += check_wrong_pin()
    for p in problems:
        print(f"smoke: {p}", file=sys.stderr)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
