"""hochord benchmark: one command, per-workload metrics with units.

Usage, from the repository root:

    python3 hochbench/run.py --workload decide|betti|normalized|all \
        --seed N --seconds S --trace 0|1

Each workload runs in a fresh child process (``worker.py``) on one thread;
``all`` runs the three one after another, never in parallel.  With
``--trace 0`` the last stdout line carries the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` its per-layer metrics.  Earlier lines
record the seed, the prime and the job order, and every metric by name with
its unit, ``failed_ratio`` included.

Times are best cases, because the speed of a shared machine drifts by up
to 2x within seconds while the work stays the same; the fastest of several
samples is the steadiest estimate of the work:

* ``wall_s`` is the job list's time with every job at its fastest pass of
  the run (the sum over jobs of each job's minimum), ``max_job_s`` the
  slowest job's fastest time;
* ``setup_s`` is the fastest of ``SETUP_SAMPLES`` fresh processes (the
  measuring child is one of them), each timing the import of ``hochord``
  and the building and validation of the workload's inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 9
WORKLOADS = ("decide", "betti", "normalized")


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def child(args: list[str]) -> dict:
    """Run ``worker.py`` with ``args``; returns its last stdout line as JSON."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED="0")
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), *args],
                          cwd=ROOT, env=env, stdout=subprocess.PIPE, timeout=900)
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    base = ["--workload", workload, "--seed", str(seed)]
    res = child([*base, "--seconds", str(seconds), "--trace", str(trace)])
    print(f"# workload={workload} seed={seed} p={res['p']} passes={len(res['walls'])} "
          f"median_pass_s={statistics.median(res['walls'])} order={','.join(res['order'])}")
    declared = spec()["per_layer" if trace else "end_to_end"]
    if trace:
        values = res["layers"]
    else:
        setups = [res["setup_s"]] + [child([*base, "--seconds", "0", "--setup-only"])["setup_s"]
                                     for _ in range(SETUP_SAMPLES - 1)]
        best = {job: min(times[job] for times in res["job_s"]) for job in res["order"]}
        values = {
            "setup_s": min(setups),
            "wall_s": sum(best.values()),
            "max_job_s": max(best.values()),
            "peak_rss_mb": res["peak_rss_mb"],
        }
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in declared}
    for name, m in metrics.items():
        print(f"# {workload} {name} {m['value']} {m['unit']}")
    print(f"# {workload} failed_ratio {res['failed'] / res['attempted']} ratio "
          f"({res['failed']} of {res['attempted']} jobs)")
    return {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "smoke", "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "hochord", "__init__.py")):
        print("error: src/hochord not found; run from a hochord checkout", file=sys.stderr)
        return 2
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        print(json.dumps(run_workload(workload, args.seed, args.seconds, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
