"""One workload in one fresh process: set up, run passes, check, report.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``; prints one JSON object
on its last stdout line.  Set-up (importing ``hochord`` and building and
validating the inputs) is timed from before the import.  A pass runs the
whole job list once; passes repeat until the next one would overrun
``--seconds`` (at least one always runs).  Checks run after each pass,
outside the job timers.

With ``--trace 1`` passes come in pairs, untraced then traced.  The traced
pass must give the same outputs as the untraced one; its layer metrics and
the tracing overhead (traced over untraced wall time) are reported.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time

import workloads
from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
clock = time.perf_counter


def run_pass(pkg, inputs, jobs, tracer=None):
    """Run every job once; returns (seconds in jobs, {job: seconds}, {job: output})."""
    sets = workloads.fresh_sets(pkg, inputs)
    if tracer is not None:
        tracer.install()
    times, outputs = {}, {}
    wall = 0.0
    try:
        for job in jobs:
            gc.collect()  # every job starts from a collected heap, whatever ran before it
            t = clock()
            try:
                if tracer is None:
                    outputs[job.name] = workloads.run_job(pkg, inputs, sets, job)
                else:
                    tracer.job = job.name
                    outputs[job.name] = tracer.span("job", workloads.run_job,
                                                    pkg, inputs, sets, job)
            except Exception as e:  # a job that raises is a failed job, not a crash
                outputs[job.name] = e
            times[job.name] = clock() - t
            wall += times[job.name]
    finally:
        if tracer is not None:
            tracer.restore()
    return wall, times, outputs


def measure(pkg, inputs, jobs, expected, seconds, spans_prefix=None):
    """Closed loop of passes within ``seconds``; with ``spans_prefix`` set,
    of untraced/traced pairs whose spans are written to that path prefix."""
    trace = spans_prefix is not None
    result = {"walls": [], "job_s": [], "attempted": 0, "failed": 0}
    traced_walls, layers = [], []
    costs = []
    began = clock()
    while not costs or clock() - began + statistics.median(costs) <= seconds:
        t0 = clock()
        wall, times, outputs = run_pass(pkg, inputs, jobs)
        problems = workloads.check_pass(jobs, outputs, expected)
        if trace:
            tracer = Tracer(pkg.modules())
            twall, _, touts = run_pass(pkg, inputs, jobs, tracer)
            tproblems = workloads.check_pass(jobs, touts, expected)
            for job in jobs:
                if (isinstance(touts[job.name], BaseException)
                        or isinstance(outputs[job.name], BaseException)
                        or workloads.fingerprint(job, touts[job.name])
                        != workloads.fingerprint(job, outputs[job.name])):
                    tproblems[job.name].append("traced output differs from untraced")
            workloads.report_problems(tproblems)
            result["attempted"] += len(jobs)
            result["failed"] += sum(1 for p in tproblems.values() if p)
            traced_walls.append(twall)
            layers.append(tracer.layer_metrics())
            tracer.dump(f"{spans_prefix}-pass{len(layers)}.json")
        workloads.report_problems(problems)
        result["attempted"] += len(jobs)
        result["failed"] += sum(1 for p in problems.values() if p)
        result["walls"].append(wall)
        result["job_s"].append(times)
        costs.append(clock() - t0)
    if trace:
        names = set().union(*layers)
        result["layers"] = {n: statistics.median_low(lm.get(n, 0) for lm in layers)
                            for n in names}
        result["layers"]["trace.overhead_ratio"] = (
            statistics.median(traced_walls) / statistics.median(result["walls"]) - 1)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    jobs, p = workloads.make_jobs(args.workload, args.seed)
    t0 = clock()
    pkg = workloads.Package()
    inputs, build_s = workloads.build_inputs(pkg, jobs)
    setup_s = clock() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        expected = json.load(fh)
    spans_prefix = None
    if args.trace:
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        spans_prefix = os.path.join(HERE, "out", f"spans-{args.workload}-seed{args.seed}")
    result = measure(pkg, inputs, jobs, expected, args.seconds, spans_prefix)
    if args.trace:
        result["layers"].update(build_s)
    result.update(
        setup_s=setup_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        seed=args.seed,
        p=p if any(job.spec for job in jobs) else None,
        order=[job.name for job in jobs],
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
