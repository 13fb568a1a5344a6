"""Re-pin ``expected.json`` from the current code.

Usage, from the repository root:  python3 hochbench/pin.py

Run it only when a change is meant to alter an output; the diff of
``expected.json`` then shows which.  It pins, per job key: the exit code and
SHA-256 of each CLI job's JSON; the plain (unnormalized) Betti numbers next
to each ``--normalized`` job; dims and Betti numbers of each API job over Q.
It refuses to pin when a prime of ``PRIMES`` gives other Betti numbers than
Q on any F_p job, because the benchmark compares each F_p job to the Q pin.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import workloads  # noqa: E402


def main() -> int:
    pkg = workloads.Package()
    pins = {}
    for name, build in workloads.WORKLOADS.items():
        for p in workloads.PRIMES:
            jobs = build(p)
            inputs, _ = workloads.build_inputs(pkg, jobs)
            sets = workloads.fresh_sets(pkg, inputs)
            for job in jobs:
                if p != workloads.PRIMES[0] and not job.name.endswith("@Fp"):
                    continue
                out = workloads.run_job(pkg, inputs, sets, job)
                if job.argv:
                    rc, text = out
                    pin = {"rc": rc, "sha256": hashlib.sha256(text.encode()).hexdigest()}
                    if "--normalized" in job.argv:
                        plain = [a for a in job.argv if a != "--normalized"]
                        _, plain_text = workloads.run_job(
                            pkg, inputs, sets, workloads.Job("plain", "plain", argv=plain))
                        pin["plain_betti"] = list(json.loads(plain_text)["betti"].values())
                    pins[job.key] = pin
                    continue
                got = {"dims": list(out.dims), "betti": list(out.betti)}
                if job.name.endswith("@Q"):
                    pins.setdefault(job.key, got)
                elif pins.get(job.key, got) != got:
                    print(f"{job.name} over F({p}) gives {got}, not the Q pin "
                          f"{pins[job.key]}", file=sys.stderr)
                    return 1
        print(f"pinned {name}", file=sys.stderr)
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"jobs": dict(sorted(pins.items()))}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
