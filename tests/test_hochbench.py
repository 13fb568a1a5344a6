"""The benchmark harness still runs against the current package.

``hochbench/tracer.py`` wraps names that ``cli`` and ``hochschild`` import
and ``SimplicialSet.face``; a change under ``src/`` that breaks one of them
fails here rather than only in a benchmark run.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_smoke_check_passes():
    proc = subprocess.run([sys.executable, os.path.join("hochbench", "smoke.py")],
                          cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=300)
    lines = proc.stdout.decode().splitlines()
    assert proc.returncode == 0, proc.stderr.decode()
    assert lines and lines[-1] == "smoke: ok"
