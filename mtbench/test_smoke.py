"""Smoke test of the benchmark at tiny sizes: ``python3 -m pytest mtbench``.

``run.py --smoke`` checks that every metric named in BENCHMARK.json is
emitted, that every output matches its recorded digest and the sympy
checks, that traced and untraced runs return identical outputs, and that
the count metrics repeat exactly across two traced passes.
"""

import subprocess
import sys
from pathlib import Path


def test_smoke_mode_passes():
    run = Path(__file__).with_name("run.py")
    proc = subprocess.run([sys.executable, str(run), "--smoke"],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "smoke: ok"
