"""Keeps the benchmark harness alive: its tiny-size self-check runs every
workload once untraced and twice traced and checks every op it times
(DeePC steps optimal and within 1e-5 of their MPC twins, sweep counts equal
to their analytic bounds, theorem-1 verdicts holding)."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_smoke_passes():
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "smoke.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "smoke ok"
