"""`benchmarks/bench_kernels.py` runs from a plain checkout, as its docstring says."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_kernels_runs_without_pythonpath():
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "benchmarks/bench_kernels.py", "--prec", "8", "--repeat", "1"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "precision N=8" in proc.stdout
    rows = (
        "solve gl  n=4 p=7 m=1",
        "solve so  n=4 p=7 m=1 (sp)",
        "make_context p=5 m=3",
        "solve gl  n=4 p=5 m=3",
        "solve so  n=4 p=5 m=3 (sp)",
    )
    for row in rows:
        assert row in proc.stdout
