"""The names the benchmark's tracer wraps must exist in the package."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_tracer_installs():
    # perfbench/child.py wraps kolmobox functions by name (timestepper.cfl_dt,
    # fields.max_face_gradient, fields.advect_vec, ...); a missing one makes
    # every traced benchmark run fail
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    done = subprocess.run(
        [sys.executable, "-c", "from child import Tracer, install; install(Tracer())"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
