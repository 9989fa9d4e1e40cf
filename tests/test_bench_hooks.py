"""The names the benchmark's tracer wraps must exist in the package, with the signatures
its traced runs call them by."""

import collections
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))

TINY_2D_REG = f"""\
dim = 2
n = 8
side = {2.0 * math.pi!r}
regularized = true
eps = 1e-2
r = 3.2
ic = perturbed
perturb_modes = u1:1:1:0.5, omega:0:1:0.1
t_end = 0.01
sample_every = 0.005
"""


def test_benchmark_tracer_installs():
    # perfbench/child.py wraps kolmobox functions by name (timestepper.cfl_dt,
    # fields.max_face_gradient, fields.advect_vec, ...); a missing one makes
    # every traced benchmark run fail
    done = subprocess.run(
        [sys.executable, "-c", "from child import Tracer, install; install(Tracer())"],
        cwd=ROOT, env=ENV, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("scheme", ["explicit_rk2", "rothe_picard"])
def test_traced_run_annotates_every_step(tmp_path, scheme):
    # the tracer reads state.grid.npoints, dt and result.guard_hits from each
    # step call, so a renamed attribute fails every traced benchmark run
    cfg = tmp_path / "run.cfg"
    cfg.write_text(TINY_2D_REG + f"scheme = {scheme}\n")
    result = tmp_path / "result.json"
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), "cli", str(result), "1",
         "run", "--config", str(cfg), "--out", str(tmp_path / "out")],
        cwd=ROOT, env=ENV, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    spans = json.loads(result.read_text())["spans"]
    infos = [span[7] for span in spans if span[1] == "timestepper.step"]
    assert infos
    for npoints, dt, guard_hits in infos:
        assert npoints == 64 and 0.0 < dt <= 0.005 and guard_hits >= 0
    # both r-Laplacians are wrapped by name: one vector and two scalar calls per rhs
    calls = {sid: collections.Counter() for sid, name, *_ in spans if name == "model.rhs"}
    for _, name, _, _, parent, *_ in spans:
        if parent in calls:
            calls[parent][name] += 1
    assert calls
    for counts in calls.values():
        assert (counts["fields.r_laplacian_vec"], counts["fields.r_laplacian"]) == (1, 2)


# the benchmark's decay_1d workload, shortened: the decay window t >= 5 holds three samples
TINY_DECAY_1D = """\
dim = 1
n = 4
alpha2 = 1.4285714285714286
dt_max = 0.01
t_end = 6.0
sample_every = 0.5
"""


@pytest.mark.parametrize("command", ["decay", "balance"])
def test_traced_decay_and_balance_run(tmp_path, command):
    # every benchmark run starts with a traced warm-up of its workload, decay_1d included;
    # a traced command that fails makes every workload fail
    cfg = tmp_path / "decay.cfg"
    cfg.write_text(TINY_DECAY_1D)
    result = tmp_path / "result.json"
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), "cli", str(result), "1",
         command, "--config", str(cfg), "--out", str(tmp_path / "out")],
        cwd=ROOT, env=ENV, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    names = [span[1] for span in json.loads(result.read_text())["spans"]]
    assert "timestepper.step" in names and "diagnostics.record" in names
    if command == "decay":
        assert names.count("diagnostics.decay_fit") == 3
