"""End-to-end command tests: outputs, determinism, exit codes."""

import ctypes
import json
import os
import struct
import subprocess
import sys
import types
from pathlib import Path

import pytest

from conftest import BAD_CONFIG_IDS, BAD_CONFIGS, config_with

from kolmobox import cli
from kolmobox import fields as F
from kolmobox import model as M
from kolmobox import snapshot as snap

HOMOG = """
dim = 1
n = 8
t_end = 2.0
sample_every = 0.25
dt_max = 0.01
alpha2 = 1.4285714285714286
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_run_outputs_and_determinism(tmp_path):
    cfg = write_cfg(tmp_path, HOMOG)
    out1 = tmp_path / "o1"
    out2 = tmp_path / "o2"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
    assert cli.main(["run", "--config", str(cfg), "--out", str(out2)]) == 0
    s1 = (out1 / "series.ndjson").read_bytes()
    s2 = (out2 / "series.ndjson").read_bytes()
    assert s1 == s2 and len(s1) > 0
    summary = json.loads((out1 / "summary.json").read_text())
    assert summary["overall"] is True
    snaps = sorted(out1.glob("snap_*.kbox"))
    assert len(snaps) == 9  # t = 0, 0.25, ..., 2.0
    # snapshot write -> read -> write is byte identical
    from kolmobox import snapshot as snap

    st = snap.state_from_snapshot(snaps[0])
    snap.write_snapshot(tmp_path / "again.kbox", st)
    assert (tmp_path / "again.kbox").read_bytes() == snaps[0].read_bytes()


DECAY = """
dim = 1
n = 8
t_end = 12.0
sample_every = 0.25
dt_max = 0.005
alpha2 = 1.4285714285714286
"""


def test_decay_command_passes(tmp_path):
    cfg = write_cfg(tmp_path, DECAY)
    out = tmp_path / "out"
    assert cli.main(["decay", "--config", str(cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    names = {c["name"] for c in summary["checks"]}
    assert names == {"k_exponent", "omega_exponent", "L_min_exponent"}


def test_decay_command_passes_at_small_k(tmp_path):
    # the same homogeneous decay in units where k is 1e-16: no absolute floor may hold k up
    cfg = write_cfg(tmp_path, DECAY + "ic_k0 = 1e-16\n")
    assert cli.main(["decay", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0


def test_balance_command(tmp_path):
    cfg = write_cfg(
        tmp_path,
        """
dim = 2
n = 8
side = 6.283185307179586
t_end = 0.4
sample_every = 0.05
ic = perturbed
perturb_modes = omega:0:1:0.1, k:1:1:0.1, u1:1:1:0.3
guard = false
""",
    )
    out = tmp_path / "out"
    assert cli.main(["balance", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "balance.json").read_text())
    assert report["refined"]["omega_residual"] <= report["base"]["omega_residual"]


def test_balance_command_zero_velocity_gap(tmp_path):
    cfg = write_cfg(
        tmp_path,
        """
dim = 2
n = 8
t_end = 0.2
sample_every = 0.05
ic = perturbed
perturb_modes = omega:0:1:0.1, k:1:1:0.1
guard = false
""",
    )
    out = tmp_path / "out"
    assert cli.main(["balance", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "balance.json").read_text())
    assert report["base"]["energy_gap"] == 0.0
    assert report["refined"]["energy_gap"] == 0.0


def test_bounds_command_exit_matches_summary(tmp_path):
    # deliberately under-resolved so violations are visible in the report
    cfg = write_cfg(
        tmp_path,
        """
dim = 2
n = 8
side = 6.283185307179586
t_end = 0.2
sample_every = 0.02
regularized = true
eps = 1e-3
r = 3.2
cfl_safety = 0.9
guard = false
ic = perturbed
ic_k0 = 0.02
perturb_modes = omega:0:1:0.4, u1:1:1:3.0, u2:0:2:3.0, k:0:1:0.01
""",
    )
    out = tmp_path / "out"
    code = cli.main(["bounds", "--config", str(cfg), "--out", str(out)])
    summary = json.loads((out / "summary.json").read_text())
    assert code in (0, 1)
    assert {c["name"] for c in summary["checks"]} >= {"omega_violation", "k_violation"}
    assert (code == 0) == summary["overall"]


def test_scaling_command(tmp_path):
    cfg = write_cfg(
        tmp_path,
        """
dim = 2
n = 8
t_end = 1.0
sample_every = 0.05
dt_max = 0.005
""",
    )
    out = tmp_path / "out"
    assert cli.main(["scaling", "--config", str(cfg), "--rho", "2.0", "--gamma", "1.5",
                     "--out", str(out)]) == 0
    lines = (out / "scaling_report.ndjson").read_text().splitlines()
    assert len(lines) == 3
    assert all(json.loads(x)["pass"] for x in lines)

    # identity scaling: transformed and original residuals coincide exactly
    out2 = tmp_path / "out_id"
    assert cli.main(["scaling", "--config", str(cfg), "--rho", "1.0", "--gamma", "1.0",
                     "--out", str(out2)]) == 0
    for line in (out2 / "scaling_report.ndjson").read_text().splitlines():
        obj = json.loads(line)
        assert obj["transformed_residual"] == obj["original_residual"]


def test_config_error_exit_code(tmp_path):
    cfg = write_cfg(tmp_path, "dim = 1\nbogus_key = 2\nt_end = 1\n")
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_missing_config_file(tmp_path):
    assert cli.main(["run", "--config", str(tmp_path / "nope.cfg")]) == 2


def run_cli(tmp_path, capsys, text, command="run"):
    """(exit code, stderr lines) of one command on a config text."""
    cfg = write_cfg(tmp_path, text, name=f"{command}.cfg")
    code = cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
    return code, capsys.readouterr().err.splitlines()


@pytest.mark.parametrize("wavenumber", [4, 5, 8])
def test_unresolvable_forcing_wavenumber_exits_2(tmp_path, capsys, wavenumber):
    code, err = run_cli(
        tmp_path, capsys, HOMOG + f"forcing = single_mode\nforcing_wavenumber = {wavenumber}\n"
    )
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error: ValidationError: ")


@pytest.mark.parametrize("line", ["k_floor = 1e-14", "guard_slack = 0.05", "picard_damping = 0.7"])
def test_removed_step_keys_are_unknown(tmp_path, capsys, line):
    # the k guard is relative to its envelope, and the slack and damping are constants
    code, err = run_cli(tmp_path, capsys, config_with(line))
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error: ParseError: line 4: unknown key ")


@pytest.mark.parametrize("key, lines", BAD_CONFIGS, ids=BAD_CONFIG_IDS)
def test_bad_value_exits_2_naming_its_key(tmp_path, capsys, key, lines):
    code, err = run_cli(tmp_path, capsys, config_with(lines))
    assert code == 2
    assert len(err) == 1 and err[0].startswith(f"error: ValidationError: {key}: ")


def test_runs_without_mallopt(tmp_path, monkeypatch):
    # a C library without mallopt: the allocator policy is skipped, the run goes on
    monkeypatch.setattr(ctypes, "CDLL", lambda name: types.SimpleNamespace())
    cfg = write_cfg(tmp_path, "dim = 1\nn = 4\nt_end = 0.1\ndt_max = 0.01\n")
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0


def test_solver_error_exits_2_and_names_the_error(tmp_path, capsys):
    # stiff homogeneous decay without the guard: omega overshoots through zero
    code, err = run_cli(tmp_path, capsys, "dim = 1\nn = 4\nt_end = 1\nic_omega0 = 1e4\nguard = false\n")
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error: DegenerateOmega: min(omega) = ")


def test_overflow_exits_2_on_one_stderr_line(tmp_path):
    # a real process: pytest's warning capture would hide numpy's warnings from cli.main
    cfg = write_cfg(tmp_path, config_with("ic = perturbed\nperturb_modes = u1:0:1:1e200"))
    src = str(Path(cli.__file__).resolve().parents[1])
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run(
        [sys.executable, "-m", "kolmobox.cli", "run", "--config", str(cfg),
         "--out", str(tmp_path / "o")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    err = proc.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("error: StepRejected: "), err


def snapshot_file(tmp_path, dim, n):
    """A homogeneous snapshot on Grid(dim, n, 1.0)."""
    g = F.Grid(dim, n, 1.0)
    ic = M.HomogeneousIC(u_const=(0.0,) * dim, omega0=1.0, k0=1.0)
    path = tmp_path / "ic.kbox"
    snap.write_snapshot(path, M.homogeneous_state(g, ic, M.ModelParams()))
    return path


def test_snapshot_grid_must_match_config_n(tmp_path, capsys):
    path = snapshot_file(tmp_path, 1, 8)
    text = f"dim = 1\nn = 16\nt_end = 0.1\nic = snapshot\nsnapshot_path = {path}\n"
    code, err = run_cli(tmp_path, capsys, text)
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error: ValidationError: snapshot_path: ")
    code, _ = run_cli(tmp_path, capsys, text.replace("n = 16", "n = 8"))
    assert code == 0


def test_snapshot_grid_must_match_config_dim(tmp_path, capsys):
    path = snapshot_file(tmp_path, 2, 8)
    text = (f"dim = 3\nn = 8\nt_end = 0.1\nforcing = constant\nforcing_vector = 1, 0, 0\n"
            f"ic = snapshot\nsnapshot_path = {path}\n")
    code, err = run_cli(tmp_path, capsys, text)
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error: ValidationError: snapshot_path: ")


def test_snapshot_ic_cannot_be_refined(tmp_path, capsys):
    # bounds refines to n = 16, which an n = 8 snapshot cannot provide
    path = snapshot_file(tmp_path, 1, 8)
    text = f"dim = 1\nn = 8\nt_end = 0.1\nic = snapshot\nsnapshot_path = {path}\n"
    code, err = run_cli(tmp_path, capsys, text, command="bounds")
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error: ValidationError: snapshot_path: ")
    assert not (tmp_path / "o" / "series.ndjson").exists()


def test_malformed_snapshot_exits_2(tmp_path, capsys):
    path = snapshot_file(tmp_path, 1, 4)
    data = path.read_bytes()
    path.write_bytes(data[:12] + struct.pack("<I", 3) + data[16:])  # odd n
    text = f"dim = 1\nn = 4\nt_end = 0.1\nic = snapshot\nsnapshot_path = {path}\n"
    code, err = run_cli(tmp_path, capsys, text)
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error: SnapshotError: ")
    path.write_bytes(data[:6])
    code, err = run_cli(tmp_path, capsys, text)
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error: SnapshotError: ")
