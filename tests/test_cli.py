"""End-to-end command tests: outputs, determinism, exit codes."""

import collections
import ctypes
import gc
import hashlib
import io
import json
import os
import re
import struct
import subprocess
import sys
import tracemalloc
import types
import weakref
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import BAD_CONFIG_IDS, BAD_CONFIGS, REMOVED_KEYS, config_with, run_problem

from kolmobox import cli
from kolmobox import diagnostics as D
from kolmobox import fields as F
from kolmobox import model as M
from kolmobox import scaling as S
from kolmobox import snapshot as snap
from kolmobox import timestepper as T
from kolmobox.config import build_problem, load_config
from kolmobox.errors import StepRejected

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


@pytest.mark.parametrize("t_end,sample_every,stamps", [
    ("1.0000001", "0.5", ["0.0000000", "0.5000000", "1.0000000", "1.0000001"]),
    ("2e-6", "2.5e-7", ["0.0000000", "0.0000002", "0.0000005", "0.0000008", "0.0000010",
                        "0.0000012", "0.0000015", "0.0000017", "0.0000020"]),
], ids=["close_final_sample", "sub_microsecond_samples"])
def test_every_sample_gets_its_own_snapshot(tmp_path, t_end, sample_every, stamps):
    # at 6 decimals two of these sample times print alike; every name takes a 7th
    text = f"dim = 1\nn = 4\nt_end = {t_end}\nsample_every = {sample_every}\n"
    out = tmp_path / "o"
    assert cli.main(["run", "--config", str(write_cfg(tmp_path, text)), "--out", str(out)]) == 0
    times = [json.loads(line)["t"] for line in (out / "series.ndjson").read_text().splitlines()]
    snaps = sorted(out.glob("snap_*.kbox"))
    assert [p.name for p in snaps] == [f"snap_{s}.kbox" for s in stamps]
    assert len(times) == len(snaps)
    assert len({p.read_bytes() for p in snaps}) == len(snaps)  # no state written twice


# decay's fit window (5, t_end) holds the samples at 5, 5.25 and 5.5
HOMOG_TO_5_5 = HOMOG.replace("t_end = 2.0", "t_end = 5.5")


@pytest.mark.parametrize("command, text", [
    ("run", HOMOG), ("decay", HOMOG_TO_5_5), ("balance", HOMOG),
], ids=["run", "decay", "balance"])
def test_failed_run_leaves_the_samples_taken_before_it(tmp_path, capsys, monkeypatch, command,
                                                       text):
    # decay and balance write the same series as run: that of the config's own run
    cfg = write_cfg(tmp_path, text)
    full, cut = tmp_path / "full", tmp_path / "cut"
    assert cli.main(["run", "--config", str(cfg), "--out", str(full)]) == 0
    capsys.readouterr()
    advance, calls = T._advance, []

    def fail_on_call_150(*args):
        calls.append(None)
        if len(calls) == 150:
            raise StepRejected("synthetic failure")
        return advance(*args)

    # HOMOG reaches its samples at t = 0.25 and 0.5 in 77 and 70 steps; step 150 is before 0.75
    monkeypatch.setattr(T, "_advance", fail_on_call_150)
    assert cli.main([command, "--config", str(cfg), "--out", str(cut)]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: StepRejected: synthetic failure"]
    lines = (cut / "series.ndjson").read_bytes().splitlines(keepends=True)
    assert lines == (full / "series.ndjson").read_bytes().splitlines(keepends=True)[:3]
    snaps = sorted(cut.glob("snap_*.kbox"))
    taken = sorted(full.glob("snap_*.kbox"))[:3] if command == "run" else []
    assert [p.name for p in snaps] == [p.name for p in taken]
    assert all(p.read_bytes() == (full / p.name).read_bytes() for p in snaps)
    assert not (cut / "summary.json").exists()
    assert not (cut / "balance.json").exists()


@pytest.mark.parametrize("t_end, held", [("2.0", 0), ("5.25", 2)])
def test_decay_with_a_short_window_exits_2_before_its_first_step(tmp_path, capsys, monkeypatch,
                                                                 t_end, held):
    advance, calls = T._advance, []
    monkeypatch.setattr(T, "_advance", lambda *args: calls.append(None) or advance(*args))
    code, err = run_cli(tmp_path, capsys, HOMOG.replace("t_end = 2.0", f"t_end = {t_end}"),
                        command="decay")
    assert code == 2
    assert err == [f"error: InsufficientSamples: a mean_k fit needs 3 samples in its window, "
                   f"got {held}"]
    assert calls == []
    assert not (tmp_path / "o" / "series.ndjson").exists()


PROBE_PARAMS = M.ModelParams(alpha2=1.4285714285714286)
PROBE_ENV = M.ComparisonEnvelope(omega_star=1.0, omega_sup=1.0, k_star=1.0)


def probed_samples(count, keep, t0=0.0, make=lambda state: state):
    """`make(state)` of `count` fresh homogeneous states, t0 + i/4 apart.

    Each time the next one is drawn, and once more when the last has been,
    it asserts that at most `keep` of the states made before are still alive.
    """
    g = F.Grid(1, 8, 1.0)
    ic = M.HomogeneousIC(u_const=(0.0,), omega0=1.0, k0=1.0)
    refs = []
    for i in range(count + 1):
        alive = sum(ref() is not None for ref in refs)
        assert alive <= keep, f"{alive} earlier states alive when sample {i} is drawn"
        if i == count:
            return
        state = M.homogeneous_state(g, ic, PROBE_PARAMS, t=t0 + 0.25 * i)
        refs.append(weakref.ref(state))
        yield make(state)
        del state


def with_record(state):
    return state, D.record(state, None, PROBE_PARAMS, PROBE_ENV)


def as_taken(state):
    """What `timestepper.samples` yields: (state, record, rejected)."""
    return (*with_record(state), 0)


def test_stream_holds_no_sample_while_it_draws_the_next(monkeypatch):
    monkeypatch.setattr(T, "samples", lambda *args: probed_samples(6, 0, make=as_taken))
    p = types.SimpleNamespace(state=None, env=None, params=None, step=None, forcing=None,
                              t_end=None, sample_every=None)
    fh = io.StringIO()
    collections.deque(cli._stream(p, fh), maxlen=0)  # draws every pair and keeps none
    assert len(fh.getvalue().splitlines()) == 6


def test_balance_report_holds_no_sample_while_it_draws_the_next():
    samples = probed_samples(6, 0, make=with_record)
    assert D.balance_report(samples, (0.25, 1.0), PROBE_PARAMS, PROBE_ENV).window == (0.25, 1.0)


def test_decay_holds_no_sample_while_it_draws_the_next(tmp_path, monkeypatch):
    # the fit window (5, 6) of this schedule holds 5 samples, which the probe stands in for
    monkeypatch.setattr(T, "samples", lambda *args: probed_samples(5, 0, t0=5.0, make=as_taken))
    cfg = write_cfg(tmp_path, HOMOG.replace("t_end = 2.0", "t_end = 6.0"))
    assert cli.main(["decay", "--config", str(cfg), "--out", str(tmp_path / "o")]) in (0, 1)
    assert len((tmp_path / "o" / "series.ndjson").read_text().splitlines()) == 5


@pytest.mark.parametrize("fold", [
    lambda states: S.pde_residual(states, None, PROBE_PARAMS, PROBE_ENV),
], ids=["pde_residual"])
def test_scaling_folds_hold_two_states_while_they_draw_the_next(fold):
    fold(probed_samples(6, 2))  # a window of three needs the two states before the next


def test_scaling_holds_no_sample_of_either_run_while_it_draws_the_next(tmp_path, monkeypatch):
    # each call of `samples`, the run's and the twin's, draws from its own probe; at the
    # identity scaling the twin's sample times are the run's
    monkeypatch.setattr(T, "samples", lambda *args: probed_samples(6, 0, make=as_taken))
    cfg = write_cfg(tmp_path, HOMOG)
    argv = ["scaling", "--config", str(cfg), "--rho", "1", "--gamma", "1", "--out",
            str(tmp_path / "o")]
    assert cli.main(argv) == 0


REG_2D = """
dim = 2
n = 16
side = 6.283185307179586
regularized = true
eps = 1e-3
r = 3.2
guard = false
ic = perturbed
perturb_modes = u1:1:1:2.0, u2:0:2:2.0, omega:0:1:0.1, k:1:1:0.5
t_end = 0.01
sample_every = 0.0025
"""


def trajectory_of(cfg_path):
    """Every (state, record, rejected) sample of the config's run."""
    return run_problem(build_problem(load_config(cfg_path)))


def series_of(samples):
    return "".join(D.ndjson_line(rec) + "\n" for _, rec, _ in samples)


def test_streamed_run_writes_what_the_trajectory_holds(tmp_path):
    cfg = write_cfg(tmp_path, REG_2D)
    out = tmp_path / "o"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    samples = trajectory_of(cfg)
    assert (out / "series.ndjson").read_text() == series_of(samples)
    snaps = sorted(out.glob("snap_*.kbox"))
    assert len(snaps) == len(samples) == 5
    for path, (state, _, _) in zip(snaps, samples):
        snap.write_snapshot(tmp_path / "ref.kbox", state)
        assert path.read_bytes() == (tmp_path / "ref.kbox").read_bytes(), path.name


def test_streamed_bounds_series_is_the_base_trajectory(tmp_path):
    cfg = write_cfg(tmp_path, REG_2D)
    out = tmp_path / "o"
    assert cli.main(["bounds", "--config", str(cfg), "--out", str(out)]) in (0, 1)
    assert (out / "series.ndjson").read_text() == series_of(trajectory_of(cfg))


BOUNDS_3D = """
dim = 3
n = 8
side = 6.283185307179586
ic = perturbed
perturb_modes = u1:1:1:0.5, u2:2:1:0.5, u3:0:1:0.5, omega:0:1:0.1, k:2:1:0.2
dt_max = 0.002
t_end = 0.032
"""

RUN_2D = """
dim = 2
n = 32
side = 6.283185307179586
ic = perturbed
perturb_modes = u1:1:1:0.5, u2:0:2:0.5, omega:0:1:0.1, k:1:1:0.2
dt_max = 0.001
t_end = 0.032
"""


# a homogeneous decay whose window t >= 5 holds 3 samples at 5 samples in all
DECAY_2D = """
dim = 2
n = 32
side = 1000.0
dt_max = 0.1
t_end = 10.0
alpha2 = 1.4285714285714286
"""


def traced_peak(tmp_path, command, text, samples):
    """tracemalloc's peak over one command whose run takes `samples` samples."""
    t_end = float(re.search(r"^t_end = (.*)$", text, re.M).group(1))
    text += f"sample_every = {t_end / (samples - 1)!r}\n"
    cfg = write_cfg(tmp_path, text, f"{samples}.cfg")
    gc.collect()
    gc.disable()  # cycle collections at varying points would move the peak by up to ~20 kB
    tracemalloc.start()
    try:
        code = cli.main([command, "--config", str(cfg), "--out", str(tmp_path / f"o{samples}")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        gc.enable()
    assert code in (0, 1)
    return peak


@pytest.mark.parametrize("command, text, few, grid_values", [
    ("bounds", BOUNDS_3D, 3, 5 * 16**3),  # one State of the refined 16^3 run
    ("run", RUN_2D, 3, 4 * 32**2),  # one State of the 2D n = 32 run
    ("decay", DECAY_2D, 5, 4 * 32**2),
    ("balance", BOUNDS_3D, 3, 5 * 16**3),
    # scaling holds a sample of its run and one of its twin's while each steps
    ("scaling", RUN_2D, 4, 4 * 32**2),
], ids=["bounds_3d", "run_2d", "decay_2d", "balance_3d", "scaling_2d"])
def test_memory_does_not_grow_with_the_sample_count(tmp_path, capsys, command, text, few,
                                                    grid_values):
    # 30 more samples may not cost one State: the scalars that decay and balance keep
    # per sample (four and twelve floats) count against that bound too
    traced_peak(tmp_path, command, text, few)  # fills the per-shape caches before tracing
    low = traced_peak(tmp_path, command, text, few)
    high = traced_peak(tmp_path, command, text, few + 30)
    assert abs(high - low) < 8 * grid_values, (low, high)


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


# the benchmark's decay_1d config; its series has kept these bits since the solver took its
# present form, and a change that moves them must update the digest and say why
DECAY_1D = """
dim = 1
n = 4
alpha2 = 1.4285714285714286
dt_max = 0.01
t_end = 20
sample_every = 0.5
"""
DECAY_1D_SERIES_SHA256 = "604bc526b2945380e28e67a929068c84dfaaad7299f3c746e632d6641af50d96"


def test_decay_series_bits_are_pinned(tmp_path):
    cfg = write_cfg(tmp_path, DECAY_1D)
    assert cli.main(["decay", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    series = (tmp_path / "out" / "series.ndjson").read_bytes()
    assert hashlib.sha256(series).hexdigest() == DECAY_1D_SERIES_SHA256


# the decay_1d pin runs no r-Laplacian; every step of the REG_2D run takes both, under
# either scheme, and its digests (series, last snapshot) are pinned on the same terms.
# The rothe_picard digests last moved when the Picard iterate became spectral and its
# preconditioner took the midrange eddy coefficient: both move the path to the same
# fixed point, so the outputs moved only within the Picard tolerance
REG_2D_SHA256 = {
    "explicit_rk2": ("ae41738f69d614dfbecb4163252a7832ae59f3dcbdb0c552b36a9c6f2f334ef1",
                     "0e7802155cb00ee6efe6ee7139e6c22fc82e6aa842a12bd7c4096ea137268bac"),
    "rothe_picard": ("aa6a5e06fd9cb966c0f754c789dece535a12e45ef5238049a204e70a7a00d0b8",
                     "5efeb3e25a868e5c5274739142a772c594a85e44445478e9d91111a4416b666e"),
}


@pytest.mark.parametrize("scheme", ["explicit_rk2", "rothe_picard"])
def test_regularized_series_bits_are_pinned(tmp_path, scheme):
    cfg = write_cfg(tmp_path, REG_2D + f"scheme = {scheme}\n")
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    files = (out / "series.ndjson", out / "snap_0.010000.kbox")
    assert tuple(hashlib.sha256(f.read_bytes()).hexdigest() for f in files) == REG_2D_SHA256[scheme]


def test_series_keys_come_in_the_documented_order(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    listed = readme.split("one JSON object per sample with keys, in order:", 1)[1].split(".", 1)[0]
    documented = re.findall(r"`(\w+)`", listed)
    assert documented[0] == "t" and documented[-1] == "guard_activations"
    cfg = write_cfg(tmp_path, "dim = 1\nn = 4\nt_end = 0.1\n")
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    lines = (tmp_path / "out" / "series.ndjson").read_text().splitlines()
    assert lines and all(list(json.loads(line)) == documented for line in lines)


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


SCALING_HOMOG = """
dim = 2
n = 8
t_end = 1.0
sample_every = 0.05
dt_max = 0.005
"""

SCALING_FORCED = """
dim = 2
n = 16
side = 6.283185307179586
t_end = 0.2
sample_every = 0.02
ic = perturbed
perturb_modes = u1:1:1:0.3, u2:0:2:0.3, omega:0:1:0.1, k:1:1:0.1
forcing = single_mode
forcing_axis = 1
forcing_wavenumber = 1
forcing_amplitude = 0.5
forcing_component = 0
"""


def scaling_checks(tmp_path, text, *options):
    """(exit code, {check name: check}) of `scaling` on a config text with `options`."""
    cfg = write_cfg(tmp_path, text, "scaling.cfg")
    out = tmp_path / "o"
    code = cli.main(["scaling", "--config", str(cfg), *options, "--out", str(out)])
    checks = json.loads((out / "summary.json").read_text())["checks"]
    assert not (out / "scaling_report.ndjson").exists()
    return code, {c["name"]: c for c in checks}


INVARIANCE_CHECKS = ("invariance_u", "invariance_omega", "invariance_k")


def test_scaling_command(tmp_path):
    # the twin run is the transformed run, bit for bit
    for rho, gamma in (("4", "2"), ("1", "1")):
        code, checks = scaling_checks(tmp_path, SCALING_HOMOG, "--rho", rho, "--gamma", gamma)
        assert code == 0
        for name in INVARIANCE_CHECKS:
            assert (checks[name]["measured"], checks[name]["bound"]) == (0.0, 0.0), (rho, name)
        assert checks["coefficient_invariance"]["pass"]


def test_scaling_command_forced(tmp_path):
    # the twin takes the forcing scaled by gamma * alpha; the defaults are (4, 2)
    for options in (("--rho", "4", "--gamma", "2"), ("--rho", "1", "--gamma", "1"), ()):
        code, checks = scaling_checks(tmp_path, SCALING_FORCED, *options)
        assert code == 0
        for name in INVARIANCE_CHECKS:
            assert (checks[name]["measured"], checks[name]["bound"]) == (0.0, 0.0), (options, name)


@pytest.mark.parametrize("text", [SCALING_HOMOG, SCALING_FORCED], ids=["homogeneous", "forced"])
def test_scaling_fails_a_broken_sigma(tmp_path, monkeypatch, capsys, text):
    # sigma x 1.1 breaks the law: the twin's k parts from the transformed run
    family_from = S.family_from
    monkeypatch.setattr(S, "family_from",
                        lambda rho, gamma: replace(family_from(rho, gamma),
                                                   sigma=1.1 * gamma * gamma))
    code, checks = scaling_checks(tmp_path, text)
    assert code == 1
    assert checks["invariance_k"]["measured"] > 0.0 and not checks["invariance_k"]["pass"]
    assert capsys.readouterr().out.splitlines()[-1] == "scaling: FAIL"


@pytest.mark.parametrize("t_end, sample_every", [(0.5, 1.0), (2.0, 1.0), (1.0, 1.5)],
                         ids=["fewer_samples", "more_samples", "other_times"])
def test_scaling_fails_a_twin_that_samples_otherwise(tmp_path, monkeypatch, t_end, sample_every):
    # a twin run whose t_end or sample_every is off by these factors leaves some sample
    # without its partner, and that reads as an infinite gap
    samples = T.samples

    def twin_changed(initial, end, forcing, params, env, cfg, every):
        if end < 0.2:  # the twin's, 0.2 / alpha
            end, every = t_end * end, sample_every * every
        return samples(initial, end, forcing, params, env, cfg, every)

    monkeypatch.setattr(T, "samples", twin_changed)
    code, checks = scaling_checks(tmp_path, SCALING_FORCED)
    assert code == 1
    assert [checks[name]["measured"] for name in INVARIANCE_CHECKS] == [float("inf")] * 3


def refused_scaling(tmp_path, capsys, monkeypatch, text, *options):
    """(exit code, stderr lines, steps taken) of a `scaling` that should not start."""
    advance, calls = T._advance, []
    monkeypatch.setattr(T, "_advance", lambda *args: calls.append(None) or advance(*args))
    cfg = write_cfg(tmp_path, text, "scaling.cfg")
    code = cli.main(["scaling", "--config", str(cfg), *options, "--out", str(tmp_path / "o")])
    assert not (tmp_path / "o" / "summary.json").exists()
    return code, capsys.readouterr().err.splitlines(), len(calls)


@pytest.mark.parametrize("text", [
    REG_2D,
    REG_2D + "scheme = rothe_picard\n",
], ids=["explicit", "rothe_picard"])
def test_scaling_refuses_a_regularized_config(tmp_path, capsys, monkeypatch, text):
    # eps > 0 breaks the law by construction, so the check has no verdict to give
    assert refused_scaling(tmp_path, capsys, monkeypatch, text) == (2, [
        "error: ValidationError: regularized: the scaling law holds only for regularized = false"
    ], 0)


@pytest.mark.parametrize("option, value", [("--gamma", "1.5"), ("--rho", "3"), ("--rho", "0.3")])
def test_scaling_refuses_a_scale_that_is_not_a_power_of_two(tmp_path, capsys, monkeypatch,
                                                           option, value):
    # only a power of two scales without rounding, so only there is the check exact
    code, err, steps = refused_scaling(tmp_path, capsys, monkeypatch, SCALING_HOMOG, option, value)
    assert (code, steps) == (2, 0)
    assert err == [f"error: ValidationError: {option}: must be a power of two for an exact "
                   f"check, got {float(value)!r}"]


def test_scaling_refuses_a_scale_that_empties_the_envelope(tmp_path, capsys, monkeypatch):
    # rho = 2^-1000 and 1/rho are finite, but rho * omega0 underflows to 0
    text = "dim = 1\nn = 8\nt_end = 0.1\nic_omega0 = 1e-30\n"
    assert refused_scaling(tmp_path, capsys, monkeypatch, text, "--rho", repr(2.0**-1000),
                           "--gamma", "1") == (2, [
        "error: NonpositiveParameter: rho * omega_star = 0.0 from rho = 9.332636185032189e-302, "
        "omega_star = 1e-30; it and its reciprocal must be finite and > 0"
    ], 0)


@pytest.mark.parametrize("line, options, error", [
    # beta = rho / gamma = 2^-100, and side / beta overflows although side is finite
    ("side = 1e300", ("--rho", repr(2.0**-100), "--gamma", "1"),
     "side / beta = inf from side = 1e+300, beta = 7.888609052210118e-31"),
    # sigma = gamma^2 = 2^-200, and sigma * k0 underflows to 0
    ("ic_k0 = 1e-300", ("--gamma", repr(2.0**-100)),
     "sigma * k_star = 0.0 from sigma = 6.223015277861142e-61, k_star = 1e-300"),
], ids=["side", "k_star"])
def test_scaling_refuses_a_scale_that_leaves_the_floats(tmp_path, capsys, monkeypatch, line,
                                                         options, error):
    text = f"dim = 1\nn = 8\nt_end = 0.1\n{line}\n"
    assert refused_scaling(tmp_path, capsys, monkeypatch, text, *options) == (2, [
        f"error: NonpositiveParameter: {error}; it and its reciprocal must be finite and > 0"
    ], 0)


def test_scaling_twin_runs_on_the_scaled_clock_and_box(tmp_path, monkeypatch):
    # at (4, 2), alpha = 4 divides the twin's times and step cap, and beta = 2 its box side
    samples, calls = T.samples, []

    def spy(initial, t_end, forcing, params, env, step, sample_every):
        calls.append((initial.grid, t_end, sample_every, step.dt_max))
        return samples(initial, t_end, forcing, params, env, step, sample_every)

    monkeypatch.setattr(T, "samples", spy)
    code, _ = scaling_checks(tmp_path, SCALING_HOMOG, "--rho", "4", "--gamma", "2")
    assert code == 0
    (grid, t_end, every, dt_max), twin = calls
    assert (grid, t_end, every, dt_max) == (F.Grid(2, 8, 1.0), 1.0, 0.05, 0.005)
    assert twin == (F.Grid(2, 8, 0.5), t_end / 4, every / 4, dt_max / 4)


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


@pytest.mark.parametrize("line", ["k_floor = 1e-14", "guard_slack = 0.05", "picard_damping = 0.7",
                                  "picard_max_iters = 0", "picard_tol = 0"])
def test_removed_step_keys_are_unknown(tmp_path, capsys, line):
    # the k guard is relative to its envelope; the slack and the Picard controls are constants
    code, err = run_cli(tmp_path, capsys, config_with(line))
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error: ParseError: line 4: unknown key ")


@pytest.mark.parametrize("line, error", REMOVED_KEYS, ids=[line for line, _ in REMOVED_KEYS])
def test_removed_key_exits_2_on_one_stderr_line(tmp_path, capsys, line, error):
    # the envelope is the initial state's tightest, the base velocity zero, no forcing constant
    assert run_cli(tmp_path, capsys, config_with(line)) == (2, [f"error: {error}"])


@pytest.mark.parametrize("key, lines", BAD_CONFIGS, ids=BAD_CONFIG_IDS)
def test_bad_value_exits_2_naming_its_key(tmp_path, capsys, key, lines):
    code, err = run_cli(tmp_path, capsys, config_with(lines))
    assert code == 2
    assert len(err) == 1 and err[0].startswith(f"error: ValidationError: {key}: ")


def test_undecodable_config_exits_2_naming_its_line(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"dim = 1\nn = 4\n# \xff\xfe in a comment\nt_end = 0.1\n")
    code = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: ParseError: line 3: not valid UTF-8"
    ]


def test_grid_too_large_to_allocate_exits_2(tmp_path, capsys):
    # numpy refuses the 56.8 PiB velocity array before it touches any memory
    code, err = run_cli(tmp_path, capsys, "dim = 3\nn = 200000\n")
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error: MemoryError: Unable to allocate ")


@pytest.mark.parametrize("rho", ["inf", "1e-320"])
def test_scaling_names_a_bad_rho(tmp_path, capsys, rho):
    # 1e-320 is finite, but neither 1/rho nor the scaled box side is
    cfg = write_cfg(tmp_path, "dim = 1\nn = 4\nt_end = 0.1\n")
    argv = ["scaling", "--config", str(cfg), "--rho", rho, "--out", str(tmp_path / "o")]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: NonpositiveParameter: rho, gamma and their reciprocals must be finite and > 0"
    ]


def test_a_step_that_underflows_to_zero_exits_2(tmp_path, capsys):
    # h^2 underflows to 0, so the diffusive limit gives dt = 0
    code, err = run_cli(tmp_path, capsys, "dim = 1\nn = 4\nt_end = 0.1\nside = 1e-200\n")
    assert code == 2
    assert err == ["error: StepRejected: dt = 0.0 does not advance t = 0.0"]


def test_scaling_names_the_gamma_behind_a_bad_derived_factor(tmp_path, capsys):
    # gamma is finite and so is 1/gamma, but sigma = gamma^2 underflows to 0
    cfg = write_cfg(tmp_path, "dim = 1\nn = 4\nt_end = 0.1\n")
    argv = ["scaling", "--config", str(cfg), "--gamma", "1e-300", "--out", str(tmp_path / "o")]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: NonpositiveParameter: sigma = 0.0 from rho = 4.0, gamma = 1e-300; "
        "it and its reciprocal must be finite and > 0"
    ]


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


def test_guarded_under_resolved_run_exits_2_with_envelope_violated(tmp_path, capsys):
    # a strong shear drives k below its guard level near t = 0.0245 at every halving
    text = ("dim = 2\nn = 16\nside = 6.283185307179586\nt_end = 0.3\nsample_every = 0.015\n"
            "ic = perturbed\nperturb_modes = u1:1:1:8.0, u2:0:2:8.0, k:1:1:0.9, omega:0:1:0.4\n")
    code, err = run_cli(tmp_path, capsys, text)
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error: EnvelopeViolated: k "), err
    assert err[0].endswith("; step rejected after 10 dt halvings")
    out = tmp_path / "o"
    times = [json.loads(line)["t"] for line in (out / "series.ndjson").read_text().splitlines()]
    assert times == [0.0, 0.015]
    assert len(sorted(out.glob("snap_*.kbox"))) == 2
    assert not (out / "summary.json").exists()


ROTHE = """
dim = 2
n = 16
side = 6.283185307179586
regularized = true
eps = 1e-3
r = 3.2
guard = false
ic = perturbed
perturb_modes = u1:1:1:2.0, u2:0:2:2.0, omega:0:1:0.1, k:1:1:0.5
scheme = rothe_picard
t_end = 0.01
sample_every = 0.0025
"""


def test_rothe_run_writes_every_sample(tmp_path):
    out = tmp_path / "o"
    assert cli.main(["run", "--config", str(write_cfg(tmp_path, ROTHE)), "--out", str(out)]) == 0
    times = [json.loads(line)["t"] for line in (out / "series.ndjson").read_text().splitlines()]
    assert times == pytest.approx([0.0, 0.0025, 0.005, 0.0075, 0.01], rel=1e-12, abs=0.0)
    assert len(sorted(out.glob("snap_*.kbox"))) == len(times)


def test_rothe_without_convergence_exits_2_on_one_stderr_line(tmp_path, capsys, monkeypatch):
    # one iterate can never meet the Picard tolerance, so every halving fails too
    monkeypatch.setattr(T, "_PICARD_MAX_ITERS", 1)
    code, err = run_cli(tmp_path, capsys, ROTHE)
    assert code == 2
    assert err == ["error: StepRejected: step rejected after 10 dt halvings"]


def run_process(tmp_path, text, prelude=""):
    """(exit code, stderr lines) of `run` on a config text, in a real process: pytest's
    warning capture would hide warnings from an in-process cli.main.  `prelude` is
    Python code that runs before the `python -m kolmobox.cli` entry, such as a module
    constant set for the test."""
    cfg = write_cfg(tmp_path, text)
    src = str(Path(cli.__file__).resolve().parents[1])
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    code = f"{prelude}\nimport runpy\nrunpy.run_module('kolmobox.cli', run_name='__main__')"
    proc = subprocess.run(
        [sys.executable, "-c", code, "run", "--config", str(cfg), "--out", str(tmp_path / "o")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    return proc.returncode, proc.stderr.splitlines()


def test_overflow_exits_2_on_one_stderr_line(tmp_path):
    code, err = run_process(tmp_path, config_with("ic = perturbed\nperturb_modes = u1:0:1:1e200"))
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error: NonFiniteRecord: "), err


SMALL_R = """\
dim = 2
n = 8
t_end = 0.01
sample_every = 0.005
regularized = true
eps = 1e-2
r = 2.5
ic = perturbed
perturb_modes = u1:1:1:0.5
"""


def test_small_r_warns_only_in_the_implicit_mode(tmp_path):
    # the explicit scheme never runs the implicit mode, so it has nothing to warn about
    assert run_process(tmp_path, SMALL_R) == (0, [])
    # the warning names the stepping line of timestepper.py and comes before the error line
    code, err = run_process(tmp_path, SMALL_R + "scheme = rothe_picard\n",
                            prelude="from kolmobox import timestepper\ntimestepper._PICARD_MAX_ITERS = 1")
    assert code == 2
    assert re.search(r"timestepper\.py:\d+: UserWarning: r = 2\.5 <= 3; the implicit mode",
                     err[0]), err
    assert err[-1] == "error: StepRejected: step rejected after 10 dt halvings"
    assert sum(line.startswith("error: ") for line in err) == 1


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
    text = f"dim = 3\nn = 8\nt_end = 0.1\nic = snapshot\nsnapshot_path = {path}\n"
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
    # so does balance; both name the refined n, not a grid the config never set
    code, err2 = run_cli(tmp_path, capsys, text, command="balance")
    assert code == 2 and err2 == err
    assert "n = 16" in err[0] and "Grid(" not in err[0]
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
