"""Command-line driver: canonical experiments with NDJSON/summary outputs.

Commands: run, decay, bounds, balance, scaling.  Each reads a key=value config
file, executes one or more simulations and writes a `summary.json` with named
pass/fail checks.  All but `scaling` write `series.ndjson` (one diagnostics
record per sample); `run` also writes binary snapshots `snap_<t>.kbox` and
`balance` writes `balance.json`.  The process exits 0 exactly when every check
passed, 1 when a check failed, and 2 when there is no verdict: a config,
snapshot, I/O or solver error, reported on one stderr line.

Every command folds the one stream `_stream` makes of `timestepper.samples`,
writing each series line (and `run` each snapshot) as its sample is taken and
holding no sample past its turn: `run` keeps the last state for its summary,
`bounds` the worst violations and guard count of each run, `decay` and
`balance` a few scalars per sample, `scaling` the current sample of its run
and of the scaled twin run it draws beside it.  So an exit-2 run leaves the
samples taken before the failure, and no summary.json; `decay` exits 2 before
its first step if its fit window holds fewer than 3 samples, and `scaling` if
the config is regularized or `--rho` or `--gamma` is not a power of two.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import sys
from dataclasses import dataclass, fields, replace
from operator import itemgetter
from pathlib import Path
from typing import List, Optional

import numpy as np

from . import diagnostics as diag
from . import scaling as S
from . import snapshot as snap
from . import timestepper as T
from .config import RunConfig, build_problem, load_config
from .errors import KolmoboxError, ValidationError
from .fields import divergence, integrate

__all__ = ["main"]


@dataclass(frozen=True)
class Check:
    name: str
    measured: float
    bound: float
    passed: bool


def _stream(p, fh=None):
    """The (state, record) pair of each sample of problem `p`'s run, none held while
    the next is drawn.  Given `fh`, each series line is written and flushed before
    its pair is yielded, so a run that stops early leaves the samples it took."""
    for state, rec, _ in T.samples(p.state, p.t_end, p.forcing, p.params, p.env, p.step,
                                   p.sample_every):
        if fh is not None:
            fh.write(diag.ndjson_line(rec) + "\n")
            fh.flush()
        yield state, rec
        del state, rec


def _open_series(outdir: Path):
    return open(outdir / "series.ndjson", "w", encoding="utf-8")


def _run_pair(cfg: RunConfig, outdir: Path, fold, **refine):
    """The base problem, then `fold(p, stream)` of its run, series written, and of its
    refinement's (n doubled, dt_max halved, plus `refine`).  Both problems are built
    before either runs, so a bad one fails before any run; a snapshot initial state,
    which holds one grid, fails before either is built."""
    if cfg.ic == "snapshot":
        raise ValidationError("snapshot_path", f"the refined run needs n = {2 * cfg.n} (2n), "
                              "which a snapshot initial state cannot provide")
    base = build_problem(cfg)
    fine = build_problem(replace(cfg, n=2 * cfg.n, dt_max=cfg.dt_max / 2.0, **refine))
    with _open_series(outdir) as fh:
        folded = fold(base, _stream(base, fh))
    return base, folded, fold(fine, _stream(fine))


def _snapshot_names(times) -> list:
    """`snap_<t>.kbox` with t to 6 decimals, or to as many more as keep every name distinct.

    The sample times increase strictly, so enough decimals always tell them apart.
    """
    digits = 6
    while True:
        names = [f"snap_{t:.{digits}f}.kbox" for t in times]
        if len(set(names)) == len(names):
            return names
        digits += 1


def _finish(outdir: Path, experiment: str, checks: List[Check]) -> int:
    overall = all(c.passed for c in checks)
    payload = {
        "experiment": experiment,
        "checks": [
            {"name": c.name, "measured": float(c.measured), "bound": float(c.bound),
             "pass": bool(c.passed)}
            for c in checks
        ],
        "overall": bool(overall),
    }
    with open(outdir / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    for c in checks:
        status = "pass" if c.passed else "FAIL"
        print(f"  [{status}] {c.name}: measured {c.measured:.6g} vs bound {c.bound:.6g}")
    print(f"{experiment}: {'pass' if overall else 'FAIL'}")
    return 0 if overall else 1


def _shrink_check(name: str, coarse: float, fine: float, factor: float, floor: float) -> Check:
    """Pass when `fine` is at least `factor` below `coarse`, or both are at floor level."""
    if coarse <= floor and fine <= floor:
        return Check(name, fine, floor, True)
    return Check(name, fine, coarse / factor, fine <= coarse / factor)


# ---------------------------------------------------------------------------
# commands


def cmd_run(cfg: RunConfig, outdir: Path) -> int:
    p = build_problem(cfg)
    times = T.sample_times(p.state.t, p.t_end, p.sample_every)
    names = dict(zip(times, _snapshot_names(times)))
    with _open_series(outdir) as fh:
        for final, _ in _stream(p, fh):
            snap.write_snapshot(outdir / names[final.t], final)
            if final.t != times[-1]:
                del final  # the steps to the next sample need not keep this one alive
    finite = all(np.all(np.isfinite(a)) for a in (*final.u, final.omega, final.k))
    umax = float(np.abs(final.u).max())
    div_resid = float(np.abs(divergence(final.grid, final.u)).max())
    bound = 1e-12 * (1.0 + umax)
    return _finish(outdir, "run", [
        Check("fields_finite", 0.0 if finite else 1.0, 0.5, finite),
        Check("projection_residual", div_resid, bound, div_resid <= bound),
    ])


def cmd_decay(cfg: RunConfig, outdir: Path) -> int:
    p = build_problem(cfg)
    window = (5.0, min(50.0, p.t_end))
    schedule = T.sample_times(p.state.t, p.t_end, p.sample_every)
    diag.require_fit_samples("mean_k", sum(diag.in_window(t, window) for t in schedule))
    times, mean_k, mean_om, l_min = [], [], [], []
    with _open_series(outdir) as fh:
        for state, rec in _stream(p, fh):
            if diag.in_window(state.t, window):
                times.append(state.t)
                mean_k.append(rec.E_turb / state.grid.volume)
                mean_om.append(integrate(state.grid, state.omega) / state.grid.volume)
                l_min.append(rec.L_min)
            del state, rec
    fit_k = diag.decay_fit("mean_k", times, mean_k, p.params, p.env)
    fit_om = diag.decay_fit("mean_omega", times, mean_om, p.params, p.env)
    fit_l = diag.decay_fit("L_min", times, l_min, p.params, p.env)
    ratio = p.params.alpha2 / p.params.alpha1
    l_target = 1.0 - ratio / 2.0
    checks = [
        Check("k_exponent", fit_k.exponent, -ratio, abs(fit_k.exponent + ratio) <= 0.02),
        Check("omega_exponent", fit_om.exponent, -1.0, abs(fit_om.exponent + 1.0) <= 0.02),
        Check("L_min_exponent", fit_l.exponent, l_target - 0.05, fit_l.exponent >= l_target - 0.05),
    ]
    return _finish(outdir, "decay", checks)


def _violations(p, stream):
    """(deepest omega envelope violation, on either side; deepest k violation; attempts
    the positivity guard rejected)."""
    worst_om, worst_k, guards = 0.0, 0.0, 0
    for r in map(itemgetter(1), stream):  # map, unlike a for target, holds no state
        worst_om = max(worst_om, r.envelope_violation_omega_low, r.envelope_violation_omega_high)
        worst_k = max(worst_k, r.envelope_violation_k)
        guards += r.guard_activations
    return worst_om, worst_k, guards


def cmd_bounds(cfg: RunConfig, outdir: Path) -> int:
    base, coarse, fine = _run_pair(cfg, outdir, _violations)
    base_worst_om, base_worst_k, guards = coarse
    fine_worst_om, fine_worst_k, _ = fine
    env = base.env
    floor_om = 1e-12 * env.omega_star
    floor_k = 1e-12 * env.k_star
    checks = [
        Check("omega_violation", base_worst_om, 1e-3 * env.omega_star,
              base_worst_om <= 1e-3 * env.omega_star),
        Check("k_violation", base_worst_k, 1e-3 * env.k_star, base_worst_k <= 1e-3 * env.k_star),
        _shrink_check("omega_violation_shrink", base_worst_om, fine_worst_om, 1.5, floor_om),
        _shrink_check("k_violation_shrink", base_worst_k, fine_worst_k, 1.5, floor_k),
        # reported, not gated: how many attempts the positivity guard rejected
        Check("guard_activations_reported", float(guards), 0.0, True),
    ]
    return _finish(outdir, "bounds", checks)


def _balance(p, stream):
    """The balance report of problem `p` over its whole run."""
    return diag.balance_report(stream, (p.state.t, p.t_end), p.params, p.env)


def cmd_balance(cfg: RunConfig, outdir: Path) -> int:
    _, rep0, rep1 = _run_pair(cfg, outdir, _balance, sample_every=cfg.sample_interval / 2.0)
    scale = max(1.0, abs(rep0.mu_proxy), rep0.mass_k[0])  # mass_k[0]: the first record's E_turb
    floor = 1e-13 * scale
    checks = [
        _shrink_check("omega_balance_shrink", rep0.omega_residual, rep1.omega_residual, 1.5, floor),
        _shrink_check("k_balance_shrink", rep0.k_residual, rep1.k_residual, 1.5, floor),
        _shrink_check("energy_gap_shrink", abs(rep0.energy_gap), abs(rep1.energy_gap), 1.5, floor),
    ]
    def _as_dict(rep):  # the real-valued fields, in declaration order
        values = ((f.name, getattr(rep, f.name)) for f in fields(rep))
        return {name: float(v) for name, v in values if isinstance(v, float)}

    with open(outdir / "balance.json", "w", encoding="utf-8") as fh:
        json.dump({"base": _as_dict(rep0), "refined": _as_dict(rep1)}, fh, indent=2)
    return _finish(outdir, "balance", checks)


def _twin_gaps(p, twin, sp):
    """The largest |transform_state(sample) - twin sample| of u, omega and k over the runs
    of `p` and its scaled `twin`, each pair dropped before the next is drawn; inf for all
    three once a pair's times, or the two sample counts, differ."""
    worst = np.zeros(3)
    theirs = map(itemgetter(0), _stream(twin))  # map, unlike a for target, holds no state
    for ours in map(itemgetter(0), _stream(p)):
        mine, other = S.transform_state(ours, sp), next(theirs, None)
        if other is None or other.t != mine.t:
            return np.full(3, np.inf)
        worst = np.maximum(worst, [np.abs(getattr(mine, name) - getattr(other, name)).max()
                                   for name in ("u", "omega", "k")])
        del ours, mine, other
    return worst if next(theirs, None) is None else np.full(3, np.inf)


def cmd_scaling(cfg: RunConfig, outdir: Path, rho: float, gamma: float) -> int:
    sp = S.family_from(rho, gamma)  # a bad rho or gamma fails before the run
    for option, x in (("--rho", rho), ("--gamma", gamma)):
        if math.frexp(x)[0] != 0.5:  # only a power of two scales without rounding
            raise ValidationError(option, f"must be a power of two for an exact check, got {x!r}")
    if cfg.regularized:
        raise ValidationError("regularized", "the scaling law holds only for regularized = false")
    p = build_problem(cfg)
    gaps = _twin_gaps(p, S.transform_problem(p, sp), sp)
    draws = np.random.default_rng(cfg.seed).uniform(0.25, 4.0, size=(1000, 6))
    worst = max(S.coefficient_defect(a, b, S.general_family(a, b, rr, gg), om, kk)
                for a, b, rr, gg, om, kk in draws)

    checks = [Check(f"invariance_{name}", gap, 0.0, gap <= 0.0)
              for name, gap in zip(("u", "omega", "k"), gaps)]
    checks.append(Check("coefficient_invariance", worst, 1e-12, worst <= 1e-12))
    return _finish(outdir, "scaling", checks)


_COMMANDS = dict(run=cmd_run, decay=cmd_decay, bounds=cmd_bounds, balance=cmd_balance,
                 scaling=cmd_scaling)


# ---------------------------------------------------------------------------

_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _recycle_freed_arrays() -> None:
    """Let glibc's heap keep freed field arrays for reuse instead of unmapping them.

    By default every array above the dynamic mmap threshold (128 KiB at first)
    is mapped fresh and its pages faulted in again on first write.  Raise the
    threshold to glibc's own 64-bit ceiling (32 MiB) and keep up to twice that
    at the top of the heap.  Skipped where the C library has no `mallopt`.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def main(argv: Optional[List[str]] = None) -> int:
    _recycle_freed_arrays()
    parser = argparse.ArgumentParser(
        prog="kolmo-box",
        description="Periodic-box two-equation turbulence model: runs and verifications",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="path to key=value config file")
        sp.add_argument("--out", default=None, help="output directory (overrides config)")
        if name == "scaling":
            sp.add_argument("--rho", type=float, default=4.0)
            sp.add_argument("--gamma", type=float, default=2.0)
    args = parser.parse_args(argv)

    try:
        # exit 2 is one stderr line: the solver's error reports a field that overflows
        with np.errstate(over="ignore", invalid="ignore"):
            cfg = load_config(args.config)
            outdir = Path(args.out) if args.out else Path(cfg.out_dir)
            outdir.mkdir(parents=True, exist_ok=True)
            extra = (args.rho, args.gamma) if args.command == "scaling" else ()
            return _COMMANDS[args.command](cfg, outdir, *extra)
    except (KolmoboxError, MemoryError) as exc:
        # numpy's out-of-memory error is a private subclass; name the public class
        name = "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__
        print(f"error: {name}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
