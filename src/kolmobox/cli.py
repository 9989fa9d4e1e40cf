"""Command-line driver: canonical experiments with NDJSON/summary outputs.

Commands: run, decay, bounds, balance, scaling.  Each reads a key=value config
file, executes one or more simulations, writes `series.ndjson` (one
diagnostics record per sample), binary snapshots `snap_<t>.kbox`, and a
`summary.json` with named pass/fail checks.  The process exits 0 exactly when
every check passed, 1 when a check failed, and 2 when there is no verdict: a
config, snapshot, I/O or solver error, reported on one stderr line.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import List, Optional

import numpy as np

from . import diagnostics as diag
from . import scaling as S
from . import snapshot as snap
from . import timestepper as T
from .config import RunConfig, build_problem, load_config
from .errors import KolmoboxError
from .fields import divergence

__all__ = ["main"]


@dataclass(frozen=True)
class Check:
    name: str
    measured: float
    bound: float
    passed: bool


@dataclass(frozen=True)
class VerificationSummary:
    experiment: str
    checks: List[Check]

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.checks)


def _run_problem(p):
    return T.run(p.state, p.cfg.t_end, p.forcing, p.params, p.env, p.step, p.cfg.sample_interval)


def _run_cfg(cfg: RunConfig):
    p = build_problem(cfg)
    return p, _run_problem(p)


def _run_pair(cfg: RunConfig, **refine):
    """Run a config and its refinement: n doubled, dt_max halved, plus the `refine` overrides.

    Both are built first, so a bad one fails before any run.
    """
    refined = replace(cfg, n=2 * cfg.n, dt_max=cfg.dt_max / 2.0, **refine)
    problems = [build_problem(cfg), build_problem(refined)]
    return [_run_problem(p) for p in problems]


def _write_series(outdir: Path, traj) -> None:
    with open(outdir / "series.ndjson", "w", encoding="utf-8") as fh:
        for rec in traj.records:
            fh.write(diag.ndjson_line(rec) + "\n")


def _write_snapshots(outdir: Path, traj) -> None:
    for t, state in zip(traj.times, traj.states):
        snap.write_snapshot(outdir / f"snap_{t:.6f}.kbox", state)


def _write_summary(outdir: Path, summary: VerificationSummary) -> None:
    payload = {
        "experiment": summary.experiment,
        "checks": [
            {"name": c.name, "measured": float(c.measured), "bound": float(c.bound),
             "pass": bool(c.passed)}
            for c in summary.checks
        ],
        "overall": bool(summary.overall),
    }
    with open(outdir / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _finish(outdir: Path, summary: VerificationSummary) -> int:
    _write_summary(outdir, summary)
    for c in summary.checks:
        status = "pass" if c.passed else "FAIL"
        print(f"  [{status}] {c.name}: measured {c.measured:.6g} vs bound {c.bound:.6g}")
    print(f"{summary.experiment}: {'pass' if summary.overall else 'FAIL'}")
    return 0 if summary.overall else 1


def _shrink_check(name: str, coarse: float, fine: float, factor: float, floor: float) -> Check:
    """Pass when `fine` is at least `factor` below `coarse`, or both are at floor level."""
    if coarse <= floor and fine <= floor:
        return Check(name, fine, floor, True)
    return Check(name, fine, coarse / factor, fine <= coarse / factor)


# ---------------------------------------------------------------------------
# commands


def cmd_run(cfg: RunConfig, outdir: Path) -> int:
    _, traj = _run_cfg(cfg)
    _write_series(outdir, traj)
    _write_snapshots(outdir, traj)
    final = traj.states[-1]
    finite = all(np.all(np.isfinite(a)) for a in (*final.u, final.omega, final.k, final.p))
    umax = float(np.abs(final.u).max())
    div_resid = float(np.abs(divergence(final.grid, final.u)).max())
    summary = VerificationSummary(
        "run",
        [
            Check("fields_finite", 0.0 if finite else 1.0, 0.5, finite),
            Check("projection_residual", div_resid, 1e-12 * (1.0 + umax), div_resid <= 1e-12 * (1.0 + umax)),
        ],
    )
    return _finish(outdir, summary)


def cmd_decay(cfg: RunConfig, outdir: Path) -> int:
    p, traj = _run_cfg(cfg)
    _write_series(outdir, traj)
    window = (5.0, min(50.0, cfg.t_end))
    fit_k = diag.decay_fit(traj, "mean_k", window)
    fit_om = diag.decay_fit(traj, "mean_omega", window)
    fit_l = diag.decay_fit(traj, "L_min", window)
    ratio = cfg.alpha2 / cfg.alpha1
    l_target = 1.0 - ratio / 2.0
    checks = [
        Check("k_exponent", fit_k.exponent, -ratio, abs(fit_k.exponent + ratio) <= 0.02),
        Check("omega_exponent", fit_om.exponent, -1.0, abs(fit_om.exponent + 1.0) <= 0.02),
        Check("L_min_exponent", fit_l.exponent, l_target - 0.05, fit_l.exponent >= l_target - 0.05),
    ]
    return _finish(outdir, VerificationSummary("decay", checks))


def _max_violations(traj):
    return (
        max(r.envelope_violation_omega_low for r in traj.records),
        max(r.envelope_violation_omega_high for r in traj.records),
        max(r.envelope_violation_k for r in traj.records),
    )


def cmd_bounds(cfg: RunConfig, outdir: Path) -> int:
    base, fine = _run_pair(cfg)
    _write_series(outdir, base)
    env = base.env
    v0 = _max_violations(base)
    v1 = _max_violations(fine)
    base_worst_om = max(v0[0], v0[1])
    fine_worst_om = max(v1[0], v1[1])
    floor_om = 1e-12 * env.omega_star
    floor_k = 1e-12 * env.k_star
    checks = [
        Check("omega_violation", base_worst_om, 1e-3 * env.omega_star,
              base_worst_om <= 1e-3 * env.omega_star),
        Check("k_violation", v0[2], 1e-3 * env.k_star, v0[2] <= 1e-3 * env.k_star),
        _shrink_check("omega_violation_shrink", base_worst_om, fine_worst_om, 1.5, floor_om),
        _shrink_check("k_violation_shrink", v0[2], v1[2], 1.5, floor_k),
        # reported, not gated: how often the positivity guard clamped
        Check(
            "guard_activations_reported",
            float(sum(r.guard_activations for r in base.records)),
            0.0,
            True,
        ),
    ]
    return _finish(outdir, VerificationSummary("bounds", checks))


def cmd_balance(cfg: RunConfig, outdir: Path) -> int:
    base, fine = _run_pair(cfg, sample_every=cfg.sample_interval / 2.0)
    _write_series(outdir, base)
    w0 = (base.times[0], base.times[-1])
    w1 = (fine.times[0], fine.times[-1])
    rep0 = diag.balance_report(base, w0)
    rep1 = diag.balance_report(fine, w1)
    scale = max(1.0, abs(rep0.mu_proxy), base.records[0].E_turb)
    floor = 1e-13 * scale
    checks = [
        _shrink_check("omega_balance_shrink", rep0.omega_residual, rep1.omega_residual, 1.5, floor),
        _shrink_check("k_balance_shrink", rep0.k_residual, rep1.k_residual, 1.5, floor),
        _shrink_check("energy_gap_shrink", abs(rep0.energy_gap), abs(rep1.energy_gap), 1.5, floor),
    ]
    def _as_dict(rep):
        return {
            "omega_residual": float(rep.omega_residual),
            "k_residual": float(rep.k_residual),
            "mu_proxy": float(rep.mu_proxy),
            "energy_gap": float(rep.energy_gap),
        }

    with open(outdir / "balance.json", "w", encoding="utf-8") as fh:
        json.dump({"base": _as_dict(rep0), "refined": _as_dict(rep1)}, fh, indent=2)
    return _finish(outdir, VerificationSummary("balance", checks))


def cmd_scaling(cfg: RunConfig, outdir: Path, rho: float, gamma: float) -> int:
    p, traj = _run_cfg(cfg)
    sp = S.family_from(rho, gamma)
    report = S.invariance_experiment(traj, sp, p.params)
    with open(outdir / "scaling_report.ndjson", "w", encoding="utf-8") as fh:
        for line in S.report_ndjson_lines(report):
            fh.write(line + "\n")

    rng = np.random.default_rng(cfg.seed)
    worst = 0.0
    for _ in range(1000):
        a, b, rr, gg, om, kk = rng.uniform(0.25, 4.0, size=6)
        fam = S.CoefficientFamily(A=a, B=b, D1=p.params.nu0, D2=p.params.nu1,
                                  D3=p.params.nu2, G2=p.params.alpha1, G3=p.params.alpha2)
        res = S.coefficient_invariance_residuals(fam, S.general_family(a, b, rr, gg), [(om, kk)])
        worst = max(worst, res.overall)

    checks = [
        Check("invariance_u", report.transformed.u, 3.0 * report.expected.u, report.passed["u"]),
        Check("invariance_omega", report.transformed.omega, 3.0 * report.expected.omega,
              report.passed["omega"]),
        Check("invariance_k", report.transformed.k, 3.0 * report.expected.k, report.passed["k"]),
        Check("coefficient_invariance", worst, 1e-12, worst <= 1e-12),
    ]
    return _finish(outdir, VerificationSummary("scaling", checks))


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
    for name in ("run", "decay", "bounds", "balance", "scaling"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="path to key=value config file")
        sp.add_argument("--out", default=None, help="output directory (overrides config)")
        if name == "scaling":
            sp.add_argument("--rho", type=float, default=2.0)
            sp.add_argument("--gamma", type=float, default=1.5)
    args = parser.parse_args(argv)

    try:
        # exit 2 is one stderr line: the solver's error reports a field that overflows
        with np.errstate(over="ignore", invalid="ignore"):
            cfg = load_config(args.config)
            outdir = Path(args.out) if args.out else Path(cfg.out_dir)
            outdir.mkdir(parents=True, exist_ok=True)
            if args.command == "run":
                return cmd_run(cfg, outdir)
            if args.command == "decay":
                return cmd_decay(cfg, outdir)
            if args.command == "bounds":
                return cmd_bounds(cfg, outdir)
            if args.command == "balance":
                return cmd_balance(cfg, outdir)
            if args.command == "scaling":
                return cmd_scaling(cfg, outdir, args.rho, args.gamma)
            raise AssertionError(args.command)
    except KolmoboxError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
