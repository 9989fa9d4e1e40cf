"""Acceptance suite: one test per criterion, each prints a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criterion 6 is split so the entropy-bracket check stands alone: it
asserts tau/2 - C(delta) <= phi(tau) <= tau with the sharp constant C(delta)
(`conftest.entropy_bracket_constant`) and that C(delta) is attained.  The
cruder constant 2/(1-delta) is false for delta = 0.1: phi(100) = 30.37 while
100/2 - 2/0.9 = 47.78.  The whole suite is expected to pass.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    entropy_bracket_constant,
    perturbed_problem,
    records_of,
    relative_gaps,
    run_pairs,
    structured_problem,
    transformed_runs,
)

from kolmobox import cli
from kolmobox import diagnostics as D
from kolmobox import fields as F
from kolmobox import model as M
from kolmobox import scaling as S
from kolmobox import timestepper as T


def report(criterion, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion} [{name}]: {status}  {detail}")
    return ok


def regularized(eps=1e-3, r=3.2, alpha2=10.0 / 7.0):
    return M.ModelParams(alpha1=1.0, alpha2=alpha2, eps=eps, r=r, regularized=True)


# ---------------------------------------------------------------------------
# 1. homogeneous decay reproduction


@pytest.mark.parametrize("alpha2", [1.0, 10.0 / 7.0, 2.0])
def test_criterion_1_homogeneous_decay(alpha2):
    params = M.ModelParams(alpha1=1.0, alpha2=alpha2)
    g = F.Grid(1, 4, 1.0)
    ic = M.HomogeneousIC(u_const=(0.0,), omega0=1.0, k0=1.0)
    env = M.ComparisonEnvelope(omega_star=1.0, omega_sup=1.0, k_star=1.0)
    st = M.homogeneous_state(g, ic, params)
    _, w_exact, k_exact = M.homogeneous_solution(2.0, ic, params)

    errs = {}
    for dt in (1e-3, 5e-4):
        final = T.run(st, 2.0, None, params, env, T.StepConfig(dt_max=dt), 0.25)[-1][0]
        w = final.omega.flat[0]
        k = final.k.flat[0]
        errs[dt] = max(abs(w - w_exact) / w_exact, abs(k - k_exact) / k_exact)

    ratio = errs[1e-3] / errs[5e-4]
    ok_err = errs[1e-3] <= 1e-4
    ok_ratio = 4.0 * 0.8 <= ratio <= 4.0 * 1.2
    ok = report(
        1,
        f"homogeneous-decay alpha2={alpha2:.4g}",
        ok_err and ok_ratio,
        f"rel err {errs[1e-3]:.3e} (<=1e-4), halving ratio {ratio:.2f} (4 +- 20%)",
    )
    assert ok


# ---------------------------------------------------------------------------
# 2. decay exponents via the decay command


def test_criterion_2_decay_exponents(tmp_path):
    cfg = tmp_path / "decay.cfg"
    cfg.write_text(
        "dim = 1\nn = 4\nt_end = 50.0\nsample_every = 0.5\ndt_max = 0.01\n"
        "alpha1 = 1.0\nalpha2 = 1.4285714285714286\n"
        "ic = homogeneous\nic_omega0 = 1.0\nic_k0 = 1.0\n"
    )
    out = tmp_path / "out"
    code = cli.main(["decay", "--config", str(cfg), "--out", str(out)])
    summary = json.loads((out / "summary.json").read_text())
    checks = {c["name"]: c for c in summary["checks"]}
    detail = ", ".join(f"{k}={v['measured']:.5f}" for k, v in checks.items())
    ok = report(2, "decay-exponents", code == 0 and summary["overall"], detail)
    assert ok


# ---------------------------------------------------------------------------
# 3. comparison envelopes (regularized 2D, guard disabled)


def _bounds_violations(n, side, uamp, sharp, kscale, cfl, t_end):
    params = regularized()
    g = F.Grid(2, n, side)
    x, y = g.coords()
    u = np.stack([uamp * np.sin(2 * np.pi * y / side), uamp * np.sin(4 * np.pi * x / side)])
    u, _ = F.leray_project(g, u)
    om = (
        1.0 + 0.45 * np.tanh(sharp * np.sin(2 * np.pi * x / side))
        * np.tanh(sharp * np.sin(2 * np.pi * y / side))
    ) if sharp else 1.0 + 0.1 * np.cos(2 * np.pi * x / side)
    kk = kscale * (1.0 + 0.5 * np.sin(2 * np.pi * y / side))
    env = M.ComparisonEnvelope(
        omega_star=float(om.min()), omega_sup=float(om.max()), k_star=float(kk.min())
    )
    st = M.State(t=0.0, grid=g, u=u, omega=om, k=kk)
    records = records_of(T.run(st, t_end, None, params, env,
                               T.StepConfig(cfl_safety=cfl, guard=False), t_end / 20))
    viol = max(
        max(r.envelope_violation_omega_low for r in records),
        max(r.envelope_violation_omega_high for r in records),
        max(r.envelope_violation_k for r in records),
    )
    guard_hits = sum(r.guard_activations for r in records)
    return viol, env, guard_hits


def test_criterion_3_comparison_envelopes():
    L = 2 * np.pi
    # resolved configuration at the stated resolution, then refined once
    v64, env, hits64 = _bounds_violations(64, L, uamp=2.0, sharp=0.0, kscale=1.0,
                                          cfl=0.4, t_end=0.25)
    v128, _, _ = _bounds_violations(128, L, uamp=2.0, sharp=0.0, kscale=1.0,
                                    cfl=0.4, t_end=0.25)
    thr = 1e-3 * env.omega_star
    floor = 1e-12 * env.omega_star
    ok_bound = v64 <= thr
    ok_shrink = (v128 <= v64 / 1.5) or (v64 <= floor and v128 <= floor)
    ok_guard = hits64 == 0  # guard disabled: activations must not be recorded

    # companion study: an under-resolved run where violations are nonzero and
    # genuinely shrink under joint (dt, h) refinement
    c32, env2, _ = _bounds_violations(32, L, uamp=4.0, sharp=4.0, kscale=0.02,
                                      cfl=0.9, t_end=0.3)
    c64, _, _ = _bounds_violations(64, L, uamp=4.0, sharp=4.0, kscale=0.02,
                                   cfl=0.9, t_end=0.3)
    ok_companion = c32 > 0.0 and c64 <= c32 / 1.5

    ok = report(
        3,
        "comparison-envelopes",
        ok_bound and ok_shrink and ok_guard and ok_companion,
        f"n=64 viol {v64:.2e} (<= {thr:.2e}), n=128 viol {v128:.2e}; "
        f"under-resolved shrink {c32:.2e} -> {c64:.2e}",
    )
    assert ok


# ---------------------------------------------------------------------------
# 4. balance identities under refinement (+ the mu-proxy convergence that
#    stands in for the excluded measure-theoretic construction)

_BALANCE_CACHE = {}


def _balance_levels():
    if "reports" in _BALANCE_CACHE:
        return _BALANCE_CACHE["reports"]
    reports = []
    for n, se, dtm in [(16, 0.05, 2e-3), (32, 0.025, 1e-3), (64, 0.0125, 5e-4)]:
        g, st, env, params = structured_problem(n=n, uamp=0.5)
        samples = run_pairs(st, 0.5, None, params, env, T.StepConfig(dt_max=dtm, guard=False), se)
        reports.append(D.balance_report(samples, (0.0, 0.5), params, env))
    _BALANCE_CACHE["reports"] = reports
    return reports


def test_criterion_4_balance_identities():
    reports = _balance_levels()
    om = [r.omega_residual for r in reports]
    kk = [r.k_residual for r in reports]
    ok_shrink = all(om[i] >= 1.5 * om[i + 1] for i in range(2)) and all(
        kk[i] >= 1.5 * kk[i + 1] for i in range(2)
    )

    g, st, env, params = structured_problem(n=8, uamp=0.0)
    samples0 = run_pairs(st, 0.5, None, params, env, T.StepConfig(guard=False), 0.05)
    gap0 = D.balance_report(samples0, (0.0, 0.5), params, env).energy_gap
    ok_gap = gap0 == 0.0

    ok = report(
        4,
        "balance-identities",
        ok_shrink and ok_gap,
        f"omega res {om[0]:.2e}->{om[1]:.2e}->{om[2]:.2e}, "
        f"k res {kk[0]:.2e}->{kk[1]:.2e}->{kk[2]:.2e}, u=0 gap {gap0:.1e}",
    )
    assert ok


# ---------------------------------------------------------------------------
# 5. scaling invariance


def test_criterion_5_scaling_invariance():
    # the solver on a (rho, gamma)-scaled problem against the scaled run: a short random
    # 2D run at 20 random scalings
    rng = np.random.default_rng(20260810)
    worst = 0.0
    for _ in range(20):
        rho, gamma = rng.uniform(0.5, 4.0, 2)
        gaps = relative_gaps(*transformed_runs(perturbed_problem(2, False, False),
                                               S.family_from(rho, gamma)))
        worst = max(worst, *gaps.values())
    all_pass = worst <= 1e-13

    # controlled sigma violation on a spatially structured trajectory
    params = M.ModelParams(alpha1=1.0, alpha2=10.0 / 7.0)
    _, st, env, _ = structured_problem(n=32)
    cfg = T.StepConfig(dt_max=1e-3, guard=False)
    sp = S.family_from(4.0, 2.0)
    held, broken = (relative_gaps(*transformed_runs((st, env, params, None), scaled, 0.5, 0.0125,
                                                    cfg))
                    for scaled in (sp, replace(sp, sigma=sp.sigma * 1.1)))
    ok_violation = max(held.values()) == 0.0 and broken["k"] >= 1e6 * 1e-13

    # coefficient-family scaling conditions over 10^3 random tuples
    worst_coeff = 0.0
    for _ in range(1000):
        a, b, rho, gamma, om, kk = rng.uniform(0.25, 4.0, 6)
        sp = S.general_family(a, b, rho, gamma)
        worst_coeff = max(worst_coeff, S.coefficient_defect(a, b, sp, om, kk))
    ok_coeff = worst_coeff <= 1e-12

    ok = report(
        5,
        "scaling-invariance",
        all_pass and ok_violation and ok_coeff,
        f"20 random scalings gap {worst:.2e} (<=1e-13), sigma-violation k gap {broken['k']:.2e} "
        f"(>=1e-7, unviolated {max(held.values()):.0f}), coefficient residual {worst_coeff:.2e} "
        f"(<=1e-12)",
    )
    assert ok


# ---------------------------------------------------------------------------
# 6. operator property suite


def test_criterion_6_operator_properties():
    rng = np.random.default_rng(99)
    ok = True
    details = []
    for dim in (1, 2, 3):
        g = F.Grid(dim, 12 if dim == 3 else 24, 1.0)
        hd = g.h**g.dim
        f = rng.standard_normal(g.shape)
        a = rng.uniform(0.0, 2.0, g.shape)
        v = np.stack([rng.standard_normal(g.shape) for _ in range(dim)])

        lhs = hd * np.sum(F.divergence(g, v) * f)
        rhs = -hd * np.sum(sum(c * gc for c, gc in zip(v, F.gradient(g, f))))
        ok &= abs(lhs - rhs) <= 1e-13 * max(abs(lhs), abs(rhs), 1.0)

        out = F.div_flux(g, a, f)
        rl = F.r_laplacian(g, f, 3.0)
        scale = np.abs(out).max() + np.abs(rl).max() + 1.0
        ok &= abs(F.integrate(g, out)) <= 1e-12 * scale
        ok &= abs(F.integrate(g, rl)) <= 1e-11 * scale
        ok &= hd * np.sum(f * out) <= 1e-12 * scale
        ok &= hd * np.sum(f * rl) <= 1e-11 * scale

        w, p = F.leray_project(g, v)
        w2, _ = F.leray_project(g, w)
        ok &= np.abs(F.divergence(g, w)).max() <= 1e-12 * np.abs(v).max()
        ok &= max(np.abs(x - y).max() for x, y in zip(w, w2)) <= 1e-13 * (np.abs(v).max() + 1.0)

        adv = F.advect(g, w, f)
        ok &= abs(hd * np.sum(f * adv)) <= 1e-12 * (
            np.abs(w).max() * np.abs(f).max() ** 2 + 1.0
        )
        details.append(f"d={dim} ok")

    # odd-power monotonicity with the exact constant 2^(2-r), 10^4 pairs
    for r in (3.0, 3.5):
        xi = rng.standard_normal((10_000, 3))
        eta = rng.standard_normal((10_000, 3))
        pxi = np.stack(F.vector_signed_power(list(xi.T), r), axis=-1)
        peta = np.stack(F.vector_signed_power(list(eta.T), r), axis=-1)
        lhs_m = np.sum((pxi - peta) * (xi - eta), axis=-1)
        rhs_m = 2.0 ** (2.0 - r) * np.sum((xi - eta) ** 2, axis=-1) ** (r / 2.0)
        ok &= bool(np.all(lhs_m >= rhs_m - 1e-12))
    details.append("odd-power monotonicity r in {3, 3.5}")

    ok = report(6, "operator-properties", bool(ok), "; ".join(details))
    assert ok


@pytest.mark.parametrize("delta", [0.1, 0.5, 0.9])
def test_criterion_6_entropy_bracket(delta):
    # tau/2 - C(delta) <= phi(tau) <= tau with the sharp constant C(delta),
    # which is attained at tau* = 2^(1/delta) - 1 (tau* = 1023 for
    # delta = 0.1).  Uniform samples on [0, 100] never reach that tau*, so
    # geometric samples up to 100 (1 + tau*) and tau* itself are added.  The
    # attainment check pins C(delta) from above, the lower bound from below.
    c = entropy_bracket_constant(delta)
    tau_star = 2.0 ** (1.0 / delta) - 1.0
    rng = np.random.default_rng(4242)
    tau = np.concatenate((
        rng.uniform(0.0, 100.0, 10_000),
        np.geomspace(1e-6, 100.0 * (1.0 + tau_star), 10_000),
        [0.0, tau_star],
    ))
    phi = D.entropy_phi(tau, delta)
    tol = 1e-12 * (1.0 + tau)
    upper_ok = bool(np.all(phi <= tau + 1e-12))
    lower_ok = bool(np.all(phi >= tau / 2.0 - c - tol))
    worst = float(np.max(tau / 2.0 - c - phi - tol))
    gap = abs(tau_star / 2.0 - float(D.entropy_phi(tau_star, delta)) - c)
    attained = gap <= 1e-12 * (1.0 + tau_star)
    ok = report(
        6,
        f"entropy-bracket delta={delta}",
        upper_ok and lower_ok and attained,
        f"C={c:.4f}  worst lower-bound slack after round-off allowance "
        f"{-worst:.3e} (negative means violated)  "
        f"|tau*/2 - phi(tau*) - C| = {gap:.1e}",
    )
    assert ok


# ---------------------------------------------------------------------------
# 7. Rothe mode


def test_criterion_7_rothe_mode(monkeypatch):
    params = regularized(r=3.5)
    g = F.Grid(1, 8, 1.0)
    env = M.ComparisonEnvelope(omega_star=0.8, omega_sup=1.2, k_star=0.9)
    ic = M.HomogeneousIC(u_const=(0.0,), omega0=1.0, k0=1.0)
    st = M.homogeneous_state(g, ic, params)
    dt = 0.05
    eps, r, a1, a2 = params.eps, params.r, params.alpha1, params.alpha2
    olow = M.omega_lower(dt, env, params)
    kap = M.kappa(dt, env, params)

    def bisect(fun, lo, hi):
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if fun(lo) * fun(mid) <= 0:
                hi = mid
            else:
                lo = mid
        return 0.5 * (lo + hi)

    w1 = bisect(
        lambda w: w - 1.0 + dt * (a1 * w * w + eps * abs(w) ** (r - 2) * w - eps * olow ** (r - 1)),
        0.1, 1.5,
    )
    k1 = bisect(
        lambda k: k - 1.0 + dt * (a2 * k * w1 + eps * abs(k) ** (r - 2) * k - eps * kap ** (r - 1)),
        0.1, 1.5,
    )
    out = T.step_rothe(st, dt, None, params, env, T.StepConfig(scheme="rothe_picard"))
    err_oracle = max(abs(out.omega.flat[0] - w1), abs(out.k.flat[0] - k1))
    ok_oracle = err_oracle <= 1e-9

    g2, st2, env2, _ = structured_problem(n=16)
    monkeypatch.setattr(T, "_PICARD_TOL", 1e-13)
    diffs = {}
    for dts in (2e-4, 1e-4):
        se = T.step_explicit(st2, dts, None, params, env2, T.StepConfig(guard=False))
        sr = T.step_rothe(
            st2, dts, None, params, env2,
            T.StepConfig(scheme="rothe_picard", guard=False),
        )
        diffs[dts] = max(
            np.abs(se.omega - sr.omega).max(),
            np.abs(se.k - sr.k).max(),
            max(np.abs(x - y).max() for x, y in zip(se.u, sr.u)),
        )
    ratio = diffs[2e-4] / diffs[1e-4]
    ok_ratio = 4.0 * 0.7 <= ratio <= 4.0 * 1.3

    ok = report(
        7,
        "rothe-mode",
        ok_oracle and ok_ratio,
        f"oracle err {err_oracle:.2e} (<=1e-9), halving ratio {ratio:.2f} (4 +- 30%)",
    )
    assert ok


# ---------------------------------------------------------------------------
# 8. explicitly excluded items, covered only by the mu-proxy convergence


def test_criterion_8_excluded_items_mu_proxy():
    reports = _balance_levels()
    mu = [abs(r.mu_proxy) for r in reports]
    ok = mu[0] >= 1.5 * mu[1] and mu[1] >= 1.5 * mu[2]
    ok = report(
        8,
        "excluded-items (mu-proxy convergence only)",
        ok,
        f"|mu_proxy| {mu[0]:.2e} -> {mu[1]:.2e} -> {mu[2]:.2e} under joint refinement; "
        "existence theory, function-space regularity and the measure-theoretic "
        "defect construction are out of numerical scope",
    )
    assert ok
