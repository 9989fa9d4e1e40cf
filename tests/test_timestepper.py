"""Explicit and Rothe stepping, CFL logic, trajectories."""

import math

import numpy as np
import pytest

from conftest import (
    const,
    const_vector,
    perturbed_problem,
    regularized_params,
    structured_problem,
    zero_vector,
)

from kolmobox import diagnostics as D
from kolmobox import fields as F
from kolmobox import model as M
from kolmobox import timestepper as T
from kolmobox.errors import PicardDiverged, StepRejected

PARAMS = M.ModelParams(alpha1=1.0, alpha2=10.0 / 7.0)


def homogeneous(omega0=1.0, k0=1.0, dim=1, n=8):
    g = F.Grid(dim, n, 1.0)
    ic = M.HomogeneousIC(u_const=(0.0,) * dim, omega0=omega0, k0=k0)
    env = M.ComparisonEnvelope(omega_star=omega0, omega_sup=omega0, k_star=k0)
    return g, ic, env, M.homogeneous_state(g, ic, PARAMS)


class TestCflDt:
    def test_pure_diffusion_formula(self):
        g, ic, env, st = homogeneous(omega0=1.0, k0=2.0)  # eddy = k/omega = 2
        cfg = T.StepConfig(cfl_safety=0.4)
        nu = max(PARAMS.nu0, PARAMS.nu1, PARAMS.nu2)
        assert T.cfl_dt(st, PARAMS, cfg) == pytest.approx(0.4 * g.h**2 / (2 * 1 * nu * 2.0))

    def test_halving_h_quarters_diffusive_dt(self):
        _, _, _, st8 = homogeneous(n=8)
        _, _, _, st16 = homogeneous(n=16)
        cfg = T.StepConfig()
        assert T.cfl_dt(st8, PARAMS, cfg) / T.cfl_dt(st16, PARAMS, cfg) == pytest.approx(4.0)

    def test_advective_limit_dominates(self):
        g = F.Grid(1, 8, 1.0)
        st = M.State(
            t=0.0,
            grid=g,
            u=const_vector(g, [10.0]),
            omega=const(g, 1.0),
            k=const(g, 1e-8),  # negligible diffusivity
            p=const(g, 0.0),
        )
        cfg = T.StepConfig(cfl_safety=0.4)
        assert T.cfl_dt(st, PARAMS, cfg) == pytest.approx(0.4 * g.h / 10.0, rel=1e-6)

    def test_dt_max_cap(self):
        _, _, _, st = homogeneous()
        cfg = T.StepConfig(dt_max=1e-9)
        assert T.cfl_dt(st, PARAMS, cfg) == 1e-9


class TestStepExplicit:
    def test_matches_scalar_heun_oracle_bitwise(self):
        g, ic, env, st = homogeneous()
        dt = 0.1
        out = T.step_explicit(st, dt, None, PARAMS, env, T.StepConfig())
        a1, a2 = PARAMS.alpha1, PARAMS.alpha2

        def scalar_heun(w0, k0):
            dw0 = -(a1 * (max(w0, 0.0) * w0))
            dk0 = -(a2 * (k0 * max(w0, 0.0)))
            w1 = w0 + dt * dw0
            k1 = k0 + dt * dk0
            dw1 = -(a1 * (max(w1, 0.0) * w1))
            dk1 = -(a2 * (k1 * max(w1, 0.0)))
            return 0.5 * (w0 + (w1 + dt * dw1)), 0.5 * (k0 + (k1 + dt * dk1))

        w_ref, k_ref = scalar_heun(1.0, 1.0)
        assert np.all(out.omega == w_ref)
        assert np.all(out.k == k_ref)
        assert out.guard_hits == 0

    def test_local_error_third_order_against_envelope(self):
        g, ic, env, st = homogeneous()
        errs = {}
        for dt in (0.1, 0.05):
            out = T.step_explicit(st, dt, None, PARAMS, env, T.StepConfig())
            _, w_exact, _ = M.homogeneous_solution(dt, ic, PARAMS)
            errs[dt] = abs(out.omega.flat[0] - w_exact)
            assert errs[dt] <= 0.6 * dt**3
        assert 6.0 <= errs[0.1] / errs[0.05] <= 8.8

    def test_divergence_free_after_step(self, rng):
        g, st, env, params = structured_problem(n=16)
        dt = T.cfl_dt(st, params, T.StepConfig())
        out = T.step_explicit(st, dt, None, params, env, T.StepConfig())
        assert np.abs(F.divergence(g, out.u)).max() <= 1e-12 * (1.0 + np.abs(out.u).max())

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the trigger
    def test_nonfinite_rejected(self):
        g, st, env, params = structured_problem(n=16)
        with pytest.raises(StepRejected):
            T.step_explicit(st, 1e120, None, params, env, T.StepConfig())

    def test_guard_clamps_and_counts(self):
        # start below the lower envelope so the guard must act
        g = F.Grid(1, 8, 1.0)
        env = M.ComparisonEnvelope(omega_star=1.0, omega_sup=1.0, k_star=1.0)
        st = M.State(
            t=0.0,
            grid=g,
            u=zero_vector(g),
            omega=const(g, 0.5),
            k=const(g, 0.5),
            p=const(g, 0.0),
        )
        dt = 1e-3
        out = T.step_explicit(st, dt, None, PARAMS, env, T.StepConfig(guard=True))
        assert out.guard_hits > 0
        assert out.omega.min() >= M.omega_lower(dt, env, PARAMS) * 0.95 - 1e-15
        out2 = T.step_explicit(st, dt, None, PARAMS, env, T.StepConfig(guard=False))
        assert out2.guard_hits == 0
        assert out2.omega.min() < M.omega_lower(dt, env, PARAMS) * 0.95


class TestInputStateUnchanged:
    @pytest.mark.parametrize("scheme", ["explicit_rk2", "rothe_picard"])
    def test_step_leaves_input_arrays_bit_identical(self, scheme):
        params = regularized_params()
        g, st, env, _ = structured_problem(n=16)
        before = [a.copy() for a in (st.u, st.omega, st.k, st.p)]
        step = T.step_explicit if scheme == "explicit_rk2" else T.step_rothe
        out = step(st, 1e-4, None, params, env, T.StepConfig(scheme=scheme))
        assert out.t == st.t + 1e-4
        for old, now in zip(before, (st.u, st.omega, st.k, st.p)):
            assert np.array_equal(old, now)


class TestRun:
    def test_degenerate_window(self):
        g, ic, env, st = homogeneous()
        traj = T.run(st, 0.0, None, PARAMS, env, T.StepConfig(), sample_every=0.1)
        assert len(traj.times) == 1 and traj.times[0] == 0.0

    def test_homogeneous_matches_closed_form(self):
        g, ic, env, st = homogeneous()
        traj = T.run(st, 2.0, None, PARAMS, env, T.StepConfig(dt_max=1e-3), 0.25)
        _, w_exact, k_exact = M.homogeneous_solution(2.0, ic, PARAMS)
        w = traj.states[-1].omega.flat[0]
        k = traj.states[-1].k.flat[0]
        assert abs(w - w_exact) / w_exact <= 1e-4
        assert abs(k - k_exact) / k_exact <= 1e-4

    def test_restartable_bitwise(self):
        g, ic, env, st = homogeneous()
        cfg = T.StepConfig(dt_max=1e-3)
        full = T.run(st, 2.0, None, PARAMS, env, cfg, 0.25)
        half = T.run(st, 1.0, None, PARAMS, env, cfg, 0.25)
        rest = T.run(half.states[-1], 2.0, None, PARAMS, env, cfg, 0.25)
        assert np.array_equal(full.states[-1].omega, rest.states[-1].omega)
        assert np.array_equal(full.states[-1].k, rest.states[-1].k)
        assert full.times[-1] == rest.times[-1]

    def test_sample_times_and_records(self):
        g, ic, env, st = homogeneous()
        traj = T.run(st, 1.0, None, PARAMS, env, T.StepConfig(dt_max=0.01), 0.25)
        np.testing.assert_allclose(traj.times, [0.0, 0.25, 0.5, 0.75, 1.0])
        assert len(traj.records) == 5
        assert traj.records[0].E_turb == pytest.approx(1.0)

    def test_kinetic_energy_monotone_without_forcing(self):
        g, st, env, params = structured_problem(n=16)
        for dtm in (2e-3, 1e-3):
            traj = T.run(st, 0.2, None, params, env, T.StepConfig(dt_max=dtm, guard=False), 0.01)
            e = [r.E_kin for r in traj.records]
            worst_rise = max(e[i + 1] - e[i] for i in range(len(e) - 1))
            assert worst_rise <= 1e-12 * e[0]

    def test_guard_stays_quiet_on_resolved_run(self):
        # saturated envelopes, resolved fields: the guard must never fire
        g, st, env, params = structured_problem(n=16)
        traj = T.run(st, 0.2, None, params, env, T.StepConfig(guard=True), 0.02)
        assert sum(r.guard_activations for r in traj.records) == 0

    def test_three_dimensional_regularized_run(self):
        params = regularized_params()
        L = 2 * np.pi
        g = F.Grid(3, 12, L)
        x, y, z = g.coords()
        u = np.stack(
            [0.3 * np.sin(2 * np.pi * y / L), 0.3 * np.sin(2 * np.pi * z / L),
             0.3 * np.sin(2 * np.pi * x / L)],
        )
        u, _ = F.leray_project(g, u)
        om = 1.0 + 0.1 * np.cos(2 * np.pi * x / L)
        kk = 1.0 + 0.1 * np.sin(2 * np.pi * y / L)
        env = M.ComparisonEnvelope(omega_star=float(om.min()), omega_sup=float(om.max()),
                                   k_star=float(kk.min()))
        st = M.State(t=0.0, grid=g, u=u, omega=om, k=kk, p=const(g, 0.0))
        traj = T.run(st, 0.1, None, params, env, T.StepConfig(guard=False), 0.025)
        final = traj.states[-1]
        assert np.abs(F.divergence(g, final.u)).max() <= 1e-12
        assert traj.records[-1].envelope_violation_omega_low == 0.0

    def test_rothe_scheme_through_run(self):
        params = regularized_params()
        g, st, env, _ = structured_problem(n=16)
        cfg_r = T.StepConfig(scheme="rothe_picard", guard=False)
        cfg_e = T.StepConfig(guard=False)
        traj_r = T.run(st, 0.1, None, params, env, cfg_r, 0.025)
        traj_e = T.run(st, 0.1, None, params, env, cfg_e, 0.025)
        d = np.abs(traj_r.states[-1].omega - traj_e.states[-1].omega).max()
        assert d <= 1e-2  # first- vs second-order schemes at the CFL step size
        assert traj_r.times[-1] == 0.1


class TestForcingAndRetry:
    def test_time_dependent_forcing_callback(self):
        # du = f(t) for a resting homogeneous state; Heun integrates the ramp
        # f(t) = (t, 0) exactly, so u1(dt) = dt^2 / 2
        g = F.Grid(2, 8, 1.0)
        ic = M.HomogeneousIC(u_const=(0.0, 0.0), omega0=1.0, k0=1.0)
        env = M.ComparisonEnvelope(omega_star=1.0, omega_sup=1.0, k_star=1.0)
        st = M.homogeneous_state(g, ic, PARAMS)

        def forcing(t):
            return const_vector(g, [t, 0.0])

        dt = 0.25
        out = T.step_explicit(st, dt, forcing, PARAMS, env, T.StepConfig())
        assert out.u[0].flat[0] == pytest.approx(dt * dt / 2.0, rel=1e-12)

    def test_run_retries_with_halved_dt(self, monkeypatch):
        g, ic, env, st = homogeneous()
        attempts = []
        real_step = T.step_explicit

        def flaky(state, dt, forcing, params, env_, cfg, **stage1):
            attempts.append(dt)
            if len(attempts) < 3:
                raise StepRejected("synthetic rejection")
            return real_step(state, dt, forcing, params, env_, cfg, **stage1)

        monkeypatch.setattr(T, "step_explicit", flaky)
        traj = T.run(st, 0.2, None, PARAMS, env, T.StepConfig(dt_max=0.2), 0.2)
        assert attempts[1] == attempts[0] / 2 and attempts[2] == attempts[0] / 4
        assert traj.times[-1] == 0.2  # still reaches t_end after the retries
        assert traj.rejected_attempts == 2


class _Stop(Exception):
    pass


STAGE1_CASES = [(1, True, False), (2, True, True), (3, True, False), (2, False, True),
                (3, False, True)]


class TestStageOneSharing:
    """run evaluates stage 1 once: it sets the CFL step and serves every attempt."""

    @pytest.mark.parametrize("dim,regularized,forced", STAGE1_CASES)
    def test_stage_one_cfl_equals_cfl_dt(self, dim, regularized, forced, monkeypatch):
        st, env, params, forcing = perturbed_problem(dim, regularized, forced)
        cfg = T.StepConfig()
        seen = []

        def record_dt(state, dt, forcing_, params_, env_, cfg_, **stage1):
            seen.append(dt)
            raise _Stop

        monkeypatch.setattr(T, "step_explicit", record_dt)
        with pytest.raises(_Stop):
            T.run(st, 10.0, forcing, params, env, cfg, 10.0)
        assert seen == [T.cfl_dt(st, params, cfg)]

    @pytest.mark.parametrize("dim,regularized,forced", STAGE1_CASES)
    def test_handed_in_rates_give_the_same_bits(self, dim, regularized, forced):
        st, env, params, forcing = perturbed_problem(dim, regularized, forced)
        cfg = T.StepConfig()
        dt = T.cfl_dt(st, params, cfg)
        plain = T.step_explicit(st, dt, forcing, params, env, cfg)
        rates = M.rhs(st, st.t, forcing, params, env)
        shared = T.step_explicit(st, dt, forcing, params, env, cfg, rates=rates)
        for name in ("u", "omega", "k", "p"):
            assert np.array_equal(getattr(plain, name), getattr(shared, name))
        assert plain.t == shared.t and plain.guard_hits == shared.guard_hits

    def test_retries_reuse_stage_one_rates(self, monkeypatch):
        st, env, params, forcing = perturbed_problem(2, True, True)
        cfg = T.StepConfig()
        real_step, real_rhs = T.step_explicit, M.rhs
        handed, rhs_calls = [], []

        def flaky(state, dt, forcing_, params_, env_, cfg_, *, rates=None):
            handed.append(rates)
            if len(handed) < 3:
                raise StepRejected("synthetic rejection")
            return real_step(state, dt, forcing_, params_, env_, cfg_, rates=rates)

        def counting_rhs(*args, **kwargs):
            rhs_calls.append(args[0].t)
            return real_rhs(*args, **kwargs)

        monkeypatch.setattr(T, "step_explicit", flaky)
        monkeypatch.setattr(M, "rhs", counting_rhs)
        t_end = 0.5 * T.cfl_dt(st, params, cfg)
        traj = T.run(st, t_end, forcing, params, env, cfg, t_end)
        # the step at dt/4 is accepted; a second, fresh step then reaches t_end
        assert len(handed) == 4 and handed[0] is not None
        assert handed[1] is handed[0] and handed[2] is handed[0] and handed[3] is not handed[0]
        assert rhs_calls == [0.0, t_end / 4, t_end / 4, t_end]  # two per accepted step
        assert traj.rejected_attempts == 2


class TestStencilCount:
    """Each stencil of an explicit step is evaluated once; a duplicate pass shows here.

    The counts are fields._diff (differences) and fields._next (face
    averages) calls in one step, CFL step included: two right-hand sides (the
    second shares nothing with the first) and two projections.  They are upper
    bounds, so a further saving passes; today a step takes exactly 64 `_diff`
    and 20 `_next` calls at 2D regularized, 72 and 6 at 3D unregularized.
    """

    @pytest.mark.parametrize("dim,regularized,diffs,nexts", [(2, True, 64, 20), (3, False, 72, 6)],
                             ids=["2d_regularized", "3d_plain"])
    def test_stencil_calls_per_explicit_step(self, dim, regularized, diffs, nexts, monkeypatch):
        st, env, params, forcing = perturbed_problem(dim, regularized, not regularized)
        cfg = T.StepConfig()
        t_end = 0.5 * T.cfl_dt(st, params, cfg)  # one step, two records
        calls = []
        for name in ("_diff", "_next"):
            def counting(*args, _real=getattr(F, name), _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(F, name, counting)
        D.record(st, forcing, params, env)
        per_record = {name: calls.count(name) for name in ("_diff", "_next")}
        calls.clear()
        T.run(st, t_end, forcing, params, env, cfg, t_end)
        assert calls.count("_diff") - 2 * per_record["_diff"] <= diffs
        assert calls.count("_next") - 2 * per_record["_next"] <= nexts


class TestRothe:
    def test_oracle_fixed_point(self):
        params = regularized_params()
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

        w1 = bisect(lambda w: w - 1.0 + dt * (a1 * w * w + eps * abs(w) ** (r - 2) * w - eps * olow ** (r - 1)), 0.1, 1.5)
        k1 = bisect(lambda k: k - 1.0 + dt * (a2 * k * w1 + eps * abs(k) ** (r - 2) * k - eps * kap ** (r - 1)), 0.1, 1.5)

        out = T.step_rothe(st, dt, None, params, env, T.StepConfig(scheme="rothe_picard"))
        assert abs(out.omega.flat[0] - w1) <= 1e-9
        assert abs(out.k.flat[0] - k1) <= 1e-9

        # residual vanishes at the oracle point
        cand = M.State(
            t=dt,
            grid=g,
            u=zero_vector(g),
            omega=const(g, w1),
            k=const(g, k1),
            p=const(g, 0.0),
        )
        _, rom, rk = T.operator_apply(cand, st, dt, None, params, env)
        assert np.abs(rom).max() <= 1e-12
        assert np.abs(rk).max() <= 1e-12

    def test_zero_dt_identity(self):
        params = regularized_params()
        g, ic, env, st = homogeneous()
        out = T.step_rothe(st, 0.0, None, params, env, T.StepConfig(scheme="rothe_picard"))
        assert out.t == st.t
        assert np.array_equal(out.omega, st.omega)

    def test_agrees_with_explicit_at_second_order(self):
        params = regularized_params()
        g, st, env, _ = structured_problem(n=16)
        diffs = {}
        for dt in (2e-4, 1e-4):
            se = T.step_explicit(st, dt, None, params, env, T.StepConfig(guard=False))
            sr = T.step_rothe(
                st, dt, None, params, env,
                T.StepConfig(scheme="rothe_picard", guard=False, picard_tol=1e-13),
            )
            diffs[dt] = max(
                np.abs(se.omega - sr.omega).max(),
                np.abs(se.k - sr.k).max(),
                max(np.abs(a - b).max() for a, b in zip(se.u, sr.u)),
            )
        ratio = diffs[2e-4] / diffs[1e-4]
        assert 4.0 * 0.7 <= ratio <= 4.0 * 1.3

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow en route to divergence
    def test_diverges_loudly_for_huge_dt(self):
        params = regularized_params()
        g, st, env, _ = structured_problem(n=16)
        with pytest.raises(PicardDiverged):
            T.step_rothe(st, 50.0, None, params, env,
                         T.StepConfig(scheme="rothe_picard", picard_max_iters=30))

    def test_requires_regularized(self):
        g, ic, env, st = homogeneous()
        with pytest.raises(ValueError):
            T.operator_apply(st, st, 0.1, None, PARAMS, env)


class TestOperatorApply:
    def test_zero_state_residual_is_source_only(self):
        params = regularized_params()
        g = F.Grid(2, 8, 1.0)
        env = M.ComparisonEnvelope(omega_star=0.8, omega_sup=1.2, k_star=0.9)
        zero = M.State(
            t=0.0,
            grid=g,
            u=zero_vector(g),
            omega=const(g, 0.0),
            k=const(g, 0.0),
            p=const(g, 0.0),
        )
        ru, rom, rk = T.operator_apply(zero, zero, math.inf, None, params, env)
        src_om = params.eps * M.omega_lower(0.0, env, params) ** (params.r - 1.0)
        src_k = params.eps * M.kappa(0.0, env, params) ** (params.r - 1.0)
        for c in ru:
            assert np.abs(c).max() == 0.0
        np.testing.assert_allclose(rom, -src_om, rtol=1e-13)
        np.testing.assert_allclose(rk, -src_k, rtol=1e-13)

    def test_r_coercivity_spot_check(self, rng):
        # qualitative: <U, A(U)> >= eps 2^(2-r) ||U||_{W^{1,r}}^r - C, C fitted once
        params = M.ModelParams(alpha1=1.0, alpha2=10.0 / 7.0, eps=1e-2, r=3.5, regularized=True)
        env = M.ComparisonEnvelope(omega_star=0.5, omega_sup=1.5, k_star=0.5)
        g = F.Grid(2, 16, 1.0)
        r = params.r
        fitted_C = 1.0
        for _ in range(10):
            u = np.stack([rng.standard_normal(g.shape) for _ in range(2)])
            u, _ = F.leray_project(g, u)
            om = rng.uniform(0.2, 2.0, g.shape)
            kk = rng.uniform(0.2, 2.0, g.shape)
            st = M.State(t=0.3, grid=g, u=u, omega=om, k=kk, p=const(g, 0.0))
            ru, rom, rk = T.operator_apply(st, st, math.inf, None, params, env)
            src_om = params.eps * M.omega_lower(st.t, env, params) ** (r - 1)
            src_k = params.eps * M.kappa(st.t, env, params) ** (r - 1)
            hd = g.h**g.dim
            lhs = sum(hd * np.sum(uc * rc) for uc, rc in zip(u, ru))
            lhs += hd * np.sum(om * (rom + src_om))
            lhs += hd * np.sum(kk * (rk + src_k))
            norm = sum(
                F.w1p_seminorm(g, f, r) ** r + F.lp_norm(g, f, r) ** r
                for f in (*u, om, kk)
            )
            assert lhs >= params.eps * 2.0 ** (2.0 - r) * norm - fitted_C
