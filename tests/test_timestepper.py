"""Explicit and Rothe stepping, CFL logic, sampled runs."""

import collections
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    const,
    const_vector,
    perturbed_problem,
    records_of,
    regularized_params,
    stage_one_cfl_dt,
    states_of,
    structured_problem,
    zero_vector,
)

from kolmobox import diagnostics as D
from kolmobox import fields as F
from kolmobox import model as M
from kolmobox import timestepper as T
from kolmobox.errors import EnvelopeViolated, IncompatibleGrid, PicardDiverged, StepRejected

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
        dt = stage_one_cfl_dt(st, None, PARAMS, env, cfg)
        assert dt == pytest.approx(0.4 * g.h**2 / (2 * 1 * nu * 2.0))

    def test_halving_h_quarters_diffusive_dt(self):
        _, _, env, st8 = homogeneous(n=8)
        _, _, _, st16 = homogeneous(n=16)
        cfg = T.StepConfig()
        dt8 = stage_one_cfl_dt(st8, None, PARAMS, env, cfg)
        assert dt8 / stage_one_cfl_dt(st16, None, PARAMS, env, cfg) == pytest.approx(4.0)

    def test_advective_limit_dominates(self):
        g = F.Grid(1, 8, 1.0)
        st = M.State(
            t=0.0,
            grid=g,
            u=const_vector(g, [10.0]),
            omega=const(g, 1.0),
            k=const(g, 1e-8),  # negligible diffusivity
        )
        env = M.ComparisonEnvelope(omega_star=1.0, omega_sup=1.0, k_star=1e-8)
        dt = stage_one_cfl_dt(st, None, PARAMS, env, T.StepConfig(cfl_safety=0.4))
        assert dt == pytest.approx(0.4 * g.h / 10.0, rel=1e-6)

    def test_dt_max_cap(self):
        _, _, env, st = homogeneous()
        cfg = T.StepConfig(dt_max=1e-9)
        assert stage_one_cfl_dt(st, None, PARAMS, env, cfg) == 1e-9


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
        dt = stage_one_cfl_dt(st, None, params, env, T.StepConfig())
        out = T.step_explicit(st, dt, None, params, env, T.StepConfig())
        assert np.abs(F.divergence(g, out.u)).max() <= 1e-12 * (1.0 + np.abs(out.u).max())

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the trigger
    def test_nonfinite_rejected(self):
        g, st, env, params = structured_problem(n=16)
        with pytest.raises(StepRejected):
            T.step_explicit(st, 1e120, None, params, env, T.StepConfig())

    def test_guard_rejects_a_stage_below_its_envelope(self):
        # start below the lower envelope so the guard must act
        g = F.Grid(1, 8, 1.0)
        env = M.ComparisonEnvelope(omega_star=1.0, omega_sup=1.0, k_star=1.0)
        st = M.State(
            t=0.0,
            grid=g,
            u=zero_vector(g),
            omega=const(g, 0.5),
            k=const(g, 0.5),
        )
        dt = 1e-3
        with pytest.raises(EnvelopeViolated, match=r"^omega falls to 0\.49975\d*, below its guard level"):
            T.step_explicit(st, dt, None, PARAMS, env, T.StepConfig(guard=True))
        out2 = T.step_explicit(st, dt, None, PARAMS, env, T.StepConfig(guard=False))
        assert out2.guard_hits == 0
        assert out2.omega.min() < M.omega_lower(dt, env, PARAMS) * 0.95


class TestInputStateUnchanged:
    @pytest.mark.parametrize("scheme", ["explicit_rk2", "rothe_picard"])
    def test_step_leaves_input_arrays_bit_identical(self, scheme):
        params = regularized_params()
        g, st, env, _ = structured_problem(n=16)
        before = [a.copy() for a in (st.u, st.omega, st.k)]
        step = T.step_explicit if scheme == "explicit_rk2" else T.step_rothe
        out = step(st, 1e-4, None, params, env, T.StepConfig(scheme=scheme))
        assert out.t == st.t + 1e-4
        for old, now in zip(before, (st.u, st.omega, st.k)):
            assert np.array_equal(old, now)


class TestRun:
    def test_degenerate_window(self):
        g, ic, env, st = homogeneous()
        samples = T.run(st, 0.0, None, PARAMS, env, T.StepConfig(), sample_every=0.1)
        assert len(samples) == 1 and samples[0][0].t == 0.0

    def test_homogeneous_matches_closed_form(self):
        g, ic, env, st = homogeneous()
        final = T.run(st, 2.0, None, PARAMS, env, T.StepConfig(dt_max=1e-3), 0.25)[-1][0]
        _, w_exact, k_exact = M.homogeneous_solution(2.0, ic, PARAMS)
        w = final.omega.flat[0]
        k = final.k.flat[0]
        assert abs(w - w_exact) / w_exact <= 1e-4
        assert abs(k - k_exact) / k_exact <= 1e-4

    def test_restartable_bitwise(self):
        g, ic, env, st = homogeneous()
        cfg = T.StepConfig(dt_max=1e-3)
        full = T.run(st, 2.0, None, PARAMS, env, cfg, 0.25)[-1][0]
        half = T.run(st, 1.0, None, PARAMS, env, cfg, 0.25)[-1][0]
        rest = T.run(half, 2.0, None, PARAMS, env, cfg, 0.25)[-1][0]
        assert np.array_equal(full.omega, rest.omega)
        assert np.array_equal(full.k, rest.k)
        assert full.t == rest.t

    def test_sample_times_and_records(self):
        g, ic, env, st = homogeneous()
        samples = T.run(st, 1.0, None, PARAMS, env, T.StepConfig(dt_max=0.01), 0.25)
        np.testing.assert_allclose([s.t for s in states_of(samples)], [0.0, 0.25, 0.5, 0.75, 1.0])
        records = records_of(samples)
        assert [r.t for r in records] == [s.t for s in states_of(samples)]
        assert len(records) == 5
        assert records[0].E_turb == pytest.approx(1.0)

    @pytest.mark.parametrize("t0, t_end, sample_every", [
        (0.0, 2.0, 0.25),  # the CLI tests' HOMOG config, with its dt_max
        (0.0, 1.0000001, 0.5),
        (0.0, 2e-6, 2.5e-7),
        (0.0, 1.0, 0.3),  # t_end is not a multiple of sample_every
        (0.0, 0.0, 0.1),
        (0.7, 1.9, 0.25),  # a restarted segment
    ], ids=["homog", "close_final_sample", "sub_microsecond", "ragged_end", "empty", "restart"])
    def test_schedule_is_the_run_times(self, t0, t_end, sample_every):
        g, ic, env, st = homogeneous()
        st = replace(st, t=t0)
        samples = T.run(st, t_end, None, PARAMS, env, T.StepConfig(dt_max=0.01), sample_every)
        assert T.sample_times(t0, t_end, sample_every) == [s.t for s in states_of(samples)]

    def test_a_step_of_the_whole_distance_lands_on_the_boundary(self):
        # t0 + (b - t0) rounds to 1.0 here, an ulp short of b; the step must still end at b
        t0, b = 2.0**-53, 1.0 + 2.0**-52
        assert t0 + (b - t0) != b
        g = F.Grid(1, 4, 1000.0)  # a box so wide that the CFL step exceeds b - t0
        # weak sinks, so one step of about 1 keeps omega and k above the guard levels
        params = replace(PARAMS, alpha1=0.1, alpha2=0.1)
        ic = M.HomogeneousIC(u_const=(0.0,), omega0=1.0, k0=1.0)
        st = M.homogeneous_state(g, ic, params, t=t0)
        env = M.ComparisonEnvelope(omega_star=1.0, omega_sup=1.0, k_star=1.0)
        state, rejected, _ = T._advance(st, b, None, params, env, T.StepConfig())
        assert (state.t, rejected, state.guard_hits) == (b, 0, 0)

    def test_a_dt_that_cannot_advance_t_raises(self, monkeypatch):
        # floats near 2^60 are 256 apart, so t + dt_max rounds back to t and no step advances it
        attempts = []
        real = T.step_explicit

        def counted(*args, **kwargs):
            attempts.append(1)
            assert len(attempts) < 100, "steps that leave t in place"
            return real(*args, **kwargs)

        monkeypatch.setattr(T, "step_explicit", counted)
        ic = M.HomogeneousIC(u_const=(0.0,), omega0=1.0, k0=1.0)
        st = M.homogeneous_state(F.Grid(1, 4, 1.0), ic, PARAMS, t=2.0**60)
        env = M.ComparisonEnvelope(omega_star=1.0, omega_sup=1.0, k_star=1.0)
        with pytest.raises(StepRejected, match=r"^dt = 0\.001 does not advance t = 1\.15292"):
            T.run(st, 2.0**60 + 1024, None, PARAMS, env, T.StepConfig(dt_max=1e-3), 512.0)
        assert not attempts

    def test_kinetic_energy_monotone_without_forcing(self):
        g, st, env, params = structured_problem(n=16)
        for dtm in (2e-3, 1e-3):
            samples = T.run(st, 0.2, None, params, env, T.StepConfig(dt_max=dtm, guard=False), 0.01)
            e = [r.E_kin for r in records_of(samples)]
            worst_rise = max(e[i + 1] - e[i] for i in range(len(e) - 1))
            assert worst_rise <= 1e-12 * e[0]

    def test_guard_stays_quiet_on_resolved_run(self):
        # saturated envelopes, resolved fields: the guard must never fire
        g, st, env, params = structured_problem(n=16)
        samples = T.run(st, 0.2, None, params, env, T.StepConfig(guard=True), 0.02)
        assert sum(r.guard_activations for r in records_of(samples)) == 0

    def test_guard_retries_a_stiff_decay_instead_of_clamping_it(self):
        # omega0 = 100: Heun's first stage at the diffusive step drives omega below its
        # envelope; each such attempt is rejected and retried, so omega keeps the closed form
        g, ic, env, st = homogeneous(omega0=100.0)
        worst, hits = 0.0, 0
        for state, rec, _ in T.samples(st, 1.0, None, PARAMS, env, T.StepConfig(), 0.02):
            _, w_exact, _ = M.homogeneous_solution(state.t, ic, PARAMS)
            worst = max(worst, float(np.abs(state.omega - w_exact).max()) / w_exact)
            hits += rec.guard_activations
        assert worst <= 0.02
        assert hits > 0

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
        st = M.State(t=0.0, grid=g, u=u, omega=om, k=kk)
        final, rec, _ = T.run(st, 0.1, None, params, env, T.StepConfig(guard=False), 0.025)[-1]
        assert np.abs(F.divergence(g, final.u)).max() <= 1e-12
        assert rec.envelope_violation_omega_low == 0.0

    def test_rothe_scheme_through_run(self):
        params = regularized_params()
        g, st, env, _ = structured_problem(n=16)
        cfg_r = T.StepConfig(scheme="rothe_picard", guard=False)
        cfg_e = T.StepConfig(guard=False)
        final_r = T.run(st, 0.1, None, params, env, cfg_r, 0.025)[-1][0]
        final_e = T.run(st, 0.1, None, params, env, cfg_e, 0.025)[-1][0]
        d = np.abs(final_r.omega - final_e.omega).max()
        assert d <= 1e-2  # first- vs second-order schemes at the CFL step size
        assert final_r.t == 0.1


class TestRegularizationLimit:
    """A regularized run tends to the unregularized one as eps -> 0, at first order."""

    @pytest.mark.parametrize("dim, n", [(2, 16), (3, 8)])
    def test_gap_shrinks_tenfold_per_decade_of_eps(self, dim, n):
        # the ratios per decade from eps = 1e-1 are 7.48, 9.66, 9.96 in 2D and 9.38, 9.93,
        # 9.99 in 3D; the CFL step's eps term is part of each run
        st, env, params, _ = perturbed_problem(dim, False, False, n=n)
        cfg = T.StepConfig(guard=False)
        limit = T.run(st, 0.1, None, params, env, cfg, 0.1)[-1][0]
        gaps = []
        for eps in (1e-1, 1e-2, 1e-3, 1e-4):
            final = T.run(st, 0.1, None, regularized_params(r=3.2, eps=eps), env, cfg, 0.1)[-1][0]
            gaps.append(max(float(np.abs(getattr(final, name) - getattr(limit, name)).max())
                            for name in ("u", "omega", "k")))
        ratios = [coarse / fine for coarse, fine in zip(gaps, gaps[1:])]
        assert all(7.0 <= ratio <= 13.0 for ratio in ratios[1:]), ratios


class TestForcingAndRetry:
    @pytest.mark.parametrize("kind", ["scalar_field", "callable"])
    def test_run_rejects_forcing_not_shaped_like_u(self, kind):
        # a scalar-field forcing would broadcast onto every velocity component,
        # and forcing is a constant array, not a function of t
        st, env, params, forcing = perturbed_problem(2, False, True)
        bad = forcing[0] if kind == "scalar_field" else (lambda t: forcing)
        with pytest.raises(IncompatibleGrid):
            T.run(st, 0.2, bad, params, env, T.StepConfig(), 0.05)

    def test_forced_run_applies_its_forcing_at_each_sample(self):
        st, env, params, forcing = perturbed_problem(2, False, True)
        samples = T.run(st, 0.1, forcing, params, env, T.StepConfig(), 0.05)
        assert [s.t for s in states_of(samples)] == [0.0, 0.05, 0.1]
        assert all(r.power_in != 0.0 for r in records_of(samples))
        unforced = T.run(st, 0.1, None, params, env, T.StepConfig(), 0.05)
        assert all(r.power_in == 0.0 for r in records_of(unforced))

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
        samples = T.run(st, 0.2, None, PARAMS, env, T.StepConfig(dt_max=0.2), 0.2)
        assert attempts[1] == attempts[0] / 2 and attempts[2] == attempts[0] / 4
        assert samples[-1][0].t == 0.2  # still reaches t_end after the retries
        assert sum(rejected for *_, rejected in samples) == 2


class _Stop(Exception):
    pass


STAGE1_CASES = [(1, True, False), (2, True, True), (3, True, False), (2, False, True),
                (3, False, True)]


class TestStageOneSharing:
    """run evaluates stage 1 at most once per step, whatever the scheme: it sets the
    CFL step and serves every attempt.  A Rothe step's stage 1 is the `rhs` of the
    previous step's converged iterate, handed over, unless that step was snapped to
    its sample boundary."""

    @staticmethod
    def first_dt(scheme, dim, regularized, forced, monkeypatch):
        """(dt of run's first step attempt, cfl_dt of the initial state's stage 1)."""
        st, env, params, forcing = perturbed_problem(dim, regularized, forced)
        cfg = T.StepConfig(scheme=scheme)
        seen = []

        def record_dt(state, dt, forcing_, params_, env_, cfg_, **stage1):
            seen.append(dt)
            raise _Stop

        monkeypatch.setattr(T, "step_explicit" if scheme == "explicit_rk2" else "step_rothe",
                            record_dt)
        with pytest.raises(_Stop):
            T.run(st, 10.0, forcing, params, env, cfg, 10.0)
        return seen, [stage_one_cfl_dt(st, forcing, params, env, cfg)]

    @pytest.mark.parametrize("dim,regularized,forced", STAGE1_CASES)
    def test_stage_one_cfl_equals_cfl_dt(self, dim, regularized, forced, monkeypatch):
        seen, expected = self.first_dt("explicit_rk2", dim, regularized, forced, monkeypatch)
        assert seen == expected

    @pytest.mark.parametrize("dim,regularized,forced", [c for c in STAGE1_CASES if c[1]])
    def test_rothe_stage_one_cfl_equals_cfl_dt(self, dim, regularized, forced, monkeypatch):
        seen, expected = self.first_dt("rothe_picard", dim, regularized, forced, monkeypatch)
        assert seen == expected

    @pytest.mark.parametrize("dim,regularized,forced", STAGE1_CASES)
    def test_handed_in_rates_give_the_same_bits(self, dim, regularized, forced):
        st, env, params, forcing = perturbed_problem(dim, regularized, forced)
        cfg = T.StepConfig()
        dt = stage_one_cfl_dt(st, forcing, params, env, cfg)
        plain = T.step_explicit(st, dt, forcing, params, env, cfg)
        rates = M.rhs(st, forcing, params, env)
        shared = T.step_explicit(st, dt, forcing, params, env, cfg, rates=rates)
        for name in ("u", "omega", "k"):
            assert np.array_equal(getattr(plain, name), getattr(shared, name))
        assert plain.t == shared.t and plain.guard_hits == shared.guard_hits

    def test_retries_reuse_stage_one_rates(self, monkeypatch):
        st, env, params, forcing = perturbed_problem(2, True, True)
        cfg = T.StepConfig()
        t_end = 0.5 * stage_one_cfl_dt(st, forcing, params, env, cfg)
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
        samples = T.run(st, t_end, forcing, params, env, cfg, t_end)
        # the step at dt/4 is accepted; a second, fresh step then reaches t_end
        assert len(handed) == 4 and handed[0] is not None
        assert handed[1] is handed[0] and handed[2] is handed[0] and handed[3] is not handed[0]
        assert rhs_calls == [0.0, t_end / 4, t_end / 4, t_end]  # two per accepted step
        assert sum(rejected for *_, rejected in samples) == 2

    def test_rothe_retries_reuse_stage_one_rates(self, monkeypatch):
        st, env, params, forcing = perturbed_problem(2, True, True)
        cfg = T.StepConfig(scheme="rothe_picard")
        t_end = 0.5 * stage_one_cfl_dt(st, forcing, params, env, cfg)
        real_step, real_rhs = T.step_rothe, M.rhs
        handed, rhs_calls = [], []

        def flaky(state, dt, forcing_, params_, env_, cfg_, *, rates=None, **handover):
            handed.append(rates)
            if len(handed) < 3:
                raise PicardDiverged("synthetic divergence")
            return real_step(state, dt, forcing_, params_, env_, cfg_, rates=rates, **handover)

        def counting_rhs(*args, **kwargs):
            rhs_calls.append(args[0].t)
            return real_rhs(*args, **kwargs)

        monkeypatch.setattr(T, "step_rothe", flaky)
        monkeypatch.setattr(M, "rhs", counting_rhs)
        samples = T.run(st, t_end, forcing, params, env, cfg, t_end)
        # the step at dt/4 is accepted; a second, fresh step then reaches t_end
        assert len(handed) == 4 and handed[0] is not None
        assert handed[1] is handed[0] and handed[2] is handed[0] and handed[3] is not handed[0]
        # stage 1 of each step is its only rhs at the step's start; the Picard
        # residuals are taken at the step's end
        assert rhs_calls.count(0.0) == 1 and rhs_calls.count(t_end / 4) >= 2
        assert sum(rejected for *_, rejected in samples) == 2

    def test_rothe_hands_over_the_rhs_of_the_accepted_state(self):
        st, env, params, forcing = perturbed_problem(2, True, True)
        cfg = T.StepConfig(scheme="rothe_picard")
        new, _, handover = T._advance(st, math.inf, forcing, params, env, cfg)
        limits = []
        fresh = M.rhs(new, forcing, params, env, limits=limits)
        rates, handed_limits, defect = handover
        assert all(np.array_equal(a, b) for a, b in zip(rates, fresh))
        assert handed_limits == limits
        assert defect[1] == new.t - st.t
        # so a step from the handed-over stage 1 is the step from a fresh one, bit for bit
        handed = T._advance(new, math.inf, forcing, params, env, cfg, handover)
        own = T._advance(new, math.inf, forcing, params, env, cfg, (fresh, limits, defect))
        for name in ("t", "u", "omega", "k"):
            assert np.array_equal(getattr(handed[0], name), getattr(own[0], name))
        assert T._advance(st, math.inf, forcing, params, env, T.StepConfig())[2] is None

    def test_the_handed_over_defect_moves_only_the_path(self, monkeypatch):
        # the defect starts the iteration nearer its fixed point: fewer iterates, and a
        # state that differs from the one reached without it only within the tolerance
        st, env, params, forcing = perturbed_problem(2, True, True)
        cfg = T.StepConfig(scheme="rothe_picard")
        state, handover = st, None
        for _ in range(3):
            state, _, handover = T._advance(state, math.inf, forcing, params, env, cfg, handover)
        rates, limits, defect = handover
        assert np.abs(defect[0]).max() > 0.0
        calls = []
        real_apply = T.operator_apply
        monkeypatch.setattr(T, "operator_apply",
                            lambda *a, **kw: calls.append(None) or real_apply(*a, **kw))

        def step(given):
            calls.clear()
            new = T._advance(state, math.inf, forcing, params, env, cfg, (rates, limits, given))
            return new[0], len(calls)

        (a, n_with), (b, n_without) = step(defect), step(None)
        assert n_with < n_without
        assert a.t == b.t
        for name in ("u", "omega", "k"):
            x, y = getattr(a, name), getattr(b, name)
            assert np.abs(x - y).max() <= 1e-8 * np.abs(y).max()

    def test_rothe_run_is_restartable_bitwise(self):
        # a step that ends a sample hands over no defect, so the steps after a sample
        # depend on the sampled state alone, as they do in a run restarted from it
        st, env, params, forcing = perturbed_problem(2, True, True)
        cfg = T.StepConfig(scheme="rothe_picard")
        every = 0.15
        assert stage_one_cfl_dt(st, forcing, params, env, cfg) < every / 3
        full = T.run(st, 4 * every, forcing, params, env, cfg, every)[-1][0]
        half = T.run(st, 2 * every, forcing, params, env, cfg, every)[-1][0]
        rest = T.run(half, 4 * every, forcing, params, env, cfg, every)[-1][0]
        assert full.t == rest.t
        for name in ("u", "omega", "k"):
            assert np.array_equal(getattr(full, name), getattr(rest, name))

    @staticmethod
    def wide_box_from_an_ulp_past_zero():
        """A 1D homogeneous Rothe problem at t0 = 2^-53 and boundaries (b, 2, 3), b = 1 + 2^-52.

        The first whole-distance step ends at t0 + (b - t0) = 1.0, an ulp short of
        b, so _advance snaps it to b; the later boundaries are reached exactly.
        Returns (state, forcing, params, env, cfg, boundaries).
        """
        t0, b = 2.0**-53, 1.0 + 2.0**-52
        assert t0 + (b - t0) != b
        g = F.Grid(1, 4, 1000.0)  # a box so wide that the CFL step exceeds each distance
        # weak sinks, so steps of about 1 keep omega and k above the guard levels
        params = replace(regularized_params(), alpha1=0.1, alpha2=0.1)
        ic = M.HomogeneousIC(u_const=(0.0,), omega0=1.0, k0=1.0)
        st = M.homogeneous_state(g, ic, params, t=t0)
        env = M.ComparisonEnvelope(omega_star=1.0, omega_sup=1.0, k_star=1.0)
        return st, None, params, env, T.StepConfig(scheme="rothe_picard"), [b, 2.0, 3.0]

    def test_a_snapped_rothe_step_hands_over_nothing(self):
        # the converged iterate's rhs was taken at 1.0, so it is no stage 1 for the state at b
        st, forcing, params, env, cfg, (b, *_) = self.wide_box_from_an_ulp_past_zero()
        state, rejected, handover = T._advance(st, b, forcing, params, env, cfg)
        assert (state.t, rejected, handover) == (b, 0, None)

    @pytest.mark.parametrize("case, snaps", [("perturbed_2d", 0), ("snapped_1d", 1)])
    def test_rothe_evaluates_rhs_once_per_iterate(self, case, snaps, monkeypatch):
        # stage 1 of the first step, then one rhs per operator_apply call; a step that
        # _advance snaps to its boundary drops the handed-over stage 1, because its time
        # moved, so the next step evaluates its own
        if case == "perturbed_2d":
            st, env, params, forcing = perturbed_problem(2, True, True)
            cfg = T.StepConfig(scheme="rothe_picard")
            boundaries = T.sample_times(0.0, 0.05, 0.003)[1:]
        else:
            st, forcing, params, env, cfg, boundaries = self.wide_box_from_an_ulp_past_zero()
        calls = collections.Counter()
        stepped, advanced = [], []
        real_rhs, real_apply, real_step = M.rhs, T.operator_apply, T.step_rothe

        def counted(name, fn):
            return lambda *a, **kw: calls.update([name]) or fn(*a, **kw)

        def step(*a, **kw):
            stepped.append(real_step(*a, **kw))
            return stepped[-1]

        monkeypatch.setattr(M, "rhs", counted("rhs", real_rhs))
        monkeypatch.setattr(T, "operator_apply", counted("apply", real_apply))
        monkeypatch.setattr(T, "step_rothe", step)
        state, handover = st, None
        for boundary in boundaries:  # the loop of timestepper.samples
            while state.t < boundary:
                state, _, handover = T._advance(state, boundary, forcing, params, env, cfg,
                                                handover)
                advanced.append((state, handover))
        snapped = sum(s.t != a.t for s, (a, _) in zip(stepped, advanced))
        assert len(stepped) == len(advanced) >= 3 and calls["apply"] >= 2 * len(stepped)
        assert snapped == [handed is None for _, handed in advanced].count(True) == snaps
        assert calls["rhs"] == 1 + calls["apply"] + snapped


class TestStencilCount:
    """Each stencil of an explicit step is evaluated once; a duplicate pass shows here.

    The count is of fields._diff calls, the one stencil walker (differences
    and face averages alike), in one step, CFL step included: two right-hand
    sides (the second shares nothing with the first) and two projections.  It
    is an upper bound, so a further saving passes; today a step takes exactly
    84 calls at 2D regularized, 78 at 3D unregularized, and 26 at 1D
    unregularized, the path of the homogeneous `decay` runs.
    """

    @pytest.mark.parametrize("dim,regularized,walks",
                             [(2, True, 84), (3, False, 78), (1, False, 26)],
                             ids=["2d_regularized", "3d_plain", "1d_plain"])
    def test_stencil_calls_per_explicit_step(self, dim, regularized, walks, monkeypatch):
        st, env, params, forcing = perturbed_problem(dim, regularized, not regularized)
        cfg = T.StepConfig()
        t_end = 0.5 * stage_one_cfl_dt(st, forcing, params, env, cfg)  # one step, two records
        calls = []
        real = F._diff
        monkeypatch.setattr(F, "_diff", lambda *a, **kw: calls.append(1) or real(*a, **kw))
        D.record(st, forcing, params, env)
        per_record = len(calls)
        calls.clear()
        T.run(st, t_end, forcing, params, env, cfg, t_end)
        assert len(calls) - 2 * per_record <= walks


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

    def test_agrees_with_explicit_at_second_order(self, monkeypatch):
        monkeypatch.setattr(T, "_PICARD_TOL", 1e-13)
        params = regularized_params()
        g, st, env, _ = structured_problem(n=16)
        diffs = {}
        for dt in (2e-4, 1e-4):
            se = T.step_explicit(st, dt, None, params, env, T.StepConfig(guard=False))
            sr = T.step_rothe(
                st, dt, None, params, env,
                T.StepConfig(scheme="rothe_picard", guard=False),
            )
            diffs[dt] = max(
                np.abs(se.omega - sr.omega).max(),
                np.abs(se.k - sr.k).max(),
                max(np.abs(a - b).max() for a, b in zip(se.u, sr.u)),
            )
        ratio = diffs[2e-4] / diffs[1e-4]
        assert 4.0 * 0.7 <= ratio <= 4.0 * 1.3

    def test_preconditioned_iterates_per_step(self, monkeypatch):
        # with the stiff diffusion preconditioned away this takes 7 residual
        # evaluations, the stage-1 rhs and 6 operator_apply calls; an update
        # damped by 0.7 takes 16
        params = regularized_params()
        g, st, env, _ = structured_problem(n=16)
        cfg = T.StepConfig(scheme="rothe_picard")
        dt = stage_one_cfl_dt(st, None, params, env, cfg)
        calls = []
        rhs = M.rhs
        monkeypatch.setattr(M, "rhs", lambda *a, **kw: calls.append(1) or rhs(*a, **kw))
        T.step_rothe(st, dt, None, params, env, cfg)
        assert len(calls) <= 8

    @pytest.mark.parametrize("n", [16, 32])
    def test_returned_state_meets_stopping_test(self, n):
        params = regularized_params()
        g, st, env, _ = structured_problem(n=n)
        cfg = T.StepConfig(scheme="rothe_picard", guard=False)
        dt = stage_one_cfl_dt(st, None, params, env, cfg)
        out = T.step_rothe(st, dt, None, params, env, cfg)
        ru, rom, rk = T.operator_apply(out, st, dt, None, params, env)
        ru_sol, _ = F.leray_project(g, ru)
        scale = (F.l2_norm(g, st.u) + F.l2_norm(g, [st.omega]) + F.l2_norm(g, [st.k])) / dt
        assert F.l2_norm(g, ru_sol) + F.l2_norm(g, [rom, rk]) <= T._PICARD_TOL * scale

    def test_divergence_stays_at_round_off_over_a_long_run(self):
        # every iterate's u is projected in Fourier space, from U_old's modes projected
        # again at each step, so the divergence of the accepted states does not build up
        params = regularized_params()
        g, st, env, _ = structured_problem(n=16)
        cfg = T.StepConfig(scheme="rothe_picard", guard=False)
        state, handover, divs = st, None, []
        for _ in range(300):
            state, _, handover = T._advance(state, math.inf, None, params, env, cfg, handover)
            div = float(np.abs(F.divergence(g, state.u)).max())
            assert div <= 1e-13 * (1.0 + np.abs(state.u).max())
            divs.append(div)
        assert max(divs[-50:]) <= 4.0 * max(divs[:50])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow en route to divergence
    def test_diverges_loudly_for_huge_dt(self, monkeypatch):
        monkeypatch.setattr(T, "_PICARD_MAX_ITERS", 30)
        params = regularized_params()
        g, st, env, _ = structured_problem(n=16)
        with pytest.raises(PicardDiverged):
            T.step_rothe(st, 50.0, None, params, env, T.StepConfig(scheme="rothe_picard"))

    def test_small_r_warns(self):
        # only the implicit mode warns for r <= 3, and the warning names its caller's file
        g, ic, env, st = homogeneous()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            params = regularized_params(r=2.5)
            T.step_explicit(st, 0.01, None, params, env, T.StepConfig())
        with pytest.warns(UserWarning, match=r"r = 2\.5 <= 3; the implicit mode") as caught:
            T.step_rothe(st, 0.01, None, params, env, T.StepConfig(scheme="rothe_picard"))
        assert [w.filename for w in caught] == [__file__]

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
        )
        ru, rom, rk = (-r for r in M.rhs(zero, None, params, env))  # A(U) - F
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

        def w1r_norm_to_the_r(f):  # ||f||_{L^r}^r + ||grad f||_{L^r}^r
            grad = F.partials(g, f)
            return (F.integrate(g, np.abs(f) ** r)
                    + F.integrate(g, F.pointwise_dot(grad, grad) ** (r / 2.0)))

        for _ in range(10):
            u = np.stack([rng.standard_normal(g.shape) for _ in range(2)])
            u, _ = F.leray_project(g, u)
            om = rng.uniform(0.2, 2.0, g.shape)
            kk = rng.uniform(0.2, 2.0, g.shape)
            st = M.State(t=0.3, grid=g, u=u, omega=om, k=kk)
            ru, rom, rk = (-r for r in M.rhs(st, None, params, env))  # A(U) - F
            src_om = params.eps * M.omega_lower(st.t, env, params) ** (r - 1)
            src_k = params.eps * M.kappa(st.t, env, params) ** (r - 1)
            hd = g.h**g.dim
            lhs = sum(hd * np.sum(uc * rc) for uc, rc in zip(u, ru))
            lhs += hd * np.sum(om * (rom + src_om))
            lhs += hd * np.sum(kk * (rk + src_k))
            norm = sum(w1r_norm_to_the_r(f) for f in (*u, om, kk))
            assert lhs >= params.eps * 2.0 ** (2.0 - r) * norm - fitted_C
