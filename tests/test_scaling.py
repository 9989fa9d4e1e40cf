"""Scaling family algebra, state transformation, PDE-residual invariance."""

import numpy as np
import pytest

from conftest import const, exact_homogeneous_trajectory, structured_problem

from kolmobox import diagnostics as D
from kolmobox import fields as F
from kolmobox import model as M
from kolmobox import scaling as S
from kolmobox import timestepper as T
from kolmobox.errors import (
    IncompatibleGrid,
    InsufficientSamples,
    NonpositiveParameter,
    NonpositiveSamples,
)

PARAMS = M.ModelParams(alpha1=1.0, alpha2=10.0 / 7.0)


class TestFamily:
    def test_two_parameter_family(self):
        sp = S.family_from(4.0, 2.0)
        assert (sp.alpha, sp.beta, sp.sigma) == (4.0, 2.0, 4.0)

    def test_identity(self):
        sp = S.family_from(1.0, 1.0)
        assert (sp.rho, sp.gamma, sp.alpha, sp.beta, sp.sigma) == (1.0,) * 5

    def test_matched_spatial_velocity_scales(self):
        gamma = 3.0
        sp = S.family_from(gamma**2, gamma)
        assert sp.beta == pytest.approx(gamma)

    def test_conditions_hold_to_ulp(self, rng):
        for _ in range(200):
            rho, gamma = rng.uniform(0.1, 10.0, 2)
            sp = S.family_from(rho, gamma)
            assert sp.alpha == pytest.approx(sp.beta * sp.gamma, rel=4e-16)
            assert sp.sigma == gamma * gamma

    def test_nonpositive_rejected(self):
        with pytest.raises(NonpositiveParameter):
            S.family_from(0.0, 1.0)
        with pytest.raises(NonpositiveParameter):
            S.ScalingParams(1.0, 1.0, 1.0, -1.0, 1.0)


class TestBetaGeneral:
    def test_reduces_to_family(self):
        assert S.beta_general(1.0, 1.0, 6.0, 3.0) == pytest.approx(2.0)

    def test_rho_one(self):
        gamma, B = 2.0, 1.5
        assert S.beta_general(1.0, B, 1.0, gamma) == pytest.approx(gamma ** (1 - 2 * B))

    def test_gamma_exponent_zero(self):
        assert S.beta_general(2.0, 0.5, 3.0, 7.0) == pytest.approx(9.0)


class TestCoefficientInvariance:
    def kolmogorov(self):
        return S.CoefficientFamily.kolmogorov(PARAMS)

    def test_kolmogorov_family_residual_zero(self):
        res = S.coefficient_invariance_residuals(
            self.kolmogorov(), S.family_from(4.0, 2.0), [(1.0, 1.0)]
        )
        assert res.overall <= 1e-14

    def test_identity_scaling_exactly_zero(self):
        res = S.coefficient_invariance_residuals(
            self.kolmogorov(), S.family_from(1.0, 1.0), [(0.7, 1.3)]
        )
        assert res.overall == 0.0

    def test_wrong_sigma_detected(self):
        sp = S.family_from(4.0, 2.0).with_sigma(4.0 * 1.1)
        res = S.coefficient_invariance_residuals(self.kolmogorov(), sp, [(1.0, 1.0)])
        assert res.max_d == pytest.approx(abs(1.1 - 1.0), rel=1e-10)

    def test_property_over_random_tuples(self, rng):
        worst = 0.0
        for _ in range(1000):
            a, b, rho, gamma, om, kk = rng.uniform(0.25, 4.0, 6)
            fam = S.CoefficientFamily(A=a, B=b, D1=1.0, D2=1.2, D3=0.7, G2=1.0, G3=1.5)
            res = S.coefficient_invariance_residuals(
                fam, S.general_family(a, b, rho, gamma), [(om, kk)]
            )
            worst = max(worst, res.overall)
        assert worst <= 1e-12

    def test_nonpositive_sample(self):
        with pytest.raises(NonpositiveSamples):
            S.coefficient_invariance_residuals(
                self.kolmogorov(), S.family_from(1.0, 1.0), [(0.0, 1.0)]
            )


class TestTrigResample:
    def test_same_n_passthrough(self, rng):
        vals = rng.standard_normal((8, 8))
        out = S.trig_resample(vals, 8, 0)
        assert out is vals

    def test_upsample_single_mode_exact(self):
        n, n2 = 16, 32
        x = np.arange(n) / n
        vals = np.sin(2 * np.pi * 3 * x + 0.4)
        out = S.trig_resample(vals, n2, 0)
        x2 = np.arange(n2) / n2
        np.testing.assert_allclose(out, np.sin(2 * np.pi * 3 * x2 + 0.4), atol=1e-12)

    def test_downsample_band_limited_exact(self):
        n, n2 = 32, 16
        x = np.arange(n) / n
        vals = 1.0 + np.cos(2 * np.pi * 5 * x)
        out = S.trig_resample(vals, n2, 0)
        x2 = np.arange(n2) / n2
        np.testing.assert_allclose(out, 1.0 + np.cos(2 * np.pi * 5 * x2), atol=1e-12)


class TestTransformState:
    def homog_state(self, grid, params=PARAMS):
        ic = M.HomogeneousIC(u_const=(0.2,) * grid.dim, omega0=1.5, k0=0.7)
        return M.homogeneous_state(grid, ic, params)

    def test_identity_bit_equal(self):
        g = F.Grid(2, 16, 1.0)
        st = self.homog_state(g)
        out = S.transform_state(st, S.family_from(1.0, 1.0), g)
        assert np.array_equal(out.omega, st.omega)
        assert np.array_equal(out.k, st.k)
        for a, b in zip(out.u, st.u):
            assert np.array_equal(a, b)
        assert out.t == st.t

    def test_homogeneous_scaling(self):
        g = F.Grid(2, 16, 1.0)
        st = self.homog_state(g)
        sp = S.family_from(2.0, 3.0)
        target = F.Grid(2, 16, g.side / sp.beta)
        out = S.transform_state(st, sp, target)
        assert np.all(out.omega == sp.rho * 1.5)
        assert np.all(out.k == sp.sigma * 0.7)
        assert np.all(out.u[0] == sp.gamma * 0.2)
        assert out.t == st.t / sp.alpha

    def test_single_mode_resample_oracle(self):
        # beta = 2 halves the box; the transformed field evaluated on the new
        # nodes must match the analytic mode pointwise
        g = F.Grid(1, 32, 1.0)
        x, = g.coords()
        st = M.State(
            t=0.0,
            grid=g,
            u=np.stack([np.sin(2 * np.pi * x)]),
            omega=const(g, 1.0),
            k=const(g, 1.0),
            p=const(g, 0.0),
        )
        sp = S.family_from(2.0, 1.0)  # beta = 2
        target = F.Grid(1, 64, g.side / 2.0)
        out = S.transform_state(st, sp, target)
        xt, = target.coords()
        expected = sp.gamma * np.sin(2 * np.pi * (2.0 * xt))
        np.testing.assert_allclose(out.u[0], expected, atol=1e-12)

    def test_wrong_side_rejected(self):
        g = F.Grid(1, 16, 1.0)
        st = self.homog_state(g)
        with pytest.raises(IncompatibleGrid):
            S.transform_state(st, S.family_from(2.0, 1.0), F.Grid(1, 16, 1.0))

    def test_composition_law(self, rng):
        # transform(sp1) after transform(sp2) equals transform(sp1 * sp2)
        g = F.Grid(1, 32, 1.0)
        x, = g.coords()
        st = M.State(
            t=0.8,
            grid=g,
            u=np.stack([np.sin(2 * np.pi * x)]),
            omega=2.0 + np.cos(2 * np.pi * x),
            k=2.0 + np.sin(4 * np.pi * x),
            p=const(g, 0.0),
        )
        sp1 = S.family_from(2.0, 1.5)
        sp2 = S.family_from(0.8, 2.5)
        sp12 = S.ScalingParams(
            rho=sp1.rho * sp2.rho,
            gamma=sp1.gamma * sp2.gamma,
            alpha=sp1.alpha * sp2.alpha,
            beta=sp1.beta * sp2.beta,
            sigma=sp1.sigma * sp2.sigma,
        )
        g2 = F.Grid(1, 32, g.side / sp2.beta)
        g12a = F.Grid(1, 32, g2.side / sp1.beta)
        g12b = F.Grid(1, 32, g.side / sp12.beta)
        two_step = S.transform_state(S.transform_state(st, sp2, g2), sp1, g12a)
        one_step = S.transform_state(st, sp12, g12b)
        assert abs(g12a.side - g12b.side) <= 1e-12
        np.testing.assert_allclose(two_step.omega, one_step.omega, atol=1e-10)
        np.testing.assert_allclose(two_step.k, one_step.k, atol=1e-10)
        np.testing.assert_allclose(two_step.u[0], one_step.u[0], atol=1e-10)
        assert two_step.t == pytest.approx(one_step.t, rel=1e-12)


def homogeneous_traj(m=41, t_end=2.0, dim=2, n=8):
    g = F.Grid(dim, n, 1.0)
    ic = M.HomogeneousIC(u_const=(0.0,) * dim, omega0=1.0, k0=1.0)
    env = M.ComparisonEnvelope(omega_star=1.0, omega_sup=1.0, k_star=1.0)
    return exact_homogeneous_trajectory(g, ic, PARAMS, env, np.linspace(0.0, t_end, m))


class TestPdeResidual:
    def test_exact_trajectory_quadrature_error_quarters(self):
        res = {}
        for m in (21, 41):
            res[m] = S.pde_residual(homogeneous_traj(m=m), PARAMS).omega
        assert 3.2 <= res[21] / res[41] <= 4.8

    def test_solver_trajectory_residual_decreases_under_refinement(self):
        results = []
        for n, se, dtm in [(16, 0.025, 2e-3), (32, 0.0125, 1e-3), (64, 0.00625, 5e-4)]:
            g, st, env, params = structured_problem(n=n)
            traj = T.run(st, 0.25, None, params, env,
                         T.StepConfig(dt_max=dtm, guard=False), se)
            r = S.pde_residual(traj, params)
            results.append(max(r.u, r.omega, r.k))
        assert results[0] > results[1] > results[2]

    def test_perturbed_k_detected(self):
        g, st, env, params = structured_problem(n=32)
        traj = T.run(st, 0.5, None, params, env,
                     T.StepConfig(dt_max=5e-4, guard=False), 0.0025)
        base = S.pde_residual(traj, params)
        states = tuple(
            M.State(t=s.t, grid=g, u=s.u, omega=s.omega, k=1.01 * s.k, p=s.p)
            for s in traj.states
        )
        records = tuple(D.record(s, None, params, env) for s in states)
        bumped = T.Trajectory(traj.times, states, records, params, env)
        pert = S.pde_residual(bumped, params)
        assert pert.k >= 10.0 * base.k

    def test_needs_three_samples(self):
        with pytest.raises(InsufficientSamples):
            S.pde_residual(homogeneous_traj(m=2), PARAMS)


class TestInvarianceExperiment:
    def test_exact_trajectory_twenty_random_scalings(self, rng):
        traj = homogeneous_traj()
        for _ in range(20):
            rho, gamma = rng.uniform(0.5, 4.0, 2)
            rep = S.invariance_experiment(traj, S.family_from(rho, gamma), PARAMS)
            assert rep.overall, (rho, gamma, rep)

    def test_identity_trivially_passes(self):
        traj = homogeneous_traj()
        rep = S.invariance_experiment(traj, S.family_from(1.0, 1.0), PARAMS)
        assert rep.overall
        assert rep.transformed == rep.original

    def test_sigma_violation_inflates_k_residual(self):
        g, st, env, params = structured_problem(n=32)
        traj = T.run(st, 0.5, None, params, env,
                     T.StepConfig(dt_max=1e-3, guard=False), 0.0125)
        sp = S.family_from(2.0, 1.5)
        rep_ok = S.invariance_experiment(traj, sp, params)
        rep_bad = S.invariance_experiment(traj, sp.with_sigma(sp.sigma * 1.1), params)
        assert rep_ok.overall
        assert rep_bad.transformed.k >= 10.0 * rep_ok.transformed.k

    def test_energy_balance_covariance_on_transformed_trajectory(self):
        # d/dt integral(u^2/2 + k) + alpha2 integral(omega k) = 0 for the
        # transformed homogeneous solution, up to sampling quadrature
        traj_t = S.transform_trajectory(homogeneous_traj(m=81), S.family_from(2.0, 1.5))
        times = np.asarray(traj_t.times)
        e = np.array([r.E_kin + r.E_turb for r in traj_t.records])
        sink = np.array([r.sink_k for r in traj_t.records])
        for i in range(1, len(times) - 1):
            dedt = (e[i + 1] - e[i - 1]) / (times[i + 1] - times[i - 1])
            assert abs(dedt + sink[i]) <= 2e-3 * abs(sink[i])

    def test_report_serialization(self):
        rep = S.invariance_experiment(homogeneous_traj(), S.family_from(2.0, 1.5), PARAMS)
        lines = S.report_ndjson_lines(rep)
        import json

        assert len(lines) == 3
        objs = [json.loads(line) for line in lines]
        assert {o["equation"] for o in objs} == {"u", "omega", "k"}
        assert all(o["pass"] is True for o in objs)
