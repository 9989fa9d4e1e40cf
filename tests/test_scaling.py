"""Scaling family algebra, state transformation, the solver's invariance, PDE residuals."""

import re
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest

from conftest import (
    as_problem,
    exact_homogeneous_trajectory,
    perturbed_problem,
    records_of,
    relative_gaps,
    run_problem,
    states_of,
    structured_problem,
    transformed_runs,
)

from kolmobox import diagnostics as D
from kolmobox import fields as F
from kolmobox import model as M
from kolmobox import scaling as S
from kolmobox import timestepper as T
from kolmobox.config import Problem
from kolmobox.errors import InsufficientSamples, NonpositiveParameter, NonpositiveSamples

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

    @pytest.mark.parametrize("value", [np.inf, 1e-320], ids=["inf", "subnormal"])
    @pytest.mark.parametrize("name", ["rho", "gamma"])
    def test_nonfinite_scale_rejected_by_name(self, name, value):
        # 1e-320 is finite, but its reciprocal is not
        scales = {"rho": 2.0, "gamma": 1.5, name: value}
        with pytest.raises(NonpositiveParameter, match="^rho, gamma and their reciprocals "):
            S.family_from(**scales)
        with pytest.raises(NonpositiveParameter, match="^A, B, rho, gamma and their reciprocals "):
            S.general_family(1.0, 1.0, **scales)

    @pytest.mark.parametrize("rho, gamma, blamed", [
        (1.0, 1e-300, "sigma = 0.0"),  # gamma^2 underflows
        (1e300, 1e-300, "beta = inf"),  # rho/gamma overflows
        (1e-300, 1e300, "beta = 0.0"),
    ])
    def test_derived_factor_out_of_range_is_named_with_the_inputs(self, rho, gamma, blamed):
        message = f"{blamed} from rho = {rho!r}, gamma = {gamma!r}; "
        with pytest.raises(NonpositiveParameter, match="^" + re.escape(message)):
            S.family_from(rho, gamma)

    def test_overflowing_power_is_named_not_raised_raw(self):
        # float ** raises OverflowError for gamma^-3 here
        blamed = "^beta = inf from A = 1.0, B = 2.0, rho = 2.0, gamma = 1e-200; "
        with pytest.raises(NonpositiveParameter, match=blamed):
            S.general_family(1.0, 2.0, 2.0, 1e-200)
        with pytest.raises(NonpositiveParameter, match=blamed):
            S.beta_general(1.0, 2.0, 2.0, 1e-200)


class TestBetaGeneral:
    def test_reduces_to_family(self):
        assert S.beta_general(1.0, 1.0, 6.0, 3.0) == pytest.approx(2.0)

    def test_rho_one(self):
        gamma, B = 2.0, 1.5
        assert S.beta_general(1.0, B, 1.0, gamma) == pytest.approx(gamma ** (1 - 2 * B))

    def test_gamma_exponent_zero(self):
        assert S.beta_general(2.0, 0.5, 3.0, 7.0) == pytest.approx(9.0)


class TestCoefficientInvariance:
    def test_kolmogorov_family_residual_zero(self):
        assert S.coefficient_defect(1.0, 1.0, S.family_from(4.0, 2.0), 1.0, 1.0) <= 1e-14

    def test_identity_scaling_exactly_zero(self):
        assert S.coefficient_defect(1.0, 1.0, S.family_from(1.0, 1.0), 0.7, 1.3) == 0.0

    def test_wrong_sigma_detected(self):
        # d = k / omega takes the whole factor; g = omega does not see sigma
        sp = replace(S.family_from(4.0, 2.0), sigma=4.0 * 1.1)
        assert S.coefficient_defect(1.0, 1.0, sp, 1.0, 1.0) == pytest.approx(1.1 - 1.0, rel=1e-10)

    def test_property_over_random_tuples(self, rng):
        worst = 0.0
        for _ in range(1000):
            a, b, rho, gamma, om, kk = rng.uniform(0.25, 4.0, 6)
            worst = max(worst, S.coefficient_defect(a, b, S.general_family(a, b, rho, gamma),
                                                    om, kk))
        assert worst <= 1e-12

    def test_nonpositive_sample(self):
        with pytest.raises(NonpositiveSamples):
            S.coefficient_defect(1.0, 1.0, S.family_from(1.0, 1.0), 0.0, 1.0)


HOMOG_ENV = M.ComparisonEnvelope(omega_star=1.0, omega_sup=1.0, k_star=1.0)


def homogeneous_traj(m=41, t_end=2.0, dim=2, n=8):
    """The closed-form homogeneous states at m times; their params and envelope are PARAMS
    and HOMOG_ENV."""
    g = F.Grid(dim, n, 1.0)
    ic = M.HomogeneousIC(u_const=(0.0,) * dim, omega0=1.0, k0=1.0)
    samples = exact_homogeneous_trajectory(g, ic, PARAMS, HOMOG_ENV, np.linspace(0.0, t_end, m))
    return states_of(samples)


class TestTransformState:
    def homog_state(self, grid, params=PARAMS):
        ic = M.HomogeneousIC(u_const=(0.2,) * grid.dim, omega0=1.5, k0=0.7)
        return M.homogeneous_state(grid, ic, params)

    def test_identity_bit_equal(self):
        g = F.Grid(2, 16, 1.0)
        st = self.homog_state(g)
        out = S.transform_state(st, S.family_from(1.0, 1.0))
        assert np.array_equal(out.omega, st.omega)
        assert np.array_equal(out.k, st.k)
        for a, b in zip(out.u, st.u):
            assert np.array_equal(a, b)
        assert out.t == st.t

    def test_homogeneous_scaling(self):
        g = F.Grid(2, 16, 1.0)
        st = self.homog_state(g)
        sp = S.family_from(2.0, 3.0)
        out = S.transform_state(st, sp)
        assert np.all(out.omega == sp.rho * 1.5)
        assert np.all(out.k == sp.sigma * 0.7)
        assert np.all(out.u[0] == sp.gamma * 0.2)
        assert out.t == st.t / sp.alpha

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
        two_step = S.transform_state(S.transform_state(st, sp2), sp1)
        one_step = S.transform_state(st, sp12)
        assert abs(two_step.grid.side - one_step.grid.side) <= 1e-12
        np.testing.assert_allclose(two_step.omega, one_step.omega, atol=1e-10)
        np.testing.assert_allclose(two_step.k, one_step.k, atol=1e-10)
        np.testing.assert_allclose(two_step.u[0], one_step.u[0], atol=1e-10)
        assert two_step.t == pytest.approx(one_step.t, rel=1e-12)

    def test_energy_balance_covariance_on_transformed_trajectory(self):
        # d/dt integral(u^2/2 + k) + alpha2 integral(omega k) = 0 for the
        # transformed homogeneous solution, up to sampling quadrature
        sp = S.family_from(2.0, 1.5)
        states = homogeneous_traj(m=81)
        env_t = S.transform_problem(as_problem((states[0], HOMOG_ENV, PARAMS, None)), sp).env
        records_t = [D.record(S.transform_state(s, sp), None, PARAMS, env_t) for s in states]
        times = np.array([r.t for r in records_t])
        e = np.array([r.E_kin + r.E_turb for r in records_t])
        sink = np.array([r.sink_k for r in records_t])
        for i in range(1, len(times) - 1):
            dedt = (e[i + 1] - e[i - 1]) / (times[i + 1] - times[i - 1])
            assert abs(dedt + sink[i]) <= 2e-3 * abs(sink[i])


def assert_same(a, b):
    """`a == b`, arrays compared entry by entry and dataclasses field by field."""
    if isinstance(a, np.ndarray):
        assert np.array_equal(a, b)
    elif is_dataclass(a):
        for f in fields(a):
            assert_same(getattr(a, f.name), getattr(b, f.name))
    else:
        assert a == b


class TestTransformProblem:
    """`transform_problem` is the one rule by which a run becomes its scaled twin."""

    @pytest.fixture
    def problem(self):
        step = T.StepConfig(scheme="rothe_picard", cfl_safety=0.3, dt_max=0.01, guard=False)
        return as_problem(perturbed_problem(2, False, True), 0.4, 0.1, step)

    def test_identity_keeps_every_field(self, problem):
        assert_same(S.transform_problem(problem, S.family_from(1.0, 1.0)), problem)

    def test_scales_each_field_at_four_two(self, problem):
        sp = S.family_from(4.0, 2.0)  # alpha = rho = sigma = 4, beta = gamma = 2
        twin = S.transform_problem(problem, sp)
        assert np.array_equal(twin.forcing, 8.0 * problem.forcing)
        env = problem.env
        assert twin.env == M.ComparisonEnvelope(4.0 * env.omega_star, 4.0 * env.omega_sup,
                                                4.0 * env.k_star)
        assert (twin.step.dt_max, twin.t_end, twin.sample_every) == (0.01 / 4, 0.4 / 4, 0.1 / 4)
        assert replace(twin.step, dt_max=0.01) == problem.step  # scheme, cfl_safety, guard
        assert_same(twin.state, S.transform_state(problem.state, sp))
        assert twin.params is problem.params
        assert S.transform_problem(replace(problem, forcing=None), sp).forcing is None

    def test_every_field_is_transformed_or_named_as_carried(self, problem):
        # a field that `transform_problem` does not set rides into the twin as the same object
        twin = S.transform_problem(problem, S.family_from(4.0, 2.0))
        carried = {f.name for f in fields(Problem)
                   if getattr(twin, f.name) is getattr(problem, f.name)}
        assert carried == {"params"}


EQUIVARIANCE_PROBLEMS = [(dim, forced) for dim in (1, 2, 3) for forced in (False, True)]


class TestSolverEquivariance:
    """The solver maps a (rho, gamma)-scaled problem to the scaled solution."""

    # powers of two commute with rounding; (4, 2^-26) has sigma = 2^-52, so k ~ 1e-16
    @pytest.mark.parametrize("rho, gamma", [(4.0, 2.0), (2.0, 0.5), (8.0, 4.0), (4.0, 2.0**-26)])
    @pytest.mark.parametrize("dim, forced", EQUIVARIANCE_PROBLEMS)
    def test_bitwise_at_powers_of_two(self, dim, forced, rho, gamma):
        expected, got = transformed_runs(perturbed_problem(dim, False, forced),
                                         S.family_from(rho, gamma))
        assert [s.t for s in got] == [s.t for s in expected]
        for a, b in zip(got, expected):
            for name in ("u", "omega", "k"):
                assert np.array_equal(getattr(a, name), getattr(b, name)), (a.t, name)

    @pytest.mark.parametrize("rho, gamma", [(3.0, 1.7), (100.0, 10.0)])
    @pytest.mark.parametrize("dim, forced", EQUIVARIANCE_PROBLEMS)
    def test_to_rounding_otherwise(self, dim, forced, rho, gamma):
        gaps = relative_gaps(*transformed_runs(perturbed_problem(dim, False, forced),
                                               S.family_from(rho, gamma)))
        assert max(gaps.values()) <= 1e-13


class TestPdeResidual:
    def test_exact_trajectory_quadrature_error_quarters(self):
        res = {}
        for m in (21, 41):
            res[m] = S.pde_residual(homogeneous_traj(m=m), None, PARAMS, HOMOG_ENV).omega
        assert 3.2 <= res[21] / res[41] <= 4.8

    def test_solver_trajectory_residual_decreases_under_refinement(self):
        results = []
        for n, se, dtm in [(16, 0.025, 2e-3), (32, 0.0125, 1e-3), (64, 0.00625, 5e-4)]:
            g, st, env, params = structured_problem(n=n)
            states = states_of(T.run(st, 0.25, None, params, env,
                                     T.StepConfig(dt_max=dtm, guard=False), se))
            r = S.pde_residual(states, None, params, env)
            results.append(max(r.u, r.omega, r.k))
        assert results[0] > results[1] > results[2]

    def test_perturbed_k_detected(self):
        g, st, env, params = structured_problem(n=32)
        states = states_of(T.run(st, 0.5, None, params, env,
                                 T.StepConfig(dt_max=5e-4, guard=False), 0.0025))
        base = S.pde_residual(states, None, params, env)
        bumped = (replace(s, k=1.01 * s.k) for s in states)
        pert = S.pde_residual(bumped, None, params, env)
        assert pert.k >= 10.0 * base.k

    def test_needs_three_samples(self):
        with pytest.raises(InsufficientSamples):
            S.pde_residual(homogeneous_traj(m=2), None, PARAMS, HOMOG_ENV)

    def test_says_in_its_own_name_that_it_needs_three_samples(self):
        with pytest.raises(InsufficientSamples, match=r"^pde_residual needs at least 3 samples$"):
            S.pde_residual(homogeneous_traj(m=2), None, PARAMS, HOMOG_ENV)


class TestForcedTrajectory:
    """A forced run's forcing goes into its residuals and, scaled, into its transform."""

    @pytest.fixture(scope="class")
    def forced(self):
        """(samples, problem) of a forced 2D run."""
        p = as_problem(perturbed_problem(2, False, True))
        return run_problem(p), p

    @staticmethod
    def transformed_records(forced, sp):
        """The records of the transformed states, under the transformed forcing and envelope."""
        samples, p = forced
        twin = S.transform_problem(p, sp)
        return [D.record(S.transform_state(s, sp), twin.forcing, twin.params, twin.env,
                         r.guard_activations)
                for s, r, _ in samples]

    def test_pde_residual_includes_forcing(self, forced):
        # without the forcing term the u residual is ~0.67, the missing term itself
        samples, p = forced
        assert S.pde_residual(states_of(samples), p.forcing, p.params, p.env).u <= 1e-2

    def test_identity_transform_keeps_records(self, forced):
        records = records_of(forced[0])
        assert records[-1].power_in != 0.0
        assert self.transformed_records(forced, S.family_from(1.0, 1.0)) == records

    def test_transform_scales_forcing(self, forced):
        sp = S.family_from(2.0, 1.5)
        samples, p = forced
        assert np.array_equal(S.transform_problem(p, sp).forcing, sp.gamma * sp.alpha * p.forcing)
        assert S.transform_problem(replace(p, forcing=None), sp).forcing is None
        # power_in = integral(f . u) scales by gamma^2 alpha beta^-d
        for r, rt in zip(records_of(samples), self.transformed_records(forced, sp)):
            want = sp.gamma**2 * sp.alpha * sp.beta**-2 * r.power_in
            assert rt.power_in == pytest.approx(want, rel=1e-12, abs=1e-300)

    def test_transform_keeps_guard_counts(self, forced):
        states = [replace(s, guard_hits=3 * i + 1) for i, s in enumerate(states_of(forced[0]))]
        scaled = [S.transform_state(s, S.family_from(2.0, 1.5)) for s in states]
        assert [s.guard_hits for s in scaled] == [1, 4, 7, 10, 13]


class TestInvarianceExperiment:
    """The twin run, as `kolmo-box scaling` makes it: the solver on the transformed problem
    against the transformed run, which is the exact solution of the scaled problem."""

    def test_exact_trajectory_twenty_random_scalings(self, rng):
        for _ in range(20):
            rho, gamma = rng.uniform(0.5, 4.0, 2)
            gaps = relative_gaps(*transformed_runs(perturbed_problem(2, False, False),
                                                   S.family_from(rho, gamma)))
            assert max(gaps.values()) <= 1e-13, (rho, gamma, gaps)

    def test_identity_trivially_passes(self):
        expected, got = transformed_runs(perturbed_problem(2, False, True), S.family_from(1.0, 1.0))
        assert max(relative_gaps(expected, got).values()) == 0.0

    def test_sigma_violation_inflates_k_residual(self):
        # the twin's k gap: exactly 0 at (4, 2), and 7.6e-3 relative with sigma x 1.1
        g, st, env, params = structured_problem(n=32)
        cfg = T.StepConfig(dt_max=1e-3, guard=False)
        sp = S.family_from(4.0, 2.0)
        ok, bad = (relative_gaps(*transformed_runs((st, env, params, None), scaled, 0.5, 0.0125, cfg))
                   for scaled in (sp, replace(sp, sigma=sp.sigma * 1.1)))
        assert max(ok.values()) == 0.0
        assert bad["k"] >= 1e-3
