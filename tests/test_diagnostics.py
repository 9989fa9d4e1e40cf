"""Records, balances, length-scale bound, entropy functional, decay fits."""

import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    const,
    const_vector,
    entropy_bracket_constant,
    exact_homogeneous_trajectory,
    regularized_params,
    run_pairs,
    structured_problem,
    zero_vector,
)

from kolmobox import diagnostics as D
from kolmobox import fields as F
from kolmobox import model as M
from kolmobox import timestepper as T
from kolmobox.errors import (
    BadDelta,
    InsufficientSamples,
    NonFiniteRecord,
    NonpositiveSamples,
)

PARAMS = M.ModelParams(alpha1=1.0, alpha2=10.0 / 7.0)
ENV1 = M.ComparisonEnvelope(omega_star=1.0, omega_sup=1.0, k_star=1.0)


class TestRecord:
    def test_resting_cube(self):
        g = F.Grid(3, 8, 1.0)
        one = const(g, 1.0)
        st = M.State(t=0.0, grid=g, u=zero_vector(g), omega=one, k=one)
        rec = D.record(st, None, PARAMS, ENV1)
        assert rec.E_kin == 0.0
        assert rec.E_turb == pytest.approx(1.0)
        assert rec.sink_k == pytest.approx(PARAMS.alpha2)
        assert rec.sink_omega == pytest.approx(1.0)
        assert rec.dissipation == 0.0
        assert rec.L_min == pytest.approx(1.0)

    def test_exact_solution_never_violates_saturated_envelope(self):
        g = F.Grid(1, 8, 1.0)
        ic = M.HomogeneousIC(u_const=(0.0,), omega0=1.0, k0=1.0)
        for t in np.linspace(0.0, 5.0, 11):
            st = M.homogeneous_state(g, ic, PARAMS, t=float(t))
            rec = D.record(st, None, PARAMS, ENV1)
            assert rec.envelope_violation_omega_low == 0.0
            assert rec.envelope_violation_omega_high == 0.0
            assert rec.envelope_violation_k == 0.0

    def test_dissipation_composition_for_shear_mode(self):
        g = F.Grid(2, 32, 1.0)
        x, y = g.coords()
        u = np.stack([np.sin(2 * np.pi * y), np.zeros(g.shape)])
        one = const(g, 1.0)
        st = M.State(t=0.0, grid=g, u=u, omega=one, k=one)
        rec = D.record(st, None, PARAMS, ENV1)
        dsq = F.frobenius_sq(g, F.sym_gradient(g, u))
        assert rec.dissipation == pytest.approx(PARAMS.nu0 * F.integrate(g, dsq))

    def test_power_in(self):
        g = F.Grid(2, 8, 1.0)
        u = const_vector(g, [2.0, 0.0])
        f = const_vector(g, [0.5, 1.0])
        one = const(g, 1.0)
        st = M.State(t=0.0, grid=g, u=u, omega=one, k=one)
        rec = D.record(st, f, PARAMS, ENV1)
        assert rec.power_in == pytest.approx(1.0)

    def test_ndjson_format(self):
        g = F.Grid(1, 8, 1.0)
        one = const(g, 1.0)
        st = M.State(t=0.5, grid=g, u=zero_vector(g), omega=one, k=one)
        line = D.ndjson_line(D.record(st, None, PARAMS, ENV1, guard_activations=3))
        import json

        obj = json.loads(line)
        assert list(obj.keys())[0] == "t"
        assert obj["guard_activations"] == 3
        assert obj["E_turb"] == 1.0
        # 17 significant digits are preserved
        assert f"{1/3:.17g}" in D.ndjson_line(
            D.record(
                M.State(t=1 / 3, grid=g, u=zero_vector(g), omega=one, k=one),
                None, PARAMS, ENV1,
            )
        )


    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_ndjson_line_refuses_non_finite_values(self, value):
        # strict JSON has no inf or nan: the line is refused, naming the key, value and t
        g = F.Grid(1, 8, 1.0)
        one = const(g, 1.0)
        st = M.State(t=0.5, grid=g, u=zero_vector(g), omega=one, k=one)
        rec = D.record(st, None, PARAMS, ENV1)
        with pytest.raises(NonFiniteRecord, match=f"^sink_k = {value} at t = 0.5$"):
            D.ndjson_line(replace(rec, sink_k=value))

def fabricated_trajectory(masses, times, grid, params=PARAMS, env=ENV1):
    """Constant-in-space states whose k mass follows `masses` (per unit volume)."""
    states, records = [], []
    for t, m in zip(times, masses):
        st = M.State(
            t=float(t),
            grid=grid,
            u=zero_vector(grid),
            omega=const(grid, 1.0),
            k=const(grid, m),
        )
        states.append(st)
        records.append(D.record(st, None, params, env))
    return list(zip(states, records))


class TestOmegaBalance:
    def test_constant_trajectory_zero_sink_residual(self):
        # no dynamics and no sink: residual must vanish identically
        g = F.Grid(1, 8, 1.0)
        times = np.linspace(0.0, 1.0, 5)
        states, records = [], []
        tiny = M.ModelParams(alpha1=1e-300, alpha2=1.0)  # sink negligible
        for t in times:
            st = M.State(t=float(t), grid=g, u=zero_vector(g),
                         omega=const(g, 1.0),
                         k=const(g, 1.0))
            states.append(st)
            records.append(D.record(st, None, tiny, ENV1))
        samples = list(zip(states, records))
        assert D.balance_report(samples, (0.0, 1.0), tiny, ENV1).omega_residual <= 1e-15

    def test_exact_solution_quadrature_error_quarters(self):
        g = F.Grid(1, 8, 1.0)
        ic = M.HomogeneousIC(u_const=(0.0,), omega0=1.0, k0=1.0)
        res = {}
        for m in (21, 41):
            samples = exact_homogeneous_trajectory(g, ic, PARAMS, ENV1, np.linspace(0, 2, m))
            res[m] = D.balance_report(samples, (0.0, 2.0), PARAMS, ENV1).omega_residual
        assert 3.2 <= res[21] / res[41] <= 4.8

    def test_forward_euler_residual_halves_with_dt(self):
        # semi-discrete exactness: only the time quadrature remains
        g = F.Grid(2, 8, 1.0)
        x, y = g.coords()
        om0 = 1.0 + 0.2 * np.cos(2 * np.pi * x)
        k0 = 1.0 + 0.2 * np.sin(2 * np.pi * y)
        env = M.ComparisonEnvelope(omega_star=0.8, omega_sup=1.2, k_star=0.8)
        res = {}
        for dt in (0.001, 0.0005):
            om, kk = om0.copy(), k0.copy()
            u = zero_vector(g)
            times, states, records = [], [], []
            t = 0.0
            nsteps = int(round(0.5 / dt))
            for i in range(nsteps + 1):
                st = M.State(t=t, grid=g, u=u, omega=om, k=kk)
                times.append(t)
                states.append(st)
                records.append(D.record(st, None, PARAMS, env))
                if i == nsteps:
                    break
                _, dom, dk = M.rhs(st, None, PARAMS, env)
                om = om + dt * dom
                kk = kk + dt * dk
                t += dt
            samples = list(zip(states, records))
            res[dt] = D.balance_report(samples, (0.0, 0.5), PARAMS, env).omega_residual
        assert 1.5 <= res[0.001] / res[0.0005] <= 2.5

    def test_insufficient_samples(self):
        g = F.Grid(1, 8, 1.0)
        samples = fabricated_trajectory([1.0], [0.0], g)
        with pytest.raises(InsufficientSamples, match=r"^window \(0\.0, 1\.0\) holds 1 samples, need 2$"):
            D.balance_report(samples, (0.0, 1.0), PARAMS, ENV1)


class TestKBalance:
    def test_homogeneous_mu_proxy_small(self):
        g = F.Grid(1, 8, 1.0)
        ic = M.HomogeneousIC(u_const=(0.0,), omega0=1.0, k0=1.0)
        samples = exact_homogeneous_trajectory(g, ic, PARAMS, ENV1, np.linspace(0, 2, 201))
        rep = D.balance_report(samples, (0.0, 2.0), PARAMS, ENV1)
        assert rep.k_residual <= 5e-5  # trapezoid error at this sampling
        assert rep.k_residual == abs(rep.mu_proxy)

    def test_injected_jump_equals_measure_mass(self):
        g = F.Grid(2, 8, 2.0)  # volume 4
        times = np.linspace(0.0, 1.0, 9)
        masses = [1.0 if t < 0.5 else 1.1 for t in times]
        tiny = M.ModelParams(alpha1=1e-300, alpha2=1e-300)
        env = ENV1
        samples = fabricated_trajectory(masses, times, g, params=tiny, env=env)
        mu = D.balance_report(samples, (0.0, 1.0), tiny, env).mu_proxy
        assert mu == pytest.approx(0.1 * g.volume, rel=1e-9)


class TestEnergyGap:
    def test_zero_velocity_gap_is_exactly_zero(self):
        g, st, env, params = structured_problem(n=8, uamp=0.0)
        samples = run_pairs(st, 0.3, None, params, env, T.StepConfig(guard=False), 0.05)
        assert D.balance_report(samples, (0.0, 0.3), params, env).energy_gap == 0.0

    def test_reduced_dissipation_shows_as_positive_gap(self):
        g, st, env, params = structured_problem(n=16)
        samples = run_pairs(st, 0.1, None, params, env, T.StepConfig(guard=False), 0.05)
        gap0 = D.balance_report(samples, (0.0, 0.1), params, env).energy_gap
        # the same samples with dissipation artificially reduced
        removed = 0.01
        samples2 = [(state, replace(rec, dissipation=rec.dissipation - removed) if i else rec)
                    for i, (state, rec) in enumerate(samples)]
        gap1 = D.balance_report(samples2, (0.0, 0.1), params, env).energy_gap
        # trapezoid weights on samples (0, 0.05, 0.1): 0.025, 0.05, 0.025
        assert gap1 - gap0 == pytest.approx(removed * 0.075, rel=1e-9)


class TestBalanceReport:
    def test_eps_corrections_zero_when_unregularized(self):
        g, st, env, params = structured_problem(n=8)
        samples = run_pairs(st, 0.1, None, params, env, T.StepConfig(guard=False), 0.05)
        rep = D.balance_report(samples, (0.0, 0.1), params, env)
        assert rep.epsilon_corrections == {"omega": 0.0, "k": 0.0, "u_energy": 0.0}
        assert rep.k_residual == abs(rep.mu_proxy)

    @staticmethod
    def regularized_run(regularized=True):
        """Nine samples of a regularized (or plain) run on t in [0, 0.1], its params and its
        envelope."""
        g, st, env, params = structured_problem(n=8)
        if regularized:
            params = regularized_params(r=3.2, eps=1e-2)
        cfg = T.StepConfig(dt_max=1e-3, guard=False)
        return run_pairs(st, 0.1, None, params, env, cfg, 0.0125), params, env

    def test_unregularized_production_is_the_dissipation(self, monkeypatch):
        samples, params, env = self.regularized_run(regularized=False)
        # the production coefficient is the eddy coefficient, so the record's
        # dissipation is the production integral, bit for bit
        assert all(D._production_integral(st, params) == rec.dissipation for st, rec in samples)
        calls = []

        def counting(*args, _real=F.sym_gradient, **kwargs):
            calls.append(None)
            return _real(*args, **kwargs)

        monkeypatch.setattr(F, "sym_gradient", counting)
        D.balance_report(samples, (0.0, 0.1), params, env)
        assert len(samples) == 9 and calls == []  # the records already hold D(u)'s integral

    def test_regularized_omega_balance_includes_eps_terms(self):
        samples, params, env = self.regularized_run()
        rep = D.balance_report(samples, (0.0, 0.1), params, env)
        assert rep.epsilon_corrections["omega"] != 0.0
        # with the corrections included the residual sits at quadrature level,
        # far below the size of the correction itself
        assert rep.omega_residual <= 1e-3
        assert rep.omega_residual <= 0.1 * abs(rep.epsilon_corrections["omega"])

    def test_regularized_energy_gap_includes_eps_drain(self):
        samples, params, env = self.regularized_run()
        rep = D.balance_report(samples, (0.0, 0.1), params, env)
        # without the eps drain the gap would be about the size of the drain itself
        assert rep.epsilon_corrections["u_energy"] != 0.0
        assert abs(rep.energy_gap) <= 0.1 * abs(rep.epsilon_corrections["u_energy"])

    def test_each_eps_correction_is_evaluated_once(self, monkeypatch):
        samples, params, env = self.regularized_run()
        calls = []
        for name in ("r_laplacian_vec", "signed_power"):
            def counting(*args, _real=getattr(F, name), _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(F, name, counting)
        D.balance_report(samples, (0.0, 0.1), params, env)
        assert len(samples) == 9
        assert calls.count("r_laplacian_vec") == 9  # the u drain, once per sample
        assert calls.count("signed_power") == 18  # the omega and k damping, once per sample


def length_scale_bound(t, env):
    """sqrt(kappa)/omega_upper: the lower bound of min sqrt(k)/omega that the envelopes imply."""
    return math.sqrt(M.kappa(t, env, PARAMS)) / M.omega_upper(t, env, PARAMS)


class TestLengthScale:
    # the record's L_min against the bound that the omega and k envelopes imply
    def test_saturation_at_t0(self):
        g = F.Grid(1, 8, 1.0)
        env = M.ComparisonEnvelope(omega_star=0.5, omega_sup=2.0, k_star=0.8)
        st = M.State(t=0.0, grid=g, u=zero_vector(g),
                     omega=const(g, 2.0),
                     k=const(g, 0.8))
        l_min = D.record(st, None, PARAMS, env).L_min
        assert l_min == pytest.approx(length_scale_bound(0.0, env))
        assert l_min >= length_scale_bound(0.0, env) * (1.0 - 1e-10)

    def test_bound_exponent_is_two_sevenths(self):
        env = M.ComparisonEnvelope(omega_star=1.0, omega_sup=1.0, k_star=1.0)
        g = F.Grid(1, 8, 1.0)
        ic = M.HomogeneousIC(u_const=(0.0,), omega0=1.0, k0=1.0)
        t1, t2 = 10.0, 100.0
        bounds, l_mins = [], []
        for t in (t1, t2):
            st = M.homogeneous_state(g, ic, PARAMS, t=t)
            bounds.append(length_scale_bound(t, env))
            l_mins.append(D.record(st, None, PARAMS, env).L_min)
        for pair in (bounds, l_mins):
            measured = np.log(pair[1] / pair[0]) / np.log((1 + t2) / (1 + t1))
            assert measured == pytest.approx(2.0 / 7.0, rel=1e-12)

    def test_homogeneous_identity_holds_at_twenty_times(self):
        g = F.Grid(1, 8, 1.0)
        env = M.ComparisonEnvelope(omega_star=1.0, omega_sup=1.0, k_star=1.0)
        ic = M.HomogeneousIC(u_const=(0.0,), omega0=1.0, k0=1.0)
        for t in np.linspace(0.0, 20.0, 20):
            st = M.homogeneous_state(g, ic, PARAMS, t=float(t))
            rec = D.record(st, None, PARAMS, env)
            bound = length_scale_bound(st.t, env)
            assert rec.L_min >= bound * (1.0 - 1e-10)
            assert rec.L_min == pytest.approx(bound, rel=1e-12)
            # the bracket 1/omega_sup + alpha1 t <= 1/omega <= 1/omega_star + alpha1 t
            assert rec.envelope_violation_omega_low <= 1e-10 * M.omega_lower(st.t, env, PARAMS)
            assert rec.envelope_violation_omega_high <= 1e-10 * M.omega_upper(st.t, env, PARAMS)

    def test_violated_bound_reported(self):
        g = F.Grid(1, 8, 1.0)
        env = M.ComparisonEnvelope(omega_star=1.0, omega_sup=1.0, k_star=1.0)
        st = M.State(t=0.0, grid=g, u=zero_vector(g),
                     omega=const(g, 1.0),
                     k=const(g, 0.5))  # below k_star
        rec = D.record(st, None, PARAMS, env)
        assert rec.L_min < length_scale_bound(0.0, env)
        assert rec.envelope_violation_k > 0.0

    def test_degenerate_omega(self):
        # no length scale where omega <= 0: the record keeps L_min finite at 0
        g = F.Grid(1, 8, 1.0)
        params = regularized_params()  # the unregularized eddy coefficient needs omega > 0
        for omega in (0.0, -0.5):
            st = M.State(t=0.0, grid=g, u=zero_vector(g),
                         omega=const(g, omega),
                         k=const(g, 1.0))
            assert D.record(st, None, params, ENV1).L_min == 0.0


class TestEntropy:
    def test_zero_field(self):
        g = F.Grid(2, 8, 1.0)
        phi, grad = D.entropy_functional(g, const(g, 0.0), 0.5)
        assert phi == 0.0 and grad == 0.0

    def test_point_value(self):
        # delta = 1/2, tau = 3: phi = 3 + 2(1 - 2) = 1
        assert D.entropy_phi(3.0, 0.5) == pytest.approx(1.0)

    @pytest.mark.parametrize("delta", [0.1, 0.5, 0.9])
    def test_bracket_property(self, delta, rng):
        # phi <= tau always; phi >= tau/2 - C(delta) with the sharp constant
        # C(delta) = max_tau (tau/2 - phi), attained at 1 + tau = 2^(1/delta).
        # For delta >= ~0.3 the cruder constant 2/(1-delta) also works, but it
        # is too small for delta = 0.1 (C ~ 56.3 there).
        tau = rng.uniform(0.0, 100.0, 10_000)
        phi = D.entropy_phi(tau, delta)
        assert np.all(phi <= tau + 1e-12)
        s = 1.0 - delta
        sharp = entropy_bracket_constant(delta)
        assert np.all(phi >= tau / 2.0 - sharp - 1e-12)
        if delta >= 0.5:
            assert np.all(phi >= tau / 2.0 - 2.0 / s - 1e-12)

    def test_weighted_gradient(self):
        g = F.Grid(1, 64, 1.0)
        x, = g.coords()
        k = 1.0 + 0.5 * np.sin(2 * np.pi * x)
        _, wgrad = D.entropy_functional(g, k, 0.5)
        grad = F.gradient(g, k)[0]
        expected = F.integrate(g, grad**2 / (1.0 + k) ** 0.5)
        assert wgrad == pytest.approx(expected)

    def test_bad_delta(self):
        g = F.Grid(1, 8, 1.0)
        with pytest.raises(BadDelta):
            D.entropy_functional(g, const(g, 1.0), 1.0)
        with pytest.raises(BadDelta):
            D.entropy_phi(1.0, 0.0)


def fit_mean(samples, field, window):
    """decay_fit of the mean of `field` over the samples in `window`, as the decay command takes it."""
    picked = [(st, rec) for st, rec in samples if D.in_window(st.t, window)]
    times = [st.t for st, _ in picked]
    means = [F.integrate(st.grid, getattr(st, field)) / st.grid.volume for st, _ in picked]
    return D.decay_fit(f"mean_{field}", times, means, PARAMS, ENV1)


class TestDecayFit:
    def exact_traj(self, alpha2=10.0 / 7.0, m=91):
        params = M.ModelParams(alpha1=1.0, alpha2=alpha2)
        g = F.Grid(1, 8, 1.0)
        ic = M.HomogeneousIC(u_const=(0.0,), omega0=1.0, k0=1.0)
        return exact_homogeneous_trajectory(g, ic, params, ENV1, np.linspace(5, 50, m))

    def test_k_exponent_on_closed_form(self):
        fit = fit_mean(self.exact_traj(), "k", (5.0, 50.0))
        assert abs(fit.exponent + 10.0 / 7.0) <= 1e-10
        assert fit.stderr <= 1e-10

    def test_omega_exponent_on_closed_form(self):
        fit = fit_mean(self.exact_traj(), "omega", (5.0, 50.0))
        assert abs(fit.exponent + 1.0) <= 1e-10

    def test_constant_series(self):
        g = F.Grid(1, 8, 1.0)
        times = np.linspace(1.0, 2.0, 11)
        fit = fit_mean(fabricated_trajectory(np.ones(11), times, g), "k", (1.0, 2.0))
        assert fit.exponent == 0.0

    def test_nonpositive_rejected(self):
        g = F.Grid(1, 8, 1.0)
        times = np.linspace(1.0, 2.0, 5)
        samples = fabricated_trajectory(-np.ones(5), times, g)
        with pytest.raises(NonpositiveSamples, match="^mean_k must be positive"):
            fit_mean(samples, "k", (1.0, 2.0))

    def test_window_too_small(self):
        # samples at t = 5, 27.5 and 50: the window holds only the first
        with pytest.raises(InsufficientSamples, match="^a mean_k fit needs 3 samples in its window, got 1$"):
            fit_mean(self.exact_traj(m=3), "k", (5.0, 5.5))
