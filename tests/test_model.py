"""Model parameters, envelopes, homogeneous solutions and right-hand sides."""

import numpy as np
import pytest

from conftest import const, const_vector, pairing, random_vector, zero_vector

from kolmobox import fields as F
from kolmobox import model as M
from kolmobox.errors import DegenerateOmega, IncompatibleGrid, ValidationError


PARAMS = M.ModelParams(alpha1=1.0, alpha2=10.0 / 7.0)
ENV = M.ComparisonEnvelope(omega_star=0.5, omega_sup=1.0, k_star=1.0)


class TestParams:
    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            M.ModelParams(alpha2=-1.0)
        with pytest.raises(ValueError):
            M.ModelParams(nu1=0.0)

    def test_regularized_needs_eps(self):
        with pytest.raises(ValueError):
            M.ModelParams(regularized=True, eps=0.0)
        with pytest.raises(ValueError):
            M.ModelParams(regularized=True, eps=1e-3, r=2.0)

    def test_eps_needs_regularized(self):
        # the unregularized model never reads eps, so setting it is an error, not a no-op
        with pytest.raises(ValidationError, match="regularized = true") as exc:
            M.ModelParams(eps=0.5)
        assert exc.value.field == "eps"


class TestEnvelopes:
    def test_initial_values(self):
        assert M.omega_lower(0.0, ENV, PARAMS) == 0.5
        assert M.omega_upper(0.0, ENV, PARAMS) == 1.0
        assert M.kappa(0.0, ENV, PARAMS) == 1.0

    def test_unit_decay(self):
        env = M.ComparisonEnvelope(omega_star=1.0, omega_sup=1.0, k_star=1.0)
        p = M.ModelParams(alpha1=1.0, alpha2=10.0 / 7.0)
        assert M.omega_lower(1.0, env, p) == pytest.approx(0.5)
        assert M.kappa(1.0, env, p) == pytest.approx(2.0 ** (-10.0 / 7.0))

    def test_ordering_and_monotonicity(self):
        ts = np.linspace(0.0, 10.0, 50)
        lows = [M.omega_lower(t, ENV, PARAMS) for t in ts]
        highs = [M.omega_upper(t, ENV, PARAMS) for t in ts]
        kaps = [M.kappa(t, ENV, PARAMS) for t in ts]
        assert all(lo <= hi for lo, hi in zip(lows, highs))
        assert all(x > 0 for x in lows + highs + kaps)
        assert all(np.diff(lows) <= 0) and all(np.diff(highs) <= 0) and all(np.diff(kaps) <= 0)

    def test_envelope_odes(self):
        # d/dt omega_low = -alpha1 omega_low^2 and d/dt kappa = -alpha2 kappa omega_up
        p = M.ModelParams(alpha1=0.7, alpha2=1.3)
        t, dt = 0.8, 1e-6
        dlow = (M.omega_lower(t + dt, ENV, p) - M.omega_lower(t - dt, ENV, p)) / (2 * dt)
        assert dlow == pytest.approx(-p.alpha1 * M.omega_lower(t, ENV, p) ** 2, rel=1e-6)
        dkap = (M.kappa(t + dt, ENV, p) - M.kappa(t - dt, ENV, p)) / (2 * dt)
        assert dkap == pytest.approx(
            -p.alpha2 * M.kappa(t, ENV, p) * M.omega_upper(t, ENV, p), rel=1e-6
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            M.ComparisonEnvelope(omega_star=2.0, omega_sup=1.0, k_star=1.0)
        with pytest.raises(ValueError):
            M.ComparisonEnvelope(omega_star=0.5, omega_sup=1.0, k_star=0.0)


class TestHomogeneousSolution:
    def test_initial(self):
        ic = M.HomogeneousIC(u_const=(1.0, 2.0), omega0=3.0, k0=4.0)
        u, om, k = M.homogeneous_solution(0.0, ic, PARAMS)
        assert u == (1.0, 2.0) and om == 3.0 and k == 4.0

    def test_omega_halving(self):
        ic = M.HomogeneousIC(u_const=(0.0,), omega0=2.0, k0=1.0)
        p = M.ModelParams(alpha1=1.0, alpha2=1.0)
        _, om, _ = M.homogeneous_solution(0.5, ic, p)
        assert om == pytest.approx(1.0)

    def test_equal_decay_when_alphas_match(self):
        ic = M.HomogeneousIC(u_const=(0.0,), omega0=1.0, k0=1.0)
        p = M.ModelParams(alpha1=1.0, alpha2=1.0)
        _, om, k = M.homogeneous_solution(3.0, ic, p)
        assert om == pytest.approx(0.25) and k == pytest.approx(0.25)


class TestState:
    def test_shape_mismatch(self):
        g = F.Grid(1, 8, 1.0)
        good = dict(t=0.0, grid=g, u=zero_vector(g), omega=const(g, 1.0), k=const(g, 1.0))
        M.State(**good)
        for name, bad in (("u", np.zeros(g.shape)), ("u", np.zeros((2, 8))),
                          ("omega", np.zeros(9)), ("k", np.zeros((8, 1)))):
            with pytest.raises(IncompatibleGrid):
                M.State(**{**good, name: bad})

    def test_arrays_read_only(self):
        g = F.Grid(2, 8, 1.0)
        st = M.homogeneous_state(g, M.HomogeneousIC(u_const=(0.1, 0.2), omega0=1.0, k0=1.0), PARAMS)
        for arr in (st.u, st.omega, st.k):
            assert arr.dtype == np.float64 and arr.flags.c_contiguous
            with pytest.raises(ValueError):
                arr[0] = 1.0
        with pytest.raises(ValueError):
            st.u[1, 0, 0] = 1.0


class TestCoefficients:
    def test_unit_quotient(self):
        g = F.Grid(1, 8, 1.0)
        one = const(g, 1.0)
        out = M.eddy_coefficient(one, one, M.ModelParams())
        assert np.all(out == 1.0)

    def test_positive_part_clips_k(self):
        g = F.Grid(1, 8, 1.0)
        p = M.ModelParams(regularized=True, eps=0.5, r=3.5)
        out = M.eddy_coefficient(const(g, -1.0), const(g, 1.0), p)
        assert np.all(out == 0.0)

    def test_positive_part_clips_omega(self):
        g = F.Grid(1, 8, 1.0)
        p = M.ModelParams(regularized=True, eps=1.0, r=3.5)
        out = M.eddy_coefficient(const(g, 2.0), const(g, -1.0), p)
        assert np.all(out == 2.0)

    def test_degenerate_omega_raises(self):
        g = F.Grid(1, 8, 1.0)
        with pytest.raises(DegenerateOmega):
            M.eddy_coefficient(const(g, 1.0), const(g, 0.0), M.ModelParams())

    def test_production_denominator(self):
        g = F.Grid(1, 8, 1.0)
        p = M.ModelParams(regularized=True, eps=1.0, r=3.5)
        one = const(g, 1.0)
        out = M.production_coefficient(one, one, p)
        assert np.all(out == pytest.approx(1.0 / 3.0))

    def test_production_bounded_by_inverse_eps(self):
        g = F.Grid(1, 8, 1.0)
        p = M.ModelParams(regularized=True, eps=1.0, r=3.5)
        big = const(g, 1e6)
        one = const(g, 1.0)
        out = M.production_coefficient(big, one, p)
        assert np.all(out < 1.0 / p.eps)
        assert out.flat[0] == pytest.approx(0.999999, rel=1e-5)

    def test_unregularized_production_equals_eddy(self, rng):
        g = F.Grid(2, 8, 1.0)
        p = M.ModelParams()
        k = rng.uniform(0.5, 2.0, g.shape)
        om = rng.uniform(0.5, 2.0, g.shape)
        np.testing.assert_array_equal(
            M.eddy_coefficient(k, om, p), M.production_coefficient(k, om, p)
        )

    def test_nonnegative(self, rng):
        g = F.Grid(2, 8, 1.0)
        p = M.ModelParams(regularized=True, eps=1e-2, r=3.5)
        k = rng.standard_normal(g.shape)
        om = rng.standard_normal(g.shape)
        assert M.eddy_coefficient(k, om, p).min() >= 0.0

    def test_production_bound_on_random_fields(self, rng):
        g = F.Grid(2, 16, 1.0)
        p = M.ModelParams(regularized=True, eps=0.05, r=3.5)
        for _ in range(20):
            k = rng.uniform(-5.0, 100.0, g.shape)
            om = rng.uniform(-5.0, 5.0, g.shape)
            assert M.production_coefficient(k, om, p).max() <= 1.0 / p.eps


class TestRhs:
    def test_homogeneous_reduces_to_ode(self):
        g = F.Grid(2, 8, 1.0)
        p = M.ModelParams(alpha1=1.0, alpha2=10.0 / 7.0)
        ic = M.HomogeneousIC(u_const=(0.3, -0.2), omega0=1.5, k0=0.7)
        st = M.homogeneous_state(g, ic, p)
        du, dom, dk = M.rhs(st, None, p, ENV)
        for c in du:
            assert np.abs(c).max() == 0.0
        np.testing.assert_array_equal(dom, np.full(g.shape, -(1.0 * (1.5 * 1.5))))
        np.testing.assert_array_equal(dk, np.full(g.shape, -(p.alpha2 * (0.7 * 1.5))))

    def test_envelope_pair_is_exact_regularized_solution(self):
        # at omega == omega_low(t) the eps damping and source cancel exactly,
        # leaving the envelope ODE; same for k == kappa(t) at omega == omega_up(t)
        g = F.Grid(1, 8, 1.0)
        p = M.ModelParams(alpha1=1.0, alpha2=10.0 / 7.0, eps=1e-2, r=3.5, regularized=True)
        env = M.ComparisonEnvelope(omega_star=0.8, omega_sup=0.8, k_star=0.6)
        t = 0.7
        olow = M.omega_lower(t, env, p)
        kap = M.kappa(t, env, p)
        st = M.State(
            t=t,
            grid=g,
            u=zero_vector(g),
            omega=const(g, olow),
            k=const(g, kap),
        )
        _, dom, dk = M.rhs(st, None, p, env)
        np.testing.assert_allclose(dom, -p.alpha1 * olow**2, rtol=1e-13)
        # omega_star == omega_sup here, so omega rides both envelopes at once
        np.testing.assert_allclose(dk, -p.alpha2 * kap * olow, rtol=1e-13)

    def test_production_matches_frobenius_for_shear_mode(self):
        g = F.Grid(2, 32, 1.0)
        x, y = g.coords()
        u = np.stack([np.sin(2 * np.pi * y), np.zeros(g.shape)])
        one = const(g, 1.0)
        st = M.State(t=0.0, grid=g, u=u, omega=one, k=one)
        p = M.ModelParams(nu0=1.3)
        _, _, dk = M.rhs(st, None, p, ENV)
        dsq = F.frobenius_sq(g, F.sym_gradient(g, u))
        # with k = omega = 1 the non-production terms vanish except -alpha2*k*omega
        expected = p.nu0 * dsq - p.alpha2
        np.testing.assert_allclose(dk, expected, atol=1e-12)

    def test_mean_identities_unregularized(self, rng):
        # integrate(domega) == -alpha1 integral(omega+ omega) exactly;
        # integrate(dk) == integral(nu0 prod |D|^2) - alpha2 integral(k omega+)
        g = F.Grid(2, 16, 1.0)
        p = M.ModelParams(alpha1=0.9, alpha2=1.4, nu0=0.8)
        u, _ = F.leray_project(g, random_vector(g, rng))
        om = rng.uniform(0.5, 1.5, g.shape)
        kk = rng.uniform(0.5, 1.5, g.shape)
        st = M.State(t=0.0, grid=g, u=u, omega=om, k=kk)
        _, dom, dk = M.rhs(st, None, p, ENV)

        sink_om = p.alpha1 * pairing(np.maximum(om, 0), om, g)
        got = F.integrate(g, dom)
        assert got == pytest.approx(-sink_om, rel=1e-10, abs=1e-11)

        prod = M.production_coefficient(kk, om, p)
        dsq = F.frobenius_sq(g, F.sym_gradient(g, u))
        production = p.nu0 * pairing(prod, dsq, g)
        sink_k = p.alpha2 * pairing(kk, np.maximum(om, 0), g)
        scale = abs(production) + abs(sink_k) + 1.0
        assert abs(F.integrate(g, dk) - (production - sink_k)) <= 1e-12 * scale

    def test_forcing_enters_du_only(self):
        g = F.Grid(2, 8, 1.0)
        p = M.ModelParams()
        ic = M.HomogeneousIC(u_const=(0.0, 0.0), omega0=1.0, k0=1.0)
        st = M.homogeneous_state(g, ic, p)
        f = const_vector(g, [0.3, -0.1])
        du, dom, dk = M.rhs(st, f, p, ENV)
        np.testing.assert_array_equal(du[0], np.full(g.shape, 0.3))
        np.testing.assert_array_equal(du[1], np.full(g.shape, -0.1))
        assert np.all(dom == -1.0)


def reference_rhs(state, forcing, params, env):
    """The right-hand side assembled operator by operator, each building its own stencils."""
    g = state.grid
    u, om, kk = state.u, state.omega, state.k
    eddy = M.eddy_coefficient(kk, om, params)
    D = F.sym_gradient(g, u)
    om_pos = np.maximum(om, 0.0)

    du = -F.advect_vec(g, u, u) + params.nu0 * F.div_tensor_flux(g, eddy, D)
    if forcing is not None:
        du = du + forcing

    domega = (
        -F.advect(g, u, om)
        + params.nu1 * F.div_flux(g, eddy, om)
        - params.alpha1 * (om_pos * om)
    )

    prod = M.production_coefficient(kk, om, params)
    dk = (
        -F.advect(g, u, kk)
        + params.nu2 * F.div_flux(g, eddy, kk)
        + params.nu0 * (prod * F.frobenius_sq(g, D))
        - params.alpha2 * (kk * om_pos)
    )

    if params.regularized:
        eps, r = params.eps, params.r
        du = du + eps * (F.r_laplacian_vec(g, u, r) - F.vector_signed_power(u, r))
        domega = domega + eps * (
            F.r_laplacian(g, om, r)
            - F.signed_power(om, r)
            + M.omega_lower(state.t, env, params) ** (r - 1.0)
        )
        dk = dk + eps * (
            F.r_laplacian(g, kk, r)
            - F.signed_power(kk, r)
            + M.kappa(state.t, env, params) ** (r - 1.0)
        )

    return du, domega, dk


class TestRhsOracle:
    """rhs shares its stencils and still equals the operator-by-operator assembly bit for bit."""

    @pytest.mark.parametrize("forced", [False, True], ids=["free", "forced"])
    @pytest.mark.parametrize("regularized", [False, True], ids=["plain", "regularized"])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_bitwise_against_reference(self, dim, regularized, forced, rng):
        g = F.Grid(dim, 8, 1.7)
        params = M.ModelParams(nu0=0.9, nu1=1.2, nu2=0.8, alpha1=1.1, alpha2=10.0 / 7.0,
                               eps=1e-2 if regularized else 0.0, r=3.2, regularized=regularized)
        om = rng.uniform(0.5, 1.5, g.shape)
        kk = rng.uniform(0.2, 2.0, g.shape)
        if regularized:  # negative entries exercise the positive parts
            om[0] = -0.1
            kk[1] = -0.05
        st = M.State(t=0.3, grid=g, u=random_vector(g, rng), omega=om, k=kk)
        forcing = random_vector(g, rng) if forced else None
        want = reference_rhs(st, forcing, params, ENV)
        limits = []
        for got in (M.rhs(st, forcing, params, ENV),
                    M.rhs(st, forcing, params, ENV, limits=limits)):
            for a, b in zip(got, want, strict=True):
                assert np.array_equal(a, b)
        eddy = M.eddy_coefficient(kk, om, params)
        assert limits[0] == eddy.max()
        if regularized:
            dsq = F.frobenius_sq(g, F.sym_gradient(g, st.u))
            faces = max(F.max_face_gradient(g, om), F.max_face_gradient(g, kk))
            assert len(limits) == 2 + 2 * dim
            assert np.sqrt(max(limits[1:])) == max(faces, np.sqrt(dsq.max()))
        else:
            assert len(limits) == 1
