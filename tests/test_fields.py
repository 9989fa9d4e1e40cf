"""Discrete operator contracts: stencils, flux forms, projection, reductions."""

import numpy as np
import pytest

from conftest import const, const_vector, pairing, random_scalar, random_vector, zero_vector

from kolmobox import fields as F
from kolmobox.errors import NegativeCoefficient


def grid1(n=64, side=1.0):
    return F.Grid(1, n, side)


class TestGrid:
    def test_spacing(self):
        g = F.Grid(2, 32, 2.0)
        assert g.h == 2.0 / 32
        assert g.npoints == 32 * 32
        assert g.shape == (32, 32)

    @pytest.mark.parametrize(
        "dim,n,side",
        [(0, 8, 1.0), (4, 8, 1.0), (2, 3, 1.0), (2, 7, 1.0), (2, 2, 1.0), (2, 8, -1.0)],
    )
    def test_invalid(self, dim, n, side):
        with pytest.raises(ValueError):
            F.Grid(dim, n, side)


class TestGradient:
    def test_constant_is_zero(self):
        g = F.Grid(3, 8, 1.0)
        grad = F.gradient(g, const(g, 4.2))
        for c in grad:
            assert np.all(c == 0.0)

    def test_sine_second_order(self):
        # max error <= C h^2 with C calibrated by refinement (C ~ 41.3 for this mode)
        errs = {}
        for n in (64, 128):
            g = grid1(n)
            x, = g.coords()
            f = np.sin(2 * np.pi * x)
            exact = 2 * np.pi * np.cos(2 * np.pi * x)
            errs[n] = np.abs(F.gradient(g, f)[0] - exact).max()
            assert errs[n] <= 45.0 * g.h**2
        ratio = errs[64] / errs[128]
        assert 4.0 * 0.8 <= ratio <= 4.0 * 1.2

    def test_spike_stencil(self):
        g = grid1(16)
        vals = np.zeros(16)
        j = 5
        vals[j] = 1.0
        d = F.gradient(g, vals)[0]
        assert d[j - 1] == pytest.approx(1.0 / (2 * g.h))
        assert d[j + 1] == pytest.approx(-1.0 / (2 * g.h))
        assert np.count_nonzero(d) == 2


class TestDivergence:
    def test_gradient_composition_is_wide_laplacian(self, rng):
        g = grid1(32)
        f = random_scalar(g, rng)
        lap = F.divergence(g, F.gradient(g, f))
        v = f
        wide = (np.roll(v, -2) - 2 * v + np.roll(v, 2)) / (2 * g.h) ** 2
        np.testing.assert_allclose(lap, wide, rtol=0, atol=1e-12)

    def test_constant_vector(self):
        g = F.Grid(2, 16, 1.0)
        v = const_vector(g, [1.0, -2.0])
        assert np.all(F.divergence(g, v) == 0.0)

    def test_axis_independent_column(self, rng):
        # v1 constant along x1 -> zero divergence contribution
        g = F.Grid(2, 16, 1.0)
        col = rng.standard_normal(16)
        v1 = np.broadcast_to(col, (16, 16)).copy()  # varies along x2 only
        v = np.stack([v1, np.zeros(g.shape)])
        assert np.abs(F.divergence(g, v)).max() == 0.0

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_adjointness(self, dim, rng):
        g = F.Grid(dim, 12 if dim == 3 else 24, 1.3)
        f = random_scalar(g, rng)
        v = random_vector(g, rng)
        lhs = pairing(F.divergence(g, v), f, g)
        rhs = -sum(pairing(c, gc, g) for c, gc in zip(v, F.gradient(g, f)))
        assert abs(lhs - rhs) <= 1e-13 * max(abs(lhs), abs(rhs), 1.0)


def trace(D):
    return sum(D[i, i] for i in range(D.shape[0]))


class TestSymGradient:
    def test_constant(self):
        g = F.Grid(2, 8, 1.0)
        D = F.sym_gradient(g, const_vector(g, [1.0, 2.0]))
        assert np.all(D == 0.0)

    def test_shear_mode(self):
        g = F.Grid(2, 64, 1.0)
        x, y = g.coords()
        u = np.stack([np.sin(2 * np.pi * y), np.zeros(g.shape)])
        D = F.sym_gradient(g, u)
        exact = np.pi * np.cos(2 * np.pi * y)
        assert np.abs(D[0, 1] - exact).max() <= 23.0 * g.h**2
        assert np.abs(D[0, 0]).max() == 0.0
        assert np.abs(D[1, 1]).max() == 0.0

    def test_trace_equals_divergence(self, rng):
        g = F.Grid(3, 8, 1.0)
        u = random_vector(g, rng)
        np.testing.assert_allclose(
            trace(F.sym_gradient(g, u)), F.divergence(g, u), atol=1e-13
        )

    def test_gradient_input_trace_is_laplacian(self, rng):
        g = F.Grid(2, 16, 1.0)
        f = random_scalar(g, rng)
        D = F.sym_gradient(g, F.gradient(g, f))
        np.testing.assert_allclose(
            trace(D), F.divergence(g, F.gradient(g, f)), atol=1e-12
        )
        # symmetrized Hessian: entry (i,j) matches 0.5*(d_i d_j + d_j d_i) f
        dx = F.gradient(g, f)
        expected = 0.5 * (F.gradient(g, dx[0])[1] + F.gradient(g, dx[1])[0])
        np.testing.assert_allclose(D[0, 1], expected, atol=1e-12)


class TestFrobenius:
    def test_zero(self):
        g = F.Grid(2, 8, 1.0)
        assert np.all(F.frobenius_sq(g, np.zeros((2, 2) + g.shape)) == 0.0)

    def test_unit_diagonal(self):
        g = F.Grid(2, 8, 1.0)
        one = const(g, 1.0)
        zero = const(g, 0.0)
        D = np.array([[one, zero], [zero, one]])
        assert np.all(F.frobenius_sq(g, D) == 2.0)

    def test_offdiagonal_counts_twice(self):
        g = F.Grid(2, 8, 1.0)
        a = 0.7
        D = np.array([[const(g, 0.0), const(g, a)], [const(g, a), const(g, 0.0)]])
        np.testing.assert_allclose(F.frobenius_sq(g, D), 2 * a * a)


class TestDivFlux:
    def test_unit_coefficient_is_laplacian(self, rng):
        g = F.Grid(2, 16, 1.0)
        f = random_scalar(g, rng)
        one = const(g, 1.0)
        out = F.div_flux(g, one, f)
        v = f
        lap = np.zeros(g.shape)
        for ax in range(2):
            lap += (np.roll(v, -1, axis=ax) - 2 * v + np.roll(v, 1, axis=ax)) / g.h**2
        np.testing.assert_allclose(out, lap, atol=1e-10)

    def test_constant_f(self, rng):
        g = F.Grid(2, 16, 1.0)
        a = random_scalar(g, rng, 0.0, 3.0)
        out = F.div_flux(g, a, const(g, 5.0))
        assert np.abs(out).max() == 0.0

    def test_analytic_second_order(self):
        errs = {}
        for n in (64, 128):
            g = grid1(n)
            x, = g.coords()
            w = 2 * np.pi
            a = 2 + np.sin(w * x)
            f = np.cos(w * x)
            exact = (w * np.cos(w * x)) * (-w * np.sin(w * x)) + (2 + np.sin(w * x)) * (
                -w * w * np.cos(w * x)
            )
            errs[n] = np.abs(F.div_flux(g, a, f) - exact).max()
            assert errs[n] <= 780.0 * g.h**2
        assert 3.2 <= errs[64] / errs[128] <= 4.8

    def test_negative_coefficient_raises(self, rng):
        g = grid1(16)
        a = const(g, -0.1)
        with pytest.raises(NegativeCoefficient):
            F.div_flux(g, a, random_scalar(g, rng))

    def test_roundoff_negative_tolerated(self, rng):
        g = grid1(16)
        vals = np.full(16, 1.0)
        vals[3] = -1e-13
        out = F.div_flux(g, vals, random_scalar(g, rng))
        assert np.all(np.isfinite(out))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_conservative_and_dissipative(self, dim, rng):
        g = F.Grid(dim, 12 if dim == 3 else 24, 0.9)
        a = random_scalar(g, rng, 0.0, 2.0)
        f = random_scalar(g, rng)
        out = F.div_flux(g, a, f)
        scale = np.abs(out).max() + 1.0
        assert abs(F.integrate(g, out)) <= 1e-12 * scale
        assert pairing(f, out, g) <= 1e-12 * scale


class TestDivTensorFlux:
    def test_constant_coefficient_composition(self, rng):
        # for constant a: component i equals a * sum_j centered d_j D_ij exactly
        g = F.Grid(2, 16, 1.0)
        u = random_vector(g, rng)
        D = F.sym_gradient(g, u)
        c = 1.7
        out = F.div_tensor_flux(g, const(g, c), D)
        for i in range(2):
            expected = np.zeros(g.shape)
            for j in range(2):
                expected += F.gradient(g, D[i, j])[j]
            np.testing.assert_allclose(out[i], c * expected, rtol=1e-12, atol=1e-12)

    def test_zero_cases(self, rng):
        g = F.Grid(2, 16, 1.0)
        a = random_scalar(g, rng, 0.0, 2.0)
        out = F.div_tensor_flux(g, a, np.zeros((2, 2) + g.shape))
        assert all(np.abs(c).max() == 0.0 for c in out)
        u = random_vector(g, rng)
        out2 = F.div_tensor_flux(g, const(g, 0.0), F.sym_gradient(g, u))
        assert all(np.abs(c).max() == 0.0 for c in out2)

    def test_mean_free(self, rng):
        g = F.Grid(2, 16, 1.0)
        a = random_scalar(g, rng, 0.0, 2.0)
        out = F.div_tensor_flux(g, a, F.sym_gradient(g, random_vector(g, rng)))
        for c in out:
            assert abs(F.integrate(g, c)) <= 1e-12 * (np.abs(c).max() + 1.0)

    def test_energy_pairing_with_sym_gradient(self, rng):
        # sum(u . div(a D(u))) == -sum(a |D(u)|^2) exactly
        g = F.Grid(2, 16, 1.0)
        a = random_scalar(g, rng, 0.0, 2.0)
        u = random_vector(g, rng)
        D = F.sym_gradient(g, u)
        out = F.div_tensor_flux(g, a, D)
        lhs = sum(pairing(uc, oc, g) for uc, oc in zip(u, out))
        rhs = -pairing(a, F.frobenius_sq(g, D), g)
        assert abs(lhs - rhs) <= 1e-12 * max(abs(rhs), 1.0)


class TestRLaplacian:
    def test_constant(self):
        g = F.Grid(2, 16, 1.0)
        out = F.r_laplacian(g, const(g, 3.0), 3.0)
        assert np.abs(out).max() == 0.0

    def test_r2_reduces_to_div_flux(self, rng):
        g = F.Grid(2, 16, 1.0)
        f = random_scalar(g, rng)
        one = const(g, 1.0)
        np.testing.assert_allclose(
            F.r_laplacian(g, f, 2.0), F.div_flux(g, one, f), rtol=1e-13, atol=1e-10
        )

    def test_analytic_first_order(self):
        errs = {}
        for n in (128, 256):
            g = grid1(n)
            x, = g.coords()
            w = 2 * np.pi
            f = np.sin(w * x)
            exact = w**3 * (-2.0 * np.abs(np.cos(w * x)) * np.sin(w * x))
            errs[n] = np.abs(F.r_laplacian(g, f, 3.0) - exact).max()
            assert errs[n] <= 850.0 * g.h
        assert 2.0 * 0.7 <= errs[128] / errs[256] <= 2.0 * 1.3

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("r", [2.5, 3.0, 3.5])
    def test_conservative_and_dissipative(self, dim, r, rng):
        g = F.Grid(dim, 12 if dim == 3 else 20, 1.1)
        f = random_scalar(g, rng)
        out = F.r_laplacian(g, f, r)
        scale = np.abs(out).max() + 1.0
        assert abs(F.integrate(g, out)) <= 1e-11 * scale
        assert pairing(f, out, g) <= 1e-11 * scale

    def test_vector_overload_zero_and_conservation(self, rng):
        g = F.Grid(2, 16, 1.0)
        out = F.r_laplacian_vec(g, const_vector(g, [0.5, -1.0]), 3.2)
        assert all(np.abs(c).max() == 0.0 for c in out)
        u = random_vector(g, rng)
        out2 = F.r_laplacian_vec(g, u, 3.2)
        for c in out2:
            assert abs(F.integrate(g, c)) <= 1e-11 * (np.abs(c).max() + 1.0)

    def test_vector_analytic_shear_oracle(self):
        # u = (f(y), 0): the only nonzero row is d/dy[(|f'|/sqrt2)^(r-2) f'/2]
        r = 3.0
        w = 2 * np.pi
        errs = {}
        for n in (128, 256):
            g = F.Grid(2, n, 1.0)
            x, y = g.coords()
            u = np.stack([np.sin(w * y), np.zeros(g.shape)])
            out = F.r_laplacian_vec(g, u, r)
            exact = (1.0 / (2 * np.sqrt(2.0))) * w * (
                2 * np.abs(w * np.cos(w * y)) * (-w * np.sin(w * y))
            )
            errs[n] = np.abs(out[0] - exact).max()
            assert errs[n] <= 300.0 * g.h
            assert np.abs(out[1]).max() == 0.0
        assert 2.0 * 0.7 <= errs[128] / errs[256] <= 2.0 * 1.3

    def test_vector_r2_matches_row_divergence(self, rng):
        # r = 2: fluxes are plain face-interpolated tensor entries; rows must be
        # dissipative against the velocity to round-off
        g = F.Grid(2, 16, 1.0)
        u = random_vector(g, rng)
        out = F.r_laplacian_vec(g, u, 2.0)
        lhs = sum(pairing(uc, oc, g) for uc, oc in zip(u, out))
        assert lhs <= 1e-11 * (1.0 + abs(lhs))


class TestSignedPower:
    def test_scalar(self):
        x = np.array([-2.0, 0.0, 3.0])
        np.testing.assert_allclose(F.signed_power(x, 3.0), [-4.0, 0.0, 9.0])

    def test_vector_monotonicity_constant(self, rng):
        # (P(xi) - P(eta)) . (xi - eta) >= 2^(2-r) |xi - eta|^r
        for r in (3.0, 3.5):
            xi = rng.standard_normal((1000, 3))
            eta = rng.standard_normal((1000, 3))
            pxi = np.stack(F.vector_signed_power(list(xi.T), r), axis=-1)
            peta = np.stack(F.vector_signed_power(list(eta.T), r), axis=-1)
            lhs = np.sum((pxi - peta) * (xi - eta), axis=-1)
            rhs = 2.0 ** (2.0 - r) * np.sum((xi - eta) ** 2, axis=-1) ** (r / 2.0)
            assert np.all(lhs >= rhs - 1e-12)


class TestLerayProject:
    def test_divergence_free_unchanged(self, rng):
        g = F.Grid(2, 32, 1.0)
        psi = random_scalar(g, rng)
        gp = F.gradient(g, psi)
        v = np.stack([gp[1], -gp[0]])
        w, p = F.leray_project(g, v)
        scale = np.abs(v).max()
        for wc, vc in zip(w, v):
            assert np.abs(wc - vc).max() <= 1e-13 * scale
        assert np.abs(p).max() <= 1e-13 * scale

    def test_gradient_field_reduced_to_mean(self, rng):
        g = F.Grid(2, 32, 1.0)
        f = random_scalar(g, rng)
        f = f - f.mean()
        v = F.gradient(g, f)
        w, _ = F.leray_project(g, v)
        for wc, vc in zip(w, v):
            mean = vc.mean()
            assert np.abs(wc - mean).max() <= 1e-12 * (np.abs(vc).max() + 1.0)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_projection_contract(self, dim, rng):
        g = F.Grid(dim, 12 if dim == 3 else 32, 1.7)
        v = random_vector(g, rng)
        w, p = F.leray_project(g, v)
        scale = np.abs(v).max()
        # divergence killed
        assert np.abs(F.divergence(g, w)).max() <= 1e-12 * scale
        # returned pair satisfies w = v - grad p exactly by construction
        gp = F.gradient(g, p)
        for wc, vc, gc in zip(w, v, gp):
            assert np.array_equal(wc, vc - gc)
        # mean-free pressure
        assert abs(F.integrate(g, p)) <= 1e-13 * (np.abs(p).max() + 1.0)
        # idempotence
        w2, _ = F.leray_project(g, w)
        for a, b in zip(w, w2):
            assert np.abs(a - b).max() <= 1e-13 * (scale + 1.0)


def fftn_projection(g, v):
    """The complex-FFT projection with full-spectrum symbols, kept as a reference."""
    n, d = g.n, g.dim
    base = np.sin(2.0 * np.pi * np.fft.fftfreq(n)) / g.h
    base[n // 2] = 0.0
    sym = [base.reshape([n if i == ax else 1 for i in range(d)]) for ax in range(d)]
    vhat = np.fft.fftn(v, axes=tuple(range(1, d + 1)))
    denom = sum(s * s for s in sym)
    div_hat = sum(1j * s * vh for s, vh in zip(sym, vhat))
    with np.errstate(divide="ignore", invalid="ignore"):
        phat = np.where(denom > 0.0, -div_hat / np.where(denom > 0.0, denom, 1.0), 0.0)
    p = np.fft.ifftn(phat).real
    return v - F.gradient(g, p), p


class TestProjectionOracle:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("n", [4, 16])
    def test_matches_complex_fft_reference(self, dim, n, rng):
        g = F.Grid(dim, n, 1.7)
        v = random_vector(g, rng)
        w, p = F.leray_project(g, v)
        w_ref, p_ref = fftn_projection(g, v)
        tol = 1e-14 * np.abs(v).max()
        assert np.abs(w - w_ref).max() <= tol
        assert np.abs(p - p_ref).max() <= tol

    def test_symbols_cached_read_only(self):
        sym, inv = F._projection_symbols(F.Grid(2, 8, 1.0))
        assert F._projection_symbols(F.Grid(2, 8, 1.0)) is F._projection_symbols(F.Grid(2, 8, 1.0))
        assert inv.shape == (8, 5)
        for arr in (*sym, inv):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[...] = 0.0


class TestStencilOracle:
    """The slice stencils equal, bit for bit, the np.roll forms they replaced."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("n", [4, 16])
    @pytest.mark.parametrize("rank", [0, 1, 2], ids=["scalar", "vector", "tensor"])
    def test_bitwise_against_roll(self, dim, n, rank, rng):
        g = F.Grid(dim, n, 1.3)
        a = rng.standard_normal((dim,) * rank + g.shape)
        for ax in range(dim):
            axis = ax - dim
            nxt, prv = np.roll(a, -1, axis=axis), np.roll(a, 1, axis=axis)
            assert np.array_equal(F._next(a, axis), nxt)
            assert np.array_equal(F._diff(a, axis, 1, -1), nxt - prv)
            assert np.array_equal(F._diff(a, axis, 1, 0), nxt - a)
            assert np.array_equal(F._diff(a, axis, 0, -1), a - prv)
            assert np.array_equal(F._centered(a, ax, g), (nxt - prv) / (2.0 * g.h))
            assert np.array_equal(F._fwd(a, ax, g), (nxt - a) / g.h)
            assert np.array_equal(F._face_avg(a, ax, g), 0.5 * (a + nxt))
            assert np.array_equal(F._face_div(a, ax, g, 0.37), (a - prv) / 0.37)


class TestReductions:
    def test_integrate_constant_cube(self):
        g = F.Grid(3, 8, 1.0)
        assert F.integrate(g, const(g, 2.5)) == pytest.approx(2.5)
        g2 = F.Grid(3, 8, 2.0)
        assert F.integrate(g2, const(g2, 2.5)) == pytest.approx(2.5 * 8.0)

    def test_l1_norm_of_unit_field(self):
        g = F.Grid(2, 8, 3.0)
        assert F.lp_norm(g, const(g, -1.0), 1.0) == pytest.approx(9.0)

    def test_sine_integrates_to_zero(self):
        g = grid1(64)
        x, = g.coords()
        f = np.sin(2 * np.pi * x)
        assert abs(F.integrate(g, f)) <= 1e-14

    def test_lp_p_below_one_rejected(self):
        g = grid1(8)
        with pytest.raises(ValueError):
            F.lp_norm(g, const(g, 1.0), 0.5)

    def test_w1p_seminorm_of_linear_mode(self):
        g = grid1(128)
        x, = g.coords()
        f = np.sin(2 * np.pi * x)
        # |f'| = 2 pi |cos|; L2 seminorm = 2 pi / sqrt(2), centered diff damps by sinc
        approx = F.w1p_seminorm(g, f, 2.0)
        assert approx == pytest.approx(2 * np.pi / np.sqrt(2), rel=2e-3)

    def test_integrate_deterministic(self, rng):
        g = F.Grid(2, 32, 1.0)
        f = random_scalar(g, rng)
        copy = f.copy()
        assert F.integrate(g, f) == F.integrate(g, copy)


class TestAdvect:
    def test_zero_velocity(self, rng):
        g = F.Grid(2, 16, 1.0)
        out = F.advect(g, zero_vector(g), random_scalar(g, rng))
        assert np.abs(out).max() == 0.0

    def test_constant_scalar_divfree_velocity(self, rng):
        g = F.Grid(2, 16, 1.0)
        v, _ = F.leray_project(g, random_vector(g, rng))
        out = F.advect(g, v, const(g, 2.0))
        assert np.abs(out).max() <= 1e-12 * np.abs(v).max()

    def test_analytic_transport(self):
        errs = {}
        c = 0.7
        for n in (64, 128):
            g = grid1(n)
            x, = g.coords()
            w = 2 * np.pi
            u = const_vector(g, [c])
            f = np.sin(w * x)
            exact = c * w * np.cos(w * x)
            errs[n] = np.abs(F.advect(g, u, f) - exact).max()
            assert errs[n] <= 32.0 * g.h**2
        assert 3.2 <= errs[64] / errs[128] <= 4.8

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_skew_pairing_vanishes(self, dim, rng):
        g = F.Grid(dim, 12 if dim == 3 else 24, 1.0)
        u, _ = F.leray_project(g, random_vector(g, rng))
        f = random_scalar(g, rng)
        val = pairing(f, F.advect(g, u, f), g)
        assert abs(val) <= 1e-12 * np.abs(u).max() * (np.abs(f).max() ** 2 + 1.0)

    def test_vector_overload_kinetic_neutral(self, rng):
        g = F.Grid(2, 24, 1.0)
        u, _ = F.leray_project(g, random_vector(g, rng))
        adv = F.advect_vec(g, u, u)
        total = sum(pairing(uc, ac, g) for uc, ac in zip(u, adv))
        assert abs(total) <= 1e-12 * (np.abs(u).max() ** 3 + 1.0)


class TestStackedMatchesComponentwise:
    """Operators on stacked vectors give, bit for bit, the per-component loops."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_bitwise(self, dim, rng):
        g = F.Grid(dim, 8, 1.3)
        u = random_vector(g, rng)
        v = random_vector(g, rng)
        a = random_scalar(g, rng, 0.0, 2.0)
        adv = F.advect_vec(g, u, v)
        D = F.sym_gradient(g, u)
        div = F.div_tensor_flux(g, a, D)
        for i in range(dim):
            assert np.array_equal(adv[i], F.advect(g, u, v[i]))
            expected = np.zeros(g.shape)
            for j in range(dim):
                dij = 0.5 * (F.gradient(g, u[i])[j] + F.gradient(g, u[j])[i])
                assert np.array_equal(D[i, j], dij)
                expected += F.gradient(g, a * D[i, j])[j]
            assert np.array_equal(div[i], expected)
