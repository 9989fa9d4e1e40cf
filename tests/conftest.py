"""Shared builders for the test suite."""

import numpy as np
import pytest

from kolmobox import diagnostics as D
from kolmobox import fields as F
from kolmobox import model as M
from kolmobox import timestepper as T


def random_scalar(grid, rng, lo=None, hi=None):
    if lo is None:
        return rng.standard_normal(grid.shape)
    return rng.uniform(lo, hi, grid.shape)


def random_vector(grid, rng):
    return np.stack([rng.standard_normal(grid.shape) for _ in range(grid.dim)])


def const(grid, value):
    """A constant scalar field."""
    return np.full(grid.shape, float(value))


def const_vector(grid, vec):
    """A constant vector field, one value per component."""
    return np.stack([const(grid, v) for v in vec])


def zero_vector(grid):
    return np.zeros((grid.dim,) + grid.shape)


def pairing(f_values, g_values, grid):
    """Discrete inner product h^d sum(f*g)."""
    return grid.h**grid.dim * float(np.sum(f_values * g_values))


def structured_problem(n=32, side=2.0 * np.pi, uamp=0.3, om_amp=0.1, k_amp=0.1,
                       k_base=1.0, params=None):
    """A smooth divergence-free 2D state with saturated envelope bounds."""
    if params is None:
        params = M.ModelParams(alpha1=1.0, alpha2=10.0 / 7.0)
    g = F.Grid(2, n, side)
    x, y = g.coords()
    u = np.stack([uamp * np.sin(2 * np.pi * y / side), uamp * np.sin(4 * np.pi * x / side)])
    u, _ = F.leray_project(g, u)
    om = 1.0 + om_amp * np.cos(2 * np.pi * x / side)
    kk = k_base + k_amp * np.sin(2 * np.pi * y / side)
    env = M.ComparisonEnvelope(
        omega_star=float(om.min()), omega_sup=float(om.max()), k_star=float(kk.min())
    )
    state = M.State(t=0.0, grid=g, u=u, omega=om, k=kk, p=const(g, 0.0))
    return g, state, env, params


def entropy_bracket_constant(delta):
    """Sharp C(delta) in tau/2 - C(delta) <= entropy_phi(tau, delta) <= tau.

    C(delta) = max_tau (tau/2 - phi(tau)); since phi' = 1 - (1+tau)^(-delta)
    the maximum sits where phi' = 1/2, i.e. at tau* = 2^(1/delta) - 1.
    """
    return 0.5 + (delta * 2.0 ** (1.0 / delta - 1.0) - 1.0) / (1.0 - delta)


def exact_homogeneous_trajectory(grid, ic, params, env, times):
    """Trajectory sampled from the closed-form spatially constant solution."""
    states, records = [], []
    for t in times:
        st = M.homogeneous_state(grid, ic, params, t=float(t))
        states.append(st)
        records.append(D.record(st, None, params, env))
    return T.Trajectory(tuple(float(t) for t in times), tuple(states), tuple(records), params, env)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
