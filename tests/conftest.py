"""Shared builders for the test suite."""

import warnings

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


def regularized_params(r=3.5, eps=1e-3):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return M.ModelParams(alpha1=1.0, alpha2=10.0 / 7.0, eps=eps, r=r, regularized=True)


def perturbed_problem(dim, regularized, forced, n=8):
    """A random smooth-enough state with envelopes that hold it; optional forcing."""
    rng = np.random.default_rng(17 + dim)
    g = F.Grid(dim, n, 2.0 * np.pi)
    u, _ = F.leray_project(g, 0.3 * rng.standard_normal((dim,) + g.shape))
    om = rng.uniform(0.8, 1.2, g.shape)
    kk = rng.uniform(0.8, 1.2, g.shape)
    env = M.ComparisonEnvelope(omega_star=float(om.min()), omega_sup=float(om.max()),
                               k_star=float(kk.min()))
    st = M.State(t=0.0, grid=g, u=u, omega=om, k=kk, p=const(g, 0.0))
    if regularized:
        params = regularized_params(r=3.2, eps=1e-2)
    else:
        params = M.ModelParams(alpha1=1.0, alpha2=10.0 / 7.0)
    forcing = 0.1 * rng.standard_normal((dim,) + g.shape) if forced else None
    return st, env, params, forcing


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


# One config error per row: (the key it must name, the config lines that make
# it).  Every constraint that Grid, ModelParams and StepConfig own, plus reals
# that must be finite.
BAD_CONFIGS = [
    ("dim", "dim = 4"),
    ("n", "n = 5"),
    ("n", "n = 2"),
    ("side", "side = 0"),
    ("side", "side = inf"),
    ("nu0", "nu0 = 0"),
    ("nu1", "nu1 = -1"),
    ("nu2", "nu2 = nan"),
    ("alpha1", "alpha1 = 0"),
    ("alpha2", "alpha2 = -1"),
    ("eps", "eps = -1"),
    ("eps", "eps = nan"),
    ("eps", "regularized = true\neps = 0"),
    ("r", "regularized = true\neps = 1e-3\nr = 2"),
    ("scheme", "scheme = foo"),
    ("cfl_safety", "cfl_safety = 0"),
    ("cfl_safety", "cfl_safety = 1.5"),
    ("dt_max", "dt_max = 0"),
    ("picard_max_iters", "picard_max_iters = 0"),
    ("picard_tol", "picard_tol = 0"),
    ("t_end", "t_end = inf"),
    ("ic_omega0", "ic_omega0 = inf"),
    ("ic_u", "ic_u = inf"),
    ("forcing_vector", "forcing = constant\nforcing_vector = nan"),
    ("perturb_modes", "ic = perturbed\nperturb_modes = omega:0:1:inf"),
]
BAD_CONFIG_IDS = [lines.splitlines()[-1] for _, lines in BAD_CONFIGS]


def config_with(lines):
    """A 1D n = 8 run config with `lines` added; they replace a base key they set."""
    keys = {line.partition("=")[0].strip() for line in lines.splitlines()}
    base = [f"{k} = {v}" for k, v in (("dim", 1), ("n", 8), ("t_end", 0.1)) if k not in keys]
    return "\n".join(base) + "\n" + lines + "\n"
