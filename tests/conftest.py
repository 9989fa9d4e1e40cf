"""Shared builders for the test suite."""

import numpy as np
import pytest

from kolmobox import diagnostics as D
from kolmobox import fields as F
from kolmobox import model as M
from kolmobox import scaling as S
from kolmobox import timestepper as T
from kolmobox.config import Problem


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
    state = M.State(t=0.0, grid=g, u=u, omega=om, k=kk)
    return g, state, env, params


def regularized_params(r=3.5, eps=1e-3):
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
    st = M.State(t=0.0, grid=g, u=u, omega=om, k=kk)
    if regularized:
        params = regularized_params(r=3.2, eps=1e-2)
    else:
        params = M.ModelParams(alpha1=1.0, alpha2=10.0 / 7.0)
    forcing = 0.1 * rng.standard_normal((dim,) + g.shape) if forced else None
    return st, env, params, forcing


def as_problem(problem, t_end=0.2, sample_every=0.05, cfg=T.StepConfig()):
    """The `config.Problem` of (state, env, params, forcing), as `perturbed_problem`
    gives it."""
    st, env, params, forcing = problem
    return Problem(state=st, env=env, params=params, step=cfg, forcing=forcing, t_end=t_end,
                   sample_every=sample_every)


def transformed_runs(problem, sp, t_end=0.2, sample_every=0.05, cfg=T.StepConfig()):
    """(transformed states of a run, states of the run of the transformed problem).

    `problem` is (state, env, params, forcing), as `perturbed_problem` gives
    it.  The transformed problem is `transform_problem` of the run's, the twin
    that `kolmo-box scaling` runs.
    """
    p = as_problem(problem, t_end, sample_every, cfg)
    expected = [S.transform_state(s, sp) for s in states_of(run_problem(p))]
    return expected, states_of(run_problem(S.transform_problem(p, sp)))


def run_problem(p):
    """`timestepper.run` of a `config.Problem`."""
    return T.run(p.state, p.t_end, p.forcing, p.params, p.env, p.step, p.sample_every)


def relative_gaps(expected, got):
    """The largest max|x - y| / max|y| between two runs, per quantity: "t" over the sample
    times taken together, and "u", "omega" and "k" over each pair of samples.  The runs
    must take as many samples."""
    assert len(got) == len(expected)
    t_got, t_expected = (np.array([s.t for s in run]) for run in (got, expected))
    gaps = {"t": float(np.abs(t_got - t_expected).max() / np.abs(t_expected).max())}
    for name in ("u", "omega", "k"):
        gaps[name] = max(float(np.abs(getattr(a, name) - getattr(b, name)).max()
                               / np.abs(getattr(b, name)).max()) for a, b in zip(got, expected))
    return gaps


def stage_one_cfl_dt(state, forcing, params, env, cfg):
    """`timestepper.cfl_dt` from the maxima that `model.rhs` reports for `state`."""
    limits = []
    M.rhs(state, forcing, params, env, limits=limits)
    return T.cfl_dt(state, limits, params, cfg)


def entropy_bracket_constant(delta):
    """Sharp C(delta) in tau/2 - C(delta) <= entropy_phi(tau, delta) <= tau.

    C(delta) = max_tau (tau/2 - phi(tau)); since phi' = 1 - (1+tau)^(-delta)
    the maximum sits where phi' = 1/2, i.e. at tau* = 2^(1/delta) - 1.
    """
    return 0.5 + (delta * 2.0 ** (1.0 / delta - 1.0) - 1.0) / (1.0 - delta)


def exact_homogeneous_trajectory(grid, ic, params, env, times):
    """(state, record) pairs sampled from the closed-form spatially constant solution."""
    samples = []
    for t in times:
        st = M.homogeneous_state(grid, ic, params, t=float(t))
        samples.append((st, D.record(st, None, params, env)))
    return samples


def run_pairs(*args):
    """The (state, record) pair of each sample of `timestepper.run(*args)`."""
    return [(state, rec) for state, rec, _ in T.run(*args)]


def states_of(samples):
    return [state for state, *_ in samples]


def records_of(samples):
    return [rec for _, rec, *_ in samples]


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


# One config error per row: (the key it must name, the config lines that make
# it).  Every constraint that Grid, ModelParams and StepConfig own, reals that
# must be finite, and keys that the rest of the config would leave unread.
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
    ("t_end", "t_end = inf"),
    ("ic_omega0", "ic_omega0 = inf"),
    ("perturb_modes", "ic = perturbed\nperturb_modes = omega:0:1:inf"),
    ("eps", "eps = 0.5"),
    ("perturb_modes", "perturb_modes = omega:0:1:0.1"),
    ("perturb_random_modes", "perturb_random_modes = 2"),
    ("perturb_random_amplitude", "perturb_random_amplitude = 0.1"),
    ("snapshot_path", "snapshot_path = start.kbox"),
    ("forcing_amplitude", "forcing_amplitude = 0.5"),
    ("forcing_wavenumber", "forcing_wavenumber = 3"),
    ("forcing_axis", "forcing_axis = 1"),
    ("forcing_component", "forcing_component = 1"),
    ("ic_omega0", "ic = snapshot\nsnapshot_path = start.kbox\nic_omega0 = 5"),
    ("ic_k0", "ic = snapshot\nsnapshot_path = start.kbox\nic_k0 = 5"),
    ("r", "r = 5"),
]
BAD_CONFIG_IDS = [lines.splitlines()[-1] for _, lines in BAD_CONFIGS]

# a line that older versions read, and the error it now gives on line 4 of `config_with`:
# the envelope is the initial state's tightest, the base velocity zero and no forcing constant
REMOVED_KEYS = [
    ("omega_star = 0.5", "ParseError: line 4: unknown key 'omega_star'"),
    ("omega_sup = 2.0", "ParseError: line 4: unknown key 'omega_sup'"),
    ("k_star = 0.5", "ParseError: line 4: unknown key 'k_star'"),
    ("ic_u = 0.1", "ParseError: line 4: unknown key 'ic_u'"),
    ("forcing_vector = 1.0", "ParseError: line 4: unknown key 'forcing_vector'"),
    ("forcing = constant", "ValidationError: forcing: unknown forcing kind"),
]


def config_with(lines):
    """A 1D n = 8 run config with `lines` added; they replace a base key they set."""
    keys = {line.partition("=")[0].strip() for line in lines.splitlines()}
    base = [f"{k} = {v}" for k, v in (("dim", 1), ("n", 8), ("t_end", 0.1)) if k not in keys]
    return "\n".join(base) + "\n" + lines + "\n"
