"""Scaling-invariance framework for the two-equation model.

The model equations are invariant under the five-parameter rescaling
(time, space, u, omega, k) -> (alpha, beta, gamma, rho, sigma) whenever
alpha = beta*gamma, sigma = gamma^2 and the diffusion/damping coefficient
functions satisfy beta^2 d(rho*omega, sigma*k) = alpha d(omega, k) and
g(rho*omega, sigma*k) = alpha g(omega, k).  For power-law coefficient
families d = D omega^-A k^B, g = G omega^A k^(1-B) the choice
beta = rho^A gamma^(1-2B) makes those hold identically; A = B = 1 gives the
classical two-parameter family (rho, gamma) -> (rho, rho/gamma, gamma, rho,
gamma^2) under which the k/omega closure is invariant.

This module provides the family constructors, `coefficient_defect` (the
closed-form check of those conditions at one (omega, k)), and
`transform_problem`, the scaled twin of a run: its state (which lives on the
same nodes of the box of side l/beta, so no resampling is needed), forcing,
envelope and clock.  `cli.cmd_scaling` judges the solver with them: it runs the
twin beside the original and compares each transformed sample with the twin's.
`pde_residual`, the discrete PDE-residual evaluator, is the tests' oracle for a
trajectory; it holds the last two states between windows of three.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import fields as F
from . import model as M
from .config import Problem
from .errors import InsufficientSamples, NonpositiveParameter, NonpositiveSamples
from .fields import Grid
from .model import ComparisonEnvelope, ModelParams, State

__all__ = [
    "ScalingParams",
    "family_from",
    "general_family",
    "beta_general",
    "coefficient_defect",
    "transform_state",
    "transform_problem",
    "PdeResiduals",
    "pde_residual",
]


@dataclass(frozen=True)
class ScalingParams:
    """One rescaling (alpha, beta, gamma, rho, sigma).

    Use `family_from` / `general_family` for parameter sets that satisfy the
    invariance conditions; direct construction permits deliberately broken
    parameters for violation experiments.
    """

    rho: float
    gamma: float
    alpha: float
    beta: float
    sigma: float

    def __post_init__(self):
        for name in ("rho", "gamma", "alpha", "beta", "sigma"):
            if not getattr(self, name) > 0.0:
                raise NonpositiveParameter(f"{name} must be positive")


def _require_scales(given: dict, **derived) -> None:
    """Raise NonpositiveParameter unless the `given` scales, then the factors
    `derived` from them, and all their reciprocals are finite and > 0."""
    for name, v in {**given, **derived}.items():
        if not (0.0 < v < np.inf and 1.0 / v < np.inf):
            if name in given:
                raise NonpositiveParameter(
                    f"{', '.join(given)} and their reciprocals must be finite and > 0")
            inputs = ", ".join(f"{k} = {x!r}" for k, x in given.items())
            raise NonpositiveParameter(
                f"{name} = {v!r} from {inputs}; it and its reciprocal must be finite and > 0")


def _require_scaled(expr: str, v: float, **given) -> float:
    """`v`, the `given` values combined as `expr`, once `_require_scales` passes them."""
    _require_scales(given, **{expr: v})
    return v


def family_from(rho: float, gamma: float) -> ScalingParams:
    """Two-parameter family (rho, gamma) -> (rho, rho/gamma, gamma, rho, gamma^2)."""
    given = dict(rho=rho, gamma=gamma)
    _require_scales(given)
    beta, sigma = rho / gamma, gamma * gamma
    _require_scales(given, beta=beta, sigma=sigma)
    return ScalingParams(rho=rho, gamma=gamma, alpha=rho, beta=beta, sigma=sigma)


def beta_general(A: float, B: float, rho: float, gamma: float) -> float:
    """Spatial scale beta = rho^A * gamma^(1-2B) of the power-law family."""
    given = dict(A=A, B=B, rho=rho, gamma=gamma)
    _require_scales(given)
    try:
        beta = rho**A * gamma ** (1.0 - 2.0 * B)
    except OverflowError:  # float ** raises where float * gives inf
        beta = np.inf
    _require_scales(given, beta=beta)
    return beta


def general_family(A: float, B: float, rho: float, gamma: float) -> ScalingParams:
    """Scaling with beta from `beta_general`, alpha = beta*gamma, sigma = gamma^2."""
    beta = beta_general(A, B, rho, gamma)
    alpha, sigma = beta * gamma, gamma * gamma
    _require_scales(dict(A=A, B=B, rho=rho, gamma=gamma), alpha=alpha, sigma=sigma)
    return ScalingParams(rho=rho, gamma=gamma, alpha=alpha, beta=beta, sigma=sigma)


def coefficient_defect(A: float, B: float, sp: ScalingParams, omega: float, k: float) -> float:
    """Larger relative defect at (omega, k) of the coefficient scaling conditions.

    The coefficients are the power laws d = omega^-A k^B and g = omega^A k^(1-B);
    their prefactors cancel from both ratios, |beta^2 d(rho omega, sigma k) /
    (alpha d(omega, k)) - 1| and the same for g without the beta^2 factor.
    """
    if not (omega > 0.0 and k > 0.0):
        raise NonpositiveSamples(f"sample ({omega}, {k}) must be positive")
    w, s = sp.rho * omega, sp.sigma * k
    d_ratio = sp.beta**2 * (w**-A * s**B) / (sp.alpha * (omega**-A * k**B))
    g_ratio = (w**A * s ** (1.0 - B)) / (sp.alpha * (omega**A * k ** (1.0 - B)))
    return max(abs(d_ratio - 1.0), abs(g_ratio - 1.0))


# ---------------------------------------------------------------------------
# state transformation


def transform_state(state: State, sp: ScalingParams) -> State:
    """Rescale one snapshot onto Grid(d, n, side/beta): fields scaled by (gamma, rho, sigma).

    The scaled nodes are the source nodes times 1/beta, so each field is a
    plain product and no interpolation happens.  The time label becomes
    t/alpha.
    """
    g = state.grid
    return State(
        t=state.t / sp.alpha,
        grid=Grid(g.dim, g.n, g.side / sp.beta),
        u=sp.gamma * state.u,
        omega=sp.rho * state.omega,
        k=sp.sigma * state.k,
        guard_hits=state.guard_hits,
    )


def transform_problem(p: Problem, sp: ScalingParams) -> Problem:
    """The scaled twin of `p`: state from `transform_state`, forcing times gamma*alpha,
    omega bounds times rho, k_star times sigma, dt_max, t_end and sample_every over alpha.

    A scaled envelope bound or box side that is not finite and > 0, or whose
    reciprocal is not, raises NonpositiveParameter naming it, its factor and the
    run's value.
    """
    env, side = p.env, p.state.grid.side
    _require_scaled("side / beta", side / sp.beta, side=side, beta=sp.beta)
    return replace(
        p,
        state=transform_state(p.state, sp),
        env=ComparisonEnvelope(
            _require_scaled("rho * omega_star", sp.rho * env.omega_star,
                            rho=sp.rho, omega_star=env.omega_star),
            _require_scaled("rho * omega_sup", sp.rho * env.omega_sup,
                            rho=sp.rho, omega_sup=env.omega_sup),
            _require_scaled("sigma * k_star", sp.sigma * env.k_star,
                            sigma=sp.sigma, k_star=env.k_star),
        ),
        step=replace(p.step, dt_max=p.step.dt_max / sp.alpha),
        forcing=None if p.forcing is None else sp.gamma * sp.alpha * p.forcing,
        t_end=p.t_end / sp.alpha,
        sample_every=p.sample_every / sp.alpha,
    )


# ---------------------------------------------------------------------------
# discrete PDE residuals


@dataclass(frozen=True)
class PdeResiduals:
    """Max-over-interior-times L2 residual norms, one per equation."""

    u: float
    omega: float
    k: float


def pde_residual(states, forcing, params: ModelParams, env: ComparisonEnvelope) -> PdeResiduals:
    """Worst L2 norms of the discrete equations' residuals over a run's interior samples.

    One pass over `states`, at least 3 of them, with the run's forcing, params
    and envelopes; the last two states are held between windows of three.  At
    the middle of each window the time derivative is the three-point
    difference on the window's sample times, and the u-residual is
    Leray-projected before measuring since the pressure gradient is not part
    of the reduced dynamics.
    """
    worst, held = None, ()
    for s_p in states:
        if len(held) == 2:
            s_m, s_0 = held
            g = s_0.grid
            a, b = s_0.t - s_m.t, s_p.t - s_0.t  # the second-order three-point weights
            wm, w0, wp = -b / (a * (a + b)), (b - a) / (a * b), a / (b * (a + b))
            du, dom, dk = M.rhs(s_0, forcing, params, env)
            ru_sol, _ = F.leray_project(g, wm * s_m.u + w0 * s_0.u + wp * s_p.u - du)
            rom = wm * s_m.omega + w0 * s_0.omega + wp * s_p.omega - dom
            rk = wm * s_m.k + w0 * s_0.k + wp * s_p.k - dk
            found = (F.l2_norm(g, ru_sol), F.l2_norm(g, [rom]), F.l2_norm(g, [rk]))
            worst = tuple(map(max, worst or (0.0,) * 3, found))
            del s_m, s_0
        held = (*held[-1:], s_p)
        del s_p  # only `held` keeps a state while the next is drawn
    if worst is None:
        raise InsufficientSamples("pde_residual needs at least 3 samples")
    return PdeResiduals(*worst)
