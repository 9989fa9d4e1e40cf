"""Time integration of the semi-discrete system.

Two schemes: an explicit two-stage SSP Runge-Kutta (Heun) step with Leray
projection after each stage, and a Rothe step (implicit Euler solved by damped
Picard iteration on the stationary operator).  Both end with a positivity
guard that clamps omega and k at a small slack below their comparison
envelopes; clamping is counted, never silent, and so are rejected attempts.

On the explicit path `run` evaluates stage 1 once per step and takes the CFL
step from the maxima that evaluation reports, so the state's stencils are not
built a second time for `cfl_dt`; retries after a rejection reuse the same
stage-1 rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence, Union

import numpy as np

from . import diagnostics as diag
from . import fields as F
from . import model as M
from .errors import PicardDiverged, StepRejected, ValidationError
from .model import ComparisonEnvelope, ModelParams, State

__all__ = [
    "StepConfig",
    "Trajectory",
    "as_forcing",
    "cfl_dt",
    "step_explicit",
    "operator_apply",
    "step_rothe",
    "run",
]

Forcing = Union[None, np.ndarray, Callable[[float], Optional[np.ndarray]]]

# the guard clamps omega and k this fraction below their envelope lower bounds,
# which are positive, so no absolute floor is needed
_GUARD_SLACK = 0.05
# Picard update U <- U - _PICARD_DAMPING * dt * residual(U)
_PICARD_DAMPING = 0.7


@dataclass(frozen=True)
class StepConfig:
    scheme: str = "explicit_rk2"  # or "rothe_picard"
    cfl_safety: float = 0.4
    dt_max: float = math.inf
    picard_max_iters: int = 200
    picard_tol: float = 1e-10
    guard: bool = True

    def __post_init__(self):
        if self.scheme not in ("explicit_rk2", "rothe_picard"):
            raise ValidationError("scheme", f"unknown scheme {self.scheme!r}")
        if not 0.0 < self.cfl_safety <= 1.0:
            raise ValidationError("cfl_safety", "must be in ]0,1]")
        if not self.dt_max > 0.0:
            raise ValidationError("dt_max", "must be positive")
        if not self.picard_max_iters > 0:
            raise ValidationError("picard_max_iters", "must be positive")
        if not self.picard_tol > 0.0:
            raise ValidationError("picard_tol", "must be positive")


@dataclass(frozen=True)
class Trajectory:
    """Sampled simulation output: states and diagnostics at increasing times.

    The first sample time equals the initial state's time (0 for fresh runs;
    restarted segments start at their restart time).  `rejected_attempts`
    counts the step attempts that were rejected and retried with half the dt.
    """

    times: tuple
    states: tuple
    records: tuple
    params: ModelParams
    env: ComparisonEnvelope
    rejected_attempts: int = 0

    def __post_init__(self):
        if len(self.times) != len(self.states) or len(self.times) != len(self.records):
            raise ValueError("times/states/records must have equal length")
        t = np.asarray(self.times)
        if len(t) > 1 and not np.all(np.diff(t) > 0):
            raise ValueError("sample times must be strictly increasing")


def as_forcing(forcing: Forcing) -> Callable[[float], Optional[np.ndarray]]:
    """Normalize None / constant vector array / callable into a callable of t."""
    if forcing is None:
        return lambda t: None
    if isinstance(forcing, np.ndarray):
        return lambda t: forcing
    return forcing


def cfl_dt(state: State, params: ModelParams, cfg: StepConfig) -> float:
    """Stable step from the advective and diffusive limits, times cfl_safety."""
    g = state.grid
    eddy_max = float(M.eddy_coefficient(state.k, state.omega, params).max())
    gmax = 0.0
    if params.regularized:
        gmax = max(
            F.max_face_gradient(g, state.omega),
            F.max_face_gradient(g, state.k),
            math.sqrt(max(float(F.frobenius_sq(g, F.sym_gradient(g, state.u)).max()), 0.0)),
        )
    return _cfl_step(state, eddy_max, gmax, params, cfg)


def _cfl_step(state: State, eddy_max: float, gmax: float, params: ModelParams,
              cfg: StepConfig) -> float:
    """`cfl_dt` from the largest eddy coefficient and face-gradient magnitude."""
    g = state.grid
    h = g.h
    vmax = float(np.abs(state.u).max())
    diff = max(params.nu0, params.nu1, params.nu2) * eddy_max
    if params.regularized:
        diff += params.eps * gmax ** (params.r - 2.0)
    dt_adv = h / vmax if vmax > 0.0 else math.inf
    dt_dif = h * h / (2.0 * g.dim * diff) if diff > 0.0 else math.inf
    return min(cfg.cfl_safety * min(dt_adv, dt_dif), cfg.dt_max)


def _guard(arr: np.ndarray, level: float):
    """Clamp below `level`; returns (clamped array, number of clamped points)."""
    mask = arr < level
    hits = int(np.count_nonzero(mask))
    if hits == 0:
        return arr, 0
    return np.where(mask, level, arr), hits


def _finish_stage(g, u, om, kk, t_new, params, env, cfg) -> State:
    """Project u, then apply the positivity guard against the envelopes at t_new."""
    w, p = F.leray_project(g, u)
    hits = 0
    if cfg.guard:
        om, n1 = _guard(om, M.omega_lower(t_new, env, params) * (1.0 - _GUARD_SLACK))
        kk, n2 = _guard(kk, M.kappa(t_new, env, params) * (1.0 - _GUARD_SLACK))
        hits = n1 + n2
    return State(t=t_new, grid=g, u=w, omega=om, k=kk, p=p, guard_hits=hits)


def _check_finite(state: State, dt: float):
    for a in (*state.u, state.omega, state.k):
        if not np.all(np.isfinite(a)):
            raise StepRejected(f"non-finite field after step dt={dt}")


def step_explicit(
    state: State,
    dt: float,
    forcing: Forcing,
    params: ModelParams,
    env: ComparisonEnvelope,
    cfg: StepConfig,
    *,
    rates=None,
) -> State:
    """One SSP-RK2 (Heun) step: s1 = U + dt f(U); U' = (U + s1 + dt f(s1)) / 2.

    Each stage projects u and applies the positivity guard at t + dt.  For
    spatially constant states the omega/k update reproduces the scalar Heun
    update of the homogeneous ODEs bit for bit.  `rates` is f(U), the
    stage-1 `rhs` of `state`, if the caller already holds it.
    """
    fprov = as_forcing(forcing)
    g = state.grid
    t_new = state.t + dt

    if rates is None:
        rates = M.rhs(state, state.t, fprov(state.t), params, env)
    du, dom, dk = rates
    s1 = _finish_stage(
        g,
        state.u + dt * du,
        state.omega + dt * dom,
        state.k + dt * dk,
        t_new,
        params,
        env,
        cfg,
    )

    du1, dom1, dk1 = M.rhs(s1, t_new, fprov(t_new), params, env)
    out = _finish_stage(
        g,
        0.5 * (state.u + (s1.u + dt * du1)),
        0.5 * (state.omega + (s1.omega + dt * dom1)),
        0.5 * (state.k + (s1.k + dt * dk1)),
        t_new,
        params,
        env,
        cfg,
    )
    out = replace(out, guard_hits=out.guard_hits + s1.guard_hits)
    _check_finite(out, dt)
    return out


def operator_apply(
    state_candidate: State,
    state_old: State,
    dt: float,
    forcing: Forcing,
    params: ModelParams,
    env: ComparisonEnvelope,
):
    """Implicit-Euler residual (U - U_old)/dt + A(U) - F at time t_old + dt.

    A is the stationary operator of the regularized system assembled from the
    discrete field operators (advection in skew form, diffusion in flux form,
    r-terms, damping, production); F carries the external forcing and the
    envelope sources.  dt = inf drops the time term and returns A(U) - F.
    Zero residual characterizes the discrete implicit-Euler solution.
    """
    if not params.regularized:
        raise ValueError("operator_apply requires regularized parameters")
    t_new = state_old.t + dt if math.isfinite(dt) else state_old.t
    f_new = as_forcing(forcing)(t_new)
    du, dom, dk = M.rhs(state_candidate, t_new, f_new, params, env)
    return (
        (state_candidate.u - state_old.u) / dt - du,
        (state_candidate.omega - state_old.omega) / dt - dom,
        (state_candidate.k - state_old.k) / dt - dk,
    )


def _l2(grid, arrays: Sequence[np.ndarray]) -> float:
    """Discrete L2 norm of the arrays taken together, summed one array at a time."""
    s = 0.0
    with np.errstate(over="ignore"):  # overflow here is a divergence signal, not a bug
        for a in arrays:
            s += float(np.sum(a * a))
    return math.sqrt(grid.h**grid.dim * s)


def step_rothe(
    state: State,
    dt: float,
    forcing: Forcing,
    params: ModelParams,
    env: ComparisonEnvelope,
    cfg: StepConfig,
) -> State:
    """Implicit Euler via damped Picard: U <- U - damping * dt * residual(U).

    The u-residual is Leray-projected each iterate (the discarded gradient
    part is the pressure).  Convergence is declared when the residual norm
    drops below picard_tol relative to |U_old|/dt.
    """
    if dt == 0.0:
        return replace(state, guard_hits=0)
    g = state.grid
    t_new = state.t + dt
    theta = _PICARD_DAMPING * dt

    scale = (_l2(g, state.u) + _l2(g, [state.omega]) + _l2(g, [state.k])) / dt + 1e-300

    u, om, kk, p_last = state.u, state.omega, state.k, state.p
    for _ in range(cfg.picard_max_iters):
        cand = State(t=t_new, grid=g, u=u, omega=om, k=kk, p=p_last)
        ru, rom, rk = operator_apply(cand, state, dt, forcing, params, env)
        ru_sol, p_res = F.leray_project(g, ru)
        res = _l2(g, ru_sol) + _l2(g, [rom, rk])
        if not math.isfinite(res):
            raise PicardDiverged(f"non-finite residual at dt={dt}")
        p_last = -p_res
        if res <= cfg.picard_tol * scale:
            out = _finish_stage(g, u, om, kk, t_new, params, env, cfg)
            out = replace(out, p=p_last)
            _check_finite(out, dt)
            return out
        u = u - theta * ru_sol
        om = om - theta * rom
        kk = kk - theta * rk
    raise PicardDiverged(f"no convergence in {cfg.picard_max_iters} iterations at dt={dt}")


_MAX_RETRIES = 10


def _advance(state, remaining, fprov, params, env, cfg):
    """One accepted step of at most `remaining`, halving dt on rejection.

    Returns (state, dt actually used, rejected attempts).  On the explicit
    path stage 1 is evaluated here once: its maxima give the CFL step and its
    rates go to every attempt.
    """
    if cfg.scheme == "explicit_rk2":
        limits = []
        rates = M.rhs(state, state.t, fprov(state.t), params, env, limits=limits)
        eddy_max, *grad_sq = limits
        dt = _cfl_step(state, eddy_max, math.sqrt(max(grad_sq, default=0.0)), params, cfg)
    else:
        rates, dt = None, cfl_dt(state, params, cfg)
    dt = min(dt, remaining)
    for rejected in range(_MAX_RETRIES + 1):
        try:
            if rates is None:
                return step_rothe(state, dt, fprov, params, env, cfg), dt, rejected
            return step_explicit(state, dt, fprov, params, env, cfg, rates=rates), dt, rejected
        except (StepRejected, PicardDiverged):
            dt *= 0.5
    raise StepRejected(f"step rejected after {_MAX_RETRIES} dt halvings")


def run(
    initial: State,
    t_end: float,
    forcing: Forcing,
    params: ModelParams,
    env: ComparisonEnvelope,
    cfg: StepConfig,
    sample_every: float,
) -> Trajectory:
    """Advance to t_end, sampling diagnostics every `sample_every` time units.

    dt is the smaller of the CFL estimate and the distance to the next sample
    boundary, so runs are deterministic and restartable on aligned sample
    grids.  t_end itself is always the final sample.
    """
    if t_end < initial.t:
        raise ValueError("t_end must be >= initial.t")
    if sample_every <= 0.0:
        raise ValueError("sample_every must be positive")
    fprov = as_forcing(forcing)

    times = [initial.t]
    states = [initial]
    records = [diag.record(initial, fprov(initial.t), params, env)]

    state = initial
    rejected = 0
    i = 1
    while state.t < t_end:
        boundary = min(initial.t + i * sample_every, t_end)
        i += 1
        if boundary <= state.t:
            continue
        guard_hits = 0
        while state.t < boundary:
            remaining = boundary - state.t
            state, dt_used, n_rejected = _advance(state, remaining, fprov, params, env, cfg)
            rejected += n_rejected
            if dt_used == remaining and state.t != boundary:
                state = replace(state, t=boundary)
            guard_hits += state.guard_hits
        times.append(state.t)
        states.append(state)
        records.append(
            diag.record(state, fprov(state.t), params, env, guard_activations=guard_hits)
        )

    return Trajectory(tuple(times), tuple(states), tuple(records), params, env, rejected)
