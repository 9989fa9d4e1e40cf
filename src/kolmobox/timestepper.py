"""Time integration of the semi-discrete system.

Two schemes: an explicit two-stage SSP Runge-Kutta (Heun) step with Leray
projection after each stage, and a Rothe step (implicit Euler on the
stationary operator, solved by Picard iteration preconditioned with one
constant-coefficient Fourier diffusion solve per iterate).  Both end with a
positivity guard: a stage whose omega or k falls a small slack below its
comparison envelope is rejected with EnvelopeViolated, never repaired, and
the attempt is retried at half the step like a non-finite one.  Rejected
attempts are counted, and so are the guard's among them.

Both schemes share one step protocol: stage 1, the `rhs` of the accepted
state, is evaluated once per step; the CFL step comes from the maxima that
evaluation reports, and its rates go to the step (the first Heun stage, or
the first Picard residual); retries after a rejection reuse the same rates.

`samples` is the sampling loop: a generator that walks the schedule of
`sample_times` and yields each sample's state and diagnostics record as it is
taken, holding no earlier sample.  Every command consumes it as it goes;
`run` collects it into a list for callers that want every sample at once.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import diagnostics as diag
from . import fields as F
from . import model as M
from .errors import EnvelopeViolated, IncompatibleGrid, PicardDiverged, StepRejected
from .errors import ValidationError
from .model import ComparisonEnvelope, ModelParams, State

__all__ = [
    "StepConfig",
    "cfl_dt",
    "step_explicit",
    "operator_apply",
    "step_rothe",
    "sample_times",
    "samples",
    "run",
]

# the guard rejects omega and k this fraction below their envelope lower bounds,
# which are positive, so no absolute floor is needed
_GUARD_SLACK = 0.05
# step_rothe's Picard stopping tolerance (relative to |U_old|/dt) and iterate cap
_PICARD_TOL = 1e-10
_PICARD_MAX_ITERS = 200


@dataclass(frozen=True)
class StepConfig:
    scheme: str = "explicit_rk2"  # or "rothe_picard"
    cfl_safety: float = 0.4
    dt_max: float = math.inf
    guard: bool = True

    def __post_init__(self):
        if self.scheme not in ("explicit_rk2", "rothe_picard"):
            raise ValidationError("scheme", f"unknown scheme {self.scheme!r}")
        if not 0.0 < self.cfl_safety <= 1.0:
            raise ValidationError("cfl_safety", "must be in ]0,1]")
        if not self.dt_max > 0.0:
            raise ValidationError("dt_max", "must be positive")


def cfl_dt(state: State, limits: list, params: ModelParams, cfg: StepConfig) -> float:
    """Stable step from the advective and diffusive limits, times cfl_safety.

    `limits` holds the maxima that `model.rhs(state, forcing, params, env, limits=)` reports.
    """
    g = state.grid
    h = g.h
    eddy_max, *grad_sq = limits
    vmax = float(np.abs(state.u).max())
    diff = max(params.nu0, params.nu1, params.nu2) * eddy_max
    if params.regularized:
        diff += params.eps * math.sqrt(max(grad_sq)) ** (params.r - 2.0)
    dt_adv = h / vmax if vmax > 0.0 else math.inf
    dt_dif = h * h / (2.0 * g.dim * diff) if diff > 0.0 else math.inf
    return min(cfg.cfl_safety * min(dt_adv, dt_dif), cfg.dt_max)


def _finish_stage(g, u, om, kk, t_new, params, env, cfg) -> State:
    """Apply the positivity guard against the envelopes at t_new, then project u.

    With `cfg.guard`, a stage whose omega or k lies below its guard level
    (`_GUARD_SLACK` below the envelope) raises EnvelopeViolated.
    """
    if cfg.guard:
        for name, arr, envelope in (("omega", om, M.omega_lower), ("k", kk, M.kappa)):
            level = envelope(t_new, env, params) * (1.0 - _GUARD_SLACK)
            low = float(arr.min())
            if low < level:
                raise EnvelopeViolated(f"{name} falls to {low:.6g}, below its guard level "
                                       f"{level:.6g}, at t = {t_new!r}")
    w, _ = F.leray_project(g, u)
    return State(t=t_new, grid=g, u=w, omega=om, k=kk)


def _check_finite(state: State, dt: float):
    for a in (state.u, state.omega, state.k):
        if not np.isfinite(a).all():
            raise StepRejected(f"non-finite field after step dt={dt}")


def step_explicit(
    state: State,
    dt: float,
    forcing: Optional[np.ndarray],
    params: ModelParams,
    env: ComparisonEnvelope,
    cfg: StepConfig,
    *,
    rates=None,
) -> State:
    """One SSP-RK2 (Heun) step: s1 = U + dt f(U); U' = (U + s1 + dt f(s1)) / 2.

    Each stage applies the positivity guard at t + dt and projects u.  For
    spatially constant states the omega/k update reproduces the scalar Heun
    update of the homogeneous ODEs bit for bit.  `rates` is f(U), the
    stage-1 `rhs` of `state`, if the caller already holds it.
    """
    g = state.grid
    t_new = state.t + dt

    if rates is None:
        rates = M.rhs(state, forcing, params, env)
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

    du1, dom1, dk1 = M.rhs(s1, forcing, params, env)
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
    _check_finite(out, dt)
    return out


def operator_apply(
    state_candidate: State,
    state_old: State,
    dt: float,
    forcing: Optional[np.ndarray],
    params: ModelParams,
    env: ComparisonEnvelope,
):
    """Implicit-Euler residual (U - U_old)/dt + A(U) - F at the candidate's time, t_old + dt.

    A is the stationary operator of the regularized system assembled from the
    discrete field operators (advection in skew form, diffusion in flux form,
    r-terms, damping, production); F carries the external forcing and the
    envelope sources.  Zero residual characterizes the discrete implicit-Euler solution.
    """
    if not params.regularized:
        raise ValueError("operator_apply requires regularized parameters")
    du, dom, dk = M.rhs(state_candidate, forcing, params, env)
    return (
        (state_candidate.u - state_old.u) / dt - du,
        (state_candidate.omega - state_old.omega) / dt - dom,
        (state_candidate.k - state_old.k) / dt - dk,
    )


def step_rothe(
    state: State,
    dt: float,
    forcing: Optional[np.ndarray],
    params: ModelParams,
    env: ComparisonEnvelope,
    cfg: StepConfig,
    *,
    rates=None,
) -> State:
    """Implicit Euler by preconditioned Picard: U <- U - dt * (I - dt*L)^-1 residual(U).

    L is the constant-coefficient diffusion nu*cbar*Lap_h, with Lap_h the
    compact Laplacian, cbar the largest eddy coefficient of the old state and
    nu = nu0/2 for u, nu1 for omega and nu2 for k; (I - dt*L)^-1 is one
    `fields.diffusion_solve` over all fields.  It takes the stiff diffusion
    out of the iteration and leaves the fixed point as it is.  The first
    residual is -`rates` (stage 1's `rhs`, computed if not given), so the
    first update is the linearly implicit Euler predictor; later residuals
    come from `operator_apply` at t + dt.  The u-residual is Leray-projected
    (the discarded gradient part is the pressure).  Convergence is declared
    when a residual at t + dt drops below `_PICARD_TOL` relative to
    |U_old|/dt; after `_PICARD_MAX_ITERS` iterates it raises PicardDiverged.
    For r <= 3 it warns that the mode is only known to be well behaved for
    r > 3.
    """
    if dt == 0.0:
        return replace(state, guard_hits=0)
    if params.regularized and params.r <= 3.0:
        warnings.warn(f"r = {params.r} <= 3; the implicit mode is only known to be "
                      "well behaved for r > 3", stacklevel=2)
    g = state.grid
    d = g.dim
    t_new = state.t + dt

    scale = sum(F.l2_norm(g, a) for a in (state.u, [state.omega], [state.k])) / dt + 1e-300
    cbar = dt * float(M.eddy_coefficient(state.k, state.omega, params).max())
    coeffs = cbar * np.array([0.5 * params.nu0] * d + [params.nu1, params.nu2])

    if rates is None:
        rates = M.rhs(state, forcing, params, env)
    ru, rom, rk = (-r for r in rates)
    u, om, kk = state.u, state.omega, state.k
    for it in range(_PICARD_MAX_ITERS):
        if it:
            cand = State(t=t_new, grid=g, u=u, omega=om, k=kk)
            ru, rom, rk = operator_apply(cand, state, dt, forcing, params, env)
        ru_sol, _ = F.leray_project(g, ru)
        res = F.l2_norm(g, ru_sol) + F.l2_norm(g, [rom, rk])
        if not math.isfinite(res):
            raise PicardDiverged(f"non-finite residual at dt={dt}")
        if it and res <= _PICARD_TOL * scale:
            out = _finish_stage(g, u, om, kk, t_new, params, env, cfg)
            _check_finite(out, dt)
            return out
        corr = F.diffusion_solve(g, np.concatenate((ru_sol, rom[None], rk[None])), coeffs)
        corr *= dt
        u = u - corr[:d]
        om = om - corr[d]
        kk = kk - corr[d + 1]
    raise PicardDiverged(f"no convergence in {_PICARD_MAX_ITERS} iterations at dt={dt}")


_MAX_RETRIES = 10


def _advance(state, boundary, forcing, params, env, cfg):
    """One accepted step of at most boundary - t, halving dt on rejection.

    Returns (state, rejected attempts); the state's `guard_hits` counts the
    attempts among them that the positivity guard rejected, and a step of
    the whole distance lands on `boundary` exactly.  Stage 1 is evaluated
    here once, whatever the scheme: its maxima give the CFL step and its
    rates go to every attempt.  An attempt whose dt leaves t unchanged
    (below t's rounding step, or 0) raises StepRejected: no number of such
    steps reaches `boundary`.  After `_MAX_RETRIES` halvings it raises
    EnvelopeViolated if the guard rejected the last attempt, StepRejected
    otherwise.
    """
    remaining = boundary - state.t
    limits = []
    rates = M.rhs(state, forcing, params, env, limits=limits)
    dt = min(cfl_dt(state, limits, params, cfg), remaining)
    step = step_explicit if cfg.scheme == "explicit_rk2" else step_rothe
    guard_hits = 0
    for rejected in range(_MAX_RETRIES + 1):
        if state.t + dt == state.t:
            raise StepRejected(f"dt = {dt!r} does not advance t = {state.t!r}")
        try:
            new = step(state, dt, forcing, params, env, cfg, rates=rates)
        except (StepRejected, PicardDiverged) as exc:
            last = exc
            guard_hits += isinstance(exc, EnvelopeViolated)
            dt *= 0.5
            continue
        if dt == remaining and new.t != boundary:
            new = replace(new, t=boundary)
        if guard_hits:
            new = replace(new, guard_hits=guard_hits)
        return new, rejected
    if isinstance(last, EnvelopeViolated):
        raise EnvelopeViolated(f"{last}; step rejected after {_MAX_RETRIES} dt halvings")
    raise StepRejected(f"step rejected after {_MAX_RETRIES} dt halvings")


def sample_times(t0: float, t_end: float, sample_every: float) -> list:
    """The sample schedule: t0, then t0 + i * sample_every below t_end, then t_end.

    A time that does not exceed the one before it in floating point is left
    out, so the times increase strictly.  `samples` takes one sample at each.
    """
    if t_end < t0:
        raise ValueError("t_end must be >= initial.t")
    if sample_every <= 0.0:
        raise ValueError("sample_every must be positive")
    times = [t0]
    i = 1
    while times[-1] < t_end:
        boundary = min(t0 + i * sample_every, t_end)
        i += 1
        if boundary > times[-1]:
            times.append(boundary)
    return times


def samples(
    initial: State,
    t_end: float,
    forcing: Optional[np.ndarray],
    params: ModelParams,
    env: ComparisonEnvelope,
    cfg: StepConfig,
    sample_every: float,
):
    """Advance to t_end, yielding (state, record, rejected) at each time of `sample_times`.

    `record` is the sample's diagnostics record and `rejected` counts the
    step attempts rejected since the previous sample.  dt is the smaller of
    the CFL estimate and the distance to the next sample time, so runs are
    deterministic and restartable on aligned sample grids.  No earlier sample
    is held, so memory does not grow with the number of samples.
    `forcing` is None or a constant array of the velocity's shape.
    """
    times = sample_times(initial.t, t_end, sample_every)
    if forcing is not None and np.shape(forcing) != initial.u.shape:
        raise IncompatibleGrid(f"forcing shape {np.shape(forcing)} != u shape {initial.u.shape}")

    state = initial
    yield state, diag.record(state, forcing, params, env), 0
    for boundary in times[1:]:
        guard_hits = 0
        rejected = 0
        while state.t < boundary:
            state, n_rejected = _advance(state, boundary, forcing, params, env, cfg)
            rejected += n_rejected
            guard_hits += state.guard_hits
        rec = diag.record(state, forcing, params, env, guard_activations=guard_hits)
        yield state, rec, rejected


def run(
    initial: State,
    t_end: float,
    forcing: Optional[np.ndarray],
    params: ModelParams,
    env: ComparisonEnvelope,
    cfg: StepConfig,
    sample_every: float,
) -> list:
    """Every (state, record, rejected) that `samples` yields, in a list; t_end is the last."""
    return list(samples(initial, t_end, forcing, params, env, cfg, sample_every))
