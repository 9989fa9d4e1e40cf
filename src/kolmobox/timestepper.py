"""Time integration of the semi-discrete system.

Two schemes: an explicit two-stage SSP Runge-Kutta (Heun) step with Leray
projection after each stage, and a Rothe step (implicit Euler on the
stationary operator, solved by Picard iteration preconditioned with a
constant-coefficient diffusion inverse, applied in Fourier space with the
projection of u's modes).  Both end with a positivity guard: a stage whose
omega or k falls a small slack below its comparison envelope is rejected with
EnvelopeViolated, never repaired, and the attempt is retried at half the step
like a non-finite one.  Rejected attempts are counted, and so are the guard's
among them.

Both schemes share one step protocol: stage 1, the `rhs` of the accepted
state, is evaluated at most once per step; the CFL step comes from the maxima
that evaluation reports, and its rates go to the step (the first Heun stage,
or the first Picard residual); retries after a rejection reuse the same
rates.  An explicit step evaluates its stage 1 itself.  A Rothe step's
accepted state is its converged Picard iterate, whose `rhs` the stopping test
has already evaluated; that `rhs` is handed to the next step as its stage 1,
with the step's predictor defect, which starts the next step's iteration.

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


def _guard(om, kk, t_new, params, env, cfg):
    """The positivity guard against the envelopes at t_new.

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


def _finish_stage(g, u, om, kk, t_new, params, env, cfg) -> State:
    """Apply the positivity guard against the envelopes at t_new, then project u."""
    _guard(om, kk, t_new, params, env, cfg)
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
    *,
    rates=None,
):
    """Implicit-Euler residual (U - U_old)/dt + A(U) - F at the candidate's time, t_old + dt.

    A is the stationary operator of the regularized system assembled from the
    discrete field operators (advection in skew form, diffusion in flux form,
    r-terms, damping, production); F carries the external forcing and the
    envelope sources.  Zero residual characterizes the discrete implicit-Euler
    solution.  `rates` is the candidate's `rhs`, F - A(U), if the caller
    already holds it.
    """
    if not params.regularized:
        raise ValueError("operator_apply requires regularized parameters")
    if rates is None:
        rates = M.rhs(state_candidate, forcing, params, env)
    du, dom, dk = rates
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
    defect=None,
    handover: Optional[list] = None,
) -> State:
    """Implicit Euler by preconditioned Picard: U <- U - dt * (I - dt*L)^-1 residual(U).

    L is the constant-coefficient diffusion nu*cbar*Lap_h, with Lap_h the
    compact Laplacian, cbar the midrange (min + max)/2 of the old state's
    eddy coefficient, which minimizes the Richardson contraction bound
    max(1 - min/cbar, max/cbar - 1), and nu = nu0/2 for u, nu1 for omega and
    nu2 for k.  It takes the stiff diffusion out of the iteration and leaves
    the fixed point as it is.  The first residual is -`rates` (stage 1's
    `rhs`, computed if not given), so the first update is the linearly
    implicit Euler predictor; each later iterate evaluates the candidate's
    `rhs(..., limits=)` and hands it to `operator_apply` at t + dt.

    The predictor misses the implicit-Euler solution by O(dt^2), and that
    defect varies slowly from step to step.  `defect` is the previous step's
    (converged iterate - predictor, as stacked half spectra, its dt); scaled
    by (dt / its dt)^2 it is added to the predictor, so the iteration starts
    closer to its fixed point, which it leaves as it is.

    Each iterate takes one `fields.rfft_grid` of the stacked residual and one
    `fields.irfft_grid` (`rfftn` and `irfftn`, bit for bit):
    u's residual modes are projected (`fields.project_modes`; the discarded
    gradient part is the pressure), the stopping norm of u's part is taken
    from them by Parseval, and all modes are multiplied by the diffusion
    inverse's symbol, built once per step.  u itself is kept as modes,
    projected once per step from U_old, so every iterate's u is projected in
    Fourier space.  Convergence is declared when a residual at t + dt drops
    below `_PICARD_TOL` relative to |U_old|/dt; the converged candidate,
    guard-checked, is the returned state, and a list `handover` receives the
    (rates, limits) of its `rhs` and this step's defect.  After
    `_PICARD_MAX_ITERS` iterates it raises PicardDiverged.  For r <= 3 it
    warns that the mode is only known to be well behaved for r > 3.
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
    eddy = M.eddy_coefficient(state.k, state.omega, params)
    cbar = 0.5 * (float(eddy.min()) + float(eddy.max()))
    nu = np.array([0.5 * params.nu0] * d + [params.nu1, params.nu2])
    gain = F.diffusion_resolvent(g, dt * cbar * nu)  # (I - dt*L)^-1, one row per field
    gain *= dt

    if rates is None:
        rates = M.rhs(state, forcing, params, env)
    residual = [-r for r in rates]
    u_hat = F.project_modes(g, F.rfft_grid(g, state.u))
    om, kk = state.omega, state.k
    for it in range(_PICARD_MAX_ITERS):
        if it:
            cand = State(t=t_new, grid=g, u=u, omega=om, k=kk)
            limits = []
            rates = M.rhs(cand, forcing, params, env, limits=limits)
            residual = operator_apply(cand, state, dt, forcing, params, env, rates=rates)
        ru, rom, rk = residual
        r_hat = F.rfft_grid(g, np.concatenate((ru, rom[None], rk[None])))
        r_hat[:d] = F.project_modes(g, r_hat[:d])
        res = F.spectral_l2_norm(g, r_hat[:d]) + F.l2_norm(g, [rom, rk])
        if not math.isfinite(res):
            raise PicardDiverged(f"non-finite residual at dt={dt}")
        if it and res <= _PICARD_TOL * scale:  # a finite residual has finite fields
            _guard(om, kk, t_new, params, env, cfg)
            if handover is not None:
                handover.extend((rates, limits, (lead, dt)))
            return cand
        r_hat *= gain
        if it:
            lead -= r_hat  # the iterate's lead on the predictor, U - P
        elif defect is None:
            lead = np.zeros_like(r_hat)
        else:
            lead = defect[0] * (dt / defect[1]) ** 2
            r_hat -= lead
        u_hat -= r_hat[:d]
        r_hat[:d] = u_hat  # so the inverse transform gives u and the omega, k corrections
        out = F.irfft_grid(g, r_hat)
        u = out[:d]
        om = om - out[d]
        kk = kk - out[d + 1]
    raise PicardDiverged(f"no convergence in {_PICARD_MAX_ITERS} iterations at dt={dt}")


_MAX_RETRIES = 10


def _advance(state, boundary, forcing, params, env, cfg, handover=None):
    """One accepted step of at most boundary - t, halving dt on rejection.

    Returns (state, rejected attempts, handover or None); the state's
    `guard_hits` counts the attempts among them that the positivity guard
    rejected, and a step of the whole distance lands on `boundary` exactly.
    A `handover` is what the previous Rothe step passed on: the (rates,
    limits) of `state`'s `rhs`, which serve as stage 1, and that step's
    predictor defect.  Without one, stage 1 is evaluated here, once,
    whatever the scheme.  Stage 1's maxima give the CFL step, and its rates
    (and the defect) go to every attempt.  A Rothe step returns a handover
    for the state it accepts; a step that lands on `boundary` hands over no
    defect, so a run restarted from that sample keeps its bits, and one
    whose t is snapped to `boundary`, which moves the envelope sources,
    hands over nothing.  An explicit step returns none.  An attempt whose
    dt leaves t unchanged (below t's rounding step, or 0) raises
    StepRejected: no number of such steps reaches `boundary`.  After
    `_MAX_RETRIES` halvings it raises EnvelopeViolated if the guard rejected
    the last attempt, StepRejected otherwise.
    """
    remaining = boundary - state.t
    if handover is None:
        limits, defect = [], None
        rates = M.rhs(state, forcing, params, env, limits=limits)
    else:
        rates, limits, defect = handover
    dt = min(cfl_dt(state, limits, params, cfg), remaining)
    guard_hits = 0
    for rejected in range(_MAX_RETRIES + 1):
        if state.t + dt == state.t:
            raise StepRejected(f"dt = {dt!r} does not advance t = {state.t!r}")
        passed_on = []
        try:
            if cfg.scheme == "explicit_rk2":
                new = step_explicit(state, dt, forcing, params, env, cfg, rates=rates)
            else:
                new = step_rothe(state, dt, forcing, params, env, cfg, rates=rates,
                                 defect=defect, handover=passed_on)
        except (StepRejected, PicardDiverged) as exc:
            last = exc
            guard_hits += isinstance(exc, EnvelopeViolated)
            dt *= 0.5
            continue
        if dt == remaining and passed_on:
            # the next sample starts without this step's defect, as a run restarted from
            # this sample does; a snapped t also moves the envelope sources of stage 1
            passed_on = passed_on[:2] + [None] if new.t == boundary else []
        if dt == remaining and new.t != boundary:
            new = replace(new, t=boundary)
        if guard_hits:
            new = replace(new, guard_hits=guard_hits)
        return new, rejected, tuple(passed_on) or None
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

    state, handover = initial, None
    yield state, diag.record(state, forcing, params, env), 0
    for boundary in times[1:]:
        guard_hits = 0
        rejected = 0
        while state.t < boundary:
            state, n_rejected, handover = _advance(state, boundary, forcing, params, env,
                                                   cfg, handover)
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
