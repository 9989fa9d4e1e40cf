"""Observables and verification quantities computed from states and trajectories.

Per-sample records hold energies, dissipation, sink terms, envelope-violation
depths and the minimum length scale; `balance_report` evaluates the window
balances of the omega and k equations (with the regularization source/damping
integrals separated out) and the kinetic-energy equality gap; the entropy
functional and log-log decay-exponent fits complete the set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional, Tuple

import numpy as np

from . import fields as F
from . import model as M
from .errors import (
    BadDelta,
    DegenerateOmega,
    InsufficientSamples,
    NonFiniteRecord,
    NonpositiveSamples,
)
from .model import ComparisonEnvelope, ModelParams, State

__all__ = [
    "DiagnosticsRecord",
    "BalanceReport",
    "FitResult",
    "LengthScaleCheck",
    "record",
    "ndjson_line",
    "balance_report",
    "length_scale_check",
    "entropy_phi",
    "entropy_functional",
    "decay_fit",
]


@dataclass(frozen=True)
class DiagnosticsRecord:
    t: float
    E_kin: float
    E_turb: float
    dissipation: float
    sink_k: float
    sink_omega: float
    power_in: float
    min_omega: float
    max_omega: float
    min_k: float
    envelope_violation_omega_low: float
    envelope_violation_omega_high: float
    envelope_violation_k: float
    L_min: float
    guard_activations: int


_NDJSON_KEYS = tuple(f.name for f in fields(DiagnosticsRecord))


@dataclass(frozen=True)
class BalanceReport:
    """Window balances; epsilon_corrections holds the integrated eps terms."""

    window: Tuple[float, float]
    omega_residual: float
    k_residual: float
    mu_proxy: float
    energy_gap: float
    epsilon_corrections: dict


@dataclass(frozen=True)
class FitResult:
    exponent: float
    stderr: float
    window: Tuple[float, float]


@dataclass(frozen=True)
class LengthScaleCheck:
    L_min: float
    bound: float
    satisfied: bool
    bracket_low_ok: bool
    bracket_high_ok: bool


def record(
    state: State,
    forcing: Optional[np.ndarray],
    params: ModelParams,
    env: ComparisonEnvelope,
    guard_activations: int = 0,
) -> DiagnosticsRecord:
    """Evaluate all per-sample observables for one state."""
    g = state.grid
    u, om, kk = state.u, state.omega, state.k

    e_kin = 0.5 * F.integrate(g, F.pointwise_dot(u, u))

    eddy = M.eddy_coefficient(kk, om, params)
    dsq = F.frobenius_sq(g, F.sym_gradient(g, u))
    dissipation = params.nu0 * F.integrate(g, eddy * dsq)

    om_pos = np.maximum(om, 0.0)
    sink_k = params.alpha2 * F.integrate(g, kk * om_pos)
    sink_omega = params.alpha1 * F.integrate(g, om_pos * om)

    power_in = 0.0 if forcing is None else F.integrate(g, F.pointwise_dot(forcing, u))

    lo = M.omega_lower(state.t, env, params)
    hi = M.omega_upper(state.t, env, params)
    kap = M.kappa(state.t, env, params)
    min_omega = float(om.min())
    max_omega = float(om.max())
    min_k = float(kk.min())

    if min_omega > 0.0:
        l_min = float(np.min(np.sqrt(np.maximum(kk, 0.0)) / om))
    else:
        l_min = 0.0  # degenerate omega; keep the record finite

    return DiagnosticsRecord(
        t=state.t,
        E_kin=e_kin,
        E_turb=F.integrate(g, kk),
        dissipation=dissipation,
        sink_k=sink_k,
        sink_omega=sink_omega,
        power_in=power_in,
        min_omega=min_omega,
        max_omega=max_omega,
        min_k=min_k,
        envelope_violation_omega_low=max(0.0, lo - min_omega),
        envelope_violation_omega_high=max(0.0, max_omega - hi),
        envelope_violation_k=max(0.0, kap - min_k),
        L_min=l_min,
        guard_activations=guard_activations,
    )


def ndjson_line(rec: DiagnosticsRecord) -> str:
    """One NDJSON object with fixed key order, floats at 17 significant digits.

    Raises NonFiniteRecord for an inf or nan, which strict JSON cannot carry.
    """
    parts = []
    for key in _NDJSON_KEYS:
        v = getattr(rec, key)
        if isinstance(v, int):
            parts.append(f'"{key}": {v:d}')
        elif math.isfinite(v):
            parts.append(f'"{key}": {v:.17g}')
        else:
            raise NonFiniteRecord(f"{key} = {v} at t = {rec.t!r}")
    return "{" + ", ".join(parts) + "}"


# ---------------------------------------------------------------------------
# window machinery


def _window_indices(traj, window, minimum: int):
    s, t = window
    times = np.asarray(traj.times, dtype=float)
    slack = 1e-12 * max(1.0, abs(s), abs(t))
    idx = np.nonzero((times >= s - slack) & (times <= t + slack))[0]
    if len(idx) < minimum:
        raise InsufficientSamples(f"window {window} holds {len(idx)} samples, need {minimum}")
    return idx, times[idx]


def _trapezoid(values, times) -> float:
    total = 0.0
    for i in range(len(times) - 1):
        total += 0.5 * (values[i] + values[i + 1]) * (times[i + 1] - times[i])
    return total


def _eps_corrections(traj, idx, field: str, envelope) -> list:
    """eps * integral(source - odd-power damping) in one equation, per sample.

    `field` is "omega" or "k" and `envelope` its lower envelope (omega_lower
    or kappa), whose (r-1)-th power is the source.
    """
    params, env = traj.params, traj.env
    if not params.regularized:
        return [0.0] * len(idx)
    out = []
    for i in idx:
        s = traj.states[i]
        src = envelope(s.t, env, params) ** (params.r - 1.0) * s.grid.volume
        damp = F.integrate(s.grid, F.signed_power(getattr(s, field), params.r))
        out.append(params.eps * (src - damp))
    return out


def _production_integral(state: State, params: ModelParams) -> float:
    g = state.grid
    prod = M.production_coefficient(state.k, state.omega, params)
    dsq = F.frobenius_sq(g, F.sym_gradient(g, state.u))
    return params.nu0 * F.integrate(g, prod * dsq)


def _omega_residual(traj, idx, times, eps_corr) -> float:
    """|d integral(omega) + time-integrated sink - eps corrections| over the window.

    Exact for the semi-discrete dynamics up to time quadrature: advection and
    fluxes integrate to zero, so only the damping (and eps terms) move the
    mean of omega.
    """
    mass = [F.integrate(traj.states[i].grid, traj.states[i].omega) for i in idx]
    sink = [traj.records[i].sink_omega for i in idx]
    net = [s - e for s, e in zip(sink, eps_corr)]
    return abs(mass[-1] - mass[0] + _trapezoid(net, times))


def _k_residual(traj, idx, times, eps_corr):
    """(residual, mu_proxy) of the k balance over the window.

    mu_proxy = integral(k)(t) - integral(k)(s) - time-quadrature of
    (production - sink + eps corrections); for the continuous limit object
    this is the mass of the nonnegative defect measure on the window.
    """
    mass = [F.integrate(traj.states[i].grid, traj.states[i].k) for i in idx]
    production = [_production_integral(traj.states[i], traj.params) for i in idx]
    sink = [traj.records[i].sink_k for i in idx]
    net = [p - s + e for p, s, e in zip(production, sink, eps_corr)]
    mu_proxy = mass[-1] - mass[0] - _trapezoid(net, times)
    return abs(mu_proxy), mu_proxy


def _energy_gap(traj, idx, times, drain) -> float:
    """Kinetic-energy equality defect: (E_kin(s) + work + eps drain) - (E_kin(t) + dissipation).

    Zero means the discrete run satisfies the u-energy equality on the window;
    for u == 0 trajectories the gap vanishes identically.
    """
    e_kin = [traj.records[i].E_kin for i in idx]
    power = [traj.records[i].power_in for i in idx]
    diss = [traj.records[i].dissipation for i in idx]
    work = e_kin[0] + _trapezoid(power, times) + _trapezoid(drain, times)
    return work - (e_kin[-1] + _trapezoid(diss, times))


def _eps_correction_u_energy(traj, idx) -> list:
    """eps * integral(u . (r-laplacian(u) - |u|^(r-2) u)), the regularized drain, per sample."""
    params = traj.params
    if not params.regularized:
        return [0.0] * len(idx)
    out = []
    for i in idx:
        g, u = traj.states[i].grid, traj.states[i].u
        rl = F.r_laplacian_vec(g, u, params.r)
        damp = F.vector_signed_power(u, params.r)
        out.append(params.eps * F.integrate(g, F.pointwise_dot(u, rl - damp)))
    return out


def balance_report(traj, window) -> BalanceReport:
    """Assemble all window balances in one report; each eps correction is evaluated once.

    The fields are defined at `_omega_residual`, `_k_residual` and `_energy_gap`.
    """
    idx, times = _window_indices(traj, window, 2)
    corr = {
        "omega": _eps_corrections(traj, idx, "omega", M.omega_lower),
        "k": _eps_corrections(traj, idx, "k", M.kappa),
        "u_energy": _eps_correction_u_energy(traj, idx),
    }
    k_res, mu = _k_residual(traj, idx, times, corr["k"])
    return BalanceReport(
        window=(float(times[0]), float(times[-1])),
        omega_residual=_omega_residual(traj, idx, times, corr["omega"]),
        k_residual=k_res,
        mu_proxy=mu,
        energy_gap=_energy_gap(traj, idx, times, corr["u_energy"]),
        epsilon_corrections={name: _trapezoid(c, times) for name, c in corr.items()},
    )


# ---------------------------------------------------------------------------
# pointwise bound checks


_REL_TOL = 1e-10  # slack for saturated (equality) envelope comparisons


def length_scale_check(state: State, env: ComparisonEnvelope, params: ModelParams) -> LengthScaleCheck:
    """Compare min sqrt(k)/omega against its decaying lower bound.

    Also checks the reciprocal bracket 1/omega_sup + alpha1 t <= 1/omega <=
    1/omega_star + alpha1 t implied by the omega envelopes.
    """
    if state.omega.min() <= 0.0:
        raise DegenerateOmega("length scale undefined for nonpositive omega")
    t = state.t
    l_min = float(np.min(np.sqrt(np.maximum(state.k, 0.0)) / state.omega))
    growth = (1.0 + params.alpha1 * env.omega_sup * t) ** (
        1.0 - params.alpha2 / (2.0 * params.alpha1)
    )
    bound = math.sqrt(env.k_star) / env.omega_sup * growth
    inv = 1.0 / state.omega
    lo = 1.0 / env.omega_sup + params.alpha1 * t
    hi = 1.0 / env.omega_star + params.alpha1 * t
    return LengthScaleCheck(
        L_min=l_min,
        bound=bound,
        satisfied=l_min >= bound * (1.0 - _REL_TOL),
        bracket_low_ok=float(inv.min()) >= lo * (1.0 - _REL_TOL),
        bracket_high_ok=float(inv.max()) <= hi * (1.0 + _REL_TOL),
    )


# ---------------------------------------------------------------------------
# entropy functional


def entropy_phi(tau, delta: float):
    """Convex entropy density tau + (1 - (1+tau)^(1-delta)) / (1-delta).

    This is the integral from 0 to tau of 1 - (1+s)^(-delta), so it grows
    linearly: tau/2 - C(delta) <= phi(tau) <= tau for tau >= 0, with the sharp
    constant C(delta) = 1/2 + (delta 2^(1/delta - 1) - 1) / (1 - delta),
    attained at tau* = 2^(1/delta) - 1 (C = 56.28 at delta = 0.1, 1/2 at
    delta = 1/2, 0.2205 at delta = 0.9).
    """
    if not 0.0 < delta < 1.0:
        raise BadDelta(f"delta must be in ]0,1[, got {delta}")
    tau = np.asarray(tau, dtype=float)
    return tau + (1.0 - (1.0 + tau) ** (1.0 - delta)) / (1.0 - delta)


def entropy_functional(g, k: np.ndarray, delta: float):
    """(integral of the entropy density, integral of |grad k|^2 / (1+k)^delta)."""
    phi = entropy_phi(k, delta)
    grad = F.partials(g, k)
    weighted = F.pointwise_dot(grad, grad) / (1.0 + k) ** delta
    return F.integrate(g, phi), F.integrate(g, weighted)


# ---------------------------------------------------------------------------
# decay fits


def decay_fit(traj, quantity: str, window) -> FitResult:
    """Least-squares slope of log(quantity) against log(1 + alpha1*omega_sup*t)."""
    idx, times = _window_indices(traj, window, 3)
    params, env = traj.params, traj.env
    states = [traj.states[i] for i in idx]
    if quantity in ("mean_k", "mean_omega"):
        field = quantity.removeprefix("mean_")
        vals = [F.integrate(s.grid, getattr(s, field)) / s.grid.volume for s in states]
    elif quantity == "L_min":
        vals = [traj.records[i].L_min for i in idx]
    else:
        raise ValueError(f"unknown quantity {quantity!r}")
    vals = np.asarray(vals)
    if np.any(vals <= 0.0):
        raise NonpositiveSamples(f"{quantity} must be positive throughout the window")

    x = np.log(1.0 + params.alpha1 * env.omega_sup * times)
    y = np.log(vals)
    xbar, ybar = x.mean(), y.mean()
    sxx = float(np.sum((x - xbar) ** 2))
    slope = float(np.sum((x - xbar) * (y - ybar)) / sxx)
    resid = y - (ybar + slope * (x - xbar))
    dof = len(x) - 2
    stderr = float(np.sqrt(np.sum(resid**2) / dof / sxx)) if dof > 0 else 0.0
    return FitResult(exponent=slope, stderr=stderr, window=(float(times[0]), float(times[-1])))
