"""Observables and verification quantities computed from states and samples.

Per-sample records hold energies, dissipation, sink terms, envelope-violation
depths and the minimum length scale; their `E_turb` is the one integral of k
per sample.  `balance_report` folds over a run's (state, record) samples,
keeping a few scalars per sample `in_window` and no state, and evaluates the
window balances of the omega and k equations (with the regularization
source/damping integrals separated out) and the kinetic-energy equality gap.
`decay_fit` fits a log-log decay exponent to one window's times and values;
the entropy functional completes the set.
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
    InsufficientSamples,
    NonFiniteRecord,
    NonpositiveSamples,
)
from .model import ComparisonEnvelope, ModelParams, State

__all__ = [
    "DiagnosticsRecord",
    "BalanceReport",
    "FitResult",
    "record",
    "ndjson_line",
    "in_window",
    "balance_report",
    "entropy_phi",
    "entropy_functional",
    "require_fit_samples",
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
    mass_k: Tuple[float, float]  # integral of k (the records' E_turb) at the window's ends
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


def record(
    state: State,
    forcing: Optional[np.ndarray],
    params: ModelParams,
    env: ComparisonEnvelope,
    guard_activations: int = 0,
) -> DiagnosticsRecord:
    """Evaluate all per-sample observables for one state.

    L_min = min sqrt(k)/omega, or 0.0 where omega is not positive; inside the
    envelopes it is at least sqrt(kappa)/omega_upper.
    """
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
# window balances: one pass over a run's (state, record) samples


def in_window(t: float, window) -> bool:
    """Whether sample time `t` lies in `window`, to 1e-12 relative: the one window test."""
    s, e = window
    slack = 1e-12 * max(1.0, abs(s), abs(e))
    return s - slack <= t <= e + slack


def _trapezoid(values, times) -> float:
    total = 0.0
    for i in range(len(times) - 1):
        total += 0.5 * (values[i] + values[i + 1]) * (times[i + 1] - times[i])
    return total


def _eps_correction(state: State, field: str, envelope, params: ModelParams,
                    env: ComparisonEnvelope) -> float:
    """eps * integral(source - odd-power damping) in one equation at one sample.

    `field` is "omega" or "k" and `envelope` its lower envelope (omega_lower
    or kappa), whose (r-1)-th power is the source.
    """
    if not params.regularized:
        return 0.0
    src = envelope(state.t, env, params) ** (params.r - 1.0) * state.grid.volume
    damp = F.integrate(state.grid, F.signed_power(getattr(state, field), params.r))
    return params.eps * (src - damp)


def _eps_drain(state: State, params: ModelParams) -> float:
    """eps * integral(u . (r-laplacian(u) - |u|^(r-2) u)), the regularized u-energy drain."""
    if not params.regularized:
        return 0.0
    g, u = state.grid, state.u
    rl = F.r_laplacian_vec(g, u, params.r)
    damp = F.vector_signed_power(u, params.r)
    return params.eps * F.integrate(g, F.pointwise_dot(u, rl - damp))


def _production_integral(state: State, params: ModelParams) -> float:
    g = state.grid
    prod = M.production_coefficient(state.k, state.omega, params)
    dsq = F.frobenius_sq(g, F.sym_gradient(g, state.u))
    return params.nu0 * F.integrate(g, prod * dsq)


def _balance_scalars(state: State, rec: DiagnosticsRecord, params: ModelParams,
                     env: ComparisonEnvelope) -> tuple:
    """All that the window balances read of one sample, each eps correction evaluated once."""
    g = state.grid
    return (
        state.t,
        F.integrate(g, state.omega),
        rec.E_turb,
        # unregularized, the production coefficient is the eddy coefficient, so the
        # production integral is the record's dissipation, bit for bit
        _production_integral(state, params) if params.regularized else rec.dissipation,
        _eps_correction(state, "omega", M.omega_lower, params, env),
        _eps_correction(state, "k", M.kappa, params, env),
        _eps_drain(state, params),
        rec.sink_omega,
        rec.sink_k,
        rec.E_kin,
        rec.power_in,
        rec.dissipation,
    )


def balance_report(samples, window, params: ModelParams, env: ComparisonEnvelope) -> BalanceReport:
    """The window balances of a run, folded over its (state, record) samples in one pass.

    Only the scalars of `_balance_scalars` are kept from each sample
    `in_window`, which must hold at least 2.  With eps corrections (zero unless
    regularized) taken out of each equation and time integrals by the
    trapezoid rule on the sample times:

    - omega_residual = |d integral(omega) + integrated sink - eps corrections|.
      It is exact for the semi-discrete dynamics up to time quadrature:
      advection and fluxes integrate to zero, so only the damping (and eps
      terms) move the mean of omega.
    - mu_proxy = d integral(k) - integral of (production - sink + eps
      corrections), and k_residual = |mu_proxy|.  For the continuous limit
      object this is the mass of the nonnegative defect measure on the window.
    - energy_gap = (E_kin(s) + work + eps drain) - (E_kin(t) + dissipation),
      the kinetic-energy equality defect; it vanishes identically for u == 0.
    """
    rows = []
    for state, rec in samples:  # every pair is drawn; none is held while the next is
        if in_window(state.t, window):
            rows.append(_balance_scalars(state, rec, params, env))
        del state, rec
    if len(rows) < 2:
        raise InsufficientSamples(f"window {window} holds {len(rows)} samples, need 2")
    (times, mass_om, mass_k, production, eps_om, eps_k, drain,
     sink_om, sink_k, e_kin, power, diss) = zip(*rows)
    omega_net = [s - e for s, e in zip(sink_om, eps_om)]
    k_net = [p - s + e for p, s, e in zip(production, sink_k, eps_k)]
    mu_proxy = mass_k[-1] - mass_k[0] - _trapezoid(k_net, times)
    work = e_kin[0] + _trapezoid(power, times) + _trapezoid(drain, times)
    return BalanceReport(
        window=(float(times[0]), float(times[-1])),
        mass_k=(mass_k[0], mass_k[-1]),
        omega_residual=abs(mass_om[-1] - mass_om[0] + _trapezoid(omega_net, times)),
        k_residual=abs(mu_proxy),
        mu_proxy=mu_proxy,
        energy_gap=work - (e_kin[-1] + _trapezoid(diss, times)),
        epsilon_corrections={
            "omega": _trapezoid(eps_om, times),
            "k": _trapezoid(eps_k, times),
            "u_energy": _trapezoid(drain, times),
        },
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


def require_fit_samples(quantity: str, count: int) -> None:
    """Raise InsufficientSamples unless a fit window holds at least 3 samples."""
    if count < 3:
        raise InsufficientSamples(f"a {quantity} fit needs 3 samples in its window, got {count}")


def decay_fit(quantity: str, times, values, params: ModelParams, env: ComparisonEnvelope) -> FitResult:
    """Least-squares slope of log(values) against log(1 + alpha1*omega_sup*t).

    `times` and `values` are the samples of one window, at least 3 of them
    (`require_fit_samples`); `quantity` names the values in errors.
    """
    require_fit_samples(quantity, len(times))
    times = np.asarray(times, dtype=float)
    vals = np.asarray(values)
    if np.any(vals <= 0.0):
        raise NonpositiveSamples(f"{quantity} must be positive throughout the window")

    x = np.log(1.0 + params.alpha1 * env.omega_sup * times)
    y = np.log(vals)
    xbar, ybar = x.mean(), y.mean()
    sxx = float(np.sum((x - xbar) ** 2))
    slope = float(np.sum((x - xbar) * (y - ybar)) / sxx)
    resid = y - (ybar + slope * (x - xbar))
    stderr = float(np.sqrt(np.sum(resid**2) / (len(x) - 2) / sxx))  # len(x) >= 3
    return FitResult(exponent=slope, stderr=stderr, window=(float(times[0]), float(times[-1])))
