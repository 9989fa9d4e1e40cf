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

This module provides the family constructors, the algebraic residual checker,
state/trajectory transformation (the scaled state lives on the same nodes of
the box of side l/beta, so no resampling is needed), and a discrete
PDE-residual evaluator used to verify invariance numerically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from . import diagnostics as diag
from . import fields as F
from . import model as M
from . import timestepper as T
from .errors import InsufficientSamples, NonpositiveParameter, NonpositiveSamples
from .fields import Grid
from .model import ComparisonEnvelope, ModelParams, State

__all__ = [
    "ScalingParams",
    "CoefficientFamily",
    "family_from",
    "general_family",
    "beta_general",
    "coefficient_invariance_residuals",
    "CoefficientInvarianceResult",
    "transform_state",
    "transform_trajectory",
    "PdeResiduals",
    "pde_residual",
    "InvarianceReport",
    "invariance_experiment",
    "report_ndjson_lines",
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

    def with_sigma(self, sigma: float) -> "ScalingParams":
        """Copy with a replaced sigma (for controlled violation experiments)."""
        return ScalingParams(self.rho, self.gamma, self.alpha, self.beta, sigma)


def family_from(rho: float, gamma: float) -> ScalingParams:
    """Two-parameter family (rho, gamma) -> (rho, rho/gamma, gamma, rho, gamma^2)."""
    if not (rho > 0.0 and gamma > 0.0):
        raise NonpositiveParameter("rho and gamma must be positive")
    return ScalingParams(rho=rho, gamma=gamma, alpha=rho, beta=rho / gamma, sigma=gamma * gamma)


def beta_general(A: float, B: float, rho: float, gamma: float) -> float:
    """Spatial scale beta = rho^A * gamma^(1-2B) of the power-law family."""
    if not (A > 0.0 and B > 0.0 and rho > 0.0 and gamma > 0.0):
        raise NonpositiveParameter("A, B, rho, gamma must be positive")
    return rho**A * gamma ** (1.0 - 2.0 * B)


def general_family(A: float, B: float, rho: float, gamma: float) -> ScalingParams:
    """Scaling with beta from `beta_general`, alpha = beta*gamma, sigma = gamma^2."""
    beta = beta_general(A, B, rho, gamma)
    return ScalingParams(rho=rho, gamma=gamma, alpha=beta * gamma, beta=beta, sigma=gamma * gamma)


@dataclass(frozen=True)
class CoefficientFamily:
    """Power-law coefficients d_i = D_i omega^-A k^B, g_m = G_m omega^A k^(1-B)."""

    A: float
    B: float
    D1: float
    D2: float
    D3: float
    G2: float
    G3: float

    def __post_init__(self):
        for name in ("A", "B", "D1", "D2", "D3", "G2", "G3"):
            if not getattr(self, name) > 0.0:
                raise NonpositiveParameter(f"{name} must be positive")

    @classmethod
    def kolmogorov(cls, params: ModelParams) -> "CoefficientFamily":
        """A = B = 1 with D_i = nu_(i-1), G_2 = alpha1, G_3 = alpha2."""
        return cls(
            A=1.0,
            B=1.0,
            D1=params.nu0,
            D2=params.nu1,
            D3=params.nu2,
            G2=params.alpha1,
            G3=params.alpha2,
        )

    def d(self, i: int, omega: float, k: float) -> float:
        D = (self.D1, self.D2, self.D3)[i - 1]
        return D * omega**-self.A * k**self.B

    def g(self, m: int, omega: float, k: float) -> float:
        G = (self.G2, self.G3)[m - 2]
        return G * omega**self.A * k ** (1.0 - self.B)


@dataclass(frozen=True)
class CoefficientInvarianceResult:
    residuals: dict  # per coefficient name, max over samples
    max_d: float
    max_g: float

    @property
    def overall(self) -> float:
        return max(self.max_d, self.max_g)


def coefficient_invariance_residuals(
    fam: CoefficientFamily, sp: ScalingParams, samples: Sequence[Tuple[float, float]]
) -> CoefficientInvarianceResult:
    """Max relative defect of the coefficient scaling conditions over samples.

    For each (omega, k) checks |beta^2 d_i(rho w, sigma k) / (alpha d_i(w, k)) - 1|
    and the same for g_m without the beta^2 factor.
    """
    worst = {"d1": 0.0, "d2": 0.0, "d3": 0.0, "g2": 0.0, "g3": 0.0}
    for omega, k in samples:
        if not (omega > 0.0 and k > 0.0):
            raise NonpositiveSamples(f"sample ({omega}, {k}) must be positive")
        for i in (1, 2, 3):
            lhs = sp.beta**2 * fam.d(i, sp.rho * omega, sp.sigma * k)
            rhs = sp.alpha * fam.d(i, omega, k)
            worst[f"d{i}"] = max(worst[f"d{i}"], abs(lhs / rhs - 1.0))
        for m in (2, 3):
            lhs = fam.g(m, sp.rho * omega, sp.sigma * k)
            rhs = sp.alpha * fam.g(m, omega, k)
            worst[f"g{m}"] = max(worst[f"g{m}"], abs(lhs / rhs - 1.0))
    return CoefficientInvarianceResult(
        residuals=worst,
        max_d=max(worst["d1"], worst["d2"], worst["d3"]),
        max_g=max(worst["g2"], worst["g3"]),
    )


# ---------------------------------------------------------------------------
# state transformation


def transform_state(state: State, sp: ScalingParams) -> State:
    """Rescale one snapshot onto Grid(d, n, side/beta): fields scaled by (gamma, rho, sigma).

    The scaled nodes are the source nodes times 1/beta, so each field is a
    plain product and no interpolation happens.  The time label becomes
    t/alpha, and the diagnostic pressure scales like gamma^2.
    """
    g = state.grid
    return State(
        t=state.t / sp.alpha,
        grid=Grid(g.dim, g.n, g.side / sp.beta),
        u=sp.gamma * state.u,
        omega=sp.rho * state.omega,
        k=sp.sigma * state.k,
        p=sp.gamma**2 * state.p,
        guard_hits=state.guard_hits,
    )


def transform_trajectory(traj, sp: ScalingParams):
    """Transform every sample; records are recomputed on the scaled states."""
    env = traj.env
    env_t = ComparisonEnvelope(
        omega_star=sp.rho * env.omega_star,
        omega_sup=sp.rho * env.omega_sup,
        k_star=sp.sigma * env.k_star,
    )
    states = tuple(transform_state(s, sp) for s in traj.states)
    records = tuple(diag.record(s, None, traj.params, env_t) for s in states)
    times = tuple(s.t for s in states)
    return T.Trajectory(times, states, records, traj.params, env_t)


# ---------------------------------------------------------------------------
# discrete PDE residuals


@dataclass(frozen=True)
class PdeResiduals:
    """Max-over-interior-times L2 residual norms, one per equation."""

    u: float
    omega: float
    k: float


def _ddt_weights(a: float, b: float):
    """Second-order three-point derivative weights on spacing (a, b)."""
    w_m = -b / (a * (a + b))
    w_0 = (b - a) / (a * b)
    w_p = a / (b * (a + b))
    return w_m, w_0, w_p


def pde_residual(traj, params: ModelParams, forcing=None) -> PdeResiduals:
    """Residual norms of the discrete equations along a sampled trajectory.

    Time derivatives use three-point differences on the sample grid; interior
    samples only.  The u-residual is Leray-projected before measuring since
    the pressure gradient is not part of the reduced dynamics.
    """
    if len(traj.times) < 3:
        raise InsufficientSamples("pde_residual needs at least 3 samples")
    fprov = T.as_forcing(forcing)
    g = traj.states[0].grid
    env = traj.env
    worst = {"u": 0.0, "omega": 0.0, "k": 0.0}
    times = np.asarray(traj.times, dtype=float)
    for i in range(1, len(times) - 1):
        a = times[i] - times[i - 1]
        b = times[i + 1] - times[i]
        wm, w0, wp = _ddt_weights(a, b)
        s_m, s_0, s_p = traj.states[i - 1], traj.states[i], traj.states[i + 1]
        du, dom, dk = M.rhs(s_0, float(times[i]), fprov(float(times[i])), params, env)

        ru = wm * s_m.u + w0 * s_0.u + wp * s_p.u - du
        ru_sol, _ = F.leray_project(g, ru)
        rom = wm * s_m.omega + w0 * s_0.omega + wp * s_p.omega - dom
        rk = wm * s_m.k + w0 * s_0.k + wp * s_p.k - dk

        hd = g.h**g.dim
        worst["u"] = max(
            worst["u"], float(np.sqrt(hd * sum(np.sum(c**2) for c in ru_sol)))
        )
        worst["omega"] = max(worst["omega"], float(np.sqrt(hd * np.sum(rom**2))))
        worst["k"] = max(worst["k"], float(np.sqrt(hd * np.sum(rk**2))))
    return PdeResiduals(u=worst["u"], omega=worst["omega"], k=worst["k"])


@dataclass(frozen=True)
class InvarianceReport:
    """Transformed vs scaled-original residuals and the per-equation verdicts."""

    sp: ScalingParams
    transformed: PdeResiduals
    original: PdeResiduals
    expected: PdeResiduals  # originals times the exact per-equation factors
    passed: dict
    overall: bool


_VERDICT_MARGIN = 3.0
_VERDICT_FLOOR = 1e-14


def invariance_experiment(traj, sp: ScalingParams, params: ModelParams) -> InvarianceReport:
    """Transform a trajectory and compare its residuals to the scaled originals.

    Under an invariance-respecting scaling the discrete residual transforms
    exactly with factor gamma*alpha (u), rho*alpha (omega), sigma*alpha (k),
    times beta^(-d/2) from the L2 measure, so the transformed residual should
    stay within a small margin of the scaled original.
    """
    d = traj.states[0].grid.dim
    orig = pde_residual(traj, params)
    traj_t = transform_trajectory(traj, sp)
    trans = pde_residual(traj_t, params)
    meas = sp.beta ** (-0.5 * d)
    expected = PdeResiduals(
        u=sp.gamma * sp.alpha * meas * orig.u,
        omega=sp.rho * sp.alpha * meas * orig.omega,
        k=sp.sigma * sp.alpha * meas * orig.k,
    )
    passed = {}
    for name in ("u", "omega", "k"):
        tv = getattr(trans, name)
        ev = getattr(expected, name)
        passed[name] = tv <= _VERDICT_MARGIN * ev + _VERDICT_FLOOR
    return InvarianceReport(
        sp=sp,
        transformed=trans,
        original=orig,
        expected=expected,
        passed=passed,
        overall=all(passed.values()),
    )


def report_ndjson_lines(report: InvarianceReport) -> list:
    """Serialize an invariance report, one NDJSON object per equation."""
    lines = []
    for name in ("u", "omega", "k"):
        tv = getattr(report.transformed, name)
        ov = getattr(report.original, name)
        ev = getattr(report.expected, name)
        ok = "true" if report.passed[name] else "false"
        lines.append(
            "{"
            + f'"equation": "{name}", "transformed_residual": {tv:.17g}, '
            + f'"original_residual": {ov:.17g}, "scaled_original_residual": {ev:.17g}, '
            + f'"pass": {ok}'
            + "}"
        )
    return lines
