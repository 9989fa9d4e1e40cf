"""Two-equation turbulence closure: parameters, envelopes and right-hand sides.

The unregularized system evolves (u, omega, k) with eddy diffusivity k/omega,
quadratic frequency damping and turbulent-energy production fed by the mean
strain rate.  The regularized variant replaces k/omega by the positive-part
quotient k+/(eps + omega+), adds degenerate r-Laplacian dissipation with
weight eps, odd-power damping, and time-dependent coercivity sources built
from the comparison envelopes, which makes the decaying envelope pair an exact
spatially constant solution.

`rhs` evaluates each stencil of the system once and shares it between the
operators that read it; it can also report the maxima the CFL step needs, so
neither time-stepping scheme builds the same stencils again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import fields as F
from .errors import DegenerateOmega, IncompatibleGrid, ValidationError
from .fields import Grid

__all__ = [
    "ModelParams",
    "ComparisonEnvelope",
    "State",
    "HomogeneousIC",
    "omega_lower",
    "omega_upper",
    "kappa",
    "homogeneous_solution",
    "homogeneous_state",
    "eddy_coefficient",
    "production_coefficient",
    "rhs",
]


@dataclass(frozen=True)
class ModelParams:
    """Closure coefficients plus the regularization knobs (eps, r)."""

    nu0: float = 1.0
    nu1: float = 1.0
    nu2: float = 1.0
    alpha1: float = 1.0
    alpha2: float = 1.0
    eps: float = 0.0
    r: float = 3.2
    regularized: bool = False

    def __post_init__(self):
        for name in ("nu0", "nu1", "nu2", "alpha1", "alpha2"):
            if not getattr(self, name) > 0.0:
                raise ValidationError(name, "must be positive")
        if not self.eps >= 0.0:
            raise ValidationError("eps", "must be nonnegative")
        if self.eps != 0.0 and not self.regularized:
            raise ValidationError("eps", "is read only when regularized = true")
        if self.regularized:
            if not self.eps > 0.0:
                raise ValidationError("eps", "must be positive when regularized")
            if not self.r > 2.0:
                raise ValidationError("r", "must exceed 2 when regularized")


@dataclass(frozen=True)
class ComparisonEnvelope:
    """Initial-data bounds: omega_star <= omega0 <= omega_sup, k0 >= k_star."""

    omega_star: float
    omega_sup: float
    k_star: float

    def __post_init__(self):
        if not (0.0 < self.omega_star <= self.omega_sup):
            raise ValidationError("omega_star", "need 0 < omega_star <= omega_sup")
        if not self.k_star > 0.0:
            raise ValidationError("k_star", "must be positive")


@dataclass(frozen=True)
class State:
    """One snapshot (u, omega, k) at time t on `grid`; no pressure is kept.

    u has shape `(dim, *grid.shape)`, the scalars `grid.shape`, and
    `guard_hits` counts the step attempts that the positivity guard rejected
    before the one that produced this state was accepted (0 for a bare
    step).  The arrays are stored as C-contiguous float64 and marked
    read-only, so a state never changes once built.
    """

    t: float
    grid: Grid
    u: np.ndarray
    omega: np.ndarray
    k: np.ndarray
    guard_hits: int = 0

    def __post_init__(self):
        g = self.grid
        for name, shape in (("u", (g.dim,) + g.shape), ("omega", g.shape), ("k", g.shape)):
            arr = np.ascontiguousarray(getattr(self, name), dtype=np.float64)
            if arr.shape != shape:
                raise IncompatibleGrid(f"{name} of shape {arr.shape} does not fit grid {shape}")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class HomogeneousIC:
    """Spatially constant initial data."""

    u_const: tuple
    omega0: float
    k0: float

    def __post_init__(self):
        for name in ("omega0", "k0"):
            if not getattr(self, name) > 0.0:
                raise ValidationError(name, "must be positive")


# ---------------------------------------------------------------------------
# comparison envelopes and the exact homogeneous solution


def omega_lower(t: float, env: ComparisonEnvelope, params: ModelParams) -> float:
    """Decaying lower envelope for omega."""
    return env.omega_star / (1.0 + params.alpha1 * t * env.omega_star)

def omega_upper(t: float, env: ComparisonEnvelope, params: ModelParams) -> float:
    """Decaying upper envelope for omega."""
    return env.omega_sup / (1.0 + params.alpha1 * t * env.omega_sup)

def kappa(t: float, env: ComparisonEnvelope, params: ModelParams) -> float:
    """Decaying lower envelope for k."""
    return env.k_star / (1.0 + params.alpha1 * t * env.omega_sup) ** (
        params.alpha2 / params.alpha1
    )


def homogeneous_solution(t: float, ic: HomogeneousIC, params: ModelParams):
    """Exact spatially constant solution for zero forcing and eps = 0.

    omega(t) = omega0 / (1 + alpha1*omega0*t),
    k(t)     = k0 / (1 + alpha1*omega0*t)^(alpha2/alpha1),
    u stays at its initial constant.
    """
    s = 1.0 + params.alpha1 * ic.omega0 * t
    return ic.u_const, ic.omega0 / s, ic.k0 / s ** (params.alpha2 / params.alpha1)


def homogeneous_state(grid: Grid, ic: HomogeneousIC, params: ModelParams, t: float = 0.0) -> State:
    """Sample the exact homogeneous solution onto a grid."""
    u_const, om, kk = homogeneous_solution(t, ic, params)
    return State(
        t=t,
        grid=grid,
        u=np.stack([np.full(grid.shape, float(v)) for v in u_const]),
        omega=np.full(grid.shape, float(om)),
        k=np.full(grid.shape, float(kk)),
    )


# ---------------------------------------------------------------------------
# coefficient fields


def eddy_coefficient(k: np.ndarray, omega: np.ndarray, params: ModelParams) -> np.ndarray:
    """Diffusivity quotient without the nu prefactor.

    Regularized: k+/(eps + omega+).  Unregularized: k/omega, which requires
    omega > 0 everywhere.
    """
    if params.regularized:
        return _regularized_eddy(np.maximum(k, 0.0), np.maximum(omega, 0.0), params)
    if omega.min() <= 0.0:
        raise DegenerateOmega(f"min(omega) = {omega.min()} <= 0")
    return k / omega


def production_coefficient(k: np.ndarray, omega: np.ndarray, params: ModelParams) -> np.ndarray:
    """Coefficient of |D(u)|^2 in the k equation, without nu0.

    The regularized denominator eps + omega+ + eps*k+ keeps the production
    bounded by 1/eps.
    """
    if not params.regularized:
        return eddy_coefficient(k, omega, params)
    return _regularized_production(np.maximum(k, 0.0), np.maximum(omega, 0.0), params)


def _regularized_eddy(kp, op, params):
    """k+/(eps + omega+) from the positive parts kp = k+ and op = omega+."""
    return kp / (params.eps + op)


def _regularized_production(kp, op, params):
    """k+/(eps + omega+ + eps*k+) from the positive parts kp = k+ and op = omega+."""
    return kp / (params.eps + op + params.eps * kp)


# ---------------------------------------------------------------------------
# right-hand sides


def rhs(
    state: State,
    forcing: Optional[np.ndarray],
    params: ModelParams,
    env: ComparisonEnvelope,
    *,
    limits: Optional[list] = None,
):
    """Semi-discrete right-hand sides (du, domega, dk), pressure excluded.

    The caller projects u, and the envelope sources are taken at `state.t`.
    For spatially constant states this reduces exactly to the homogeneous ODE
    system, and for eps = 0 the integrals of domega and dk reduce exactly to
    the damping/production integrals (advection and fluxes are conservative).

    Every stencil is evaluated once: the positive parts of omega and k (which
    the regularized coefficients and the damping share), the checked eddy
    coefficient and its face averages, the velocity gradient, and for omega
    and k the centered gradient and the face differences are built here and
    handed to the operators, and each is dropped after its last use.  The
    vector r-Laplacian assembles its own face tensors, so it runs before D(u)
    is built.  A list `limits` receives the inputs of `timestepper.cfl_dt`
    for this state: the largest eddy coefficient, then (regularized) the
    largest |D(u)|^2 and squared face gradients of omega and k.
    """
    g = state.grid
    u, om, kk = state.u, state.omega, state.k
    eps, r = params.eps, params.r
    om_pos = np.maximum(om, 0.0)
    if params.regularized:
        k_pos = np.maximum(kk, 0.0)
        eddy = _regularized_eddy(k_pos, om_pos, params)
    else:
        eddy = eddy_coefficient(kk, om, params)
    if limits is not None:
        limits.append(float(eddy.max()))
    av = F.check_coefficient(eddy)

    grad_u = F.partials(g, u)
    adv = F.advect_vec(g, u, u, grad=grad_u)
    lap_u = F.r_laplacian_vec(g, u, r, grad=grad_u) if params.regularized else None
    D = F.sym_gradient(g, u, grad=grad_u)
    del grad_u
    du = F.div_tensor_flux(g, av, D)
    du *= params.nu0
    du -= adv
    del adv
    dsq = F.frobenius_sq(g, D)
    del D
    if forcing is not None:
        du += forcing
    if params.regularized:
        lap_u -= F.vector_signed_power(u, r)
        lap_u *= eps
        du += lap_u
        del lap_u
        if limits is not None:
            limits.append(float(dsq.max()))
    # unregularized, the production coefficient is the eddy coefficient k/omega
    dsq *= _regularized_production(k_pos, om_pos, params) if params.regularized else eddy
    dsq *= params.nu0

    faces = F.face_averages(g, av)
    del eddy, av
    domega, lap = _transport(g, u, om, faces, params.nu1, params, limits)
    domega -= params.alpha1 * (om_pos * om)
    if lap is not None:
        domega += _eps_terms(lap, om, omega_lower(state.t, env, params), params)

    dk, lap = _transport(g, u, kk, faces, params.nu2, params, limits)
    del faces
    dk += dsq
    dk -= params.alpha2 * (kk * om_pos)
    if lap is not None:
        dk += _eps_terms(lap, kk, kappa(state.t, env, params), params)

    return du, domega, dk


def _transport(g, u, f, faces, nu, params, limits):
    """(nu * div(a grad f) - advect(u, f), eps-free r-Laplacian of f or None).

    The centered gradient and the face differences of f are built once and
    shared by the operators; they are dropped on return.
    """
    grad = F.partials(g, f)
    diffs = F.face_differences(g, f)
    rate = F.div_flux(g, None, f, faces=faces, diffs=diffs)
    rate *= nu
    rate -= F.advect(g, u, f, grad=grad)
    if not params.regularized:
        return rate, None
    return rate, F.r_laplacian(g, f, params.r, grad=grad, diffs=diffs, maxima=limits)


def _eps_terms(lap, f, envelope, params):
    """eps * (r-Laplacian - |f|^(r-2) f + envelope^(r-1)), written into `lap`."""
    lap -= F.signed_power(f, params.r)
    lap += envelope ** (params.r - 1.0)
    lap *= params.eps
    return lap
