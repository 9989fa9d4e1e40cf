"""Two-equation turbulence closure: parameters, envelopes and right-hand sides.

The unregularized system evolves (u, omega, k) with eddy diffusivity k/omega,
quadratic frequency damping and turbulent-energy production fed by the mean
strain rate.  The regularized variant replaces k/omega by the positive-part
quotient k+/(eps + omega+), adds degenerate r-Laplacian dissipation with
weight eps, odd-power damping, and time-dependent coercivity sources built
from the comparison envelopes, which makes the decaying envelope pair an exact
spatially constant solution.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import fields as F
from .errors import DegenerateOmega, IncompatibleGrid
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
                raise ValueError(f"{name} must be positive")
        if self.eps < 0.0:
            raise ValueError("eps must be nonnegative")
        if self.regularized:
            if not self.eps > 0.0:
                raise ValueError("regularized mode needs eps > 0")
            if not self.r > 2.0:
                raise ValueError("regularized mode needs r > 2")
            if self.r <= 3.0:
                warnings.warn(
                    f"r = {self.r} <= 3; the implicit mode is only known to be "
                    "well behaved for r > 3",
                    stacklevel=2,
                )


@dataclass(frozen=True)
class ComparisonEnvelope:
    """Initial-data bounds: omega_star <= omega0 <= omega_sup, k0 >= k_star."""

    omega_star: float
    omega_sup: float
    k_star: float

    def __post_init__(self):
        if not (0.0 < self.omega_star <= self.omega_sup):
            raise ValueError("need 0 < omega_star <= omega_sup")
        if not self.k_star > 0.0:
            raise ValueError("k_star must be positive")


@dataclass(frozen=True)
class State:
    """One snapshot (u, omega, k, p) at time t on `grid`.

    u has shape `(dim, *grid.shape)`, the scalars `grid.shape`.  `p` is the
    last projection pressure (diagnostic only) and `guard_hits` counts grid
    points clamped by the positivity guard in the step that produced this
    state.  The arrays are stored as C-contiguous float64 and marked
    read-only, so a state never changes once built.
    """

    t: float
    grid: Grid
    u: np.ndarray
    omega: np.ndarray
    k: np.ndarray
    p: np.ndarray
    guard_hits: int = 0

    def __post_init__(self):
        g = self.grid
        for name, shape in (("u", (g.dim,) + g.shape), ("omega", g.shape), ("k", g.shape),
                            ("p", g.shape)):
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
        if not (self.omega0 > 0.0 and self.k0 > 0.0):
            raise ValueError("omega0 and k0 must be positive")


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
        p=np.zeros(grid.shape),
    )


# ---------------------------------------------------------------------------
# coefficient fields


def eddy_coefficient(k: np.ndarray, omega: np.ndarray, params: ModelParams) -> np.ndarray:
    """Diffusivity quotient without the nu prefactor.

    Regularized: k+/(eps + omega+).  Unregularized: k/omega, which requires
    omega > 0 everywhere.
    """
    if params.regularized:
        return np.maximum(k, 0.0) / (params.eps + np.maximum(omega, 0.0))
    _require_positive(omega)
    return k / omega


def production_coefficient(k: np.ndarray, omega: np.ndarray, params: ModelParams) -> np.ndarray:
    """Coefficient of |D(u)|^2 in the k equation, without nu0.

    The regularized denominator eps + omega+ + eps*k+ keeps the production
    bounded by 1/eps.
    """
    if params.regularized:
        kp = np.maximum(k, 0.0)
        return kp / (params.eps + np.maximum(omega, 0.0) + params.eps * kp)
    _require_positive(omega)
    return k / omega


def _require_positive(omega: np.ndarray):
    if omega.min() <= 0.0:
        raise DegenerateOmega(f"min(omega) = {omega.min()} <= 0")


# ---------------------------------------------------------------------------
# right-hand sides


def rhs(
    state: State,
    t: float,
    forcing: Optional[np.ndarray],
    params: ModelParams,
    env: ComparisonEnvelope,
):
    """Semi-discrete right-hand sides (du, domega, dk), pressure excluded.

    The caller projects u.  For spatially constant states this reduces exactly
    to the homogeneous ODE system, and for eps = 0 the integrals of domega and
    dk reduce exactly to the damping/production integrals (advection and
    fluxes are conservative).
    """
    g = state.grid
    u, om, kk = state.u, state.omega, state.k
    eddy = eddy_coefficient(kk, om, params)
    D = F.sym_gradient(g, u)
    om_pos = np.maximum(om, 0.0)

    du = -F.advect_vec(g, u, u) + params.nu0 * F.div_tensor_flux(g, eddy, D)
    if forcing is not None:
        du = du + forcing

    domega = (
        -F.advect(g, u, om)
        + params.nu1 * F.div_flux(g, eddy, om)
        - params.alpha1 * (om_pos * om)
    )

    prod = production_coefficient(kk, om, params)
    dk = (
        -F.advect(g, u, kk)
        + params.nu2 * F.div_flux(g, eddy, kk)
        + params.nu0 * (prod * F.frobenius_sq(g, D))
        - params.alpha2 * (kk * om_pos)
    )

    if params.regularized:
        eps, r = params.eps, params.r
        du = du + eps * (F.r_laplacian_vec(g, u, r) - F.vector_signed_power(u, r))
        domega = domega + eps * (
            F.r_laplacian(g, om, r)
            - F.signed_power(om, r)
            + omega_lower(t, env, params) ** (r - 1.0)
        )
        dk = dk + eps * (
            F.r_laplacian(g, kk, r)
            - F.signed_power(kk, r)
            + kappa(t, env, params) ** (r - 1.0)
        )

    return du, domega, dk
