"""Periodic grid and discrete differential/integral operators on plain arrays.

Everything lives on a uniform lattice over the torus (]0,l[)^d with d in
{1,2,3}.  Fields are float64 ndarrays sampled at the grid nodes, row-major
with axes x1..xd: a scalar has shape `grid.shape`, a vector stacks its d
components along a leading axis, shape `(d, *grid.shape)`, and a tensor such
as D(u) stacks two leading axes, shape `(d, d, *grid.shape)`.  Operators take
the grid first and return new arrays; they never write into their inputs.
Stencils count the spatial axes from the end, so one call serves a scalar and
every component of a vector alike.

Spatial derivatives are second-order centered differences, diffusion
operators are written in conservative flux form, and the Leray projection uses
the discrete Fourier transform with the exact symbol of the centered
difference.  These choices make the discrete counterparts of the continuous
identities exact:

* integration by parts:   sum(div(v) * f) == -sum(v . grad(f))
* conservativity:         integrate(div_flux(a, f)) == 0
* dissipativity:          sum(f * div_flux(a, f)) <= 0        (a >= 0)
* skew symmetry:          sum(f * advect(u, f)) == 0
* energy identity:        sum(u . div_tensor_flux(a, D(u))) == -sum(a |D(u)|^2)

Reductions use numpy's fixed-order pairwise summation over C-contiguous
arrays, one component at a time, so diagnostics are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NegativeCoefficient

__all__ = [
    "Grid",
    "gradient",
    "divergence",
    "sym_gradient",
    "frobenius_sq",
    "div_flux",
    "div_tensor_flux",
    "r_laplacian",
    "r_laplacian_vec",
    "leray_project",
    "integrate",
    "lp_norm",
    "w1p_seminorm",
    "advect",
    "advect_vec",
    "signed_power",
    "vector_signed_power",
    "max_face_gradient",
]

_COEFF_TOL = 1e-12  # negative coefficient entries beyond this raise


@dataclass(frozen=True)
class Grid:
    """Uniform periodic lattice on the cube (]0,side[)^dim with n points per axis.

    n must be even and at least 4: the Fourier symbol of the centered
    difference vanishes at the Nyquist mode, and the projection handles that
    mode explicitly only for even n.
    """

    dim: int
    n: int
    side: float

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {self.dim}")
        if self.n < 4 or self.n % 2 != 0:
            raise ValueError(f"n must be even and >= 4, got {self.n}")
        if not (self.side > 0.0 and np.isfinite(self.side)):
            raise ValueError(f"side must be positive and finite, got {self.side}")

    @property
    def h(self) -> float:
        return self.side / self.n

    @property
    def shape(self) -> tuple:
        return (self.n,) * self.dim

    @property
    def npoints(self) -> int:
        return self.n**self.dim

    @property
    def volume(self) -> float:
        return self.side**self.dim

    def coords(self) -> tuple:
        """Node coordinate arrays (x_1, ..., x_d), each of shape `self.shape`."""
        axes = [self.h * np.arange(self.n) for _ in range(self.dim)]
        return tuple(np.meshgrid(*axes, indexing="ij")) if self.dim > 1 else (axes[0],)


# ---------------------------------------------------------------------------
# stencil primitives; `ax` is a spatial axis 0..d-1, counted from the end


def _centered(a: np.ndarray, ax: int, g: Grid) -> np.ndarray:
    """Second-order centered difference with periodic wrap."""
    axis = ax - g.dim
    return (np.roll(a, -1, axis=axis) - np.roll(a, 1, axis=axis)) / (2.0 * g.h)


def _fwd(a: np.ndarray, ax: int, g: Grid) -> np.ndarray:
    """Two-point difference at the face j+1/2 along `ax`."""
    return (np.roll(a, -1, axis=ax - g.dim) - a) / g.h


def _face_avg(a: np.ndarray, ax: int, g: Grid) -> np.ndarray:
    """Arithmetic mean of the two cells adjacent to face j+1/2."""
    return 0.5 * (a + np.roll(a, -1, axis=ax - g.dim))


def _face_div(flux: np.ndarray, ax: int, g: Grid, h: float) -> np.ndarray:
    """Difference of face fluxes j+1/2 and j-1/2, divided by h."""
    return (flux - np.roll(flux, 1, axis=ax - g.dim)) / h


# ---------------------------------------------------------------------------
# differential operators


def gradient(g: Grid, f: np.ndarray) -> np.ndarray:
    """Centered-difference gradient, one component per axis."""
    return np.stack([_centered(f, ax, g) for ax in range(g.dim)])


def divergence(g: Grid, v: np.ndarray) -> np.ndarray:
    """Centered-difference divergence; exact negative adjoint of `gradient`."""
    out = np.zeros(g.shape)
    for ax in range(g.dim):
        out += _centered(v[ax], ax, g)
    return out


def sym_gradient(g: Grid, u: np.ndarray) -> np.ndarray:
    """Symmetrized velocity gradient D_ij = 0.5*(du_i/dx_j + du_j/dx_i)."""
    d = g.dim
    du = [_centered(u, j, g) for j in range(d)]  # du[j][i] = du_i/dx_j
    D = np.empty((d, d) + g.shape)
    for i in range(d):
        for j in range(i, d):
            D[i, j] = D[j, i] = 0.5 * (du[j][i] + du[i][j])
    return D


def frobenius_sq(g: Grid, D: np.ndarray) -> np.ndarray:
    """Pointwise squared Frobenius norm; off-diagonal entries count twice."""
    out = np.zeros(g.shape)
    for i in range(g.dim):
        out += D[i, i] ** 2
        for j in range(i + 1, g.dim):
            out += 2.0 * D[i, j] ** 2
    return out


def _check_coefficient(a: np.ndarray) -> np.ndarray:
    amin = a.min()
    if amin < -_COEFF_TOL:
        raise NegativeCoefficient(f"coefficient minimum {amin} < -{_COEFF_TOL}")
    # round-off negatives are treated as zero so the dissipation form stays nonneg
    return np.maximum(a, 0.0) if amin < 0.0 else a


def div_flux(g: Grid, a: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Conservative variable-coefficient diffusion div(a grad f).

    Face coefficients are arithmetic means of the adjacent cells; the discrete
    integral of the result over the torus is exactly zero, and the quadratic
    form sum(f * div_flux(a, f)) is nonpositive whenever a >= 0.
    """
    av = _check_coefficient(a)
    h2 = g.h * g.h
    out = np.zeros(g.shape)
    for ax in range(g.dim):
        flux = _face_avg(av, ax, g) * (np.roll(f, -1, axis=ax - g.dim) - f)
        out += _face_div(flux, ax, g, h2)
    return out


def div_tensor_flux(g: Grid, a: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Row-wise divergence of the tensor a*D using centered differences.

    Component i is sum_j d/dx_j (a * D_ij); the pointwise product keeps the
    discrete momentum/energy pairing with `sym_gradient` exact:
    sum(u . div_tensor_flux(a, D(u))) == -sum(a * |D(u)|^2).
    """
    av = _check_coefficient(a)
    out = np.zeros((g.dim,) + g.shape)
    for j in range(g.dim):
        out += _centered(av * D[:, j], j, g)
    return out


def _face_gradient_sq(g: Grid, f: np.ndarray, normal_axis: int) -> tuple:
    """(normal derivative, squared gradient magnitude) at the faces j+1/2."""
    gn = _fwd(f, normal_axis, g)
    mag2 = gn * gn
    for ax in range(g.dim):
        if ax == normal_axis:
            continue
        t = _face_avg(_centered(f, ax, g), normal_axis, g)
        mag2 = mag2 + t * t
    return gn, mag2


def r_laplacian(g: Grid, f: np.ndarray, r: float) -> np.ndarray:
    """Degenerate diffusion div(|grad f|^(r-2) grad f) in flux form.

    The face flux uses the two-point normal derivative and face-averaged
    tangential centered differences for the gradient magnitude.  Conservative
    (integral exactly zero) and dissipative (sum(f * r_laplacian(f)) <= 0).
    r == 2 is allowed and reduces to div_flux with unit coefficient.
    """
    if r < 2.0:
        raise ValueError(f"r must be >= 2, got {r}")
    out = np.zeros(g.shape)
    for ax in range(g.dim):
        gn, mag2 = _face_gradient_sq(g, f, ax)
        flux = mag2 ** ((r - 2.0) / 2.0) * gn if r != 2.0 else gn
        out += _face_div(flux, ax, g, g.h)
    return out


def r_laplacian_vec(g: Grid, u: np.ndarray, r: float) -> np.ndarray:
    """Row-wise div(|D(u)|^(r-2) D(u)) with face-assembled tensor magnitude.

    Mirrors the scalar construction: at a face with normal axis j, tensor
    entries involving direction j take their normal part from the two-point
    difference, all other parts are face averages of centered values.
    """
    if r < 2.0:
        raise ValueError(f"r must be >= 2, got {r}")
    d = g.dim
    du = [_centered(u, j, g) for j in range(d)]  # du[j][i] = du_i/dx_j

    out = np.zeros(u.shape)
    for j in range(d):  # faces with normal j
        face = {}
        for a in range(d):
            for b in range(a, d):
                if a == b == j:
                    face[(a, b)] = _fwd(u[j], j, g)
                elif a == j or b == j:
                    i = b if a == j else a  # the non-normal index
                    two_point = _fwd(u[i], j, g)
                    tangent = _face_avg(du[i][j], j, g)
                    face[(a, b)] = 0.5 * (two_point + tangent)
                else:
                    dab = 0.5 * (du[b][a] + du[a][b])
                    face[(a, b)] = _face_avg(dab, j, g)
        mag2 = np.zeros(g.shape)
        for a in range(d):
            mag2 += face[(a, a)] ** 2
            for b in range(a + 1, d):
                mag2 += 2.0 * face[(a, b)] ** 2
        w = mag2 ** ((r - 2.0) / 2.0) if r != 2.0 else 1.0
        flux = np.stack([w * face[(min(i, j), max(i, j))] for i in range(d)])
        out += _face_div(flux, j, g, g.h)
    return out


def signed_power(x: np.ndarray, r: float) -> np.ndarray:
    """|x|^(r-2) * x, the odd power nonlinearity of the damping terms."""
    return np.abs(x) ** (r - 2.0) * x


def vector_signed_power(v, r: float) -> np.ndarray:
    """|xi|^(r-2) * xi for a vector xi stacked along the first axis."""
    v = np.asarray(v)
    mag2 = sum(c * c for c in v)
    return mag2 ** ((r - 2.0) / 2.0) * v


def max_face_gradient(g: Grid, f: np.ndarray) -> float:
    """Largest face gradient magnitude, as used by the r-Laplacian fluxes."""
    m = 0.0
    for ax in range(g.dim):
        _, mag2 = _face_gradient_sq(g, f, ax)
        m = max(m, float(mag2.max()))
    return float(np.sqrt(m))


# ---------------------------------------------------------------------------
# Leray projection


def _difference_symbol(grid: Grid) -> list:
    """Fourier symbol sin(2 pi m / n) / h of the centered difference, per axis."""
    n, h, d = grid.n, grid.h, grid.dim
    base = np.sin(2.0 * np.pi * np.fft.fftfreq(n)) / h
    base[n // 2] = 0.0  # sin(pi) is only ~1e-16 in floats; the symbol must vanish exactly
    out = []
    for ax in range(d):
        shape = [1] * d
        shape[ax] = n
        out.append(base.reshape(shape))
    return out


def leray_project(g: Grid, v: np.ndarray) -> tuple:
    """Remove the discrete-gradient part of v.

    Returns (w, p) with w = v - gradient(p), mean(p) = 0, and the centered
    divergence of w at round-off level.  The pressure is solved in Fourier
    space with the exact centered-difference symbol; modes where the symbol
    vanishes (mean and Nyquist) carry no pressure and are left untouched in w,
    which is harmless because the centered divergence annihilates them.
    """
    sym = _difference_symbol(g)
    vhat = np.fft.fftn(v, axes=tuple(range(1, g.dim + 1)))
    denom = sum(s * s for s in sym)
    div_hat = sum(1j * s * vh for s, vh in zip(sym, vhat))
    with np.errstate(divide="ignore", invalid="ignore"):
        phat = np.where(denom > 0.0, -div_hat / np.where(denom > 0.0, denom, 1.0), 0.0)
    p = np.ascontiguousarray(np.fft.ifftn(phat).real)
    return v - gradient(g, p), p


# ---------------------------------------------------------------------------
# reductions and advection


def integrate(g: Grid, f: np.ndarray) -> float:
    """h^d * sum of values, fixed-order pairwise summation (deterministic)."""
    return float(g.h**g.dim * np.sum(f))


def lp_norm(g: Grid, f: np.ndarray, p: float) -> float:
    """(h^d * sum |f|^p)^(1/p) for p >= 1."""
    if p < 1.0:
        raise ValueError(f"p must be >= 1, got {p}")
    return float((g.h**g.dim * np.sum(np.abs(f) ** p)) ** (1.0 / p))


def w1p_seminorm(g: Grid, f: np.ndarray, p: float) -> float:
    """L^p norm of the centered-gradient magnitude."""
    if p < 1.0:
        raise ValueError(f"p must be >= 1, got {p}")
    mag2 = np.zeros(g.shape)
    for c in gradient(g, f):
        mag2 += c**2
    return float((g.h**g.dim * np.sum(mag2 ** (p / 2.0))) ** (1.0 / p))


def advect(g: Grid, u: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Skew-symmetric advection 0.5*(u . grad f + div(u f)) of a scalar or vector f.

    The discrete pairing sum(f * advect(u, f)) vanishes exactly (integration
    by parts of the centered difference), which is the discrete counterpart of
    the convective terms dropping out of energy balances.  A vector f is
    advected componentwise.
    """
    out = np.zeros(f.shape)
    for ax in range(g.dim):
        out += 0.5 * (u[ax] * _centered(f, ax, g) + _centered(u[ax] * f, ax, g))
    return out


advect_vec = advect  # the momentum term, named apart so it can be timed apart
