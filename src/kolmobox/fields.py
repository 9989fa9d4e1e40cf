"""Periodic grid and discrete differential/integral operators on plain arrays.

Everything lives on a uniform lattice over the torus (]0,l[)^d with d in
{1,2,3}.  Fields are float64 ndarrays sampled at the grid nodes, row-major
with axes x1..xd: a scalar has shape `grid.shape`, a vector stacks its d
components along a leading axis, shape `(d, *grid.shape)`, and a tensor such
as D(u) stacks two leading axes, shape `(d, d, *grid.shape)`.  Operators take
the grid first and return new arrays; they never write into their inputs.
Stencils count the spatial axes from the end, so one call serves a scalar and
every component of a vector alike.  They are slice differences with periodic
wrap written into one fresh array (`_diff`, `_next`), with the same
subtraction and then the same division as a rolled copy would give, bit for
bit.

A caller that applies several operators to the same field can build the
shared stencils once -- `partials`, `face_differences`, `face_averages` of a
`check_coefficient`-ed coefficient, `sym_gradient` -- and hand them to the
operators as keyword-only arguments; each operator builds what it is not
given, and the result is the same bit for bit either way.  The shared pieces
are lists with one array per axis, so their blocks have the sizes the
operators' own temporaries have.

Spatial derivatives are second-order centered differences, diffusion
operators are written in conservative flux form, and the Leray projection uses
the real-to-complex discrete Fourier transform with the exact symbol of the
centered difference, built once per grid.  These choices make the discrete
counterparts of the continuous identities exact:

* integration by parts:   sum(div(v) * f) == -sum(v . grad(f))
* conservativity:         integrate(div_flux(a, f)) == 0
* dissipativity:          sum(f * div_flux(a, f)) <= 0        (a >= 0)
* skew symmetry:          sum(f * advect(u, f)) == 0
* energy identity:        sum(u . div_tensor_flux(a, D(u))) == -sum(a |D(u)|^2)

Reductions use numpy's fixed-order pairwise summation over C-contiguous
arrays, one component at a time, so diagnostics are bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NegativeCoefficient, ValidationError

__all__ = [
    "Grid",
    "gradient",
    "partials",
    "face_differences",
    "face_averages",
    "check_coefficient",
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
            raise ValidationError("dim", f"must be 1, 2 or 3, got {self.dim}")
        if not (self.n >= 4 and self.n % 2 == 0):
            raise ValidationError("n", f"must be even and >= 4, got {self.n}")
        if not (self.side > 0.0 and np.isfinite(self.side)):
            raise ValidationError("side", f"must be positive and finite, got {self.side}")

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


def _along(axis: int, start: int, stop: int) -> tuple:
    """Index selecting [start, stop) along `axis` (negative) and everything else."""
    return (Ellipsis, slice(start, stop)) + (slice(None),) * (-1 - axis)


def _diff(a: np.ndarray, axis: int, hi: int, lo: int, out=None) -> np.ndarray:
    """a[j+hi] - a[j+lo] along `axis`, periodic; -1 <= lo <= 0 <= hi <= 1.

    Written into `out`, or into a new array.  One subtraction runs over the
    flattened arrays, offset by whole rows of `axis`; it gets every point
    right except the rows whose stencil wraps, which are then overwritten.
    """
    n, row = a.shape[axis], math.prod(a.shape[a.ndim + axis + 1:])
    if out is None:
        out = np.empty(a.shape, dtype=np.result_type(a, 1.0))
    flat, oflat = a.reshape(-1), out.reshape(-1)
    m = (hi - lo) * row
    np.subtract(flat[m:], flat[: flat.size - m], out=oflat[-lo * row: oflat.size - hi * row])
    for j in (*range(-lo), *range(n - hi, n)):
        jh, jl = (j + hi) % n, (j + lo) % n
        np.subtract(a[_along(axis, jh, jh + 1)], a[_along(axis, jl, jl + 1)],
                    out=out[_along(axis, j, j + 1)])
    return out


def _next(a: np.ndarray, axis: int) -> np.ndarray:
    """New array a[j+1] along `axis` with periodic wrap."""
    n, row = a.shape[axis], math.prod(a.shape[a.ndim + axis + 1:])
    out = np.empty(a.shape, dtype=np.result_type(a, 1.0))
    out.reshape(-1)[: a.size - row] = a.reshape(-1)[row:]
    out[_along(axis, n - 1, n)] = a[_along(axis, 0, 1)]
    return out


def _centered(a: np.ndarray, ax: int, g: Grid, out=None) -> np.ndarray:
    """Second-order centered difference with periodic wrap."""
    out = _diff(a, ax - g.dim, 1, -1, out)
    out /= 2.0 * g.h
    return out


def _fwd(a: np.ndarray, ax: int, g: Grid) -> np.ndarray:
    """Two-point difference at the face j+1/2 along `ax`."""
    out = _diff(a, ax - g.dim, 1, 0)
    out /= g.h
    return out


def _face_avg(a: np.ndarray, ax: int, g: Grid) -> np.ndarray:
    """Arithmetic mean of the two cells adjacent to face j+1/2."""
    out = _next(a, ax - g.dim)
    out += a
    out *= 0.5
    return out


def _face_div(flux: np.ndarray, ax: int, g: Grid, h: float) -> np.ndarray:
    """Difference of face fluxes j+1/2 and j-1/2, divided by h."""
    out = _diff(flux, ax - g.dim, 0, -1)
    out /= h
    return out


# ---------------------------------------------------------------------------
# shared stencils


def partials(g: Grid, f: np.ndarray) -> list:
    """Centered differences [df/dx_1, ..., df/dx_d]; for a vector, [j][i] = du_i/dx_j."""
    return [_centered(f, ax, g) for ax in range(g.dim)]


def gradient(g: Grid, f: np.ndarray) -> np.ndarray:
    """Centered-difference gradient: `partials` stacked along a new first axis."""
    out = np.empty((g.dim,) + f.shape, dtype=np.result_type(f, 1.0))
    for ax in range(g.dim):
        _centered(f, ax, g, out[ax])
    return out


def face_differences(g: Grid, f: np.ndarray) -> list:
    """Undivided face differences f[j+1] - f[j], one array per axis."""
    return [_diff(f, ax - g.dim, 1, 0) for ax in range(g.dim)]


def face_averages(g: Grid, a: np.ndarray) -> list:
    """Face coefficients 0.5*(a[j] + a[j+1]) along each axis, as used by `div_flux`."""
    return [_face_avg(a, ax, g) for ax in range(g.dim)]


def check_coefficient(a: np.ndarray) -> np.ndarray:
    """A diffusion coefficient fit for the flux forms; `a` itself if nothing is negative.

    Entries below -1e-12 raise NegativeCoefficient; round-off negatives become
    zero, so the dissipation form stays nonnegative.
    """
    amin = a.min()
    if amin < -_COEFF_TOL:
        raise NegativeCoefficient(f"coefficient minimum {amin} < -{_COEFF_TOL}")
    return np.maximum(a, 0.0) if amin < 0.0 else a


# ---------------------------------------------------------------------------
# differential operators


def divergence(g: Grid, v: np.ndarray) -> np.ndarray:
    """Centered-difference divergence; exact negative adjoint of `gradient`."""
    out = np.zeros(g.shape)
    for ax in range(g.dim):
        out += _centered(v[ax], ax, g)
    return out


def sym_gradient(g: Grid, u: np.ndarray, *, grad=None) -> np.ndarray:
    """Symmetrized velocity gradient D_ij = 0.5*(du_i/dx_j + du_j/dx_i).

    `grad` is `partials(g, u)` if the caller already holds it.
    """
    d = g.dim
    if grad is None:
        grad = partials(g, u)
    D = np.empty((d, d) + g.shape)
    for i in range(d):
        for j in range(i, d):
            np.add(grad[j][i], grad[i][j], out=D[i, j])
            D[i, j] *= 0.5
            D[j, i] = D[i, j]
    return D


def frobenius_sq(g: Grid, D: np.ndarray) -> np.ndarray:
    """Pointwise squared Frobenius norm; off-diagonal entries count twice."""
    out = np.zeros(g.shape)
    for i in range(g.dim):
        out += D[i, i] ** 2
        for j in range(i + 1, g.dim):
            out += 2.0 * D[i, j] ** 2
    return out


def div_flux(g: Grid, a: np.ndarray, f: np.ndarray, *, faces=None, diffs=None) -> np.ndarray:
    """Conservative variable-coefficient diffusion div(a grad f).

    Face coefficients are arithmetic means of the adjacent cells; the discrete
    integral of the result over the torus is exactly zero, and the quadratic
    form sum(f * div_flux(a, f)) is nonpositive whenever a >= 0.  `faces` is
    `face_averages(g, check_coefficient(a))` (then `a` is not read) and
    `diffs` is `face_differences(g, f)`, if the caller already holds them.
    """
    if faces is None:
        faces = face_averages(g, check_coefficient(a))
    if diffs is None:
        diffs = face_differences(g, f)
    h2 = g.h * g.h
    out = np.zeros(g.shape)
    for ax in range(g.dim):
        out += _face_div(faces[ax] * diffs[ax], ax, g, h2)
    return out


def div_tensor_flux(g: Grid, a: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Row-wise divergence of the tensor a*D using centered differences.

    Component i is sum_j d/dx_j (a * D_ij); the pointwise product keeps the
    discrete momentum/energy pairing with `sym_gradient` exact:
    sum(u . div_tensor_flux(a, D(u))) == -sum(a * |D(u)|^2).
    """
    av = check_coefficient(a)
    out = np.zeros((g.dim,) + g.shape)
    for j in range(g.dim):
        out += _centered(av * D[:, j], j, g)
    return out


def _face_gradient_sq(g: Grid, grad, diffs, normal_axis: int) -> tuple:
    """(normal derivative, squared gradient magnitude) at the faces j+1/2."""
    gn = diffs[normal_axis] / g.h
    mag2 = gn * gn
    for ax in range(g.dim):
        if ax == normal_axis:
            continue
        t = _face_avg(grad[ax], normal_axis, g)
        t *= t
        mag2 += t
    return gn, mag2


def r_laplacian(g: Grid, f: np.ndarray, r: float, *, grad=None, diffs=None,
                maxima=None) -> np.ndarray:
    """Degenerate diffusion div(|grad f|^(r-2) grad f) in flux form.

    The face flux uses the two-point normal derivative and face-averaged
    tangential centered differences for the gradient magnitude.  Conservative
    (integral exactly zero) and dissipative (sum(f * r_laplacian(f)) <= 0).
    r == 2 is allowed and reduces to div_flux with unit coefficient.  `grad`
    and `diffs` are `partials(g, f)` and `face_differences(g, f)` if the
    caller already holds them; a list `maxima` receives the largest squared
    face-gradient magnitude of each face direction.
    """
    if r < 2.0:
        raise ValueError(f"r must be >= 2, got {r}")
    if grad is None and g.dim > 1:
        grad = partials(g, f)
    if diffs is None:
        diffs = face_differences(g, f)
    out = np.zeros(g.shape)
    for ax in range(g.dim):
        gn, mag2 = _face_gradient_sq(g, grad, diffs, ax)
        if maxima is not None:
            maxima.append(float(mag2.max()))
        flux = mag2
        flux **= (r - 2.0) / 2.0
        flux *= gn
        out += _face_div(flux, ax, g, g.h)
    return out


def r_laplacian_vec(g: Grid, u: np.ndarray, r: float, *, grad=None, D=None) -> np.ndarray:
    """Row-wise div(|D(u)|^(r-2) D(u)) with face-assembled tensor magnitude.

    Mirrors the scalar construction: at a face with normal axis j, tensor
    entries involving direction j take their normal part from the two-point
    difference, all other parts are face averages of centered values.  `grad`
    and `D` are `partials(g, u)` and `sym_gradient(g, u)` if the caller
    already holds them.
    """
    if r < 2.0:
        raise ValueError(f"r must be >= 2, got {r}")
    d = g.dim
    if grad is None:
        grad = partials(g, u)  # grad[j][i] = du_i/dx_j
    if D is None:
        D = sym_gradient(g, u, grad=grad)

    out = np.zeros(u.shape)
    for j in range(d):  # faces with normal j
        fwd = _fwd(u, j, g)  # two-point du_i/dx_j at the faces, every i at once
        face = {}
        for a in range(d):
            for b in range(a, d):
                if a == b == j:
                    face[(a, b)] = fwd[j]
                elif a == j or b == j:
                    i = b if a == j else a  # the non-normal index
                    t = _face_avg(grad[i][j], j, g)
                    t += fwd[i]
                    t *= 0.5
                    face[(a, b)] = t
                else:
                    face[(a, b)] = _face_avg(D[a, b], j, g)
        mag2 = np.zeros(g.shape)
        for (a, b), v in face.items():
            mag2 += v**2 if a == b else 2.0 * v**2
        w = mag2
        w **= (r - 2.0) / 2.0
        flux = np.empty(u.shape)
        for i in range(d):
            np.multiply(w, face[(min(i, j), max(i, j))], out=flux[i])
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
    grad = partials(g, f) if g.dim > 1 else None
    diffs = face_differences(g, f)
    m = 0.0
    for ax in range(g.dim):
        _, mag2 = _face_gradient_sq(g, grad, diffs, ax)
        m = max(m, float(mag2.max()))
    return float(np.sqrt(m))


# ---------------------------------------------------------------------------
# Leray projection


@lru_cache(maxsize=8)
def _projection_symbols(g: Grid) -> tuple:
    """Half-spectrum symbols of the centered difference and 1/sum(s^2), read-only.

    The symbol along axis `ax` is sin(2 pi m / n) / h, shaped to broadcast
    against `rfftn` output (the last axis keeps m = 0..n/2).  The reciprocal
    is 0 where every symbol vanishes (mean and all-Nyquist modes).
    """
    n, d = g.n, g.dim
    base = np.sin(2.0 * np.pi * np.fft.fftfreq(n)) / g.h
    base[n // 2] = 0.0  # sin(pi) is only ~1e-16 in floats; the symbol must vanish exactly
    sym = []
    for ax in range(d):
        shape = [1] * d
        shape[ax] = n if ax < d - 1 else n // 2 + 1
        sym.append(base[: shape[ax]].reshape(shape))
    denom = sum(s * s for s in sym)
    inv = np.divide(1.0, denom, out=np.zeros_like(denom), where=denom > 0.0)
    for arr in (*sym, inv):
        arr.flags.writeable = False
    return tuple(sym), inv


def leray_project(g: Grid, v: np.ndarray) -> tuple:
    """Remove the discrete-gradient part of v.

    Returns (w, p) with w = v - gradient(p), mean(p) = 0, and the centered
    divergence of w at round-off level.  The pressure is solved in Fourier
    space (real-to-complex transform) with the exact centered-difference
    symbol; modes where the symbol vanishes (mean and Nyquist) carry no
    pressure and are left untouched in w, which is harmless because the
    centered divergence annihilates them.
    """
    sym, inv = _projection_symbols(g)
    vhat = np.fft.rfftn(v, axes=tuple(range(1, g.dim + 1)))
    phat = sym[0] * vhat[0]  # sum of s * vhat is the divergence divided by 1j
    for s, vh in zip(sym[1:], vhat[1:]):
        phat += s * vh
    phat *= inv
    phat *= -1j
    p = np.fft.irfftn(phat, s=g.shape, axes=tuple(range(g.dim)))
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


def advect(g: Grid, u: np.ndarray, f: np.ndarray, *, grad=None) -> np.ndarray:
    """Skew-symmetric advection 0.5*(u . grad f + div(u f)) of a scalar or vector f.

    The discrete pairing sum(f * advect(u, f)) vanishes exactly (integration
    by parts of the centered difference), which is the discrete counterpart of
    the convective terms dropping out of energy balances.  A vector f is
    advected componentwise.  `grad` is `partials(g, f)` if the caller already
    holds it.
    """
    out = np.zeros(f.shape)
    for ax in range(g.dim):
        t = u[ax] * (_centered(f, ax, g) if grad is None else grad[ax])
        t += _centered(u[ax] * f, ax, g)
        t *= 0.5
        out += t
    return out


advect_vec = advect  # the momentum term, named apart so it can be timed apart
