"""Periodic grid and discrete differential/integral operators on plain arrays.

Everything lives on a uniform lattice over the torus (]0,l[)^d with d in
{1,2,3}.  Fields are float64 ndarrays sampled at the grid nodes, row-major
with axes x1..xd: a scalar has shape `grid.shape`, a vector stacks its d
components along a leading axis, shape `(d, *grid.shape)`, and a tensor such
as D(u) stacks two leading axes, shape `(d, d, *grid.shape)`.  Operators take
the grid first and return new arrays; they never write into their inputs.
Stencils count the spatial axes from the end, so one call serves a scalar and
every component of a vector alike.  One walker, `_diff`, writes each into one
fresh array with periodic wrap: a slice difference, or for a face average a
slice sum, with the same arithmetic as a rolled copy would give, bit for bit.
Each stencil is two ufunc calls, one over the flattened arrays for the
interior and one over the wrapping rows, taken as one strided slice.  The
slicing is planned once per array shape, axis and offset pair and cached
(`_stencil_plan`).

A caller that applies several operators to the same field can build the
shared stencils once -- `partials`, `face_differences`, `face_averages` of a
`check_coefficient`-ed coefficient -- and hand them to the operators as
keyword-only arguments; each operator builds what it is not given, and the
result is the same bit for bit either way.  The shared pieces are lists with
one array per axis, so their blocks have the sizes the operators' own
temporaries have.

Both r-Laplacians and `max_face_gradient` take the gradient at a face from
one construction, `_face_gradient`: the two-point difference across the face
and face averages of the centered partials along it.  The scalar flux reads
its magnitude with `pointwise_dot`, the vector flux is `sym_gradient` of the
face gradient with its magnitude from `frobenius_sq`.

Spatial derivatives are second-order centered differences, diffusion
operators are written in conservative flux form, and the Leray projection uses
the real-to-complex discrete Fourier transform with the exact symbol of the
centered difference, built once per grid.  The transforms are `rfft_grid` and
`irfft_grid`: numpy's `rfftn`/`irfftn` over the spatial axes, bit for bit,
called one axis at a time without the n-d wrappers' argument handling.  These
choices make the discrete counterparts of the continuous identities exact:

* integration by parts:   sum(div(v) * f) == -sum(v . grad(f))
* conservativity:         integrate(div_flux(a, f)) == 0
* dissipativity:          sum(f * div_flux(a, f)) <= 0        (a >= 0)
* skew symmetry:          sum(f * advect(u, f)) == 0
* energy identity:        sum(u . div_tensor_flux(a, D(u))) == -sum(a |D(u)|^2)

Reductions use numpy's fixed-order pairwise summation over C-contiguous
arrays, one component at a time, so diagnostics are bit-reproducible; every
L2 norm is `l2_norm`, and every pointwise inner product `pointwise_dot`.

The same half spectrum serves a caller that works in Fourier space:
`project_modes` is the projection applied to a velocity's modes,
`spectral_l2_norm` is `l2_norm` by Parseval, and `diffusion_resolvent` is the
symbol of (I - c*Lap_h)^-1, with Lap_h the compact 3-point Laplacian
(`div_flux` with unit coefficient), built from a symbol cached once per grid;
for c >= 0 the inverse keeps constants and the mean, and adds no new extrema.
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
    "rfft_grid",
    "irfft_grid",
    "project_modes",
    "spectral_l2_norm",
    "diffusion_resolvent",
    "integrate",
    "l2_norm",
    "pointwise_dot",
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


def _rows(axis: int, rows: tuple) -> tuple:
    """Index selecting `rows` along `axis` and everything else: one row, or two as one slice."""
    step = rows[-1] - rows[0] or 1
    stop = rows[-1] + (1 if step > 0 else -1)  # -1 would wrap; None runs down through row 0
    along = slice(rows[0], None if stop < 0 else stop, step)
    return (Ellipsis, along) + (slice(None),) * (-1 - axis)


@lru_cache(maxsize=256)
def _stencil_plan(shape: tuple, axis: int, hi: int, lo: int) -> tuple:
    """Slicing of a[j+hi] - a[j+lo] along `axis` for arrays of `shape`; -1 <= lo <= 0 <= hi <= 1.

    Returns (interior, wrap), two (out, hi, lo) triples.  The interior triple
    slices the flattened arrays, offset by whole rows of `axis`; one
    subtraction over it gets every point right except the rows whose stencil
    wraps.  The wrap triple selects those rows, at most two and so one strided
    slice each: for the centered difference, rows (0, n-1) of the output from
    rows (1, 0) minus rows (n-1, n-2).  Only ints, slices and index tuples are
    kept, never an array.
    """
    n, row = shape[axis], math.prod(shape[len(shape) + axis + 1:])
    size, m = math.prod(shape), (hi - lo) * row
    interior = (slice(-lo * row, size - hi * row), slice(m, size), slice(0, size - m))
    js = (*range(-lo), *range(n - hi, n))
    wrap = tuple(_rows(axis, tuple((j + k) % n for j in js)) for k in (0, hi, lo))
    return interior, wrap


def _diff(a: np.ndarray, axis: int, hi: int, lo: int, op=np.subtract) -> np.ndarray:
    """New array op(a[j+hi], a[j+lo]) along `axis`, periodic; -1 <= lo <= 0 <= hi <= 1.

    The one walker of a `_stencil_plan`: `op` (a binary ufunc, subtraction
    unless given) once over the flattened arrays, then once over the wrapping
    rows, so every stencil is two ufunc calls.
    """
    out = np.empty(a.shape)
    (o, h, l), (wo, wh, wl) = _stencil_plan(a.shape, axis, hi, lo)
    flat = a.reshape(-1)
    op(flat[h], flat[l], out=out.reshape(-1)[o])
    op(a[wh], a[wl], out=out[wo])
    return out


def _centered(a: np.ndarray, ax: int, g: Grid) -> np.ndarray:
    """Second-order centered difference with periodic wrap."""
    out = _diff(a, ax - g.dim, 1, -1)
    out /= 2.0 * g.h
    return out


def _fwd(a: np.ndarray, ax: int, g: Grid) -> np.ndarray:
    """Two-point difference at the face j+1/2 along `ax`."""
    out = _diff(a, ax - g.dim, 1, 0)
    out /= g.h
    return out


def _face_avg(a: np.ndarray, ax: int, g: Grid) -> np.ndarray:
    """Arithmetic mean of the two cells adjacent to face j+1/2."""
    out = _diff(a, ax - g.dim, 1, 0, np.add)
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
    return np.array(partials(g, f))


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
            if j != i:
                D[j, i] = D[i, j]
    return D


def frobenius_sq(g: Grid, D: np.ndarray) -> np.ndarray:
    """Pointwise squared Frobenius norm; off-diagonal entries count twice."""
    out = D[0, 0] ** 2
    for i in range(g.dim):
        if i:
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
    out = _face_div(faces[0] * diffs[0], 0, g, h2)
    for ax in range(1, g.dim):
        out += _face_div(faces[ax] * diffs[ax], ax, g, h2)
    return out


def div_tensor_flux(g: Grid, a: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Row-wise divergence of the tensor a*D using centered differences.

    Component i is sum_j d/dx_j (a * D_ij); the pointwise product keeps the
    discrete momentum/energy pairing with `sym_gradient` exact:
    sum(u . div_tensor_flux(a, D(u))) == -sum(a * |D(u)|^2).
    """
    av = check_coefficient(a)
    out = _centered(av * D[:, 0], 0, g)
    for j in range(1, g.dim):
        out += _centered(av * D[:, j], j, g)
    return out


def _face_gradient(g: Grid, grad, normal_derivative, normal_axis: int) -> list:
    """Partials [df/dx_1, ..., df/dx_d] at the faces j+1/2 of `normal_axis`.

    The normal partial is `normal_derivative`, the two-point difference; the
    others are face averages of the centered `grad` (`partials(g, f)`).  For a
    vector f each entry stacks the components, as `partials` does.
    """
    return [normal_derivative if ax == normal_axis else _face_avg(grad[ax], normal_axis, g)
            for ax in range(g.dim)]


def r_laplacian(g: Grid, f: np.ndarray, r: float, *, grad=None, diffs=None,
                maxima=None) -> np.ndarray:
    """Degenerate diffusion div(|grad f|^(r-2) grad f) in flux form.

    The face flux takes the gradient from `_face_gradient`: the two-point
    normal derivative and face-averaged tangential centered differences.
    Conservative (integral exactly zero) and dissipative
    (sum(f * r_laplacian(f)) <= 0).  r == 2 is allowed and reduces to
    div_flux with unit coefficient.  `grad` and `diffs` are `partials(g, f)`
    and `face_differences(g, f)` if the caller already holds them; a list
    `maxima` receives the largest squared face-gradient magnitude of each face
    direction.
    """
    if r < 2.0:
        raise ValueError(f"r must be >= 2, got {r}")
    if grad is None and g.dim > 1:
        grad = partials(g, f)
    if diffs is None:
        diffs = face_differences(g, f)
    out = np.zeros(g.shape)
    for ax in range(g.dim):
        fg = _face_gradient(g, grad, diffs[ax] / g.h, ax)
        flux = pointwise_dot(fg, fg)  # |grad f|^2 at the faces
        if maxima is not None:
            maxima.append(float(flux.max()))
        flux **= (r - 2.0) / 2.0
        flux *= fg[ax]
        out += _face_div(flux, ax, g, g.h)
    return out


def r_laplacian_vec(g: Grid, u: np.ndarray, r: float, *, grad=None) -> np.ndarray:
    """Row-wise div(|D(u)|^(r-2) D(u)) with the tensor assembled at the faces.

    Mirrors the scalar construction: at the faces with normal axis j the
    tensor is `sym_gradient` of the `_face_gradient` of u, so entries
    involving direction j take their normal part from the two-point
    difference and all other parts are face averages of centered values.
    `grad` is `partials(g, u)` if the caller already holds it.
    """
    if r < 2.0:
        raise ValueError(f"r must be >= 2, got {r}")
    if grad is None:
        grad = partials(g, u)
    out = np.zeros(u.shape)
    for j in range(g.dim):
        D = sym_gradient(g, u, grad=_face_gradient(g, grad, _fwd(u, j, g), j))
        w = frobenius_sq(g, D)
        w **= (r - 2.0) / 2.0
        out += _face_div(w * D[:, j], j, g, g.h)
        del D, w  # not held while the next face's tensor is built
    return out


def signed_power(x: np.ndarray, r: float) -> np.ndarray:
    """|x|^(r-2) * x, the odd power nonlinearity of the damping terms."""
    return np.abs(x) ** (r - 2.0) * x


def vector_signed_power(v, r: float) -> np.ndarray:
    """|xi|^(r-2) * xi for a vector xi stacked along the first axis."""
    v = np.asarray(v)
    return pointwise_dot(v, v) ** ((r - 2.0) / 2.0) * v


def max_face_gradient(g: Grid, f: np.ndarray) -> float:
    """Largest magnitude of the `_face_gradient` of f, the one the scalar r-Laplacian flux uses.

    No solver path calls this; it is the test oracle for the maxima that
    `model.rhs` reports, and a benchmark span.
    """
    grad = partials(g, f) if g.dim > 1 else None
    diffs = face_differences(g, f)
    m = 0.0
    for ax in range(g.dim):
        fg = _face_gradient(g, grad, diffs[ax] / g.h, ax)
        m = max(m, float(pointwise_dot(fg, fg).max()))
    return float(np.sqrt(m))


# ---------------------------------------------------------------------------
# Fourier solves: Leray projection and diffusion


def rfft_grid(g: Grid, a: np.ndarray) -> np.ndarray:
    """`np.fft.rfftn` of `a` over its last g.dim axes, bit for bit.

    One transform per axis, in the order `rfftn` takes them: the real one
    along the last axis, then the complex one along each other spatial axis,
    from the last to the first.
    """
    out = np.fft.rfft(a)
    for ax in range(2, g.dim + 1):
        out = np.fft.fft(out, axis=-ax)
    return out


def irfft_grid(g: Grid, ahat: np.ndarray) -> np.ndarray:
    """`np.fft.irfftn` of the half spectra `ahat` over its last g.dim axes, bit for bit.

    The inverse of `rfft_grid`, one transform per axis, in the order `irfftn`
    takes them: the complex one along each spatial axis but the last, from
    the first, then the real one along the last, back to n points.
    """
    for ax in range(g.dim, 1, -1):
        ahat = np.fft.ifft(ahat, axis=-ax)
    return np.fft.irfft(ahat, g.n)


def _half_spectrum(g: Grid, base: np.ndarray) -> list:
    """`base`, one value per wavenumber in `fftfreq` order, along each axis of `rfftn` output."""
    d = g.dim
    sizes = [g.n] * (d - 1) + [g.n // 2 + 1]  # the last axis keeps m = 0..n/2
    return [base[:m].reshape((1,) * ax + (m,) + (1,) * (d - 1 - ax)) for ax, m in enumerate(sizes)]


@lru_cache(maxsize=8)
def _projection_symbols(g: Grid) -> tuple:
    """Half-spectrum symbols of the centered difference and 1/sum(s^2), read-only.

    The symbol along axis `ax` is sin(2 pi m / n) / h.  The reciprocal is 0
    where every symbol vanishes (mean and all-Nyquist modes).
    """
    base = np.sin(2.0 * np.pi * np.fft.fftfreq(g.n)) / g.h
    base[g.n // 2] = 0.0  # sin(pi) is only ~1e-16 in floats; the symbol must vanish exactly
    sym = _half_spectrum(g, base)
    denom = sum(s * s for s in sym)
    inv = np.divide(1.0, denom, out=np.zeros_like(denom), where=denom > 0.0)
    for arr in (*sym, inv):
        arr.flags.writeable = False
    return tuple(sym), inv


def _potential_modes(g: Grid, vhat: np.ndarray) -> np.ndarray:
    """inv * sum of s * vhat over the components: 1j times the pressure modes of `vhat`."""
    sym, inv = _projection_symbols(g)
    qhat = sym[0] * vhat[0]  # sum of s * vhat is the divergence divided by 1j
    for s, vh in zip(sym[1:], vhat[1:]):
        qhat += s * vh
    qhat *= inv
    return qhat


def leray_project(g: Grid, v: np.ndarray) -> tuple:
    """Remove the discrete-gradient part of v.

    Returns (w, p) with w = v - gradient(p), mean(p) = 0, and the centered
    divergence of w at round-off level.  The pressure is solved in Fourier
    space (real-to-complex transform) with the exact centered-difference
    symbol; modes where the symbol vanishes (mean and Nyquist) carry no
    pressure and are left untouched in w, which is harmless because the
    centered divergence annihilates them.
    """
    phat = _potential_modes(g, rfft_grid(g, v))
    phat *= -1j
    p = irfft_grid(g, phat)
    w = gradient(g, p)
    np.subtract(v, w, out=w)
    return w, p


def project_modes(g: Grid, vhat: np.ndarray) -> np.ndarray:
    """`leray_project` in Fourier space: the half spectrum vhat - s * (inv * sum of s * vhat).

    `vhat` is the `rfftn` of a velocity over its spatial axes.  The gradient
    of the pressure has the symbol 1j * s, so the result is the half spectrum
    of the projected velocity, up to round-off; the mean and Nyquist modes
    pass unchanged.
    """
    sym, _ = _projection_symbols(g)
    qhat = _potential_modes(g, vhat)
    return np.stack([vh - s * qhat for s, vh in zip(sym, vhat)])


def spectral_l2_norm(g: Grid, fhat: np.ndarray) -> float:
    """`l2_norm` of the fields whose half spectra `fhat` stacks, by Parseval.

    The `rfftn` output keeps the modes m = 0..n/2 of the last axis; every
    other mode of the full spectrum is the conjugate of a kept one, so the
    kept modes weigh 2, except m = 0 and m = n/2, which weigh 1.  `fhat` is
    C-contiguous, so its real and imaginary parts alternate along the last
    axis of its float view.
    """
    with np.errstate(over="ignore"):  # overflow gives inf, as in l2_norm
        sq = np.ascontiguousarray(fhat).view(np.float64)
        sq = sq * sq
        s = 2.0 * float(np.sum(sq)) - float(np.sum(sq[..., :2])) - float(np.sum(sq[..., -2:]))
    return math.sqrt(g.h**g.dim * s / g.npoints)


@lru_cache(maxsize=8)
def _diffusion_symbol(g: Grid) -> np.ndarray:
    """Half-spectrum symbol of -Lap_h, (4/h^2) * sum over axes of sin^2(pi m / n), read-only.

    Lap_h is the compact 3-point Laplacian, f[j+1] - 2 f[j] + f[j-1] over h^2
    along each axis; the array is shaped like `rfftn` output of a scalar.
    """
    base = 4.0 / (g.h * g.h) * np.sin(np.pi * np.fft.fftfreq(g.n)) ** 2
    lam = sum(_half_spectrum(g, base))
    lam.flags.writeable = False
    return lam


def diffusion_resolvent(g: Grid, c) -> np.ndarray:
    """Half-spectrum symbol of (I - c*Lap_h)^-1, 1 / (1 + c * lam), Lap_h the compact Laplacian.

    Multiplying the `rfftn` of f by it and transforming back solves
    (I - c*Lap_h) v = f.  For one number c >= 0 the symbol is shaped like the
    `rfftn` of a scalar; for a 1-D array c, one coefficient per row of a
    stack of fields, it stacks one such symbol per coefficient.
    """
    c = np.asarray(c, dtype=np.float64)
    return 1.0 / (1.0 + c.reshape(c.shape + (1,) * g.dim) * _diffusion_symbol(g))


# ---------------------------------------------------------------------------
# reductions and advection


def integrate(g: Grid, f: np.ndarray) -> float:
    """h^d * sum of values, fixed-order pairwise summation (deterministic)."""
    return float(g.h**g.dim * np.sum(f))


def l2_norm(g: Grid, arrays) -> float:
    """Discrete L2 norm of the arrays taken together, summed one array at a time."""
    s = 0.0
    with np.errstate(over="ignore"):  # overflow gives inf: a divergence signal, not a bug
        for a in arrays:
            s += float(np.sum(a * a))
    return math.sqrt(g.h**g.dim * s)


def pointwise_dot(a, b) -> np.ndarray:
    """sum_i a_i * b_i over the leading axis, accumulated in order into zeros."""
    out = np.zeros(np.shape(a[0]))
    for ai, bi in zip(a, b):
        out += ai * bi
    return out


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
        out += t
    out *= 0.5  # once: halving commutes with the rounding of the sum, bar subnormals
    return out


advect_vec = advect  # the momentum term, named apart so it can be timed apart
