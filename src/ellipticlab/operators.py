"""Finite-difference derivatives and extremal elliptic operators.

Derivatives use centered second-order stencils and live on the interior
sub-grid (one node layer removed per application).  The extremal
operators act on symmetric matrices through their eigenvalues, computed
in closed form for dimensions 1-2 and by a LAPACK symmetric solve in
dimension 3.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray
from scipy import ndimage

from .grid import Grid, ScalarField, Region, ball_volume, _interior
from .reports import make_report, CheckReport

__all__ = [
    "Ellipticity", "VectorField", "MatrixField", "LinearCoefficients",
    "FractionalParams", "TailSpec", "FractionalResult", "sym_eigvals",
    "pucci_minus", "pucci_plus", "gradient", "hessian", "laplacian",
    "pucci_field", "linear_apply", "pucci_sandwich_residual",
    "second_difference", "fractional_laplacian",
]


@dataclass(frozen=True)
class Ellipticity:
    """Ellipticity window ``0 < lam <= Lam``."""

    lam: float
    Lam: float

    def __post_init__(self):
        if not (0 < self.lam <= self.Lam):
            raise ValueError("need 0 < lam <= Lam")


@dataclass
class VectorField:
    grid: Grid
    values: NDArray  # shape counts + (dim,)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != tuple(self.grid.counts) + (self.grid.dim,):
            raise ValueError("vector field shape mismatch")

    def at(self, point) -> NDArray:
        return self.values[self.grid.index_of(point)]

    def norm(self) -> ScalarField:
        return ScalarField(self.grid,
                           np.linalg.norm(self.values, axis=-1))


@dataclass
class MatrixField:
    grid: Grid
    values: NDArray  # shape counts + (dim, dim), symmetric

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        d = self.grid.dim
        if self.values.shape != tuple(self.grid.counts) + (d, d):
            raise ValueError("matrix field shape mismatch")

    def at(self, point) -> NDArray:
        return self.values[self.grid.index_of(point)]


@dataclass
class LinearCoefficients:
    """Coefficients of ``A:D^2 u + b . Du + c u``.

    Each entry is either a constant (matrix / vector / scalar) or a field
    of matching shape on the target grid.
    """

    A: NDArray
    b: NDArray | None = None
    c: float = 0.0


# ---------------------------------------------------------------------------
# eigenvalues and Pucci operators


def sym_eigvals(mats: NDArray) -> NDArray:
    """Eigenvalues of symmetric matrices, ascending, batched.

    ``mats`` has shape ``(..., d, d)``; closed-form for d <= 2, LAPACK
    (``eigvalsh``) for d = 3.
    """
    mats = np.asarray(mats, dtype=float)
    d = mats.shape[-1]
    if mats.shape[-2] != d:
        raise ValueError("matrices must be square")
    if d == 1:
        return mats[..., 0, :]
    if d == 2:
        a = mats[..., 0, 0]
        b = mats[..., 0, 1]
        c = mats[..., 1, 1]
        mean = 0.5 * (a + c)
        disc = np.sqrt(np.maximum(0.25 * (a - c) ** 2 + b * b, 0.0))
        return np.stack([mean - disc, mean + disc], axis=-1)
    return np.linalg.eigvalsh(mats)


def pucci_minus(mats: NDArray, ell: Ellipticity) -> NDArray:
    """Minimal Pucci operator: lam * (positive part) - Lam * (negative part),
    summed over eigenvalues."""
    e = sym_eigvals(mats)
    return (ell.lam * np.clip(e, 0, None)
            + ell.Lam * np.clip(e, None, 0)).sum(axis=-1)


def pucci_plus(mats: NDArray, ell: Ellipticity) -> NDArray:
    """Maximal Pucci operator: Lam * (positive part) - lam * (negative part)."""
    e = sym_eigvals(mats)
    return (ell.Lam * np.clip(e, 0, None)
            + ell.lam * np.clip(e, None, 0)).sum(axis=-1)


# ---------------------------------------------------------------------------
# finite differences


def gradient(fld: ScalarField) -> VectorField:
    """Centered first differences; result lives on the interior grid."""
    g = fld.grid
    inner = g.shrink(1)
    comps = []
    core = _interior(g.counts)
    for ax in range(g.dim):
        up = list(core); up[ax] = slice(2, g.counts[ax])
        dn = list(core); dn[ax] = slice(0, g.counts[ax] - 2)
        comps.append((fld.values[tuple(up)] - fld.values[tuple(dn)])
                     / (2 * g.h))
    return VectorField(inner, np.stack(comps, axis=-1))


def hessian(fld: ScalarField) -> MatrixField:
    """Centered second differences (4-point stencil for cross terms)."""
    g = fld.grid
    inner = g.shrink(1)
    d = g.dim
    u = fld.values
    core = _interior(g.counts)

    def shifted(offsets):
        sl = [slice(1 + o, g.counts[i] - 1 + o)
              for i, o in enumerate(offsets)]
        return u[tuple(sl)]

    out = np.empty(tuple(inner.counts) + (d, d))
    h2 = g.h ** 2
    zero = [0] * d
    for i in range(d):
        oi = zero.copy(); oi[i] = 1
        mi = zero.copy(); mi[i] = -1
        out[..., i, i] = (shifted(oi) + shifted(mi) - 2 * u[core]) / h2
        for j in range(i + 1, d):
            pp = zero.copy(); pp[i] = 1; pp[j] = 1
            mm = zero.copy(); mm[i] = -1; mm[j] = -1
            pm = zero.copy(); pm[i] = 1; pm[j] = -1
            mp = zero.copy(); mp[i] = -1; mp[j] = 1
            v = (shifted(pp) + shifted(mm) - shifted(pm) - shifted(mp)) / (4 * h2)
            out[..., i, j] = v
            out[..., j, i] = v
    return MatrixField(inner, out)


def laplacian(fld: ScalarField) -> ScalarField:
    g = fld.grid
    u = fld.values
    core = _interior(g.counts)
    acc = -2 * g.dim * u[core]
    for ax in range(g.dim):
        up = list(core); up[ax] = slice(2, g.counts[ax])
        dn = list(core); dn[ax] = slice(0, g.counts[ax] - 2)
        acc = acc + u[tuple(up)] + u[tuple(dn)]
    return ScalarField(g.shrink(1), acc / g.h ** 2,
                       name=f"lap[{fld.name}]" if fld.name else "")


def pucci_field(fld: ScalarField, ell: Ellipticity,
                sign: str = "minus") -> ScalarField:
    """Pointwise Pucci operator of the discrete Hessian."""
    H = hessian(fld)
    op = pucci_minus if sign == "minus" else pucci_plus
    return ScalarField(H.grid, op(H.values, ell))


def linear_apply(fld: ScalarField, coef: LinearCoefficients) -> ScalarField:
    """Evaluate ``A:D^2 u + b.Du + c u`` on the interior grid."""
    H = hessian(fld)
    A = np.asarray(coef.A, dtype=float)
    vals = np.einsum("...ij,...ij->...", np.broadcast_to(
        A, H.values.shape) if A.ndim == 2 else A, H.values)
    if coef.b is not None:
        G = gradient(fld)
        b = np.asarray(coef.b, dtype=float)
        vals = vals + np.einsum("...i,...i->...", np.broadcast_to(
            b, G.values.shape) if b.ndim == 1 else b, G.values)
    if coef.c:
        vals = vals + coef.c * fld.shrink(1).values
    return ScalarField(H.grid, vals)


def pucci_sandwich_residual(fld: ScalarField, coef: LinearCoefficients,
                            ell: Ellipticity,
                            region: Region | None = None) -> CheckReport:
    """Check P^-(D^2 u) <= A:D^2 u <= P^+(D^2 u) for admissible A."""
    H = hessian(fld)
    lo = pucci_minus(H.values, ell)
    hi = pucci_plus(H.values, ell)
    mid = linear_apply(fld, coef).values
    if region is not None:
        m = region.mask(H.grid)
    else:
        m = np.ones(H.grid.counts, dtype=bool)
    viol = np.maximum(lo[m] - mid[m], mid[m] - hi[m])
    worst = float(viol.max())
    return make_report("pucci-sandwich", worst, 0.0, tol=1e-10,
                       grid=H.grid.meta(),
                       notes="max violation of the extremal-operator sandwich")


def second_difference(fld: ScalarField, e, h_step: float) -> ScalarField:
    """``(u(x + s e) + u(x - s e) - 2 u(x)) / s**2`` on the lattice.

    ``e`` must be a unit vector whose step ``s * e`` lands on the lattice.
    """
    g = fld.grid
    e = np.asarray(e, dtype=float)
    if abs(np.linalg.norm(e) - 1.0) > 1e-9:
        raise ValueError("direction must be a unit vector")
    off = h_step * e / g.h
    k = np.rint(off).astype(int)
    if np.max(np.abs(off - k)) > 1e-9:
        raise ValueError("step must land on the lattice")
    margins = np.abs(k)
    sl_core, sl_up, sl_dn = [], [], []
    for ax in range(g.dim):
        mg = int(margins[ax])
        sl_core.append(slice(mg, g.counts[ax] - mg))
        sl_up.append(slice(mg + k[ax], g.counts[ax] - mg + k[ax]))
        sl_dn.append(slice(mg - k[ax], g.counts[ax] - mg - k[ax]))
    u = fld.values
    vals = (u[tuple(sl_up)] + u[tuple(sl_dn)] - 2 * u[tuple(sl_core)]) \
        / h_step ** 2
    counts = tuple(g.counts[ax] - 2 * int(margins[ax]) for ax in range(g.dim))
    origin = tuple(g.origin[ax] + int(margins[ax]) * g.h
                   for ax in range(g.dim))
    return ScalarField(Grid(g.dim, g.h, origin, counts), vals)


# ---------------------------------------------------------------------------
# fractional Laplacian


@dataclass(frozen=True)
class FractionalParams:
    """Order ``sigma`` in (0, 2) and quadrature refinement level >= 1."""

    sigma: float
    level: int = 1
    kernel_exponent_shift: float | None = None  # override: exponent = dim + shift

    def __post_init__(self):
        if not (0 < self.sigma < 2):
            raise ValueError("sigma must lie in (0, 2)")
        if self.level < 1:
            raise ValueError("quadrature level must be >= 1")


@dataclass(frozen=True)
class TailSpec:
    """Behavior of the field outside the grid.

    ``kind='zero'``: the function vanishes there (the far-field term is
    then computed analytically).  ``kind='power'``: ``|u| <= amplitude *
    |y|**-exponent`` and the tail is folded into the error bound.
    """

    kind: str = "zero"
    amplitude: float = 0.0
    exponent: float = 0.0


@dataclass
class FractionalResult:
    field: ScalarField
    eval_mask: NDArray
    quadrature_error: float
    tail_error: float


def _sphere_area(dim: int) -> float:
    # surface measure of the unit sphere in R^dim
    return dim * ball_volume(dim)


def fractional_laplacian(fld: ScalarField, params: FractionalParams,
                         eval_region: Region | None = None,
                         tail: TailSpec = TailSpec()) -> FractionalResult:
    """Principal-value kernel quadrature for the fractional Laplacian.

    At every evaluation node the symmetric second difference
    ``u(x+y) + u(x-y) - 2u(x)`` is integrated against ``|y|**-(n+sigma)``
    over a refined lattice of spacing ``h / level`` (cubic interpolation
    off-lattice).  The singular cell ``|y| < delta`` is skipped and its
    Taylor bound reported as quadrature error; the far field is handled
    per the tail specification.
    """
    g = fld.grid
    n, sig = g.dim, params.sigma
    expo = n + sig if params.kernel_exponent_shift is None \
        else n + params.kernel_exponent_shift
    delta = g.h / params.level
    if eval_region is None:
        emask = np.zeros(g.counts, dtype=bool)
        emask[tuple(c // 2 for c in g.counts)] = True
    else:
        emask = eval_region.mask(g)
    pts = g.coords()[emask]
    lo = np.asarray(g.origin)
    hi = np.asarray(g.upper())

    # distance from each eval point to the grid hull = usable kernel radius
    out_vals = np.zeros(len(pts))
    spline = ndimage.spline_filter(fld.values, order=3, mode="nearest")

    tail_err = 0.0
    quad_err = 0.0
    area = _sphere_area(n)
    # second-derivative scale for the near-field Taylor bound
    d2 = np.max(np.abs(hessian(fld).values)) if min(g.counts) >= 3 else 0.0

    for i, x in enumerate(pts):
        R = float(min(np.min(x - lo), np.min(hi - x)))
        if R < delta:
            raise ValueError("evaluation node too close to the grid hull")
        k = int(math.floor(R / delta))
        ax = np.arange(-k, k + 1) * delta
        mesh = np.meshgrid(*([ax] * n), indexing="ij")
        Y = np.stack(mesh, axis=-1).reshape(-1, n)
        r = np.linalg.norm(Y, axis=-1)
        keep = (r >= delta * (1 - 1e-12)) & (r <= R)
        Y, r = Y[keep], r[keep]
        # u at x +- y by cubic interpolation of the lattice values
        idx_p = ((x + Y - lo) / g.h).T
        idx_m = ((x - Y - lo) / g.h).T
        up = ndimage.map_coordinates(spline, idx_p, order=3,
                                     prefilter=False, mode="nearest")
        um = ndimage.map_coordinates(spline, idx_m, order=3,
                                     prefilter=False, mode="nearest")
        u0 = fld.values[g.index_of(x)]
        integrand = (up + um - 2 * u0) / r ** expo
        val = float(np.sum(integrand) * delta ** n)
        # near-field cell: |integrand| <= |D^2u| r^2 / r^expo
        if expo - 2 < n:
            quad_err = max(quad_err,
                           d2 * area * delta ** (n - expo + 2) / (n - expo + 2))
        # far field
        if tail.kind == "zero":
            if sig > 0 and expo > n:
                val -= 2 * u0 * area / ((expo - n) * R ** (expo - n))
        elif tail.kind == "power":
            q = tail.exponent
            if expo + q <= n:
                raise ValueError("power tail too heavy for the kernel")
            t = 2 * area * (tail.amplitude / ((expo + q - n) * R ** (expo + q - n))
                            + abs(u0) / ((expo - n) * R ** (expo - n)))
            tail_err = max(tail_err, t)
        else:
            raise ValueError(f"unknown tail kind {tail.kind!r}")
        out_vals[i] = val

    values = np.zeros(g.counts)
    values[emask] = out_vals
    out = ScalarField(g, values, name=f"fraclap[{fld.name}]" if fld.name else "",
                      mask=emask.copy())
    return FractionalResult(field=out, eval_mask=emask,
                            quadrature_error=quad_err, tail_error=tail_err)
