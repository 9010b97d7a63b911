"""Finite-difference derivatives and extremal elliptic operators.

Derivatives use centered second-order stencils and live on the interior
sub-grid (one node layer removed per application).  The extremal
operators act on symmetric matrices through their eigenvalues, computed
in closed form for dimensions 1-2 and by a LAPACK symmetric solve in
dimension 3.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray
from scipy import ndimage

from .grid import Grid, ScalarField, Region, ball_volume
from .reports import make_report, CheckReport

__all__ = [
    "Ellipticity", "VectorField", "MatrixField", "LinearCoefficients",
    "FractionalParams", "TailSpec", "FractionalResult", "sym_eigvals",
    "pucci_minus", "pucci_plus", "gradient", "hessian", "laplacian",
    "linear_apply", "pucci_sandwich_residual",
    "second_difference", "fractional_laplacian",
]


# Largest number of doubles in one temporary of a blocked kernel.
_BLOCK = 1 << 17


def _blocks(count: int, width: int):
    """Slices over ``count`` rows such that ``width`` doubles per row stay
    within ``_BLOCK`` doubles per block (one row at least)."""
    step = max(1, _BLOCK // max(1, width))
    return (slice(a, a + step) for a in range(0, count, step))


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


@dataclass
class MatrixField:
    grid: Grid
    values: NDArray  # shape counts + (dim, dim), symmetric

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        d = self.grid.dim
        if self.values.shape != tuple(self.grid.counts) + (d, d):
            raise ValueError("matrix field shape mismatch")


@dataclass
class LinearCoefficients:
    """Coefficients of ``A:D^2 u``: ``A`` is either a constant matrix or a
    matrix field of matching shape on the target grid."""

    A: NDArray


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


def _shift(u: NDArray, offset, margin) -> NDArray:
    """View of ``u`` at ``x + offset`` for the nodes ``x`` at least
    ``margin`` nodes off the hull (one margin per axis, or one for all)."""
    margin = (margin,) * u.ndim if isinstance(margin, int) else margin
    return u[tuple(slice(m + o, c - m + o)
                   for c, o, m in zip(u.shape, offset, margin))]


def _apply(u: NDArray, taps, margin) -> NDArray:
    """``sum c u(x + offset)`` over the ``(c, offset)`` taps, in tap order,
    on the nodes ``margin`` off the hull."""
    (c, off), *rest = taps
    acc = c * _shift(u, off, margin)
    for c, off in rest:
        v = _shift(u, off, margin)
        acc += v if c == 1 else c * v
    return acc


def _taps(*pairs) -> tuple:
    """``(c, offset)`` taps, each offset a tuple of ints."""
    return tuple((c, tuple(np.asarray(off).tolist())) for c, off in pairs)


def _along(k) -> tuple:
    """Taps of the second difference along the integer step ``k``."""
    k = np.asarray(k)
    return _taps((1, k), (1, -k), (-2, 0 * k))


@functools.cache
def _d2_table(d: int) -> tuple:
    """The stencil of ``D^2_h`` in ``d`` dimensions: for each entry
    ``(i, j)`` with ``i <= j``, its taps ``(c, offset)`` and its divisor
    in units of ``h^2``, so ``D^2_h u[i, j] = sum c u(x + offset h) /
    (divisor h^2)``.  The cross entries take the 4-point cross."""
    eye = np.eye(d, dtype=int)
    table = []
    for i in range(d):
        table.append(((i, i), _along(eye[i]), 1))
        for j in range(i + 1, d):
            p, m = eye[i] + eye[j], eye[i] - eye[j]
            cross = _taps((1, p), (1, -p), (-1, m), (-1, -m))
            table.append(((i, j), cross, 4))
    return tuple(table)


@functools.cache
def _laplace_taps(d: int) -> tuple:
    """Taps of the trace of ``D^2_h`` (divisor ``h^2``): the centre, then
    the neighbours ``+e_i, -e_i`` of each axis in turn."""
    return (((-2 * d, (0,) * d),)
            + sum((_along(e)[:2] for e in np.eye(d, dtype=int)), ()))


def _stencil(A: NDArray, h: float) -> dict:
    """``A : D^2_h`` as ``{offset: coefficient}`` for coefficients ``A`` of
    shape ``(k, d, d)``, one coefficient array of length ``k`` per offset."""
    coef = {}
    for (i, j), taps, div in _d2_table(A.shape[-1]):
        w = A[:, i, i] if i == j else A[:, i, j] + A[:, j, i]
        for c, off in taps:
            v = c * w / div
            coef[off] = coef[off] + v if off in coef else v
    h2 = h * h
    return {off: v / h2 for off, v in coef.items()}


def gradient(fld: ScalarField) -> VectorField:
    """Centered first differences; result lives on the interior grid."""
    g = fld.grid
    nbrs = _laplace_taps(g.dim)[1:]
    comps = [(_shift(fld.values, up, 1) - _shift(fld.values, dn, 1))
             / (2 * g.h) for (_, up), (_, dn) in zip(nbrs[::2], nbrs[1::2])]
    return VectorField(g.shrink(1), np.stack(comps, axis=-1))


def hessian(fld: ScalarField) -> MatrixField:
    """Centered second differences (4-point stencil for cross terms)."""
    g = fld.grid
    inner = g.shrink(1)
    out = np.empty(tuple(inner.counts) + (g.dim, g.dim))
    for (i, j), taps, div in _d2_table(g.dim):
        out[..., i, j] = out[..., j, i] = \
            _apply(fld.values, taps, 1) / (div * g.h ** 2)
    return MatrixField(inner, out)


def laplacian(fld: ScalarField) -> ScalarField:
    g = fld.grid
    acc = _apply(fld.values, _laplace_taps(g.dim), 1)
    return ScalarField(g.shrink(1), acc / g.h ** 2,
                       name=f"lap[{fld.name}]" if fld.name else "")


def linear_apply(fld: ScalarField, coef: LinearCoefficients) -> ScalarField:
    """Evaluate ``A:D^2 u`` on the interior grid."""
    H = hessian(fld)
    A = np.asarray(coef.A, dtype=float)
    vals = np.einsum("...ij,...ij->...", np.broadcast_to(
        A, H.values.shape) if A.ndim == 2 else A, H.values)
    return ScalarField(H.grid, vals)


def pucci_sandwich_residual(fld: ScalarField, coef: LinearCoefficients,
                            ell: Ellipticity) -> CheckReport:
    """Check P^-(D^2 u) <= A:D^2 u <= P^+(D^2 u) for admissible A, at
    every interior node."""
    H = hessian(fld)
    lo = pucci_minus(H.values, ell)
    hi = pucci_plus(H.values, ell)
    mid = linear_apply(fld, coef).values
    worst = float(np.maximum(lo - mid, mid - hi).max())
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
    vals = _apply(fld.values, _along(k), margins) / h_step ** 2
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

    def __post_init__(self):
        if not (0 < self.sigma < 2):
            raise ValueError("sigma must lie in (0, 2)")
        if self.level < 1:
            raise ValueError("quadrature level must be >= 1")


@dataclass(frozen=True)
class TailSpec:
    """Behavior of the field outside the ball the quadrature covers.

    The quadrature at ``x`` covers ``delta <= |y| <= R(x)`` only, with
    ``R(x)`` the distance from ``x`` to the grid box.  ``kind='zero'``
    adds the analytic far field of ``u = 0`` beyond ``R(x)``.  That drops
    the in-grid values beyond ``R(x)`` along every axis but the nearest,
    and no error term counts them.  ``kind='power'``: ``|u| <= amplitude
    * |y|**-exponent`` beyond ``R(x)``, and the whole far field is folded
    into ``tail_error`` instead.
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

    At every evaluation node ``x`` (the center node by default) the
    symmetric second difference ``u(x+y) + u(x-y) - 2u(x)`` is summed
    against ``|y|**-(n+sigma)`` over the offsets ``y`` of the lattice of
    spacing ``delta = h / level`` with ``delta <= |y| <= R(x)``, ``R(x)``
    the distance from ``x`` to the grid box.  Off-lattice values come
    from the prefiltered cubic spline of ``u``, evaluated once on the
    whole ``delta`` lattice.  The Taylor bound of the skipped cell
    ``|y| < delta`` is the quadrature error; beyond ``R(x)`` the tail
    specification takes over.  With ``kind='zero'`` the in-grid values
    beyond ``R(x)`` are dropped, and neither error term counts them.
    """
    g = fld.grid
    if eval_region is None:
        emask = np.zeros(g.counts, dtype=bool)
        emask[tuple(c // 2 for c in g.counts)] = True
    else:
        emask = eval_region.mask(g)
    values = np.zeros(g.counts)
    quad_err = tail_err = 0.0
    if emask.any():
        values[emask], quad_err, tail_err = _fractional_nodes(
            fld, params, emask, tail)
    out = ScalarField(g, values, name=f"fraclap[{fld.name}]" if fld.name else "",
                      mask=emask.copy())
    return FractionalResult(field=out, eval_mask=emask,
                            quadrature_error=quad_err, tail_error=tail_err)


def _fractional_nodes(fld: ScalarField, params: FractionalParams,
                      emask: NDArray, tail: TailSpec):
    """Values at the nodes of ``emask`` (at least one), quadrature error
    and tail error of ``fractional_laplacian``."""
    g = fld.grid
    n, sig, level = g.dim, params.sigma, params.level
    expo = n + sig
    delta = g.h / level
    pts = g.coords()[emask]
    u0 = fld.values[emask]
    # distance from each eval point to the grid hull = usable kernel radius
    R = np.minimum((pts - np.asarray(g.origin)).min(axis=-1),
                   (np.asarray(g.upper()) - pts).min(axis=-1))
    if R.min() < delta:
        raise ValueError("evaluation node too close to the grid hull")
    area = _sphere_area(n)
    tail_err = 0.0
    if tail.kind == "zero":
        far = -2 * u0 * area / ((expo - n) * R ** (expo - n))
    elif tail.kind == "power":
        q = tail.exponent
        if expo + q <= n:
            raise ValueError("power tail too heavy for the kernel")
        far = 0.0
        tail_err = float(np.max(2 * area * (
            tail.amplitude / ((expo + q - n) * R ** (expo + q - n))
            + np.abs(u0) / ((expo - n) * R ** (expo - n)))))
    else:
        raise ValueError(f"unknown tail kind {tail.kind!r}")
    # near-field cell: |integrand| <= |D^2u| r^2 / r^expo
    d2 = np.max(np.abs(hessian(fld).values))
    quad_err = d2 * area * delta ** (n - expo + 2) / (n - expo + 2)

    # the spline of u on the delta lattice of the hull, flat
    fine_counts = tuple(level * (c - 1) + 1 for c in g.counts)
    spline = ndimage.spline_filter(fld.values, order=3, mode="nearest")
    fine = np.empty(math.prod(fine_counts))
    for blk in _blocks(fine.size, n):
        at = np.unravel_index(np.arange(blk.start, min(blk.stop, fine.size)),
                              fine_counts)
        fine[blk] = ndimage.map_coordinates(
            spline, np.divide(at, level), order=3, prefilter=False,
            mode="nearest")
    strides = np.cumprod((1,) + fine_counts[:0:-1])[::-1]

    # one offset of each pair +-j, by radius; a node takes a prefix
    k = math.floor(R.max() / delta)
    j = np.stack(np.meshgrid(*[np.arange(-k, k + 1)] * n, indexing="ij"),
                 axis=-1).reshape(-1, n)[((2 * k + 1) ** n + 1) // 2:]
    r = np.linalg.norm(j * delta, axis=-1)
    order = np.argsort(r, kind="stable")
    r, j = r[order], j[order]
    weight = r ** -expo
    offset = np.einsum("ij,j->i", j, strides)
    # a node's lattice stops at k(x) = floor(R(x) / delta) per axis, and
    # rounding can put an offset beyond it inside |y| <= R(x)
    cheb = np.abs(j).max(axis=-1)
    cheb_top = np.maximum.accumulate(cheb)
    kx = np.floor(R / delta)
    take = np.searchsorted(r, R, side="right")
    base = level * np.einsum("ij,i->j", np.nonzero(emask), strides)

    sums = np.empty(len(pts))
    for i, (b, u, m) in enumerate(zip(base, u0, take)):
        off, w = offset[:m], weight[:m]
        if cheb_top[m - 1] > kx[i]:
            keep = cheb[:m] <= kx[i]
            off, w = off[keep], w[keep]
        acc = 0.0
        for blk in _blocks(len(off), 1):
            o = off[blk]
            acc += np.einsum("i,i->", fine[b + o] + fine[b - o] - 2 * u, w[blk])
        sums[i] = acc
    return 2 * sums * delta ** n + far, quad_err, tail_err
