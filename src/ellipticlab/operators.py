"""Finite-difference derivatives and extremal elliptic operators.

Derivatives use centered second-order stencils and are plain arrays
over the nodes off the outer layer of the field's own grid, indexed like
``values[_interior(counts)]``; a second difference along a longer step
is a field on that grid, with the boolean array of the nodes where the
step stays on it.  The extremal operators act on symmetric matrices
through their eigenvalues, computed in closed form for dimensions 1-2
and by a LAPACK symmetric solve in dimension 3.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .grid import (ScalarField, Region, _ball_volume, _blocks, _fold,
                   _sq_dist)
from .reports import make_report, CheckReport

__all__ = [
    "Ellipticity", "FractionalParams", "TailSpec", "FractionalResult",
    "pucci_minus", "pucci_plus", "gradient", "hessian", "laplacian",
    "pucci_sandwich_residual", "fractional_laplacian",
    "fractional_linear_check", "fractional_gaussian_refine_check",
    "fractional_scaling_check",
]


@dataclass(frozen=True)
class Ellipticity:
    """Ellipticity window ``0 < lam <= Lam``."""

    lam: float
    Lam: float

    def __post_init__(self):
        if not (0 < self.lam <= self.Lam):
            raise ValueError("need 0 < lam <= Lam")


# ---------------------------------------------------------------------------
# eigenvalues and Pucci operators


def _sym_eigvals(mats: NDArray) -> NDArray:
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


def _weighted(e: NDArray, pos: float, neg: float) -> tuple[NDArray, NDArray]:
    """The weights ``a_k`` of the eigenvalues ``e`` (``pos`` where ``e_k >=
    0``, else ``neg``) and the extremal operators' sum ``sum_k a_k e_k``."""
    a = np.where(e >= 0, pos, neg)
    return a, _fold(np.add, a * e)


def pucci_minus(mats: NDArray, ell: Ellipticity) -> NDArray:
    """Minimal Pucci operator: lam * (positive part) - Lam * (negative part),
    summed over eigenvalues."""
    return _weighted(_sym_eigvals(mats), ell.lam, ell.Lam)[1]


def pucci_plus(mats: NDArray, ell: Ellipticity) -> NDArray:
    """Maximal Pucci operator: Lam * (positive part) - lam * (negative part)."""
    return _weighted(_sym_eigvals(mats), ell.Lam, ell.lam)[1]


# ---------------------------------------------------------------------------
# finite differences


def _shift(u: NDArray, offset, at) -> NDArray:
    """``u`` at ``x + offset`` for the nodes ``x`` of ``at``: a margin, the
    nodes at least that many off the hull (a tuple of one per axis, or
    one int for all), as a view; or an array of flat C-order node
    indices, as a gather in its shape."""
    if isinstance(at, np.ndarray):
        step = np.cumprod((1,) + u.shape[:0:-1])[::-1]
        return u.reshape(-1)[at + int(np.dot(offset, step))]
    at = (at,) * u.ndim if isinstance(at, int) else at
    return u[tuple(slice(m + o, c - m + o)
                   for c, o, m in zip(u.shape, offset, at))]


def _apply(u: NDArray, taps, at) -> NDArray:
    """``sum c u(x + offset)`` over the ``(c, offset)`` taps, in tap order,
    at the nodes ``at`` of :func:`_shift` (a margin or flat node indices,
    the same sum at a node either way); each ``c`` is a number or one
    coefficient per such node."""
    (c, off), *rest = taps
    acc = c * _shift(u, off, at)
    for c, off in rest:
        v = _shift(u, off, at)
        acc += v if np.isscalar(c) and c == 1 else c * v
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


def _grad(u: NDArray, h: float, at) -> NDArray:
    """Centered first differences of the node values ``u`` at spacing
    ``h``, at the nodes ``at`` of :func:`_shift`: per axis, ``u(x + e_i)
    - u(x - e_i)`` by :func:`_apply` over ``2 h``."""
    nbrs = _laplace_taps(u.ndim)[1:]
    comps = [_apply(u, ((1, up), (-1, dn)), at) / (2 * h)
             for (_, up), (_, dn) in zip(nbrs[::2], nbrs[1::2])]
    return np.stack(comps, axis=-1)


def gradient(fld: ScalarField) -> NDArray:
    """Centered first differences at the nodes off the outer layer, shape
    ``(c - 2 for c in counts) + (dim,)``."""
    return _grad(fld.values, fld.grid.h, 1)


def _d2(u: NDArray, h: float, at) -> NDArray:
    """``D^2_h`` of the node values ``u`` at spacing ``h`` at the nodes
    ``at`` of :func:`_shift`, shape theirs ``+ (dim, dim)``, symmetric:
    each entry one :func:`_apply` of its taps over its divisor."""
    d = u.ndim
    out = np.empty(_shift(u, (0,) * d, at).shape + (d, d))
    for (i, j), taps, div in _d2_table(d):
        out[..., i, j] = out[..., j, i] = _apply(u, taps, at) / (div * h ** 2)
    return out


def hessian(fld: ScalarField) -> NDArray:
    """Centered second differences (4-point stencil for cross terms) at
    the nodes off the outer layer, shape ``(c - 2 for c in counts) +
    (dim, dim)``, symmetric."""
    return _d2(fld.values, fld.grid.h, 1)


def _d2_abs_max(fld: ScalarField, where=True) -> float:
    """max ``|D^2_h u|`` over the nodes off the outer layer that ``where``
    selects (0 if none), one stencil entry at a time: the max of
    ``np.abs(hessian(fld)[where])``."""
    g = fld.grid
    best = 0.0
    for _, taps, div in _d2_table(g.dim):
        e = np.abs(_apply(fld.values, taps, 1) / (div * g.h ** 2))
        best = max(best, float(e.max(where=where, initial=0.0)))
    return best


def _lap(u: NDArray, h: float, at) -> NDArray:
    """Trace of ``D^2_h`` of the node values ``u`` at spacing ``h``, at
    the nodes ``at`` of :func:`_shift`."""
    return _apply(u, _laplace_taps(u.ndim), at) / h ** 2


def laplacian(fld: ScalarField) -> NDArray:
    """Trace of ``D^2_h`` at the nodes off the outer layer."""
    return _lap(fld.values, fld.grid.h, 1)


def pucci_sandwich_residual(fld: ScalarField, A: NDArray,
                            ell: Ellipticity) -> CheckReport:
    """Check P^-(D^2 u) <= A:D^2 u <= P^+(D^2 u) at every node off the
    outer layer, for ``A`` a constant matrix or a matrix field over those
    nodes; the hypothesis is that the symmetric part of A has its
    eigenvalues in ``[lam, Lam]``, within the report's tol."""
    H = hessian(fld)
    e = _sym_eigvals(H)
    lo = _weighted(e, ell.lam, ell.Lam)[1]
    hi = _weighted(e, ell.Lam, ell.lam)[1]
    mid = np.einsum("...ij,...ij->...", A, H)
    worst = float(np.maximum(lo - mid, mid - hi).max())
    sym = _sym_eigvals(np.asarray(A) + np.swapaxes(A, -1, -2)) / 2
    ok = ell.lam - 1e-10 <= sym.min() and sym.max() <= ell.Lam + 1e-10
    return make_report("pucci-sandwich", worst, 0.0, tol=1e-10,
                       grid=fld.grid.meta(),
                       notes="max violation of the extremal-operator sandwich",
                       hypothesis=None if ok else "hypothesis failed: "
                       "sym(A) has an eigenvalue outside [lam, Lam]")


def _second_difference(fld: ScalarField, e,
                       h_step: float) -> tuple[ScalarField, NDArray]:
    """``(u(x + s e) + u(x - s e) - 2 u(x)) / s**2`` on the field's grid,
    and the boolean array of the nodes where it is defined.

    ``e`` must be a unit vector whose step ``s * e`` lands on the lattice.
    The field is 0, and undefined, on the layers where the step leaves
    the grid, everywhere when it leaves from every node.
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
    if np.any(2 * margins >= g.counts):
        return ScalarField(g, np.zeros(g.counts)), np.zeros(g.counts, bool)
    inner = _apply(fld.values, _along(k), tuple(margins)) / h_step ** 2
    pad = [(m, m) for m in margins]
    return (ScalarField(g, np.pad(inner, pad)),
            np.pad(np.ones(inner.shape, dtype=bool), pad))


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
    """The values at the evaluation nodes ``eval_mask`` (a read-only
    boolean array), 0 elsewhere, and the two error terms."""

    field: ScalarField
    eval_mask: NDArray
    quadrature_error: float
    tail_error: float


def _sphere_area(dim: int) -> float:
    # surface measure of the unit sphere in R^dim
    return dim * _ball_volume(dim)


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
    emask = emask.view()
    emask.flags.writeable = False
    return FractionalResult(field=ScalarField(g, values), eval_mask=emask,
                            quadrature_error=quad_err, tail_error=tail_err)


def _refine(values: NDArray, level: int) -> NDArray:
    """The cubic spline of ``values`` at the nodes of the lattice
    ``level`` times finer, ``level (c - 1) + 1`` per axis; at level 1 the
    values themselves, which the spline interpolates.

    Axis by axis: the B-spline coefficients ``s`` solve ``(s[i-1] +
    4 s[i] + s[i+1]) / 6 = u[i]`` with ``s`` continued by its end values
    (``s[-1] = s[0]``, as ``spline_filter(order=3, mode="nearest")``),
    a tridiagonal solve looped along the axis; each sub-position ``t =
    r / level`` then takes the four B-spline taps ``s[i-1..i+2]``, their
    indices clamped to the axis."""
    if level == 1:
        return values
    t = np.arange(level) / level
    taps = np.stack([(1 - t) ** 3, 4 - 6 * t ** 2 + 3 * t ** 3,
                     1 + 3 * t + 3 * t ** 2 - 3 * t ** 3, t ** 3]) / 6
    out = values
    for ax in range(values.ndim):
        s = 6.0 * np.ascontiguousarray(np.moveaxis(out, ax, 0), dtype=float)
        c, rest = len(s), s.shape[1:]
        # forward elimination, then back substitution
        piv = np.full(c, 4.0)
        piv[0] += 1.0
        piv[-1] += 1.0
        s[0] /= piv[0]
        for i in range(1, c):
            piv[i] -= 1.0 / piv[i - 1]
            s[i] -= s[i - 1]
            s[i] /= piv[i]
        for i in range(c - 2, -1, -1):
            s[i] -= s[i + 1] / piv[i]
        at = np.clip(np.arange(c)[:, None] + np.arange(-1, 3), 0, c - 1)
        w = taps.reshape((4, level) + (1,) * len(rest))
        fine = sum(w[k] * s[at[:, k], None] for k in range(4))
        fine = fine.reshape((c * level,) + rest)[:level * (c - 1) + 1]
        out = np.moveaxis(fine, 0, ax)
    return out


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
    R = np.minimum(_fold(np.minimum, pts - np.asarray(g.origin)),
                   _fold(np.minimum, np.asarray(g.upper()) - pts))
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
    d2 = _d2_abs_max(fld)
    quad_err = d2 * area * delta ** (n - expo + 2) / (n - expo + 2)

    # the spline of u on the delta lattice of the hull, flat
    fine = _refine(fld.values, level)
    strides = np.cumprod((1,) + fine.shape[:0:-1])[::-1]
    fine = fine.ravel()

    # one offset of each pair +-j, by radius; a node takes a prefix
    k = math.floor(R.max() / delta)
    j = np.stack(np.meshgrid(*[np.arange(-k, k + 1)] * n, indexing="ij"),
                 axis=-1).reshape(-1, n)[((2 * k + 1) ** n + 1) // 2:]
    r = np.sqrt(_sq_dist(j * delta, np.zeros(n)))
    order = np.argsort(r, kind="stable")
    r, j = r[order], j[order]
    weight = r ** -expo
    offset = np.einsum("ij,j->i", j, strides)
    # a node's lattice stops at k(x) = floor(R(x) / delta) per axis, and
    # rounding can put an offset beyond it inside |y| <= R(x)
    cheb = _fold(np.maximum, np.abs(j))
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


# ---------------------------------------------------------------------------
# fractional checks: each reads the order-1 fractional Laplacian at the
# center node


def fractional_linear_check(fld: ScalarField) -> CheckReport:
    """The fractional Laplacian of a linear field that vanishes at the
    center node is 0 there: its symmetric second differences are 0, and
    so is the far field of ``u = 0`` that the zero tail adds, so only the
    quadrature error of the level-2 rule (and 1e-8) may remain."""
    res = fractional_laplacian(fld, FractionalParams(sigma=1.0, level=2))
    v0 = float(res.field.values[res.eval_mask][0])
    return make_report("fractional-linear", abs(v0),
                       1e-8 + res.quadrature_error, grid=fld.grid.meta(),
                       notes="odd symmetry kills the kernel")


def fractional_gaussian_refine_check(fld: ScalarField) -> CheckReport:
    """The center value of the level-3 quadrature lies within 1 % of the
    level-6 one."""
    coarse = fractional_laplacian(fld, FractionalParams(sigma=1.0, level=3))
    fine = fractional_laplacian(fld, FractionalParams(sigma=1.0, level=6))
    a = float(coarse.field.values[coarse.eval_mask][0])
    b = float(fine.field.values[fine.eval_mask][0])
    return make_report("fractional-gaussian-refine", abs(a - b),
                       0.01 * abs(b), grid=fld.grid.meta(),
                       notes="level-3 value within 1% of refined")


def fractional_scaling_check(fld: ScalarField,
                             wide: ScalarField) -> CheckReport:
    """Dilation covariance at the center: for ``wide(x) = fld(x / 2)`` on
    the same grid, the value of ``wide`` is ``2^-sigma = 1/2`` times that
    of ``fld``, within 2 % of the latter plus both tail errors, at
    quadrature level 3."""
    r = fractional_laplacian(fld, FractionalParams(sigma=1.0, level=3))
    rw = fractional_laplacian(wide, FractionalParams(sigma=1.0, level=3))
    a = float(r.field.values[r.eval_mask][0])
    c = float(rw.field.values[rw.eval_mask][0])
    return make_report("fractional-scaling", abs(c - 0.5 * a),
                       0.02 * abs(a) + rw.tail_error + r.tail_error,
                       grid=fld.grid.meta(),
                       notes="dilation covariance of the kernel")
