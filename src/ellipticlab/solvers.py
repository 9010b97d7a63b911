"""Lattice solvers, a closed-form field library and random walks.

The discrete Laplace problems are solved by conjugate gradients on the
5-point stencil (Hestenes and Stiefel, "Methods of conjugate gradients for
solving linear systems", J. Res. NBS 49, 1952), preconditioned by the
exact inverse of the 5-point Laplacian on the grid's whole box, one
DST-I per axis (Buzbee, Dorr, George and Golub, "The direct solution of
the discrete Poisson equation on irregular regions", SINUM 8, 1971).  The
extremal Pucci equations ``P(D^2_h u) = f`` are solved by Howard's policy
iteration (Bokanowski, Maroso and Zidani, "Some convergence results for
Howard's algorithm", SINUM 47, 2009): freeze the coefficient that attains
the extremum for the current iterate, solve the linear problem it defines
exactly, and repeat.  It starts from the coefficient of a zero Hessian, a
multiple of the identity, whose problem is the Poisson problem the
conjugate gradients solve, and takes every later coefficient in closed
form from the Hessian's eigenvalues.  The 4-point cross stencil of the
mixed derivatives makes those linear operators non-monotone, so the
convergence theorem for Howard's method does not apply; a solve that
fails to converge says so in its report.  The random walk is the
probabilistic counterpart of the discrete Laplace problem: its hitting
probabilities solve the same linear system conjugate gradients solve, so
the probabilistic Harnack check reads them from that one solve and draws
no walk.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.typing import NDArray

from .grid import (Grid, ScalarField, Region, Ball, ClosedBall, _interior,
                   _sq_dist)
from .operators import (Ellipticity, hessian, laplacian, sym_eigvals,
                        _apply, _laplace_taps, _stencil)
from .reports import make_report, unresolved, CheckReport

__all__ = [
    "BoundaryData", "SolverConfig", "WalkConfig", "solve_poisson",
    "solve_pucci", "FIELDS", "field_library", "random_walk_hitting",
    "probabilistic_harnack_check", "discrete_harmonic_hitting",
]


@dataclass
class BoundaryData:
    """Dirichlet data imposed on every node outside the open domain."""

    fn: Callable

    def values(self, grid: Grid) -> NDArray:
        return np.asarray(self.fn(grid.coords()), dtype=float)


@dataclass
class SolverConfig:
    """Stopping rule of all three solvers: :func:`solve_poisson` and
    :func:`discrete_harmonic_hitting` stop once a conjugate-gradient step
    changes no node by ``tol`` or more, :func:`solve_pucci` once the
    defect is at most ``tol``; each stops after ``max_iter`` iterations.
    Raises ``ValueError`` unless ``tol`` is a finite number above 0 and
    ``max_iter`` is at least 1: no other rule can stop."""

    tol: float = 1e-9
    max_iter: int = 200_000

    def __post_init__(self):
        if not (math.isfinite(self.tol) and self.tol > 0
                and self.max_iter >= 1):
            raise ValueError(f"tol must be finite and above 0 and max_iter "
                             f"at least 1, got {self.tol} and "
                             f"{self.max_iter}")


def _five_smooth(n: int) -> int:
    """The least integer ``>= n`` with no prime factor above 5."""
    while True:
        k = n
        for q in (2, 3, 5):
            while k % q == 0:
                k //= q
        if k == 1:
            return n
        n += 1


def _box_inverse(shape: tuple[int, ...]) -> Callable[[NDArray], NDArray]:
    """The exact inverse of the negated 5-point Laplacian ``2 dim v - (sum
    of the 2 dim neighbours)`` on the nodes off the outer layer of a box,
    with ``v = 0`` on its outer layer, restricted to a grid of ``shape``
    nodes (at least 3 per axis) in its corner.

    The returned function takes an array of ``shape`` that is 0 on the
    outer layer.  The box has ``b = 1 + _five_smooth(c - 1)`` nodes on an
    axis where the grid has ``c``, so that every FFT length ``2 (b - 1)``
    is 5-smooth: on a 95-node axis the length would be 188 = 4 * 47, and
    a hitting solve on the unit disc with 95 nodes per axis took 25-29 ms
    unwidened against 13 ms widened (fastest of 7, 2-core VM).  The
    inverse is diagonalised by the DST-I on each axis, and on an axis of
    ``b`` nodes whose end values are 0 that transform is ``-1`` times
    ``np.fft.rfft(x, n=2 (b - 1)).imag``, whose bins 0 and ``b - 1`` are
    0; ``rfft`` pads a shorter axis with the zeros of the wider box.  So
    the inverse is one such transform per axis, a division by the
    eigenvalues ``sum_i 2 - 2 cos(pi k_i / (b_i - 1))``, and one transform
    per axis again, scaled by ``prod_i 2 / (b_i - 1)``; the two signs
    cancel."""
    box = [1 + _five_smooth(c - 1) for c in shape]
    lam, scale = 0.0, 1.0
    for ax, b in enumerate(box):
        t = 2.0 - 2.0 * np.cos(np.pi * np.arange(b) / (b - 1))
        t[[0, -1]] = np.inf             # the end bins divide to 0
        lam = lam + t.reshape([-1 if a == ax else 1 for a in range(len(box))])
        scale *= 2.0 / (b - 1)
    inv = scale / lam
    grid = tuple(slice(0, c) for c in shape)

    def dst(x: NDArray) -> NDArray:
        for ax, b in enumerate(box):
            x = np.fft.rfft(x, n=2 * (b - 1), axis=ax).imag
        return x

    return lambda r: dst(dst(r) * inv)[grid]


def _cg(u: NDArray, free: NDArray, rhs: NDArray, tol: float,
        max_iter: int) -> tuple[int, float]:
    """Preconditioned conjugate gradients for ``(sum of the 2 dim
    neighbours) - 2 dim u = rhs``, in place on the free nodes off the
    outer layer of the C-contiguous ``u``, run matrix-free on the negated,
    positive definite system.  Stops once a step ``|alpha| max |p|``
    changes no node by ``tol``, or after ``max_iter``; returns the
    iteration count and that last step.

    The preconditioner is the free nodes' block of the exact inverse of
    the negated 5-point Laplacian on the whole box, ``_box_inverse``: a
    principal submatrix of a positive definite matrix, so the method
    stays conjugate gradients on the free nodes.  An exact fast Poisson
    solve on an enclosing box is the classical preconditioner of a
    Dirichlet problem on an irregular region (Buzbee, Dorr, George and
    Golub, SINUM 8, 1971); with it the iteration count grows like
    ``h^(-1/2)`` instead of ``1/h``.  With no free node nothing is built
    and it returns ``(1, 0.0)``.

    The fields are walked flat, each tap a flat offset, so that every array
    operation runs on one contiguous range; on the strided view of the
    nodes off the outer layer the n = 129 solves took twice as long.  Inner
    products use ``einsum``: ``np.dot`` may wake threaded BLAS."""
    strides = [math.prod(u.shape[ax + 1:]) for ax in range(u.ndim)]
    taps = [(c, (sum(o * s for o, s in zip(off, strides)),))
            for c, off in _laplace_taps(u.ndim)]
    m = strides[0]                      # the range: off the first/last layer
    # the residual and the search direction stay 0 off the free nodes
    mask = np.pad(free[_interior(u.shape)], 1).ravel()[m:-m]
    if not mask.any():
        return 1, 0.0
    box_inverse = _box_inverse(u.shape)
    x, p, res = u.reshape(-1), np.zeros(u.size), np.zeros(u.size)
    x_in, p_in, r = x[m:-m], p[m:-m], res[m:-m]
    r[...] = _apply(x, taps, m) - rhs.ravel()[m:-m]   # of the negated system
    r *= mask

    def precondition() -> NDArray:
        z = box_inverse(res.reshape(u.shape)).ravel()[m:-m]
        z *= mask
        return z

    z = precondition()
    rz = float(np.einsum("i,i->", r, z))
    p_in[...] = z
    step = np.inf
    for it in range(1, max_iter + 1):
        if rz == 0.0:       # solved exactly: a zero step
            return it, 0.0
        q = _apply(p, taps, m)
        q *= mask
        alpha = -rz / float(np.einsum("i,i->", p_in, q))
        x_in += alpha * p_in
        step = abs(alpha) * float(np.abs(p_in).max())
        if step < tol:
            return it, step
        r += alpha * q
        z = precondition()
        rz, rz_old = float(np.einsum("i,i->", r, z)), rz
        p_in *= rz / rz_old
        p_in += z
    return max_iter, step


def solve_poisson(grid: Grid, domain: Region, f, g: BoundaryData,
                  config: SolverConfig | None = None) -> tuple[ScalarField, CheckReport]:
    """Solve ``lap u = f`` on the domain with Dirichlet data outside, by
    preconditioned conjugate gradients on the 5-point stencil (``_cg``).

    ``f`` may be a callable or a constant.  The report's ``lhs`` is the
    max-norm residual of the discrete equation; its constants give
    ``iterations``, ``defect`` (that residual), ``update_residual`` (the
    largest change in the last step) and ``converged`` (that change is
    below ``config.tol``; a solve that stops unconverged fails).
    """
    config = config or SolverConfig()
    inside = domain.mask(grid) & grid._off_hull
    if callable(f):
        fv = np.asarray(f(grid.coords()), dtype=float)
    else:
        fv = np.full(grid.counts, float(f))
    h2 = grid.h ** 2
    u = g.values(grid).copy()
    u[inside] = 0.0
    it, res = _cg(u, inside, h2 * fv, config.tol, config.max_iter)
    core = _interior(grid.counts)
    eq = laplacian(ScalarField(grid, u)) - fv[core]
    true_res = float(np.abs(eq[inside[core]]).max(initial=0.0))
    converged = res < config.tol
    rep = make_report("poisson-solve", true_res,
                      config.tol * 8 * grid.dim / h2,
                      constants={"iterations": it, "defect": true_res,
                                 "update_residual": res,
                                 "converged": converged},
                      grid=grid.meta(),
                      notes="discrete equation residual after the CG solve",
                      fail=None if converged else f"not converged: last "
                      f"step {res:.3g} >= tol {config.tol:g}")
    return ScalarField(grid, u), rep


def _line_solve(free: NDArray, A: NDArray, rhs: NDArray,
                h: float) -> NDArray:
    """Solve ``A : D^2_h x = rhs`` on the free nodes with ``x = 0`` on
    every other node.

    ``A`` (shape ``(k, d, d)``, symmetric) and ``rhs`` (shape ``(k,)``)
    hold the coefficient and the right-hand side at the ``k`` nodes of
    ``free`` in C order, and the solution comes back in that order.  No
    free node may lie on the grid's outer layer.  ``D^2_h`` is the
    stencil of :func:`~ellipticlab.operators.hessian`, which couples a
    node only to the axis-0 hyperplanes next to its own, so the system
    is block tridiagonal in those hyperplanes: a forward sweep
    eliminates one hyperplane at a time with ``np.linalg.solve`` on its
    block, and a backward sweep substitutes.  Raises ``LinAlgError``
    when a block is singular.

    Two tables built once by whole-array indexing, one row per stencil
    offset and one column per free node, give each coefficient its column
    in the node's block row ``[D_i | U_i | b_i | spare]`` or, offsets to
    the hyperplane before, its row in ``[G_(i-1) | y_(i-1)]`` and a zero
    row (a missing neighbour: the spare column, or the zero row times 0).
    A hyperplane is one scatter, one gather and ``einsum`` and one solve,
    and the elimination is the per-offset assembly's, bit for bit.
    """
    strides = [math.prod(free.shape[ax + 1:]) for ax in range(free.ndim)]
    flat = np.flatnonzero(free)
    plane = flat // strides[0]
    start = np.searchsorted(plane, np.arange(free.shape[0] + 1))
    local = np.full(free.size, -1)    # index within its hyperplane
    local[flat] = np.arange(flat.size) - start[plane]
    sizes = np.diff(start, append=start[-1])   # per hyperplane, then a 0

    # the offsets to the hyperplane before come first
    taps = sorted(_stencil(A, h).items(), key=lambda t: t[0][0] >= 0)
    n_low = sum(offset[0] < 0 for offset, _ in taps)
    cols = np.empty((len(taps), flat.size), dtype=np.int32)
    vals = np.empty((len(taps), flat.size))
    for o, (offset, coef) in enumerate(taps):
        col = local[flat + int(np.dot(strides, offset))]
        miss = col < 0
        if offset[0] < 0:
            cols[o] = np.where(miss, sizes[plane - 1], col)
            vals[o] = np.where(miss, 0.0, coef)
        else:
            cols[o] = np.where(miss, sizes[plane] + sizes[plane + 1] + 1,
                               col + offset[0] * sizes[plane])
            vals[o] = coef
    del taps, coef

    # forward sweep: with D_i, L_i and U_i the couplings of hyperplane i to
    # itself and to hyperplanes i - 1 and i + 1, solve
    # S_i [G_i | y_i] = [U_i | b_i - L_i y_(i-1)], S_i = D_i - L_i G_(i-1),
    # into one shared buffer (one array per block: +1.5 MB peak RSS over
    # verify-suites), allocated after the stencil is freed (kept: +0.4 MB).
    shapes = [(m, c + 1) for m, c in zip(sizes, sizes[1:])]
    ends = np.cumsum([m * c for m, c in shapes])
    buf = np.zeros(ends[-1])
    sweep = [buf[e - m * c:e].reshape(m, c) for e, (m, c) in zip(ends, shapes)]
    prev = np.zeros((1, 1))
    for i, blk in enumerate(sweep):
        a, b = start[i], start[i + 1]
        m, c = blk.shape
        lower = np.einsum("oj,ojk->jk", vals[:n_low, a:b],
                          prev[cols[:n_low, a:b]])
        W = np.zeros((m, m + c + 1))    # [D_i | U_i | b_i | spare]
        W[np.arange(m), cols[n_low:, a:b]] = vals[n_low:, a:b]
        W[:, :m] -= lower[:, :-1]
        W[:, -2] = rhs[a:b] - lower[:, -1]
        prev = np.zeros((m + 1, c))
        prev[:-1] = blk[:] = np.linalg.solve(W[:, :m], W[:, m:-1])

    x = np.empty(flat.size)
    nxt = np.zeros(0)
    for i in reversed(range(len(sweep))):
        nxt = sweep[i][:, -1] - sweep[i][:, :-1] @ nxt
        x[start[i]:start[i + 1]] = nxt
    return x


def _policy(H: NDArray, e: NDArray, a: NDArray) -> NDArray:
    """Howard's coefficient ``A* = V diag(a) V^T`` for the symmetric
    ``H = V diag(e) V^T``, with ``e`` from
    :func:`~ellipticlab.operators.sym_eigvals` and ``a`` one weight per
    eigenvalue, so that ``A* : H = sum_k a_k e_k``.

    The split is ``sym_eigvals``'s own: ``A*`` is ``a`` itself in 1-D
    and, in 2-D, ``a_1 I + (a_2 - a_1) (H - e_1 I) / (e_2 - e_1)``, the
    second term through the projector onto ``e_2``'s eigenvector.  That
    term is 0 where ``a_1 = a_2``; elsewhere ``e_1 < 0 <= e_2``, so
    ``e_2 - e_1 >= max |e|`` and the projector is exact to rounding.  In
    3-D the eigenvectors come from ``np.linalg.eigh``."""
    if H.shape[-1] == 3:
        V = np.linalg.eigh(H)[1]
        return np.einsum("kil,kl,kjl->kij", V, a, V)
    if H.shape[-1] == 1:
        return a[..., None]
    c = (a[:, 1] - a[:, 0]) / np.where(a[:, 0] == a[:, 1], 1.0,
                                       e[:, 1] - e[:, 0])
    A = c[:, None, None] * H
    A[:, [0, 1], [0, 1]] += (a[:, 0] - c * e[:, 0])[:, None]
    return A


def solve_pucci(grid: Grid, domain: Region, f, g: BoundaryData,
                ell: Ellipticity, sign: str = "minus",
                config: SolverConfig | None = None) -> tuple[ScalarField, CheckReport]:
    """Howard policy iteration for ``P(D^2_h u) = f`` with Dirichlet data.

    ``P`` is ``P^-`` for ``sign="minus"`` and ``P^+`` for ``sign="plus"``;
    any other sign is a ``ValueError``.  A policy is the coefficient
    ``A* = V diag(a) V^T`` of an iterate's ``D^2_h u = V diag(e) V^T``
    (for ``P^-``, ``a_k = lam`` where ``e_k >= 0`` and ``a_k = Lam``
    where ``e_k < 0``; for ``P^+`` the reverse), so that ``P(D^2_h u) =
    A* : D^2_h u``; ``_policy`` builds it in closed form in 1-D and 2-D.
    The first policy is a zero Hessian's, ``lam I`` for ``P^-`` and
    ``Lam I`` for ``P^+``, whose problem is the 5-point Poisson problem:
    ``_cg`` solves it from ``u = 0`` on the free nodes (the domain's
    nodes off the grid's outer layer) to a step below ``config.tol``.
    Each later step freezes the current iterate's policy and solves
    ``A* : D^2_h du = f - P(D^2_h u)`` exactly by ``_line_solve``, with
    ``du = 0`` off the free nodes, so an inexact first solve costs
    steps, not accuracy.

    The 4-point cross stencil of the mixed derivatives makes
    ``A* : D^2_h`` non-monotone, so convergence is not guaranteed.  The
    iteration stops once the defect ``max |P(D^2_h u) - f|`` is at most
    ``config.tol``, after ``config.max_iter`` linear solves (the first,
    conjugate-gradient one among them), or when numpy raises
    ``LinAlgError`` (a singular block of the linear solve, or a
    non-finite iterate).  The report's ``lhs`` is the
    defect and its ``rhs`` is ``config.tol``, so it passes exactly when
    the iteration converged; its constants give ``converged``,
    ``defect`` and ``iterations`` (the number of linear solves).
    """
    if sign not in ("minus", "plus"):
        raise ValueError(f"sign must be 'minus' or 'plus', not {sign!r}")
    config = config or SolverConfig(tol=1e-3, max_iter=50)
    free = domain.mask(grid) & grid._off_hull
    on_core = free[_interior(grid.counts)]
    if callable(f):
        fv = np.asarray(f(grid.coords()), dtype=float)
    else:
        fv = np.full(grid.counts, float(f))
    a_pos, a_neg = ((ell.lam, ell.Lam) if sign == "minus"
                    else (ell.Lam, ell.lam))
    u = g.values(grid).copy()
    u[free] = 0.0
    _cg(u, free, grid.h ** 2 / a_pos * fv, config.tol, 500)
    fv = fv[free]
    it = 1
    while True:
        H = hessian(ScalarField(grid, u))[on_core]
        e = sym_eigvals(H)
        a = np.where(e >= 0, a_pos, a_neg)
        residual = fv - (a * e).sum(axis=-1)
        defect = float(np.abs(residual).max(initial=0.0))
        if defect <= config.tol or it >= config.max_iter:
            break
        try:
            u[free] += _line_solve(free, _policy(H, e, a), residual,
                                   grid.h)
        except np.linalg.LinAlgError:
            break
        it += 1
    converged = defect <= config.tol
    rep = make_report("pucci-solve", defect, config.tol,
                      constants={"iterations": it, "sign": sign,
                                 "converged": converged, "defect": defect},
                      grid=grid.meta(),
                      notes="extremal equation defect after Howard "
                            "iteration; downstream checks absorb it as "
                            "forcing")
    return ScalarField(grid, u), rep


# ---------------------------------------------------------------------------
# closed-form field library


def _radial(grid: Grid, fn, r_clip=0.0):
    """``fn(|x|)`` with ``|x|`` clamped below at ``max(r_clip, h/2)``;
    for ``r_clip > 0`` also the mask ``|x| >= r_clip``, which leaves out
    the nodes whose values were evaluated at the clamped radius."""
    r = np.sqrt(_sq_dist(grid.coords(), np.zeros(grid.dim)))
    vals = fn(np.maximum(r, max(r_clip, grid.h / 2)))
    return (vals, r >= r_clip) if r_clip > 0 else vals


def _harmonic_poly(grid: Grid, degree=2, part="re"):
    # 1d linear, 2d the real or imaginary part of z^degree, 3d x*y or
    # x^2 - z^2
    pts = grid.coords()
    if grid.dim == 1:
        return pts[..., 0]
    if grid.dim == 2:
        w = (pts[..., 0] + 1j * pts[..., 1]) ** degree
        return w.real if part == "re" else w.imag
    return pts[..., 0] * pts[..., 1] if degree == 2 \
        else pts[..., 0] ** 2 - pts[..., 2] ** 2


def _singular(grid: Grid, alpha: float, r_clip):
    """``|x|^-alpha``, or ``-log |x|`` for ``alpha <= 0``, masked off
    ``B_{r_clip}``; ``r_clip`` defaults to ``4h``."""
    r_clip = 4 * grid.h if r_clip is None else r_clip
    if alpha <= 0:
        return _radial(grid, lambda r: -np.log(r), r_clip)
    return _radial(grid, lambda r: r ** (-alpha), r_clip)


def _poisson_kernel_ish(grid: Grid):
    # positive harmonic on B_1 with boundary singularity at 1.05 e_1
    pts = grid.coords()
    e = 1.05 * np.eye(grid.dim)[0]
    return (1.05 ** 2 - _sq_dist(pts, np.zeros(grid.dim))) \
        / _sq_dist(pts, e) ** (grid.dim / 2)


# The closed-form families: each takes the grid and its own parameters and
# returns the node values, or the values and the mask of the valid nodes.
FIELDS: dict[str, Callable] = {
    "linear": lambda grid, slope=None: grid.coords() @ np.asarray(
        [1.0] + [0.0] * (grid.dim - 1) if slope is None else slope),
    "quadratic": lambda grid, A=None: 0.5 * np.einsum(
        "...i,ij,...j->...", grid.coords(),
        np.eye(grid.dim) if A is None else np.asarray(A), grid.coords()),
    "paraboloid": lambda grid, M=1.0: 0.5 * M * _sq_dist(
        grid.coords(), np.zeros(grid.dim)),
    "gaussian": lambda grid, sigma=1.0: np.exp(
        -_sq_dist(grid.coords(), np.zeros(grid.dim)) / (2 * sigma * sigma)),
    "harmonic-poly": _harmonic_poly,
    # fundamental-solution-type profile, singular at the origin
    "fundamental": lambda grid, r_clip=None: (
        _radial(grid, np.abs) if grid.dim == 1
        else _singular(grid, grid.dim - 2, r_clip)),
    "poisson-kernel-ish": _poisson_kernel_ish,
    "power": lambda grid, alpha=0.5: _radial(grid, lambda r: r ** alpha),
    # homogeneous supersolution profile for the window (lam, Lam)
    "pucci-radial": lambda grid, ell=Ellipticity(1.0, 2.0), r_clip=None: (
        _singular(grid, ell.Lam * grid.dim / ell.lam - 1.0, r_clip)),
    "cone": lambda grid: _radial(grid, lambda r: r),
    "bump": lambda grid, radius=0.5: np.clip(
        1 - _sq_dist(grid.coords(), np.zeros(grid.dim)) / radius ** 2,
        0, None) ** 2,
}


def field_library(name: str, grid: Grid, **kw) -> ScalarField:
    """The closed-form field ``name`` of :data:`FIELDS` on the grid, given
    the family's own keyword parameters and named after the family.

    Singular profiles carry a mask excluding a small ball around the
    singularity (values there are evaluated at the clamped radius).
    Raises ``KeyError`` for an unknown name and ``TypeError`` for a
    parameter the family does not take.
    """
    out = FIELDS[name](grid, **kw)
    vals, mask = out if isinstance(out, tuple) else (out, None)
    return ScalarField(grid, vals, name=name, mask=mask)


# ---------------------------------------------------------------------------
# random walks


@dataclass
class WalkConfig:
    n_samples: int = 10_000
    max_steps: int = 100_000
    seed: int = 0


# walks per Philox substream: chunk k reads the stream keyed (seed, k), so
# the estimates depend on this width, not on how the chunks are run
_CHUNK = 8192
_SUB = 16       # steps per draw and per array operation


def _walk_chunk(lattice: NDArray, step: NDArray, origin: int,
                rng: np.random.Generator, m: int,
                max_steps: int) -> tuple[int, int]:
    """Walk ``m`` walkers from the flat index ``origin`` of the absorb-code
    lattice; returns the counts that hit and that reached ``max_steps``."""
    hits = 0
    pos = np.full(m, origin)             # the walkers still walking
    steps = 0
    while pos.size and steps < max_steps:
        k = min(_SUB, max_steps - steps)
        path = step[rng.integers(0, step.size, size=(pos.size, k),
                                 dtype=np.int8)]
        path[:, 0] += pos
        np.cumsum(path, axis=1, out=path)
        # clipping moves only steps past a walker's first absorbing one,
        # which are never read
        seen = lattice.take(path, mode="clip")
        fate = seen[np.arange(pos.size), (seen != 0).argmax(axis=1)]
        hits += int(np.count_nonzero(fate == 1))
        pos = path[fate == 0, -1]
        steps += k
    return hits, pos.size


def random_walk_hitting(grid: Grid, start, target: Region, domain: Region,
                        config: WalkConfig) -> tuple[float, float, CheckReport]:
    """Probability of hitting the target before leaving the domain.

    Nearest-neighbour walk on the lattice.  The walks run in chunks of
    8192; each chunk reads its own Philox substream, keyed by
    ``(seed, chunk index)``, one ``(walkers still walking, 16)`` draw at
    a time (fewer columns at the ``max_steps`` cap), the walkers in
    their starting order.  So the estimates are reproducible however the
    chunks are run.

    The walkers move on flat indices into a lattice of absorb codes, one
    node wider than the hull on each side: 1 on the target, 2 on the pad
    and on the other nodes outside the domain, 0 elsewhere, so the
    target wins over exit.  Each array operation takes 16 steps of every
    walker still walking, and the first nonzero code on its path ends
    its walk.  A start on a nonzero code ends every walk at once, with
    standard error 0.  Returns (estimate, standard error, report);
    capped walks count as misses, and the report, whose ``lhs`` is their
    number and ``rhs`` 0, fails when there is one.  Raises
    ``ValueError`` unless ``n_samples`` and ``max_steps`` are at least 1.
    """
    if config.n_samples < 1 or config.max_steps < 1:
        raise ValueError(f"n_samples and max_steps must be at least 1, got "
                         f"{config.n_samples} and {config.max_steps}")
    code = np.full([c + 2 for c in grid.counts], 2, dtype=np.int8)
    code[_interior(code.shape)] = np.where(
        target.mask(grid), 1, np.where(domain.mask(grid), 0, 2))
    origin = int(np.ravel_multi_index([i + 1 for i in grid.index_of(start)],
                                      code.shape))
    lattice = code.ravel()
    start_code = lattice[origin]
    hits = capped = 0
    if start_code:
        hits = config.n_samples if start_code == 1 else 0
    else:
        # draw 2k moves one node up axis k, draw 2k + 1 one node down (the
        # byte strides of an int8 array count nodes)
        step = np.array([s * st for st in code.strides for s in (1, -1)])
        for c0 in range(0, config.n_samples, _CHUNK):
            rng = np.random.default_rng(
                np.random.Philox(key=[config.seed, c0 // _CHUNK]))
            n_hit, n_cap = _walk_chunk(
                lattice, step, origin, rng,
                min(_CHUNK, config.n_samples - c0), config.max_steps)
            hits += n_hit
            capped += n_cap
    p_hat = hits / config.n_samples
    se = 0.0 if start_code else math.sqrt(
        max(p_hat * (1 - p_hat), 1e-12) / config.n_samples)
    rep = make_report("walk-hitting", capped, 0,
                      constants={"estimate": p_hat, "stderr": se,
                                 "capped": capped,
                                 "n_samples": config.n_samples},
                      grid=grid.meta(), seed=config.seed,
                      notes="walks stopped at max_steps vs none")
    return p_hat, se, rep


def discrete_harmonic_hitting(grid: Grid, target: Region, domain: Region,
                              config: SolverConfig | None = None) -> ScalarField:
    """Exact hitting probabilities of the lattice walk.

    Solves the discrete Laplace problem: value 1 on the target, 0 outside
    the domain, and the neighbor average on interior nodes — the same
    linear system the walk samples — by conjugate gradients on the
    5-point stencil, preconditioned by the exact inverse of the 5-point
    Laplacian on the grid's box (one DST-I per axis; Buzbee, Dorr, George
    and Golub, SINUM 8, 1971), with the default config
    ``SolverConfig(tol=1e-10)``.
    Raises ``RuntimeError`` when they stop at ``config.max_iter`` with
    their last step still ``>= config.tol``.
    """
    config = config or SolverConfig(tol=1e-10)
    tmask = target.mask(grid)
    u = tmask.astype(float)
    it, delta = _cg(u, domain.mask(grid) & ~tmask, np.zeros(grid.counts),
                    config.tol, config.max_iter)
    if delta >= config.tol:
        raise RuntimeError(f"CG not converged: last step {delta:.3g} "
                           f">= tol {config.tol:g} after {it} iterations")
    return ScalarField(grid, u)


def probabilistic_harnack_check(grid: Grid, A: Region,
                                rho: float) -> CheckReport:
    """Walks started deep inside see every chunk of a small central set.

    For starts in ``B_{1/3}`` the probability of hitting ``A cap B_rho``
    before leaving ``B_1`` is at least ``c |A cap B_rho|``, with the
    pinned lattice constant ``c_pinned = 0.02``.  That probability is the
    walk's exact one, from one :func:`discrete_harmonic_hitting` solve,
    and rhs is its least value, at most 1, over the ``n_starts`` nodes of
    the closed ``B_{1/3}``; that ball and ``A cap B_rho`` need 1 node each.
    """
    c_pinned = 0.02
    origin = (0.0,) * grid.dim
    target = A & ClosedBall(origin, rho)
    nodes = np.count_nonzero(target.mask(grid))
    meas = float(nodes) * grid.cell_measure
    starts = ClosedBall(origin, 1 / 3).mask(grid)
    hit = discrete_harmonic_hitting(grid, target, Ball(origin, 1.0))
    worst = float(hit.values[starts].min(initial=1.0))
    return make_report("probabilistic-harnack", c_pinned * meas, worst,
                       constants={"c_pinned": c_pinned, "measure": meas,
                                  "min_hitting": worst,
                                  "n_starts": int(starts.sum())},
                       grid=grid.meta(),
                       notes="minimal hitting probability vs target measure",
                       hypothesis=unresolved("A cap B_rho", nodes, 1) or
                       unresolved("B_1/3", np.count_nonzero(starts), 1))
