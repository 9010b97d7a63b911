"""Lattice solvers and random walks.

The discrete Laplace problems are solved by conjugate gradients on the
5-point stencil (Hestenes and Stiefel, "Methods of conjugate gradients for
solving linear systems", J. Res. NBS 49, 1952), preconditioned by the
exact inverse of the 5-point Laplacian on the grid's whole box, one
DST-I per axis (Buzbee, Dorr, George and Golub, "The direct solution of
the discrete Poisson equation on irregular regions", SINUM 8, 1971).  The
extremal Pucci equations ``P(D^2_h u) = f`` are solved by Howard's policy
iteration (Bokanowski, Maroso and Zidani, "Some convergence results for
Howard's algorithm", SINUM 47, 2009): freeze the coefficient that attains
the extremum for the current iterate, solve the linear problem it defines,
and repeat.  It starts from the coefficient of a zero Hessian, a multiple
of the identity, whose problem is the Poisson problem the conjugate
gradients solve, and takes every later coefficient in closed form from the
Hessian's eigenvalues; their problems are solved inexactly, by GMRES
(Dembo, Eisenstat and Steihaug, "Inexact Newton methods", SINUM 19,
1982).  The 4-point cross stencil of the
mixed derivatives makes those linear operators non-monotone, so the
convergence theorem for Howard's method does not apply; a solve that
fails to converge says so in its report.  The random walk is the
probabilistic counterpart of the discrete Laplace problem: its hitting
probabilities solve the same linear system conjugate gradients solve, so
the probabilistic Harnack check reads them from that one solve and draws
no walk.  A walk draws one byte per pair of moves, the pair's column in
a table of M^2 int32 per lattice node (M = 2 dim moves), and takes the
pair in one gather.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.typing import NDArray

from .grid import (Grid, ScalarField, Region, Ball, ClosedBall, _interior,
                   _five_smooth)
from .operators import (Ellipticity, hessian, laplacian, _sym_eigvals,
                        _apply, _laplace_taps, _stencil, _weighted)
from .reports import make_report, unresolved, CheckReport

__all__ = [
    "BoundaryData", "SolverConfig", "WalkConfig", "solve_poisson",
    "solve_pucci", "random_walk_hitting",
    "discrete_harmonic_hitting", "walk_vs_oracle_check",
    "probabilistic_harnack_check",
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


# GMRES's iteration cap; the suites' forcing targets took 4-13 iterations
_GMRES_CAP = 100


def _gmres(free: NDArray, A: NDArray, rhs: NDArray, h: float,
           rtol: float) -> tuple[NDArray, int, bool]:
    """GMRES (Saad and Schultz, SISSC 7, 1986) for ``A : D^2_h x = rhs`` on
    the ``k`` free nodes in C order (none on the outer layer; ``A`` of
    shape ``(k, d, d)``), ``x = 0`` elsewhere, to a residual 2-norm of at
    most ``rtol |rhs|``.  Returns ``x``, the iteration count and whether
    the target was met: a zero ``rhs`` returns 0 at once, a happy
    breakdown stops on its zero residual before dividing by it, and after
    ``_GMRES_CAP`` iterations the best iterate returns unmet.  A singular
    system raises ``LinAlgError``.

    The operator is ``_apply`` of one flat tap per ``_stencil`` offset, as
    in ``_cg``, its coefficient given at every node of one contiguous
    range (0 off the free nodes) kept ``sum(strides)`` nodes, the cross
    taps' reach, off each end.  The right preconditioner is
    ``_box_inverse`` masked to the free nodes (under the Cordes condition
    the operator is near a Laplacian: Smears and Suli, SINUM 51, 2013);
    scaling it per node by ``tr A / d`` took as many iterations.  One
    classical Gram-Schmidt pass (a second took the same iterations) uses
    ``einsum`` (``np.dot`` may wake threaded BLAS); Givens rotations give
    the residual norm."""
    beta = math.sqrt(float(np.einsum("i,i->", rhs, rhs)))
    if beta == 0.0:
        return np.zeros(rhs.size), 0, True
    strides = [math.prod(free.shape[ax + 1:]) for ax in range(free.ndim)]
    m = sum(strides)
    mask = free.ravel()[m:-m]
    at, n = np.flatnonzero(mask), mask.size
    stencil = _stencil(A, h)
    coef = np.zeros((len(stencil), n))
    coef[:, at] = list(stencil.values())
    taps = [(c, (sum(o * s for o, s in zip(off, strides)),))
            for c, off in zip(coef, stencil)]
    box_inverse, pad = _box_inverse(free.shape), np.zeros(free.size)
    V = np.empty((_GMRES_CAP + 1, n))       # rows never written stay unpaged
    V[0] = 0.0
    V[0, at] = rhs / beta
    R, rot = np.zeros((_GMRES_CAP, _GMRES_CAP)), np.zeros((_GMRES_CAP, 2))
    g = np.r_[beta, np.zeros(_GMRES_CAP)]   # the rotated beta e_1
    for j in range(_GMRES_CAP):
        pad[m:-m] = V[j]                    # then M^-1 V[j], in place
        pad[m:-m] = box_inverse(pad.reshape(free.shape)).ravel()[m:-m] * mask
        w = _apply(pad, taps, m)
        R[:j + 1, j] = np.einsum("ij,j->i", V[:j + 1], w)
        w -= np.einsum("ij,i->j", V[:j + 1], R[:j + 1, j])
        sub = math.sqrt(float(np.einsum("i,i->", w, w)))
        for i, (cs, sn) in enumerate(rot[:j]):
            R[i:i + 2, j] = (cs * R[i, j] + sn * R[i + 1, j],
                             cs * R[i + 1, j] - sn * R[i, j])
        r = math.hypot(R[j, j], sub)     # 0 leaves R singular: solve raises
        cs, sn = rot[j] = (R[j, j] / r, sub / r) if r else (1.0, 0.0)
        R[j, j], g[j:j + 2] = r, (cs * g[j], -sn * g[j])
        if abs(g[j + 1]) <= rtol * beta:
            break
        V[j + 1] = w / sub
    y = np.linalg.solve(R[:j + 1, :j + 1], g[:j + 1])
    pad[m:-m] = np.einsum("ij,i->j", V[:j + 1], y)
    x = box_inverse(pad.reshape(free.shape)).ravel()[m:-m][at]
    return x, j + 1, bool(abs(g[j + 1]) <= rtol * beta)


def _policy(H: NDArray, e: NDArray, a: NDArray) -> NDArray:
    """Howard's coefficient ``A* = V diag(a) V^T`` for the symmetric
    ``H = V diag(e) V^T``, with ``e`` from
    :func:`~ellipticlab.operators._sym_eigvals` and ``a`` one weight per
    eigenvalue, so that ``A* : H = sum_k a_k e_k``.

    The split is ``_sym_eigvals``'s own: ``A*`` is ``a`` itself in 1-D
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
    ``A* : D^2_h du = f - P(D^2_h u)``, with ``du = 0`` off the free
    nodes, by ``_gmres`` to a 2-norm residual of ``eta`` times the
    right-hand side's, ``eta = min(0.1, max(defect / first defect, tol /
    (2 |rhs|_2)))``, the first defect after the conjugate-gradient start.
    Howard's method is Newton's on the defect, measured afresh from ``u``
    at every step, so an inexact solve costs steps, not accuracy; the
    floor (Kelley, SIAM 1995, 6.3) leaves at most ``tol / 2`` of residual
    in the max norm too, never solving past what the defect test sees.

    The 4-point cross stencil of the mixed derivatives makes
    ``A* : D^2_h`` non-monotone, so convergence is not guaranteed.  The
    iteration stops once the defect ``max |P(D^2_h u) - f|`` is at most
    ``config.tol``, after ``config.max_iter`` linear solves (the first,
    conjugate-gradient one among them), when GMRES misses its target
    (its step is not taken), or when numpy raises ``LinAlgError`` (a
    singular system, or a non-finite iterate).  The report's ``lhs`` is
    the defect and its ``rhs`` is ``config.tol``, so it passes exactly
    when the iteration converged; its constants give ``converged``,
    ``defect``, ``iterations`` (the number of linear solves) and
    ``linear_iterations`` (each GMRES solve's iterations, in order).
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
    steps = []                  # each GMRES solve's iterations
    while True:
        H = hessian(ScalarField(grid, u))[on_core]
        e = _sym_eigvals(H)
        a, p = _weighted(e, a_pos, a_neg)
        residual = fv - p
        defect = float(np.abs(residual).max(initial=0.0))
        first = first if steps else defect
        if defect <= config.tol or len(steps) + 1 >= config.max_iter:
            break
        rhs = math.sqrt(float(np.einsum("i,i->", residual, residual)))
        eta = min(0.1, max(defect / first, 0.5 * config.tol / rhs))
        try:
            du, n_lin, met = _gmres(free, _policy(H, e, a), residual,
                                    grid.h, eta)
        except np.linalg.LinAlgError:
            break
        steps.append(n_lin)
        if not met:
            break
        u[free] += du
    converged = defect <= config.tol
    rep = make_report("pucci-solve", defect, config.tol,
                      constants={"iterations": len(steps) + 1, "sign": sign,
                                 "converged": converged, "defect": defect,
                                 "linear_iterations": steps},
                      grid=grid.meta(),
                      notes="extremal equation defect after Howard "
                            "iteration; downstream checks absorb it as "
                            "forcing")
    return ScalarField(grid, u), rep


# ---------------------------------------------------------------------------
# random walks


@dataclass
class WalkConfig:
    n_samples: int = 10_000
    seed: int = 0


_MAX_STEPS = 100_000    # a walk still walking after these steps is capped
# walks per Philox substream: chunk k reads the stream keyed (seed, k), so
# the estimates depend on this width, not on how the chunks are run; the
# probabilistic suite's 20,000 walks are one chunk, with one straggler tail
_CHUNK = 1 << 15
_SUB = 16       # steps per draw, 8 pair codes


def _walk_table(code: NDArray) -> tuple[NDArray, NDArray]:
    """The flat int32 two-move table of the absorb-code lattice ``code``
    and its ``M = 2 dim`` move offsets (``2k`` one node up axis ``k``,
    ``2k + 1`` down; int8 byte strides count nodes).  A walker at node
    ``p`` is at row ``M^2 p``, and entry ``M^2 p + d0 + M d1`` is the row
    of the node that moves ``d0``, ``d1`` reach, stopping at the first
    nonzero code: a node with a nonzero code maps to itself."""
    lattice = code.ravel()
    step = np.array([s * st for st in code.strides for s in (1, -1)])
    table = np.repeat(np.arange(lattice.size, dtype=np.int32),
                      step.size ** 2).reshape(-1, step.size, step.size)
    free = np.flatnonzero(lattice == 0)     # off the pad, so p1 is in it
    p1 = free[:, None] + step                         # [free node, d0]
    for d1, s in enumerate(step):
        table[free, d1] = np.where(lattice[p1] != 0, p1, p1 + s)
    table *= step.size ** 2
    return table.ravel(), step


def _walk_chunk(lattice: NDArray, table: NDArray, step: NDArray,
                origin: int, rng: np.random.Generator, m: int,
                max_steps: int) -> tuple[int, int]:
    """Walk ``m`` walkers from the flat index ``origin`` of the absorb-code
    lattice; returns the counts that hit and that reached ``max_steps``."""
    M = step.size
    hits = steps = 0
    row = np.full(m, origin * M * M)     # the walkers still walking
    while row.size and steps < max_steps:
        k = min(_SUB, max_steps - steps)
        # pair code d0 + M d1 < 36: the table column of moves d0, d1
        for col in rng.integers(0, M * M, size=(k // 2, row.size),
                                dtype=np.uint8):
            row = table.take(row + col)
        if k % 2:
            d = rng.integers(0, M, size=row.size, dtype=np.uint8)
            row = np.where(lattice[row // (M * M)] == 0,
                           row + M * M * step[d], row)
        fate = lattice[row // (M * M)]
        hits += int(np.count_nonzero(fate == 1))
        row = row[fate == 0]
        steps += k
    return hits, row.size


def random_walk_hitting(grid: Grid, start, target: Region, domain: Region,
                        config: WalkConfig) -> tuple[float, float, CheckReport]:
    """Probability of hitting the target before leaving the domain.

    Nearest-neighbour walk on the lattice, on flat indices into a lattice
    of absorb codes one node wider than the hull on each side: 1 on the
    target, 2 on the pad and on the other nodes outside the domain, 0
    elsewhere, so the target wins over exit.  The walks run in chunks of
    ``2^15``, each on its own Philox substream keyed by ``(seed, chunk
    index)``, which it reads one uint8 ``(8, walkers still walking)``
    draw of pair codes at a time (fewer at the ``_MAX_STEPS`` cap), the
    walkers in their starting order: the estimates do not depend on how
    the chunks are run.  Pair code ``d0 + M d1`` is moves ``d0`` then
    ``d1``, with ``M = 2 dim``, and its column in the lattice's
    ``_walk_table`` (built once per call, ``M^2`` int32 per lattice node:
    64 B in 2-D, 144 B in 3-D), so a walker takes a pair per gather.  At
    an odd cap the lone last move is one more draw in ``[0, M)`` per
    walker.  A walker stops at its first nonzero code.  A start on a
    nonzero code ends every walk at once, with standard error 0.  Returns
    (estimate, standard error, report); capped walks count as misses, and
    the report, whose ``lhs`` is their number and ``rhs`` 0, fails when
    there is one.  Raises ``ValueError`` unless ``n_samples`` is at least
    1 and ``seed`` is an integer in ``[0, 2^63)``, the range Philox keys
    it by without wrapping or rounding.
    """
    if config.n_samples < 1:
        raise ValueError(f"n_samples must be at least 1: {config.n_samples}")
    if not (isinstance(config.seed, numbers.Integral)
            and 0 <= config.seed < 2 ** 63):
        raise ValueError(f"seed must be an integer in [0, 2**63), got "
                         f"{config.seed!r}")
    seed = int(config.seed)
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
        table, step = _walk_table(code)
        for c0 in range(0, config.n_samples, _CHUNK):
            rng = np.random.default_rng(
                np.random.Philox(key=[seed, c0 // _CHUNK]))
            n_hit, n_cap = _walk_chunk(
                lattice, table, step, origin, rng,
                min(_CHUNK, config.n_samples - c0), _MAX_STEPS)
            hits += n_hit
            capped += n_cap
    p_hat = hits / config.n_samples
    se = 0.0 if start_code else math.sqrt(
        max(p_hat * (1 - p_hat), 1e-12) / config.n_samples)
    rep = make_report("walk-hitting", capped, 0,
                      constants={"estimate": p_hat, "stderr": se,
                                 "capped": capped,
                                 "n_samples": config.n_samples},
                      grid=grid.meta(), seed=seed,
                      notes="walks stopped at max_steps vs none")
    return p_hat, se, rep


def discrete_harmonic_hitting(grid: Grid, target: Region,
                              domain: Region) -> ScalarField:
    """Exact hitting probabilities of the lattice walk.

    Solves the discrete Laplace problem: value 1 on the target, 0 outside
    the domain, and the neighbor average on interior nodes — the same
    linear system the walk samples — by conjugate gradients on the
    5-point stencil, preconditioned by the exact inverse of the 5-point
    Laplacian on the grid's box (one DST-I per axis; Buzbee, Dorr, George
    and Golub, SINUM 8, 1971), under ``SolverConfig(tol=1e-10)``.
    Raises ``RuntimeError`` when they stop at ``config.max_iter`` with
    their last step still ``>= config.tol``.
    """
    config = SolverConfig(tol=1e-10)
    tmask = target.mask(grid)
    u = tmask.astype(float)
    it, delta = _cg(u, domain.mask(grid) & ~tmask, np.zeros(grid.counts),
                    config.tol, config.max_iter)
    if delta >= config.tol:
        raise RuntimeError(f"CG not converged: last step {delta:.3g} "
                           f">= tol {config.tol:g} after {it} iterations")
    return ScalarField(grid, u)


def walk_vs_oracle_check(grid: Grid, target: Region,
                         config: WalkConfig) -> CheckReport:
    """The walks' hitting estimate from the origin, before leaving
    ``B_1``, lies within 3 standard errors (plus 1e-6) of the exact
    probability ``q`` that :func:`discrete_harmonic_hitting` solves for.
    The standard error is ``sqrt(q (1 - q) / n)`` from the exact ``q``:
    the plug-in one of the estimate is about 0 whenever every walk hits
    or every walk misses.  A capped walk fails the check, and the target
    needs 1 node."""
    start = (0.0,) * grid.dim
    domain = Ball(start, 1.0)
    p, _, walk = random_walk_hitting(grid, start, target, domain, config)
    q = discrete_harmonic_hitting(grid, target, domain).at(start)
    capped = walk.constants["capped"]
    se = math.sqrt(q * (1 - q) / config.n_samples)
    return make_report("walk-vs-oracle", abs(p - q), 3 * se + 1e-6,
                       grid=grid.meta(), seed=config.seed,
                       notes="Monte Carlo vs discrete-harmonic hitting",
                       fail=f"{capped} walks reached max_steps"
                       if capped else None,
                       hypothesis=unresolved("the target", int(
                           target.mask(grid).sum()), 1))


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
