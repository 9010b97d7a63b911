"""Lattice solvers, a closed-form field library and random walks.

The discrete Laplace problems are solved by conjugate gradients on the
5-point stencil (Hestenes and Stiefel, "Methods of conjugate gradients for
solving linear systems", J. Res. NBS 49, 1952).  The extremal Pucci
equations ``P(D^2_h u) = f`` are solved by Howard's policy iteration
(Bokanowski, Maroso and Zidani, "Some convergence results for Howard's
algorithm", SINUM 47, 2009): freeze the coefficient that attains the
extremum for the current iterate, solve the linear problem it defines
exactly, and repeat.  The 4-point cross stencil of the mixed derivatives
makes those linear operators non-monotone, so the convergence theorem
for Howard's method does not apply; a solve that fails to converge says
so in its report.  The random walk is the probabilistic counterpart of
the discrete Laplace problem: its hitting probabilities solve the same
linear system conjugate gradients solve, which is what the probabilistic
Harnack check exploits.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.typing import NDArray

from .grid import Grid, ScalarField, Region, Ball, ClosedBall, _interior
from .operators import (Ellipticity, hessian, laplacian, pucci_minus,
                        pucci_plus, _apply, _laplace_taps, _stencil)
from .reports import make_report, CheckReport

__all__ = [
    "BoundaryData", "SolverConfig", "WalkConfig", "solve_poisson",
    "solve_pucci", "field_library", "random_walk_hitting",
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
    defect is at most ``tol``; each stops after ``max_iter`` iterations."""

    tol: float = 1e-9
    max_iter: int = 200_000


def _full_stencil(grid: Grid) -> NDArray:
    """Mask of the nodes off the grid's outer layer, the only nodes whose
    nearest-neighbour stencil lies on the grid."""
    mask = np.zeros(grid.counts, dtype=bool)
    mask[_interior(grid.counts)] = True
    return mask


def _cg(u: NDArray, free: NDArray, rhs: NDArray, tol: float,
        max_iter: int) -> tuple[int, float]:
    """Conjugate gradients for ``(sum of the 2 dim neighbours) - 2 dim u =
    rhs``, in place on the free nodes off the outer layer of the
    C-contiguous ``u``, run matrix-free on the negated, positive definite
    system.  Stops once a step ``|alpha| max |p|`` changes no node by
    ``tol``, or after ``max_iter``; returns the iteration count and that
    last step.

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
    x, p = u.reshape(-1), np.zeros(u.size)
    x_in, p_in = x[m:-m], p[m:-m]
    r = _apply(x, taps, m) - rhs.ravel()[m:-m]   # of the negated system
    r *= mask
    rr = float(np.einsum("i,i->", r, r))
    p_in[...] = r
    step = np.inf
    for it in range(1, max_iter + 1):
        if rr == 0.0:       # solved exactly (or no free node): a zero step
            return it, 0.0
        q = _apply(p, taps, m)
        q *= mask
        alpha = -rr / float(np.einsum("i,i->", p_in, q))
        x_in += alpha * p_in
        step = abs(alpha) * float(np.abs(p_in).max())
        if step < tol:
            return it, step
        r += alpha * q
        rr, rr_old = float(np.einsum("i,i->", r, r)), rr
        p_in *= rr / rr_old
        p_in += r
    return max_iter, step


def solve_poisson(grid: Grid, domain: Region, f, g: BoundaryData,
                  config: SolverConfig | None = None) -> tuple[ScalarField, CheckReport]:
    """Solve ``lap u = f`` on the domain with Dirichlet data outside, by
    conjugate gradients on the 5-point stencil.

    ``f`` may be a callable or a constant.  The report's ``lhs`` is the
    max-norm residual of the discrete equation; its constants give
    ``iterations``, ``defect`` (that residual), ``update_residual`` (the
    largest change in the last step) and ``converged`` (that change is
    below ``config.tol``).
    """
    config = config or SolverConfig()
    inside = domain.mask(grid) & _full_stencil(grid)
    if callable(f):
        fv = np.asarray(f(grid.coords()), dtype=float)
    else:
        fv = np.full(grid.counts, float(f))
    h2 = grid.h ** 2
    u = g.values(grid).copy()
    u[inside] = 0.0
    it, res = _cg(u, inside, h2 * fv, config.tol, config.max_iter)
    core = _interior(grid.counts)
    eq = laplacian(ScalarField(grid, u)).values - fv[core]
    true_res = float(np.abs(eq[inside[core]]).max(initial=0.0))
    rep = make_report("poisson-solve", true_res,
                      config.tol * 8 * grid.dim / h2,
                      constants={"iterations": it, "defect": true_res,
                                 "update_residual": res,
                                 "converged": res < config.tol},
                      grid=grid.meta(),
                      notes="discrete equation residual after the CG solve")
    return ScalarField(grid, u, name="poisson"), rep


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
    """
    counts = free.shape
    d = free.ndim
    n0 = counts[0]
    strides = [math.prod(counts[ax + 1:]) for ax in range(d)]   # C order
    flat = np.flatnonzero(free)
    plane = flat // strides[0]
    start = np.searchsorted(plane, np.arange(n0 + 1))
    local = np.full(free.size, -1)    # index within its hyperplane
    local[flat] = np.arange(flat.size) - start[plane]

    stencil = _stencil(A, h).items()

    # forward sweep: with D_i, L_i and U_i the couplings of hyperplane i to
    # itself and to hyperplanes i - 1 and i + 1, solve
    # S_i [G_i | y_i] = [U_i | b_i - L_i y_(i-1)], S_i = D_i - L_i G_(i-1).
    # The blocks [G_i | y_i] share one buffer allocated up front: with one
    # array per block, the verify-suites benchmark peaked about 1.5 MB
    # higher in resident memory (medians of 8 runs each, 2-core VM).
    sizes = np.diff(start)
    shapes = [(m, c + 1) for m, c in zip(sizes, np.append(sizes[1:], 0))]
    ends = np.cumsum([m * c for m, c in shapes])
    buf = np.zeros(ends[-1])
    sweep = [buf[e - m * c:e].reshape(m, c) for e, (m, c) in zip(ends, shapes)]
    prev = np.zeros((0, 1))
    for i, blk in enumerate(sweep):
        a, b = start[i], start[i + 1]
        S = np.zeros((b - a, b - a))
        blk[:, -1] = rhs[a:b]
        lower = np.zeros((b - a, b - a + 1))
        for offset, coef in stencil:
            col = local[flat[a:b] + int(np.dot(strides, offset))]
            row = np.flatnonzero(col >= 0)
            col, val = col[row], coef[a:b][row]
            if offset[0] == 0:
                S[row, col] = val
            elif offset[0] == 1:
                blk[row, col] = val
            else:
                lower[row] += val[:, None] * prev[col]
        S -= lower[:, :-1]
        blk[:, -1] -= lower[:, -1]
        if b > a:
            blk[:] = np.linalg.solve(S, blk)
        prev = blk

    x = np.empty(flat.size)
    nxt = np.zeros(0)
    for i in reversed(range(n0)):
        nxt = sweep[i][:, -1] - sweep[i][:, :-1] @ nxt
        x[start[i]:start[i + 1]] = nxt
    return x


def solve_pucci(grid: Grid, domain: Region, f, g: BoundaryData,
                ell: Ellipticity, sign: str = "minus",
                config: SolverConfig | None = None) -> tuple[ScalarField, CheckReport]:
    """Howard policy iteration for ``P(D^2_h u) = f`` with Dirichlet data.

    ``P`` is ``P^-`` for ``sign="minus"`` and ``P^+`` otherwise.  Each
    step takes the coefficient ``A* = V diag(a) V^T`` from the
    eigen-decomposition ``D^2_h u = V diag(e) V^T`` of the current
    iterate (for ``P^-``, ``a_k = lam`` where ``e_k >= 0`` and
    ``a_k = Lam`` where ``e_k < 0``; for ``P^+`` the reverse), so that
    ``P(D^2_h u) = A* : D^2_h u``.  It then solves the frozen linear
    problem ``A* : D^2_h u = f`` on the free nodes (the domain's nodes
    off the grid's outer layer), with the Dirichlet values moved to the
    right-hand side, as the correction ``A* : D^2_h du = f - P(D^2_h u)``
    with ``du = 0`` off the free nodes.

    The 4-point cross stencil of the mixed derivatives makes
    ``A* : D^2_h`` non-monotone, so convergence is not guaranteed.  The
    iteration stops once the defect ``max |P(D^2_h u) - f|`` is at most
    ``config.tol``, after ``config.max_iter`` linear solves, or when
    numpy raises ``LinAlgError`` (a singular block of the linear solve,
    or a non-finite iterate).  The report's ``lhs`` is the
    defect and its ``rhs`` is ``config.tol``, so it passes exactly when
    the iteration converged; its constants give ``converged``,
    ``defect`` and ``iterations`` (the number of linear solves).
    """
    config = config or SolverConfig(tol=1e-3, max_iter=50)
    free = domain.mask(grid) & _full_stencil(grid)
    on_core = free[_interior(grid.counts)]
    gvals = g.values(grid)
    if callable(f):
        fv = np.asarray(f(grid.coords()), dtype=float)
    else:
        fv = np.full(grid.counts, float(f))
    fv = fv[free]
    u = gvals.copy()
    op = pucci_minus if sign == "minus" else pucci_plus
    a_pos, a_neg = ((ell.lam, ell.Lam) if sign == "minus"
                    else (ell.Lam, ell.lam))
    it = 0
    while True:
        H = hessian(ScalarField(grid, u)).values[on_core]
        residual = fv - op(H, ell)
        defect = float(np.abs(residual).max(initial=0.0))
        if defect <= config.tol or it >= config.max_iter:
            break
        try:
            e, V = np.linalg.eigh(H)
            A = np.einsum("kil,kl,kjl->kij", V,
                          np.where(e >= 0, a_pos, a_neg), V)
            u[free] += _line_solve(free, A, residual, grid.h)
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
    return ScalarField(grid, u, name=f"pucci-{sign}"), rep


# ---------------------------------------------------------------------------
# closed-form field library


def field_library(name: str, grid: Grid, **kw) -> ScalarField:
    """Named closed-form fields used across the checks.

    Singular profiles carry a mask excluding a small ball around the
    singularity (values there are evaluated at the clamped radius).
    """
    pts = grid.coords()
    n = grid.dim

    def radial(fn, r_clip=0.0):
        r = np.linalg.norm(pts, axis=-1)
        rc = np.maximum(r, max(r_clip, grid.h / 2))
        vals = fn(rc)
        mask = None
        if r_clip > 0:
            mask = r >= r_clip
        return ScalarField(grid, vals, name=name, mask=mask)

    if name == "linear":
        slope = np.asarray(kw.get("slope", [1.0] + [0.0] * (n - 1)))
        return ScalarField(grid, pts @ slope, name=name)
    if name == "quadratic":
        A = np.asarray(kw.get("A", np.eye(n)))
        return ScalarField(grid, 0.5 * np.einsum("...i,ij,...j->...",
                                                 pts, A, pts), name=name)
    if name == "paraboloid":
        M = kw.get("M", 1.0)
        return ScalarField(grid, 0.5 * M * np.sum(pts ** 2, axis=-1),
                           name=name)
    if name == "gaussian":
        s = kw.get("sigma", 1.0)
        return ScalarField(grid,
                           np.exp(-np.sum(pts ** 2, axis=-1) / (2 * s * s)),
                           name=name)
    if name == "harmonic-poly":
        # harmonic polynomials: 1d linear, 2d real/imag parts of z^k, 3d x*y etc.
        k = kw.get("degree", 2)
        part = kw.get("part", "re")
        if n == 1:
            return ScalarField(grid, pts[..., 0], name=name)
        if n == 2:
            z = pts[..., 0] + 1j * pts[..., 1]
            w = z ** k
            vals = w.real if part == "re" else w.imag
            return ScalarField(grid, vals, name=name)
        vals = pts[..., 0] * pts[..., 1] if k == 2 \
            else pts[..., 0] ** 2 - pts[..., 2] ** 2
        return ScalarField(grid, vals, name=name)
    if name == "fundamental":
        # fundamental-solution-type profile, singular at the origin
        r_clip = kw.get("r_clip", 4 * grid.h)
        if n == 1:
            return radial(lambda r: np.abs(r), 0.0)
        if n == 2:
            return radial(lambda r: -np.log(r), r_clip)
        return radial(lambda r: r ** (2 - n), r_clip)
    if name == "poisson-kernel-ish":
        # positive harmonic on B_1 with boundary singularity at e_1
        e = np.zeros(n); e[0] = 1.05
        r2 = np.sum((pts - e) ** 2, axis=-1)
        vals = (1.05 ** 2 - np.sum(pts ** 2, axis=-1)) / r2 ** (n / 2)
        return ScalarField(grid, vals, name=name)
    if name == "power":
        alpha = kw.get("alpha", 0.5)
        return radial(lambda r: r ** alpha, 0.0)
    if name == "log-profile":
        # Lipschitz-violating modulus: r * (1 - log r) style
        return radial(lambda r: np.where(r > 0, -1.0 / np.log(
            np.minimum(r, 0.5) / 2.0), 0.0), 0.0)
    if name == "pucci-radial":
        # homogeneous supersolution profile for the window (lam, Lam)
        ell = kw.get("ell", Ellipticity(1.0, 2.0))
        alpha = ell.Lam * n / ell.lam - 1.0
        r_clip = kw.get("r_clip", 4 * grid.h)
        if alpha <= 0:
            return radial(lambda r: -np.log(r), r_clip)
        return radial(lambda r: r ** (-alpha), r_clip)
    if name == "cone":
        return radial(lambda r: r, 0.0)
    if name == "bump":
        s = kw.get("radius", 0.5)
        r2 = np.sum(pts ** 2, axis=-1) / s ** 2
        return ScalarField(grid, np.clip(1 - r2, 0, None) ** 2, name=name)
    raise KeyError(f"unknown field {name!r}")


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
_BLOCK = 512    # steps per Philox draw; the estimates depend on it
_SUB = 16       # steps resolved per array operation


def _walk_chunk(lattice: NDArray, step: NDArray, origin: int,
                rng: np.random.Generator, m: int,
                max_steps: int) -> tuple[int, int]:
    """Walk ``m`` walkers from the flat index ``origin`` of the absorb-code
    lattice; returns the counts that hit and that reached ``max_steps``."""
    hits = 0
    rows = np.arange(m)                  # the walkers still walking
    pos = np.full(m, origin)
    steps = 0
    while rows.size and steps < max_steps:
        nblk = min(_BLOCK, max_steps - steps)
        draws = rng.integers(0, step.size, size=(m, nblk), dtype=np.int8)
        for a in range(0, nblk, _SUB):
            path = step[draws[rows, a:a + _SUB]]
            path[:, 0] += pos
            np.cumsum(path, axis=1, out=path)
            # clipping moves only steps past a walker's first absorbing
            # one, which are never read
            seen = lattice.take(path, mode="clip")
            fate = seen[np.arange(rows.size), (seen != 0).argmax(axis=1)]
            hits += int(np.count_nonzero(fate == 1))
            walking = fate == 0
            rows, pos = rows[walking], path[walking, -1]
            if not rows.size:
                break
        del draws           # free the block before the next one is drawn
        steps += nblk
    return hits, rows.size


def random_walk_hitting(grid: Grid, start, target: Region, domain: Region,
                        config: WalkConfig) -> tuple[float, float, CheckReport]:
    """Probability of hitting the target before leaving the domain.

    Nearest-neighbour walk on the lattice.  The walks run in chunks of
    8192; each chunk reads its own Philox substream, keyed by
    ``(seed, chunk index)``, in blocks of ``(walks, 512)`` draws, and
    walker ``i`` of a chunk takes its steps from row ``i`` of each block.
    So the estimates are reproducible however the chunks are run.

    The walkers move on flat indices into a lattice of absorb codes, one
    node wider than the hull on each side: 1 on the target, 2 on the pad
    and on the other nodes outside the domain, 0 elsewhere, so the
    target wins over exit.  Each array operation takes 16 steps of every
    walker still walking, and the first nonzero code on its path ends
    its walk.  A start on a nonzero code ends every walk at once, with
    standard error 0.  Returns (estimate, standard error, report);
    capped walks count as misses and are reported.  Raises
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
    rep = make_report("walk-hitting", 0.0, 0.0,
                      constants={"estimate": p_hat, "stderr": se,
                                 "capped": capped,
                                 "n_samples": config.n_samples},
                      grid=grid.meta(), seed=config.seed,
                      notes="Monte Carlo hitting probability")
    return p_hat, se, rep


def discrete_harmonic_hitting(grid: Grid, target: Region, domain: Region,
                              config: SolverConfig | None = None) -> ScalarField:
    """Exact hitting probabilities of the lattice walk.

    Solves the discrete Laplace problem: value 1 on the target, 0 outside
    the domain, and the neighbor average on interior nodes — the same
    linear system the walk samples — by conjugate gradients on the
    5-point stencil, with the default config ``SolverConfig(tol=1e-10)``.
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
    return ScalarField(grid, u, name="hitting")


def probabilistic_harnack_check(grid: Grid, A: Region, rho: float,
                                config: WalkConfig) -> CheckReport:
    """Walks started deep inside see every chunk of a small central set.

    For starts in ``B_{1/3}`` the probability of hitting ``A cap B_rho``
    before leaving ``B_1`` is at least ``c |A cap B_rho|``; estimated by
    Monte Carlo from ``n_starts = 5`` starts spread over the nodes of
    ``B_{1/3}``, with a 3-sigma allowance and the pinned lattice constant
    ``c_pinned = 0.02``.
    """
    c_pinned = 0.02
    n_starts = 5
    n = grid.dim
    b1 = Ball((0.0,) * n, 1.0)
    brho = ClosedBall((0.0,) * n, rho)
    target = A & brho
    meas = target.measure(grid)
    pts = grid.coords()
    third = np.argwhere(np.linalg.norm(pts, axis=-1) <= 1 / 3)
    stride = max(1, len(third) // n_starts)
    starts = third[::stride][:n_starts]
    worst = np.inf
    worst_se = 0.0
    for sidx in starts:
        x = pts[tuple(sidx)]
        p, se, _ = random_walk_hitting(grid, x, target, b1, config)
        if p < worst:
            worst, worst_se = p, se
    lhs = c_pinned * meas
    rhs = worst + 3 * worst_se
    return make_report("probabilistic-harnack", lhs, rhs,
                       constants={"c_pinned": c_pinned, "measure": meas,
                                  "worst_estimate": worst,
                                  "stderr": worst_se,
                                  "n_starts": len(starts)},
                       grid=grid.meta(), seed=config.seed,
                       notes="minimal hitting probability vs target measure")
