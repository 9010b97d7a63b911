import json
import math

import numpy as np
import pytest

import ellipticlab as el
from ellipticlab import solvers, suites
from ellipticlab.grid import _interior
from ellipticlab.operators import (_apply, _laplace_taps, _shift, _stencil,
                                  _sym_eigvals)
from ellipticlab.solvers import (_box_inverse, _cg, _five_smooth, _gmres,
                               _policy)
from test_benchmark_outputs import workloads


ELL = el.Ellipticity(1.0, 2.0)

# (spacing, ellipticity, boundary data) of the TestPucci problems, all on
# the unit disc with f = 0
PUCCI_PROBLEMS = {
    "tight-window": (1 / 12, el.Ellipticity(1.0, 1.0),
                     lambda p: p[..., 0] ** 2 - p[..., 1] ** 2),
    "bump": (1 / 10, ELL, lambda p: 0.2 + np.exp(
        -2 * np.sum((p - np.array([1.0, 0.0])) ** 2, axis=-1))),
    "abs": (1 / 10, ELL, lambda p: np.abs(p[..., 0])),
    "sine": (1 / 10, ELL, lambda p: 1.0 + 0.5 * np.sin(2 * p[..., 0])),
}


def march_pucci(grid, domain, g, ell, sign, tol):
    """Oracle: the pseudo-time marcher that solve_pucci used before Howard
    iteration.  Explicit steps ``u += tau P(D^2_h u)`` (f = 0) with the
    parabolic-stable ``tau = h^2 / (4 dim Lam)``, until the defect
    ``|update| / tau`` is below ``tol`` on every free node."""
    core = tuple(slice(1, c - 1) for c in grid.counts)
    free = np.zeros(grid.counts, dtype=bool)
    free[core] = domain.mask(grid)[core]
    op = el.pucci_minus if sign == "minus" else el.pucci_plus
    tau = grid.h ** 2 / (4 * grid.dim * ell.Lam)
    u = g.values(grid)
    for _ in range(200_000):
        upd = np.zeros(grid.counts)
        upd[core] = tau * op(el.hessian(el.ScalarField(grid, u)), ell)
        upd[~free] = 0.0
        u = u + upd
        if np.abs(upd).max() < tol * tau:
            return u
    raise AssertionError("the marcher did not reach its tolerance")


def line_solve(free, A, rhs, h):
    """Oracle: the block elimination that solved Howard's frozen systems
    before GMRES.  Solves ``A : D^2_h x = rhs`` on the free nodes with
    ``x = 0`` on every other node.

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


def howard_eigh_loop(grid, domain, f, g, ell, sign="minus", config=None):
    """Oracle: ``solve_pucci`` before its Poisson start.  Howard's loop
    from ``u = g``, each policy ``A* = V diag(a) V^T`` from
    ``np.linalg.eigh`` and each step a block elimination by
    ``line_solve``; returns the solution and its report's constants."""
    config = config or el.SolverConfig(tol=1e-3, max_iter=50)
    free = domain.mask(grid) & grid._off_hull
    on_core = free[_interior(grid.counts)]
    fv = np.asarray(f(grid.coords()), dtype=float) if callable(f) \
        else np.full(grid.counts, float(f))
    fv = fv[free]
    u = g.values(grid).copy()
    op = el.pucci_minus if sign == "minus" else el.pucci_plus
    a_pos, a_neg = ((ell.lam, ell.Lam) if sign == "minus"
                    else (ell.Lam, ell.lam))
    it = 0
    while True:
        H = el.hessian(el.ScalarField(grid, u))[on_core]
        residual = fv - op(H, ell)
        defect = float(np.abs(residual).max(initial=0.0))
        if defect <= config.tol or it >= config.max_iter:
            break
        e, V = np.linalg.eigh(H)
        A = np.einsum("kil,kl,kjl->kij", V, np.where(e >= 0, a_pos, a_neg),
                      V)
        u[free] += line_solve(free, A, residual, grid.h)
        it += 1
    return u, {"iterations": it, "defect": defect,
               "converged": defect <= config.tol}


def direct_laplace(grid, free, u0, f):
    """Oracle: the exact solution of the 5-point ``lap u = f`` on the free
    nodes with the values of ``u0`` on every other node, by ``line_solve``
    with ``A = I``, whose Hessian stencil is the 5-point Laplacian."""
    core = tuple(slice(1, c - 1) for c in grid.counts)
    u = u0.copy()
    u[free] = 0.0
    lap = el.laplacian(el.ScalarField(grid, u))
    rhs = (f[core] - lap)[free[core]]
    eye = np.broadcast_to(np.eye(grid.dim), (rhs.size, grid.dim, grid.dim))
    u[free] = line_solve(free, eye, rhs, grid.h)
    return u


def line_solve_loop(free, A, rhs, h):
    """Oracle: ``line_solve`` as it assembled each hyperplane's blocks
    before its whole-array tables, one scatter or gather per stencil offset
    and hyperplane; the elimination is the same."""
    counts = free.shape
    n0 = counts[0]
    strides = [math.prod(counts[ax + 1:]) for ax in range(free.ndim)]
    flat = np.flatnonzero(free)
    plane = flat // strides[0]
    start = np.searchsorted(plane, np.arange(n0 + 1))
    local = np.full(free.size, -1)
    local[flat] = np.arange(flat.size) - start[plane]
    stencil = _stencil(A, h).items()
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


def random_coefficients(rng, k, d):
    """``k`` symmetric matrices with eigenvalues in [1, 2]."""
    Q, _ = np.linalg.qr(rng.normal(size=(k, d, d)))
    return np.einsum("kil,kl,kjl->kij", Q, rng.uniform(1.0, 2.0, (k, d)), Q)


def stencil_loop(A, h):
    """Oracle: the stencil of ``A : D^2_h`` as ``line_solve`` assembled it
    before the tap table, a list of (offset, coefficient array)."""
    d = A.shape[-1]
    h2 = h * h
    zero = np.zeros(d, dtype=int)
    stencil = [(zero, -2 * np.trace(A, axis1=1, axis2=2) / h2)]
    for i in range(d):
        for si in (1, -1):
            s = zero.copy(); s[i] = si
            stencil.append((s, A[:, i, i] / h2))
        for j in range(i + 1, d):
            for si, sj in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                s = zero.copy(); s[i] = si; s[j] = sj
                stencil.append(
                    (s, si * sj * (A[:, i, j] + A[:, j, i]) / (4 * h2)))
    return stencil


def dense_stencil_matrix(grid, free, A):
    """The matrix of ``x -> A : D^2_h x`` on the free nodes (x = 0 off
    them), one column per free node: ``A : hessian(e_node)``."""
    core = tuple(slice(1, c - 1) for c in grid.counts)
    d = grid.dim
    Afield = np.zeros(tuple(grid.counts) + (d, d))
    Afield[free] = A
    flat = np.flatnonzero(free)
    cols = []
    for node in flat:
        e = np.zeros(grid.counts)
        e.flat[node] = 1.0
        H = el.hessian(el.ScalarField(grid, e))
        cols.append(np.einsum("...ij,...ij->...", Afield[core], H)[free[core]])
    return np.stack(cols, axis=1)


def walk_per_step(grid, start, target, domain, config, max_steps):
    """Oracle: the per-step walk that random_walk_hitting ran before the
    absorb-code lattice; returns the counts of walks that hit and that
    reached ``max_steps``.  One lattice move of every live walker per
    iteration, with the off-hull test, the target test (which wins) and
    the domain test made on index tuples.  Every 16 steps it draws
    ``(8, walkers alive)`` pair codes ``d0 + M d1`` (``M = 2 dim``) and
    moves ``d0`` then ``d1``, fewer at the ``max_steps`` cap; at an odd
    cap one more move in ``[0, M)`` per walker alive, drawn after them."""
    start_idx = np.asarray(grid.index_of(start))
    tmask = target.mask(grid)
    dmask = domain.mask(grid)
    counts = np.asarray(grid.counts)
    hits = 0
    capped = 0
    M = 2 * grid.dim
    batch = 16
    chunk = 1 << 15
    for c0 in range(0, config.n_samples, chunk):
        m = min(chunk, config.n_samples - c0)
        rng = np.random.default_rng(
            np.random.Philox(key=[config.seed, c0 // chunk]))
        pos = np.tile(start_idx, (m, 1))
        alive = np.ones(m, dtype=bool)
        steps = 0
        while alive.any() and steps < max_steps:
            k = min(batch, max_steps - steps)
            # column r of a draw belongs to the r-th walker still walking
            codes = rng.integers(0, M * M, size=(k // 2, int(alive.sum())),
                                 dtype=np.uint8)
            moves = [d for c in codes for d in (c % M, c // M)]
            if k % 2:
                moves.append(rng.integers(0, M, size=int(alive.sum()),
                                          dtype=np.uint8))
            walker = np.flatnonzero(alive)
            for draw in moves:
                d = draw[alive[walker]]
                ax = d // 2
                sg = np.where(d % 2 == 0, 1, -1)
                p = pos[alive]
                p[np.arange(len(p)), ax] += sg
                pos[alive] = p
                pc = np.clip(p, 0, counts - 1)
                off_hull = np.any((p < 0) | (p >= counts), axis=1)
                t_hit = tmask[tuple(pc.T)] & ~off_hull
                d_out = off_hull | ~dmask[tuple(pc.T)]
                finished = t_hit | d_out
                hits += int(t_hit.sum())
                idx_alive = np.flatnonzero(alive)
                alive[idx_alive[finished]] = False
            steps += k
        capped += int(alive.sum())
    return hits, capped


def harnack_by_walks(grid, A, rho, config):
    """Oracle: the Monte Carlo body of probabilistic_harnack_check before
    it read the exact solve.  Five starts spread over the nodes of the
    closed ``B_{1/3}``, ``config.n_samples`` walks from each to
    ``A cap B_rho`` before ``B_1``; returns the starts' index tuples and
    their estimates."""
    origin = (0.0,) * grid.dim
    target = A & el.ClosedBall(origin, rho)
    third = np.argwhere(el.ClosedBall(origin, 1 / 3).mask(grid))
    starts = third[::max(1, len(third) // 5)][:5]
    pts = grid.coords()
    est = [el.random_walk_hitting(grid, pts[tuple(i)], target,
                                  el.Ball(origin, 1.0), config)[0]
           for i in starts]
    return [tuple(i) for i in starts], est


def dense_hitting(grid, target, domain):
    """Oracle: the walk's hitting probabilities by one dense
    ``np.linalg.solve`` of the 5-point system: 1 on the target, 0 off
    the domain, and on every other domain node the mean of its 2 dim
    lattice neighbours."""
    tmask = target.mask(grid)
    free = domain.mask(grid) & ~tmask
    idx = np.full(grid.counts, -1)
    idx[free] = np.arange(int(free.sum()))
    nodes = np.argwhere(free)
    mat = np.eye(len(nodes))
    rhs = np.zeros(len(nodes))
    for row, node in enumerate(nodes):
        for ax in range(grid.dim):
            for sg in (1, -1):
                nb = node.copy()
                nb[ax] += sg
                nb = tuple(nb)
                if tmask[nb]:
                    rhs[row] += 1 / (2 * grid.dim)
                elif free[nb]:
                    mat[row, idx[nb]] -= 1 / (2 * grid.dim)
    u = tmask.astype(float)
    u[free] = np.linalg.solve(mat, rhs)
    return u


SUITE_H = 1 / 12
SUITE_GRID = el.Grid.cover((0.0, 0.0), 1.0 + 2 * SUITE_H, SUITE_H)
SUITE_TARGET = el.ClosedBall((0.3, 0.0), 0.2)
UNIT_DISC = el.Ball((0.0, 0.0), 1.0)
# two closed balls, one past the unit disc, as one node set of the suite grid
PAST_DOMAIN_TARGET = el.SubLevel(el.ScalarField(SUITE_GRID, (~(
    el.ClosedBall((0.0, 0.3), 0.2).mask(SUITE_GRID)
    | el.ClosedBall((1.0, 0.0), 0.05).mask(SUITE_GRID))).astype(float)), 0.0)

# (grid, start, target, domain, config) of the walks checked against the
# per-step oracle; a "cap-" walk stops at the steps that WALK_CAPS gives it
WALK_PROBLEMS = {
    "suite": (SUITE_GRID, (0.0, 0.0), SUITE_TARGET, UNIT_DISC,
              el.WalkConfig(n_samples=20_000, seed=11)),
    "cap-37": (SUITE_GRID, (0.0, 0.0), SUITE_TARGET, UNIT_DISC,
               el.WalkConfig(n_samples=2000, seed=11)),
    "cap-1000": (el.Grid.cover((0.0, 0.0), 1.0, 1 / 24), (0.0, 0.0),
                 el.ClosedBall((0.5, 0.0), 0.1), UNIT_DISC,
                 el.WalkConfig(n_samples=1000, seed=2)),
    "chunk-boundary": (SUITE_GRID, (0.0, 0.0), SUITE_TARGET, UNIT_DISC,
                       el.WalkConfig(n_samples=solvers._CHUNK + 8, seed=4)),
    # three chunks, the last one partial
    "three-chunks": (el.Grid.cover((0.0, 0.0), 1.0, 1 / 6), (0.0, 0.0),
                     el.ClosedBall((0.5, 0.0), 0.2), el.Ball((0.0, 0.0), 0.9),
                     el.WalkConfig(n_samples=2 * solvers._CHUNK + 500,
                                   seed=9)),
    "1d": (el.Grid.cover((0.0,), 1.0, 1 / 20), (0.3,),
           el.ClosedBall((-0.5,), 0.1), el.Ball((0.0,), 0.9),
           el.WalkConfig(n_samples=3000, seed=5)),
    "3d": (el.Grid.cover((0.0,) * 3, 1.0, 1 / 6), (0.0,) * 3,
           el.ClosedBall((0.5, 0.0, 0.0), 0.3), el.Ball((0.0,) * 3, 0.9),
           el.WalkConfig(n_samples=3000, seed=6)),
    # the node (1, 0) is on the target and off the open disc, next to a
    # disc node off the target
    "target-past-domain": (SUITE_GRID, (0.0, 0.0), PAST_DOMAIN_TARGET,
                           UNIT_DISC,
                           el.WalkConfig(n_samples=3000, seed=7)),
    "start-on-hull-edge": (el.Grid.cover((0.0, 0.0), 1.0, 1 / 8),
                           (-1.0, 0.0), el.ClosedBall((0.0, 0.0), 0.3),
                           el.Ball((0.0, 0.0), 3.0),
                           el.WalkConfig(n_samples=3000, seed=8)),
}
WALK_CAPS = {"cap-37": 37, "cap-1000": 1000}


def _sor(u, free, rhs, tol, max_iter):
    """Red-black SOR, in place on the free nodes off the outer layer, for
    ``(sum of the 2 dim neighbours) - 2 dim u = rhs`` with the optimal
    factor ``2 / (1 + sin(pi / max(counts)))``: red nodes (even index sum),
    then black, until an iteration changes no node by ``tol`` or after
    ``max_iter``.  Returns the iteration count and the last largest change."""
    core = _interior(u.shape)
    (centre, _), *taps = _laplace_taps(u.ndim)
    nbrs = [_shift(u, off, 1) for _, off in taps]     # +e_i, -e_i pairs
    factor = 2.0 / (1.0 + math.sin(math.pi / max(u.shape)))
    parity = np.indices(u.shape).sum(axis=0)[core] % 2
    colors = [free[core] & (parity == c) for c in (0, 1)]
    rhs = [rhs[core][color] for color in colors]
    u_core = u[core]
    delta = np.inf
    for it in range(1, max_iter + 1):
        delta = 0.0
        for color, b in zip(colors, rhs):
            nb = nbrs[0] + nbrs[1]
            for up, dn in zip(nbrs[2::2], nbrs[3::2]):
                nb += up + dn
            d = factor * ((nb[color] - b) / -centre - u_core[color])
            delta = max(delta, float(np.abs(d).max(initial=0.0)))
            u_core[color] += d
        if delta < tol:
            return it, delta
    return max_iter, delta


def plain_cg(u, free, rhs, tol, max_iter):
    """Oracle: the conjugate-gradient kernel ``_cg`` was before its
    preconditioner, unchanged.

    Conjugate gradients for ``(sum of the 2 dim neighbours) - 2 dim u =
    rhs``, in place on the free nodes off the outer layer of the
    C-contiguous ``u``, run matrix-free on the negated, positive definite
    system.  Stops once a step ``|alpha| max |p|`` changes no node by
    ``tol``, or after ``max_iter``; returns the iteration count and that
    last step."""
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


def cg_problem(dim, domain):
    """``(u, free, rhs)`` of ``_cg`` on the node box ``[-1, 1]^dim``: a
    Poisson problem on a disc, a cube, a non-square box (every node off
    the outer layer free) or no free node, and the hitting problem of a
    closed ball inside the disc (value 1 on the ball, right-hand side 0).
    The non-square boxes have axes whose ``c - 1`` is not 5-smooth."""
    counts = {"box": (39, 23, 13)[:dim]}.get(domain, ((65, 33, 13)[dim - 1],)
                                             * dim)
    x = np.stack(np.meshgrid(*(np.linspace(-1, 1, c) for c in counts),
                             indexing="ij"), axis=-1)
    r2 = np.sum(x ** 2, axis=-1)
    wave = np.cos(3 * x[..., 0]) * np.sin(2 * x[..., -1] + 0.5)
    u, rhs = 1.0 + 0.5 * wave[..., ::-1].copy(), 0.05 * wave
    if domain == "disc-minus-ball":
        ball = np.sum((x - 0.3) ** 2, axis=-1) <= 0.3 ** 2
        return ball.astype(float), (r2 < 0.81) & ~ball, np.zeros(counts)
    free = {"disc": r2 < 0.81, "cube": np.abs(x).max(axis=-1) < 0.6,
            "box": np.ones(counts, dtype=bool),
            "none": np.zeros(counts, dtype=bool)}[domain]
    off_layer = np.pad(np.ones([c - 2 for c in counts], dtype=bool), 1)
    return u, free & off_layer, rhs


def sor_poisson(grid, domain, f, g, tol):
    """Oracle: the field of ``solve_poisson`` by the red-black SOR kernel
    it used before conjugate gradients."""
    core = _interior(grid.counts)
    inside = np.zeros(grid.counts, dtype=bool)
    inside[core] = domain.mask(grid)[core]
    u = g.values(grid).copy()
    u[inside] = 0.0
    _sor(u, inside, grid.h ** 2 * f(grid.coords()), tol, 10 ** 6)
    return u


def sor_hitting(grid, target, domain, tol):
    """Oracle: the field of ``discrete_harmonic_hitting`` by red-black SOR."""
    tmask = target.mask(grid)
    u = tmask.astype(float)
    _sor(u, domain.mask(grid) & ~tmask, np.zeros(grid.counts), tol, 10 ** 6)
    return u


def _wave(p):
    return np.cos(3 * p[..., 0]) * np.sin(2 * p[..., -1] + 0.5)


# (grid, domain, f, Dirichlet data, hitting target) of the Laplace problems
# checked against the SOR oracle
LAPLACE_PROBLEMS = {
    "1d": (el.Grid.cover((0.0,), 1.0, 1 / 40), el.Ball((0.0,), 0.9), _wave,
           lambda p: 1.0 + p[..., 0], el.ClosedBall((-0.5,), 0.1)),
    "suite": (SUITE_GRID, UNIT_DISC, _wave, lambda p: p[..., 0] ** 2,
              SUITE_TARGET),
    "hitting-profile": (el.Grid.cover((0.0, 0.0), 1.0 + 2 / 16, 1 / 16),
                        UNIT_DISC, lambda p: np.ones(p.shape[:-1]),
                        lambda p: np.exp(p[..., 1]),
                        el.ClosedBall((0.0, 0.0), 0.25)),
    "disc-129": (el.Grid.cover((0.0, 0.0), 1.0, 2 / 128), UNIT_DISC, _wave,
                 lambda p: 1.0 + 0.5 * _wave(p[..., ::-1]),
                 el.ClosedBall((0.31, -0.17), 0.2)),
    "3d": (el.Grid.cover((0.0,) * 3, 1.0, 1 / 6), el.Ball((0.0,) * 3, 0.9),
           _wave, lambda p: p[..., 1], el.ClosedBall((0.25, 0.0, 0.0), 0.3)),
    "target-past-domain": (SUITE_GRID, UNIT_DISC, _wave, lambda p: p[..., 1],
                           PAST_DOMAIN_TARGET),
    # the domain covers the outer layer, which stays fixed
    "domain-past-hull": (el.Grid.cover((0.0, 0.0), 1.0, 1 / 8),
                         el.Ball((0.0, 0.0), 3.0), _wave,
                         lambda p: np.sin(p[..., 0]),
                         el.ClosedBall((0.0, 0.0), 0.3)),
}


def cg_once(monkeypatch):
    """Stop every ``_cg`` solve of the solvers after one iteration."""
    monkeypatch.setattr(solvers, "_cg", lambda u, free, rhs, tol, max_iter:
                        _cg(u, free, rhs, tol, 1))


class TestConjugateGradients:
    @pytest.mark.parametrize("name", LAPLACE_PROBLEMS)
    def test_poisson_matches_sor(self, name):
        g, dom, f, bd, _ = LAPLACE_PROBLEMS[name]
        u, rep = el.solve_poisson(g, dom, f, el.BoundaryData(bd),
                                  el.SolverConfig(tol=1e-12))
        want = sor_poisson(g, dom, f, el.BoundaryData(bd), 1e-12)
        assert np.abs(u.values - want).max() < 1e-8
        assert rep.passed and rep.constants["converged"] is True
        assert rep.constants["defect"] == rep.lhs

    @pytest.mark.parametrize("name", LAPLACE_PROBLEMS)
    def test_hitting_matches_sor(self, name):
        g, dom, _, _, target = LAPLACE_PROBLEMS[name]
        u = el.discrete_harmonic_hitting(g, target, dom)
        want = sor_hitting(g, target, dom, 1e-12)
        assert np.abs(u.values - want).max() < 1e-8

    @pytest.mark.parametrize("name", LAPLACE_PROBLEMS)
    def test_one_iteration_not_converged(self, name, monkeypatch):
        g, dom, f, bd, target = LAPLACE_PROBLEMS[name]
        _, rep = el.solve_poisson(g, dom, f, el.BoundaryData(bd),
                                  el.SolverConfig(tol=1e-10, max_iter=1))
        assert rep.constants["iterations"] == 1
        assert rep.constants["converged"] is False and not rep.passed
        cg_once(monkeypatch)
        with pytest.raises(RuntimeError, match="after 1 iterations"):
            el.discrete_harmonic_hitting(g, target, dom)

    @pytest.mark.parametrize("domain", ["disc", "disc-minus-ball", "cube",
                                        "box", "none"])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_matches_plain_cg(self, dim, domain):
        u, free, rhs = cg_problem(dim, domain)
        u0, want = u.copy(), u.copy()
        plain_cg(want, free, rhs, 1e-12, 10 ** 5)
        _, step = _cg(u, free, rhs, 1e-12, 10 ** 5)
        assert step < 1e-12
        assert np.abs(u - want).max() <= 1e-9 * np.abs(want).max()
        assert np.array_equal(u[~free], u0[~free])

    @pytest.mark.parametrize("counts", [(9,), (12, 7), (5, 8, 11)])
    def test_box_inverse_is_exact(self, counts):
        # 2 dim z - (sum of the neighbours) gives back r off the outer layer
        rng = np.random.default_rng(5)
        r = np.pad(rng.standard_normal([c - 2 for c in counts]), 1)
        z = _box_inverse(counts)(r)
        core = _interior(counts)
        neg_lap = 2 * len(counts) * z[core] - sum(
            _shift(np.pad(z, 1), off, 1)[core] for _, off in
            _laplace_taps(len(counts))[1:])
        assert z.shape == counts
        assert np.abs(neg_lap - r[core]).max() < 1e-12 * np.abs(r).max()
        assert [_five_smooth(n) for n in (1, 8, 11, 22, 94, 128)] == \
            [1, 8, 12, 24, 96, 128]

    @pytest.mark.parametrize("task", ["solve_poisson.n129",
                                      "discrete_harmonic_hitting.n129"])
    def test_a_fifth_of_the_plain_iterations(self, task, tmp_path,
                                             monkeypatch):
        # the analysis-kernels solves of input set 3 at n = 129
        call = {t.label: t.call for t in workloads.build_analysis_kernels(
            el, 3, str(tmp_path))}[task]
        counts = {}
        for name, kernel in (("pcg", _cg), ("plain", plain_cg)):
            def counted(*args, kernel=kernel, name=name):
                it, step = kernel(*args)
                counts[name] = it
                return it, step
            monkeypatch.setattr(el.solvers, "_cg", counted)
            call()
        assert counts["pcg"] <= counts["plain"] / 5

    def test_empty_free_set_returns_at_once(self):
        u = np.arange(25.0).reshape(5, 5)
        with np.errstate(all="raise"):
            assert _cg(u, np.zeros((5, 5), dtype=bool), np.ones((5, 5)),
                       1e-10, 100) == (1, 0.0)
            # an axis of 2 nodes has no node off the outer layer
            for shape in [(2,), (2, 5), (5, 2, 5)]:
                assert _cg(np.zeros(shape), np.ones(shape, dtype=bool),
                           np.ones(shape), 1e-10, 100) == (1, 0.0)
            _, rep = el.solve_poisson(SUITE_GRID, el.Ball((5.0, 5.0), 0.1),
                                      1.0, el.BoundaryData(lambda p: p[..., 0]))
            # the target covers the domain: no free node
            hit = el.discrete_harmonic_hitting(SUITE_GRID, UNIT_DISC,
                                               el.Ball((0.0, 0.0), 0.5))
        assert np.array_equal(u, np.arange(25.0).reshape(5, 5))
        assert rep.constants["converged"] is True and rep.passed
        assert np.array_equal(hit.values, UNIT_DISC.mask(SUITE_GRID))

    @pytest.mark.parametrize("tol,max_iter", [
        (-1.0, 10), (0.0, 10), (math.nan, 10), (math.inf, 10), (1e-3, 0),
        (1e-3, -5)])
    def test_config_rejects_a_rule_that_cannot_stop(self, tol, max_iter):
        # tol = -1 ran all 10 steps and failed quietly; tol = nan ran all
        # 200,000, because ``step < nan`` is never true
        with pytest.raises(ValueError, match="tol must be finite"):
            el.SolverConfig(tol=tol, max_iter=max_iter)

    def test_solver_reports_explain_themselves(self):
        bd = el.BoundaryData(lambda p: p[..., 0] ** 2)
        _, poisson = el.solve_poisson(SUITE_GRID, UNIT_DISC, 1.0, bd)
        _, pucci = el.solve_pucci(SUITE_GRID, UNIT_DISC, 0.0, bd, ELL)
        for rep in (poisson, pucci):
            assert {"iterations", "defect", "converged"} <= set(rep.constants)
            assert rep.constants["defect"] == rep.lhs


class TestPoisson:
    def test_recovers_quadratic(self):
        # lap u = 4 with the exact quadratic on the boundary
        g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 32)
        exact = lambda p: np.sum(p ** 2, axis=-1)
        dom = el.Ball((0.0, 0.0), 1.0)
        bd = el.BoundaryData(exact)
        u, rep = el.solve_poisson(g, dom, 4.0, bd,
                                  el.SolverConfig(tol=1e-12, max_iter=20000))
        assert rep.passed
        ref = el.ScalarField.from_function(g, exact)
        err = np.abs(u.values - ref.values)[dom.mask(g)].max()
        assert err < 1e-6

    def test_iteration_cap_reported(self):
        g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 8)
        u, rep = el.solve_poisson(g, el.Ball((0.0, 0.0), 1.0), 1.0,
                                  el.BoundaryData(lambda p: p[..., 0]),
                                  el.SolverConfig(tol=1e-10, max_iter=1))
        assert rep.constants["iterations"] == 1
        assert rep.constants["converged"] is False
        assert not rep.passed

    def test_stop_at_max_iter_fails_inside_the_residual_budget(self):
        # the residual sits well inside its budget, but the last step
        # (about 3.9e-3) is still above tol: the solve did not converge
        g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 16)
        _, rep = el.solve_poisson(g, el.Ball((0.0, 0.0), 1.0), 1.0,
                                  el.BoundaryData(lambda p: 0.0 * p[..., 0]),
                                  el.SolverConfig(tol=1e-3, max_iter=3))
        assert rep.lhs < rep.rhs
        assert rep.constants["converged"] is False
        assert rep.status == "fail"
        assert rep.constants["iterations"] == 3
        step = rep.constants["update_residual"]
        assert rep.notes.endswith(
            f"; not converged: last step {step:.3g} >= tol 0.001")

    @pytest.mark.parametrize("dim,h", [(2, 1 / 16), (3, 1 / 5)],
                             ids=["2d", "3d"])
    def test_matches_direct_solve(self, dim, h):
        g = el.Grid.cover((0.0,) * dim, 1.0, h)
        off_layer = np.zeros(g.counts, dtype=bool)
        off_layer[tuple(slice(1, c - 1) for c in g.counts)] = True
        dom = el.Cube((0.0,) * dim, 1.8)
        bd = el.BoundaryData(lambda p: p[..., 0])
        u, rep = el.solve_poisson(g, dom, 1.0, bd,
                                  el.SolverConfig(tol=1e-13, max_iter=50000))
        want = direct_laplace(g, dom.mask(g) & off_layer, bd.values(g),
                              np.ones(g.counts))
        assert rep.constants["converged"] is True
        assert np.abs(u.values - want).max() < 1e-8

        target = el.ClosedBall((0.25,) + (0.0,) * (dim - 1), 0.3)
        ball = el.Ball((0.0,) * dim, 1.0)
        tmask = target.mask(g)
        hit = el.discrete_harmonic_hitting(g, target, ball)
        want = direct_laplace(g, ball.mask(g) & ~tmask & off_layer,
                              tmask.astype(float), np.zeros(g.counts))
        assert np.abs(hit.values - want).max() < 1e-8

    def test_maximum_principle(self):
        # f = 0: solution stays within the boundary data range
        g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 16)
        dom = el.Ball((0.0, 0.0), 1.0)
        bd = el.BoundaryData(lambda p: np.cos(3 * p[..., 0]))
        u, _ = el.solve_poisson(g, dom, 0.0, bd,
                                el.SolverConfig(tol=1e-12, max_iter=50000))
        gv = bd.values(g)
        assert u.values.max() <= gv.max() + 1e-8
        assert u.values.min() >= gv.min() - 1e-8


def laplace_by_cg(grid, domain, g, tol, max_iter):
    """The 5-point solution of ``lap u = 0`` with Dirichlet data ``g``, by
    one ``_cg`` solve from ``u = 0`` on the domain's nodes off the outer
    layer."""
    free = domain.mask(grid) & grid._off_hull
    u = g.values(grid).copy()
    u[free] = 0.0
    _cg(u, free, np.zeros(grid.counts), tol, max_iter)
    return u


class TestPucci:
    def test_reduces_to_laplacian_for_tight_window(self):
        # lam = Lam = 1: P^- is the Laplacian, compare with a Laplace solve
        g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 12)
        dom = el.Ball((0.0, 0.0), 1.0)
        bd = el.BoundaryData(lambda p: p[..., 0] ** 2 - p[..., 1] ** 2)
        one = el.Ellipticity(1.0, 1.0)
        up, rp = el.solve_pucci(g, dom, 0.0, bd, one,
                                config=el.SolverConfig(tol=1e-6, max_iter=50))
        ul = laplace_by_cg(g, dom, bd, 1e-13, 50000)
        assert rp.passed
        assert np.abs(up.values - ul).max() < 1e-4

    def test_defect_within_budget(self):
        g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 10)
        dom = el.Ball((0.0, 0.0), 1.0)
        bd = el.BoundaryData(
            lambda p: 0.2 + np.exp(-2 * np.sum((p - np.array([1.0, 0.0])) ** 2,
                                               axis=-1)))
        u, rep = el.solve_pucci(g, dom, 0.0, bd, ELL)
        assert rep.passed
        assert rep.lhs <= 10 * 1e-3

    def test_iteration_cap_reported(self):
        g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 10)
        h, ell, fn = PUCCI_PROBLEMS["bump"]
        u, rep = el.solve_pucci(g, el.Ball((0.0, 0.0), 1.0), 0.0,
                                el.BoundaryData(fn), ell,
                                config=el.SolverConfig(tol=1e-3, max_iter=1))
        assert rep.constants["iterations"] == 1
        assert rep.constants["converged"] is False
        assert rep.constants["defect"] == rep.lhs > 1e-3
        assert not rep.passed

    @pytest.mark.parametrize("sign", ["minus", "plus"])
    @pytest.mark.parametrize("problem", list(PUCCI_PROBLEMS))
    def test_matches_pseudo_time_oracle(self, problem, sign):
        h, ell, fn = PUCCI_PROBLEMS[problem]
        g = el.Grid.cover((0.0, 0.0), 1.0, h)
        dom = el.Ball((0.0, 0.0), 1.0)
        bd = el.BoundaryData(fn)
        u, rep = el.solve_pucci(g, dom, 0.0, bd, ell, sign=sign,
                                config=el.SolverConfig(tol=1e-10,
                                                       max_iter=50))
        assert rep.constants["converged"] is True
        ref = march_pucci(g, dom, bd, ell, sign, tol=1e-7)
        assert np.abs(u.values - ref).max() <= 1e-6

    @pytest.mark.parametrize("sign", ["minus", "plus"])
    def test_defect_recomputes_from_the_returned_field(self, sign):
        # the reported defect is max |P(D^2_h u) - f| over the free nodes
        # of the field it returns, recomputed through pucci_minus/plus
        h, ell, fn = PUCCI_PROBLEMS["sine"]
        g = el.Grid.cover((0.0, 0.0), 1.0, h)
        dom = el.Ball((0.0, 0.0), 1.0)
        f = lambda p: 0.5 + p[..., 0]
        u, rep = el.solve_pucci(g, dom, f, el.BoundaryData(fn), ell,
                                sign=sign,
                                config=el.SolverConfig(tol=1e-8, max_iter=50))
        op = el.pucci_minus if sign == "minus" else el.pucci_plus
        core = _interior(g.counts)
        free = (dom.mask(g) & g._off_hull)[core]
        P = op(el.hessian(u)[free], ell)
        want = float(np.abs(P - f(g.coords()[core][free])).max())
        assert rep.constants["defect"] == rep.lhs == want
        assert rep.constants["converged"]

    @pytest.mark.parametrize("sign", ["Minus", "PLUS", "+", "", None])
    def test_rejects_unknown_sign(self, sign):
        g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 4)
        with pytest.raises(ValueError, match="sign must be 'minus' or 'plus'"):
            el.solve_pucci(g, el.Ball((0.0, 0.0), 1.0), 0.0,
                           el.BoundaryData(lambda p: p[..., 0]), ELL,
                           sign=sign)

    def test_supersolution_sign(self):
        # P^-(D^2 u) = 0 with nonnegative data: solution stays nonnegative
        g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 10)
        dom = el.Ball((0.0, 0.0), 1.0)
        bd = el.BoundaryData(
            lambda p: 1.0 + 0.5 * np.sin(2 * p[..., 0]))
        u, _ = el.solve_pucci(g, dom, 0.0, bd, ELL)
        assert u.values.min() >= -1e-6


def suite_pucci_solves(monkeypatch):
    """Every ``solve_pucci`` call of the two suites that make one, as
    ``(args, kwargs, report, solution values, GMRES calls)``, each call
    its ``(arguments, iteration count)``."""
    calls, solves = [], []
    gmres = solvers._gmres

    def count(*args):
        out = gmres(*args)
        calls.append((args, out[1]))
        return out

    def record(*args, **kw):
        before = len(calls)
        u, rep = solvers.solve_pucci(*args, **kw)
        solves.append((args, kw, rep, u.values, calls[before:]))
        return u, rep

    monkeypatch.setattr(solvers, "_gmres", count)
    monkeypatch.setattr(suites, "solve_pucci", record)
    for name in ("uniformly-elliptic-core", "hessian-estimates"):
        suites.run_suite(name)
    return solves


class TestHowardStart:
    """Howard from the zero-Hessian policy, a conjugate-gradient Poisson
    solve, against ``howard_eigh_loop``, which starts from the data."""

    @pytest.mark.parametrize("f", [1.0, -1.0])
    @pytest.mark.parametrize("sign", ["minus", "plus"])
    @pytest.mark.parametrize("d,h", [(1, 1 / 32), (2, 1 / 12), (3, 1 / 6)])
    def test_zero_data_matches_the_eigh_loop(self, d, h, sign, f):
        # u = 0 everywhere: the loop's first Hessian is 0, so both first
        # policies are a_pos I and both solves reach the same iterate
        grid = el.Grid.cover((0.0,) * d, 1.0, h)
        dom = el.Ball((0.0,) * d, 1.0)
        zero = el.BoundaryData(lambda p: np.zeros(p.shape[:-1]))
        config = el.SolverConfig(tol=1e-12, max_iter=50)
        u, rep = el.solve_pucci(grid, dom, f, zero, ELL, sign=sign,
                                config=config)
        want, consts = howard_eigh_loop(grid, dom, f, zero, ELL, sign,
                                        config)
        assert rep.constants["converged"] and consts["converged"]
        assert np.abs(u.values - want).max() <= 1e-12 * np.abs(want).max()

    def test_suite_solves_match_the_eigh_loop(self, monkeypatch):
        # each solve is within its defect of the discrete solution; for a
        # monotone scheme a defect delta moves u by at most delta R^2 /
        # (2 dim lam) on a domain of radius R (the comparison with the
        # paraboloid barrier); 1.6e-9 and 5.2e-11 seen
        for args, kw, rep, u, _ in suite_pucci_solves(monkeypatch):
            grid, dom = args[0], args[1]
            want, consts = howard_eigh_loop(*args, **kw)
            assert rep.constants["converged"] and consts["converged"]
            assert rep.lhs <= kw["config"].tol
            bound = (rep.lhs + consts["defect"]) * dom.radius ** 2 \
                / (2 * grid.dim * args[4].lam)
            assert np.abs(u - want).max() <= bound

    def test_gmres_iterations_and_no_eigh_per_suite_solve(
            self, monkeypatch):
        # five linear solves each, the last four by GMRES to their forcing
        # terms; the report lists each one's iterations in order.  No
        # forcing term asks for a 2-norm residual below tol / 2
        def no_eigh(*args, **kw):
            raise AssertionError("np.linalg.eigh called")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        solves = suite_pucci_solves(monkeypatch)
        for args, kw, rep, _, calls in solves:
            assert rep.constants["linear_iterations"] \
                == [n for _, n in calls]
            tol = kw["config"].tol
            for (_, _, rhs, _, rtol), _ in calls:
                assert rtol * np.linalg.norm(rhs) >= 0.5 * tol * (1 - 1e-12)
                assert rtol <= 0.1
        assert [(rep.constants["iterations"],
                 sum(rep.constants["linear_iterations"]))
                for _, _, rep, _, _ in solves] == [(5, 28), (5, 25)]
        assert solves[1][2].constants["linear_iterations"] == [4, 4, 7, 10]

    def test_one_solve_is_the_poisson_solve(self, monkeypatch):
        # max_iter = 1 stops after the conjugate-gradient solve of
        # lam lap u = 0, unconverged, with no GMRES solve
        monkeypatch.setattr(solvers, "_gmres", None)
        h, ell, fn = PUCCI_PROBLEMS["bump"]
        g = el.Grid.cover((0.0, 0.0), 1.0, h)
        dom = el.Ball((0.0, 0.0), 1.0)
        u, rep = el.solve_pucci(g, dom, 0.0, el.BoundaryData(fn), ell,
                                config=el.SolverConfig(tol=1e-3, max_iter=1))
        assert (rep.constants["iterations"], rep.constants["converged"]) \
            == (1, False)
        assert rep.lhs > 1e-3 and not rep.passed
        ul = laplace_by_cg(g, dom, el.BoundaryData(fn), 1e-3, 500)
        assert np.array_equal(u.values, ul)


class TestPolicy:
    """``_policy`` in closed form against the policy built by ``eigh``."""

    @staticmethod
    def stack(d):
        """Random symmetric ``d x d`` matrices at three scales, and the
        matrices with repeated, zero and mixed-sign eigenvalues."""
        rng = np.random.default_rng(11 + d)
        M = rng.normal(size=(300, d, d))
        M = M + np.swapaxes(M, 1, 2)
        special = [np.zeros((d, d)), np.eye(d), -np.eye(d), 3 * np.eye(d)]
        if d == 2:
            special += [np.diag([0.0, 1.0]), np.diag([-1.0, 0.0]),
                        np.diag([-1.0, 1.0]), np.diag([2.0, -3.0]),
                        np.ones((2, 2)), -np.ones((2, 2)),
                        np.array([[1.0, 1e-9], [1e-9, -1e-12]])]
        return np.concatenate([M, 1e-8 * M, 1e8 * M, np.array(special)])

    @pytest.mark.parametrize("sign", ["minus", "plus"])
    @pytest.mark.parametrize("d", [1, 2])
    def test_matches_the_eigh_policy(self, d, sign):
        H = self.stack(d)
        e = _sym_eigvals(H)
        a_pos, a_neg = ((ELL.lam, ELL.Lam) if sign == "minus"
                        else (ELL.Lam, ELL.lam))
        # eigh's vectors with the weights of the eigenvalues solve_pucci
        # reads, so that an eigenvalue 0 that LAPACK returns as -1e-17
        # takes the same weight
        a = np.where(e >= 0, a_pos, a_neg)
        _, V = np.linalg.eigh(H)
        want = np.einsum("kil,kl,kjl->kij", V, a, V)
        A = _policy(H, e, a)
        assert A.shape == H.shape
        assert np.abs(A - want).max() <= 1e-14 * ELL.Lam
        # A* : H is the extremal operator of H, to rounding
        op = el.pucci_minus if sign == "minus" else el.pucci_plus
        scale = np.abs(H).max(axis=(1, 2))
        assert np.all(np.abs(np.einsum("kij,kij->k", A, H) - op(H, ELL))
                      <= 1e-14 * ELL.Lam * scale)

    def test_three_dimensions_take_eigh(self):
        H = self.stack(3)
        e = _sym_eigvals(H)
        A = _policy(H, e, np.where(e >= 0, ELL.lam, ELL.Lam))
        scale = np.abs(H).max(axis=(1, 2))
        assert np.all(np.abs(np.einsum("kij,kij->k", A, H)
                             - el.pucci_minus(H, ELL))
                      <= 1e-14 * ELL.Lam * scale)


class TestLineSolve:
    """The elimination oracle against a dense solve of the same system and
    against its per-offset assembly."""

    MASKS = [((15,), "1d-split"), ((11, 12), "2d-nonconvex"),
             ((6, 7, 5), "3d-random"), ((9, 7), "2d-empty-ends"),
             ((8, 9), "2d-no-lower-neighbour"), ((3, 3), "single-node"),
             ((7, 5, 6), "3d-empty-plane")]

    @staticmethod
    def free_mask(counts, kind):
        free = np.zeros(counts, dtype=bool)
        free[tuple(slice(1, c - 1) for c in counts)] = True
        if kind == "1d-split":
            free[7] = False
        elif kind == "2d-nonconvex":
            free[4:7, 3:] = False     # a notch: rows 4-6 keep two nodes
            free[2, 5:7] = False      # a row in two pieces
            free[8] = False           # an empty hyperplane between pieces
        elif kind == "2d-empty-ends":
            free[[1, -2]] = False     # the first and last hyperplanes
        elif kind == "2d-no-lower-neighbour":
            free[3, :4] = False       # row 3 keeps columns 4-7,
            free[4, 3:] = False       # row 4 columns 1-2: nothing touches
        elif kind == "single-node":
            pass                      # (3, 3): one node off the outer layer
        elif kind == "3d-empty-plane":
            free[3] = False
        else:
            free &= np.random.default_rng(5).random(counts) < 0.8
        return free

    @pytest.mark.parametrize("counts,kind", MASKS)
    def test_matches_dense_solve(self, counts, kind):
        d = len(counts)
        grid = el.Grid(d, 0.1, (0.0,) * d, counts)
        free = self.free_mask(counts, kind)
        rng = np.random.default_rng(len(counts))
        k = int(free.sum())
        A = random_coefficients(rng, k, d)
        rhs = rng.normal(size=k)
        want = np.linalg.solve(dense_stencil_matrix(grid, free, A), rhs)
        got = line_solve(free, A, rhs, grid.h)
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

    @pytest.mark.parametrize("counts,kind", MASKS)
    def test_random_nonsymmetric_systems_match_loop(self, counts, kind):
        free = self.free_mask(counts, kind)
        rng = np.random.default_rng(7)
        k = int(free.sum())
        A = rng.normal(size=(k, len(counts), len(counts)))
        rhs = rng.normal(size=k)
        assert line_solve(free, A, rhs, 0.1).tobytes() \
            == line_solve_loop(free, A, rhs, 0.1).tobytes()

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("h", [0.1, 1 / 12, 1 / 64])
    def test_stencil_matches_loop(self, d, h):
        rng = np.random.default_rng(d)
        for A in (random_coefficients(rng, 50, d),
                  rng.normal(size=(50, d, d))):
            want = stencil_loop(A, h)
            got = _stencil(A, h)
            assert len(got) == len(want)
            for off, coef in want:
                assert got[tuple(off.tolist())].tobytes() == coef.tobytes()


def residual_norm(grid, free, A, rhs, x):
    """The 2-norm of ``rhs - (A : D^2_h) x`` on the free nodes."""
    return np.linalg.norm(rhs - dense_stencil_matrix(grid, free, A) @ x)


class TestGmres:
    """GMRES on Howard's frozen systems against the elimination oracle,
    and its stops on a zero rhs, a happy breakdown, a singular system and
    its iteration cap."""

    @pytest.mark.parametrize("counts,kind", TestLineSolve.MASKS)
    def test_matches_the_elimination(self, counts, kind):
        d = len(counts)
        free = TestLineSolve.free_mask(counts, kind)
        rng = np.random.default_rng(len(counts))
        k = int(free.sum())
        A = random_coefficients(rng, k, d)
        rhs = rng.normal(size=k)
        want = line_solve(free, A, rhs, 0.1)
        got, its, met = _gmres(free, A, rhs, 0.1, 1e-12)
        assert met and 1 <= its <= k
        assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()

    def test_suite_systems_match_the_elimination(self, monkeypatch):
        systems = [args for *_, calls in suite_pucci_solves(monkeypatch)
                   for args, _ in calls]
        assert len(systems) == 8          # four GMRES solves per suite
        for free, A, rhs, h, rtol in systems:
            assert rtol <= 0.1
            want = line_solve(free, A, rhs, h)
            got, _, met = _gmres(free, A, rhs, h, 1e-12)
            assert met
            assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_zero_rhs_returns_at_once(self, monkeypatch):
        def no_build(shape):
            raise AssertionError("a preconditioner was built")

        monkeypatch.setattr(solvers, "_box_inverse", no_build)
        free = TestLineSolve.free_mask((11, 12), "2d-nonconvex")
        k = int(free.sum())
        A = np.broadcast_to(np.eye(2), (k, 2, 2))
        x, its, met = _gmres(free, A, np.zeros(k), 0.1, 0.1)
        assert (its, met) == (0, True)
        assert x.tobytes() == np.zeros(k).tobytes()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_happy_breakdown_is_exact(self):
        # one free node: the Krylov space is one vector, the subdiagonal
        # is exactly 0 and the first iterate solves the system
        free = TestLineSolve.free_mask((3, 3), "single-node")
        A = np.array([[[1.5, 0.2], [0.2, 1.0]]])
        x, its, met = _gmres(free, A, np.array([3.0]), 0.1, 0.0)
        assert (its, met) == (1, True)
        assert x[0] == pytest.approx(3.0 / (-2 * 2.5 / 0.01), rel=1e-15)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_singular_system_raises(self):
        # A = 0: the first column of the Hessenberg matrix is 0, which no
        # rotation may divide by; the triangular solve then raises
        free = TestLineSolve.free_mask((8, 9), "2d-no-lower-neighbour")
        k = int(free.sum())
        with pytest.raises(np.linalg.LinAlgError):
            _gmres(free, np.zeros((k, 2, 2)), np.ones(k), 0.1, 0.1)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_missed_target_returns_the_best_iterate(self, monkeypatch):
        monkeypatch.setattr(solvers, "_GMRES_CAP", 3)
        counts = (11, 12)
        grid = el.Grid(2, 0.1, (0.0, 0.0), counts)
        free = TestLineSolve.free_mask(counts, "2d-nonconvex")
        rng = np.random.default_rng(2)
        k = int(free.sum())
        A = random_coefficients(rng, k, 2)
        rhs = rng.normal(size=k)
        x, its, met = _gmres(free, A, rhs, grid.h, 1e-12)
        assert (its, met) == (3, False)
        # GMRES's residual falls with each iteration
        monkeypatch.setattr(solvers, "_GMRES_CAP", 2)
        x2, _, _ = _gmres(free, A, rhs, grid.h, 1e-12)
        res = [residual_norm(grid, free, A, rhs, y) for y in (x2, x)]
        assert 1e-12 * np.linalg.norm(rhs) < res[1] < res[0] \
            < np.linalg.norm(rhs)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_missed_target_ends_howard_unconverged(self, monkeypatch):
        # the first GMRES solve misses its target in 2 iterations: its step
        # is not taken, and the report fails on the Poisson start's defect
        monkeypatch.setattr(solvers, "_GMRES_CAP", 2)
        h, ell, fn = PUCCI_PROBLEMS["bump"]
        g = el.Grid.cover((0.0, 0.0), 1.0, h)
        dom = el.Ball((0.0, 0.0), 1.0)
        config = el.SolverConfig(tol=1e-3, max_iter=50)
        u, rep = el.solve_pucci(g, dom, 0.0, el.BoundaryData(fn), ell,
                                config=config)
        c = rep.constants
        assert (c["iterations"], c["linear_iterations"], c["converged"]) \
            == (2, [2], False)
        assert not rep.passed and rep.lhs > 1e-3
        start, _ = el.solve_pucci(
            g, dom, 0.0, el.BoundaryData(fn), ell,
            config=el.SolverConfig(tol=1e-3, max_iter=1))
        assert np.array_equal(u.values, start.values)


class Annulus(el.Region):
    """The open annulus ``1/4 < |x| < 1``."""

    def mask(self, grid):
        pts = grid.coords()
        r2 = np.sum(pts * pts, axis=-1)
        return (r2 > 1 / 16) & (r2 < 1)


class TestPucciAccuracy:
    """The Pucci solve against exact solutions of the PDE.  For ``r^b`` in
    2-D with ``b = 1 - lam / Lam``, ``P^-(D^2 u) = 0`` off the origin, and
    ``-r^b`` solves ``P^+ = 0``; with ``lam = 1, Lam = 2`` that is
    ``r^(1/2)``.  On the annulus, with the exact data outside it, the
    cross stencil converges at second order here, though it is not
    monotone."""

    # the max error at h = 1/8, 1/16 and 1/32 of the earlier elimination
    # steps, solved exactly (ROADMAP's Baseline table)
    TABLE = (3.36e-3, 6.0e-4, 1.32e-4)

    @staticmethod
    def max_error(h, sign, data_sign):
        root = lambda p: np.sum(p * p, axis=-1) ** 0.25
        g = el.Grid.cover((0.0, 0.0), 1.0, h)
        u, rep = el.solve_pucci(
            g, Annulus(), 0.0, el.BoundaryData(lambda p: data_sign * root(p)),
            ELL, sign=sign, config=el.SolverConfig(tol=1e-10, max_iter=50))
        assert rep.constants["converged"]
        err = np.abs(u.values - data_sign * root(g.coords()))
        return float(err[Annulus().mask(g)].max())

    @pytest.mark.parametrize("sign,data_sign", [("minus", 1), ("plus", -1)])
    def test_second_order_against_the_exact_solution(self, sign, data_sign):
        errs = [self.max_error(h, sign, data_sign)
                for h in (1 / 8, 1 / 16, 1 / 32)]
        assert errs == pytest.approx(list(self.TABLE), rel=0.01)
        rates = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
        assert min(rates) >= 1.9

    def test_data_that_solve_no_equation_stall(self):
        # r^(1/2) given to P^+ is no solution: the error does not fall
        assert min(self.max_error(h, "plus", 1)
                   for h in (1 / 16, 1 / 32)) >= 0.13


class TestFieldLibrary:
    """The closed forms that the suites build."""

    def test_fundamental_clamped(self):
        # the Pucci fundamental-solution profile |x|^(1 - Lam n / lam) of
        # Ellipticity(1, 2), singular at the origin, clamped at radius 4h
        g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 16)
        prof = lambda r: r ** (1.0 - 2.0 * g.dim / 1.0)
        f = suites._radial(g, prof, 4 * g.h)
        r = np.sqrt(np.sum(g.coords() ** 2, axis=-1))
        np.testing.assert_array_equal(f.values[r < 4 * g.h], prof(4 * g.h))
        assert f.at((0.0, 0.0)) == prof(4 * g.h)
        np.testing.assert_allclose(f.values[r >= 4 * g.h],
                                   prof(r[r >= 4 * g.h]), rtol=1e-14)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("h", [0.07, 0.0525])
    def test_poisson_kernel_keeps_the_open_unit_ball(self, h):
        # at h = 0.07 and 0.0525 the pole 1.05 e_1 is a node; the values
        # are the kernel's on B_1 and 0 off it, finite either way
        g = el.Grid.cover((0.0, 0.0), 1.0 + 2 * h, h)
        f = suites._poisson_kernel_ish(g)
        inside = el.Ball((0.0, 0.0), 1.0).mask(g)
        pts = g.coords()[inside]
        r2 = np.sum(pts ** 2, axis=-1)
        np.testing.assert_array_equal(f.values[inside], (1.05 ** 2 - r2) / (
            np.sum((pts - [1.05, 0.0]) ** 2, axis=-1)))
        assert np.all(f.values[~inside] == 0.0)

    def test_harmonic_poly_is_harmonic(self):
        # laplacian-core's harmonic polynomial, the real part of z^3 on the
        # grid's open mesh
        g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 32)
        xm, ym = g.mesh()
        f = el.ScalarField(g, ((xm + 1j * ym) ** 3).real)
        x, y = g.coords()[..., 0], g.coords()[..., 1]
        np.testing.assert_array_equal(f.values, ((x + 1j * y) ** 3).real)
        lap = el.laplacian(f)
        assert np.abs(lap).max() < 1e-9


class TestRandomWalk:
    def test_matches_discrete_harmonic(self):
        g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 10)
        target = el.ClosedBall((0.0, 0.0), 0.25)
        dom = el.Ball((0.0, 0.0), 1.0)
        cfg = el.WalkConfig(n_samples=4000, seed=11)
        start = (0.4, 0.0)
        est, se, rep = el.random_walk_hitting(g, start, target, dom, cfg)
        exact = el.discrete_harmonic_hitting(g, target, dom)
        want = float(exact.values[g.index_of(start)])
        assert abs(est - want) <= 3.5 * se

    def test_reproducible(self):
        g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 8)
        target = el.ClosedBall((0.0, 0.0), 0.3)
        dom = el.Ball((0.0, 0.0), 1.0)
        cfg = el.WalkConfig(n_samples=500, seed=3)
        a = el.random_walk_hitting(g, (0.5, 0.0), target, dom, cfg)[0]
        b = el.random_walk_hitting(g, (0.5, 0.0), target, dom, cfg)[0]
        assert a == b

    def test_hitting_bounds(self):
        g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 8)
        target = el.ClosedBall((0.0, 0.0), 0.3)
        dom = el.Ball((0.0, 0.0), 1.0)
        exact = el.discrete_harmonic_hitting(g, target, dom)
        assert float(exact.values.min()) >= 0.0
        assert float(exact.values.max()) <= 1.0
        assert float(exact.values[g.index_of((0.0, 0.0))]) == 1.0

    def test_hitting_iteration_cap_raises(self, monkeypatch):
        g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 8)
        target = el.ClosedBall((0.0, 0.0), 0.3)
        cg_once(monkeypatch)
        with pytest.raises(RuntimeError, match="after 1 iterations"):
            el.discrete_harmonic_hitting(g, target, el.Ball((0.0, 0.0), 1.0))

    def test_probabilistic_harnack(self):
        g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 10)
        A = el.ClosedBall((0.1, 0.0), 0.2)
        rep = el.probabilistic_harnack_check(g, A, rho=0.5)
        assert rep.passed
        assert rep.seed is None
        assert rep.rhs == rep.constants["min_hitting"]

    @pytest.mark.parametrize("h", [1 / 12, 1 / 24])
    def test_probabilistic_harnack_is_the_dense_minimum(self, h):
        # the suite's grid and sets at h = 1/12 and one refinement
        g = el.Grid.cover((0.0, 0.0), 1.0 + 2 * h, h)
        A = el.ClosedBall((0.2, 0.1), 0.15)
        rep = el.probabilistic_harnack_check(g, A, 0.5)
        u = dense_hitting(g, A & el.ClosedBall((0.0, 0.0), 0.5), UNIT_DISC)
        third = el.ClosedBall((0.0, 0.0), 1 / 3).mask(g)
        assert rep.rhs == pytest.approx(u[third].min(), rel=1e-9, abs=0)
        assert rep.constants["n_starts"] == int(third.sum())
        if h == SUITE_H:
            assert rep.constants["n_starts"] == 49

    def test_probabilistic_harnack_within_three_sigma_of_the_walks(self):
        # at each of the five starts the walks used to sample, the exact
        # field lies within 3 sigma of their estimate, sigma from the
        # exact value; the check's minimum over all 49 nodes is no larger
        A = el.ClosedBall((0.2, 0.1), 0.15)
        cfg = el.WalkConfig(n_samples=20_000, seed=11)
        starts, est = harnack_by_walks(SUITE_GRID, A, 0.5, cfg)
        exact = el.discrete_harmonic_hitting(
            SUITE_GRID, A & el.ClosedBall((0.0, 0.0), 0.5), UNIT_DISC)
        q = np.array([exact.values[i] for i in starts])
        assert len(starts) == 5
        assert np.all(np.abs(np.array(est) - q)
                      <= 3 * np.sqrt(q * (1 - q) / cfg.n_samples))
        rep = el.probabilistic_harnack_check(SUITE_GRID, A, 0.5)
        assert rep.rhs <= q.min()

    def test_probabilistic_harnack_with_no_start_is_a_hypothesis(self):
        # the nodes nearest the origin, (+-1/4, +-1/4), lie outside B_1/3
        g = el.Grid(2, 0.5, (-1.25, -1.25), (6, 6))
        rep = el.probabilistic_harnack_check(
            g, el.ClosedBall((0.25, 0.25), 0.1), 0.5)
        assert rep.constants["n_starts"] == 0 and rep.rhs == 1.0
        assert rep.status == "hypothesis"
        assert rep.notes.endswith(
            "; grid does not resolve B_1/3: 0 nodes, needs 1")

    def test_probabilistic_harnack_draws_no_walk(self, monkeypatch):
        def no_walk(*args, **kwargs):
            raise AssertionError("the check drew a walk")
        monkeypatch.setattr(solvers, "random_walk_hitting", no_walk)
        rep = el.probabilistic_harnack_check(
            SUITE_GRID, el.ClosedBall((0.2, 0.1), 0.15), 0.5)
        assert rep.name == "probabilistic-harnack" and rep.passed

    def test_walk_vs_oracle_fails_on_capped_walks(self, monkeypatch):
        # at a cap of 500 steps two walks of the suite stop, and |p - q| =
        # 0.0078 stays within 3 se = 0.0100: only the cap fails the check
        monkeypatch.setattr(solvers, "_MAX_STEPS", 500)
        rep = suites.run_suite("probabilistic")[0]
        assert rep.name == "walk-vs-oracle"
        assert rep.lhs <= rep.rhs and rep.status == "fail"
        assert rep.notes.endswith("; 2 walks reached max_steps")

    def test_unbiased_over_seeds(self):
        # an unbiased estimate lies more than 3 se from the exact value
        # with probability about erfc(3 / sqrt 2) = 0.0027; allow the
        # most outliers that 400 seeds exceed with probability below 1e-3
        g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 8)
        target = el.ClosedBall((0.0, 0.0), 0.3)
        dom = el.Ball((0.0, 0.0), 1.0)
        start = (0.5, 0.0)
        q = float(el.discrete_harmonic_hitting(g, target, dom)
                  .values[g.index_of(start)])
        n, p_out = 400, math.erfc(3 / math.sqrt(2))
        allowed = 0
        while sum(math.comb(n, j) * p_out ** j * (1 - p_out) ** (n - j)
                  for j in range(allowed + 1, n + 1)) >= 1e-3:
            allowed += 1
        outliers = 0
        for seed in range(n):
            p, se, _ = el.random_walk_hitting(
                g, start, target, dom, el.WalkConfig(n_samples=2000,
                                                     seed=seed))
            outliers += abs(p - q) > 3 * se
        assert allowed == 5
        assert outliers <= allowed

    @pytest.mark.parametrize("name", WALK_PROBLEMS)
    def test_matches_per_step_walk(self, name, monkeypatch):
        g, start, target, dom, cfg = WALK_PROBLEMS[name]
        cap = WALK_CAPS.get(name, solvers._MAX_STEPS)
        monkeypatch.setattr(solvers, "_MAX_STEPS", cap)
        est, se, rep = el.random_walk_hitting(g, start, target, dom, cfg)
        hits, capped = walk_per_step(g, start, target, dom, cfg, cap)
        assert est == hits / cfg.n_samples
        assert rep.constants["capped"] == capped
        assert 0 < est < 1
        assert (capped > 0) == name.startswith("cap-")
        assert (rep.lhs, rep.rhs) == (capped, 0)
        assert rep.status == ("fail" if name.startswith("cap-") else "pass")

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_matches_per_step_walk_at_every_cap(self, dim, monkeypatch):
        # caps of 1-33 steps end the last draw on every even and odd width
        # (an odd one takes its last move alone), and the default cap; the
        # starts next to the target and next to the domain's edge end
        # some walks at the first move of the first draw
        h = (1 / 16, 1 / 8, 1 / 4)[dim - 1]
        g = el.Grid.cover((0.0,) * dim, 1.0, h)
        zeros = (0.0,) * (dim - 1)
        target = el.ClosedBall((0.5,) + zeros, 0.3)
        dom = el.Ball((0.0,) * dim, 0.9)
        caps = [*range(1, 34), solvers._MAX_STEPS]
        starts = {"centre": (0.0,) * dim,
                  "next to the target": (h * (math.ceil(0.2 / h) - 1),)
                  + zeros,
                  "next to the edge": (-h * math.floor(0.9 / h),) + zeros}
        for name, start in starts.items():
            assert not target.mask(g)[g.index_of(start)]
            assert dom.mask(g)[g.index_of(start)]
            for cap in caps:
                monkeypatch.setattr(solvers, "_MAX_STEPS", cap)
                cfg = el.WalkConfig(n_samples=200, seed=cap)
                est, _, rep = el.random_walk_hitting(g, start, target, dom,
                                                     cfg)
                hits, capped = walk_per_step(g, start, target, dom, cfg, cap)
                assert (est, rep.constants["capped"]) == \
                    (hits / cfg.n_samples, capped)
                if cap == 1 and name != "centre":
                    # one move: some walks end on it, the others are capped
                    assert 0 < capped < cfg.n_samples
                    assert (hits > 0) == (name == "next to the target")
        # a start on the target or off the domain draws nothing
        for start, est in (((0.5,) + zeros, 1.0), ((0.95,) + zeros, 0.0)):
            for cap in (1, 2, 33):
                monkeypatch.setattr(solvers, "_MAX_STEPS", cap)
                cfg = el.WalkConfig(n_samples=200, seed=cap)
                assert el.random_walk_hitting(g, start, target, dom,
                                              cfg)[:2] == (est, 0.0)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_walk_table_matches_two_moves(self, dim):
        # each entry against two moves made one at a time
        rng = np.random.default_rng(dim)
        code = rng.choice(np.array([0, 0, 0, 1, 2], dtype=np.int8),
                          size=(6, 5, 4)[:dim])
        for ax in range(dim):
            edge = [slice(None)] * dim
            edge[ax] = [0, -1]
            code[tuple(edge)] = 2
        table, step = solvers._walk_table(code)
        lattice = code.ravel()
        M = 2 * dim
        assert table.dtype == np.int32 and table.size == lattice.size * M * M
        assert list(step) == [s * st for st in code.strides for s in (1, -1)]
        for p in range(lattice.size):
            for d0 in range(M):
                for d1 in range(M):
                    q = p
                    for d in (d0, d1):
                        if lattice[q] == 0:
                            q += step[d]
                    assert table[p * M * M + d0 + M * d1] == q * M * M

    def test_start_outside_domain_never_hits(self):
        cfg = el.WalkConfig(n_samples=500, seed=11)
        est, se, rep = el.random_walk_hitting(SUITE_GRID, (1.0, 0.0),
                                              SUITE_TARGET, UNIT_DISC, cfg)
        exact = el.discrete_harmonic_hitting(SUITE_GRID, SUITE_TARGET,
                                             UNIT_DISC)
        assert float(exact.values[SUITE_GRID.index_of((1.0, 0.0))]) == 0.0
        assert (est, se) == (0.0, 0.0)
        assert rep.constants == {"estimate": 0.0, "stderr": 0.0,
                                 "capped": 0, "n_samples": 500}
        assert rep.grid == SUITE_GRID.meta() and rep.seed == 11

    def test_start_on_target_hits_at_once(self):
        # the target node lies outside the domain: the target wins
        target = el.ClosedBall((1.0, 0.0), 0.05)
        cfg = el.WalkConfig(n_samples=500, seed=11)
        est, se, rep = el.random_walk_hitting(SUITE_GRID, (1.0, 0.0),
                                              target, UNIT_DISC, cfg)
        assert (est, se) == (1.0, 0.0)
        assert rep.constants == {"estimate": 1.0, "stderr": 0.0,
                                 "capped": 0, "n_samples": 500}
        assert rep.grid == SUITE_GRID.meta() and rep.seed == 11

    @pytest.mark.parametrize("field", ["n_samples"])
    @pytest.mark.parametrize("value", [0, -5])
    def test_rejects_counts_below_one(self, field, value):
        cfg = el.WalkConfig(**{field: value})
        with pytest.raises(ValueError, match="at least 1"):
            el.random_walk_hitting(SUITE_GRID, (0.0, 0.0), SUITE_TARGET,
                                   UNIT_DISC, cfg)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("seed", [1.5, 1.9, -1, 2 ** 63, 2 ** 63 + 5,
                                      2 ** 64 - 1, 2 ** 64,
                                      np.uint64(2 ** 64 - 1), np.int64(-1)])
    def test_rejects_a_seed_philox_would_mangle(self, seed):
        # Philox keys 1.5 and 1.9 as 1, -1 as 2^64 - 1, 2^63 + 5 as 2^63
        # and 2^64 - 1 as 0 (with an invalid-cast warning); 2^64 overflows
        cfg = el.WalkConfig(n_samples=10, seed=seed)
        with pytest.raises(ValueError, match=r"seed must be an integer in "
                                             r"\[0, 2\*\*63\)"):
            el.random_walk_hitting(SUITE_GRID, (0.0, 0.0), SUITE_TARGET,
                                   UNIT_DISC, cfg)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("seed, same", [(np.int64(3), 3),
                                            (2 ** 63 - 1, 2 ** 63 - 1)])
    def test_accepts_an_integer_seed_below_two_to_the_63(self, seed, same,
                                                         monkeypatch):
        # a numpy integer walks its value's draws and reports a plain int;
        # a count of 1 is the least the count check takes, and a cap of 1
        # step the least a walk can make
        for n, cap in ((200, 100_000), (1, 1)):
            monkeypatch.setattr(solvers, "_MAX_STEPS", cap)
            got = el.random_walk_hitting(
                SUITE_GRID, (0.0, 0.0), SUITE_TARGET, UNIT_DISC,
                el.WalkConfig(n_samples=n, seed=seed))
            want = el.random_walk_hitting(
                SUITE_GRID, (0.0, 0.0), SUITE_TARGET, UNIT_DISC,
                el.WalkConfig(n_samples=n, seed=same))
            assert got[:2] == want[:2]
            assert type(got[2].seed) is int and got[2].seed == same
            assert json.loads(json.dumps(got[2].to_dict())) \
                == want[2].to_dict()
