import functools
import math

import numpy as np
import pytest

import ellipticlab as el
from ellipticlab import suites
from ellipticlab.grid import _interior
from ellipticlab.operators import _apply, _laplace_taps, _shift, _stencil
from ellipticlab.solvers import _box_inverse, _cg, _five_smooth, _line_solve
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


def direct_laplace(grid, free, u0, f):
    """Oracle: the exact solution of the 5-point ``lap u = f`` on the free
    nodes with the values of ``u0`` on every other node, by ``_line_solve``
    with ``A = I``, whose Hessian stencil is the 5-point Laplacian."""
    core = tuple(slice(1, c - 1) for c in grid.counts)
    u = u0.copy()
    u[free] = 0.0
    lap = el.laplacian(el.ScalarField(grid, u))
    rhs = (f[core] - lap)[free[core]]
    eye = np.broadcast_to(np.eye(grid.dim), (rhs.size, grid.dim, grid.dim))
    u[free] = _line_solve(free, eye, rhs, grid.h)
    return u


def random_coefficients(rng, k, d):
    """``k`` symmetric matrices with eigenvalues in [1, 2]."""
    Q, _ = np.linalg.qr(rng.normal(size=(k, d, d)))
    return np.einsum("kil,kl,kjl->kij", Q, rng.uniform(1.0, 2.0, (k, d)), Q)


def stencil_loop(A, h):
    """Oracle: the stencil of ``A : D^2_h`` as ``_line_solve`` assembled it
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
    them), one column per free node from ``linear_apply``."""
    core = tuple(slice(1, c - 1) for c in grid.counts)
    d = grid.dim
    Afield = np.zeros(tuple(grid.counts) + (d, d))
    Afield[free] = A
    flat = np.flatnonzero(free)
    cols = []
    for node in flat:
        e = np.zeros(grid.counts)
        e.flat[node] = 1.0
        cols.append(el.linear_apply(el.ScalarField(grid, e),
                                    Afield[core])[free[core]])
    return np.stack(cols, axis=1)


def walk_per_step(grid, start, target, domain, config):
    """Oracle: the per-step walk that random_walk_hitting ran before the
    absorb-code lattice; returns the counts of walks that hit and that
    reached ``max_steps``.  One lattice move of every live walker per
    iteration, with the off-hull test, the target test (which wins) and
    the domain test made on index tuples.  Every 16 steps it draws
    ``(walkers alive, 16)`` moves, fewer at the ``max_steps`` cap."""
    start_idx = np.asarray(grid.index_of(start))
    tmask = target.mask(grid)
    dmask = domain.mask(grid)
    counts = np.asarray(grid.counts)
    hits = 0
    capped = 0
    n = grid.dim
    batch = 16
    chunk = 8192
    for c0 in range(0, config.n_samples, chunk):
        m = min(chunk, config.n_samples - c0)
        rng = np.random.default_rng(
            np.random.Philox(key=[config.seed, c0 // chunk]))
        pos = np.tile(start_idx, (m, 1))
        alive = np.ones(m, dtype=bool)
        steps = 0
        while alive.any() and steps < config.max_steps:
            k = min(batch, config.max_steps - steps)
            # row r of the draw belongs to the r-th walker still walking
            draws = rng.integers(0, 2 * n, size=(int(alive.sum()), k),
                                 dtype=np.int8)
            walker = np.flatnonzero(alive)
            for t in range(k):
                d = draws[alive[walker], t]
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


SUITE_H = 1 / 12
SUITE_GRID = el.Grid.cover((0.0, 0.0), 1.0 + 2 * SUITE_H, SUITE_H)
SUITE_TARGET = el.ClosedBall((0.3, 0.0), 0.2)
UNIT_DISC = el.Ball((0.0, 0.0), 1.0)
# two closed balls, one past the unit disc, as one node set of the suite grid
PAST_DOMAIN_TARGET = el.SubLevel(el.ScalarField(SUITE_GRID, (~(
    el.ClosedBall((0.0, 0.3), 0.2).mask(SUITE_GRID)
    | el.ClosedBall((1.0, 0.0), 0.05).mask(SUITE_GRID))).astype(float)), 0.0)

# (grid, start, target, domain, config) of the walks checked against the
# per-step oracle
WALK_PROBLEMS = {
    "suite": (SUITE_GRID, (0.0, 0.0), SUITE_TARGET, UNIT_DISC,
              el.WalkConfig(n_samples=20_000, seed=11)),
    "cap-37": (SUITE_GRID, (0.0, 0.0), SUITE_TARGET, UNIT_DISC,
               el.WalkConfig(n_samples=2000, max_steps=37, seed=11)),
    "cap-1000": (el.Grid.cover((0.0, 0.0), 1.0, 1 / 24), (0.0, 0.0),
                 el.ClosedBall((0.5, 0.0), 0.1), UNIT_DISC,
                 el.WalkConfig(n_samples=1000, max_steps=1000, seed=2)),
    "chunk-boundary": (SUITE_GRID, (0.0, 0.0), SUITE_TARGET, UNIT_DISC,
                       el.WalkConfig(n_samples=8200, seed=4)),
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
        u = el.discrete_harmonic_hitting(
            g, target, dom, config=el.SolverConfig(tol=1e-12))
        want = sor_hitting(g, target, dom, 1e-12)
        assert np.abs(u.values - want).max() < 1e-8

    @pytest.mark.parametrize("name", LAPLACE_PROBLEMS)
    def test_one_iteration_not_converged(self, name):
        g, dom, f, bd, target = LAPLACE_PROBLEMS[name]
        _, rep = el.solve_poisson(g, dom, f, el.BoundaryData(bd),
                                  el.SolverConfig(tol=1e-10, max_iter=1))
        assert rep.constants["iterations"] == 1
        assert rep.constants["converged"] is False and not rep.passed
        with pytest.raises(RuntimeError, match="after 1 iterations"):
            el.discrete_harmonic_hitting(
                g, target, dom, config=el.SolverConfig(tol=1e-10, max_iter=1))

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


class TestPucci:
    def test_reduces_to_laplacian_for_tight_window(self):
        # lam = Lam = 1: P^- is the Laplacian, compare with solve_poisson
        g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 12)
        dom = el.Ball((0.0, 0.0), 1.0)
        bd = el.BoundaryData(lambda p: p[..., 0] ** 2 - p[..., 1] ** 2)
        one = el.Ellipticity(1.0, 1.0)
        up, rp = el.solve_pucci(g, dom, 0.0, bd, one,
                                config=el.SolverConfig(tol=1e-6, max_iter=50))
        ul, _ = el.solve_poisson(g, dom, 0.0, bd,
                                 el.SolverConfig(tol=1e-13, max_iter=50000))
        assert rp.passed
        assert np.abs(up.values - ul.values).max() < 1e-4

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


class TestLineSolve:
    """The block line solve against a dense solve of the same system."""

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
        else:
            free &= np.random.default_rng(5).random(counts) < 0.8
        return free

    @pytest.mark.parametrize("counts,kind", [
        ((15,), "1d-split"), ((11, 12), "2d-nonconvex"),
        ((6, 7, 5), "3d-random")])
    def test_matches_dense_solve(self, counts, kind):
        d = len(counts)
        grid = el.Grid(d, 0.1, (0.0,) * d, counts)
        free = self.free_mask(counts, kind)
        rng = np.random.default_rng(len(counts))
        k = int(free.sum())
        A = random_coefficients(rng, k, d)
        rhs = rng.normal(size=k)
        want = np.linalg.solve(dense_stencil_matrix(grid, free, A), rhs)
        got = _line_solve(free, A, rhs, grid.h)
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

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


class TestFieldLibrary:
    def test_named_fields(self):
        g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 16)
        for name in ("linear", "quadratic", "paraboloid", "gaussian",
                     "harmonic-poly", "cone", "bump"):
            f = el.field_library(name, g)
            assert f.values.shape == g.counts
            assert np.all(np.isfinite(f.values))

    def test_fundamental_masked(self):
        g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 16)
        f = el.field_library("fundamental", g, r_clip=0.1)
        assert f.mask is not None
        assert not f.mask[g.index_of((0.0, 0.0))]
        assert np.all(np.isfinite(f.values))

    def test_harmonic_poly_is_harmonic(self):
        g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 32)
        f = el.field_library("harmonic-poly", g, degree=3)
        x, y = g.coords()[..., 0], g.coords()[..., 1]
        np.testing.assert_array_equal(f.values, ((x + 1j * y) ** 3).real)
        lap = el.laplacian(f)
        assert np.abs(lap).max() < 1e-9

    def test_rejects_a_parameter_the_family_does_not_take(self):
        g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 8)
        with pytest.raises(TypeError, match="alfa"):
            el.field_library("power", g, alfa=0.9)

    def test_unknown_name(self):
        g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 8)
        with pytest.raises(KeyError):
            el.field_library("no-such-field", g)


class TestRandomWalk:
    def test_matches_discrete_harmonic(self):
        g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 10)
        target = el.ClosedBall((0.0, 0.0), 0.25)
        dom = el.Ball((0.0, 0.0), 1.0)
        cfg = el.WalkConfig(n_samples=4000, max_steps=20000, seed=11)
        start = (0.4, 0.0)
        est, se, rep = el.random_walk_hitting(g, start, target, dom, cfg)
        exact = el.discrete_harmonic_hitting(g, target, dom)
        want = float(exact.values[g.index_of(start)])
        assert abs(est - want) <= 3.5 * se

    def test_reproducible(self):
        g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 8)
        target = el.ClosedBall((0.0, 0.0), 0.3)
        dom = el.Ball((0.0, 0.0), 1.0)
        cfg = el.WalkConfig(n_samples=500, max_steps=5000, seed=3)
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

    def test_hitting_iteration_cap_raises(self):
        g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 8)
        target = el.ClosedBall((0.0, 0.0), 0.3)
        with pytest.raises(RuntimeError, match="after 1 iterations"):
            el.discrete_harmonic_hitting(
                g, target, el.Ball((0.0, 0.0), 1.0),
                config=el.SolverConfig(tol=1e-10, max_iter=1))

    def test_probabilistic_harnack(self):
        g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 10)
        A = el.ClosedBall((0.1, 0.0), 0.2)
        cfg = el.WalkConfig(n_samples=2000, max_steps=20000, seed=7)
        rep = el.probabilistic_harnack_check(g, A, rho=0.5, config=cfg)
        assert rep.passed

    def test_probabilistic_harnack_fails_on_capped_walks(self):
        # 979 of the 2000 walks from the origin stop at max_steps; as
        # misses they gave lhs 0.00139 <= rhs 0.0703, a pass
        h = 1 / 12
        g = el.Grid.cover((0.0, 0.0), 1.0 + 2 * h, h)
        A = el.ClosedBall((0.2, 0.1), 0.15)
        cfg = el.WalkConfig(n_samples=2000, max_steps=20, seed=11)
        rep = el.probabilistic_harnack_check(g, A, rho=0.5, config=cfg)
        assert rep.lhs <= rep.rhs and rep.status == "fail"
        assert rep.notes.endswith(" walks reached max_steps")

    def test_walk_vs_oracle_fails_on_capped_walks(self, monkeypatch):
        # at max_steps = 500 three walks of the suite stop, and |p - q| =
        # 0.0019 stays within 3 se = 0.0100: only the cap fails the check
        monkeypatch.setattr(suites, "WalkConfig",
                            functools.partial(el.WalkConfig, max_steps=500))
        rep = suites.run_suite("probabilistic")[0]
        assert rep.name == "walk-vs-oracle"
        assert rep.lhs <= rep.rhs and rep.status == "fail"
        assert rep.notes.endswith("; 3 walks reached max_steps")

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
    def test_matches_per_step_walk(self, name):
        g, start, target, dom, cfg = WALK_PROBLEMS[name]
        est, se, rep = el.random_walk_hitting(g, start, target, dom, cfg)
        hits, capped = walk_per_step(g, start, target, dom, cfg)
        assert est == hits / cfg.n_samples
        assert rep.constants["capped"] == capped
        assert 0 < est < 1
        assert (capped > 0) == name.startswith("cap-")
        assert (rep.lhs, rep.rhs) == (capped, 0)
        assert rep.status == ("fail" if name.startswith("cap-") else "pass")

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

    @pytest.mark.parametrize("field", ["n_samples", "max_steps"])
    @pytest.mark.parametrize("value", [0, -5])
    def test_rejects_counts_below_one(self, field, value):
        cfg = el.WalkConfig(**{field: value})
        with pytest.raises(ValueError, match="at least 1"):
            el.random_walk_hitting(SUITE_GRID, (0.0, 0.0), SUITE_TARGET,
                                   UNIT_DISC, cfg)
