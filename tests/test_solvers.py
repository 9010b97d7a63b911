import numpy as np
import pytest

import ellipticlab as el
from ellipticlab.solvers import _line_solve


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
        upd[core] = tau * op(el.hessian(el.ScalarField(grid, u)).values, ell)
        upd[~free] = 0.0
        u = u + upd
        if np.abs(upd).max() < tol * tau:
            return u
    raise AssertionError("the marcher did not reach its tolerance")


def random_coefficients(rng, k, d):
    """``k`` symmetric matrices with eigenvalues in [1, 2]."""
    Q, _ = np.linalg.qr(rng.normal(size=(k, d, d)))
    return np.einsum("kil,kl,kjl->kij", Q, rng.uniform(1.0, 2.0, (k, d)), Q)


def dense_stencil_matrix(grid, free, A):
    """The matrix of ``x -> A : D^2_h x`` on the free nodes (x = 0 off
    them), one column per free node from ``linear_apply``."""
    core = tuple(slice(1, c - 1) for c in grid.counts)
    d = grid.dim
    Afield = np.zeros(tuple(grid.counts) + (d, d))
    Afield[free] = A
    coef = el.LinearCoefficients(A=Afield[core])
    flat = np.flatnonzero(free)
    cols = []
    for node in flat:
        e = np.zeros(grid.counts)
        e.flat[node] = 1.0
        cols.append(el.linear_apply(el.ScalarField(grid, e),
                                    coef).values[free[core]])
    return np.stack(cols, axis=1)


class TestPoisson:
    def test_recovers_quadratic(self):
        # lap u = 4 with the exact quadratic on the boundary
        g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 32)
        exact = lambda p: np.sum(p ** 2, axis=-1)
        dom = el.Ball((0.0, 0.0), 1.0)
        bd = el.BoundaryData(exact)
        u, rep = el.solve_poisson(g, dom, 4.0, bd,
                                  el.SolverConfig(mode="gauss-seidel-red-black",
                                                  tol=1e-12, max_iter=20000))
        assert rep.passed
        ref = el.ScalarField.from_function(g, exact)
        err = np.abs(u.values - ref.values)[dom.mask(g)].max()
        assert err < 1e-6

    def test_modes_agree(self):
        g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 16)
        dom = el.Cube((0.0, 0.0), 1.8)
        bd = el.BoundaryData(lambda p: p[..., 0])
        sols = []
        for mode in ("jacobi", "gauss-seidel-red-black"):
            u, rep = el.solve_poisson(
                g, dom, 1.0, bd,
                el.SolverConfig(mode=mode, tol=1e-13, max_iter=50000))
            sols.append(u.values)
        assert np.abs(sols[0] - sols[1]).max() < 1e-8

    def test_unknown_mode(self):
        g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 8)
        with pytest.raises(ValueError):
            el.solve_poisson(g, el.Ball((0.0, 0.0), 1.0), 0.0,
                             el.BoundaryData(lambda p: 0 * p[..., 0]),
                             el.SolverConfig(mode="bogus"))

    def test_pseudo_time_step_bound(self):
        g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 8)
        dom = el.Ball((0.0, 0.0), 1.0)
        bd = el.BoundaryData(lambda p: p[..., 0])
        bound = g.h ** 2 / (2 * g.dim)
        u, rep = el.solve_poisson(
            g, dom, 1.0, bd,
            el.SolverConfig(mode="pseudo-time", tau=bound, tol=1e-12,
                            max_iter=5000))
        assert rep.passed and np.all(np.isfinite(u.values))
        for tau in (1.5 * bound, 4 * bound):
            with pytest.raises(ValueError, match="stable bound"):
                el.solve_poisson(g, dom, 1.0, bd,
                                 el.SolverConfig(mode="pseudo-time",
                                                 tau=tau, max_iter=400))

    def test_maximum_principle(self):
        # f = 0: solution stays within the boundary data range
        g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 16)
        dom = el.Ball((0.0, 0.0), 1.0)
        bd = el.BoundaryData(lambda p: np.cos(3 * p[..., 0]))
        u, _ = el.solve_poisson(g, dom, 0.0, bd,
                                el.SolverConfig(mode="gauss-seidel-red-black",
                                                tol=1e-12, max_iter=50000))
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
                                config=el.SolverConfig(tol=1e-6,
                                                       max_iter=50000))
        ul, _ = el.solve_poisson(g, dom, 0.0, bd,
                                 el.SolverConfig(mode="gauss-seidel-red-black",
                                                 tol=1e-13, max_iter=50000))
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

    @pytest.mark.parametrize("cfg", [
        el.SolverConfig(tau=1e-3), el.SolverConfig(omega=1.5),
        el.SolverConfig(mode="pseudo-time"), el.SolverConfig(mode="jacobi")])
    def test_rejects_unread_options(self, cfg):
        g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 8)
        with pytest.raises(ValueError):
            el.solve_pucci(g, el.Ball((0.0, 0.0), 1.0), 0.0,
                           el.BoundaryData(lambda p: p[..., 0]), ELL,
                           config=cfg)

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

    def test_warm_start_consistent(self):
        g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 10)
        dom = el.Ball((0.0, 0.0), 1.0)
        bd = el.BoundaryData(lambda p: np.abs(p[..., 0]))
        cfg = el.SolverConfig(tol=1e-4, max_iter=30000)
        u1, _ = el.solve_pucci(g, dom, 0.0, bd, ELL, config=cfg)
        u2, rep2 = el.solve_pucci(g, dom, 0.0, bd, ELL, config=cfg,
                                  warm_start=u1)
        assert rep2.constants["iterations"] <= 2
        assert np.abs(u1.values - u2.values).max() < 1e-3

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
        f = el.field_library("harmonic-poly", g, k=3)
        lap = el.laplacian(f)
        assert np.abs(lap.values).max() < 1e-9

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

    def test_probabilistic_harnack(self):
        g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 10)
        A = el.ClosedBall((0.1, 0.0), 0.2)
        cfg = el.WalkConfig(n_samples=2000, max_steps=20000, seed=7)
        rep = el.probabilistic_harnack_check(g, A, rho=0.5, config=cfg)
        assert rep.passed
