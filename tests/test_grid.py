import inspect
import itertools
import math

import numpy as np
import pytest
from scipy import ndimage

import ellipticlab as el
from ellipticlab import grid as grid_mod, suites
from ellipticlab.grid import _blocks, _fold, _lp, _quotients, _sq_dist
from ellipticlab.operators import _sym_eigvals
from test_benchmark_outputs import workloads


def make_grid(h=1 / 16, radius=1.05, dim=2):
    return el.Grid.cover((0.0,) * dim, radius, h)


class TestGrid:
    def test_cover_contains_ball(self):
        g = make_grid(1 / 8, 1.0)
        assert g.dim == 2
        lo = np.asarray(g.origin)
        hi = np.asarray(g.upper())
        assert np.all(lo <= -1.0) and np.all(hi >= 1.0)

    def test_counts_odd_center_node(self):
        g = make_grid(1 / 8, 1.0)
        assert all(c % 2 == 1 for c in g.counts)
        assert g.index_of((0.0, 0.0)) == tuple(c // 2 for c in g.counts)

    def test_validation(self):
        with pytest.raises(ValueError):
            el.Grid(2, -0.1, (0.0, 0.0), (5, 5))
        with pytest.raises(ValueError):
            el.Grid(4, 0.1, (0.0,) * 4, (5,) * 4)
        with pytest.raises(ValueError):
            el.Grid(2, 0.1, (0.0, 0.0), (2, 5))

    def test_index_off_grid(self):
        g = make_grid()
        with pytest.raises(ValueError):
            g.index_of((5.0, 0.0))

    def test_coords_cached_and_read_only(self):
        g = make_grid(1 / 8, 1.0)
        pts = g.coords()
        assert g.coords() is pts
        assert pts.shape == g.counts + (2,)
        with pytest.raises(ValueError):
            pts[0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            g.points()[0, 0] = 1.0


class TestField:
    def test_finite_required(self):
        g = make_grid()
        vals = np.zeros(g.counts)
        vals[0, 0] = np.inf
        with pytest.raises(ValueError):
            el.ScalarField(g, vals)

    def test_from_function(self):
        g = make_grid()
        f = el.ScalarField.from_function(g, lambda p: p[..., 0] + p[..., 1])
        assert f.at((0.25, 0.5)) == pytest.approx(0.75)

    def test_shape_mismatch(self):
        g = make_grid()
        with pytest.raises(ValueError):
            el.ScalarField(g, np.zeros((3, 3)))


class TestRegions:
    def test_ball_strict(self):
        g = el.Grid(1, 0.25, (-1.0,), (9,))
        m = el.Ball((0.0,), 1.0).mask(g)
        # nodes at +-1.0 are excluded by the strict inequality
        assert m.sum() == 7

    def test_closed_ball(self):
        g = el.Grid(1, 0.25, (-1.0,), (9,))
        m = el.ClosedBall((0.0,), 1.0).mask(g)
        assert m.sum() == 9

    def test_boundary_distance_of_many_points(self):
        pts = make_grid(1 / 8, 1.0).points()
        for dom in (el.Ball((0.1, 0.0), 0.7), el.ClosedBall((0.0, 0.2), 1.0),
                    el.Cube((0.0, 0.0), 1.5)):
            many = dom.boundary_distance(pts)
            one = [dom.boundary_distance(x) for x in pts]
            np.testing.assert_allclose(many, one, rtol=0, atol=1e-15)

    def test_measure(self):
        g = make_grid(1 / 64, 1.05)
        ball = el.Ball((0.0, 0.0), 1.0)
        assert ball.measure(g) == pytest.approx(math.pi, abs=0.05)

    def test_set_algebra(self):
        g = make_grid(1 / 16, 1.05)
        b = el.Ball((0.0, 0.0), 1.0)
        pts = g.coords()
        lens = (np.sum(pts ** 2, axis=-1) < 1.0) \
            & (np.max(np.abs(pts - 0.5), axis=-1) < 0.5)
        both = b & el.Cube((0.5, 0.5), 1.0)
        assert np.array_equal(lens, both.mask(g))

    def test_level_sets(self):
        g = make_grid()
        f = el.ScalarField.from_function(g, lambda p: p[..., 0])
        sub = el.SubLevel(f, 0.0)
        sup = g.coords()[..., 0] > 0.0
        assert not np.any(sub.mask(g) & sup)
        assert np.all(sub.mask(g) | sup)


class TestNorms:
    def test_oscillation_saddle(self):
        # x1^2 - x2^2 over the closed ball of radius 1/2: range ~ [-1/4, 1/4]
        g = make_grid(1 / 64, 1.05)
        f = el.ScalarField.from_function(
            g, lambda p: p[..., 0] ** 2 - p[..., 1] ** 2)
        osc = el.oscillation(f, el.ClosedBall((0.0, 0.0), 0.5))
        assert osc == pytest.approx(0.5, abs=4 * g.h)

    def test_lp_norm_linear(self):
        # ||x||_{L^2(0,1)} = 1/sqrt(3)
        g = el.Grid(1, 1 / 512, (0.0,), (513,))
        f = el.ScalarField.from_function(g, lambda p: p[..., 0])
        val = _lp(np.abs(f.values), 2.0, g.cell_measure)
        assert val == pytest.approx(1 / math.sqrt(3), abs=2e-3)

    def test_lp_inf(self):
        g = make_grid()
        f = el.ScalarField.from_function(g, lambda p: p[..., 0])
        assert _lp(np.abs(f.values), np.inf, g.cell_measure) == pytest.approx(
            abs(g.origin[0]) if abs(g.origin[0]) > g.upper()[0]
            else g.upper()[0])

    def test_holder_seminorm_sqrt(self):
        # [sqrt|x|]_{C^{0,1/2}} = 1 on (0, 1), attained at the origin
        g = el.Grid(1, 1 / 256, (0.0,), (257,))
        f = el.ScalarField.from_function(g, lambda p: np.sqrt(p[..., 0]))
        s = el.holder_seminorm(f, 0.5)
        assert s == pytest.approx(1.0, abs=1e-6)

    def test_holder_monotone_alpha(self):
        g = el.Grid(1, 1 / 64, (0.0,), (65,))
        f = el.ScalarField.from_function(g, lambda p: np.sqrt(p[..., 0]))
        assert el.holder_seminorm(f, 0.4) <= el.holder_seminorm(f, 0.5) * 2

    def test_weighted_seminorm_smooth(self):
        g = make_grid(1 / 16, 1.05)
        f = el.ScalarField.from_function(g, lambda p: p[..., 0])
        v = el.weighted_seminorm(f, 1.0, 1.0, el.Ball((0.0, 0.0), 1.0))
        # Lipschitz seminorm of a unit-slope plane is 1; weights <= 1/2
        assert 0 < v <= 0.5 + 1e-9

    def test_weighted_seminorm_rejects_negative_beta(self):
        # a negative weight exponent would let a smaller radius win
        g = make_grid(1 / 16, 1.05)
        f = el.ScalarField.from_function(g, lambda p: p[..., 0])
        with pytest.raises(ValueError, match="beta must be at least 0"):
            el.weighted_seminorm(f, 0.5, -0.5, el.Ball((0.0, 0.0), 1.0))

    def test_maximal_dominates(self):
        g = make_grid(1 / 16, 1.05)
        rng = np.random.default_rng(0)
        f = el.ScalarField(g, rng.normal(size=g.counts))
        m = el.hardy_littlewood_maximal(f)
        assert np.all(m.values >= np.abs(f.values) - 1e-12)

    def test_maximal_constant(self):
        g = make_grid(1 / 8, 1.05)
        f = el.ScalarField(g, np.full(g.counts, 3.0))
        m = el.hardy_littlewood_maximal(f)
        assert np.allclose(m.values, 3.0)


# ---------------------------------------------------------------------------
# one distance kernel: the numpy expressions it replaced, kept as oracles


@pytest.mark.parametrize("dim", [1, 2, 3])
class TestSqDist:
    def test_matches_numpy_bit_for_bit(self, dim):
        rng = np.random.default_rng(dim)
        pts = rng.normal(size=(40, 6, dim)) * 10.0 ** rng.integers(
            -3, 4, size=(40, 6, 1))
        for y0 in (rng.normal(size=dim), rng.normal(size=(40, 1, dim)),
                   pts[:, :1], np.zeros(dim)):
            d = pts - y0
            sq = _sq_dist(pts, y0)
            np.testing.assert_array_equal(sq, np.sum(d ** 2, axis=-1))
            np.testing.assert_array_equal(np.sqrt(sq),
                                          np.linalg.norm(d, axis=-1))
        # all pairs of a point set
        p = pts[0]
        np.testing.assert_array_equal(
            np.sqrt(_sq_dist(p[None, :], p[:, None])),
            np.linalg.norm(p[None, :] - p[:, None], axis=-1))

    def test_balls_and_fields_keep_their_values(self, dim):
        g = el.Grid.cover((0.1,) * dim, 1.0, 1 / 16 if dim < 3 else 1 / 8)
        pts = g.coords()
        c = (0.3, -0.2, 0.1)[:dim]
        d2 = np.sum((pts - np.asarray(c)) ** 2, axis=-1)
        eq = np.testing.assert_array_equal
        eq(el.Ball(c, 0.7).mask(g), d2 < 0.7 ** 2)
        eq(el.ClosedBall(c, 0.7).mask(g), d2 <= 0.7 ** 2 * (1 + 1e-12))
        eq(el.Ball(c, 0.7).boundary_distance(pts),
           0.7 - np.linalg.norm(pts - np.asarray(c), axis=-1))
        assert el.Ball(c, 0.7).boundary_distance(pts[(1,) * dim]) == \
            0.7 - np.linalg.norm(pts[(1,) * dim] - np.asarray(c), axis=-1)
        r2 = np.sum(pts ** 2, axis=-1)
        e = np.zeros(dim)
        e[0] = 1.05
        # the suites' closed forms, built from the grid's radius table
        for got, want in (
                (0.5 * 3.0 * g._r2, 1.5 * r2),
                (np.exp(-g._r2 / (2 * 0.6 * 0.6)),
                 np.exp(-r2 / (2 * 0.6 * 0.6))),
                (suites._poisson_kernel_ish(g).values, np.where(
                    r2 < 1, (1.05 ** 2 - r2) / np.sum(
                        (pts - e) ** 2, axis=-1) ** (dim / 2), 0.0)),
                (suites._radial(g, lambda r: r ** 0.5).values,
                 np.maximum(np.sqrt(r2), g.h / 2) ** 0.5)):
            eq(got, want)


# ---------------------------------------------------------------------------
# separable region masks: the coordinate predicates they replaced, kept as
# oracles


def oracle_ball(pts, c, r):
    return _sq_dist(pts, c) < r ** 2


def oracle_closed_ball(pts, c, r):
    return _sq_dist(pts, c) <= r ** 2 * (1 + 1e-12)


def oracle_cube(pts, c, side, closed):
    d = _fold(np.maximum, np.abs(pts - np.asarray(c)))
    half = side / 2
    return d <= half * (1 + 1e-12) if closed else d < half


@pytest.mark.parametrize("h", [1 / 8, 1 / 32, 0.07, 0.0525, 0.0204])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_masks_equal_the_coordinate_predicates(dim, h):
    # a 3-D grid covers a smaller box, so that it stays near 1e5 nodes
    g = el.Grid.cover((0.0,) * dim, 1.0 if dim < 3 else 0.5, h)
    pts = g.coords()
    rng = np.random.default_rng(dim)
    eq = np.testing.assert_array_equal
    # the origin (the cached radius table), a center off the lattice and
    # a node off the origin
    for c in ((0.0,) * dim, tuple(rng.uniform(-0.3, 0.3, dim)),
              tuple(pts[(2,) * dim])):
        sq = _sq_dist(pts, c).ravel()
        # a radius whose square is a node's squared distance: that node
        # is on the sphere, out of the open ball and in the closed one
        exact = np.flatnonzero((np.sqrt(sq) ** 2 == sq) & (sq > 0.04))
        tie = math.sqrt(sq[exact[len(exact) // 2]])
        assert (sq == tie ** 2).any()
        for r in (0.3, 0.45, h, tie):
            eq(el.Ball(c, r).mask(g), oracle_ball(pts, c, r))
            eq(el.ClosedBall(c, r).mask(g), oracle_closed_ball(pts, c, r))
        # a side whose half is a node's distance along the first axis: a
        # face through that node
        face = 2 * abs(pts[(1,) * dim][0] - c[0])
        d = _fold(np.maximum, np.abs(pts - np.asarray(c)))
        assert (d == face / 2).any()
        for side in (0.5, face):
            for closed in (False, True):
                eq(el.Cube(c, side, closed).mask(g),
                   oracle_cube(pts, c, side, closed))


def test_masks_and_radial_fields_build_no_coordinates():
    g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 16)
    for region in (el.Ball((0.0, 0.0), 0.5), el.ClosedBall((0.1, 0.2), 0.5),
                   el.Cube((0.1, 0.0), 0.5, closed=True),
                   el.Ball((0.0, 0.0), 1.0) & el.Cube((0.5, 0.5), 1.0)):
        region.mask(g)
    suites._radial(g, np.sqrt)
    suites._radial(g, np.sqrt, 4 * g.h)
    suites._poisson_kernel_ish(g)
    assert "_coords" not in vars(g)
    # one read-only table per grid, the squared distance from the origin
    table = g._r2
    assert g._r2 is table and not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 1.0
    np.testing.assert_array_equal(table, _sq_dist(g.coords(), np.zeros(2)))
    # the table lives on its grid: an equal grid builds its own
    other = el.Grid.cover((0.0, 0.0), 1.0, 1 / 16)
    assert other == g and "_r2" not in vars(other)


SPECIAL = (-0.0, 0.0, -np.inf, np.inf, np.nan, -np.nan, 1.0, -2.5, 1e308)


class TestFold:
    @pytest.mark.parametrize("ufunc", [np.add, np.multiply, np.maximum,
                                       np.minimum])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_reduce_bit_for_bit(self, ufunc, k):
        # every row of k special values, and random rows over 2-D leading
        # axes; add starts from +0.0 as numpy's does, so a row of -0.0
        # sums to +0.0.  A NaN of maximum or minimum may differ in sign
        rows = np.array(list(itertools.product(SPECIAL, repeat=k)))
        rng = np.random.default_rng(k)
        for x in (rows, rows[::-1].reshape(-1, 3, k),
                  rng.normal(size=(7, 40, k)) * 1e3):
            with np.errstate(invalid="ignore", over="ignore"):
                want = ufunc.reduce(x, axis=-1)
                got = _fold(ufunc, x)
            assert type(got) is type(want)
            assert got.shape == want.shape and got.dtype == want.dtype
            nan = np.isnan(want)
            np.testing.assert_array_equal(np.isnan(got), nan)
            if ufunc in (np.add, np.multiply):
                nan[...] = False
            np.testing.assert_array_equal(got[~nan].view(np.int64),
                                          want[~nan].view(np.int64))
        if ufunc is np.add:
            assert not np.signbit(_fold(np.add, np.full((2, k), -0.0))).any()

    def test_integers_keep_their_dtype(self):
        x = np.random.default_rng(0).integers(-9, 9, size=(5, 4, 3))
        for ufunc in (np.add, np.multiply, np.maximum, np.minimum):
            got = _fold(ufunc, x)
            assert got.dtype == x.dtype
            np.testing.assert_array_equal(got, ufunc.reduce(x, axis=-1))

    def test_leaves_its_input_alone(self):
        x = np.arange(6.0).reshape(2, 3)
        for ufunc in (np.add, np.multiply, np.maximum, np.minimum):
            _fold(ufunc, x)
            _fold(ufunc, x[:, :1])[:] = -1.0
            for row in x:                   # one row: a numpy scalar
                assert type(_fold(ufunc, row)) is np.float64
                assert type(_fold(ufunc, row[:1])) is np.float64
        np.testing.assert_array_equal(x, np.arange(6.0).reshape(2, 3))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_cubes_and_pucci_keep_their_values(self, dim):
        # the call sites, against the reductions they replaced
        rng = np.random.default_rng(dim)
        pts = rng.uniform(-1, 1, size=(50, 4, dim))
        c = rng.uniform(-0.2, 0.2, size=dim)
        d = np.max(np.abs(pts - c), axis=-1)
        eq = np.testing.assert_array_equal
        g = el.Grid.cover((0.0,) * dim, 0.5, 1 / 32 if dim < 3 else 1 / 16)
        dg = np.max(np.abs(g.coords() - c), axis=-1)
        for closed in (False, True):
            eq(el.Cube(tuple(c), 0.5, closed).mask(g),
               dg <= 0.25 * (1 + 1e-12) if closed else dg < 0.25)
        eq(el.Cube(tuple(c), 0.5).boundary_distance(pts), 0.25 - d)
        m = rng.normal(size=(200, dim, dim))
        m = m + np.swapaxes(m, -1, -2)
        m[:5] = 0.0
        e = _sym_eigvals(m)
        ell = el.Ellipticity(0.5, 2.0)
        for op, lo, hi in ((el.pucci_minus, ell.lam, ell.Lam),
                           (el.pucci_plus, ell.Lam, ell.lam)):
            want = (lo * np.clip(e, 0, None)
                    + hi * np.clip(e, None, 0)).sum(axis=-1)
            eq(op(m, ell).view(np.int64), want.view(np.int64))


# ---------------------------------------------------------------------------
# the node-by-node kernels the lattice kernels replaced, kept as oracles


def oracle_maximal(fld):
    g, absu = fld.grid, np.abs(fld.values)
    out, r = absu.copy(), g.h
    while r <= max(g.h * (c - 1) for c in g.counts) * math.sqrt(g.dim):
        k = int(math.floor(r / g.h + 1e-12))
        ax = np.arange(-k, k + 1) * g.h
        r2 = sum(a ** 2 for a in np.meshgrid(*[ax] * g.dim, indexing="ij"))
        ker = (r2 <= r ** 2 * (1 + 1e-12)).astype(float)
        num = ndimage.convolve(absu, ker, mode="constant")
        den = ndimage.convolve(np.ones_like(absu), ker, mode="constant")
        out = np.maximum(out, num / den)
        r *= 2
    return out


def oracle_holder(fld, alpha, region=None):
    g = fld.grid
    m = np.ones(g.counts, bool) if region is None else region.mask(g)
    pts, vals = g.coords()[m], fld.values[m]
    if len(vals) < 2:
        raise ValueError("need at least two nodes")
    best = 0.0
    for i in range(len(vals)):
        d = np.linalg.norm(pts - pts[i], axis=-1)
        d[i] = np.inf
        best = max(best, float(np.nanmax(np.abs(vals - vals[i]) / d ** alpha)))
    return best


def oracle_offsets(fld, alpha):
    """The offset walk that ``holder_seminorm`` was before one pair kernel
    served both seminorms: for each lattice offset ``k`` of a half-space
    the largest jump between two shifted slices of the values, divided by
    ``(h|k|)^alpha`` in Python floats."""
    v = fld.values
    best = 0.0
    for k in itertools.product(range(v.shape[0]),
                               *(range(1 - c, c) for c in v.shape[1:])):
        if k <= (0,) * len(k):      # k = 0 or its first nonzero entry < 0
            continue
        at = tuple(slice(max(0, -j), c - max(0, j))
                   for j, c in zip(k, v.shape))
        to = tuple(slice(max(0, j), c - max(0, -j))
                   for j, c in zip(k, v.shape))
        jump = np.abs(v[to] - v[at]).max()
        best = max(best, jump / (fld.grid.h * math.hypot(*k)) ** alpha)
    return float(best)


def sweep_pair_sup(idx, vals, h, alpha):
    """The all-pairs sweep that ``grid._pair_sup`` was before its tile
    search: blocks of rows of ``_blocks(n, 8 n)``, each compared with
    itself and the rows after it, the diagonal at an infinite distance."""
    best = 0.0
    for blk in _blocks(len(vals), 8 * len(vals)):
        rest = slice(blk.start, None)
        d = h * np.sqrt(_sq_dist(idx[rest][None, :], idx[blk][:, None]))
        np.fill_diagonal(d, np.inf)         # a node paired with itself
        d **= alpha
        np.divide(np.abs(vals[rest][None, :] - vals[blk][:, None]), d, out=d)
        best = max(best, float(d.max()))
    return best


def sweep_holder(fld, alpha):
    """``sweep_pair_sup`` over the nodes of a field."""
    return sweep_pair_sup(np.argwhere(np.ones(fld.grid.counts, bool)),
                          fld.values.ravel(), fld.grid.h, alpha)


def oracle_weighted(fld, alpha, beta, domain):
    g, best = fld.grid, 0.0
    for x0 in g.coords()[domain.mask(g)]:
        r = domain.boundary_distance(x0) / 2.0
        while r >= 2 * g.h:
            try:
                s = oracle_holder(fld, alpha, el.Ball(tuple(x0), r / 2) & domain)
            except ValueError:
                break
            best, r = max(best, r ** beta * s), r / 2.0
    return best


def oracle_case(name):
    rng = np.random.default_rng(7)
    if name == "1d":
        g = el.Grid(1, 1 / 256, (0.0,), (257,))
        return (el.ScalarField(g, np.sqrt(g.coords()[..., 0])
                               + 0.01 * rng.normal(size=g.counts)),
                el.Ball((0.5,), 0.5))
    if name == "2d-holed":
        g = make_grid(1 / 16, 1.0)
        # the domain: B_0.9 minus a closed ball, as a node set
        holed = el.SubLevel(el.ScalarField(g, (~(
            el.Ball((0.0, 0.0), 0.9).mask(g)
            & ~el.ClosedBall((0.1, 0.0), 0.3).mask(g))).astype(float)), 0.0)
        return el.ScalarField(g, rng.normal(size=g.counts)), holed
    g = make_grid(1 / 8, 0.5, dim=3)
    vals = np.cos(3 * g.coords()).sum(axis=-1) + 0.1 * rng.normal(size=g.counts)
    return el.ScalarField(g, vals), el.Ball((0.0,) * 3, 0.75)


@pytest.mark.parametrize("case", ["1d", "2d-holed", "3d"])
class TestLatticeKernelsMatchOracles:
    def test_maximal(self, case):
        fld = oracle_case(case)[0]
        m = el.hardy_littlewood_maximal(fld).values
        np.testing.assert_allclose(m, oracle_maximal(fld), rtol=1e-12, atol=0)
        assert np.all(m >= np.abs(fld.values))

    def test_holder(self, case):
        fld = oracle_case(case)[0]
        for a in (0.25, 0.5, 1.0):
            s = el.holder_seminorm(fld, a)
            assert s == sweep_holder(fld, a)
            assert s == pytest.approx(oracle_holder(fld, a), rel=1e-12, abs=0)
            # the offset walk rounds d^alpha with Python's float ** and the
            # pair kernel with numpy's array power: 1 ulp apart at most
            assert s == pytest.approx(oracle_offsets(fld, a),
                                      rel=1e-15, abs=0)

    def test_weighted(self, case):
        # the oracle takes every radius of the schedule; the kernel takes
        # the first alone, which attains the supremum for beta >= 0
        fld, domain = oracle_case(case)
        if case == "2d-holed":
            # a node set has no analytic boundary distance
            with pytest.raises(ValueError, match="no analytic boundary"):
                el.weighted_seminorm(fld, 0.5, 0.5, domain)
            return
        for alpha, beta in ((0.25, 0.0), (0.5, 0.5), (0.5, 1.0), (1.0, 2.0)):
            assert el.weighted_seminorm(fld, alpha, beta, domain) == \
                oracle_weighted(fld, alpha, beta, domain)


def test_holder_exhaustive_above_20k_nodes():
    # 22,801 nodes; a stride-2 thinning of the anchors skips both nodes
    g = el.Grid.cover((0.0, 0.0), 0.5, 1 / 150)
    u = np.zeros(g.counts)
    u[0, 1], u[1, 2] = 1.0, -1.0
    s = el.holder_seminorm(el.ScalarField(g, u), 0.5)
    assert s == 2 / (math.sqrt(2) * g.h) ** 0.5


def benchmark_norm_fields(seed):
    """The fields of the analysis-kernels workload's norm tasks, n = 33
    and 65, for one input set."""
    rng = workloads._rng(seed, 2)
    for n in (33, 65):
        g = el.Grid.cover((0.0, 0.0), 1.0, 2.0 / (n - 1))
        yield el.ScalarField(g, workloads._cosine_field(rng, g.coords()))


@pytest.mark.parametrize("seed", range(4))
def test_holder_on_the_benchmark_fields_matches_the_offset_walk(seed):
    for fld in benchmark_norm_fields(seed):
        assert el.holder_seminorm(fld, 0.5) == pytest.approx(
            oracle_offsets(fld, 0.5), rel=1e-15, abs=0)


# ---------------------------------------------------------------------------
# the tile search of the Hölder seminorm against the all-pairs sweep, exact


def cosine_field(n, seed=3):
    """The envelope-fields cosine field of an input set on
    ``Grid.cover(0, 1, 2/(n-1))``."""
    g = el.Grid.cover((0.0, 0.0), 1.0, 2.0 / (n - 1))
    return el.ScalarField(
        g, workloads._cosine_field(workloads._rng(seed, 1), g.coords()))


def count_quotient_calls(monkeypatch):
    calls = []

    def counted(sq, *args):
        calls.append(sq.shape)
        return _quotients(sq, *args)
    monkeypatch.setattr(grid_mod, "_quotients", counted)
    return calls


@pytest.mark.parametrize("seed", range(8))
def test_holder_equals_the_sweep_on_the_benchmark_fields(seed):
    for fld in benchmark_norm_fields(seed):
        for a in (0.25, 0.5, 1.0):
            assert el.holder_seminorm(fld, a) == sweep_holder(fld, a)


def test_holder_equals_the_sweep_at_n129():
    fld = cosine_field(129)
    assert el.holder_seminorm(fld, 0.5) == sweep_holder(fld, 0.5)


def test_holder_of_a_constant_prunes_every_tile(monkeypatch):
    g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 16)
    fld = el.ScalarField(g, np.full(g.counts, 2.5))
    calls = count_quotient_calls(monkeypatch)
    assert el.holder_seminorm(fld, 0.5) == 0.0
    assert calls == []


HOLDER_FIELDS = {
    "gaussian-noise": lambda g, rng: rng.normal(size=g.counts),
    # values on a coarse ladder: equal differences, and equal bounds, in
    # many tile pairs
    "quantized-plateau": lambda g, rng: np.round(
        4 * np.clip(workloads._cosine_field(rng, 3 * g.coords()), -0.2,
                    0.2)) / 4,
    # the two nodes 1 and -1, diagonal neighbours, share a tile
    "best-inside-a-tile": lambda g, rng: np.where(
        (np.indices(g.counts) == grid_mod._TILE + 1).all(axis=0), 1.0,
        np.where((np.indices(g.counts) == grid_mod._TILE + 2).all(axis=0),
                 -1.0, 0.0)),
    # x + y: for alpha < 1 the best pair holds the opposite corners
    "best-across-corners": lambda g, rng: g.coords().sum(axis=-1),
}


@pytest.mark.parametrize("name", sorted(HOLDER_FIELDS))
def test_holder_equals_the_sweep_on_hard_fields(name):
    rng = np.random.default_rng(11)
    g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 24)
    fld = el.ScalarField(g, HOLDER_FIELDS[name](g, rng))
    for a in (0.25, 0.5, 1.0):
        assert el.holder_seminorm(fld, a) == sweep_holder(fld, a)
    if name == "best-inside-a-tile":
        assert el.holder_seminorm(fld, 0.5) == \
            2 / (g.h * math.sqrt(2)) ** 0.5
    if name == "best-across-corners":
        # |(1, 1) - (-1, -1)| = 2 sqrt 2 and the values differ by 4
        assert el.holder_seminorm(fld, 0.5) == pytest.approx(2 ** 1.25,
                                                             rel=1e-12)


def test_holder_equals_the_sweep_with_partial_and_empty_tiles():
    # the pair kernel over a scattered subset of the nodes
    rng = np.random.default_rng(5)
    g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 24)
    keep = rng.random(g.counts) < 0.6
    keep[8:30, 12:40] = False               # whole tiles left empty
    keep[:3] = False
    idx = np.argwhere(keep)
    vals = workloads._cosine_field(rng, g.coords())[keep]
    for a in (0.25, 0.5, 1.0):
        assert grid_mod._pair_sup(idx, vals, g.h, a) == \
            sweep_pair_sup(idx, vals, g.h, a)


@pytest.mark.parametrize("seed", range(3))
def test_tile_bounds_hold_every_pair(seed):
    # the bound of a tile pair, times 1 + kappa 2^-52, is at least every
    # quotient of its node pairs, as _pair_sup's docstring derives
    rng = np.random.default_rng(seed)
    g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 16)
    vals = rng.normal(size=g.counts) + workloads._cosine_field(
        rng, 4 * g.coords())
    idx = np.argwhere(np.ones(g.counts, bool))
    v = vals.ravel()
    tiles = grid_mod._tiles(idx, v)
    members = tiles[0]
    n_tiles = len(members)
    c = 1 + grid_mod._KAPPA * np.finfo(float).eps
    for a in (0.25, 0.5, 1.0):
        bound = grid_mod._tile_bounds(slice(0, n_tiles), tiles, g.h, a)
        for t in range(n_tiles):
            sq = _sq_dist(idx[members][t:, None, :],
                          idx[members[t]][None, :, None])
            np.maximum(sq, 1, out=sq)
            q = _quotients(sq, v[members[t]][None, :, None],
                           v[members][t:, None, :], g.h, a)
            assert np.all(q.max(axis=(1, 2)) <= bound[t, t:] * c)
            assert np.all(bound[t, :t] == 0)


def test_holder_in_many_bound_blocks_and_batches(monkeypatch):
    # small blocks split the bound table of the tile pairs and the
    # batches of node pairs into many pieces
    fld = cosine_field(65)
    want = sweep_holder(fld, 0.5)
    tiles = len(grid_mod._tiles(np.argwhere(np.ones(fld.grid.counts, bool)),
                                fld.values.ravel())[0])
    seen = {}

    def blocks(count, width):
        out = list(_blocks(count, width))
        seen.setdefault("bounds" if width == 8 * tiles else "batches",
                        []).append(len(out))
        return out
    monkeypatch.setattr(grid_mod, "_BLOCK", 1 << 12)
    monkeypatch.setattr(grid_mod, "_blocks", blocks)
    calls = count_quotient_calls(monkeypatch)
    assert el.holder_seminorm(fld, 0.5) == want
    assert seen["bounds"] == [len(list(_blocks(tiles, 8 * tiles)))]
    assert seen["bounds"][0] > 1
    assert max(seen["batches"]) > 1
    # some block evaluates more than one batch
    assert len(calls) > len(seen["batches"])


# ---------------------------------------------------------------------------
# the weighted seminorm's window rows against the per-ball sweep, exact


def loop_weighted(fld, alpha, beta, domain):
    """The per-ball sweep that ``weighted_seminorm`` replaced: one ball per
    center, its node pairs in row blocks, each row against itself and the
    rows after it, by ``_quotients``."""
    grid = fld.grid
    coords = grid.coords()
    m = domain.mask(grid)
    centers = coords[m]
    dists = domain.boundary_distance(centers)
    best = -np.inf
    for idx, x0, d in zip(np.argwhere(m), centers, dists):
        r = d / 2.0
        if r < 2 * grid.h:
            continue
        w = int(r / 2.0 / grid.h) + 1
        win = tuple(slice(max(0, i - w), i + w + 1) for i in idx)
        sub = (_sq_dist(coords[win], x0) < (r / 2.0) ** 2) & m[win]
        if np.count_nonzero(sub) < 2:
            continue
        ids, v = np.argwhere(sub), fld.values[win][sub]
        s = 0.0
        for blk in _blocks(len(v), 8 * len(v)):
            rest = slice(blk.start, None)
            sq = _sq_dist(ids[None, rest], ids[blk, None])
            np.fill_diagonal(sq, 1)
            s = max(s, float(_quotients(sq, v[blk, None], v[None, rest],
                                        grid.h, alpha).max()))
        best = max(best, r ** beta * s)
    if best < 0:
        raise ValueError("no interior ball of radius >= 2h fits the schedule")
    return float(best)


WEIGHTS = ((0.25, 0.0), (0.5, 0.5), (1.0, 2.0))


@pytest.mark.parametrize("seed", range(3))
def test_weighted_equals_the_loop_on_the_benchmark_fields(seed):
    domain = el.Ball((0.0, 0.0), 0.75)
    for fld in benchmark_norm_fields(seed):
        for alpha, beta in WEIGHTS:
            assert el.weighted_seminorm(fld, alpha, beta, domain) == \
                loop_weighted(fld, alpha, beta, domain)


def test_weighted_equals_the_loop_with_clipped_windows():
    # B_1.2(0.3, -0.2) reaches past the grid's edge, so the windows of
    # the centers near it are cut off by the grid
    g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 16)
    fld = el.ScalarField(g, np.random.default_rng(5).normal(size=g.counts))
    domain = el.Ball((0.3, -0.2), 1.2)
    m = domain.mask(g)
    r = domain.boundary_distance(g.coords()[m]) / 2
    reach = np.abs(g.coords()[m]).max(axis=-1) + r / 2
    assert np.any((r >= 2 * g.h) & (reach > 1.0))
    for alpha, beta in WEIGHTS:
        assert el.weighted_seminorm(fld, alpha, beta, domain) == \
            loop_weighted(fld, alpha, beta, domain)


def test_weighted_equals_the_loop_with_balls_of_one_node():
    # in B_6h the centers at 2h from the origin have r = 2h, so their
    # B_h holds the center alone and is skipped; in B_4h every ball is
    g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 32)
    fld = el.ScalarField(g, np.random.default_rng(6).normal(size=g.counts))
    domain = el.Ball((0.0, 0.0), 6 * g.h)
    for alpha, beta in WEIGHTS:
        assert el.weighted_seminorm(fld, alpha, beta, domain) == \
            loop_weighted(fld, alpha, beta, domain)
    for weighted in (el.weighted_seminorm, loop_weighted):
        with pytest.raises(ValueError, match="no interior ball"):
            weighted(fld, 0.5, 0.5, el.Ball((0.0, 0.0), 4 * g.h))


def test_weighted_in_many_parts_and_row_blocks(monkeypatch):
    # small blocks split each window's balls into parts and each part's
    # offset pairs into blocks of rows
    fld = cosine_field(33)
    domain = el.Ball((0.0, 0.0), 0.75)
    want = loop_weighted(fld, 0.5, 0.5, domain)
    parts, row_blocks = [], []
    window_columns, distance_power = grid_mod._window_columns, \
        grid_mod._distance_power

    def columns_of(fld, m, centers, r, w):
        parts.append(w)
        return window_columns(fld, m, centers, r, w)

    def powers(sq, h, alpha):
        row_blocks.append(len(parts))
        return distance_power(sq, h, alpha)
    monkeypatch.setattr(grid_mod, "_BLOCK", 1 << 10)
    monkeypatch.setattr(grid_mod, "_window_columns", columns_of)
    monkeypatch.setattr(grid_mod, "_distance_power", powers)
    assert el.weighted_seminorm(fld, 0.5, 0.5, domain) == want
    # a window's balls in several parts, and a part's pairs in several
    # blocks of rows
    assert len(parts) > len(set(parts)) > 1
    assert len(row_blocks) > len(set(row_blocks))


# the transforms of np.fft, and the name of the parameter of their lengths
FFTS = {name: "n" for name in ("fft", "ifft", "rfft", "irfft", "hfft",
                                "ihfft")} | {
    name: "s" for name in ("fft2", "ifft2", "rfft2", "irfft2", "fftn",
                           "ifftn", "rfftn", "irfftn")}


def fft_lengths(monkeypatch) -> list[int]:
    """Record the length of every axis that a transform of ``np.fft``
    takes, in calls through the module's attributes: the ``n`` or ``s``
    given, else the input's own (``2 (m - 1)`` on the last axis of an
    inverse real transform, as numpy takes it)."""
    lengths = []

    def spying(name, fn):
        sig = inspect.signature(fn)

        def spy(*args, **kwargs):
            got = sig.bind(*args, **kwargs)
            got.apply_defaults()
            got = got.arguments
            shape = np.shape(got["a"])
            axes = [got["axis"]] if FFTS[name] == "n" else list(
                range(-len(shape), 0) if got["axes"] is None
                else got["axes"])
            given = got[FFTS[name]]
            if given is None:
                given = [shape[a] for a in axes]
                if name in ("irfft", "hfft", "irfft2", "irfftn"):
                    given[-1] = 2 * (given[-1] - 1)
            lengths.extend(np.atleast_1d(given).tolist())
            return fn(*args, **kwargs)
        return spy

    for name in FFTS:
        monkeypatch.setattr(np.fft, name, spying(name, getattr(np.fft, name)))
    return lengths


def largest_prime_factor(n: int) -> int:
    p, big = 2, 1
    while n > 1:
        while n % p == 0:
            n, big = n // p, p
        p += 1
    return big


def test_the_fft_spy_sees_default_and_given_lengths(monkeypatch):
    lengths = fft_lengths(monkeypatch)
    x = np.ones((6, 7))
    np.fft.rfft(x, n=10, axis=0)
    np.fft.irfft(np.fft.rfft(x))
    np.fft.rfftn(x, (8, 9), (0, 1))
    np.fft.irfftn(np.ones((5, 4)))
    assert lengths == [10, 7, 6, 8, 9, 5, 6]


def test_every_fft_length_is_five_smooth(monkeypatch, tmp_path, capsys):
    # verify full's solves and the analysis-kernels maximal functions at
    # n = 33 and 65, whose unpadded lengths c + 2k include 67, 73, 97 and
    # 193
    lengths = fft_lengths(monkeypatch)
    from ellipticlab.cli import main
    main(["verify", "full", "--out", str(tmp_path / "full.json")])
    capsys.readouterr()
    solves = len(lengths)
    for fld in benchmark_norm_fields(0):
        el.hardy_littlewood_maximal(fld)
    assert 0 < solves < len(lengths)
    assert sorted({n for n in lengths if largest_prime_factor(n) > 5}) == []
