import math

import numpy as np
import pytest
from scipy import ndimage
from scipy.spatial import cKDTree

import ellipticlab as el
from ellipticlab.grid import _lp


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

    def test_shrink(self):
        g = make_grid(1 / 8, 1.0)
        s = g.shrink(2)
        assert s.counts == tuple(c - 4 for c in g.counts)
        assert s.origin[0] == pytest.approx(g.origin[0] + 2 * g.h)

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
        r2 = np.sum(g.coords() ** 2, axis=-1)
        ann = (r2 >= 0.5 ** 2) & (r2 < 1.0)
        diff = b - el.Ball((0.0, 0.0), 0.5)
        assert np.array_equal(ann, diff.mask(g))

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
    m = m if fld.mask is None else m & fld.mask
    pts, vals = g.coords()[m], fld.values[m]
    if len(vals) < 2:
        raise ValueError("need at least two nodes")
    best = 0.0
    for i in range(len(vals)):
        d = np.linalg.norm(pts - pts[i], axis=-1)
        d[i] = np.inf
        best = max(best, float(np.nanmax(np.abs(vals - vals[i]) / d ** alpha)))
    return best


def oracle_weighted(fld, alpha, beta, domain):
    g, best = fld.grid, 0.0
    m = domain.mask(g) if fld.mask is None else domain.mask(g) & fld.mask
    tree = cKDTree(g.coords()[~domain.mask(g)])
    for x0 in g.coords()[m]:
        d = domain.boundary_distance(x0)
        r = (tree.query(x0)[0] if d is None else d) / 2.0
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
                None, el.Ball((0.5,), 0.5))
    if name == "2d-holed":
        g = make_grid(1 / 16, 1.0)
        holed = el.Ball((0.0, 0.0), 0.9) - el.ClosedBall((0.1, 0.0), 0.3)
        mask = ~el.ClosedBall((-0.4, 0.3), 0.2).mask(g)
        vals = np.where(mask, rng.normal(size=g.counts), 50.0)
        return el.ScalarField(g, vals, mask=mask), holed, holed
    g = make_grid(1 / 8, 0.5, dim=3)
    vals = np.cos(3 * g.coords()).sum(axis=-1) + 0.1 * rng.normal(size=g.counts)
    return (el.ScalarField(g, vals), el.Ball((0.0,) * 3, 0.45),
            el.Ball((0.0,) * 3, 0.75))


@pytest.mark.parametrize("case", ["1d", "2d-holed", "3d"])
class TestLatticeKernelsMatchOracles:
    def test_maximal(self, case):
        fld = oracle_case(case)[0]
        m = el.hardy_littlewood_maximal(fld).values
        np.testing.assert_allclose(m, oracle_maximal(fld), rtol=1e-12, atol=0)
        assert np.all(m >= np.abs(fld.values))

    def test_holder(self, case):
        fld, region, _ = oracle_case(case)
        for a in (0.5, 1.0):
            assert el.holder_seminorm(fld, a, region) == pytest.approx(
                oracle_holder(fld, a, region), rel=1e-12, abs=0)

    def test_weighted(self, case):
        fld, _, domain = oracle_case(case)
        assert el.weighted_seminorm(fld, 0.5, 0.5, domain) == pytest.approx(
            oracle_weighted(fld, 0.5, 0.5, domain), rel=1e-12, abs=0)


def test_holder_exhaustive_above_20k_nodes():
    # 22,801 nodes; a stride-2 thinning of the anchors skips both nodes
    g = el.Grid.cover((0.0, 0.0), 0.5, 1 / 150)
    u = np.zeros(g.counts)
    u[0, 1], u[1, 2] = 1.0, -1.0
    s = el.holder_seminorm(el.ScalarField(g, u), 0.5)
    assert s == 2 / (math.sqrt(2) * g.h) ** 0.5


class TestFieldIO:
    def test_roundtrip_json(self, tmp_path):
        g = make_grid(1 / 8)
        f = el.ScalarField.from_function(g, lambda p: p[..., 0] * p[..., 1],
                                         name="xy")
        path = tmp_path / "f.json"
        el.write_field(f, path)
        f2 = el.read_field(path)
        assert f2.name == "xy"
        assert f2.grid == g
        np.testing.assert_array_equal(f.values, f2.values)

    def test_roundtrip_binary(self, tmp_path):
        g = make_grid(1 / 8)
        rng = np.random.default_rng(1)
        f = el.ScalarField(g, rng.normal(size=g.counts))
        path = tmp_path / "f.json"
        el.write_field(f, path, binary=True)
        f2 = el.read_field(path)
        np.testing.assert_array_equal(f.values, f2.values)

    def test_mask_roundtrip(self, tmp_path):
        g = make_grid(1 / 8)
        mask = np.zeros(g.counts, dtype=bool)
        mask[2:, :] = True
        f = el.ScalarField(g, np.ones(g.counts), mask=mask)
        path = tmp_path / "f.json"
        el.write_field(f, path)
        f2 = el.read_field(path)
        np.testing.assert_array_equal(f.mask, f2.mask)
