from fractions import Fraction as F

import numpy as np
import pytest

import ellipticlab as el
from ellipticlab.coverings import (BallCollection, BoxRegion, CellUnion,
                                   Cylinder, DyadicCube, ExactRegion,
                                   cz_selection, dyadic_decomposition,
                                   ink_spots_check, stacking, sun_rising,
                                   vitali_select)


def balls(centers, radii) -> BallCollection:
    """Balls with the rationals nearest the float centers and radii."""
    return BallCollection(
        tuple(tuple(F(x).limit_denominator(10 ** 12) for x in c)
              for c in centers),
        tuple(F(r).limit_denominator(10 ** 12) for r in radii))


def parent(c: DyadicCube) -> DyadicCube:
    return DyadicCube(c.gen - 1, tuple(i // 2 for i in c.idx))


class CellUnionOracle(ExactRegion):
    """Oracle: the cube predicates of ``CellUnion`` as they were written
    before one ``_block`` served all three, each finding the cell that
    holds a finer cube on its own."""

    def __init__(self, depth, cells):
        self.depth = depth
        self.cells = np.asarray(cells, dtype=bool)
        self.dim = self.cells.ndim

    def _block(self, cube):
        if cube.gen > self.depth:
            raise ValueError("cube finer than the cell resolution")
        shift = self.depth - cube.gen
        sl = tuple(slice(i << shift, (i + 1) << shift) for i in cube.idx)
        return self.cells[sl]

    def contains_cube(self, cube):
        if cube.gen > self.depth:
            c = DyadicCube(self.depth,
                           tuple(i >> (cube.gen - self.depth)
                                 for i in cube.idx))
            return bool(self._block(c).all())
        return bool(self._block(cube).all())

    def intersects_cube(self, cube):
        if cube.gen > self.depth:
            return self.contains_cube(cube) or bool(self._block(
                DyadicCube(self.depth, tuple(i >> (cube.gen - self.depth)
                                             for i in cube.idx))).any())
        return bool(self._block(cube).any())

    def measure_in_cube(self, cube):
        if cube.gen > self.depth:
            coarse = DyadicCube(self.depth,
                                tuple(i >> (cube.gen - self.depth)
                                      for i in cube.idx))
            return cube.measure if self._block(coarse).all() else F(0)
        cnt = int(self._block(cube).sum())
        return cnt * F(1, (1 << self.depth) ** self.dim)


def dyadic_cubes(dim, max_gen):
    """Every dyadic cube of generation at most ``max_gen``."""
    for gen in range(max_gen + 1):
        for idx in np.ndindex(*(1 << gen,) * dim):
            yield DyadicCube(gen, tuple(int(i) for i in idx))


class TestDyadicCube:
    def test_geometry(self):
        root = DyadicCube(0, (0, 0))
        assert root.side == 1
        assert root.measure == 1
        assert root.interval(0) == (F(-1, 2), F(1, 2))
        assert root.center() == (0, 0)

    def test_children_partition(self):
        c = DyadicCube(1, (1, 0))
        kids = c.children()
        assert len(kids) == 4
        assert sum(k.measure for k in kids) == c.measure
        assert all(c.contains_cube(k) for k in kids)
        assert all(parent(k) == c for k in kids)

    def test_containment(self):
        a = DyadicCube(1, (0,))
        b = DyadicCube(3, (2,))
        assert a.contains_cube(b)
        assert not b.contains_cube(a)
        assert not DyadicCube(1, (1,)).contains_cube(b)

    def test_validation(self):
        with pytest.raises(ValueError):
            DyadicCube(1, (2,))


class TestExactRegions:
    def test_box_half_open(self):
        # (0, 1/2] along one axis
        reg = BoxRegion(((F(0), F(1, 2), True, False),))
        assert reg.measure == F(1, 2)
        # [0, 1/2] cube not contained (0 excluded), [1/4, 1/2] contained
        assert not reg.contains_cube(DyadicCube(1, (1,)))
        assert reg.contains_cube(DyadicCube(2, (3,)))
        assert reg.intersects_cube(DyadicCube(1, (1,)))
        assert not reg.intersects_cube(DyadicCube(1, (0,)))
        assert reg.measure_in_cube(DyadicCube(1, (1,))) == F(1, 2)

    def test_cell_union_measures(self):
        cells = np.zeros((4, 4), dtype=bool)
        cells[0, 0] = True
        cells[3, 3] = True
        reg = CellUnion(2, cells)
        assert reg.measure == F(2, 16)
        assert reg.contains_cube(DyadicCube(2, (0, 0)))
        assert not reg.contains_cube(DyadicCube(1, (0, 0)))
        assert reg.measure_in_cube(DyadicCube(1, (0, 0))) == F(1, 16)


    @pytest.mark.parametrize("dim,depths", [(1, (1, 4)), (2, (1, 3)),
                                             (3, (1, 2))])
    def test_cell_union_matches_oracle(self, dim, depths):
        rng = np.random.default_rng(dim)
        for _ in range(10):
            depth = int(rng.integers(depths[0], depths[1] + 1))
            cells = rng.random((1 << depth,) * dim) < rng.uniform(0.2, 0.9)
            new, old = CellUnion(depth, cells), CellUnionOracle(depth, cells)
            for cube in dyadic_cubes(dim, depth + 2):
                hit, mass = new.intersects_cube(cube), new.measure_in_cube(cube)
                assert new.contains_cube(cube) == old.contains_cube(cube)
                assert hit == old.intersects_cube(cube)
                assert mass == old.measure_in_cube(cube)
                assert hit == (mass > 0)
        # boxes that touch a cube in a null set: a closed half against the
        # other closed half, and a point
        for box in (BoxRegion.from_bounds([(F(-1, 2), F(0))] * dim),
                    BoxRegion.from_bounds([(F(0), F(0))] * dim),
                    BoxRegion.from_bounds([(F(-1, 4), F(0))] * (dim - 1)
                                          + [(F(0), F(0))])):
            for cube in dyadic_cubes(dim, 3):
                assert box.intersects_cube(cube) == (
                    box.measure_in_cube(cube) > 0)
        if dim == 1:
            right = DyadicCube(1, (1,))         # [0, 1/2]
            left = BoxRegion.from_bounds([(F(-1, 2), F(0))])
            assert not left.intersects_cube(right)
            assert not CellUnion(1, [True, False]).intersects_cube(right)


class TestDyadicDecomposition:
    def test_half_open_interval(self):
        # maximal cubes in (0, 1/2] at depth 8: one per generation 2..8
        reg = BoxRegion(((F(0), F(1, 2), True, False),))
        dec = dyadic_decomposition(reg, max_depth=8)
        gens = sorted(c.gen for c in dec.cubes)
        assert gens == list(range(2, 9))
        for c in dec.cubes:
            assert c.idx[0] == (1 << (c.gen - 1)) + 1
        assert dec.residual == F(1, 256)
        assert dec.covered + dec.residual == reg.measure

    def test_full_cube(self):
        dec = dyadic_decomposition(
            BoxRegion.from_bounds([(-0.5, 0.5)] * 2), max_depth=5)
        assert len(dec.cubes) == 1
        assert dec.cubes[0].gen == 0
        assert dec.residual == 0

    def test_disjointness_and_maximality(self):
        rng = np.random.default_rng(0)
        cells = rng.random((8, 8)) < 0.5
        reg = CellUnion(3, cells)
        dec = dyadic_decomposition(reg, max_depth=6)
        for i, a in enumerate(dec.cubes):
            assert reg.contains_cube(a)
            assert a.gen == 0 or not reg.contains_cube(parent(a))
            for b in dec.cubes[i + 1:]:
                assert not a.contains_cube(b) and not b.contains_cube(a)
        assert dec.covered + dec.residual == reg.measure


class TestCZ:
    def test_density_threshold(self):
        # F occupies the left half: selected cubes have density > 3/4
        reg = BoxRegion.from_bounds([(F(-1, 2), F(0)),
                                     (F(-1, 2), F(1, 2))])
        dec = cz_selection(reg, eta=F(1, 4), max_depth=6)
        for c in dec.cubes:
            assert reg.measure_in_cube(c) > F(3, 4) * c.measure
            p = parent(c)
            assert reg.measure_in_cube(p) <= F(3, 4) * p.measure
        assert dec.covered >= reg.measure - dec.residual - F(1, 2)

    def test_mass_accounting(self):
        rng = np.random.default_rng(1)
        cells = rng.random((16,)) < 0.4
        reg = CellUnion(4, cells)
        dec = cz_selection(reg, eta=F(1, 3), max_depth=4)
        selected_mass = sum(reg.measure_in_cube(c) for c in dec.cubes)
        assert selected_mass + dec.residual == reg.measure

    def test_root_guard(self):
        with pytest.raises(ValueError):
            cz_selection(BoxRegion.from_bounds([(-0.5, 0.5)]), eta=F(1, 2),
                         max_depth=3)


class TestVitali:
    def test_disjoint_and_covering(self):
        rng = np.random.default_rng(2)
        centers = rng.uniform(-0.4, 0.4, size=(40, 2))
        radii = rng.uniform(0.02, 0.15, size=40)
        coll = balls(centers, radii)
        sel = vitali_select(coll)
        rep = sel.check()
        assert rep.passed
        # exact pairwise disjointness of the selected balls
        picks = sel.selected
        for i in range(len(picks)):
            for j in range(i + 1, len(picks)):
                ci, ri = coll.centers[picks[i]], coll.radii[picks[i]]
                cj, rj = coll.centers[picks[j]], coll.radii[picks[j]]
                d2 = sum((a - b) ** 2 for a, b in zip(ci, cj))
                assert d2 >= (ri + rj) ** 2

    def test_greedy_order(self):
        coll = balls([[0.0, 0.0], [0.05, 0.0]], [0.1, 0.3])
        sel = vitali_select(coll)
        assert sel.selected == [1]


class TestStacking:
    def test_single_cylinder(self):
        cyl = Cylinder(DyadicCube(1, (0,)), F(1, 4))
        rep = stacking([cyl], m=3)
        assert rep.passed
        # single cylinder: stack mass is exactly m/(m+1) of combined mass
        assert rep.lhs == pytest.approx(rep.rhs)

    def test_overlapping_stacks(self):
        cyls = [Cylinder(DyadicCube(2, (0,)), F(1, 16)),
                Cylinder(DyadicCube(2, (0,)), F(2, 16)),
                Cylinder(DyadicCube(2, (1,)), F(0))]
        rep = stacking(cyls, m=2)
        assert rep.passed

    def test_nested_cubes(self):
        rng = np.random.default_rng(3)
        cyls = []
        for _ in range(30):
            gen = int(rng.integers(1, 4))
            idx = int(rng.integers(0, 1 << gen))
            t = F(int(rng.integers(0, 4 ** gen // 2)), 4 ** gen)
            cyls.append(Cylinder(DyadicCube(gen, (idx,)), t))
        rep = stacking(cyls, m=4)
        assert rep.passed

    def test_lattice_validation(self):
        with pytest.raises(ValueError):
            Cylinder(DyadicCube(2, (0,)), F(1, 32))


class TestSunRising:
    def test_steep_sun_all_sunny(self):
        # m above the slope of u: every point dominates its right tail
        g = el.Grid(1, 1 / 128, (0.0,), (129,))
        f = el.ScalarField.from_function(g, lambda p: p[..., 0])
        shaded, rep = sun_rising(f, m=2.0)
        assert not shaded.any()
        assert rep.passed

    def test_shallow_sun_all_shaded(self):
        # m below the slope: each node is dominated by nodes to its right
        g = el.Grid(1, 1 / 128, (0.0,), (129,))
        f = el.ScalarField.from_function(g, lambda p: p[..., 0])
        shaded, rep = sun_rising(f, m=0.5)
        assert shaded[:-1].all()
        assert not shaded[-1]
        assert rep.passed  # osc/m = 2 covers the whole interval

    def test_bound_on_monotone_fields(self):
        # the shaded-measure bound is sharp for monotone profiles
        g = el.Grid(1, 1 / 512, (0.0,), (513,))
        rng = np.random.default_rng(4)
        vals = np.cumsum(np.abs(rng.normal(size=513))) * g.h
        f = el.ScalarField(g, vals)
        for m in (0.3, 1.0, 4.0):
            _, rep = sun_rising(f, m=m)
            assert rep.passed

    def test_sine_at_steep_slope(self):
        g = el.Grid(1, 1 / 1024, (0.0,), (1025,))
        f = el.ScalarField.from_function(
            g, lambda p: np.sin(2 * np.pi * p[..., 0]))
        _, rep = sun_rising(f, m=20.0)
        assert rep.passed
        assert rep.lhs <= 0.1 + 2 * g.h

    def test_slope_inclusion(self):
        # nodes whose forward slope exceeds m are shaded
        g = el.Grid(1, 1 / 256, (0.0,), (257,))
        rng = np.random.default_rng(5)
        vals = np.cumsum(rng.normal(size=257)) * g.h
        f = el.ScalarField(g, vals)
        m = 0.7
        shaded, _ = sun_rising(f, m=m)
        fwd = (vals[1:] - vals[:-1]) / g.h
        assert shaded[:-1][fwd > m].all()

    def test_matches_suffix_loop(self):
        # the suffix maximum as a Python loop, before np.maximum.accumulate
        rng = np.random.default_rng(4)
        g = el.Grid(1, 1 / 64, (0.0,), (65,))
        for m in (0.5, 2.0, 8.0):
            f = el.ScalarField(g, rng.normal(size=65))
            w = f.values - m * g.axes()[0]
            suff = np.empty_like(w)
            suff[-1] = -np.inf
            for i in range(len(w) - 2, -1, -1):
                suff[i] = max(suff[i + 1], w[i + 1])
            shaded, _ = sun_rising(f, m)
            np.testing.assert_array_equal(shaded, w < suff)

    def test_validation(self):
        g = el.Grid(1, 1 / 8, (0.0,), (9,))
        f = el.ScalarField(g, np.zeros(9))
        with pytest.raises(ValueError):
            sun_rising(f, m=0.0)


class TestInkSpots:
    def test_records_how_much_hypothesis_was_tested(self):
        # the coverings suite's inputs: 200 draws with replacement hit 198
        # distinct nodes, and only 19 of the balls have a core meeting F
        g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 48)
        rep = ink_spots_check(el.Ball((0.0, 0.0), 0.5),
                              el.Ball((0.0, 0.0), 0.1), g, eta=0.3)
        assert rep.passed
        assert rep.constants["n_sample"] == 200
        assert rep.constants["n_distinct"] == 198
        assert rep.constants["n_tested"] == 19
