import importlib.util
import json
import sys
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

import ellipticlab as el
from ellipticlab.coverings import (BallCollection, BoxRegion, CellUnion,
                                   Cylinder, DyadicCube, ExactRegion,
                                   _children, cz_selection,
                                   dyadic_decomposition, ink_spots_check,
                                   stacking, sun_rising, vitali_select)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_workloads():
    spec = importlib.util.spec_from_file_location(
        "workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("workloads", module)
    spec.loader.exec_module(module)
    return module


workloads = load_workloads()


def balls(centers, radii) -> BallCollection:
    """Balls with the rationals nearest the float centers and radii."""
    return BallCollection(
        tuple(tuple(F(x).limit_denominator(10 ** 12) for x in c)
              for c in centers),
        tuple(F(r).limit_denominator(10 ** 12) for r in radii))


def parent(c: DyadicCube) -> DyadicCube:
    return DyadicCube(c.gen - 1, tuple(i // 2 for i in c.idx))


def children(c: DyadicCube) -> list[DyadicCube]:
    """The ``2^dim`` children, the one at corner ``k`` ``k``-th: axis ``a``
    is bit ``a`` of ``k``."""
    return [DyadicCube(c.gen + 1, tuple(2 * c.idx[a] + ((corner >> a) & 1)
                                        for a in range(c.dim)))
            for corner in range(1 << c.dim)]


def nests(a: DyadicCube, b: DyadicCube) -> bool:
    """The closed cube ``b`` lies in ``a``: each of its intervals in a's."""
    return all(a.interval(k)[0] <= b.interval(k)[0]
               and b.interval(k)[1] <= a.interval(k)[1] for k in range(a.dim))


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


def recursive_dyadic_decomposition(E, max_depth):
    """Oracle: ``dyadic_decomposition`` as a depth-first recursion over the
    scalar predicates, as it was written before the tree was walked a
    generation at a time.  Returns the cubes and the residual."""
    cubes, residual = [], F(0)

    def visit(cube):
        nonlocal residual
        if not E.intersects_cube(cube):
            return
        if E.contains_cube(cube):
            cubes.append(cube)
        elif cube.gen == max_depth:
            residual += E.measure_in_cube(cube)
        else:
            for ch in children(cube):
                visit(ch)

    visit(DyadicCube(0, (0,) * E.dim))
    return cubes, residual


def recursive_cz_selection(F_region, eta, max_depth):
    """Oracle: ``cz_selection`` as the same recursion, densities compared
    as Fractions.  Returns the cubes and the residual."""
    root = DyadicCube(0, (0,) * F_region.dim)
    thr = 1 - F(eta)
    if F_region.measure_in_cube(root) > thr * root.measure:
        raise ValueError("root cube already exceeds the density threshold")
    cubes, residual = [], F(0)

    def visit(cube):
        nonlocal residual
        for ch in children(cube):
            mass = F_region.measure_in_cube(ch)
            if mass == 0:
                continue
            if mass > thr * ch.measure:
                cubes.append(ch)
            elif ch.gen < max_depth:
                visit(ch)
            else:
                residual += mass

    visit(root)
    return cubes, residual


ETAS = (F(1, 2), F(1, 3), F(9, 10))


def assert_matches_recursion(new, old, max_depth):
    """``new``'s decompositions equal the recursions' on ``old`` (the same
    set), the selections for each of ``ETAS``: cubes in order, residual,
    and the covered measure summed as the Fractions ``side ** dim``."""
    def same(dec, cubes, residual):
        assert dec.cubes == cubes
        assert dec.residual == residual
        assert dec.covered == sum((c.side ** c.dim for c in cubes), F(0))

    same(dyadic_decomposition(new, max_depth),
         *recursive_dyadic_decomposition(old, max_depth))
    for eta in ETAS:
        try:
            want = recursive_cz_selection(old, eta, max_depth)
        except ValueError:
            with pytest.raises(ValueError, match="root cube"):
                cz_selection(new, eta, max_depth)
        else:
            same(cz_selection(new, eta, max_depth), *want)


def analysis_kernels_cells(seed):
    """The depth-6 and depth-7 cells of perfbench's analysis-kernels input
    set ``seed``: its generator has drawn the two grid fields first."""
    rng = workloads._rng(seed, 2)
    for _ in range(2):
        workloads._cosine_field(rng, np.zeros((1, 2)))
    for depth in (6, 7):
        top = 1 << depth
        c = (2 * np.arange(top) + 1) / (2 * top) - 0.5
        pts = np.stack(np.meshgrid(c, c, indexing="ij"), axis=-1)
        vals = workloads._cosine_field(rng, 16.0 * pts)
        yield depth, vals > np.quantile(vals, 0.6)


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
        # the traversal's child rule: the same children, corner by corner
        c = DyadicCube(1, (1, 0))
        kids = [DyadicCube(2, tuple(i))
                for i in _children(np.array([c.idx])).tolist()]
        assert kids == children(c)
        assert len(set(kids)) == 4
        assert sum(k.measure for k in kids) == c.measure
        assert all(nests(c, k) for k in kids)
        assert all(parent(k) == c for k in kids)
        assert all(k.measure == k.side ** k.dim
                   for k in dyadic_cubes(3, 3))

    def test_containment(self):
        a = DyadicCube(1, (0,))
        b = DyadicCube(3, (2,))
        assert nests(a, b)
        assert not nests(b, a)
        assert not nests(DyadicCube(1, (1,)), b)

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
        for box in (BoxRegion(((F(-1, 2), F(0), False, False),) * dim),
                    BoxRegion(((F(0), F(0), False, False),) * dim),
                    BoxRegion(((F(-1, 4), F(0), False, False),) * (dim - 1)
                              + ((F(0), F(0), False, False),))):
            for cube in dyadic_cubes(dim, 3):
                assert box.intersects_cube(cube) == (
                    box.measure_in_cube(cube) > 0)
        if dim == 1:
            right = DyadicCube(1, (1,))         # [0, 1/2]
            left = BoxRegion(((F(-1, 2), F(0), False, False),))
            assert not left.intersects_cube(right)
            assert not CellUnion(1, [True, False]).intersects_cube(right)


    def test_cells_are_copied(self):
        # the region reads its own read-only copy: changing the caller's
        # array afterwards changes no answer
        cells = np.random.default_rng(5).random((8, 8)) < 0.5
        reg = CellUnion(3, cells)

        def answers():
            dec, cz = dyadic_decomposition(reg, 4), cz_selection(
                reg, F(1, 3), 4)
            return ([(reg.contains_cube(c), reg.intersects_cube(c),
                      reg.measure_in_cube(c)) for c in dyadic_cubes(2, 4)],
                    reg.measure, dec.cubes, dec.residual, cz.cubes,
                    cz.residual)

        before = answers()
        cells[:] = ~cells
        assert answers() == before
        with pytest.raises(ValueError):
            reg.cells[0, 0] = True


class TestFromFieldLevel:
    def test_samples_each_cell_center(self):
        # the depth-3 centers are odd multiples of 1/16; the outermost,
        # +-7/16, lie on the hull of a 1/48 grid up to rounding
        g = el.Grid.cover((0.0, 0.0), 7 / 16, 1 / 48)
        f = el.ScalarField(g, g.coords()[..., 0] + 0.1 * g.coords()[..., 1])
        cu = CellUnion.from_field_level(f, 0.0, 3)
        c = (2 * np.arange(8) - 7) / 16
        np.testing.assert_array_equal(
            cu.cells, c[:, None] + 0.1 * c[None, :] > 0.0)

    def test_rejects_cell_centers_off_the_grid(self):
        # on [-1/4, 1/4]^2 the centers +-3/8 of depth 2 have no node; they
        # used to take the value of the nearest hull node
        g = el.Grid.cover((0.0, 0.0), 0.25, 1 / 16)
        f = el.ScalarField(g, np.ones(g.counts))
        with pytest.raises(ValueError, match="off the grid"):
            CellUnion.from_field_level(f, 0.5, 2)


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
            BoxRegion(((F(-1, 2), F(1, 2), False, False),) * 2),
            max_depth=5)
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
                assert not nests(a, b) and not nests(b, a)
        assert dec.covered + dec.residual == reg.measure


class TestGenerationWalk:
    """The generation walk against the recursive oracles: the same cubes
    in the same order, the same residual and covered measure."""

    @pytest.mark.parametrize("dim,depths", [(1, (0, 5)), (2, (0, 4)),
                                             (3, (0, 3))])
    def test_random_cell_unions(self, dim, depths):
        rng = np.random.default_rng(10 + dim)
        for _ in range(12):
            depth = int(rng.integers(depths[0], depths[1] + 1))
            fill = rng.choice([0.05, 0.3, 0.6, 0.95])
            cells = rng.random((1 << depth,) * dim) < fill
            new, old = CellUnion(depth, cells), CellUnionOracle(depth, cells)
            # below the cell depth the residual is the only way out
            for max_depth in range(max(depth - 2, 0), depth + 2):
                assert_matches_recursion(new, old, max_depth)

    def test_boxes(self):
        third = F(1, 3)
        boxes = [((F(0), F(1, 2), True, False),),
                 ((-third, F(1, 2), False, True),),
                 ((F(-1, 2), third, True, True),),
                 ((F(-1, 4), F(1, 4), False, False),
                  (F(0), third, True, False)),
                 ((-third, third, False, True),) * 2,
                 ((F(-1, 2), F(0), False, False),) * 3]
        for box in boxes:
            reg = BoxRegion(box)
            for max_depth in range(7):
                assert_matches_recursion(reg, reg, max_depth)

    @pytest.mark.parametrize("seed", range(8))
    def test_analysis_kernels_regions(self, seed):
        ref = json.loads((PERFBENCH / "reference.json").read_text())[
            "analysis-kernels"][str(seed)]
        for depth, cells in analysis_kernels_cells(seed):
            reg = CellUnion(depth, cells)
            assert_matches_recursion(reg, CellUnionOracle(depth, cells),
                                     depth)
            # the regions are the benchmark's: its recorded fingerprints
            for label, dec in (
                    ("dyadic_decomposition", dyadic_decomposition(reg, depth)),
                    ("cz_selection", cz_selection(reg, F(1, 2), depth))):
                assert ref[f"{label}.d{depth}"] == {
                    "cubes": len(dec.cubes), "residual": str(dec.residual)}


class TestCZ:
    def test_density_threshold(self):
        # F occupies the left half: selected cubes have density > 3/4
        reg = BoxRegion(((F(-1, 2), F(0), False, False),
                         (F(-1, 2), F(1, 2), False, False)))
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
            cz_selection(BoxRegion(((F(-1, 2), F(1, 2), False, False),)),
                         eta=F(1, 2), max_depth=3)


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

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_matches_all_pairs_nesting(self, dim):
        # nested families in 1-3 dimensions: the generation walk finds the
        # parents that a search over all pairs found, so both exact sums
        rng = np.random.default_rng(dim)
        for _ in range(100):
            m = int(rng.integers(1, 6))
            cyls = []
            for _ in range(int(rng.integers(1, 12))):
                gen = int(rng.integers(0, 5 - dim // 2))
                idx = tuple(int(i) for i in rng.integers(0, 1 << gen, dim))
                t = F(int(rng.integers(-(4 ** gen), 4 ** gen)), 4 ** gen)
                cyls.append(Cylinder(DyadicCube(gen, idx), t))
            lhs, rhs = stacking_by_all_pairs(cyls, m)
            rep = stacking(cyls, m)
            assert (rep.lhs, rep.rhs, rep.margin) == \
                (float(lhs), float(rhs), float(rhs - lhs))
            assert rep.passed


def stacking_by_all_pairs(cyls, m):
    """Oracle: the exact sides of ``stacking`` as they were computed when
    each cube's nearest family ancestor came from a search over all
    pairs."""
    by_cube = {}
    for c in cyls:
        by_cube.setdefault(c.cube, []).append(c)
    parent = {q: max((p for p in by_cube if p != q and nests(p, q)),
                     key=lambda p: p.gen, default=None) for q in by_cube}
    kids = {q: F(0) for q in by_cube}
    for q, p in parent.items():
        if p is not None:
            kids[p] += q.measure
    vol_stack = vol_both = F(0)
    for q in by_cube:
        stacks, both, anc = [], [], q
        while anc is not None:
            for cyl in by_cube[anc]:
                stacks.append(cyl.stacked(m))
                both += [cyl.stacked(m), cyl.interval()]
            anc = parent[anc]
        vol_stack += (q.measure - kids[q]) * union_length(stacks)
        vol_both += (q.measure - kids[q]) * union_length(both)
    return F(m, m + 1) * vol_both, vol_stack


def union_length(intervals):
    total, end = F(0), None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total, end = total + b - a, b
        elif b > end:
            total, end = total + b - end, b
    return total


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
