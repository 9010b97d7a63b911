import importlib.util
import json
import math
import sys
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

import ellipticlab as el
from ellipticlab import coverings
from ellipticlab.coverings import (BallCollection, BoxRegion, CellUnion,
                                   Cylinder, Decomposition, DyadicCube,
                                   ExactRegion, _children,
                                   cz_cube_lemma_check, cz_selection,
                                   _scaled, _shaded, _vitali_select,
                                   dyadic_decomposition, ink_spots_check,
                                   stacking, sun_rising, vitali_check)

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


def contains(reg, cube: DyadicCube) -> bool:
    """Every point of the closed cube belongs to ``reg``: its
    ``_generation`` asked for the one cube (an oracle region answers by
    its own predicate)."""
    if isinstance(reg, CellUnionOracle):
        return reg.contains_cube(cube)
    return bool(reg._generation(cube.gen, np.array([cube.idx]))[0][0])


def parent(c: DyadicCube) -> DyadicCube:
    return DyadicCube(c.gen - 1, tuple(i // 2 for i in c.idx))


def children(c: DyadicCube) -> list[DyadicCube]:
    """The ``2^dim`` children, the one at corner ``k`` ``k``-th: axis ``a``
    is bit ``a`` of ``k``."""
    return [DyadicCube(c.gen + 1, tuple(2 * c.idx[a] + ((corner >> a) & 1)
                                        for a in range(c.dim)))
            for corner in range(1 << c.dim)]


def measure(c: DyadicCube) -> F:
    """Oracle: the deleted ``DyadicCube.measure``, ``2^-(gen dim)``."""
    return F(1, 1 << (c.gen * c.dim))


def interval(cyl: Cylinder) -> tuple[F, F]:
    """Oracle: the deleted ``Cylinder.interval``, ``[t - 4^-gen, t]``."""
    return F(cyl.t) - F(1, 4 ** cyl.cube.gen), F(cyl.t)


def stacked(cyl: Cylinder, m: int) -> tuple[F, F]:
    """Oracle: the deleted ``Cylinder.stacked``, ``[t, t + m 4^-gen]``."""
    return F(cyl.t), F(cyl.t) + m * F(1, 4 ** cyl.cube.gen)


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
            return measure(cube) if self._block(coarse).all() else F(0)
        cnt = int(self._block(cube).sum())
        return cnt * F(1, (1 << self.depth) ** self.dim)


def box_axis_rel(box, axis, cube):
    """Oracle: ``BoxRegion._axis_rel`` as it was before boxes answered a
    generation at a time, (subset, overlap length) on one axis."""
    lo, hi, lo_open, hi_open = box.intervals[axis]
    a, b = cube.interval(axis)
    sub = ((a > lo) or (a == lo and not lo_open)) \
        and ((b < hi) or (b == hi and not hi_open))
    return sub, max(F(0), min(b, hi) - max(a, lo))


def box_generation(box, gen, idx):
    """Oracle: the per-cube ``ExactRegion._generation`` adapter that asked
    the box's scalar predicates, built on ``box_axis_rel``, one cube at a
    time, its densities put over their lcm."""
    cubes = [DyadicCube(gen, tuple(i)) for i in idx.tolist()]
    inside = [all(box_axis_rel(box, a, c)[0] for a in range(box.dim))
              for c in cubes]
    dens = [math.prod((box_axis_rel(box, a, c)[1] for a in range(box.dim)),
                      start=F(1)) / measure(c) for c in cubes]
    size = math.lcm(*(d.denominator for d in dens))
    count = [d.numerator * (size // d.denominator) for d in dens]
    return (np.array(inside, dtype=bool), np.array(count, dtype=object),
            size)


def random_box(rng, dim):
    """A box with bounds ``p / q`` in ``[-1, 1]``, ``q`` one of 1, 2, 3,
    4, 5, 7 and 8: some outside the unit cube, some on faces of dyadic
    cubes, about a fifth of the axes with ``lo == hi``, each endpoint open
    or closed."""
    def bound():
        q = int(rng.choice([1, 2, 3, 4, 5, 7, 8]))
        return F(int(rng.integers(-q, q + 1)), q)
    intervals = []
    for _ in range(dim):
        lo, hi = sorted((bound(), bound()))
        if rng.random() < 0.2:
            hi = lo
        intervals.append((lo, hi, bool(rng.random() < 0.5),
                          bool(rng.random() < 0.5)))
    return BoxRegion(tuple(intervals))


def recursive_dyadic_decomposition(E, max_depth):
    """Oracle: ``dyadic_decomposition`` as a depth-first recursion over the
    scalar predicates, as it was written before the tree was walked a
    generation at a time.  Returns the cubes and the residual."""
    cubes, residual = [], F(0)

    def visit(cube):
        nonlocal residual
        if E.measure_in_cube(cube) == 0:
            return
        if contains(E, cube):
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
    if F_region.measure_in_cube(root) > thr * measure(root):
        raise ValueError("root cube already exceeds the density threshold")
    cubes, residual = [], F(0)

    def visit(cube):
        nonlocal residual
        for ch in children(cube):
            mass = F_region.measure_in_cube(ch)
            if mass == 0:
                continue
            if mass > thr * measure(ch):
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
    set), the selections for each of ``ETAS``: the cubes as a set, coming
    coarsest generation first, the residual, and the covered measure
    summed as the Fractions ``side ** dim``."""
    def same(dec, cubes, residual):
        def key(c):
            return c.gen, c.idx
        assert sorted(dec.cubes, key=key) == sorted(cubes, key=key)
        gens = [c.gen for c in dec.cubes]
        assert gens == sorted(gens)
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


def suite_cells() -> CellUnion:
    """The coverings suite's cells: 40 % of the 16 x 16 depth-4 cells,
    seed 3."""
    return CellUnion(4, np.random.default_rng(3).random((16, 16)) < 0.4)


def cells_at(depth, *set_cells) -> CellUnion:
    """The depth-``depth`` square cells with the given indices set."""
    cells = np.zeros((1 << depth,) * 2, dtype=bool)
    for c in set_cells:
        cells[c] = True
    return CellUnion(depth, cells)


def dyadic_cubes(dim, max_gen):
    """Every dyadic cube of generation at most ``max_gen``."""
    for gen in range(max_gen + 1):
        for idx in np.ndindex(*(1 << gen,) * dim):
            yield DyadicCube(gen, tuple(int(i) for i in idx))


class TestDyadicCube:
    def test_geometry(self):
        root = DyadicCube(0, (0, 0))
        assert root.side == 1
        assert measure(root) == 1
        assert root.interval(0) == (F(-1, 2), F(1, 2))
        assert root.center() == (0, 0)

    def test_children_partition(self):
        # the traversal's child rule: the same children, corner by corner
        c = DyadicCube(1, (1, 0))
        kids = [DyadicCube(2, tuple(i))
                for i in _children(np.array([c.idx])).tolist()]
        assert kids == children(c)
        assert len(set(kids)) == 4
        assert sum(measure(k) for k in kids) == measure(c)
        assert all(nests(c, k) for k in kids)
        assert all(parent(k) == c for k in kids)
        assert all(measure(k) == k.side ** k.dim
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
        assert not contains(reg, DyadicCube(1, (1,)))
        assert contains(reg, DyadicCube(2, (3,)))
        assert reg.measure_in_cube(DyadicCube(1, (0,))) == 0
        assert reg.measure_in_cube(DyadicCube(1, (1,))) == F(1, 2)

    def test_cell_union_measures(self):
        cells = np.zeros((4, 4), dtype=bool)
        cells[0, 0] = True
        cells[3, 3] = True
        reg = CellUnion(2, cells)
        assert reg.measure == F(2, 16)
        assert contains(reg, DyadicCube(2, (0, 0)))
        assert not contains(reg, DyadicCube(1, (0, 0)))
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
                mass = new.measure_in_cube(cube)
                assert contains(new, cube) == old.contains_cube(cube)
                assert (mass > 0) == old.intersects_cube(cube)
                assert mass == old.measure_in_cube(cube)
        if dim == 1:
            # a set that touches the cube in a null set misses it
            right = DyadicCube(1, (1,))         # [0, 1/2]
            left = BoxRegion(((F(-1, 2), F(0), False, False),))
            assert left.measure_in_cube(right) == 0
            assert CellUnion(1, [True, False]).measure_in_cube(right) == 0


    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_box_generation_matches_scalar_predicates(self, dim):
        # every cube of generations 0-6, or 512 drawn where there are
        # more: the same subset answer and the same density, cube by cube
        rng = np.random.default_rng(20 + dim)
        for box in [random_box(rng, dim) for _ in range(8)]:
            for gen in range(7):
                top = 1 << gen
                if top ** dim <= 512:
                    idx = np.array(list(np.ndindex(*(top,) * dim)))
                else:
                    idx = rng.integers(0, top, size=(512, dim))
                inside, count, size = box._generation(gen, idx)
                want_in, want_count, want_size = box_generation(box, gen, idx)
                np.testing.assert_array_equal(inside, want_in)
                assert [F(int(c), size) for c in count] == \
                    [F(c, want_size) for c in want_count]

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_cell_union_cubes_finer_than_cells(self, dim):
        # a cube 1-4 generations below the cells reads the cell holding
        # it: in or out whole, asked one at a time or as a batch
        rng = np.random.default_rng(30 + dim)
        for depth in range(3):
            cells = rng.random((1 << depth,) * dim) < 0.5
            reg = CellUnion(depth, cells)
            for gen in range(depth + 1, depth + 5):
                idx = rng.integers(0, 1 << gen, size=(40, dim))
                cell = cells[tuple((idx >> (gen - depth)).T)]
                inside, count, size = reg._generation(gen, idx)
                np.testing.assert_array_equal(inside, cell)
                np.testing.assert_array_equal(count, cell)
                assert size == 1
                for i, want in zip(idx.tolist(), cell):
                    cube = DyadicCube(gen, tuple(i))
                    assert contains(reg, cube) == want
                    assert reg.measure_in_cube(cube) == \
                        (measure(cube) if want else 0)

    def test_cells_are_copied(self):
        # the region reads its own read-only copy: changing the caller's
        # array afterwards changes no answer
        cells = np.random.default_rng(5).random((8, 8)) < 0.5
        reg = CellUnion(3, cells)

        def answers():
            dec, cz = dyadic_decomposition(reg, 4), cz_selection(
                reg, F(1, 3), 4)
            return ([(contains(reg, c), reg.measure_in_cube(c))
                     for c in dyadic_cubes(2, 4)],
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

    @pytest.mark.parametrize("max_depth", range(9))
    def test_half_open_interval_exactly(self, max_depth):
        # the deleted dyadic-halfline check: to depth d, the cubes
        # [2^-k, 2^(1-k)], k = 2..d, coarsest first, and the residual
        # (0, 2^-d], all of (0, 1/2] at depth 0
        dec = dyadic_decomposition(
            BoxRegion(((F(0), F(1, 2), True, False),)), max_depth)
        assert [(c.gen, c.idx) for c in dec.cubes] == [
            (k, (2 ** (k - 1) + 1,)) for k in range(2, max_depth + 1)]
        assert dec.residual == F(1, 2 ** max(max_depth, 1))

    @pytest.mark.parametrize("reg", [
        suite_cells(), cells_at(2, (0, 0), (0, 1), (3, 2))],
        ids=["suite", "depth-2"])
    def test_cell_unions_are_covered_by_maximal_cubes(self, reg):
        # the deleted dyadic-cellunion check: to depth 6 the cubes cover
        # the cells exactly, residual 0, and each cube lies in the cells
        # while its parent does not
        dec = dyadic_decomposition(reg, max_depth=6)
        assert dec.residual == 0
        assert dec.covered == reg.measure
        for c in dec.cubes:
            assert contains(reg, c)
            assert c.gen == 0 or not contains(reg, parent(c))

    def test_a_cell_finer_than_the_descent_is_residual(self):
        # a depth-7 cell fills no cube of depth 6 or less: all residual
        reg = cells_at(7, (5, 7))
        dec = dyadic_decomposition(reg, max_depth=6)
        assert dec.cubes == []
        assert dec.residual == reg.measure == F(1, 4 ** 7)

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
            assert contains(reg, a)
            assert a.gen == 0 or not contains(reg, parent(a))
            for b in dec.cubes[i + 1:]:
                assert not nests(a, b) and not nests(b, a)
        assert dec.covered + dec.residual == reg.measure


class TestGenerationWalk:
    """The generation walk against the recursive oracles: the same cubes,
    coarsest generation first, the same residual and covered measure."""

    def test_order_is_by_generation_then_children(self):
        # 4 x 4 cells: the generation-1 cube (1, 0) full, four single cells
        cells = np.zeros((4, 4), dtype=bool)
        cells[2:, :2] = True
        for i, j in [(0, 0), (0, 3), (1, 2), (3, 3)]:
            cells[i, j] = True
        reg = CellUnion(2, cells)
        # generation by generation; within one, parent by parent, each
        # parent's children at their corner: axis 0 is the low bit
        want = [DyadicCube(1, (1, 0)), DyadicCube(2, (0, 0)),
                DyadicCube(2, (1, 2)), DyadicCube(2, (0, 3)),
                DyadicCube(2, (3, 3))]
        assert dyadic_decomposition(reg, 2).cubes == want
        # no cube here has a density strictly between 1/2 and 1
        assert cz_selection(reg, F(1, 2), 2).cubes == want

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
            assert reg.measure_in_cube(c) > F(3, 4) * measure(c)
            p = parent(c)
            assert reg.measure_in_cube(p) <= F(3, 4) * measure(p)
        assert dec.covered >= reg.measure - dec.residual - F(1, 2)

    def test_mass_accounting(self):
        rng = np.random.default_rng(1)
        cells = rng.random((16,)) < 0.4
        reg = CellUnion(4, cells)
        dec = cz_selection(reg, eta=F(1, 3), max_depth=4)
        selected_mass = sum(reg.measure_in_cube(c) for c in dec.cubes)
        assert selected_mass + dec.residual == reg.measure

    @pytest.mark.parametrize("reg", [
        suite_cells(), BoxRegion(((F(0), F(1, 3), True, True),))],
        ids=["suite", "third"])
    def test_selected_mass_and_residual_are_the_measure(self, reg):
        # the deleted cz-mass check, at eta = 1/2 and depth 6
        czs = cz_selection(reg, F(1, 2), max_depth=6)
        mass = sum((reg.measure_in_cube(c) for c in czs.cubes), F(0))
        assert mass + czs.residual == reg.measure

    def test_root_guard(self):
        with pytest.raises(ValueError):
            cz_selection(BoxRegion(((F(-1, 2), F(1, 2), False, False),)),
                         eta=F(1, 2), max_depth=3)


def cube_lemma_sides(A):
    """Oracle: the exact sides ``(|A| - residual, |G| / 2)`` of the cube
    lemma at delta = 1/2 and depth 6, from a descent cube by cube
    (``recursive_cz_selection``) and ``G`` rasterized: each predecessor's
    depth-6 cells marked, and the marked cells counted."""
    cubes, residual = recursive_cz_selection(A, F(1, 2), 6)
    G = np.zeros((1 << 6,) * A.dim, dtype=bool)
    for c in cubes:
        p = parent(c)
        shift = 6 - p.gen
        G[tuple(slice(i << shift, (i + 1) << shift) for i in p.idx)] = True
    return A.measure - residual, F(int(G.sum()), 2 * G.size)


class TestCZCubeLemma:
    def test_the_suites_cells(self, exact_sides):
        # the coverings suite's input: 64 cubes, whose 29 maximal
        # predecessors make |G| = 31/32
        rep = cz_cube_lemma_check(suite_cells())
        assert exact_sides.pop() == (F(47, 128), F(31, 64))
        assert rep.status == "pass"
        assert (rep.constants["n_cubes"], rep.constants["n_predecessors"],
                rep.constants["residual"]) == (64, 29, 0.0)

    @pytest.mark.parametrize("dim,depths", [(1, (1, 6)), (2, (1, 5)),
                                             (3, (1, 3))])
    def test_matches_a_descent_cube_by_cube(self, dim, depths, exact_sides):
        # cells and boxes, some with |A| above 1/2: those give hypothesis
        # and are never split
        rng = np.random.default_rng(40 + dim)
        cases = []
        for _ in range(12):
            depth = int(rng.integers(depths[0], depths[1] + 1))
            cells = rng.random((1 << depth,) * dim) < rng.choice(
                [0.05, 0.2, 0.4, 0.55])
            cases.append((CellUnion(depth, cells),
                          CellUnionOracle(depth, cells)))
        cases += [(box, box) for box in (random_box(rng, dim)
                                         for _ in range(12))]
        statuses = set()
        for A, oracle in cases:
            rep = cz_cube_lemma_check(A)
            sides = exact_sides.pop()
            statuses.add(rep.status)
            if A.measure > F(1, 2):
                assert rep.status == "hypothesis"
            else:
                assert sides == cube_lemma_sides(oracle)
                assert rep.status == "pass"
        assert statuses == {"pass", "hypothesis"}

    def test_predecessors_that_nest_count_once(self, exact_sides):
        # 5 of the 16 depth-3 cells of the generation-1 cube (0, 0): it is
        # split, its full child (2, (0, 0)) is selected, and so is the one
        # set cell (3, (2, 2)) of its child (2, (1, 1)), a predecessor
        # inside the predecessor (1, (0, 0)): |G| = 1/4, not 1/4 + 1/16
        cells = np.zeros((8, 8), dtype=bool)
        cells[0:2, 0:2] = cells[2, 2] = True
        rep = cz_cube_lemma_check(CellUnion(3, cells))
        lhs, rhs = exact_sides.pop()
        assert (lhs, rhs) == cube_lemma_sides(CellUnionOracle(3, cells))
        assert (lhs, rhs) == (F(5, 64), F(1, 8))
        assert (rep.constants["n_cubes"],
                rep.constants["n_predecessors"]) == (2, 1)

    def test_a_set_above_delta_is_the_unmet_hypothesis(self):
        # cz_selection would raise on it; at exactly delta the lemma holds
        left = (F(-1, 2), F(0), False, False)
        whole = (F(-1, 2), F(1, 2), False, False)
        more = BoxRegion(((F(-1, 2), F(1, 64), False, False), whole))
        with pytest.raises(ValueError, match="root cube"):
            cz_selection(more, F(1, 2), 6)
        rep = cz_cube_lemma_check(more)
        assert rep.status == "hypothesis"
        assert rep.notes.endswith("; hypothesis failed: |A| above delta")
        assert cz_cube_lemma_check(BoxRegion((left, whole))).status == "pass"

    def test_a_selection_with_dense_predecessors_fails(self, monkeypatch):
        # A is the left half, and the selection substituted is its
        # generation-2 cubes: their parents, the left generation-1 cubes,
        # lie in A, so |A| = 1/2 exceeds delta |G| = 1/4
        A = BoxRegion(((F(-1, 2), F(0), False, False),
                       (F(-1, 2), F(1, 2), False, False)))
        cubes = [DyadicCube(2, (i, j)) for i in range(2) for j in range(4)]
        monkeypatch.setattr(coverings, "cz_selection",
                            lambda *args, **kw: Decomposition(cubes, F(0)))
        rep = cz_cube_lemma_check(A)
        assert (rep.status, rep.lhs, rep.rhs) == ("fail", 0.5, 0.25)
        assert rep.constants["n_predecessors"] == 2


class TestVitali:
    def test_disjoint_and_covering(self):
        rng = np.random.default_rng(2)
        centers = rng.uniform(-0.4, 0.4, size=(40, 2))
        radii = rng.uniform(0.02, 0.15, size=40)
        coll = balls(centers, radii)
        rep = vitali_check(coll)
        assert rep.passed
        # exact pairwise disjointness of the selected balls
        picks, _ = _vitali_select(*_scaled(coll))
        assert rep.constants["n_selected"] == len(picks)
        for i in range(len(picks)):
            for j in range(i + 1, len(picks)):
                ci, ri = coll.centers[picks[i]], coll.radii[picks[i]]
                cj, rj = coll.centers[picks[j]], coll.radii[picks[j]]
                d2 = sum((a - b) ** 2 for a, b in zip(ci, cj))
                assert d2 >= (ri + rj) ** 2

    def test_greedy_order(self):
        coll = balls([[0.0, 0.0], [0.05, 0.0]], [0.1, 0.3])
        assert _vitali_select(*_scaled(coll))[0] == [1]
        assert vitali_check(coll).constants["n_selected"] == 1


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
            kids[p] += measure(q)
    vol_stack = vol_both = F(0)
    for q in by_cube:
        stacks, both, anc = [], [], q
        while anc is not None:
            for cyl in by_cube[anc]:
                stacks.append(stacked(cyl, m))
                both += [stacked(cyl, m), interval(cyl)]
            anc = parent[anc]
        vol_stack += (measure(q) - kids[q]) * union_length(stacks)
        vol_both += (measure(q) - kids[q]) * union_length(both)
    return F(m, m + 1) * vol_both, vol_stack


def union_length(intervals):
    total, end = F(0), None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total, end = total + b - a, b
        elif b > end:
            total, end = total + b - end, b
    return total


def fraction_stacking(cylinders, m):
    """Oracle: the exact sides ``(lhs, rhs)`` of ``stacking`` as they were
    computed in Fractions, before its times and measures became integers
    over one denominator."""
    by_cube = {}
    for c in cylinders:
        by_cube.setdefault(c.cube, []).append(c)
    done = {}
    vol_stack = vol_both = F(0)
    for q in sorted(by_cube, key=lambda q: q.gen):
        up = (DyadicCube(g, tuple(i >> (q.gen - g) for i in q.idx))
              for g in range(q.gen - 1, -1, -1))
        stacks, both, up_stack, up_both = next(
            (done[a] for a in up if a in done), ([], [], F(0), F(0)))
        stacks = stacks + [stacked(c, m) for c in by_cube[q]]
        both = both + [iv for c in by_cube[q]
                       for iv in (stacked(c, m), interval(c))]
        l_stack, l_both = union_length(stacks), union_length(both)
        vol_stack += measure(q) * (l_stack - up_stack)
        vol_both += measure(q) * (l_both - up_both)
        done[q] = stacks, both, l_stack, l_both
    return F(m, m + 1) * vol_both, vol_stack


def fraction_dist2(a, b):
    return sum((x - y) ** 2 for x, y in zip(a, b))


def fraction_vitali_select(coll):
    """Oracle: ``_vitali_select``'s greedy pass in Fractions; returns
    ``(selected, cover_of)``."""
    c, r = coll.centers, coll.radii
    selected, cover_of = [], [-1] * len(coll)
    for i in sorted(range(len(coll)), key=lambda i: (-r[i], i)):
        hit = next((j for j in selected
                    if fraction_dist2(c[i], c[j]) < (r[i] + r[j]) ** 2), None)
        if hit is None:
            selected.append(i)
        cover_of[i] = i if hit is None else hit
    return selected, cover_of


def fraction_vitali_check(coll, selected, cover_of):
    """Oracle: ``vitali_check``'s two certificates in Fractions,
    ``(overlap, escape)``."""
    c, r = coll.centers, coll.radii
    overlap = any(fraction_dist2(c[i], c[j]) < (r[i] + r[j]) ** 2
                  for k, i in enumerate(selected) for j in selected[k + 1:])
    escape = any(r[b] > 3 * r[s]
                 or fraction_dist2(c[b], c[s]) > (3 * r[s] - r[b]) ** 2
                 for b, s in enumerate(cover_of))
    return overlap, escape


def fraction_dilation(coll, cover_of):
    """Oracle: the dilation ``vitali_check`` needs, ``max_b (|c_b - c_s|
    + r_b) / r_s``, each quotient a Fraction before it is rounded."""
    c, r = coll.centers, coll.radii
    return max(math.sqrt(fraction_dist2(c[b], c[s]) / r[s] ** 2)
               + float(r[b] / r[s]) for b, s in enumerate(cover_of))


def rational_balls(rng, n, dim, dens):
    """``n`` balls with coordinates and radii ``k / q``, each ``q`` drawn
    from ``dens``: centers in [-1/2, 1/2], radii in (0, 1/5]."""
    def draw(lo, hi):
        q = int(rng.choice(dens))
        return F(int(rng.integers(int(lo * q), int(hi * q) + 1)), q)
    return BallCollection(
        tuple(tuple(draw(-0.5, 0.5) for _ in range(dim)) for _ in range(n)),
        tuple(max(draw(0, 0.2), F(1, 100)) for _ in range(n)))


def assign(monkeypatch, selected, cover_of):
    """Make ``vitali_check`` certify the given selection and assignment in
    place of its greedy pass's."""
    monkeypatch.setattr(coverings, "_vitali_select",
                        lambda c, r: (selected, cover_of))


@pytest.fixture
def exact_sides(monkeypatch):
    """The (lhs, rhs) that the coverings hand to ``make_report``, before
    it rounds them to floats."""
    seen = []
    real = coverings.make_report

    def capture(name, lhs, rhs, **kw):
        seen.append((lhs, rhs))
        return real(name, lhs, rhs, **kw)
    monkeypatch.setattr(coverings, "make_report", capture)
    return seen


class TestIntegerCoverings:
    """Vitali's selection and certificate and the stacking sums run on
    integers over one denominator; each equals its Fraction oracle."""

    DENS = {"thirds": (3,), "sevenths": (7,), "hundredths": (100,),
            "mixed": (3, 7, 100)}

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("dens", DENS)
    def test_vitali_matches_fractions(self, dens, dim):
        rng = np.random.default_rng(dim)
        for n in (1, 2, 5, 20, 40):
            coll = rational_balls(rng, n, dim, self.DENS[dens])
            want = fraction_vitali_select(coll)
            assert _vitali_select(*_scaled(coll)) == want
            assert fraction_vitali_check(coll, *want) == (False, False)
            assert vitali_check(coll).status == "pass"

    @pytest.mark.parametrize("q", [3, 7, 100])
    def test_tangent_balls_are_disjoint_and_covered(self, q, monkeypatch):
        # |c_0 - c_1| = r_0 + r_1 and |c_0 - c_3| = r_0 + r_3: the strict <
        # selects all three; ball 3 lies in 3 B_0 with |c_3 - c_0| + r_3 =
        # 3 r_0, and not in 3 B_2
        c = ((F(0), F(0)), (F(3, q), F(4, q)), (F(0), F(4, q)),
             (F(0), F(-4, q)))
        coll = BallCollection(c, (F(2, q), F(3, q), F(1, q), F(2, q)))
        assert _vitali_select(*_scaled(coll)) == \
            fraction_vitali_select(coll) == ([1, 0, 3], [0, 1, 1, 3])
        for cover_of, escape, needed in (([0, 1, 1, 3], False, 4 / 3),
                                         ([0, 1, 1, 0], False, 3.0),
                                         ([0, 1, 1, 2], True, 10.0)):
            assign(monkeypatch, [1, 0, 3], cover_of)
            rep = vitali_check(coll)
            assert fraction_vitali_check(coll, [1, 0, 3], cover_of) == \
                (False, escape)
            assert rep.notes == "exact disjointness and 3x coverage" + (
                "; a ball escapes its 3x dilation" if escape else "")
            assert (rep.lhs, rep.rhs) == (needed, 3.0)
        # one unit nearer, the two overlap
        near = BallCollection(((F(0),), (F(4, q),)), (F(2, q), F(3, q)))
        assert fraction_vitali_check(near, [0, 1], [0, 1]) == (True, False)
        assign(monkeypatch, [0, 1], [0, 1])
        rep = vitali_check(near)
        assert rep.notes.endswith("; selected balls overlap")

    def test_check_matches_fractions_on_any_assignment(self, monkeypatch):
        rng = np.random.default_rng(7)
        for _ in range(50):
            coll = rational_balls(rng, 8, 2, (3, 7, 100))
            sel = sorted(set(rng.integers(0, 8, 3).tolist()))
            cover_of = rng.choice(sel, 8).tolist()
            overlap, escape = fraction_vitali_check(coll, sel, cover_of)
            assign(monkeypatch, sel, cover_of)
            rep = vitali_check(coll)
            note = ("selected balls overlap" if overlap else
                    "a ball escapes its 3x dilation" if escape else None)
            assert rep.notes == "exact disjointness and 3x coverage" + (
                f"; {note}" if note else "")
            assert rep.lhs == pytest.approx(fraction_dilation(coll, cover_of),
                                            rel=1e-15)

    @pytest.mark.parametrize("k", [3, 8, 13, 20, 40])
    def test_the_rounded_dilation_decides_nothing(self, k, monkeypatch):
        # |c_1 - c_0| + r_1 = 3 r_0 + e or 3 r_0 - e, e = 10^-k: from k = 13
        # on the float lhs lies within tol of 3, and from k = 20 on it
        # rounds to 3 both ways; the exact test decides
        for e, status in ((F(1, 10 ** k), "fail"), (-F(1, 10 ** k), "pass")):
            coll = BallCollection(((F(0),), (2 + e,)), (F(1), F(1)))
            assign(monkeypatch, [0], [0, 0])
            rep = vitali_check(coll)
            assert rep.status == status
            assert rep.lhs == pytest.approx(3.0, abs=1e-3)

    def test_the_needed_dilation_tends_to_three(self):
        # the control: a ball of radius 1 - e barely meets the selected
        # ball of radius 1, and needs the dilation 3 - 2e - e^2
        for k in range(1, 8):
            e = F(1, 10 ** k)
            coll = BallCollection(((F(0),), (2 - e - e * e,)), (F(1), 1 - e))
            rep = vitali_check(coll)
            assert rep.constants["n_selected"] == 1
            assert rep.status == "pass"
            assert rep.lhs == pytest.approx(float(3 - 2 * e - e * e),
                                            rel=1e-15)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_stacking_matches_fractions(self, dim, exact_sides):
        rng = np.random.default_rng(10 + dim)
        for _ in range(60):
            m = int(rng.integers(1, 6))
            cyls = []
            for _ in range(int(rng.integers(1, 10))):
                gen = int(rng.integers(0, 5 - dim // 2))
                idx = tuple(int(i) for i in rng.integers(0, 1 << gen, dim))
                t = F(int(rng.integers(-2 * 4 ** gen, 2 * 4 ** gen)),
                      4 ** gen)
                cyls.append(Cylinder(DyadicCube(gen, idx), t))
            stacking(cyls, m)
            assert exact_sides.pop() == fraction_stacking(cyls, m)

    def test_generation_zero_cylinders(self, exact_sides):
        # integer tops, as ints and as Fractions, on the unit time lattice
        for cyls in ([Cylinder(DyadicCube(0, (0, 0)), 0)],
                     [Cylinder(DyadicCube(0, (0,)), t) for t in (-1, 2, 3)],
                     [Cylinder(DyadicCube(0, (0,)), F(1)),
                      Cylinder(DyadicCube(2, (3,)), F(-5, 16))]):
            for m in (1, 3):
                rep = stacking(cyls, m)
                lhs, rhs = exact_sides.pop()
                assert (lhs, rhs) == fraction_stacking(cyls, m)
                assert isinstance(lhs, F) and isinstance(rhs, F)
                assert rep.passed


class TestSunRising:
    def test_steep_sun_all_sunny(self):
        # m above the slope of u: every point dominates its right tail
        g = el.Grid(1, 1 / 128, (0.0,), (129,))
        f = el.ScalarField.from_function(g, lambda p: p[..., 0])
        shaded, rep = _shaded(f, m=2.0), sun_rising(f, m=2.0)
        assert not shaded.any()
        assert rep.passed

    def test_shallow_sun_all_shaded(self):
        # m below the slope: each node is dominated by nodes to its right
        g = el.Grid(1, 1 / 128, (0.0,), (129,))
        f = el.ScalarField.from_function(g, lambda p: p[..., 0])
        shaded, rep = _shaded(f, m=0.5), sun_rising(f, m=0.5)
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
            rep = sun_rising(f, m=m)
            assert rep.passed

    def test_sine_at_steep_slope(self):
        g = el.Grid(1, 1 / 1024, (0.0,), (1025,))
        f = el.ScalarField.from_function(
            g, lambda p: np.sin(2 * np.pi * p[..., 0]))
        rep = sun_rising(f, m=20.0)
        assert rep.passed
        assert rep.lhs <= 0.1 + 2 * g.h

    def test_slope_inclusion(self):
        # nodes whose forward slope exceeds m are shaded
        g = el.Grid(1, 1 / 256, (0.0,), (257,))
        rng = np.random.default_rng(5)
        vals = np.cumsum(rng.normal(size=257)) * g.h
        f = el.ScalarField(g, vals)
        m = 0.7
        shaded = _shaded(f, m=m)
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
            shaded = _shaded(f, m)
            np.testing.assert_array_equal(shaded, w < suff)

    def test_validation(self):
        # a NaN slope passed the old m <= 0 guard and failed with a
        # non-finite side
        g = el.Grid(1, 1 / 8, (0.0,), (9,))
        f = el.ScalarField(g, np.zeros(9))
        for m in (math.nan, 0.0, -1.0):
            with pytest.raises(ValueError,
                               match=f"slope m must be positive, got {m}"):
                sun_rising(f, m=m)


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

    @pytest.mark.parametrize("eta", [-0.3, 0.0, 1.5, math.nan])
    def test_eta_outside_the_unit_interval(self, eta):
        # on an empty E, eta = -0.3 and eta = 0 passed: the growth bound
        # eta 5^-n |B_rho1 minus F| was at most 0
        g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 16)
        with pytest.raises(ValueError, match=r"eta must lie in \(0, 1\]"):
            ink_spots_check(el.Ball((5.0, 5.0), 0.1),
                            el.Ball((0.0, 0.0), 0.1), g, eta=eta)
