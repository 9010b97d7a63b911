"""Covering combinatorics in exact rational arithmetic.

Dyadic decompositions, density-driven cube selection, Vitali ball
selection, cylinder stacking and the one-dimensional sun-rising lemma.
Geometry here is exact: cube corners, ball centers/radii, times and
measures are `fractions.Fraction`s, so set relations and measure
comparisons carry no floating-point slack.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .grid import ScalarField, Region, Ball, oscillation, _sq_dist
from .reports import make_report, CheckReport

__all__ = [
    "DyadicCube", "ExactRegion", "BoxRegion", "CellUnion", "Decomposition",
    "BallCollection", "VitaliSelection", "Cylinder", "dyadic_decomposition",
    "cz_selection", "vitali_select", "ink_spots_check", "stacking",
    "sun_rising",
]


F = Fraction
HALF = F(1, 2)


@dataclass(frozen=True)
class DyadicCube:
    """Closed dyadic sub-cube of the unit cube ``[-1/2, 1/2]^n``.

    Generation ``k`` cubes have side ``2**-k``; ``idx`` are per-axis
    integers in ``[0, 2**k)`` counting from the lower corner.
    """

    gen: int
    idx: tuple[int, ...]

    def __post_init__(self):
        if self.gen < 0:
            raise ValueError("generation must be >= 0")
        top = 1 << self.gen
        if any(not (0 <= i < top) for i in self.idx):
            raise ValueError("cube index out of range")

    @property
    def dim(self) -> int:
        return len(self.idx)

    @property
    def side(self) -> Fraction:
        return F(1, 1 << self.gen)

    @property
    def measure(self) -> Fraction:
        return F(1, 1 << (self.gen * self.dim))

    def interval(self, axis: int) -> tuple[Fraction, Fraction]:
        lo = -HALF + F(self.idx[axis], 1 << self.gen)
        return lo, lo + self.side

    def center(self) -> tuple[Fraction, ...]:
        return tuple(lo + self.side / 2
                     for lo, _ in (self.interval(a) for a in range(self.dim)))


# ---------------------------------------------------------------------------
# exact regions inside the unit cube


class ExactRegion:
    """Measurable subset of the unit cube with exact cube predicates."""

    dim: int

    def contains_cube(self, cube: DyadicCube) -> bool:
        """Pointwise: every point of the closed cube belongs to the set."""
        raise NotImplementedError

    def measure_in_cube(self, cube: DyadicCube) -> Fraction:
        """Lebesgue measure of (set intersect cube)."""
        raise NotImplementedError

    def intersects_cube(self, cube: DyadicCube) -> bool:
        """The set has positive measure in the cube."""
        return self.measure_in_cube(cube) > 0

    def _generation(self, gen: int, idx: np.ndarray):
        """``(inside, count, size)`` for the generation-``gen`` cubes with
        corner indices ``idx`` ``(k, dim)``: whether each lies in the set,
        and the set's measure in each as ``count / size`` of the cube's
        measure (an integer array, one integer).  This default asks the
        scalar predicates one cube at a time, in the order the recursion
        asked them: a cube the set misses is asked nothing more."""
        cubes = [DyadicCube(gen, tuple(i)) for i in idx.tolist()]
        hit = [self.intersects_cube(c) for c in cubes]
        inside = [h and self.contains_cube(c) for h, c in zip(hit, cubes)]
        dens = [self.measure_in_cube(c) / c.measure if h else F(0)
                for h, c in zip(hit, cubes)]
        size = math.lcm(*(d.denominator for d in dens))
        count = [d.numerator * (size // d.denominator) for d in dens]
        return (np.array(inside, dtype=bool), np.array(count, dtype=object),
                size)

    @property
    def measure(self) -> Fraction:
        root = DyadicCube(0, (0,) * self.dim)
        return self.measure_in_cube(root)


@dataclass(frozen=True)
class BoxRegion(ExactRegion):
    """Product of intervals with individually open/closed endpoints.

    ``intervals[a] = (lo, hi, lo_open, hi_open)`` with Fraction bounds.
    """

    intervals: tuple[tuple[Fraction, Fraction, bool, bool], ...]

    @property
    def dim(self) -> int:
        return len(self.intervals)

    def _axis_rel(self, axis: int, cube: DyadicCube) -> tuple[bool, Fraction]:
        """(subset, overlap length) for one axis."""
        lo, hi, lo_open, hi_open = self.intervals[axis]
        a, b = cube.interval(axis)
        sub = ((a > lo) or (a == lo and not lo_open)) \
            and ((b < hi) or (b == hi and not hi_open))
        return sub, max(F(0), min(b, hi) - max(a, lo))

    def contains_cube(self, cube):
        return all(self._axis_rel(a, cube)[0] for a in range(self.dim))

    def measure_in_cube(self, cube):
        out = F(1)
        for a in range(self.dim):
            out *= self._axis_rel(a, cube)[1]
        return out


class CellUnion(ExactRegion):
    """Union of closed depth-``d`` dyadic cells given by a boolean array.

    ``cells`` is a read-only copy of the array given.  Every cube question
    reads one count table per generation ``g <= d``, the set cells of each
    generation-``g`` cube, each one reshape-sum of ``cells``.
    """

    def __init__(self, depth: int, cells: np.ndarray):
        self.depth = depth
        self.cells = np.array(cells, dtype=bool)
        self.cells.flags.writeable = False
        self.dim = self.cells.ndim
        top = 1 << depth
        if self.cells.shape != (top,) * self.dim:
            raise ValueError("cells array must be (2^depth,)^dim")
        d = self.dim
        self._tables = [
            self.cells.reshape((1 << g, 1 << (depth - g)) * d).sum(
                axis=tuple(range(1, 2 * d, 2)),
                dtype=np.min_scalar_type(1 << ((depth - g) * d)))
            for g in range(depth + 1)]

    def _count(self, gen: int, idx):
        """Set cells in the generation-``gen`` cubes with per-axis indices
        ``idx`` (integers or index arrays), and the cells such a cube
        holds; a cube finer than a cell reads its one cell."""
        if gen > self.depth:
            idx = tuple(i >> (gen - self.depth) for i in idx)
            gen = self.depth
        return (self._tables[gen][tuple(idx)],
                1 << ((self.depth - gen) * self.dim))

    def contains_cube(self, cube):
        count, size = self._count(cube.gen, cube.idx)
        return bool(count == size)

    def measure_in_cube(self, cube):
        count, size = self._count(cube.gen, cube.idx)
        return F(int(count), size << (cube.gen * self.dim))

    def _generation(self, gen, idx):
        count, size = self._count(gen, idx.T)
        return count == size, count, size

    @classmethod
    def from_field_level(cls, fld: ScalarField, level: float, depth: int):
        """Rasterize ``{u > level}`` over the unit cube.

        Cell membership is sampled at cell centers on the field's lattice
        (nearest node); a center off the grid's hull is a ``ValueError``.
        """
        top = 1 << depth
        g = fld.grid
        centers = -0.5 + (2 * np.arange(top) + 1) / (2 * top)
        mesh = np.meshgrid(*([centers] * g.dim), indexing="ij")
        pts = np.stack(mesh, axis=-1).reshape(-1, g.dim)
        at = (pts - np.asarray(g.origin)) / g.h
        if np.any((at < -1e-9) | (at > np.asarray(g.counts) - 1 + 1e-9)):
            raise ValueError("a cell center of the unit cube is off the grid")
        cells = fld.values[tuple(np.rint(at).astype(int).T)] > level
        return cls(depth, cells.reshape((top,) * g.dim))


# ---------------------------------------------------------------------------
# dyadic decomposition and Calderon-Zygmund selection


@dataclass
class Decomposition:
    """Selected dyadic cubes plus the uncovered residual measure."""

    cubes: list[DyadicCube]
    residual: Fraction

    @property
    def covered(self) -> Fraction:
        if not self.cubes:
            return F(0)
        top, dim = max(c.gen for c in self.cubes), self.cubes[0].dim
        return F(sum(1 << ((top - c.gen) * dim) for c in self.cubes),
                 1 << (top * dim))


def _children(idx: np.ndarray) -> np.ndarray:
    """The children of the cubes ``idx`` ``(k, dim)``, cube by cube, the
    ``c``-th child of a cube at its corner ``c``: axis ``a`` is bit ``a``
    of ``c``."""
    dim = idx.shape[1]
    corners = (np.arange(1 << dim)[:, None] >> np.arange(dim)) & 1
    return (2 * idx[:, None, :] + corners).reshape(-1, dim)


def _depth_first(picked: list[tuple[int, np.ndarray]]) -> list[DyadicCube]:
    """The selected ``(gen, idx)`` cubes in the order a depth-first walk
    from the root meets them: sorted by their child digits (the corners of
    ``_children``), the coarsest digit first.  No cube is an ancestor of
    another, so the digits past a cube's generation, set to 0, never
    decide the order."""
    gens = np.concatenate([np.full(len(i), g) for g, i in picked])
    idx = np.concatenate([i for _, i in picked])
    order = np.arange(len(gens))
    if len(gens) and gens.max() > 0:
        bit = 1 << np.arange(idx.shape[1])
        digits = []
        for level in range(int(gens.max()), 0, -1):
            shift = gens - level
            digit = ((idx >> np.maximum(shift, 0)[:, None]) & 1) @ bit
            digits.append(np.where(shift >= 0, digit, 0))
        order = np.lexsort(digits)
    return [DyadicCube(g, tuple(i))
            for g, i in zip(gens[order].tolist(), idx[order].tolist())]


def dyadic_decomposition(E: ExactRegion, max_depth: int) -> Decomposition:
    """Maximal dyadic cubes contained in ``E``.

    A cube is selected when it lies inside ``E`` but its progenitor does
    not; the descent stops at ``max_depth`` and the measure of ``E`` left
    uncovered there is reported as the residual.  Selections and subset
    tests are pointwise-exact; the residual is a Lebesgue measure.  The
    tree is walked a generation at a time, and the cubes come in the
    order of a depth-first walk.
    """
    if max_depth < 0:
        raise ValueError("max_depth must be >= 0")
    idx = np.zeros((1, E.dim), dtype=np.int64)
    picked = []
    residual = F(0)
    for gen in range(max_depth + 1):
        inside, count, size = E._generation(gen, idx)
        hit = count > 0
        picked.append((gen, idx[hit & inside]))
        live = hit & ~inside
        if gen == max_depth:
            residual = F(int(count[live].sum()), size << (gen * E.dim))
            break
        idx = _children(idx[live])
        if not len(idx):
            break
    return Decomposition(cubes=_depth_first(picked), residual=residual)


def cz_selection(F_region: ExactRegion, eta: Fraction,
                 max_depth: int) -> Decomposition:
    """Stopping-time cubes where ``F`` has density above ``1 - eta``.

    Descends from the unit cube splitting every cube whose density does
    not exceed the threshold; thresholds are compared exactly.  The root
    must itself fail the threshold.  Residual is the mass of ``F`` inside
    max-depth cubes that never crossed the threshold.  The tree is walked
    a generation at a time, from the root's children, and the cubes come
    in the order of a depth-first walk.
    """
    eta = F(eta)
    if not (0 < eta < 1):
        raise ValueError("eta must lie in (0, 1)")
    dim = F_region.dim
    idx = np.zeros((1, dim), dtype=np.int64)
    # density count / size > 1 - eta = (q - p) / q, with eta = p / q, holds
    # for an integer count exactly when count > floor((q - p) size / q)
    cut = eta.denominator - eta.numerator
    _, count, size = F_region._generation(0, idx)
    if count[0] > cut * size // eta.denominator:
        raise ValueError("root cube already exceeds the density threshold")
    picked = []
    residual = F(0)
    for gen in range(1, max(max_depth, 1) + 1):
        idx = _children(idx)
        _, count, size = F_region._generation(gen, idx)
        above = count > cut * size // eta.denominator
        picked.append((gen, idx[above]))
        live = (count > 0) & ~above
        if gen >= max_depth:
            residual = F(int(count[live].sum()), size << (gen * dim))
            break
        idx = idx[live]
        if not len(idx):
            break
    return Decomposition(cubes=_depth_first(picked), residual=residual)


# ---------------------------------------------------------------------------
# Vitali selection


@dataclass(frozen=True)
class BallCollection:
    """Finite family of balls with exact rational centers and radii."""

    centers: tuple[tuple[Fraction, ...], ...]
    radii: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.centers) != len(self.radii):
            raise ValueError("centers/radii length mismatch")
        if any(r <= 0 for r in self.radii):
            raise ValueError("radii must be positive")

    def __len__(self):
        return len(self.radii)


def _dist2(a, b) -> Fraction:
    return sum((x - y) ** 2 for x, y in zip(a, b))


@dataclass
class VitaliSelection:
    """Disjoint sub-family whose 5x dilations cover the input."""

    collection: BallCollection
    selected: list[int]
    cover_of: list[int]  # for each input ball, the selected index covering it

    def check(self) -> CheckReport:
        """Exact disjointness + 5x-dilation coverage certificate."""
        c, r = self.collection.centers, self.collection.radii
        sel = self.selected
        overlap = any(_dist2(c[i], c[j]) < (r[i] + r[j]) ** 2
                      for k, i in enumerate(sel) for j in sel[k + 1:])
        # ball b lies in 5 B_s iff |c_b - c_s| + r_b <= 5 r_s
        escape = any(r[b] > 5 * r[s]
                     or _dist2(c[b], c[s]) > (5 * r[s] - r[b]) ** 2
                     for b, s in enumerate(self.cover_of))
        return make_report("vitali", 0.0, 0.0,
                           constants={"n_selected": len(sel),
                                      "n_balls": len(self.collection)},
                           notes="exact disjointness and 5x coverage",
                           fail="selected balls overlap" if overlap else
                           "a ball escapes its 5x dilation" if escape else None)


def vitali_select(collection: BallCollection) -> VitaliSelection:
    """Greedy selection by decreasing radius (ties by input order).

    Selected balls are pairwise disjoint and every input ball is covered
    by the 5x dilation of a selected ball it intersects.
    """
    n = len(collection)
    order = sorted(range(n), key=lambda i: (-collection.radii[i], i))
    selected: list[int] = []
    cover_of = [-1] * n
    for i in order:
        ci, ri = collection.centers[i], collection.radii[i]
        hit = None
        for j in selected:
            if _dist2(ci, collection.centers[j]) \
                    < (ri + collection.radii[j]) ** 2:
                hit = j
                break
        if hit is None:
            selected.append(i)
            cover_of[i] = i
        else:
            cover_of[i] = hit
    return VitaliSelection(collection=collection, selected=selected,
                           cover_of=cover_of)


# ---------------------------------------------------------------------------
# ink spots


def ink_spots_check(E: Region, F_reg: Region, grid,
                    eta: float) -> CheckReport:
    """Growth of a set around the balls it already fills.

    Hypothesis (sampled at ``n_sample = 200`` nodes drawn with
    replacement, seed 0): whenever a ball ``B_r(x) subset B_1`` has its
    half-radius core meeting ``F``, the set ``E`` fills an ``eta``
    fraction of ``B_{rho0 r}(x)``, ``rho0 = 1/6``.  Conclusion: ``E``
    minus ``F`` covers a ``5^-n eta`` fraction of ``B_{rho1}`` minus
    ``F``, ``rho1 = 1/7``, via disjoint balls sitting between points of
    the complement and ``F``.  ``constants`` records how much of the
    hypothesis was looked at: ``n_tested`` balls had their density
    checked, out of ``n_distinct`` distinct nodes drawn.
    """
    rho0 = 1 / 6
    rho1 = 1 / 7
    n_sample = 200
    seed = 0
    n = grid.dim
    pts = grid.coords()
    Em = E.mask(grid)
    Fm = F_reg.mask(grid)
    rng = np.random.default_rng(seed)

    # sampled hypothesis check, with replacement
    hyp_ok = True
    n_tested = n_distinct = 0
    cand = np.argwhere(Ball((0.0,) * n, 1.0 - 4 * grid.h).mask(grid))
    f_pts = pts[Fm]
    if len(cand):
        draw = rng.integers(0, len(cand), size=min(n_sample, len(cand)))
        n_distinct = len(np.unique(draw))
        for idx in cand[draw]:
            x = pts[tuple(idx)]
            rmax = 1.0 - float(np.linalg.norm(x))
            r = rmax * 0.5
            # most cores miss F: test them on the nodes of F alone
            if not (np.sqrt(_sq_dist(f_pts, x)) <= r / 2).any():
                continue
            dist = np.sqrt(_sq_dist(pts, x))
            spot = dist < rho0 * r
            if spot.sum() == 0:
                continue
            n_tested += 1
            dens = (spot & Em).sum() / spot.sum()
            if dens < eta - 1e-9:
                hyp_ok = False
                break

    inner = Ball((0.0,) * n, rho1).mask(grid)
    target = inner & ~Fm
    lhs = float(((Em & ~Fm) & inner).sum()) * grid.cell_measure
    rhs = (eta / 5 ** n) * float(target.sum()) * grid.cell_measure
    return make_report("ink-spots", rhs, lhs,
                       constants={"eta": eta, "rho0": rho0, "rho1": rho1,
                                  "n_sample": n_sample, "n_tested": n_tested,
                                  "n_distinct": n_distinct},
                       grid=grid.meta(), seed=seed,
                       notes="growth of E beyond F inside the core ball",
                       hypothesis=None if hyp_ok
                       else "sampled hypothesis failed")


# ---------------------------------------------------------------------------
# stacking


@dataclass(frozen=True)
class Cylinder:
    """Dyadic parabolic cylinder: spatial cube x time interval [t-r, t].

    Generation-k cylinders have spatial side ``2**-k`` and height
    ``4**-k``; the top time ``t`` sits on the ``4**-k`` lattice.
    """

    cube: DyadicCube
    t: Fraction

    def __post_init__(self):
        r = self.height
        if F(self.t) % r != 0:
            raise ValueError("cylinder top must sit on the time lattice")

    @property
    def height(self) -> Fraction:
        return F(1, 4 ** self.cube.gen)

    def interval(self) -> tuple[Fraction, Fraction]:
        return (F(self.t) - self.height, F(self.t))

    def stacked(self, m: int) -> tuple[Fraction, Fraction]:
        return (F(self.t), F(self.t) + m * self.height)


def _interval_union_length(ivs: list[tuple[Fraction, Fraction]]) -> Fraction:
    total, end = F(0), None
    for a, b in sorted(ivs):
        if end is None or a > end:
            total, end = total + b - a, b
        elif b > end:
            total, end = total + b - end, b
    return total


def stacking(cylinders: Sequence[Cylinder], m: int) -> CheckReport:
    """Stacked cylinders keep at least ``m/(m+1)`` of the combined mass.

    ``|union of stacks| >= m/(m+1) |union of (stacks + originals)|``,
    computed exactly.  Over a point, the family's cubes that hold it form
    a chain, and the time section there is the union of the chain's
    intervals.  So each cube adds ``|q| (L(q) - L(parent))``, with ``L``
    the union length of its own and its nearest family ancestor's
    intervals, and the sum telescopes to ``L`` at the deepest cube.
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    if not cylinders:
        raise ValueError("need at least one cylinder")
    dim = cylinders[0].cube.dim
    if any(c.cube.dim != dim for c in cylinders):
        raise ValueError("mixed spatial dimensions")

    by_cube: dict[DyadicCube, list[Cylinder]] = {}
    for c in cylinders:
        by_cube.setdefault(c.cube, []).append(c)

    # per cube: stacks, stacks plus originals, and their union lengths;
    # in generation order a cube's ancestors are done before it
    done: dict[DyadicCube, tuple[list, list, Fraction, Fraction]] = {}
    vol_stack = vol_both = F(0)
    for q in sorted(by_cube, key=lambda q: q.gen):
        up = (DyadicCube(g, tuple(i >> (q.gen - g) for i in q.idx))
              for g in range(q.gen - 1, -1, -1))
        stacks, both, up_stack, up_both = next(
            (done[a] for a in up if a in done), ([], [], F(0), F(0)))
        stacks = stacks + [c.stacked(m) for c in by_cube[q]]
        both = both + [iv for c in by_cube[q]
                       for iv in (c.stacked(m), c.interval())]
        l_stack = _interval_union_length(stacks)
        l_both = _interval_union_length(both)
        vol_stack += q.measure * (l_stack - up_stack)
        vol_both += q.measure * (l_both - up_both)
        done[q] = stacks, both, l_stack, l_both

    lhs = F(m, m + 1) * vol_both
    return make_report("stacking", lhs, vol_stack,
                       constants={"m": m, "n_cylinders": len(cylinders)},
                       notes="stacked mass vs combined mass, exact rationals")


# ---------------------------------------------------------------------------
# sun rising


def sun_rising(fld: ScalarField, m: float):
    """Shaded set of the slope-``m`` sun-rising decomposition on (0, 1).

    A node is sunny when ``u(x) - m x`` dominates its value at every node
    to the right.  Returns the shaded node mask and the measure bound
    ``|S| <= osc(u)/m`` (up to one cell on each end of every shaded run).
    """
    if fld.grid.dim != 1:
        raise ValueError("sun rising is one-dimensional")
    if m <= 0:
        raise ValueError("slope m must be positive")
    g = fld.grid
    x = g.axes()[0]
    w = fld.values - m * x
    # suffix max of w to the right (strictly after each node)
    suff = np.append(np.maximum.accumulate(w[:0:-1])[::-1], -np.inf)
    sunny = w >= suff
    shaded = ~sunny
    measure = float(shaded.sum()) * g.h
    osc = oscillation(fld)
    rep = make_report("sun-rising", measure, osc / m, tol=2 * g.h,
                      constants={"m": m, "osc": osc},
                      grid=g.meta(),
                      notes="shaded measure vs osc/m")
    return shaded, rep
