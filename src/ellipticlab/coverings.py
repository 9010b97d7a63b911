"""Covering combinatorics in exact rational arithmetic.

Dyadic decompositions, density-driven cube selection, Vitali ball
selection, cylinder stacking and the one-dimensional sun-rising lemma.
Geometry here is exact: cube corners, ball centers/radii, times and
measures are `fractions.Fraction`s, so set relations and measure
comparisons carry no floating-point slack.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .grid import ScalarField, Region
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
        return self.side ** self.dim

    def interval(self, axis: int) -> tuple[Fraction, Fraction]:
        lo = -HALF + F(self.idx[axis], 1 << self.gen)
        return lo, lo + self.side

    def center(self) -> tuple[Fraction, ...]:
        return tuple(lo + self.side / 2
                     for lo, _ in (self.interval(a) for a in range(self.dim)))

    def children(self) -> list["DyadicCube"]:
        out = []
        for corner in range(1 << self.dim):
            idx = tuple(2 * self.idx[a] + ((corner >> a) & 1)
                        for a in range(self.dim))
            out.append(DyadicCube(self.gen + 1, idx))
        return out

    def contains_cube(self, other: "DyadicCube") -> bool:
        if other.gen < self.gen:
            return False
        shift = other.gen - self.gen
        return all((other.idx[a] >> shift) == self.idx[a]
                   for a in range(self.dim))


# ---------------------------------------------------------------------------
# exact regions inside the unit cube


class ExactRegion:
    """Measurable subset of the unit cube with exact cube predicates."""

    dim: int

    def contains_cube(self, cube: DyadicCube) -> bool:
        """Pointwise: every point of the closed cube belongs to the set."""
        raise NotImplementedError

    def intersects_cube(self, cube: DyadicCube) -> bool:
        """The set has positive measure in the cube."""
        raise NotImplementedError

    def measure_in_cube(self, cube: DyadicCube) -> Fraction:
        """Lebesgue measure of (set intersect cube)."""
        raise NotImplementedError

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

    def intersects_cube(self, cube):
        return all(self._axis_rel(a, cube)[1] > 0 for a in range(self.dim))

    def measure_in_cube(self, cube):
        out = F(1)
        for a in range(self.dim):
            out *= self._axis_rel(a, cube)[1]
        return out

    @classmethod
    def from_bounds(cls, bounds: Sequence[tuple], open_lo=False, open_hi=False):
        ivs = []
        for b in bounds:
            if len(b) == 2:
                ivs.append((F(b[0]), F(b[1]), open_lo, open_hi))
            else:
                ivs.append((F(b[0]), F(b[1]), bool(b[2]), bool(b[3])))
        return cls(tuple(ivs))


class CellUnion(ExactRegion):
    """Union of closed depth-``d`` dyadic cells given by a boolean array."""

    def __init__(self, depth: int, cells: np.ndarray):
        self.depth = depth
        self.cells = np.asarray(cells, dtype=bool)
        self.dim = self.cells.ndim
        top = 1 << depth
        if self.cells.shape != (top,) * self.dim:
            raise ValueError("cells array must be (2^depth,)^dim")

    def _block(self, cube: DyadicCube) -> np.ndarray:
        """The cells of the cube, or the one cell that holds a finer cube."""
        shift = self.depth - cube.gen
        if shift >= 0:
            sl = tuple(slice(i << shift, (i + 1) << shift) for i in cube.idx)
        else:
            sl = tuple(slice(i >> -shift, (i >> -shift) + 1) for i in cube.idx)
        return self.cells[sl]

    def contains_cube(self, cube):
        return bool(self._block(cube).all())

    def intersects_cube(self, cube):
        return bool(self._block(cube).any())

    def measure_in_cube(self, cube):
        blk = self._block(cube)
        return F(int(blk.sum()), blk.size) * cube.measure

    @classmethod
    def from_field_level(cls, fld: ScalarField, level: float, depth: int):
        """Rasterize ``{u > level}`` over the unit cube.

        Cell membership is sampled at cell centers on the field's lattice
        (nearest node).
        """
        top = 1 << depth
        g = fld.grid
        centers = -0.5 + (2 * np.arange(top) + 1) / (2 * top)
        mesh = np.meshgrid(*([centers] * g.dim), indexing="ij")
        pts = np.stack(mesh, axis=-1).reshape(-1, g.dim)
        idx = np.rint((pts - np.asarray(g.origin)) / g.h).astype(int)
        idx = np.clip(idx, 0, np.asarray(g.counts) - 1)
        cells = fld.values[tuple(idx.T)] > level
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
        return sum((c.measure for c in self.cubes), F(0))


def dyadic_decomposition(E: ExactRegion, max_depth: int) -> Decomposition:
    """Maximal dyadic cubes contained in ``E``.

    A cube is selected when it lies inside ``E`` but its progenitor does
    not; recursion stops at ``max_depth`` and the measure of ``E`` left
    uncovered there is reported as the residual.  Selections and subset
    tests are pointwise-exact; the residual is a Lebesgue measure.
    """
    if max_depth < 0:
        raise ValueError("max_depth must be >= 0")
    root = DyadicCube(0, (0,) * E.dim)
    cubes: list[DyadicCube] = []
    residual = F(0)

    def visit(cube: DyadicCube):
        nonlocal residual
        if not E.intersects_cube(cube):
            return
        if E.contains_cube(cube):
            cubes.append(cube)
        elif cube.gen == max_depth:
            residual += E.measure_in_cube(cube)
        else:
            for ch in cube.children():
                visit(ch)

    visit(root)
    return Decomposition(cubes=cubes, residual=residual)


def cz_selection(F_region: ExactRegion, eta: Fraction,
                 max_depth: int) -> Decomposition:
    """Stopping-time cubes where ``F`` has density above ``1 - eta``.

    Descends from the unit cube splitting every cube whose density does
    not exceed the threshold; thresholds are compared exactly.  The root
    must itself fail the threshold.  Residual is the mass of ``F`` inside
    max-depth cubes that never crossed the threshold.
    """
    eta = F(eta)
    if not (0 < eta < 1):
        raise ValueError("eta must lie in (0, 1)")
    root = DyadicCube(0, (0,) * F_region.dim)
    thr = 1 - eta
    if F_region.measure_in_cube(root) > thr * root.measure:
        raise ValueError("root cube already exceeds the density threshold")
    cubes: list[DyadicCube] = []
    residual = F(0)

    def visit(cube: DyadicCube):
        nonlocal residual
        for ch in cube.children():
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
    return Decomposition(cubes=cubes, residual=residual)


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
        ok = True
        for i_pos, i in enumerate(self.selected):
            for j in self.selected[i_pos + 1:]:
                if _dist2(c[i], c[j]) < (r[i] + r[j]) ** 2:
                    ok = False
        for b, s in enumerate(self.cover_of):
            # need |c_b - c_s| + r_b <= 5 r_s
            lim = 5 * r[s] - r[b]
            if lim < 0 or _dist2(c[b], c[s]) > lim ** 2:
                ok = False
        return make_report("vitali", 0.0 if ok else 1.0, 0.0,
                           constants={"n_selected": len(self.selected),
                                      "n_balls": len(self.collection)},
                           notes="exact disjointness and 5x coverage")


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
    rad = np.linalg.norm(pts, axis=-1)

    # sampled hypothesis check, with replacement
    hyp_ok = True
    n_tested = n_distinct = 0
    cand = np.argwhere(rad < 1.0 - 4 * grid.h)
    if len(cand):
        draw = rng.integers(0, len(cand), size=min(n_sample, len(cand)))
        n_distinct = len(np.unique(draw))
        for idx in cand[draw]:
            x = pts[tuple(idx)]
            rmax = 1.0 - float(np.linalg.norm(x))
            r = rmax * 0.5
            core = np.linalg.norm(pts - x, axis=-1) <= r / 2
            if not (core & Fm).any():
                continue
            spot = np.linalg.norm(pts - x, axis=-1) < rho0 * r
            if spot.sum() == 0:
                continue
            n_tested += 1
            dens = (spot & Em).sum() / spot.sum()
            if dens < eta - 1e-9:
                hyp_ok = False
                break

    inner = rad < rho1
    target = inner & ~Fm
    lhs = float(((Em & ~Fm) & inner).sum()) * grid.cell_measure
    rhs = (eta / 5 ** n) * float(target.sum()) * grid.cell_measure
    rep = make_report("ink-spots", rhs, lhs,
                      constants={"eta": eta, "rho0": rho0, "rho1": rho1,
                                 "n_sample": n_sample, "n_tested": n_tested,
                                 "n_distinct": n_distinct},
                      grid=grid.meta(), seed=seed,
                      notes="growth of E beyond F inside the core ball")
    if not hyp_ok:
        rep.passed = False
        rep.notes += "; sampled hypothesis failed"
    return rep


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
    if not ivs:
        return F(0)
    ivs = sorted(ivs)
    total = F(0)
    lo, hi = ivs[0]
    for a, b in ivs[1:]:
        if a > hi:
            total += hi - lo
            lo, hi = a, b
        else:
            hi = max(hi, b)
    total += hi - lo
    return total


def stacking(cylinders: Sequence[Cylinder], m: int) -> CheckReport:
    """Stacked cylinders keep at least ``m/(m+1)`` of the combined mass.

    ``|union of stacks| >= m/(m+1) |union of (stacks + originals)|``,
    computed exactly by decomposing space into the atoms of the nesting
    forest of the spatial cubes and taking 1-d interval unions per atom.
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    if not cylinders:
        raise ValueError("need at least one cylinder")
    dim = cylinders[0].cube.dim
    if any(c.cube.dim != dim for c in cylinders):
        raise ValueError("mixed spatial dimensions")

    # group intervals by spatial cube
    by_cube: dict[DyadicCube, list[Cylinder]] = {}
    for c in cylinders:
        by_cube.setdefault(c.cube, []).append(c)
    cubes = list(by_cube)

    # nesting forest: nearest strict ancestor present in the family
    parent: dict[DyadicCube, DyadicCube | None] = {}
    for q in cubes:
        best = None
        for p in cubes:
            if p is not q and p.contains_cube(q):
                if best is None or p.gen > best.gen:
                    best = p
        parent[q] = best

    children_measure: dict[DyadicCube, Fraction] = {q: F(0) for q in cubes}
    for q in cubes:
        p = parent[q]
        if p is not None:
            children_measure[p] += q.measure
    # direct children only: subtract grandchildren double counting by
    # attributing each cube to its nearest ancestor (already done above)

    def ancestors(q):
        while q is not None:
            yield q
            q = parent[q]

    vol_stack = F(0)
    vol_both = F(0)
    for q in cubes:
        atom = q.measure - children_measure[q]
        if atom < 0:
            raise RuntimeError("inconsistent nesting")
        stacks, both = [], []
        for anc in ancestors(q):
            for cyl in by_cube[anc]:
                s = cyl.stacked(m)
                stacks.append(s)
                both.append(s)
                both.append(cyl.interval())
        vol_stack += atom * _interval_union_length(stacks)
        vol_both += atom * _interval_union_length(both)

    lhs = F(m, m + 1) * vol_both
    rep = make_report("stacking", float(lhs), float(vol_stack),
                      constants={"m": m, "n_cylinders": len(cylinders),
                                 "exact": vol_stack >= lhs},
                      notes="stacked mass vs combined mass, exact rationals")
    rep.passed = bool(vol_stack >= lhs)
    rep.margin = float(vol_stack - lhs)
    return rep


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
    osc = float(fld.values.max() - fld.values.min())
    rep = make_report("sun-rising", measure, osc / m, tol=2 * g.h,
                      constants={"m": m, "osc": osc},
                      grid=g.meta(),
                      notes="shaded measure vs osc/m")
    return shaded, rep
