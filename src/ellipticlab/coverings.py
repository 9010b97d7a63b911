"""Covering combinatorics in exact rational arithmetic.

Dyadic decompositions; the Calderon-Zygmund cube lemma and the finite
Vitali lemma with dilation 3, one check each; cylinder stacking, ink spots
and the one-dimensional sun-rising lemma.
Geometry here is exact: cube corners, ball centers/radii, times and
measures are `fractions.Fraction`s at the API, so set relations and
measure comparisons carry no floating-point slack; inside they are Python
integers over a common denominator (a generation's cell, an lcm).
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
    "BallCollection", "Cylinder", "dyadic_decomposition", "cz_selection",
    "cz_cube_lemma_check", "vitali_check", "ink_spots_check", "stacking",
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

    def interval(self, axis: int) -> tuple[Fraction, Fraction]:
        lo = -HALF + F(self.idx[axis], 1 << self.gen)
        return lo, lo + self.side

    def center(self) -> tuple[Fraction, ...]:
        return tuple(lo + self.side / 2
                     for lo, _ in (self.interval(a) for a in range(self.dim)))


# ---------------------------------------------------------------------------
# exact regions inside the unit cube


class ExactRegion:
    """Measurable subset of the unit cube.  A subclass answers one batched
    question, ``_generation``; every cube question is a batch of it."""

    dim: int

    def _generation(self, gen: int, idx: np.ndarray):
        """``(inside, count, size)`` for the generation-``gen`` cubes with
        corner indices ``idx`` ``(k, dim)``: whether every point of each
        closed cube belongs to the set, and the set's measure in each as
        ``count / size`` of the cube's measure (an integer array, one
        integer)."""
        raise NotImplementedError

    def measure_in_cube(self, cube: DyadicCube) -> Fraction:
        """Lebesgue measure of (set intersect cube)."""
        _, count, size = self._generation(cube.gen, np.array([cube.idx]))
        return F(int(count[0]), size << (cube.gen * self.dim))

    @property
    def measure(self) -> Fraction:
        return self.measure_in_cube(DyadicCube(0, (0,) * self.dim))


@dataclass(frozen=True)
class BoxRegion(ExactRegion):
    """Product of intervals with individually open/closed endpoints.

    ``intervals[a] = (lo, hi, lo_open, hi_open)`` with Fraction bounds.
    """

    intervals: tuple[tuple[Fraction, Fraction, bool, bool], ...]

    @property
    def dim(self) -> int:
        return len(self.intervals)

    def _generation(self, gen, idx):
        # exact integers in units of 1 / (2^(gen+1) q), q the lcm of the
        # bound denominators: a cube's side is 2q; object arrays, so that
        # nothing overflows
        q = math.lcm(*(x.denominator for iv in self.intervals
                       for x in iv[:2]))
        low = (2 * idx.astype(object) - (1 << gen)) * q
        inside = np.ones(len(idx), dtype=bool)
        count = np.ones(len(idx), dtype=object)
        for axis, (lo, hi, lo_open, hi_open) in enumerate(self.intervals):
            lo, hi = (int(x * (q << (gen + 1))) for x in (lo, hi))
            a, b = low[:, axis], low[:, axis] + 2 * q
            inside &= (a > lo if lo_open else a >= lo) \
                & (b < hi if hi_open else b <= hi)
            count *= np.maximum(np.minimum(b, hi) - np.maximum(a, lo), 0)
        return inside, count, (2 * q) ** self.dim


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

    def _generation(self, gen, idx):
        # a cube finer than a cell reads the one cell that holds it
        if gen > self.depth:
            idx, gen = idx >> (gen - self.depth), self.depth
        count = self._tables[gen][tuple(idx.T)]
        size = 1 << ((self.depth - gen) * self.dim)
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


def _descend(region: ExactRegion, gen: int, idx: np.ndarray, max_depth: int,
             stop) -> Decomposition:
    """The stopping-time descent from the generation-``gen`` cubes ``idx``
    ``(k, dim)``, a generation at a time: it keeps the cubes where
    ``stop(inside, count, size)`` holds (the arrays of
    ``region._generation``) and splits the others that meet the region.
    At ``max_depth`` the region's measure in the cubes still split is the
    residual; with none left to split it stops early, residual 0.  The
    cubes come coarsest generation first, each generation in the order
    ``_children`` enumerates it."""
    cubes = []
    while True:
        inside, count, size = region._generation(gen, idx)
        keep = stop(inside, count, size)
        cubes += [DyadicCube(gen, tuple(i)) for i in idx[keep].tolist()]
        live = (count > 0) & ~keep
        if gen == max_depth or not live.any():
            return Decomposition(cubes, F(int(count[live].sum()),
                                          size << (gen * region.dim)))
        idx = _children(idx[live])
        gen += 1


def dyadic_decomposition(E: ExactRegion, max_depth: int) -> Decomposition:
    """Maximal dyadic cubes contained in ``E``.

    A cube is selected when it lies inside ``E`` but its progenitor does
    not; the descent stops at ``max_depth`` and the measure of ``E`` left
    uncovered there is reported as the residual.  Selections and subset
    tests are pointwise-exact; the residual is a Lebesgue measure.  The
    cubes come coarsest generation first, each generation in the order
    ``_children`` enumerates it.
    """
    if max_depth < 0:
        raise ValueError("max_depth must be >= 0")
    return _descend(E, 0, np.zeros((1, E.dim), dtype=np.int64), max_depth,
                    lambda inside, count, size: inside & (count > 0))


def cz_selection(F_region: ExactRegion, eta: Fraction,
                 max_depth: int) -> Decomposition:
    """Stopping-time cubes where ``F`` has density above ``1 - eta``.

    Descends from the unit cube splitting every cube whose density does
    not exceed the threshold; thresholds are compared exactly.  The root
    must itself fail the threshold.  Residual is the mass of ``F`` inside
    max-depth cubes that never crossed the threshold.  The cubes come
    coarsest generation first, each generation in the order ``_children``
    enumerates it.
    """
    eta = F(eta)
    if not (0 < eta < 1):
        raise ValueError("eta must lie in (0, 1)")
    root = np.zeros((1, F_region.dim), dtype=np.int64)
    # density count / size > 1 - eta = (q - p) / q, with eta = p / q, holds
    # for an integer count exactly when count > floor((q - p) size / q)
    cut, q = eta.denominator - eta.numerator, eta.denominator
    _, count, size = F_region._generation(0, root)
    if count[0] > cut * size // q:
        raise ValueError("root cube already exceeds the density threshold")
    return _descend(F_region, 1, _children(root), max(max_depth, 1),
                    lambda inside, count, size: count > cut * size // q)


def cz_cube_lemma_check(A: ExactRegion) -> CheckReport:
    """The Calderon-Zygmund cube lemma (Caffarelli-Cabre, Lemma 4.2) at
    ``delta = 1/2``, exactly: for ``A`` in ``Q_1`` with ``|A| <= delta``,
    the ``Q_j`` the maximal dyadic cubes with ``|A cap Q| > delta |Q|``
    (:func:`cz_selection` at ``eta = 1 - delta``, depth 6) and ``G`` the
    union of their predecessors, ``|A| - residual <= delta |G|``: the
    residual is ``A``'s mass in cubes never selected."""
    delta = HALF
    mass = A.measure
    hyp = None if mass <= delta else "hypothesis failed: |A| above delta"
    czs = cz_selection(A, 1 - delta, max_depth=6) if hyp is None \
        else Decomposition([], F(0))
    # a predecessor inside another counts once, through the larger
    preds = {(c.gen - 1, tuple(i >> 1 for i in c.idx)) for c in czs.cubes}
    top = [g for g, idx in preds if not any(
        (g - k, tuple(i >> k for i in idx)) in preds for k in range(1, g + 1))]
    G = sum((F(1, 1 << (g * A.dim)) for g in top), F(0))
    return make_report("cz-cube-lemma", mass - czs.residual, delta * G,
                       constants={"delta": float(delta), "A": float(mass),
                                  "G": float(G),
                                  "residual": float(czs.residual),
                                  "n_cubes": len(czs.cubes),
                                  "n_predecessors": len(top)},
                       notes="selected mass of A vs delta |G|, exact "
                       "rationals", hypothesis=hyp)


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


def _scaled(balls: BallCollection) -> tuple[list, list]:
    """The centers and radii times the lcm of their denominators: Python
    integers that compare as the ``Fraction``s do."""
    vals = [F(x) for c in balls.centers for x in c] + list(map(F, balls.radii))
    L = math.lcm(*(v.denominator for v in vals))
    ints = iter([v.numerator * (L // v.denominator) for v in vals])
    return [[next(ints) for _ in c] for c in balls.centers], list(ints)


def _dist2(a, b) -> int:
    return sum((x - y) ** 2 for x, y in zip(a, b))


def _vitali_select(c: list, r: list) -> tuple[list[int], list[int]]:
    """Greedy selection by decreasing radius (ties by input order) over
    the scaled centers ``c`` and radii ``r`` of :func:`_scaled`: the
    selected indices, and for each input ball the selected ball it meets
    first (itself when selected)."""
    n = len(r)
    order = sorted(range(n), key=lambda i: (-r[i], i))
    selected: list[int] = []
    cover_of = [-1] * n
    for i in order:
        hit = None
        for j in selected:
            if _dist2(c[i], c[j]) < (r[i] + r[j]) ** 2:
                hit = j
                break
        if hit is None:
            selected.append(i)
            cover_of[i] = i
        else:
            cover_of[i] = hit
    return selected, cover_of


def vitali_check(collection: BallCollection) -> CheckReport:
    """The finite Vitali covering lemma (Stein, *Harmonic Analysis*, ch.
    1): the greedy selection by decreasing radius (ties by input order) is
    pairwise disjoint, and every input ball lies in the 3x dilation of the
    selected ball it was assigned to, one it intersects.

    lhs is the dilation needed, ``max_b (|c_b - c_s| + r_b) / r_s`` over
    each ball ``b`` and its selected ball ``s``, as a float against 3;
    both conditions are decided exactly, and ``tol`` absorbs only the
    rounding of that float.
    """
    c, r = _scaled(collection)
    sel, cover_of = _vitali_select(c, r)
    overlap = any(_dist2(c[i], c[j]) < (r[i] + r[j]) ** 2
                  for k, i in enumerate(sel) for j in sel[k + 1:])
    # ball b lies in 3 B_s iff |c_b - c_s| + r_b <= 3 r_s
    escape = any(r[b] > 3 * r[s]
                 or _dist2(c[b], c[s]) > (3 * r[s] - r[b]) ** 2
                 for b, s in enumerate(cover_of))
    # integer quotients, so that no scaled value overflows a float
    needed = max((math.sqrt(_dist2(c[b], c[s]) / r[s] ** 2) + r[b] / r[s]
                  for b, s in enumerate(cover_of)), default=0.0)
    return make_report("vitali", needed, 3.0, tol=1e-12,
                       constants={"n_selected": len(sel),
                                  "n_balls": len(collection)},
                       notes="exact disjointness and 3x coverage",
                       fail="selected balls overlap" if overlap else
                       "a ball escapes its 3x dilation" if escape else None)


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
    checked, out of ``n_distinct`` distinct nodes drawn.  ``eta`` must
    lie in (0, 1].
    """
    if not 0 < eta <= 1:
        raise ValueError(f"eta must lie in (0, 1], got {eta}")
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
        n_distinct = len(set(draw.tolist()))
        xs = pts[tuple(cand[draw].T)]
        radii = np.array([(1.0 - float(np.linalg.norm(x))) * 0.5 for x in xs])
        # most cores miss F: test every draw's on the nodes of F at once
        hits = (np.sqrt(_sq_dist(f_pts[None], xs[:, None]))
                <= (radii / 2)[:, None]).any(axis=1)
        for x, r, hit in zip(xs, radii, hits):
            if not hit:
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
        if F(self.t) % F(1, 4 ** self.cube.gen) != 0:
            raise ValueError("cylinder top must sit on the time lattice")


def _interval_union_length(ivs: list[tuple[int, int]]) -> int:
    total, end = 0, -math.inf
    for a, b in sorted(ivs):
        if b > end:
            total, end = total + b - max(a, end), b
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

    # in integers: times in units of 4^-top, measures of 2^-(top dim)
    top = max(c.cube.gen for c in cylinders)
    tops: dict[tuple, list[int]] = {}
    for c in cylinders:
        t = F(c.t) * 4 ** top
        tops.setdefault((c.cube.gen, c.cube.idx), []).append(t.numerator)

    # per cube: stacks, stacks plus originals, and their union lengths;
    # in generation order a cube's ancestors are done before it
    done: dict[tuple, tuple[list, list, int, int]] = {}
    vol_stack = vol_both = 0
    for gen, idx in sorted(tops, key=lambda q: q[0]):
        up = ((g, tuple(i >> (gen - g) for i in idx))
              for g in range(gen - 1, -1, -1))
        stacks, both, up_stack, up_both = next(
            (done[a] for a in up if a in done), ([], [], 0, 0))
        height, size = 4 ** (top - gen), 1 << ((top - gen) * dim)
        new = [(t, t + m * height) for t in tops[gen, idx]]
        stacks = stacks + new
        both = both + new + [(t - height, t) for t in tops[gen, idx]]
        l_stack, l_both = map(_interval_union_length, (stacks, both))
        vol_stack += size * (l_stack - up_stack)
        vol_both += size * (l_both - up_both)
        done[gen, idx] = stacks, both, l_stack, l_both

    unit = (1 << (top * dim)) * 4 ** top
    return make_report("stacking", F(m * vol_both, (m + 1) * unit),
                       F(vol_stack, unit),
                       constants={"m": m, "n_cylinders": len(cylinders)},
                       notes="stacked mass vs combined mass, exact rationals")


# ---------------------------------------------------------------------------
# sun rising


def _shaded(fld: ScalarField, m: float) -> np.ndarray:
    """The shaded nodes of the slope-``m`` sun-rising decomposition of a
    1-D field: a node is sunny when ``u(x) - m x`` dominates its value at
    every node to the right."""
    w = fld.values - m * fld.grid.axes()[0]
    # suffix max of w to the right (strictly after each node)
    suff = np.append(np.maximum.accumulate(w[:0:-1])[::-1], -np.inf)
    return ~(w >= suff)


def sun_rising(fld: ScalarField, m: float) -> CheckReport:
    """The shaded set ``S`` of the slope-``m`` sun-rising decomposition on
    (0, 1) is small: ``|S| <= osc(u)/m``, up to one cell on each end of
    every shaded run.
    """
    if fld.grid.dim != 1:
        raise ValueError("sun rising is one-dimensional")
    if not m > 0:
        raise ValueError(f"slope m must be positive, got {m}")
    g = fld.grid
    measure = float(_shaded(fld, m).sum()) * g.h
    osc = oscillation(fld)
    return make_report("sun-rising", measure, osc / m, tol=2 * g.h,
                       constants={"m": m, "osc": osc},
                       grid=g.meta(),
                       notes="shaded measure vs osc/m")
