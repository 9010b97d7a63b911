"""Uniform lattices, scalar fields and region predicates.

A :class:`Grid` is an axis-aligned uniform lattice with a single spacing
``h`` in every direction.  A :class:`ScalarField` stores one value per
node.  Regions are coordinate predicates evaluated on node coordinates;
set operations on regions compose predicates, and the induced measure of
a region on a grid is ``(#nodes inside) * h**dim``.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.typing import NDArray
from scipy import ndimage

__all__ = [
    "Grid", "ScalarField", "Region", "Ball", "ClosedBall", "Cube",
    "Annulus", "HalfSpace", "SubLevel", "SuperLevel", "NodeSet",
    "Intersection", "Union", "Difference", "Complement", "HolderModulus",
    "ball_volume", "oscillation", "lp_norm", "holder_seminorm",
    "weighted_seminorm", "rescale", "hardy_littlewood_maximal",
]


def _interior(shape) -> tuple[slice, ...]:
    """Index of the nodes off the outer layer of an array of this shape."""
    return tuple(slice(1, c - 1) for c in shape)


def ball_volume(dim: int, radius: float = 1.0) -> float:
    """Lebesgue measure of a ball in ``dim`` dimensions."""
    return math.pi ** (dim / 2) / math.gamma(dim / 2 + 1) * radius ** dim


@dataclass(frozen=True)
class Grid:
    """Uniform axis-aligned lattice.

    Nodes sit at ``origin[i] + k * h`` for ``k = 0 .. counts[i]-1``.
    """

    dim: int
    h: float
    origin: tuple[float, ...]
    counts: tuple[int, ...]

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {self.dim}")
        if not (self.h > 0):
            raise ValueError("spacing h must be positive")
        if len(self.origin) != self.dim or len(self.counts) != self.dim:
            raise ValueError("origin/counts length must match dim")
        if any(c < 3 for c in self.counts):
            raise ValueError("need at least 3 nodes per axis")

    @classmethod
    def cover(cls, center, radius: float, h: float) -> "Grid":
        """Smallest symmetric grid containing the box ``center +- radius``."""
        center = np.atleast_1d(np.asarray(center, dtype=float))
        dim = center.size
        half = int(math.ceil(radius / h - 1e-12))
        counts = tuple([2 * half + 1] * dim)
        origin = tuple(center - half * h)
        return cls(dim=dim, h=h, origin=origin, counts=counts)

    def axes(self) -> list[NDArray]:
        return [self.origin[i] + self.h * np.arange(self.counts[i])
                for i in range(self.dim)]

    def coords(self) -> NDArray:
        """Node coordinates, shape ``counts + (dim,)``; built once per grid
        and read-only."""
        return self._coords

    @functools.cached_property
    def _coords(self) -> NDArray:
        out = np.stack(np.meshgrid(*self.axes(), indexing="ij"), axis=-1)
        out.flags.writeable = False
        return out

    def points(self) -> NDArray:
        """Node coordinates flattened to ``(n_nodes, dim)``."""
        return self.coords().reshape(-1, self.dim)

    @property
    def n_nodes(self) -> int:
        return int(np.prod(self.counts))

    @property
    def cell_measure(self) -> float:
        return self.h ** self.dim

    def upper(self) -> tuple[float, ...]:
        return tuple(self.origin[i] + self.h * (self.counts[i] - 1)
                     for i in range(self.dim))

    def shrink(self, margin: int = 1) -> "Grid":
        """Sub-grid with ``margin`` node layers removed from every side."""
        counts = tuple(c - 2 * margin for c in self.counts)
        if any(c < 1 for c in counts):
            raise ValueError("grid too small to shrink")
        origin = tuple(o + margin * self.h for o in self.origin)
        return Grid(self.dim, self.h, origin, counts)

    def index_of(self, point) -> tuple[int, ...]:
        """Index of the nearest node; raises if off the lattice hull."""
        point = np.asarray(point, dtype=float)
        idx = np.rint((point - np.asarray(self.origin)) / self.h).astype(int)
        if np.any(idx < 0) or np.any(idx >= np.asarray(self.counts)):
            raise ValueError(f"point {point} outside grid")
        return tuple(int(i) for i in idx)

    def meta(self) -> dict:
        return {"h": self.h, "dim": self.dim, "counts": list(self.counts)}


@dataclass
class ScalarField:
    """Node values on a grid.  ``values.shape == grid.counts``.

    ``mask`` (optional boolean array, True = valid) marks nodes excluded
    from norms and checks, e.g. around the singularity of a blow-up
    profile.  Values at masked-out nodes stay finite.
    """

    grid: Grid
    values: NDArray
    name: str = ""
    mask: NDArray | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != tuple(self.grid.counts):
            raise ValueError(
                f"values shape {self.values.shape} != grid {self.grid.counts}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field values must be finite")
        if self.mask is not None:
            self.mask = np.asarray(self.mask, dtype=bool)
            if self.mask.shape != self.values.shape:
                raise ValueError("mask shape mismatch")

    @classmethod
    def from_function(cls, grid: Grid, fn: Callable, name: str = "",
                      mask_region: "Region | None" = None) -> "ScalarField":
        pts = grid.coords()
        vals = np.asarray(fn(pts), dtype=float)
        mask = None
        if mask_region is not None:
            mask = ~mask_region.mask(grid)
        return cls(grid=grid, values=vals, name=name, mask=mask)

    def shrink(self, margin: int = 1) -> "ScalarField":
        sl = tuple(slice(margin, c - margin) for c in self.grid.counts)
        mask = None if self.mask is None else self.mask[sl]
        return ScalarField(self.grid.shrink(margin), self.values[sl],
                           name=self.name, mask=mask)

    def at(self, point) -> float:
        return float(self.values[self.grid.index_of(point)])


# ---------------------------------------------------------------------------
# regions


class Region:
    """Coordinate predicate.  Subclasses implement :meth:`contains`."""

    def contains(self, pts: NDArray) -> NDArray:
        raise NotImplementedError

    def mask(self, grid: Grid) -> NDArray:
        return self.contains(grid.coords())

    def measure(self, grid: Grid) -> float:
        return float(np.count_nonzero(self.mask(grid))) * grid.cell_measure

    def boundary_distance(self, point) -> float | NDArray | None:
        """Distance from ``point``, or from each of an array of points of
        shape ``(..., dim)``, to the region boundary, if analytic."""
        return None

    def __and__(self, other): return Intersection(self, other)
    def __or__(self, other): return Union(self, other)
    def __sub__(self, other): return Difference(self, other)
    def __invert__(self): return Complement(self)


@dataclass(frozen=True)
class Ball(Region):
    """Open ball: membership is a strict inequality."""

    center: tuple[float, ...]
    radius: float

    def contains(self, pts):
        c = np.asarray(self.center)
        return np.sum((pts - c) ** 2, axis=-1) < self.radius ** 2

    def boundary_distance(self, point):
        c = np.asarray(self.center)
        return self.radius - np.linalg.norm(np.asarray(point) - c, axis=-1)


@dataclass(frozen=True)
class ClosedBall(Region):
    center: tuple[float, ...]
    radius: float

    def contains(self, pts):
        c = np.asarray(self.center)
        return np.sum((pts - c) ** 2, axis=-1) <= self.radius ** 2 * (1 + 1e-12)

    def boundary_distance(self, point):
        c = np.asarray(self.center)
        return self.radius - np.linalg.norm(np.asarray(point) - c, axis=-1)


@dataclass(frozen=True)
class Cube(Region):
    """Open axis-aligned cube of side ``side`` centered at ``center``."""

    center: tuple[float, ...]
    side: float
    closed: bool = False

    def contains(self, pts):
        c = np.asarray(self.center)
        d = np.max(np.abs(pts - c), axis=-1)
        half = self.side / 2
        return d <= half * (1 + 1e-12) if self.closed else d < half

    def boundary_distance(self, point):
        c = np.asarray(self.center)
        return self.side / 2 - np.max(np.abs(np.asarray(point) - c), axis=-1)


@dataclass(frozen=True)
class Annulus(Region):
    center: tuple[float, ...]
    inner: float
    outer: float

    def contains(self, pts):
        c = np.asarray(self.center)
        r2 = np.sum((pts - c) ** 2, axis=-1)
        return (r2 >= self.inner ** 2) & (r2 < self.outer ** 2)


@dataclass(frozen=True)
class HalfSpace(Region):
    """``{x : normal . x < offset}``."""

    normal: tuple[float, ...]
    offset: float

    def contains(self, pts):
        n = np.asarray(self.normal)
        return np.tensordot(pts, n, axes=([-1], [0])) < self.offset


class SubLevel(Region):
    """``{u <= level}`` (or ``<`` when strict), on its field's own grid."""

    _compare = (np.less_equal, np.less)     # by ``strict``

    def __init__(self, fld: ScalarField, level: float, strict=False):
        self.fld = fld
        self.level = level
        self.strict = strict

    def mask(self, grid: Grid) -> NDArray:
        if grid != self.fld.grid:
            raise ValueError("level-set region bound to its field's grid")
        m = self._compare[bool(self.strict)](self.fld.values, self.level)
        if self.fld.mask is not None:
            m = m & self.fld.mask
        return m

    def contains(self, pts):
        raise NotImplementedError("level-set region has no pointwise predicate")


class SuperLevel(SubLevel):
    """``{u >= level}`` (or ``>`` when strict)."""

    _compare = (np.greater_equal, np.greater)


class NodeSet(Region):
    """Explicit node mask on a fixed grid."""

    def __init__(self, grid: Grid, node_mask: NDArray):
        self.grid = grid
        self.node_mask = np.asarray(node_mask, dtype=bool)

    def mask(self, grid: Grid) -> NDArray:
        if grid != self.grid:
            raise ValueError("node-set region bound to its grid")
        return self.node_mask

    def contains(self, pts):
        raise NotImplementedError("node-set region has no pointwise predicate")


class Intersection(Region):
    def __init__(self, *parts): self.parts = parts

    def contains(self, pts):
        m = self.parts[0].contains(pts)
        for p in self.parts[1:]:
            m = m & p.contains(pts)
        return m

    def mask(self, grid):
        m = self.parts[0].mask(grid)
        for p in self.parts[1:]:
            m = m & p.mask(grid)
        return m


class Union(Region):
    def __init__(self, *parts): self.parts = parts

    def contains(self, pts):
        m = self.parts[0].contains(pts)
        for p in self.parts[1:]:
            m = m | p.contains(pts)
        return m

    def mask(self, grid):
        m = self.parts[0].mask(grid)
        for p in self.parts[1:]:
            m = m | p.mask(grid)
        return m


class Difference(Region):
    def __init__(self, a, b): self.a, self.b = a, b

    def contains(self, pts):
        return self.a.contains(pts) & ~self.b.contains(pts)

    def mask(self, grid):
        return self.a.mask(grid) & ~self.b.mask(grid)


class Complement(Region):
    def __init__(self, a): self.a = a

    def contains(self, pts):
        return ~self.a.contains(pts)

    def mask(self, grid):
        return ~self.a.mask(grid)


@dataclass(frozen=True)
class HolderModulus:
    """Power modulus ``omega(r) = C * r**alpha`` on ``r in (0, r_max]``."""

    alpha: float
    C: float
    r_max: float = 1.0

    def __post_init__(self):
        if not (0 < self.alpha <= 1):
            raise ValueError("alpha must lie in (0, 1]")
        if self.C < 0:
            raise ValueError("C must be non-negative")

    def __call__(self, r):
        return self.C * np.asarray(r, dtype=float) ** self.alpha

    def dominates(self, radii, values, tol=0.0) -> bool:
        radii = np.asarray(radii, dtype=float)
        return bool(np.all(np.asarray(values) <= self(radii) + tol))


# ---------------------------------------------------------------------------
# norms and samplers


def _region_values(fld: ScalarField, region: Region | None):
    if region is None:
        m = np.ones(fld.grid.counts, dtype=bool)
    else:
        m = region.mask(fld.grid)
    if fld.mask is not None:
        m = m & fld.mask
    return m


def oscillation(fld: ScalarField, region: Region | None = None) -> float:
    """max - min of the field over the region's nodes."""
    m = _region_values(fld, region)
    if not m.any():
        raise ValueError("region contains no grid nodes")
    v = fld.values[m]
    return float(v.max() - v.min())


def _lp(values: NDArray, p: float, cell: float) -> float:
    """Riemann-sum L^p norm ``(sum v^p * cell)^(1/p)`` of nonnegative
    node values; for ``p = inf`` their max, 0 when there are none."""
    if np.isinf(p):
        return float(values.max()) if values.size else 0.0
    return float((np.sum(values ** p) * cell) ** (1.0 / p))


def lp_norm(fld: ScalarField, p: float, region: Region | None = None) -> float:
    """Riemann-sum L^p norm over the region (p = inf for the sup norm)."""
    m = _region_values(fld, region)
    if not m.any():
        raise ValueError("region contains no grid nodes")
    if not (np.isinf(p) or p > 0):
        raise ValueError("p must be positive or inf")
    return _lp(np.abs(fld.values[m]), p, fld.grid.cell_measure)


def holder_seminorm(fld: ScalarField, alpha: float,
                    region: Region | None = None) -> float:
    """sup |u(x)-u(y)| / |x-y|^alpha over all distinct valid node pairs.

    Exhaustive at every size.  On a lattice a pair's distance depends only
    on its offset ``k``: for each offset in one half-space the largest
    ``|u(x+k) - u(x)|`` is taken over two shifted slices of the region's
    bounding box, then divided once by ``(h|k|)^alpha``.
    """
    if not (0 < alpha <= 1):
        raise ValueError("alpha must lie in (0, 1]")
    m = _region_values(fld, region)
    if np.count_nonzero(m) < 2:
        raise ValueError("need at least two nodes")
    box = tuple(slice(i.min(), i.max() + 1) for i in np.nonzero(m))
    # invalid nodes at -inf in ``hi`` and +inf in ``lo``: no pair with one wins
    hi = np.where(m[box], fld.values[box], -np.inf)
    lo = np.where(m[box], fld.values[box], np.inf)
    shape = hi.shape
    best = 0.0
    for k in itertools.product(range(shape[0]),
                               *(range(1 - c, c) for c in shape[1:])):
        if k <= (0,) * len(k):      # k = 0 or its first nonzero entry < 0
            continue
        at = tuple(slice(max(0, -j), c - max(0, j)) for j, c in zip(k, shape))
        to = tuple(slice(max(0, j), c - max(0, -j)) for j, c in zip(k, shape))
        jump = max((hi[to] - lo[at]).max(), (hi[at] - lo[to]).max())
        best = max(best, jump / (fld.grid.h * math.hypot(*k)) ** alpha)
    return float(best)


def weighted_seminorm(fld: ScalarField, alpha: float, beta: float,
                      domain: Region) -> float:
    """Interior-weighted Holder seminorm.

    For every valid node ``x0`` in the domain and every radius
    ``r = dist(x0, boundary)/2**j >= 2h`` the seminorm over the valid
    domain nodes of ``B_{r/2}(x0)`` (all pairs of an index window around
    ``x0`` at once) is weighted by ``r**beta``; the supremum is returned.
    ``dist`` is analytic, or else to the nearest node off the domain.
    """
    if not (0 < alpha <= 1):
        raise ValueError("alpha must lie in (0, 1]")
    grid = fld.grid
    coords = grid.coords()
    m = _region_values(fld, domain)
    tree = None
    best = -np.inf              # every ball's term is >= 0
    for idx in np.argwhere(m):
        x0 = coords[tuple(idx)]
        d = domain.boundary_distance(x0)
        if d is None:
            if tree is None:
                from scipy.spatial import cKDTree
                outside = ~domain.mask(grid)
                if not outside.any():
                    raise ValueError("domain boundary not resolvable on grid")
                tree = cKDTree(coords[outside])
            d = float(tree.query(x0)[0])
        r = d / 2.0
        while r >= 2 * grid.h:
            w = int(r / 2.0 / grid.h) + 1
            win = tuple(slice(max(0, i - w), i + w + 1) for i in idx)
            sub = Ball(tuple(x0), r / 2.0).contains(coords[win]) & m[win]
            if np.count_nonzero(sub) < 2:
                break
            pts, vals = coords[win][sub], fld.values[win][sub]
            dist = np.linalg.norm(pts[None, :] - pts[:, None], axis=-1)
            np.fill_diagonal(dist, np.inf)
            s = np.max(np.abs(vals[None, :] - vals[:, None]) / dist ** alpha)
            best = max(best, r ** beta * float(s))
            r /= 2.0
    if best < 0:
        raise ValueError("no interior ball of radius >= 2h fits the schedule")
    return best


def rescale(fld: ScalarField, alpha: float, r: float,
            center=None) -> ScalarField:
    """Zoom ``u_r(x) = r**-alpha * u(center + r x)`` onto a grid covering B_1.

    Values are multilinear interpolations of the source field; the source
    grid must contain ``center + r * [-1, 1]^dim``.
    """
    grid = fld.grid
    if center is None:
        center = np.zeros(grid.dim)
    center = np.asarray(center, dtype=float)
    lo = np.asarray(grid.origin)
    hi = np.asarray(grid.upper())
    if np.any(center - r < lo - 1e-12) or np.any(center + r > hi + 1e-12):
        raise ValueError("source grid does not cover the zoom window")
    h_new = grid.h / r
    new = Grid.cover(np.zeros(grid.dim), 1.0, h_new)
    src = (center + r * new.coords()).reshape(-1, grid.dim)
    idx = ((src - lo) / grid.h).T
    vals = ndimage.map_coordinates(fld.values, idx, order=1, mode="nearest")
    return ScalarField(new, (vals * r ** (-alpha)).reshape(new.counts),
                       name=f"{fld.name}@r={r:g}" if fld.name else "")


def hardy_littlewood_maximal(fld: ScalarField) -> ScalarField:
    """Node-wise maximal function: largest ball average of |u|.

    Averages are taken over balls of dyadic radii ``h, 2h, 4h, ...``
    intersected with the grid; the node's own value seeds the maximum.
    Each ball sum, and the node count of each ball, is one zero-padded FFT
    convolution; the counts are rounded to integers.
    """
    grid = fld.grid
    absu = np.abs(fld.values)
    out = absu.copy()
    diam = max(grid.h * (c - 1) for c in grid.counts) * math.sqrt(grid.dim)
    both = np.stack([absu, np.ones_like(absu)])
    axes = tuple(range(1, grid.dim + 1))
    k = 1                       # the ball radius r = k h, in nodes
    while k * grid.h <= diam:
        sq = np.arange(-k, k + 1) ** 2
        ker = sum(np.meshgrid(*[sq] * grid.dim, indexing="ij"))[None] <= k * k
        s = tuple(c + 2 * k for c in grid.counts)
        spec = np.fft.rfftn(both, s, axes) * np.fft.rfftn(ker, s, axes)
        full = np.fft.irfftn(spec, s, axes)
        same = full[(...,) + tuple(slice(k, k + c) for c in grid.counts)]
        out = np.maximum(out, same[0] / np.rint(same[1]))
        k *= 2
    return ScalarField(grid, out, name=f"M[{fld.name}]" if fld.name else "M")
