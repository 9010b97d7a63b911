"""Uniform lattices, scalar fields and region predicates.

A :class:`Grid` is an axis-aligned uniform lattice with a single spacing
``h`` in every direction.  A :class:`ScalarField` stores one value per
node.  Regions are lattice masks, built axis by axis from the grid's open
mesh; an intersection of regions takes the conjunction of their node masks,
and the induced measure of a region on a grid is ``(#nodes inside) *
h**dim``.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.typing import NDArray

__all__ = [
    "Grid", "ScalarField", "Region", "Ball", "ClosedBall", "Cube",
    "SubLevel", "oscillation", "holder_seminorm", "weighted_seminorm",
    "hardy_littlewood_maximal",
]


# Largest number of doubles in one temporary of a blocked kernel.
_BLOCK = 1 << 17


def _blocks(count: int, width: int):
    """Slices over ``count`` rows such that ``width`` doubles per row stay
    within ``_BLOCK`` doubles per block (one row at least)."""
    step = max(1, _BLOCK // max(1, width))
    return (slice(a, a + step) for a in range(0, count, step))


def _five_smooth(n: int) -> int:
    """The least integer ``>= n`` with no prime factor above 5."""
    while True:
        k = n
        for q in (2, 3, 5):
            while k % q == 0:
                k //= q
        if k == 1:
            return n
        n += 1


def _interior(shape) -> tuple[slice, ...]:
    """Index of the nodes off the outer layer of an array of this shape."""
    return tuple(slice(1, c - 1) for c in shape)


def _sq_dist(pts: NDArray | tuple, y0: NDArray) -> NDArray:
    """``|pts - y0|^2``, broadcast over the leading axes and summed one
    axis at a time: the additions of ``np.sum(..., axis=-1)`` over 1-3
    entries, without a temporary of ``dim`` doubles per pair.  ``pts`` is
    an array of points ``(..., dim)`` or a grid's open mesh
    (:meth:`Grid.mesh`), whose per-axis squares are added in the same
    order.  Every squared distance and Euclidean norm over a last axis
    is this one; a norm is its square root."""
    y0 = np.asarray(y0)
    if isinstance(pts, tuple):      # the sum grows to the grid's shape
        acc = (pts[0] - y0[..., 0]) ** 2
        for k in range(1, len(pts)):
            acc = acc + (pts[k] - y0[..., k]) ** 2
        return acc
    acc = (pts[..., 0] - y0[..., 0]) ** 2
    for k in range(1, pts.shape[-1]):
        acc += (pts[..., k] - y0[..., k]) ** 2
    return acc


def _fold(ufunc: np.ufunc, x: NDArray) -> NDArray:
    """``ufunc.reduce(x, axis=-1)`` one column at a time, for a last axis of
    1-3 entries, which numpy reduces 25-70 times slower than elementwise.
    ``np.add`` starts from 0 as numpy's does (-0.0 sums to +0.0); a NaN of
    ``np.maximum`` or ``np.minimum`` may carry another sign than numpy's."""
    acc = x[..., 0] + 0 if ufunc is np.add else +x[..., 0]     # a copy
    for k in range(1, x.shape[-1]):
        acc = ufunc(acc, x[..., k])
    return acc


def _ball_volume(dim: int, radius: float = 1.0) -> float:
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

    def mesh(self) -> tuple[NDArray, ...]:
        """The open mesh: axis ``k`` shaped to broadcast along dimension
        ``k`` of ``counts``."""
        return np.ix_(*self.axes())

    def coords(self) -> NDArray:
        """Node coordinates, shape ``counts + (dim,)``; built once per grid
        and read-only."""
        return self._coords

    @functools.cached_property
    def _coords(self) -> NDArray:
        out = np.stack(np.meshgrid(*self.axes(), indexing="ij"), axis=-1)
        out.flags.writeable = False
        return out

    @functools.cached_property
    def _r2(self) -> NDArray:
        """Read-only squared distance of each node from the origin."""
        out = _sq_dist(self.mesh(), np.zeros(self.dim))
        out.flags.writeable = False
        return out

    @functools.cached_property
    def _off_hull(self) -> NDArray:
        """Read-only mask of the nodes off the outer layer."""
        out = np.zeros(self.counts, dtype=bool)
        out[_interior(self.counts)] = True
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
    """Finite node values on a grid.  ``values.shape == grid.counts``;
    a check selects the nodes it reads by :class:`Region` masks."""

    grid: Grid
    values: NDArray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != tuple(self.grid.counts):
            raise ValueError(
                f"values shape {self.values.shape} != grid {self.grid.counts}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field values must be finite")

    @classmethod
    def from_function(cls, grid: Grid, fn: Callable) -> "ScalarField":
        vals = np.asarray(fn(grid.coords()), dtype=float)
        return cls(grid=grid, values=vals)

    def at(self, point) -> float:
        return float(self.values[self.grid.index_of(point)])


# ---------------------------------------------------------------------------
# regions


class Region:
    """Set of lattice nodes.  Subclasses implement :meth:`mask`, the
    boolean array of the nodes of a grid that lie in the region."""

    def mask(self, grid: Grid) -> NDArray:
        raise NotImplementedError

    def measure(self, grid: Grid) -> float:
        return float(np.count_nonzero(self.mask(grid))) * grid.cell_measure

    def boundary_distance(self, point) -> float | NDArray | None:
        """Distance from ``point``, or from each of an array of points of
        shape ``(..., dim)``, to the region boundary, if analytic."""
        return None

    def __and__(self, other): return _Intersection(self, other)


def _node_sq_dist(grid: Grid, center) -> NDArray:
    """``|x - center|^2`` at the nodes: the grid's cached table for the
    origin, else from its open mesh."""
    if not any(center):
        return grid._r2
    return _sq_dist(grid.mesh(), center)


@dataclass(frozen=True)
class Ball(Region):
    """Open ball: membership is a strict inequality."""

    center: tuple[float, ...]
    radius: float

    def mask(self, grid):
        return _node_sq_dist(grid, self.center) < self.radius ** 2

    def boundary_distance(self, point):
        return self.radius - np.sqrt(_sq_dist(np.asarray(point), self.center))


@dataclass(frozen=True)
class ClosedBall(Ball):
    """Closed ball: the fields and boundary distance of :class:`Ball`,
    membership up to a relative slack of 1e-12."""

    def mask(self, grid):
        return _node_sq_dist(grid, self.center) <= \
            self.radius ** 2 * (1 + 1e-12)


@dataclass(frozen=True)
class Cube(Region):
    """Open axis-aligned cube of side ``side`` centered at ``center``."""

    center: tuple[float, ...]
    side: float
    closed: bool = False

    def mask(self, grid):
        # the AND of one interval mask per axis, broadcast to the grid
        half = self.side / 2
        m = True
        for x, c in zip(grid.mesh(), self.center, strict=True):
            d = np.abs(x - c)
            m = m & (d <= half * (1 + 1e-12) if self.closed else d < half)
        return m

    def boundary_distance(self, point):
        return self.side / 2 - _fold(np.maximum, np.abs(
            np.asarray(point) - np.asarray(self.center)))


class SubLevel(Region):
    """``{u <= level}``, on its field's own grid."""

    def __init__(self, fld: ScalarField, level: float):
        self.fld = fld
        self.level = level

    def mask(self, grid: Grid) -> NDArray:
        if grid != self.fld.grid:
            raise ValueError("level-set region bound to its field's grid")
        return self.fld.values <= self.level


class _Intersection(Region):
    def __init__(self, *parts): self.parts = parts

    def mask(self, grid):
        m = self.parts[0].mask(grid)
        for p in self.parts[1:]:
            m = m & p.mask(grid)
        return m


# ---------------------------------------------------------------------------
# norms and samplers


def oscillation(fld: ScalarField, region: Region | None = None) -> float:
    """max - min of the field over the region's nodes (all, if None)."""
    v = fld.values
    if region is not None:
        v = v[region.mask(fld.grid)]
        if not v.size:
            raise ValueError("region contains no grid nodes")
    return float(v.max() - v.min())


def _lp(values: NDArray, p: float, cell: float) -> float:
    """Riemann-sum L^p norm ``(sum v^p * cell)^(1/p)`` of nonnegative
    node values; for ``p = inf`` their max, 0 when there are none."""
    if np.isinf(p):
        return float(values.max()) if values.size else 0.0
    return float((np.sum(values ** p) * cell) ** (1.0 / p))


# Nodes per axis of a tile of the Hölder pair search.
_TILE = 4
# A tile pair is skipped when ``bound * (1 + _KAPPA 2^-52) <= best``
# (derived in :func:`_pair_sup`).
_KAPPA = 16


def _distance_power(sq: NDArray, h: float, alpha: float) -> NDArray:
    """``(h sqrt(sq))^alpha`` for integer squared index distances ``sq``
    (from :func:`_sq_dist`), the power in place: the denominator of every
    Hölder quotient in the package."""
    d = h * np.sqrt(sq)
    d **= alpha
    return d


def _quotients(sq: NDArray, va: NDArray, vb: NDArray, h: float,
               alpha: float) -> NDArray:
    """``|v_a - v_b| / (h sqrt(sq))^alpha`` for node pairs at integer
    squared index distances ``sq`` (from :func:`_sq_dist`), broadcast
    with the values ``va`` and ``vb``, the division in place into
    :func:`_distance_power`'s array.  A node paired with itself is given
    ``sq = 1``, so its quotient is 0."""
    d = _distance_power(sq, h, alpha)
    np.divide(np.abs(vb - va), d, out=d)
    return d


def _tiles(idx: NDArray, vals: NDArray):
    """The nodes grouped by ``idx // _TILE``: per nonempty tile its node
    numbers, padded to the largest tile with repeats of its first node
    (a repeat adds only pairs the tile already has, or a node paired with
    itself), its least and greatest value, and the least and greatest
    index along each axis."""
    tile = idx // _TILE
    key = np.ravel_multi_index(tuple(tile.T), tuple(tile.max(axis=0) + 1))
    order = np.argsort(key, kind="stable")
    key = key[order]
    starts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    sizes = np.diff(np.append(starts, len(key)))
    owner = np.repeat(np.arange(len(starts)), sizes)
    members = np.repeat(order[starts, None], sizes.max(), axis=1)
    members[owner, np.arange(len(key)) - starts[owner]] = order
    v, at = vals[order], idx[order]
    return (members, np.minimum.reduceat(v, starts),
            np.maximum.reduceat(v, starts),
            np.minimum.reduceat(at, starts), np.maximum.reduceat(at, starts))


def _tile_bounds(rows: slice, tiles, h: float, alpha: float) -> NDArray:
    """Bound on the quotients of the pairs of tile ``rows.start + r`` and
    tile ``rows.start + c``, at ``[r, c]``, for the tiles from
    ``rows.start`` on; 0 where ``c < r``, a pair counted at its other
    end.  It is ``max(vmax_A - vmin_B, vmax_B - vmin_A) / (h sqrt(g2))
    ** alpha`` with ``g2`` the integer squared gap between the two index
    boxes, summed axis by axis, and at least 1."""
    _, vmin, vmax, lo, hi = tiles
    rest = slice(rows.start, None)

    def gap2(k):                    # squared gap along axis k, in place
        g = lo[None, rest, k] - hi[rows, None, k]
        np.maximum(g, lo[rows, None, k] - hi[None, rest, k], out=g)
        np.maximum(g, 0, out=g)
        g *= g
        return g
    g2 = gap2(0)
    for k in range(1, lo.shape[1]):
        g2 += gap2(k)
    np.maximum(g2, 1, out=g2)
    d = h * np.sqrt(g2)
    del g2
    d **= alpha
    num = vmax[rows, None] - vmin[None, rest]
    np.maximum(num, vmax[None, rest] - vmin[rows, None], out=num)
    np.divide(num, d, out=d)
    del num
    d[np.tri(*d.shape, -1, dtype=bool)] = 0.0
    return d


def _pair_sup(idx: NDArray, vals: NDArray, h: float, alpha: float) -> float:
    """max ``|v_i - v_j| / (h |i - j|)^alpha`` over the distinct pairs of
    the nodes with integer indices ``idx`` and values ``vals``: the float
    that :func:`_quotients` gives for the best pair, found by evaluating
    only the tile pairs that can beat the best quotient so far.

    The nodes fall into tiles by ``idx // _TILE`` (:func:`_tiles`), and
    :func:`_tile_bounds` bounds the quotients of each pair of tiles, a
    tile with itself included, in blocks of tile rows of ``_blocks``
    whose bound tables hold ``_BLOCK / 8`` doubles at most.  In a block
    the tile pairs are taken in decreasing order of bound, in batches
    whose temporaries stay near ``_BLOCK / 16`` doubles, each pair of
    nodes by :func:`_quotients`; a block ends at the first tile pair with
    ``bound * c <= best``, ``c = 1 + kappa 2^-52``: neither it nor any
    pair after it holds a larger quotient.  The best pair's quotient is
    evaluated with the all-pairs sweep's operations, so the result is
    the sweep's bit for bit.

    ``kappa = 16`` bounds the rounding.  Let ``u = 2^-53`` and ``e`` be
    the error of numpy's float64 array power in units in the last place
    (its AVX-512 loops are held to 4, libm's ``pow`` to 1); one ulp of
    ``x`` is at most ``2u x``.  For a pair of tiles A and B at integer
    squared distance ``d2 >= g2``, the rounded distances obey
    ``fl(h fl(sqrt g2)) <= fl(h fl(sqrt d2))``, since rounding is
    monotone, so their exact powers do too, and the computed powers
    ``P_b`` of the bound and ``P`` of the pair satisfy ``P >= P_b (1 -
    2eu) / (1 + 2eu)``.  The pair's difference lies between ``vmin_B -
    vmax_A`` and ``vmax_B - vmin_A``, so its rounded absolute value is at
    most the bound's rounded numerator ``N``.  Hence the pair's quotient
    is at most ``(N / P_b) (1 + u) (1 + 2eu) / (1 - 2eu)``, while the
    bound is at least ``(N / P_b)(1 - u)`` and ``fl(bound * c)`` at least
    ``bound * c (1 - u)``.  That covers the pair once ``c >= 1 + (3 + 4e)
    u + O(u^2)``, ``kappa >= 1.5 + 2e``: 16 leaves room for ``e`` up to
    7.  The argument holds for quotients in the normal range; a
    subnormal one needs two values within 1e-307 of each other.
    """
    c = 1 + _KAPPA * np.finfo(float).eps
    tiles = _tiles(idx, vals)
    members = tiles[0]
    n_tiles, size = members.shape
    best = 0.0
    for rows in _blocks(n_tiles, 8 * n_tiles):
        bound = _tile_bounds(rows, tiles, h, alpha)
        width = bound.shape[1]
        at = np.flatnonzero(bound * c > best)
        bound = bound.ravel()[at]
        order = np.argsort(bound)[::-1]
        at, bound = at[order], bound[order]
        del order                   # freed before the batches, the peak
        for bat in _blocks(len(bound), 16 * size * size):
            live = np.count_nonzero(bound[bat] * c > best)
            if live == 0:
                break
            a, b = np.divmod(at[bat][:live], width)
            ma = members[a + rows.start]
            mb = members[b + rows.start]
            sq = _sq_dist(idx[mb][:, None], idx[ma][:, :, None])
            np.maximum(sq, 1, out=sq)       # a node paired with itself
            q = _quotients(sq, vals[ma][:, :, None], vals[mb][:, None], h,
                           alpha)
            best = max(best, float(q.max()))
    return best


def holder_seminorm(fld: ScalarField, alpha: float) -> float:
    """sup |u(x)-u(y)| / |x-y|^alpha over all distinct node pairs of the
    field's grid, exactly (:func:`_pair_sup`)."""
    if not (0 < alpha <= 1):
        raise ValueError("alpha must lie in (0, 1]")
    return _pair_sup(np.argwhere(np.ones(fld.grid.counts, bool)),
                     fld.values.ravel(), fld.grid.h, alpha)


def _window_columns(fld: ScalarField, m: NDArray, centers: NDArray,
                    r: NDArray, w: int):
    """The balls ``B_{r/2}(x0)`` about the nodes ``centers`` (integer
    indices, with their ``r``) whose index windows have half-width ``w``,
    one column each over the window's offsets sorted by length: ``(vals,
    offs, keep)``.  ``vals[k, i]`` is the field at ``centers[i] +
    offs[k]`` when that node is on the grid, in the domain mask ``m`` and
    at ``|x - x0|^2 < (r/2)^2`` (:func:`_sq_dist` of the node's
    coordinates, the per-ball sweep's test), and NaN otherwise.  Only the
    balls of 2 nodes or more are kept, those where ``keep`` holds; the
    offsets end at the last one that a kept ball holds.  ``(r/2)**2`` is
    Python's scalar ``pow``, as a NumPy scalar's is: NumPy's array power
    can differ from it in the last place."""
    grid, dim = fld.grid, fld.grid.dim
    side = np.arange(-w, w + 1)
    offs = np.argwhere(np.ones((2 * w + 1,) * dim, bool)) - w
    order = np.argsort(_sq_dist(offs, np.zeros(dim)), kind="stable")
    # the window's indices along axis a, shaped to broadcast over the
    # balls and the other axes
    ix = [(centers[:, a, None] + side).reshape(
        (-1,) + tuple(2 * w + 1 if b == a else 1 for b in range(dim)))
        for a in range(dim)]
    x0 = grid.coords()[tuple(centers.T)].reshape((-1,) + (1,) * dim + (dim,))
    thr = np.array([(x / 2.0) ** 2 for x in r.tolist()])
    inside = _sq_dist(tuple(grid.origin[a] + grid.h * i
                            for a, i in enumerate(ix)), x0) \
        < thr.reshape((-1,) + (1,) * dim)
    for i, c in zip(ix, grid.counts):
        inside &= (i >= 0) & (i < c)
    at = np.ravel_multi_index(ix, grid.counts, mode="clip")
    inside &= m.ravel()[at]
    inside = inside.reshape(len(centers), -1)[:, order]
    keep = np.count_nonzero(inside, axis=1) >= 2
    inside = inside[keep]
    end = np.flatnonzero(inside.any(axis=0))[-1] + 1 if keep.any() else 0
    vals = fld.values.ravel()[
        at.reshape(len(centers), -1)[np.ix_(keep, order[:end])].T]
    vals[~inside[:, :end].T] = np.nan
    return vals, offs[order[:end]], keep


def weighted_seminorm(fld: ScalarField, alpha: float, beta: float,
                      domain: Region) -> float:
    """Interior-weighted Holder seminorm.

    For every node ``x0`` in the domain with
    ``r = dist(x0, boundary)/2 >= 2h`` the seminorm over the domain
    nodes of ``B_{r/2}(x0)`` is weighted by ``r**beta``; the supremum is
    returned.  The radii ``r/2**j`` below it are not taken: their balls
    lie inside the first and weigh no more, since ``beta >= 0``.
    ``dist`` is the domain's analytic ``boundary_distance``; a domain
    without one is a ``ValueError``.

    No loop runs over the centers.  They are grouped by the half-width
    ``w = int(r/2/h) + 1`` of their index window, and each group's balls
    are columns over the window's offsets (:func:`_window_columns`), NaN
    off the ball, in parts of ``_BLOCK / 8`` entries at most.  A part's
    offset pairs are taken in blocks of rows of offsets, each offset
    against itself and the offsets after it: the block's denominators
    once, by :func:`_distance_power`, and the quotients of all the part's
    balls against them, ``_BLOCK / 8`` doubles at most, whose maximum per
    ball ``np.fmax`` takes past the NaN pairs.  The balls run along the
    last axis, so the passes are long where the windows are small.  Every
    quotient is the per-ball sweep's, and the weight ``r**beta`` is
    Python's scalar ``pow``, so the result is the sweep's bit for bit.
    """
    if not (0 < alpha <= 1):
        raise ValueError("alpha must lie in (0, 1]")
    if beta < 0:
        raise ValueError("beta must be at least 0")
    grid = fld.grid
    m = domain.mask(grid)
    dists = domain.boundary_distance(grid.coords()[m])
    if dists is None:
        raise ValueError("domain has no analytic boundary distance")
    r = dists / 2.0
    fits = r >= 2 * grid.h
    centers, r = np.argwhere(m)[fits], r[fits]
    wins = (r / 2.0 / grid.h).astype(int) + 1
    best = -np.inf              # every ball's term is >= 0
    for w in sorted(set(wins.tolist())):
        group = np.flatnonzero(wins == w)
        for part in _blocks(len(group), 8 * (2 * w + 1) ** grid.dim):
            balls = group[part]
            vals, offs, keep = _window_columns(fld, m, centers[balls],
                                               r[balls], w)
            if not keep.any():
                continue
            s = np.zeros(vals.shape[1])
            for rows in _blocks(len(offs) - 1, 8 * vals.size):
                rest = slice(rows.start, None)
                sq = _sq_dist(offs[None, rest], offs[rows, None])
                np.fill_diagonal(sq, 1)     # an offset paired with itself
                q = np.subtract(vals[rows, None], vals[None, rest])
                np.abs(q, out=q)
                np.divide(q, _distance_power(sq, grid.h, alpha)[..., None],
                          out=q)
                np.fmax(s, np.fmax.reduce(q.reshape(-1, len(s)), axis=0),
                        out=s)
            best = max([best] + [x ** beta * y for x, y in
                                 zip(r[balls][keep].tolist(), s.tolist())])
    if best < 0:
        raise ValueError("no interior ball of radius >= 2h fits the schedule")
    return float(best)


def hardy_littlewood_maximal(fld: ScalarField) -> ScalarField:
    """Node-wise maximal function: largest ball average of |u|.

    Averages are taken over balls of dyadic radii ``h, 2h, 4h, ...``
    intersected with the grid; the node's own value seeds the maximum.
    Each ball sum, and the node count of each ball, is one zero-padded FFT
    convolution, cropped to the grid; the counts are rounded to integers.
    An axis of ``c`` nodes is padded to ``_five_smooth(c + 2k)`` for the
    radius ``k h``, not to ``c + 2k``: at n = 65 those are the primes 67,
    73, 97 and 193, on which pocketfft is slow.
    """
    grid = fld.grid
    absu = np.abs(fld.values)
    out = absu.copy()
    diam = max(grid.h * (c - 1) for c in grid.counts) * math.sqrt(grid.dim)
    both = np.stack([absu, np.ones_like(absu)])
    axes = tuple(range(1, grid.dim + 1))
    k = 1                       # the ball radius r = k h, in nodes
    while k * grid.h <= diam:
        off = np.ix_(*[np.arange(-k, k + 1)] * grid.dim)
        ker = _sq_dist(off, np.zeros(grid.dim))[None] <= k * k
        s = tuple(_five_smooth(c + 2 * k) for c in grid.counts)
        spec = np.fft.rfftn(both, s, axes) * np.fft.rfftn(ker, s, axes)
        full = np.fft.irfftn(spec, s, axes)
        same = full[(...,) + tuple(slice(k, k + c) for c in grid.counts)]
        out = np.maximum(out, same[0] / np.rint(same[1]))
        k *= 2
    return ScalarField(grid, out)
