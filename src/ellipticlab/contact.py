"""Contact sets, envelopes and measure estimates.

The central object is the contact set of a field against a family of
concave paraboloids of one opening: for each center the paraboloid is
slid from below until it touches the graph of the field, and the
touching nodes are recorded as (center, flat node index) pairs.  Contact
sets serve the measure estimate, through the transport map of the
tangency relation and its area formula, and the Hessian bound at
contact nodes, each with derivatives at the contact nodes alone.  The
radial barrier of the localization step enters only through its
constants (:func:`localization_barrier`): it is neither slid to a
contact set nor evaluated on the lattice.

Every kernel works on whole arrays.  Where a kernel compares many test
functions with many nodes it takes the test functions in blocks, so that
no temporary holds more than ``grid._BLOCK`` doubles.  The
inf-convolution, the contact search and Aleksandrov's distance transform
share one min-plus pass along a grid axis, which the contact search runs
at its centers' rows only.  Along a line the minimizing node moves
monotonically with the target, so the pass searches every ``isqrt(n)``-th
target over the whole line and the targets between them only between
their minimizers, with the brute force's values bit for bit; where the
rounding could break the monotonicity (a least spacing too small against
the values, or ``coef = 0``) it searches every target over the whole line
(see :func:`_min_plus_pass`).  The contact search
uses the pass to skip the slabs of the last axis that cannot hold a
contact, and a least value per block of rows to evaluate only a window
of each slab left, from the axis coordinates of its rows and slab; it
finds the entries of a search over every node (see :func:`contact_set`).
ABP's plane contacts come from one box of possible slopes per node,
built from its one-sided difference quotients; only the slopes that
several boxes hold are evaluated, and the mask is that of one
``argmin`` per slope (see :func:`_plane_contacts`).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from numpy.typing import NDArray

from .grid import (Grid, ScalarField, Region, Ball, ClosedBall, SubLevel,
                   oscillation, _ball_volume, _blocks, _fold, _interior,
                   _lp, _sq_dist)
from .operators import (Ellipticity, hessian, pucci_minus, _sym_eigvals,
                        _apply, _d2, _grad, _laplace_taps)
from .reports import make_report, unresolved, CheckReport

__all__ = [
    "ParaboloidFamily", "ContactSet", "TransportRecord", "inf_convolution",
    "envelope_sandwich_check", "contact_set", "tangency_tolerance",
    "transport_map", "area_formula_check", "measure_estimate_check",
    "localization_barrier", "localization_check", "abp_bound",
    "aleksandrov_check", "hessian_contact_check",
]


# ---------------------------------------------------------------------------
# inf / sup convolutions (exact separable minimum)


def _min_plus_pass(vals: NDArray, x: NDArray, axis: int, coef: float,
                   rows: slice = slice(None)) -> NDArray:
    """``min_q vals[..q..] + coef (x_p - x_q)^2`` along ``axis``, whose
    node coordinates ``x`` ascend, at the target nodes ``p`` of ``rows``
    (a slice of positive step), with the brute force's value bit for bit:
    the least of the computed sums ``vals[q] + (x_p - x_q)^2 coef`` over
    every node ``q`` of the line.  The result has ``len(x[rows])`` entries
    along ``axis``, in C order.  ``vals`` may hold ``+inf``.

    Along a grid line the minimizing node moves monotonically with the
    target, so a target is searched only between its neighbours'
    minimizers.  With ``n = len(x)`` and ``s = isqrt(n)``, every ``s``-th
    target and the last one, the coarse targets, are searched over the
    whole line, and each keeps its first computed argmin.  The targets
    between two coarse ones are searched over the nodes from the first
    one's argmin to the second one's, the union of those brackets over a
    block of lines, whose lines are +inf throughout excepted: such a
    line's minimum is +inf at every target, whatever the nodes searched.

    That is exact once ``4 delta < 2 coef g^2``, with ``g`` the least
    spacing of ``x``, ``delta = 6 u B``, ``u = 2^-53`` and ``B`` the
    largest ``|vals|`` other than ``+inf`` plus ``coef (x_last -
    x_first)^2``.  A computed sum is within ``delta`` of its exact value
    ``e(p, q)``: four roundings of the cost, at most ``coef (x_last -
    x_first)^2``, and one of the addition, whose result is at most ``B``,
    make ``5 u B`` and terms of order ``u^2``.  For targets ``p1 < p``,
    ``a`` a computed argmin at ``p1`` and a node ``q < a``, the exact
    identity ``e(p, q) - e(p, a) = e(p1, q) - e(p1, a) + 2 coef (x_p -
    x_p1) (x_a - x_q)`` has its first difference at least ``-2 delta``
    and its last term at least ``2 coef g^2``, so the computed sum at
    ``q`` is above the one at ``a`` by at least ``2 coef g^2 - 4 delta
    > 0``: ``q`` does not attain the computed minimum at ``p``.  Nor, by
    the same identity with ``p < p2``, does a node right of an argmin at
    ``p2``.  So each bracket holds a node attaining the brute force's
    minimum, and its least sum is that minimum.  On integers the sums are
    exact, ``delta = 0``.  Where the inequality fails (``coef = 0``, or
    values huge against the spacing, or a NaN or ``-inf`` in ``vals``)
    every target is a coarse target: the brute force.

    The lines are laid along the leading axis, so that a bracket's
    minimum is a reduction over its window's leading axis; the coarse
    sums and every window stay within ``_BLOCK`` doubles, the windows
    holding at most ``n (s - 1)`` per line."""
    n = len(x)
    cost = (x[:, None] - x[None, rows]) ** 2 * coef      # [q, p]
    m = cost.shape[1]
    moved = np.moveaxis(vals, axis, 0)
    lines = np.ascontiguousarray(moved).reshape(n, -1)   # [q, line]
    if np.issubdtype(np.result_type(lines, cost), np.integer):
        delta = 0
    else:
        delta = 6 * 2.0 ** -53 * (
            np.max(np.abs(lines), where=lines != np.inf, initial=0.0)
            + coef * (x[-1] - x[0]) ** 2)
    s = math.isqrt(n)
    if s > 1 and not 4 * delta < 2 * coef * np.diff(x).min() ** 2:
        s = 1
    coarse = np.append(np.arange(0, m - 1, s), m - 1)
    run = np.diff(coarse) - 1           # targets between two coarse ones
    coarse_cost = np.ascontiguousarray(cost[:, coarse].T)
    out = np.empty((m, lines.shape[1]), dtype=lines.dtype)
    for blk in _blocks(lines.shape[1], n * max(len(coarse), s)):
        tot = np.ascontiguousarray(lines[:, blk].T)[:, None, :] + coarse_cost
        arg = tot.argmin(axis=-1)                       # [line, coarse]
        least = np.take_along_axis(tot, arg[..., None], axis=-1)[..., 0]
        del tot
        out[coarse, blk] = least.T
        live = least[:, 0] < np.inf
        if live.any():
            arg = arg[live]
        lo, hi = arg[:, :-1].min(axis=0), arg[:, 1:].max(axis=0) + 1
        for j in np.flatnonzero(run):
            t, q = slice(coarse[j] + 1, coarse[j + 1]), slice(lo[j], hi[j])
            out[t, blk] = (cost[q, t, None] + lines[q, None, blk]).min(axis=0)
    return np.ascontiguousarray(
        np.moveaxis(out.reshape((m,) + moved.shape[1:]), 0, axis))


def inf_convolution(fld: ScalarField, eps: float) -> ScalarField:
    """``u_eps(y) = min_x u(x) + |x - y|^2 / (2 eps)`` over grid nodes.

    Computed axis by axis, each as the minimum ``min_q f[q] + (x_p -
    x_q)^2 / (2 eps)`` along every grid line, which :func:`_min_plus_pass`
    searches only between the minimizers of nearby targets, with the
    brute force's value bit for bit (the whole line where the rounding
    could move a minimizer out of its bracket).  The separation is exact
    in floating point (rounding is monotone, so it commutes with the
    minimum): the result equals the brute-force minimum over all nodes,
    with the terms added axis by axis, bit for bit.  ``eps`` must be
    positive; a NaN is a ``ValueError`` too.
    """
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    g = fld.grid
    vals = fld.values
    for ax, x in enumerate(g.axes()):
        vals = _min_plus_pass(vals, x, ax, 1.0 / (2.0 * eps))
    return ScalarField(g, vals)


def _sup_convolution(fld: ScalarField, eps: float) -> ScalarField:
    """``u^eps(y) = max_x u(x) - |x - y|^2 / (2 eps)``."""
    neg = ScalarField(fld.grid, -fld.values)
    return ScalarField(fld.grid, -inf_convolution(neg, eps).values)


def envelope_sandwich_check(fld: ScalarField) -> CheckReport:
    """The envelope sandwich ``u_eps <= (u_eps)^eps <= u`` at every node,
    ``u_eps`` the inf-convolution at ``eps = 1/4`` and ``(u_eps)^eps`` its
    sup-convolution, the envelope; lhs is the largest violation of
    either side."""
    eps = 0.25
    lo = inf_convolution(fld, eps)
    env = _sup_convolution(lo, eps)
    sandwich = float(np.max(np.maximum(lo.values - env.values,
                                       env.values - fld.values)))
    return make_report("envelope-sandwich", sandwich, 0.0, tol=1e-12,
                       grid=fld.grid.meta(),
                       notes="u_eps <= envelope <= u nodewise")


# ---------------------------------------------------------------------------
# the paraboloid family


@dataclass(frozen=True)
class ParaboloidFamily:
    """Concave paraboloids ``phi(x) = -(M/2)|x - y0|^2``, M the opening,
    one for each center ``y0`` in ``center_set``."""

    opening: float
    center_set: Region

    def __post_init__(self):
        if not self.opening > 0:
            raise ValueError(f"opening must be positive, got {self.opening}")

    def evaluate(self, pts: NDArray | tuple, y0: NDArray) -> NDArray:
        """Values at ``pts`` (``(..., dim)``, or per-axis coordinates as
        ``_sq_dist`` takes them) of the members centered at ``y0``, which
        broadcasts against ``pts`` without its last axis."""
        return -0.5 * self.opening * _sq_dist(pts, y0)


# ---------------------------------------------------------------------------
# contact sets

# rows of a slab per block of the contact search's bound along the slab
_ROW_BLOCK = 8


@dataclass
class ContactSet:
    """Touching nodes of a field against a sliding paraboloid family.

    Parallel arrays: the member centered at ``centers[k]`` touched the
    graph at the node of flat C-order index ``nodes[k]``; entries go by
    center, then by node.  ``on_hull[k]`` flags nodes on the grid
    boundary, where no centered difference exists.
    """

    grid: Grid
    family: ParaboloidFamily
    centers: NDArray      # (K, dim)
    nodes: NDArray        # (K,) flat node indices

    @property
    def on_hull(self) -> NDArray:
        return ~self.grid._off_hull.reshape(-1)[self.nodes]

    def interior(self) -> "ContactSet":
        keep = self.grid._off_hull.reshape(-1)[self.nodes]
        return ContactSet(self.grid, self.family, self.centers[keep],
                          self.nodes[keep])

    def node_mask(self) -> NDArray:
        m = np.zeros(self.grid.n_nodes, dtype=bool)
        m[self.nodes] = True
        return m.reshape(self.grid.counts)

    def measure(self) -> float:
        return float(self.node_mask().sum()) * self.grid.cell_measure

    def __len__(self):
        return len(self.nodes)


def tangency_tolerance(family: ParaboloidFamily, h: float) -> float:
    """Vertical slack under which a node counts as touching on a lattice
    with spacing ``h`` (opening * h^2 scale)."""
    return 4.0 * family.opening * h * h + 1e-12


def contact_set(fld: ScalarField, family: ParaboloidFamily,
                tol: float | None = None,
                search_region: Region | None = None) -> ContactSet:
    """Slide each paraboloid up from below until it touches ``u``.

    For every center in ``family.center_set`` the minimum of ``u - phi``
    is located over the search region (whole grid by default); nodes
    within ``tol`` of the minimum are recorded.  The default ``tol``
    keeps only exact minimizers (1e-12 relative to the largest ``|u|``
    over the searched nodes); use
    :func:`tangency_tolerance` for a curvature-aware slack.  ``tol`` must
    be finite and nonnegative.  Any family other than a
    :class:`ParaboloidFamily` is a ``TypeError``.

    Only windows of the slabs of the last axis that can hold a recorded
    node are searched.  With ``c = M/2``, the inf-convolution's axis
    passes over the other axes, run at the rows of the centers' bounding
    box only (nodes off the search region entering as ``+inf``), give
    ``W[y', j]``, the minimum of ``u(x) + c|x' - y'|^2`` over the searched
    nodes of slab ``j``, so ``L(y, j) = W[y', j] + c (x_j - y_last)^2`` is
    the minimum of ``u - phi`` over that slab.  A slab is kept when
    ``L(y, j) - min L(y, .) <= tol + 4 delta``.  Its rows (row-major over
    the other axes) fall into blocks of ``_ROW_BLOCK`` rows; with ``b``
    the least ``u`` over a block's searched nodes and ``dist`` the
    distance from ``y'`` to the bounding box of its rows, ``b + c dist^2
    + c (x_j - y_last)^2`` is at most ``u - phi`` at each of those nodes.
    In a kept slab the blocks whose bound is within ``tol + 4 delta`` of
    ``min L(y, .)`` are kept, and the brute force's own expression ``u -
    family.evaluate(pts, y)`` is evaluated on a window of whole blocks
    that runs from the first kept block to the last, its points as the
    rows' coordinates on the other axes and the slab's on the last, which
    ``_sq_dist`` adds in the brute force's order.

    ``delta = (d + 4) 2^-52 B`` bounds the rounding.  Every term and
    partial sum lies in ``[-B, B]``, ``B = max|u| + c sum_k extent_k^2``
    over the searched nodes, and each computed value of ``u - phi``, of
    ``L`` or of a block's bound is at most ``d + 4`` roundings of
    ``2^-53 B`` from its exact value (four for ``c`` times a squared
    difference, one per addition; ``dist`` along an axis is the rounded
    difference to the box's nearer face, or 0): half of ``delta``, the
    other half covering the rounding of the differences to the minima.
    So the brute minimum ``m`` is within ``delta`` of the exact minimum,
    a recorded node within ``tol + 2 delta`` of it, and the computed
    ``L`` of its slab and bound of its block within ``tol + 4 delta`` of
    the least computed ``L``.  Every recorded node, and a node attaining
    ``m``, thus lies in an evaluated window, so the least value over a
    center's windows is ``m`` bit for bit.  A node within ``tol`` of the
    least value of the center's windows so far is a candidate, and a
    candidate within ``tol`` of ``m`` is recorded: ``m`` is at most that
    value and rounding is monotone, so every node that the brute force
    records is a candidate.  The entries are the brute force's over all
    nodes, in its order (by center, then by flat node index).  The bound
    tables, the (center, slab) pairs and their windows are taken in
    blocks.
    """
    if not isinstance(family, ParaboloidFamily):
        raise TypeError(f"unsupported family {type(family).__name__}")
    if tol is not None and not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and nonnegative, got {tol}")
    g = fld.grid
    pts = g.points()
    smask = (np.ones(g.counts, bool) if search_region is None
             else search_region.mask(g))
    if not smask.any():
        raise ValueError("empty search region")
    cen_lin = np.flatnonzero(family.center_set.mask(g))
    if len(cen_lin) == 0:
        raise ValueError("center set contains no grid nodes")
    umax = float(np.max(np.abs(fld.values[smask])))   # over what is searched
    if tol is None:
        tol = 1e-12 * max(1.0, umax)

    centers = pts[cen_lin]
    axes = g.axes()
    c = 0.5 * family.opening
    n_last = g.counts[-1]
    n_rows = g.n_nodes // n_last
    n_blk = -(-n_rows // _ROW_BLOCK)
    pad = ((0, 0), (0, n_blk * _ROW_BLOCK - n_rows))
    W = np.where(smask, fld.values, np.inf)
    # slab j holds the nodes of last index j; its row s is node s n_last + j;
    # rows pad the slabs to whole blocks, with u = +inf
    slab_u = np.pad(np.ascontiguousarray(W.reshape(-1, n_last).T), pad,
                    constant_values=np.inf)
    block_min = slab_u.reshape(n_last, n_blk, _ROW_BLOCK).min(axis=-1)
    # the rows' coordinates on the other axes, [axis, row]
    row_x = np.pad(pts[::n_last, :-1].T, pad, mode="edge")
    blk_x = row_x.reshape(g.dim - 1, n_blk, _ROW_BLOCK)
    box_lo, box_hi = blk_x.min(axis=2), blk_x.max(axis=2)   # [axis, block]
    # the passes at the rows of the centers' box only
    cen_idx = np.unravel_index(cen_lin, g.counts)
    rest = np.zeros(len(cen_lin), dtype=np.intp)
    for ax in range(g.dim - 1):
        lo, hi = int(cen_idx[ax].min()), int(cen_idx[ax].max()) + 1
        W = _min_plus_pass(W, axes[ax], ax, c, slice(lo, hi))
        rest = rest * (hi - lo) + cen_idx[ax] - lo
    W = W.reshape(-1, n_last)                    # [row of the box, slab]
    last = cen_idx[-1]
    last_cost = (axes[-1][:, None] - axes[-1][None, :]) ** 2 * c
    delta = (g.dim + 4) * np.finfo(float).eps * (
        umax + c * sum((x[-1] - x[0]) ** 2 for x in axes))
    slack = tol + 4 * delta
    mval = np.full(len(centers), np.inf)
    rows, cols = [], []
    for blk in _blocks(len(centers), n_last):
        found = []                  # candidates: center, node, u - phi
        bound = W[rest[blk]]
        bound += last_cost[last[blk]]
        least = bound.min(axis=1)
        bound -= least[:, None]
        r, j = np.nonzero(bound <= slack)
        del bound                   # freed before the windows, the peak
        # c dist^2 to the blocks' boxes, per axis, once per center
        near = [np.maximum(np.maximum(lo - y, y - hi), 0.0) ** 2 * c
                for lo, hi, y in zip(box_lo, box_hi,
                                     centers[blk, :-1].T[..., None])]
        for sub in _blocks(len(r), n_blk):
            k, js = r[sub] + blk.start, j[sub]
            lower = block_min[js] + last_cost[last[k], js, None]
            for term in near:
                lower += term[r[sub]]
            lower -= least[r[sub], None]
            keep = lower <= slack
            del lower
            hit = keep.any(axis=1)
            if not hit.any():
                continue
            k, js, keep = k[hit], js[hit], keep[hit]
            first = keep.argmax(axis=1)
            span = int((n_blk - keep[:, ::-1].argmax(axis=1) - first).max())
            # a window of span blocks from the first kept one, moved back
            # to stay inside the slab
            start = np.minimum(first, n_blk - span) * _ROW_BLOCK
            width = span * _ROW_BLOCK
            win_u = sliding_window_view(slab_u, width, axis=1)
            win_x = sliding_window_view(row_x, width, axis=1)
            for sw in _blocks(len(k), width * g.dim):
                kw, jw, sr = k[sw], js[sw], start[sw]
                at = tuple(win_x[:, sr]) + (axes[-1][jw, None],)
                gvals = win_u[jw, sr] - family.evaluate(at, centers[kw, None])
                np.minimum.at(mval, kw, gvals.min(axis=1))
                # within tol of the center's least value so far
                p, s = np.nonzero(gvals - mval[kw, None] <= tol)
                found.append((kw[p], (sr[p] + s) * n_last + jw[p],
                              gvals[p, s]))
        # the windows of blk's centers are done: m is final for them
        k, lin, gval = (np.concatenate(f) for f in zip(*found))
        keep = gval - mval[k] <= tol
        rows.append(k[keep])
        cols.append(lin[keep])
    row, lin = np.concatenate(rows), np.concatenate(cols)
    # by center, then by node in row-major order; the keys are distinct, so
    # any sort gives this order, and the stable one is the fastest on
    # entries that arrive grouped by center
    order = np.argsort(row * g.n_nodes + lin, kind="stable")
    return ContactSet(grid=g, family=family, centers=centers[row[order]],
                      nodes=lin[order])


# ---------------------------------------------------------------------------
# transport map and area formula


@dataclass
class TransportRecord:
    """Transport targets and Jacobians along a paraboloid contact set.

    ``targets[k]`` approximates the center reached from contact node k
    via the tangency relation; ``jacobians[k]`` is the clamped
    ``det`` of the transport differential; ``clamp`` records how much
    negative determinant mass was clipped away.
    """

    contact: ContactSet
    targets: NDArray
    jacobians: NDArray
    clamp: float


def transport_map(contact: ContactSet, fld: ScalarField) -> TransportRecord:
    """Recover centers from gradients and evaluate the area-formula weight.

    For a paraboloid of opening M the tangency relation gives
    ``T(x0) = x0 + Du(x0)/M`` and ``DT = I + D^2u(x0)/M``, with the
    centered differences of ``fld`` at the contact node ``x0``, taken at
    each contact node once and nowhere else.  A hull
    node has no centered difference, so the contact set must be interior
    (``contact.interior()``); a hull contact is a ``ValueError``.
    Determinants are clamped at zero (a contact point cannot dip below
    the test function's curvature beyond lattice error).
    """
    if contact.on_hull.any():
        raise ValueError("transport_map needs interior contacts: "
                         "pass contact.interior()")
    M = contact.family.opening
    g = contact.grid
    # once per contact node, spread back to the entries
    touched = np.zeros(g.n_nodes, dtype=bool)
    touched[contact.nodes] = True
    entry = (np.cumsum(touched) - 1)[contact.nodes]
    nodes = np.flatnonzero(touched)
    targets = (g.points()[nodes] + _grad(fld.values, g.h, nodes) / M)[entry]
    DT = np.eye(g.dim) + _d2(fld.values, g.h, nodes) / M
    dets = np.linalg.det(DT)[entry]
    neg = dets < 0
    return TransportRecord(
        contact=contact, targets=targets, jacobians=np.where(neg, 0.0, dets),
        clamp=float(-dets[neg].min(initial=0.0)))


def area_formula_check(transport: TransportRecord,
                       center_set: Region) -> CheckReport:
    """``|centers| <= sum over contact nodes of det(DT) h^n``, for the
    transport of an interior paraboloid contact set, with no slack.

    Every contact node contributes once, with its Jacobian:
    :func:`transport_map` gives every entry of a node the same
    nonnegative value.
    """
    contact = transport.contact
    g = contact.grid
    lhs = center_set.measure(g)
    per_node = np.zeros(g.n_nodes)
    per_node[contact.nodes] = transport.jacobians
    rhs = float(per_node.sum()) * g.cell_measure
    return make_report("area-formula", lhs, rhs,
                       constants={"clamp": transport.clamp},
                       grid=g.meta(),
                       notes="center-set measure vs transported Jacobian mass")


# ---------------------------------------------------------------------------
# measure estimate, localization, ABP


def measure_estimate_check(fld: ScalarField) -> CheckReport:
    """Touch a nonnegative supersolution with unit paraboloids.

    Hypotheses: ``u >= 0`` on B_1 and ``min over B_{1/4} <= theta = 1/4``;
    both are checked.  That ``u`` is a supersolution with small forcing
    is not checked.  Concave unit paraboloids centered in B_{1/4} touch
    inside ``{u <= 1}``, recorded within ``tol = tangency_tolerance`` of
    the family; the area formula then bounds ``|B_{1/4}|`` by the
    contact-set mass, which forces ``{u <= 1}`` to occupy a definite
    fraction of B_1.  The closed ``B_{1/4}`` needs 1 node, and the mass
    at least 1 interior contact node; without a node of the open
    ``B_{1/4}``, the centers, no paraboloid is slid.
    """
    g = fld.grid
    n = g.dim
    b1 = Ball((0.0,) * n, 1.0)
    theta = 0.25
    min_b1 = float(fld.values[b1.mask(g)].min(initial=np.inf))
    inner = fld.values[ClosedBall((0.0,) * n, theta).mask(g)]
    min_inner = float(inner.min(initial=np.inf))
    fam = ParaboloidFamily(opening=1.0, center_set=Ball((0.0,) * n, 0.25))
    tol = tangency_tolerance(fam, g.h)
    if fam.center_set.mask(g).any():
        csi = contact_set(fld, fam, tol=tol, search_region=b1).interior()
    else:           # no paraboloid to slide, so no contact
        csi = ContactSet(g, fam, np.empty((0, n)), np.empty(0, np.intp))
    # contacts must land in {u <= 1}: u(x0) = phi(x0) + min <= sup phi + min
    worst_u = float(fld.values.reshape(-1)[csi.nodes].max(initial=0.0))
    area = area_formula_check(transport_map(csi, fld), fam.center_set)
    A = csi.measure()
    # measured area-formula constant: average Jacobian over the contact
    # set, whose measure is whole cells (with none, the mass is 0 too)
    C_meas = max(1.0, area.rhs / max(A, g.cell_measure))
    eta = fam.center_set.measure(g) / (2.0 * C_meas)
    good = (SubLevel(fld, 1.0 + 4 * g.h).mask(g) & b1.mask(g))
    return make_report(
        "measure-estimate", eta, float(good.sum()) * g.cell_measure,
        constants={"eta": eta, "C_meas": C_meas, "theta": theta,
                   "worst_contact_value": worst_u, "contact_measure": A,
                   "tol": tol},
        grid=g.meta(),
        notes="lower bound on |{u<=1} cap B_1| from the contact mass",
        hypothesis="hypothesis failed: u negative on B_1" if min_b1 < -1e-9
        else unresolved("B_1/4", inner.size, 1)
        or ("hypothesis failed: min over B_1/4 above 1/4"
            if min_inner > theta + 1e-9
            else unresolved("the interior contact set", len(csi), 1)))


def localization_barrier(ell: Ellipticity, dim: int,
                         rho: float) -> dict[str, float]:
    """Constants of the radial barrier of the localization step.

    The barrier is ``phi(x) = C0 (q(|x - y0|) - q(1 - rho/2)) / d`` with
    ``q(r) = min(r**-alpha, (rho/2)**-alpha)``, ``d = q(1/2 + rho/2) -
    q(1 - rho/2)`` and ``alpha = Lam n / lam``, centered anywhere in
    ``B_{rho/2}``.  Its geometry holds by construction: ``q`` does not
    increase, and ``phi`` is ``C0 >= 1`` at radius ``1/2 + rho/2`` and 0 at
    ``1 - rho/2``, so ``phi >= 1`` on ``B_{1/2}`` and ``phi <= 0`` on the
    unit sphere.  Off the cap its minimal Pucci value is ``C0 alpha (lam
    (alpha + 1) - Lam (n - 1)) r**(-alpha-2) / d``, where the bracket is
    ``lam + Lam > 0``, least at ``r = 1``; ``C0`` is the least power of two
    that lifts it to 1 there.  Returns ``alpha``, ``C0``, the supremum
    ``M`` and ``curvature``, the Hessian bound ``C0 alpha (alpha + 2)
    (rho/2)**(-alpha-2) / d`` at the cap edge.
    """
    if not (0 < rho < 0.5):
        raise ValueError("rho must lie in (0, 1/2)")
    alpha = ell.Lam * dim / ell.lam
    cap = (rho / 2) ** -alpha
    # numpy's power, as in tests/data/verify_full.json: Python's ** can
    # differ from it in the last bit
    inner, outer = (np.array([0.5 + rho / 2, 1 - rho / 2]) ** -alpha).tolist()
    d = inner - outer
    base = alpha * (ell.lam + ell.Lam) / d
    C0 = 1.0
    while C0 * base < 1.0:
        C0 *= 2.0
    return {"alpha": alpha, "C0": C0, "M": C0 * (cap - outer) / d,
            "curvature": C0 / d * alpha * (alpha + 2)
            * (rho / 2) ** (-alpha - 2)}


def localization_check(fld: ScalarField, ell: Ellipticity,
                       rho: float) -> CheckReport:
    """Pull a positive minimum from B_{1/2} into the small ball B_rho.

    Checks ``min over B_rho of u <= M`` for a field with ``min over
    B_{1/2} <= 1``, ``M`` the supremum of the radial barrier of
    :func:`localization_barrier`, whose geometry holds by construction.
    That ``u`` is a supersolution is not checked.  ``B_rho`` needs 1
    node.
    """
    g = fld.grid
    n = g.dim
    bar = localization_barrier(ell, n, rho)
    half = fld.values[ClosedBall((0.0,) * n, 0.5).mask(g)]
    small = fld.values[ClosedBall((0.0,) * n, rho).mask(g)]
    # a minimum over a ball without a node reads 0
    min_half = float(half.min()) if half.size else 0.0
    lhs = float(small.min()) if small.size else 0.0
    return make_report(
        "localization", lhs, bar["M"], tol=4 * g.h * bar["curvature"],
        constants={"alpha": bar["alpha"], "C0": bar["C0"], "M": bar["M"],
                   "rho": rho, "min_B_half": min_half},
        grid=g.meta(),
        notes="min over B_rho controlled by the barrier supremum",
        hypothesis=unresolved("B_rho", small.size, 1)
        or (None if min_half <= 1.0 + 1e-9
            else "hypothesis failed: min over B_1/2 above 1"))


def _ring(inside: NDArray) -> NDArray:
    """Nodes of ``inside`` with an axis neighbour outside it or off the
    grid: there the zero-padded indicator has a negative Laplacian."""
    return inside & (_apply(np.pad(inside, 1).astype(float),
                            _laplace_taps(inside.ndim), 1) < 0)


def _sq_index_distance(feature: NDArray) -> NDArray:
    """Squared distance in index units, as integers, from every node to
    the nearest node of ``feature`` (which holds one at least): the
    nearest feature node of each axis-0 line from two running extrema,
    then one min-plus pass per further axis, exact on integers."""
    c0 = feature.shape[0]
    far = sum(feature.shape)            # beyond every distance in the box
    i = np.arange(c0).reshape((-1,) + (1,) * (feature.ndim - 1))
    below = np.maximum.accumulate(np.where(feature, i, -far), axis=0)
    above = np.minimum.accumulate(
        np.where(feature, i, c0 + far)[::-1], axis=0)[::-1]
    d = np.minimum(np.minimum(i - below, above - i), far)
    # the passes add at most far^2 to a square: int32 unless that wraps
    d2 = (d * d).astype(np.int32 if 2 * far * far < 2 ** 31 else np.int64)
    for ax in range(1, feature.ndim):
        d2 = _min_plus_pass(d2, np.arange(feature.shape[ax], dtype=d2.dtype),
                            ax, 1)
    return d2


def _plane_contacts(fld: ScalarField, inside: NDArray,
                    m: float) -> tuple[NDArray, int]:
    """Nodes touched from below by planes with slopes in ``B_{m/2}``.

    The slopes are the lattice ``ax^n``, ``ax`` of spacing ``m / (2
    max(counts))``, inside ``B_{m/2}``; for each slope the touching node
    is the first node of ``inside`` where ``u - x.p`` is smallest, as
    ``np.argmin`` of ``u - pts @ p`` over the nodes of ``inside`` in
    row-major order gives it.  Returns the node mask and the number of
    slopes.

    A computed minimizer ``x`` is no larger than its axis neighbours in
    ``inside``, so every ``p_i`` lies in its box ``[D-_i u(x) - sigma,
    D+_i u(x) + sigma]``, with the one-sided difference quotients over
    the node coordinates, and ``-inf`` or ``+inf`` where the neighbour is
    off ``inside``.  A box that holds a slope of the lattice has bottom
    at most top and meets ``[ax[0], ax[-1]]`` on every axis; only those
    boxes are searched, and a node whose box holds no slope (it is not
    locally convex, or its box misses ``B_{m/2}``) touches no plane.  The
    boxes that hold one, ``live``, become index ranges on ``ax`` and are
    painted, with their nodes, into a ``(K+1)^n`` difference array (``K =
    len(ax)``) summed along every axis: a slope held by one box has that
    node, with no arithmetic, and a slope held by several is decided by
    one matrix-vector product ``u - pts @ p`` over the nodes of ``live``,
    in ascending node order (the first-index tie-break).  Every node that
    attains the computed minimum over ``inside`` holds the slope in its
    box, so it is in ``live``.  A slope held by no box is a
    ``RuntimeError``: it would mean that ``sigma`` is too small.

    ``sigma = (n + 8) 2^-52 B / d`` bounds the rounding, with ``B =
    max|u| + R m/2`` (``R`` the largest ``|x|``) over ``inside`` and ``d``
    half the least node spacing; count it in units ``e = 2^-53 B / d``.
    Each computed ``u - x.p`` is within ``(n + 1) 2^-53 B`` of its exact
    value (``n`` products and ``n`` additions, every term at most ``B``),
    so a computed minimizer ``x`` and its neighbour ``y = x + t e_i``,
    ``t > d``, have exactly ``p_i <= Q + 2 (n + 1) e``, ``Q = (u(y) -
    u(x)) / t``.  The computed quotient ``q`` is within three relative
    roundings of ``Q``, ``|Q| <= 2 max|u| / d``: ``6 e``; adding ``sigma``
    to it rounds by ``2^-53 |q + sigma|``, under ``3 e``.  That is ``2n +
    11 < 2n + 16`` units, which is ``sigma``; the lower end of the box is
    the same with the signs turned.  Like ``contact_set``'s ``delta``,
    ``sigma`` only widens the boxes: a slope it adds to a box is decided
    by the products.

    The cost is ``2n`` sorted searches over the boxes that can hold a
    slope, ``2^n`` scatters and ``n`` prefix sums over the ``(K+1)^n``
    slopes, plus the products of the slopes held by several boxes.  On
    the two envelope-fields bowls of input set 3 at n=129, 961 and 946
    of the 12,853 nodes of ``B_1`` are searched (all of them ``live``),
    and 2 and 37 of 52,253 slopes are held by several boxes; on a
    plateau, every slope.  The two tables, the box count and the node
    sum, are ``(K+1)^n`` int64: 0.54 MB each at n=129 in 2-D (``K =
    259``), and 8 MB each at 49 nodes per axis in 3-D (``K = 99``).
    """
    g = fld.grid
    n = g.dim
    s = m / (2 * max(g.counts))
    k = int(math.floor(0.5 * m / s))
    ax = np.arange(-k, k + 1) * s
    shape = (len(ax) + 1,) * n
    axes = g.axes()
    d = 0.5 * min(float(np.diff(x).min()) for x in axes)
    B = float(np.abs(fld.values[inside]).max()) \
        + 0.5 * m * float(np.sqrt(g._r2[inside].max()))
    sigma = (n + 8) * np.finfo(float).eps * B / d
    # the slope boxes [bottom, top] per axis, and the nodes whose boxes
    # can hold a slope of ax
    ends = []
    meets = inside.copy()
    for i, x in enumerate(axes):
        low = tuple(slice(None, -1) if a == i else slice(None)
                    for a in range(n))
        up = tuple(slice(1, None) if a == i else slice(None)
                   for a in range(n))
        q = np.diff(fld.values, axis=i) / np.diff(x).reshape(
            (-1,) + (1,) * (n - 1 - i))
        pair = inside[low] & inside[up]
        top = np.full(g.counts, np.inf)
        top[low] = np.where(pair, q + sigma, np.inf)
        bottom = np.full(g.counts, -np.inf)
        bottom[up] = np.where(pair, q - sigma, -np.inf)
        meets &= (bottom <= top) & (bottom <= ax[-1]) & (top >= ax[0])
        ends.append((bottom.reshape(-1), top.reshape(-1)))
    box = np.flatnonzero(meets)
    # those boxes as index ranges [lo, hi) on ax, one row per axis
    lo = np.stack([np.searchsorted(ax, b[box], side="left") for b, _ in ends])
    hi = np.stack([np.searchsorted(ax, t[box], side="right")
                   for _, t in ends])
    held = (lo < hi).all(axis=0)
    live, lo, hi = box[held], lo[:, held], hi[:, held]
    # how many boxes hold each slope, and the sum of their nodes, from
    # each box's 2^n corners with the sign (-1)^j of a corner that takes
    # j of its coordinates from hi
    paint = np.zeros((2,) + shape, dtype=np.int64)
    flat = paint.reshape(2, -1)
    for corner in itertools.product((0, 1), repeat=n):
        lin = np.ravel_multi_index(
            tuple((hi if c else lo)[i] for i, c in enumerate(corner)), shape)
        sign = (-1) ** sum(corner)
        np.add.at(flat[0], lin, sign)
        np.add.at(flat[1], lin, sign * live)
    for i in range(1, n + 1):
        np.cumsum(paint, axis=i, out=paint)
    count, node = paint[(slice(None),) + (slice(-1),) * n]
    # |p| < m/2 with the additions of _sq_dist, without a (K^n, n) table
    r2 = ax ** 2
    for _ in range(n - 1):
        r2 = r2[..., None] + ax ** 2
    disc = np.sqrt(r2) < m / 2
    if (count[disc] == 0).any():
        raise RuntimeError("a slope lies in no node's slope box")
    hit = np.zeros(g.n_nodes, dtype=bool)
    hit[node[disc & (count == 1)]] = True
    tie = disc & (count > 1)
    if tie.any():
        u = fld.values.reshape(-1)[live]
        pts = g.points()[live]
        slopes = np.stack([ax[j] for j in np.nonzero(tie)], axis=-1)
        for blk in _blocks(len(slopes), len(live)):
            # one matrix-vector product per slope, as ``pts @ p`` over all
            # nodes, so the values and their ties are the same
            vals = u - (pts @ slopes[blk, :, None])[..., 0]
            hit[live[np.argmin(vals, axis=1)]] = True
    return hit.reshape(g.counts), int(disc.sum())


def abp_bound(fld: ScalarField, ell: Ellipticity) -> CheckReport:
    """Maximum principle from the contact mass of sliding planes.

    For ``u >= 0`` on the boundary ring of B_1, every slope in
    ``B_{m/2}`` (m = max of the negative part) is attained by a touching
    plane; the contact nodes have nonnegative definite Hessian, so the
    area formula gives ``m <= C * ||(P^-(D^2u))_+||_{L^n(A)}`` with
    ``C = 2 / (n lam |B_1|^{1/n})``, within ``tol_factor h max(1, m)``,
    ``tol_factor = 8``.
    """
    g = fld.grid
    n = g.dim
    b1 = ClosedBall((0.0,) * n, 1.0)
    inside = b1.mask(g)
    ring = _ring(inside)
    osc = oscillation(fld, b1) if inside.any() else 0.0
    # the ring sits up to ~h inside the sphere; allow the matching dip
    ring_tol = 8 * g.h * max(1.0, osc)
    ring_ok = float(fld.values[ring].min(initial=0.0)) >= -ring_tol
    m = float(np.clip(-fld.values[inside & ~ring], 0, None).max(initial=0.0))
    # with no negative part no slope is taken, and the bound reads 0 <= 0
    amask, n_slopes = (_plane_contacts(fld, inside, m) if m > 0
                       else (np.zeros(g.counts, dtype=bool), 0))
    P = pucci_minus(_d2(fld.values, g.h, np.flatnonzero(amask & g._off_hull)),
                    ell)
    pvals = np.clip(P, 0, None)
    norm_n = _lp(pvals, n, g.cell_measure)
    C_impl = 2.0 / (n * ell.lam * _ball_volume(n) ** (1.0 / n))
    rhs = C_impl * norm_n
    tol_factor = 8.0
    return make_report(
        "abp", m, rhs, tol=tol_factor * g.h * max(1.0, m),
        constants={"C_impl": C_impl, "contact_nodes": int(amask.sum()),
                   "n_slopes": n_slopes, "tol_factor": tol_factor},
        grid=g.meta(),
        notes="max u_- vs L^n norm of (P^-)_+ on the plane-contact set",
        hypothesis=None if ring_ok
        else "hypothesis failed: u negative on the ring")


def aleksandrov_check(fld: ScalarField, domain: Region) -> CheckReport:
    """Pointwise pinch for convex functions vanishing on the boundary.

    ``sup |u(x)|^n / dist(x, boundary) <= C diam^{n-1} * integral of
    det(D^2 u)`` with ``C = n / |B_1^{n-1}|`` from the slope-cone volume,
    within ``tol_factor h max(1, lhs)``, ``tol_factor = 8``; it needs at
    least 1 node of the domain off its ring.
    """
    g = fld.grid
    n = g.dim
    inside = domain.mask(g)
    ring = _ring(inside)
    nodes = inside & ~ring
    H = hessian(fld)
    icore = nodes[_interior(g.counts)]
    eigs = _sym_eigvals(H[icore])
    convex_defect = float(np.clip(-_fold(np.minimum, eigs), 0, None).max(
        initial=0.0))
    pts = g.coords()
    dists = domain.boundary_distance(pts[nodes])
    if dists is None:
        # Euclidean distance to the nearest ring node
        dists = np.sqrt(_sq_index_distance(ring)[nodes]) * g.h
    lhs = float((np.abs(fld.values[nodes]) ** n
                 / np.maximum(dists, g.h)).max(initial=0.0))
    in_pts = pts[inside]
    centroid = in_pts.sum(axis=0) / max(len(in_pts), 1)
    diam = float(np.sqrt(_sq_dist(in_pts, centroid).max(initial=0.0))) * 2.0
    dets = _fold(np.multiply, eigs)
    total = float(np.clip(dets, 0, None).sum()) * g.cell_measure
    C_impl = n / _ball_volume(n - 1) if n > 1 else 1.0
    rhs = C_impl * diam ** (n - 1) * total
    tol_factor = 8.0
    return make_report(
        "aleksandrov", lhs, rhs, tol=tol_factor * g.h * max(1.0, lhs),
        constants={"C_impl": C_impl, "diam": diam,
                   "convex_defect": convex_defect, "tol_factor": tol_factor},
        grid=g.meta(),
        notes="pointwise pinch vs Hessian determinant mass",
        hypothesis=unresolved("the domain off its ring",
                              np.count_nonzero(nodes), 1) or (
            None if convex_defect <= 16 * g.h
            else "hypothesis failed: field not convex on the domain"))


def hessian_contact_check(fld: ScalarField, opening: float,
                          center_set: Region) -> CheckReport:
    """Contact set against concave paraboloids of fixed opening, searched
    over the whole grid.

    At interior touching nodes the discrete Hessian (taken there alone)
    is bounded below by ``-opening`` (up to lattice slack), which is
    reported as a check on the largest negative part of the smallest
    eigenvalue there; it needs 1 center node and 1 interior touching node.
    """
    g = fld.grid
    fam = ParaboloidFamily(opening=opening, center_set=center_set)
    held = np.count_nonzero(center_set.mask(g))
    if held:
        csi = contact_set(fld, fam, tangency_tolerance(fam, g.h)).interior()
    else:           # no paraboloid to slide, so no contact
        csi = ContactSet(g, fam, np.empty((0, g.dim)), np.empty(0, np.intp))
    eigs = _sym_eigvals(_d2(fld.values, g.h,
                            np.flatnonzero(csi.node_mask())))[:, 0]
    return make_report(
        "hessian-contact", float((-eigs).max(initial=0.0)),
        opening + 8 * opening * g.h,
        constants={"opening": opening, "n_contacts": len(csi)},
        grid=g.meta(),
        notes="smallest Hessian eigenvalue at contact nodes vs opening",
        hypothesis=unresolved("the center set", held, 1)
        or unresolved("the interior contact set", len(csi), 1))
