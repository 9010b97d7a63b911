"""Contact sets, envelopes and measure estimates.

The central object is the contact set of a field against a family of
concave paraboloids of one opening: for each center the paraboloid is
slid from below until it touches the graph of the field, and the
touching nodes are recorded as (center, node index) pairs.  Contact
sets serve the measure estimate, through the transport map of the
tangency relation and its area formula, and the Hessian bound at
contact nodes.  The radial barrier of the localization step enters only
through its constants (:func:`localization_barrier`): it is neither slid
to a contact set nor evaluated on the lattice.

Every kernel works on whole arrays.  Where a kernel compares many test
functions with many nodes it takes the test functions in blocks, so that
no temporary holds more than ``grid._BLOCK`` doubles.  The
inf-convolution and the contact search share one min-plus pass along a
grid axis; the contact search uses it to skip the slabs of the last axis
that cannot hold a contact, and finds the entries of a search over every
node (see :func:`contact_set`).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .grid import (Grid, ScalarField, Region, Ball, ClosedBall, SubLevel,
                   ball_volume, oscillation, _blocks, _interior, _lp,
                   _region_values, _sq_dist)
from .operators import (Ellipticity, gradient, hessian, pucci_minus,
                        sym_eigvals, _apply, _laplace_taps)
from .reports import make_report, CheckReport

__all__ = [
    "ParaboloidFamily", "ContactSet",
    "TransportRecord", "inf_convolution", "sup_convolution",
    "paraboloid_envelope", "contact_set", "tangency_tolerance",
    "transport_map", "area_formula_check", "measure_estimate_check",
    "localization_barrier", "localization_check", "abp_bound",
    "aleksandrov_check",
    "hessian_contact_set",
]


# ---------------------------------------------------------------------------
# inf / sup convolutions (exact separable minimum)


def _min_plus_pass(vals: NDArray, x: NDArray, axis: int,
                   coef: float) -> NDArray:
    """``min_q vals[..q..] + coef (x_p - x_q)^2`` along ``axis``, whose
    node coordinates are ``x``: the brute-force minimum along every grid
    line, the lines taken in blocks."""
    cost = (x[:, None] - x[None, :]) ** 2 * coef         # [p, q]
    # contiguous lines: a strided axis-0 pass is several times slower
    moved = np.ascontiguousarray(np.moveaxis(vals, axis, -1))
    lines = moved.reshape(-1, len(x))
    out = np.empty_like(lines)
    for blk in _blocks(len(lines), cost.size):
        out[blk] = (lines[blk, None, :] + cost).min(axis=-1)
    return np.moveaxis(out.reshape(moved.shape), -1, axis)


def inf_convolution(fld: ScalarField, eps: float) -> ScalarField:
    """``u_eps(y) = min_x u(x) + |x - y|^2 / (2 eps)`` over grid nodes.

    Computed axis by axis, each as the brute-force minimum
    ``min_q f[q] + (x_p - x_q)^2 / (2 eps)`` along every grid line.  The
    separation is exact in floating point (rounding is monotone, so it
    commutes with the minimum): the result equals the brute-force
    minimum over all nodes, with the terms added axis by axis, bit for bit.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    g = fld.grid
    vals = fld.values
    for ax, x in enumerate(g.axes()):
        vals = _min_plus_pass(vals, x, ax, 1.0 / (2.0 * eps))
    return ScalarField(g, vals)


def sup_convolution(fld: ScalarField, eps: float) -> ScalarField:
    """``u^eps(y) = max_x u(x) - |x - y|^2 / (2 eps)``."""
    neg = ScalarField(fld.grid, -fld.values)
    return ScalarField(fld.grid, -inf_convolution(neg, eps).values)


def paraboloid_envelope(fld: ScalarField, eps: float) -> ScalarField:
    """Upper regularization: sup-convolution of the inf-convolution.

    Lies between ``u_eps`` and ``u`` and agrees with ``u`` exactly on the
    union of the inf-convolution contact sets.
    """
    return sup_convolution(inf_convolution(fld, eps), eps)


# ---------------------------------------------------------------------------
# the paraboloid family


@dataclass(frozen=True)
class ParaboloidFamily:
    """Concave paraboloids ``phi(x) = -(M/2)|x - y0|^2``, M the opening,
    one for each center ``y0`` in ``center_set``."""

    opening: float
    center_set: Region

    def __post_init__(self):
        if self.opening <= 0:
            raise ValueError("opening must be positive")

    def evaluate(self, pts: NDArray, y0: NDArray) -> NDArray:
        """Values at ``pts`` (``(..., dim)``) of the members centered at
        ``y0``, which broadcasts against ``pts`` without its last axis."""
        return -0.5 * self.opening * _sq_dist(pts, y0)


# ---------------------------------------------------------------------------
# contact sets


@dataclass
class ContactSet:
    """Touching nodes of a field against a sliding paraboloid family.

    Parallel arrays: the member centered at ``centers[k]`` touched the
    graph at the node of integer index ``indices[k]``; entries go by
    center, then by node in row-major order.  ``on_hull[k]`` flags nodes
    on the grid boundary, where no centered difference exists.
    """

    grid: Grid
    family: ParaboloidFamily
    centers: NDArray      # (K, dim)
    indices: NDArray      # (K, dim) integer node indices

    @property
    def on_hull(self) -> NDArray:
        return ~self.grid._off_hull[tuple(self.indices.T)]

    def interior(self) -> "ContactSet":
        keep = ~self.on_hull
        return ContactSet(self.grid, self.family, self.centers[keep],
                          self.indices[keep])

    def node_mask(self) -> NDArray:
        m = np.zeros(self.grid.counts, dtype=bool)
        m[tuple(self.indices.T)] = True
        return m

    def measure(self) -> float:
        return float(self.node_mask().sum()) * self.grid.cell_measure

    def __len__(self):
        return len(self.indices)


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

    Only the slabs of the last axis that can hold a recorded node are
    searched.  With ``c = M/2``, the inf-convolution's axis passes over
    the other axes (nodes off the search region entering as ``+inf``)
    give ``W[y', j]``, the minimum of ``u(x) + c|x' - y'|^2`` over the
    searched nodes of slab ``j``, so ``L(y, j) = W[y', j] + c (x_j -
    y_last)^2`` is the minimum of ``u - phi`` over that slab.  A slab is
    searched when ``L(y, j) - min L(y, .) <= tol + 4 delta``, and there
    membership is decided with the brute force's own expression
    ``u - family.evaluate(pts, y)``.

    ``delta = (d + 4) 2^-52 B`` bounds the rounding.  Every term and
    partial sum lies in ``[-B, B]``, ``B = max|u| + c sum_k extent_k^2``
    over the searched nodes, and each computed value of ``u - phi`` or of
    ``L`` is at most ``d + 4`` roundings of ``2^-53 B`` from its exact
    value (four for ``c`` times a squared difference, one per addition):
    half of ``delta``, the other half covering the rounding of the
    differences to the minima.  So the brute minimum ``m`` is within
    ``delta`` of the exact minimum, a recorded node within ``tol + 2
    delta`` of it, and its slab's computed ``L`` within ``tol + 4 delta``
    of the least computed ``L``.  Every recorded node, and a node
    attaining ``m``, thus lies in a searched slab: the minimum over the
    searched slabs is ``m`` bit for bit, and the entries are the brute
    force's over all nodes, in its order (by center, then by node in
    row-major order).  The bound tables and the (center, slab) pairs are
    taken in blocks.
    """
    if not isinstance(family, ParaboloidFamily):
        raise TypeError(f"unsupported family {type(family).__name__}")
    if tol is not None and not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and nonnegative, got {tol}")
    g = fld.grid
    pts = g.points()
    smask = _region_values(fld, search_region)
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
    W = np.where(smask, fld.values, np.inf)
    # slab j holds the nodes of last index j; its row s is node s n_last + j
    slab_u = np.ascontiguousarray(W.reshape(-1, n_last).T)
    slab_pts = np.ascontiguousarray(
        pts.reshape(-1, n_last, g.dim).swapaxes(0, 1))
    for ax in range(g.dim - 1):
        W = _min_plus_pass(W, axes[ax], ax, c)
    W = W.reshape(-1, n_last)                           # [y', slab]
    last_cost = (axes[-1][:, None] - axes[-1][None, :]) ** 2 * c
    rest, last = np.divmod(cen_lin, n_last)
    delta = (g.dim + 4) * np.finfo(float).eps * (
        umax + c * sum((x[-1] - x[0]) ** 2 for x in axes))
    rows, cols = [], []
    for blk in _blocks(len(centers), n_last):
        bound = W[rest[blk]]
        bound += last_cost[last[blk]]
        bound -= bound.min(axis=1, keepdims=True)
        keep = bound <= tol + 4 * delta
        width = int(keep.sum(axis=1).max()) * slab_pts[0].size
        for sub in _blocks(len(keep), width):
            r, j = np.nonzero(keep[sub])
            k = r + blk.start + sub.start               # the pair's center
            gvals = slab_u[j] - family.evaluate(slab_pts[j], centers[k, None])
            mval = np.full(len(keep), np.inf)
            np.minimum.at(mval, r, gvals.min(axis=1))
            gvals -= mval[r, None]
            p, s = np.nonzero(gvals <= tol)
            rows.append(k[p])
            cols.append(s * n_last + j[p])
    row, lin = np.concatenate(rows), np.concatenate(cols)
    # by center, then by node in row-major order
    order = np.argsort(row * g.n_nodes + lin)
    return ContactSet(
        grid=g, family=family, centers=centers[row[order]],
        indices=np.stack(np.unravel_index(lin[order], g.counts), axis=-1))


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
    centered differences of ``fld`` at the contact node ``x0``.  A hull
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
    core = tuple((contact.indices - 1).T)
    targets = g.coords()[tuple(contact.indices.T)] + gradient(fld)[core] / M
    dets = np.linalg.det(np.eye(g.dim) + hessian(fld)[core] / M)
    neg = dets < 0
    return TransportRecord(
        contact=contact, targets=targets, jacobians=np.where(neg, 0.0, dets),
        clamp=float(-dets[neg].min()) if neg.any() else 0.0)


def area_formula_check(transport: TransportRecord,
                       center_set: Region) -> CheckReport:
    """``|centers| <= sum over contact nodes of det(DT) h^n``, for the
    transport of an interior paraboloid contact set, with no slack.

    Every contact node contributes once, with its largest Jacobian (the
    Jacobian depends on the node only).
    """
    contact = transport.contact
    g = contact.grid
    lhs = center_set.measure(g)
    best = np.zeros(g.n_nodes)
    np.fmax.at(best, np.ravel_multi_index(tuple(contact.indices.T), g.counts),
               transport.jacobians)
    rhs = float(best.sum()) * g.cell_measure
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
    fraction of B_1.
    """
    g = fld.grid
    n = g.dim
    b1 = Ball((0.0,) * n, 1.0)
    theta = 0.25
    if float(fld.values[b1.mask(g)].min()) < -1e-9:
        return make_report("measure-estimate", 0.0, 0.0,
                           hypothesis="hypothesis failed: u negative on B_1")
    quarter = ClosedBall((0.0,) * n, theta)
    min_inner = float(fld.values[quarter.mask(g)].min())
    if min_inner > theta + 1e-9:
        return make_report(
            "measure-estimate", 0.0, 0.0,
            hypothesis="hypothesis failed: min over B_1/4 above 1/4")
    fam = ParaboloidFamily(opening=1.0, center_set=Ball((0.0,) * n, 0.25))
    tol = tangency_tolerance(fam, g.h)
    cs = contact_set(fld, fam, tol=tol, search_region=b1)
    csi = cs.interior()
    # contacts must land in {u <= 1}: u(x0) = phi(x0) + min <= sup phi + min
    u_at = fld.values[tuple(csi.indices.T)]
    worst_u = float(u_at.max()) if len(u_at) else 0.0
    tr = transport_map(csi, fld)
    area = area_formula_check(tr, fam.center_set)
    A = csi.measure()
    if A <= 0:
        return make_report("measure-estimate", 0.0, 0.0,
                           hypothesis="empty interior contact set")
    # measured area-formula constant: average Jacobian over the contact set
    C_meas = max(1.0, area.rhs / A)
    eta = fam.center_set.measure(g) / (2.0 * C_meas)
    good = (SubLevel(fld, 1.0 + 4 * g.h).mask(g) & b1.mask(g))
    lhs = eta
    rhs = float(good.sum()) * g.cell_measure
    return make_report(
        "measure-estimate", lhs, rhs,
        constants={"eta": eta, "C_meas": C_meas, "theta": theta,
                   "worst_contact_value": worst_u, "contact_measure": A,
                   "tol": tol},
        grid=g.meta(),
        notes="lower bound on |{u<=1} cap B_1| from the contact mass")


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
    That ``u`` is a supersolution is not checked.
    """
    g = fld.grid
    n = g.dim
    bar = localization_barrier(ell, n, rho)
    min_half = float(fld.values[ClosedBall((0.0,) * n, 0.5).mask(g)].min())
    lhs = float(fld.values[ClosedBall((0.0,) * n, rho).mask(g)].min())
    return make_report(
        "localization", lhs, bar["M"], tol=4 * g.h * bar["curvature"],
        constants={"alpha": bar["alpha"], "C0": bar["C0"], "M": bar["M"],
                   "rho": rho, "min_B_half": min_half},
        grid=g.meta(),
        notes="min over B_rho controlled by the barrier supremum",
        hypothesis=None if min_half <= 1.0 + 1e-9
        else "hypothesis failed: min over B_1/2 above 1")


def _ring(inside: NDArray) -> NDArray:
    """Nodes of ``inside`` with an axis neighbour outside it or off the
    grid: there the zero-padded indicator has a negative Laplacian."""
    return inside & (_apply(np.pad(inside, 1).astype(float),
                            _laplace_taps(inside.ndim), 1) < 0)


# Slopes per tile edge in the ABP slope search.
_TILE = 24


def _plane_contacts(fld: ScalarField, inside: NDArray,
                    m: float) -> tuple[NDArray, int]:
    """Nodes touched from below by planes with slopes in ``B_{m/2}``.

    The slopes are the lattice of spacing ``m / (2 max(counts))`` inside
    ``B_{m/2}``; for each slope the touching node is the first node of
    ``inside`` where ``u - x.p`` is smallest.  Returns the node mask and
    the number of slopes.

    The search goes by square tiles of ``_TILE`` slopes per axis.  For a
    tile with center ``p_c`` and radius ``delta`` let ``x*`` minimize
    ``g_c = u - x.p_c``.  A minimizer ``x`` of ``u - x.p`` for a slope of
    the tile has ``g_c(x) - g_c(x*) <= (x - x*).(p - p_c) <= |x - x*| delta``,
    so only the nodes passing this test (with a slack of 1e-12 of the
    scale for rounding) are evaluated, in ascending node order, which
    keeps the first-index tie-break.
    """
    g = fld.grid
    n = g.dim
    s = m / (2 * max(g.counts))
    k = int(math.floor(0.5 * m / s))
    ax = np.arange(-k, k + 1) * s
    sel = np.flatnonzero(inside.reshape(-1))
    pts = g.points()[sel]
    u = fld.values.reshape(-1)[sel]
    slack = 1e-12 * (float(np.abs(u).max()) + m * float(np.abs(pts).max()))
    hit = np.zeros(len(sel), dtype=bool)
    n_slopes = 0
    for start in itertools.product(range(0, 2 * k + 1, _TILE), repeat=n):
        mesh = np.meshgrid(*(ax[a:a + _TILE] for a in start), indexing="ij")
        slopes = np.stack(mesh, axis=-1).reshape(-1, n)
        slopes = slopes[np.sqrt(_sq_dist(slopes, np.zeros(n))) < m / 2]
        if not len(slopes):
            continue
        n_slopes += len(slopes)
        pc = 0.5 * (slopes.min(axis=0) + slopes.max(axis=0))
        delta = float(np.sqrt(_sq_dist(slopes, pc).max()))
        gc = u - pts @ pc
        j = np.argmin(gc)
        cand = np.flatnonzero(
            gc - gc[j] <= np.sqrt(_sq_dist(pts, pts[j])) * delta + slack)
        for blk in _blocks(len(slopes), len(cand)):
            # one matrix-vector product per slope, as ``pts @ p`` over all
            # nodes, so the values and their ties are the same (a single
            # candidate is the minimizer whatever its value)
            vals = u[cand] - (pts[cand] @ slopes[blk, :, None])[..., 0]
            hit[cand[np.argmin(vals, axis=1)]] = True
    mask = np.zeros(g.n_nodes, dtype=bool)
    mask[sel[hit]] = True
    return mask.reshape(g.counts), n_slopes


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
    if ring.any() and float(fld.values[ring].min()) < -ring_tol:
        return make_report(
            "abp", 0.0, 0.0,
            hypothesis="hypothesis failed: u negative on the ring")
    m = float(np.clip(-fld.values[inside & ~ring], 0, None).max()) \
        if (inside & ~ring).any() else 0.0
    grid_meta = g.meta()
    if m == 0.0:
        return make_report("abp", 0.0, 0.0, tol=1e-12, grid=grid_meta,
                           notes="no negative part; bound trivial")
    amask, n_slopes = _plane_contacts(fld, inside, m)
    P = pucci_minus(hessian(fld), ell)
    pvals = np.clip(P[amask[_interior(g.counts)]], 0, None)
    norm_n = _lp(pvals, n, g.cell_measure)
    C_impl = 2.0 / (n * ell.lam * ball_volume(n) ** (1.0 / n))
    rhs = C_impl * norm_n
    tol_factor = 8.0
    return make_report(
        "abp", m, rhs, tol=tol_factor * g.h * max(1.0, m),
        constants={"C_impl": C_impl, "contact_nodes": int(amask.sum()),
                   "n_slopes": n_slopes, "tol_factor": tol_factor},
        grid=grid_meta,
        notes="max u_- vs L^n norm of (P^-)_+ on the plane-contact set")


def aleksandrov_check(fld: ScalarField, domain: Region) -> CheckReport:
    """Pointwise pinch for convex functions vanishing on the boundary.

    ``sup |u(x)|^n / dist(x, boundary) <= C diam^{n-1} * integral of
    det(D^2 u)`` with ``C = n / |B_1^{n-1}|`` from the slope-cone volume,
    within ``tol_factor h max(1, lhs)``, ``tol_factor = 8``.
    """
    g = fld.grid
    n = g.dim
    inside = domain.mask(g)
    ring = _ring(inside)
    nodes = inside & ~ring
    H = hessian(fld)
    icore = nodes[_interior(g.counts)]
    eigs = sym_eigvals(H[icore])
    convex_defect = float(np.clip(-eigs.min(axis=-1), 0, None).max()) \
        if icore.any() else 0.0
    pts = g.coords()
    dists = domain.boundary_distance(pts[nodes])
    if dists is None:
        # Euclidean distance to the nearest ring node
        from scipy import ndimage       # off the import path: only here
        dists = ndimage.distance_transform_edt(~ring, sampling=g.h)[nodes]
    lhs = float((np.abs(fld.values[nodes]) ** n
                 / np.maximum(dists, g.h)).max()) if nodes.any() else 0.0
    in_pts = pts[inside]
    diam = float(np.sqrt(_sq_dist(in_pts, in_pts.mean(axis=0)).max())) * 2.0
    dets = np.linalg.det(H[icore]) if icore.any() else np.zeros(1)
    total = float(np.clip(dets, 0, None).sum()) * g.cell_measure
    C_impl = n / ball_volume(n - 1) if n > 1 else 1.0
    rhs = C_impl * diam ** (n - 1) * total
    tol_factor = 8.0
    return make_report(
        "aleksandrov", lhs, rhs, tol=tol_factor * g.h * max(1.0, lhs),
        constants={"C_impl": C_impl, "diam": diam,
                   "convex_defect": convex_defect, "tol_factor": tol_factor},
        grid=g.meta(),
        notes="pointwise pinch vs Hessian determinant mass",
        hypothesis=None if convex_defect <= 16 * g.h
        else "hypothesis failed: field not convex on the domain")


def hessian_contact_set(fld: ScalarField, opening: float,
                        center_set: Region) -> tuple[ContactSet, CheckReport]:
    """Contact set against concave paraboloids of fixed opening, searched
    over the whole grid.

    At interior touching nodes the discrete Hessian is bounded below by
    ``-opening`` (up to lattice slack), which is reported as a check; with
    no interior touching node it bounds nothing, and the status is
    ``hypothesis``.
    """
    fam = ParaboloidFamily(opening=opening, center_set=center_set)
    cs = contact_set(fld, fam, tol=tangency_tolerance(fam, fld.grid.h))
    csi = cs.interior()
    eigs = sym_eigvals(hessian(fld)[tuple((csi.indices - 1).T)])[:, 0]
    worst = float((-eigs).max()) if len(eigs) else 0.0
    rep = make_report(
        "hessian-contact", worst,
        opening + 8 * opening * fld.grid.h,
        constants={"opening": opening, "n_contacts": len(csi)},
        grid=fld.grid.meta(),
        notes="smallest Hessian eigenvalue at contact nodes vs opening",
        hypothesis=None if len(csi) else "empty interior contact set")
    return cs, rep
