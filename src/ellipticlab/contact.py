"""Contact sets, envelopes and measure estimates.

The central object is the contact set of a field against a family of
test functions (paraboloids or a radial barrier profile): for each
center the test function is slid from below until it touches the graph
of the field, and the touching nodes are recorded together with the
discrete gradient there.  The transport map built from the tangency
relation drives the area-formula bounds (measure estimate, ABP).

Every kernel works on whole arrays.  Where a kernel compares many test
functions with many nodes it takes the test functions in blocks, so that
no temporary holds more than ``operators._BLOCK`` doubles.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray
from scipy import ndimage

from .grid import (Grid, ScalarField, Region, Ball, ClosedBall, SubLevel,
                   ball_volume, _interior, _lp)
from .operators import (Ellipticity, gradient, hessian, pucci_minus,
                        sym_eigvals, _blocks)
from .reports import make_report, CheckReport

__all__ = [
    "ParaboloidFamily", "RadialProfileFamily", "ContactSet",
    "TransportRecord", "inf_convolution", "sup_convolution",
    "paraboloid_envelope", "contact_set", "tangency_tolerance",
    "transport_map", "area_formula_check", "measure_estimate_check",
    "localization_barrier", "localization_check", "abp_bound",
    "aleksandrov_check",
    "hessian_contact_set",
]


def _sq_dist(pts: NDArray, y0: NDArray) -> NDArray:
    """``|pts - y0|^2``, broadcast over the leading axes and summed one
    axis at a time: the additions of ``np.sum(..., axis=-1)`` over 1-3
    entries, without a temporary of ``dim`` doubles per pair."""
    y0 = np.asarray(y0)
    acc = (pts[..., 0] - y0[..., 0]) ** 2
    for k in range(1, pts.shape[-1]):
        acc += (pts[..., k] - y0[..., k]) ** 2
    return acc


# ---------------------------------------------------------------------------
# inf / sup convolutions (exact separable minimum)


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
    inv2eps = 1.0 / (2.0 * eps)
    vals = fld.values
    for ax, x in enumerate(g.axes()):
        cost = (x[:, None] - x[None, :]) ** 2 * inv2eps     # [p, q]
        moved = np.moveaxis(vals, ax, -1)
        lines = moved.reshape(-1, len(x))
        out = np.empty_like(lines)
        for blk in _blocks(len(lines), cost.size):
            out[blk] = (lines[blk, None, :] + cost).min(axis=-1)
        vals = np.moveaxis(out.reshape(moved.shape), -1, ax)
    return ScalarField(g, vals, name=f"infconv[{fld.name}]" if fld.name else "")


def sup_convolution(fld: ScalarField, eps: float) -> ScalarField:
    """``u^eps(y) = max_x u(x) - |x - y|^2 / (2 eps)``."""
    neg = ScalarField(fld.grid, -fld.values)
    out = inf_convolution(neg, eps)
    return ScalarField(fld.grid, -out.values,
                       name=f"supconv[{fld.name}]" if fld.name else "")


def paraboloid_envelope(fld: ScalarField, eps: float) -> ScalarField:
    """Upper regularization: sup-convolution of the inf-convolution.

    Lies between ``u_eps`` and ``u`` and agrees with ``u`` exactly on the
    union of the inf-convolution contact sets.
    """
    return ScalarField(fld.grid,
                       sup_convolution(inf_convolution(fld, eps), eps).values,
                       name=f"envelope[{fld.name}]" if fld.name else "")


# ---------------------------------------------------------------------------
# test-function families


@dataclass(frozen=True)
class ParaboloidFamily:
    """Concave paraboloids ``phi(x) = -(M/2)|x - y0|^2 + offset``."""

    opening: float
    center_set: Region
    offset: float = 0.0

    def __post_init__(self):
        if self.opening <= 0:
            raise ValueError("opening must be positive")

    def evaluate(self, pts: NDArray, y0: NDArray) -> NDArray:
        """Values at ``pts`` (``(..., dim)``) of the members centered at
        ``y0``, which broadcasts against ``pts`` without its last axis."""
        return self.offset - 0.5 * self.opening * _sq_dist(pts, y0)

    def curvature_scale(self) -> float:
        return self.opening


@dataclass(frozen=True)
class RadialProfileFamily:
    """Truncated power barrier translated over a small ball of centers.

    The profile ``phi(x) = C0 (q(|x-y0|) - q(1 - rho/2)) / (q(1/2 + rho/2)
    - q(1 - rho/2))`` with ``q(r) = min(r**-alpha, (rho/2)**-alpha)`` is a
    supersolution of the minimal Pucci operator outside ``B_{rho/2}``
    once ``alpha`` is large enough for the ellipticity window.
    """

    alpha: float
    rho: float
    C0: float
    center_set: Region

    def __post_init__(self):
        if not (0 < self.rho < 0.5):
            raise ValueError("rho must lie in (0, 1/2)")
        if self.alpha <= 0 or self.C0 <= 0:
            raise ValueError("alpha and C0 must be positive")

    def _q(self, r):
        r = np.asarray(r, dtype=float)
        cap = (self.rho / 2) ** (-self.alpha)
        with np.errstate(divide="ignore"):
            return np.minimum(np.where(r > 0, r ** (-self.alpha), np.inf), cap)

    @property
    def _norm(self) -> float:
        return float(self._q(0.5 + self.rho / 2) - self._q(1 - self.rho / 2))

    def evaluate(self, pts: NDArray, y0: NDArray) -> NDArray:
        r = np.sqrt(_sq_dist(pts, y0))
        return self.C0 * (self._q(r) - self._q(1 - self.rho / 2)) / self._norm

    @property
    def sup_value(self) -> float:
        """Maximum of the profile (attained on the flat cap)."""
        return self.C0 * float(self._q(0.0) - self._q(1 - self.rho / 2)) \
            / self._norm

    def hessian_at(self, z: NDArray) -> NDArray:
        """Analytic Hessian of the profile at offset ``z = x - y0``."""
        r = float(np.linalg.norm(z))
        d = len(z)
        if r <= self.rho / 2:
            return np.zeros((d, d))
        c1 = self.C0 / self._norm
        pref = c1 * self.alpha * r ** (-self.alpha - 2)
        zz = np.outer(z, z) / (r * r)
        return pref * ((self.alpha + 2) * zz - np.eye(d))

    def gradient_at(self, z: NDArray) -> NDArray:
        r = float(np.linalg.norm(z))
        if r <= self.rho / 2:
            return np.zeros_like(np.asarray(z, dtype=float))
        c1 = self.C0 / self._norm
        return -c1 * self.alpha * r ** (-self.alpha - 2) * np.asarray(z)

    def invert_gradient(self, p: NDArray) -> NDArray:
        """Solve ``gradient_at(z) = p`` for ``z`` outside the cap."""
        p = np.asarray(p, dtype=float)
        mag = float(np.linalg.norm(p))
        c1 = self.C0 / self._norm
        if mag == 0:
            return np.zeros_like(p)
        r = (mag / (c1 * self.alpha)) ** (-1.0 / (self.alpha + 1))
        return -r * p / mag

    def curvature_scale(self) -> float:
        c1 = self.C0 / self._norm
        r = self.rho / 2
        return c1 * self.alpha * (self.alpha + 2) * r ** (-self.alpha - 2)


# ---------------------------------------------------------------------------
# contact sets


@dataclass
class ContactSet:
    """Touching nodes of a field against a sliding family.

    Parallel arrays: ``points[k]`` touched when the member centered at
    ``centers[k]`` was slid to vertical offset ``offsets[k]``;
    ``grads[k]`` is the centered-difference gradient at the node (NaN on
    the hull) and ``on_hull[k]`` flags nodes on the grid boundary.
    """

    grid: Grid
    family: object
    centers: NDArray      # (K, dim)
    points: NDArray       # (K, dim)
    indices: NDArray      # (K, dim) integer node indices
    offsets: NDArray      # (K,) value of min(u - phi)
    grads: NDArray        # (K, dim)
    on_hull: NDArray      # (K,) bool
    tol: float

    def interior(self) -> "ContactSet":
        keep = ~self.on_hull
        return ContactSet(self.grid, self.family, self.centers[keep],
                          self.points[keep], self.indices[keep],
                          self.offsets[keep], self.grads[keep],
                          self.on_hull[keep], self.tol)

    def node_mask(self) -> NDArray:
        m = np.zeros(self.grid.counts, dtype=bool)
        m[tuple(self.indices.T)] = True
        return m

    def measure(self) -> float:
        return float(self.node_mask().sum()) * self.grid.cell_measure

    def __len__(self):
        return len(self.offsets)


def tangency_tolerance(family, h: float) -> float:
    """Vertical slack under which a node counts as touching on a lattice
    with spacing ``h`` (curvature * h^2 scale)."""
    return 4.0 * family.curvature_scale() * h * h + 1e-12


def contact_set(fld: ScalarField, family, tol: float | None = None,
                search_region: Region | None = None) -> ContactSet:
    """Slide each family member up from below until it touches ``u``.

    For every center in ``family.center_set`` the minimum of ``u - phi``
    is located over the search region (whole grid by default); nodes
    within ``tol`` of the minimum are recorded.  The default ``tol``
    keeps only exact minimizers (1e-12 relative); use
    :func:`tangency_tolerance` for a curvature-aware slack.
    """
    g = fld.grid
    pts = g.points()
    if search_region is None:
        smask = np.ones(g.n_nodes, dtype=bool)
    else:
        smask = search_region.mask(g).reshape(-1)
    if fld.mask is not None:
        smask = smask & fld.mask.reshape(-1)
    if not smask.any():
        raise ValueError("empty search region")
    centers = pts[family.center_set.mask(g).reshape(-1)]
    if len(centers) == 0:
        raise ValueError("center set contains no grid nodes")
    if tol is None:
        tol = 1e-12 * max(1.0, float(np.max(np.abs(fld.values))))

    sub_lin = np.flatnonzero(smask)
    sub_pts = pts[sub_lin]
    sub_u = fld.values.reshape(-1)[sub_lin]
    rows, cols, mins = [], [], []
    for blk in _blocks(len(centers), len(sub_lin)):
        gvals = sub_u - family.evaluate(sub_pts, centers[blk, None])
        mval = gvals.min(axis=1)
        # row-major: by center, then by node, the order of the entries
        r, c = np.nonzero(gvals - mval[:, None] <= tol)
        rows.append(r + blk.start)
        cols.append(c)
        mins.append(mval)
    rows = np.concatenate(rows)
    lin = sub_lin[np.concatenate(cols)]
    indices = np.stack(np.unravel_index(lin, g.counts), axis=-1)
    on_hull = np.any((indices == 0) | (indices == np.asarray(g.counts) - 1),
                     axis=-1)
    grads = np.full((len(lin), g.dim), np.nan)
    grads[~on_hull] = gradient(fld).values[tuple((indices[~on_hull] - 1).T)]
    return ContactSet(
        grid=g, family=family, centers=centers[rows], points=pts[lin],
        indices=indices, offsets=np.concatenate(mins)[rows], grads=grads,
        on_hull=on_hull, tol=float(tol))


# ---------------------------------------------------------------------------
# transport map and area formula


@dataclass
class TransportRecord:
    """Transport targets and Jacobians along a contact set.

    ``targets[k]`` approximates the center reached from contact node k
    via the tangency relation; ``jacobians[k]`` is the clamped
    ``det`` of the transport differential; ``clamp`` records how much
    negative determinant mass was clipped away.  ``undefined_jacobians``
    counts the interior contacts whose Jacobian is NaN (for the radial
    profile: the barrier Hessian is singular there, as on its flat cap).
    """

    contact: ContactSet
    targets: NDArray
    jacobians: NDArray
    clamp: float
    undefined_jacobians: int = 0


def transport_map(contact: ContactSet, fld: ScalarField) -> TransportRecord:
    """Recover centers from gradients and evaluate the area-formula weight.

    For a paraboloid of opening M the tangency relation gives
    ``T(x0) = x0 + Du(x0)/M`` and ``DT = I + D^2u(x0)/M``; for the radial
    profile the analytic gradient of the barrier is inverted.
    Determinants are clamped at zero (a contact point cannot dip below
    the test function's curvature beyond lattice error).
    """
    fam = contact.family
    d = contact.grid.dim
    keep = ~contact.on_hull
    x0 = contact.points[keep]
    du = contact.grads[keep]
    D2u = hessian(fld).values[tuple((contact.indices[keep] - 1).T)]
    eye = np.eye(d)
    if isinstance(fam, ParaboloidFamily):
        tk = x0 + du / fam.opening
        DT = eye + D2u / fam.opening
    elif isinstance(fam, RadialProfileFamily):
        tk = np.empty_like(x0)
        DT = np.full((len(x0), d, d), np.nan)
        for k in range(len(x0)):
            z = fam.invert_gradient(du[k])
            tk[k] = x0[k] - z
            Phi = fam.hessian_at(z)
            if np.linalg.det(Phi) != 0:
                DT[k] = eye - np.linalg.solve(Phi, D2u[k])
    else:
        raise TypeError(f"unsupported family {type(fam).__name__}")
    with np.errstate(invalid="ignore"):     # NaN rows are counted below
        dets = np.linalg.det(DT)
    neg = dets < 0
    targets = np.full_like(contact.points, np.nan)
    targets[keep] = tk
    jacs = np.zeros(len(contact.offsets))
    jacs[keep] = np.where(neg, 0.0, dets)
    return TransportRecord(
        contact=contact, targets=targets, jacobians=jacs,
        clamp=float(-dets[neg].min()) if neg.any() else 0.0,
        undefined_jacobians=int(np.isnan(dets).sum()))


def area_formula_check(transport: TransportRecord, center_set: Region,
                       slack: float = 0.0) -> CheckReport:
    """``|centers| <= sum over contact nodes of det(DT) h^n (1 + slack)``.

    Every contact node contributes once, with its largest Jacobian (the
    Jacobian depends on the node only); hull contacts are excluded and
    reported, and so are undefined (NaN) Jacobians, which add nothing.
    """
    contact = transport.contact
    g = contact.grid
    lhs = center_set.measure(g)
    keep = ~contact.on_hull
    best = np.zeros(g.n_nodes)
    np.fmax.at(best, np.ravel_multi_index(tuple(contact.indices[keep].T),
                                          g.counts),
               transport.jacobians[keep])
    rhs = float(best.sum()) * g.cell_measure * (1.0 + slack)
    n_hull = int(contact.on_hull.sum())
    return make_report("area-formula", lhs, rhs,
                       constants={"slack": slack, "clamp": transport.clamp,
                                  "hull_contacts": n_hull,
                                  "undefined_jacobians":
                                      transport.undefined_jacobians},
                       grid=g.meta(),
                       notes="center-set measure vs transported Jacobian mass")


# ---------------------------------------------------------------------------
# measure estimate, localization, ABP


def measure_estimate_check(fld: ScalarField) -> CheckReport:
    """Touch a nonnegative supersolution with unit paraboloids.

    Hypotheses: ``u >= 0`` on B_1 and ``min over B_{1/4} <= theta = 1/4``;
    both are checked.  That ``u`` is a supersolution with small forcing
    is not checked.  Concave unit paraboloids centered in B_{1/4} with
    vertical offset ``(3/4)^2/2`` touch inside ``{u <= 1}``, recorded
    within ``tol = tangency_tolerance`` of the family; the area formula
    then bounds ``|B_{1/4}|`` by the contact-set mass, which forces
    ``{u <= 1}`` to occupy a definite fraction of B_1.
    """
    g = fld.grid
    n = g.dim
    b1 = Ball((0.0,) * n, 1.0)
    theta = 0.25
    if float(fld.values[b1.mask(g)].min()) < -1e-9:
        return make_report("measure-estimate", 1.0, 0.0,
                           notes="hypothesis failed: u negative on B_1")
    quarter = ClosedBall((0.0,) * n, theta)
    min_inner = float(fld.values[quarter.mask(g)].min())
    if min_inner > theta + 1e-9:
        return make_report("measure-estimate", 1.0, 0.0,
                           notes="hypothesis failed: min over B_1/4 above 1/4")
    fam = ParaboloidFamily(opening=1.0, center_set=Ball((0.0,) * n, 0.25),
                           offset=0.5 * 0.75 ** 2)
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
        return make_report("measure-estimate", 1.0, 0.0,
                           notes="empty interior contact set")
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


def localization_barrier(ell: Ellipticity, dim: int, rho: float,
                         center_set: Region) -> RadialProfileFamily:
    """Radial barrier tuned to the ellipticity window.

    ``alpha = Lam * n / lam`` makes the profile a strict supersolution in
    the annulus; ``C0`` is the smallest power of two pushing the minimal
    Pucci value of the barrier above 1 there.
    """
    alpha = ell.Lam * dim / ell.lam
    if ell.lam * (alpha + 1) - ell.Lam * (dim - 1) <= 0:
        raise ValueError("ellipticity window too wide for this barrier")
    fam = RadialProfileFamily(alpha=alpha, rho=rho, C0=1.0,
                              center_set=center_set)
    # minimal Pucci value of the barrier over rho/2 <= |z| <= 1 is attained
    # at |z| = 1 (eigenvalues scale like |z|**-(alpha+2))
    c1 = 1.0 / fam._norm
    base = c1 * alpha * (ell.lam * (alpha + 1) - ell.Lam * (dim - 1))
    C0 = 1.0
    while C0 * base < 1.0:
        C0 *= 2.0
    return RadialProfileFamily(alpha=alpha, rho=rho, C0=C0,
                               center_set=center_set)


def localization_check(fld: ScalarField, ell: Ellipticity,
                       rho: float) -> CheckReport:
    """Pull a positive minimum from B_{1/2} into the small ball B_rho.

    Builds the radial barrier, verifies its geometry on the lattice
    (above 1 on B_{1/2} for every admissible center, below 0 on the unit
    sphere) and checks ``min over B_rho of u <= M = sup(barrier)`` for a
    field with ``min over B_{1/2} <= 1``.  That ``u`` is a supersolution
    is not checked.
    """
    g = fld.grid
    n = g.dim
    fam = localization_barrier(ell, n, rho, Ball((0.0,) * n, rho / 2))
    M = fam.sup_value
    pts = g.points()
    # geometry on the lattice, for every admissible center
    centers = pts[fam.center_set.mask(g).reshape(-1)]
    if len(centers) == 0:
        centers = np.zeros((1, n))
    half = pts[ClosedBall((0.0,) * n, 0.5).mask(g).reshape(-1)]
    r = np.linalg.norm(pts, axis=-1)
    ring = pts[(r >= 1.0 - g.h / 2) & (r <= 1.0 + g.h / 2)]
    geo_ok = True
    for blk in _blocks(len(centers), len(half) + len(ring)):
        y0 = centers[blk, None]
        if len(half) and float(fam.evaluate(half, y0).min()) < 1.0 - 1e-9:
            geo_ok = False
        if len(ring) and float(fam.evaluate(ring, y0).max()) \
                > fam.curvature_scale() * g.h:
            geo_ok = False
    b_half = ClosedBall((0.0,) * n, 0.5)
    min_half = float(fld.values[b_half.mask(g)].min())
    b_rho = ClosedBall((0.0,) * n, rho)
    lhs = float(fld.values[b_rho.mask(g)].min())
    rhs = M
    rep = make_report(
        "localization", lhs, rhs, tol=4 * g.h * fam.curvature_scale(),
        constants={"alpha": fam.alpha, "C0": fam.C0, "M": M, "rho": rho,
                   "min_B_half": min_half},
        grid=g.meta(),
        notes="min over B_rho controlled by the barrier supremum")
    if not geo_ok:
        rep.passed = False
        rep.notes += "; barrier geometry failed on the lattice"
    if min_half > 1.0 + 1e-9:
        rep.passed = False
        rep.notes += "; hypothesis failed: min over B_1/2 above 1"
    return rep


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
        slopes = slopes[np.linalg.norm(slopes, axis=-1) < m / 2]
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
    # boundary ring: nodes of B_1 with a neighbor outside
    ring = inside & ~ndimage.binary_erosion(inside)
    osc = float(fld.values[inside].max() - fld.values[inside].min()) \
        if inside.any() else 0.0
    # the ring sits up to ~h inside the sphere; allow the matching dip
    ring_tol = 8 * g.h * max(1.0, osc)
    if ring.any() and float(fld.values[ring].min()) < -ring_tol:
        return make_report("abp", 1.0, 0.0,
                           notes="hypothesis failed: u negative on the ring")
    m = float(np.clip(-fld.values[inside & ~ring], 0, None).max()) \
        if (inside & ~ring).any() else 0.0
    grid_meta = g.meta()
    if m == 0.0:
        return make_report("abp", 0.0, 0.0, tol=1e-12, grid=grid_meta,
                           notes="no negative part; bound trivial")
    amask, n_slopes = _plane_contacts(fld, inside, m)
    P = pucci_minus(hessian(fld).values, ell)
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
    ring = inside & ~ndimage.binary_erosion(inside)
    nodes = inside & ~ring
    H = hessian(fld)
    icore = nodes[_interior(g.counts)]
    eigs = sym_eigvals(H.values[icore])
    convex_defect = float(np.clip(-eigs.min(axis=-1), 0, None).max()) \
        if icore.any() else 0.0
    pts = g.coords()
    dists = domain.boundary_distance(pts[nodes])
    if dists is None:
        # Euclidean distance to the nearest ring node
        dists = ndimage.distance_transform_edt(~ring, sampling=g.h)[nodes]
    lhs = float((np.abs(fld.values[nodes]) ** n
                 / np.maximum(dists, g.h)).max()) if nodes.any() else 0.0
    in_pts = pts[inside]
    diam = float(np.max(np.linalg.norm(
        in_pts - in_pts.mean(axis=0), axis=-1))) * 2.0
    dets = np.linalg.det(H.values[icore]) if icore.any() else np.zeros(1)
    total = float(np.clip(dets, 0, None).sum()) * g.cell_measure
    C_impl = n / ball_volume(n - 1) if n > 1 else 1.0
    rhs = C_impl * diam ** (n - 1) * total
    tol_factor = 8.0
    rep = make_report(
        "aleksandrov", lhs, rhs, tol=tol_factor * g.h * max(1.0, lhs),
        constants={"C_impl": C_impl, "diam": diam,
                   "convex_defect": convex_defect, "tol_factor": tol_factor},
        grid=g.meta(),
        notes="pointwise pinch vs Hessian determinant mass")
    if convex_defect > 16 * g.h:
        rep.passed = False
        rep.notes += "; hypothesis failed: field not convex on the domain"
    return rep


def hessian_contact_set(fld: ScalarField, opening: float,
                        center_set: Region) -> tuple[ContactSet, CheckReport]:
    """Contact set against concave paraboloids of fixed opening, searched
    over the whole grid.

    At interior touching nodes the discrete Hessian is bounded below by
    ``-opening`` (up to lattice slack), which is reported as a check.
    """
    fam = ParaboloidFamily(opening=opening, center_set=center_set)
    cs = contact_set(fld, fam, tol=tangency_tolerance(fam, fld.grid.h))
    csi = cs.interior()
    H = hessian(fld)
    eigs = sym_eigvals(H.values[tuple((csi.indices - 1).T)])[:, 0]
    worst = float((-eigs).max()) if len(eigs) else 0.0
    rep = make_report(
        "hessian-contact", worst,
        opening + 8 * opening * fld.grid.h,
        constants={"opening": opening, "n_contacts": len(csi)},
        grid=fld.grid.meta(),
        notes="smallest Hessian eigenvalue at contact nodes vs opening")
    return cs, rep
