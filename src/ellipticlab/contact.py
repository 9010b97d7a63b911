"""Contact sets, envelopes and measure estimates.

The central object is the contact set of a field against a family of
test functions (paraboloids or a radial barrier profile): for each
center the test function is slid from below until it touches the graph
of the field, and the touching nodes are recorded together with the
discrete gradient there.  The transport map built from the tangency
relation drives the area-formula bounds (measure estimate, ABP).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .grid import (Grid, ScalarField, Region, Ball, ClosedBall, NodeSet,
                   ball_volume, _lp)
from .operators import Ellipticity, gradient, hessian, pucci_minus, sym_eigvals
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


# ---------------------------------------------------------------------------
# inf / sup convolutions (exact separable envelope)


def _envelope_pass(f: NDArray, x: NDArray, inv2eps: float) -> NDArray:
    """1-d lower parabola envelope: g[p] = min_q f[q] + (x[p]-x[q])^2 * a.

    Exact (same arithmetic as the brute-force formula at the winning
    index), linear time per line.
    """
    n = len(f)
    v = np.empty(n, dtype=int)      # indices of parabolas in the envelope
    z = np.empty(n + 1)             # boundaries between parabolas
    v[0] = 0
    z[0], z[1] = -np.inf, np.inf
    k = 0
    for q in range(1, n):
        fq = f[q] + inv2eps * x[q] * x[q]
        while True:
            p = v[k]
            s = (fq - (f[p] + inv2eps * x[p] * x[p])) \
                / (2 * inv2eps * (x[q] - x[p]))
            if k > 0 and s <= z[k]:
                k -= 1
            else:
                break
        k += 1
        v[k] = q
        z[k] = s
        z[k + 1] = np.inf
    out = np.empty(n)
    k = 0
    for p in range(n):
        while z[k + 1] < x[p]:
            k += 1
        q = v[k]
        d = x[p] - x[q]
        out[p] = f[q] + d * d * inv2eps
    return out


def inf_convolution(fld: ScalarField, eps: float) -> ScalarField:
    """``u_eps(y) = min_x u(x) + |x - y|^2 / (2 eps)`` over grid nodes.

    Computed axis by axis with an exact lower-envelope sweep, so the
    result matches the brute-force double loop bit for bit.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    g = fld.grid
    inv2eps = 1.0 / (2.0 * eps)
    vals = fld.values.copy()
    for ax in range(g.dim):
        x = g.axes()[ax]
        moved = np.moveaxis(vals, ax, -1)
        flat = moved.reshape(-1, moved.shape[-1])
        for row in range(flat.shape[0]):
            flat[row] = _envelope_pass(flat[row], x, inv2eps)
        vals = np.moveaxis(flat.reshape(moved.shape), -1, ax)
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
    """Concave paraboloids ``phi(x) = -(M/2)|x - y0|^2 + offset``.

    ``sign='convex'`` flips the sign of the quadratic term (used to probe
    the Hessian from above).
    """

    opening: float
    center_set: Region
    offset: float = 0.0
    sign: str = "concave"

    def __post_init__(self):
        if self.opening <= 0:
            raise ValueError("opening must be positive")
        if self.sign not in ("concave", "convex"):
            raise ValueError("sign must be 'concave' or 'convex'")

    def evaluate(self, pts: NDArray, y0: NDArray) -> NDArray:
        q = 0.5 * self.opening * np.sum((pts - y0) ** 2, axis=-1)
        return (self.offset - q) if self.sign == "concave" else (self.offset + q)

    def hessian_at(self, z: NDArray) -> NDArray:
        d = len(z)
        s = -self.opening if self.sign == "concave" else self.opening
        return s * np.eye(d)

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
        r = np.linalg.norm(pts - y0, axis=-1)
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
        for idx in self.indices:
            m[tuple(idx)] = True
        return m

    def region(self) -> NodeSet:
        return NodeSet(self.grid, self.node_mask())

    def measure(self) -> float:
        return float(self.node_mask().sum()) * self.grid.cell_measure

    def __len__(self):
        return len(self.offsets)

    def to_dict(self) -> dict:
        return {
            "grid": self.grid.meta(),
            "tol": self.tol,
            "entries": [
                {"center": c.tolist(), "point": p.tolist(),
                 "offset": float(o), "grad": g.tolist(),
                 "on_hull": bool(b)}
                for c, p, o, g, b in zip(self.centers, self.points,
                                         self.offsets, self.grads,
                                         self.on_hull)],
        }


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
    coords = g.coords()
    pts = coords.reshape(-1, g.dim)
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
    scale = max(1.0, float(np.max(np.abs(fld.values))))
    if tol is None:
        tol = 1e-12 * scale

    grad = gradient(fld)
    uflat = fld.values.reshape(-1)
    sub_pts = pts[smask]
    sub_u = uflat[smask]
    sub_lin = np.flatnonzero(smask)

    cen_l, pt_l, idx_l, off_l, grd_l, hull_l = [], [], [], [], [], []
    counts = np.asarray(g.counts)
    for y0 in centers:
        gvals = sub_u - family.evaluate(sub_pts, y0)
        mval = gvals.min()
        hits = np.flatnonzero(gvals - mval <= tol)
        for hit in hits:
            lin = sub_lin[hit]
            idx = np.unravel_index(lin, g.counts)
            on_hull = bool(np.any(np.asarray(idx) == 0)
                           or np.any(np.asarray(idx) == counts - 1))
            cen_l.append(y0)
            pt_l.append(sub_pts[hit])
            idx_l.append(idx)
            off_l.append(mval)
            if on_hull:
                grd_l.append(np.full(g.dim, np.nan))
            else:
                grd_l.append(grad.values[tuple(np.asarray(idx) - 1)])
            hull_l.append(on_hull)

    return ContactSet(
        grid=g, family=family,
        centers=np.asarray(cen_l).reshape(-1, g.dim),
        points=np.asarray(pt_l).reshape(-1, g.dim),
        indices=np.asarray(idx_l, dtype=int).reshape(-1, g.dim),
        offsets=np.asarray(off_l, dtype=float),
        grads=np.asarray(grd_l).reshape(-1, g.dim),
        on_hull=np.asarray(hull_l, dtype=bool),
        tol=float(tol),
    )


# ---------------------------------------------------------------------------
# transport map and area formula


@dataclass
class TransportRecord:
    """Transport targets and Jacobians along a contact set.

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
    ``T(x0) = x0 + Du(x0)/M`` and ``DT = I + D^2u(x0)/M``; for the radial
    profile the analytic gradient of the barrier is inverted.
    Determinants are clamped at zero (a contact point cannot dip below
    the test function's curvature beyond lattice error).
    """
    fam = contact.family
    H = hessian(fld)
    d = contact.grid.dim
    keep = ~contact.on_hull
    targets = np.full_like(contact.points, np.nan)
    jacs = np.zeros(len(contact.offsets))
    clamp = 0.0
    eye = np.eye(d)
    for k in range(len(contact.offsets)):
        if contact.on_hull[k]:
            continue
        x0 = contact.points[k]
        du = contact.grads[k]
        hidx = tuple(contact.indices[k] - 1)
        D2u = H.values[hidx]
        if isinstance(fam, ParaboloidFamily):
            M = fam.opening
            if fam.sign == "concave":
                targets[k] = x0 + du / M
                DT = eye + D2u / M
            else:
                targets[k] = x0 - du / M
                DT = eye - D2u / M
        elif isinstance(fam, RadialProfileFamily):
            z = fam.invert_gradient(du)
            targets[k] = x0 - z
            Phi = fam.hessian_at(z)
            DT = eye - np.linalg.solve(Phi, D2u) if np.linalg.det(Phi) != 0 \
                else np.full((d, d), np.nan)
        else:
            raise TypeError(f"unsupported family {type(fam).__name__}")
        det = float(np.linalg.det(DT))
        if det < 0:
            clamp = max(clamp, -det)
            det = 0.0
        jacs[k] = det
    return TransportRecord(contact=contact, targets=targets,
                           jacobians=jacs, clamp=clamp)


def area_formula_check(transport: TransportRecord, center_set: Region,
                       slack: float = 0.0) -> CheckReport:
    """``|centers| <= sum over contact nodes of det(DT) h^n (1 + slack)``.

    Every contact node contributes once (the Jacobian depends on the node
    only); hull contacts are excluded and reported.
    """
    contact = transport.contact
    g = contact.grid
    lhs = center_set.measure(g)
    seen: dict[tuple, float] = {}
    for k in range(len(contact.offsets)):
        if contact.on_hull[k]:
            continue
        key = tuple(contact.indices[k])
        seen[key] = max(seen.get(key, 0.0), transport.jacobians[k])
    rhs = sum(seen.values()) * g.cell_measure * (1.0 + slack)
    n_hull = int(contact.on_hull.sum())
    return make_report("area-formula", lhs, rhs,
                       constants={"slack": slack, "clamp": transport.clamp,
                                  "hull_contacts": n_hull},
                       grid=g.meta(),
                       notes="center-set measure vs transported Jacobian mass")


# ---------------------------------------------------------------------------
# measure estimate, localization, ABP


def measure_estimate_check(fld: ScalarField, ell: Ellipticity,
                           delta: float = 0.0,
                           tol: float | None = None) -> CheckReport:
    """Touch a nonnegative supersolution with unit paraboloids.

    Hypotheses: ``u >= 0`` on B_1, ``min over B_{1/4}-ish interior <= 1/4``
    scale, small forcing ``delta``.  Concave unit paraboloids centered in
    B_{1/4} with vertical offset ``(3/4)^2/2`` touch inside ``{u <= 1}``;
    the area formula then bounds ``|B_{1/4}|`` by the contact-set mass,
    which forces ``{u <= 1}`` to occupy a definite fraction of B_1.
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
    if tol is None:
        tol = tangency_tolerance(fam, g.h)
    cs = contact_set(fld, fam, tol=tol, search_region=b1)
    csi = cs.interior()
    # contacts must land in {u <= 1}: u(x0) = phi(x0) + min <= sup phi + min
    u_at = np.array([fld.values[tuple(i)] for i in csi.indices]) \
        if len(csi) else np.array([])
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
    sub = ScalarField(g, fld.values, mask=fld.mask)
    from .grid import SubLevel
    good = (SubLevel(sub, 1.0 + 4 * g.h).mask(g) & b1.mask(g))
    lhs = eta
    rhs = float(good.sum()) * g.cell_measure
    return make_report(
        "measure-estimate", lhs, rhs,
        constants={"eta": eta, "C_meas": C_meas, "delta": delta,
                   "theta": theta, "worst_contact_value": worst_u,
                   "contact_measure": A},
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


def localization_check(fld: ScalarField, ell: Ellipticity, rho: float,
                       delta: float = 0.0) -> CheckReport:
    """Pull a positive minimum from B_{1/2} into the small ball B_rho.

    Builds the radial barrier, verifies its geometry on the lattice
    (above 1 on B_{1/2} for every admissible center, below 0 on the unit
    sphere) and checks ``min over B_rho of u <= M = sup(barrier)`` for a
    supersolution with ``min over B_{1/2} <= 1``.
    """
    g = fld.grid
    n = g.dim
    fam = localization_barrier(ell, n, rho, Ball((0.0,) * n, rho / 2))
    M = fam.sup_value
    pts = g.coords()
    # geometry on the lattice, sampled over the admissible centers
    centers = pts[fam.center_set.mask(g)]
    if len(centers) == 0:
        centers = np.zeros((1, n))
    half = ClosedBall((0.0,) * n, 0.5).mask(g)
    ring = (np.linalg.norm(pts, axis=-1) >= 1.0 - g.h / 2) \
        & (np.linalg.norm(pts, axis=-1) <= 1.0 + g.h / 2)
    geo_ok = True
    for y0 in centers[:: max(1, len(centers) // 8)]:
        phi = fam.evaluate(pts, y0)
        if half.any() and float(phi[half].min()) < 1.0 - 1e-9:
            geo_ok = False
        if ring.any() and float(phi[ring].max()) > 0.0 + fam.curvature_scale() * g.h:
            geo_ok = False
    b_half = ClosedBall((0.0,) * n, 0.5)
    min_half = float(fld.values[b_half.mask(g)].min())
    b_rho = ClosedBall((0.0,) * n, rho)
    lhs = float(fld.values[b_rho.mask(g)].min())
    rhs = M
    rep = make_report(
        "localization", lhs, rhs, tol=4 * g.h * fam.curvature_scale(),
        constants={"alpha": fam.alpha, "C0": fam.C0, "M": M, "rho": rho,
                   "delta": delta, "min_B_half": min_half},
        grid=g.meta(),
        notes="min over B_rho controlled by the barrier supremum")
    if not geo_ok:
        rep.passed = False
        rep.notes += "; barrier geometry failed on the lattice"
    if min_half > 1.0 + 1e-9:
        rep.passed = False
        rep.notes += "; hypothesis failed: min over B_1/2 above 1"
    return rep


def abp_bound(fld: ScalarField, ell: Ellipticity,
              tol_factor: float = 8.0) -> CheckReport:
    """Maximum principle from the contact mass of sliding planes.

    For ``u >= 0`` on the boundary ring of B_1, every slope in
    ``B_{m/2}`` (m = max of the negative part) is attained by a touching
    plane; the contact nodes have nonnegative definite Hessian, so the
    area formula gives ``m <= C * ||(P^-(D^2u))_+||_{L^n(A)}`` with
    ``C = 2 / (n lam |B_1|^{1/n})``.
    """
    g = fld.grid
    n = g.dim
    b1 = ClosedBall((0.0,) * n, 1.0)
    inside = b1.mask(g)
    # boundary ring: nodes of B_1 with a neighbor outside
    from scipy import ndimage as ndi
    ring = inside & ~ndi.binary_erosion(inside)
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
    # slope lattice over B_{m/2}
    n_per_axis = max(g.counts)
    s = m / (2 * n_per_axis)
    k = int(math.floor(0.5 * m / s))
    ax = np.arange(-k, k + 1) * s
    mesh = np.meshgrid(*([ax] * n), indexing="ij")
    slopes = np.stack(mesh, axis=-1).reshape(-1, n)
    slopes = slopes[np.linalg.norm(slopes, axis=-1) < m / 2]

    pts = g.coords().reshape(-1, n)
    sel = inside.reshape(-1)
    sub_pts = pts[sel]
    sub_u = fld.values.reshape(-1)[sel]
    sub_lin = np.flatnonzero(sel)
    contact_lin = set()
    for p in slopes:
        gvals = sub_u - sub_pts @ p
        contact_lin.add(int(sub_lin[int(np.argmin(gvals))]))
    amask = np.zeros(g.n_nodes, dtype=bool)
    amask[list(contact_lin)] = True
    amask = amask.reshape(g.counts)

    P = pucci_minus(hessian(fld).values, ell)
    core = tuple(slice(1, c - 1) for c in g.counts)
    a_core = amask[core]
    pvals = np.clip(P[a_core], 0, None)
    norm_n = _lp(pvals, n, g.cell_measure)
    C_impl = 2.0 / (n * ell.lam * ball_volume(n) ** (1.0 / n))
    rhs = C_impl * norm_n
    tol = tol_factor * g.h * max(1.0, m)
    return make_report(
        "abp", m, rhs, tol=tol,
        constants={"C_impl": C_impl, "contact_nodes": int(amask.sum()),
                   "n_slopes": len(slopes)},
        grid=grid_meta,
        notes="max u_- vs L^n norm of (P^-)_+ on the plane-contact set")


def aleksandrov_check(fld: ScalarField, domain: Region,
                      tol_factor: float = 8.0) -> CheckReport:
    """Pointwise pinch for convex functions vanishing on the boundary.

    ``sup |u(x)|^n / dist(x, boundary) <= C diam^{n-1} * integral of
    det(D^2 u)`` with ``C = n / |B_1^{n-1}|`` from the slope-cone volume.
    """
    g = fld.grid
    n = g.dim
    inside = domain.mask(g)
    from scipy import ndimage as ndi
    ring = inside & ~ndi.binary_erosion(inside)
    H = hessian(fld)
    core = tuple(slice(1, c - 1) for c in g.counts)
    icore = inside[core] & ~ring[core]
    eigs = sym_eigvals(H.values[icore])
    convex_defect = float(np.clip(-eigs.min(axis=-1), 0, None).max()) \
        if icore.any() else 0.0
    pts = g.coords()
    dists = np.zeros(g.counts)
    it = np.argwhere(inside & ~ring)
    for idx in it:
        d = domain.boundary_distance(pts[tuple(idx)])
        if d is None:
            ring_pts = pts[ring]
            d = float(np.min(np.linalg.norm(ring_pts - pts[tuple(idx)],
                                            axis=-1)))
        dists[tuple(idx)] = max(d, g.h)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(dists > 0,
                         np.abs(fld.values) ** n / np.where(dists > 0, dists, 1),
                         0.0)
    lhs = float(ratio[inside & ~ring].max()) if (inside & ~ring).any() else 0.0
    in_pts = pts[inside]
    diam = float(np.max(np.linalg.norm(
        in_pts - in_pts.mean(axis=0), axis=-1))) * 2.0
    dets = np.linalg.det(H.values[icore]) if icore.any() else np.zeros(1)
    total = float(np.clip(dets, 0, None).sum()) * g.cell_measure
    C_impl = n / ball_volume(n - 1) if n > 1 else 1.0
    rhs = C_impl * diam ** (n - 1) * total
    tol = tol_factor * g.h * max(1.0, lhs)
    rep = make_report(
        "aleksandrov", lhs, rhs, tol=tol,
        constants={"C_impl": C_impl, "diam": diam,
                   "convex_defect": convex_defect},
        grid=g.meta(),
        notes="pointwise pinch vs Hessian determinant mass")
    if convex_defect > 16 * g.h:
        rep.passed = False
        rep.notes += "; hypothesis failed: field not convex on the domain"
    return rep


def hessian_contact_set(fld: ScalarField, opening: float,
                        center_set: Region,
                        search_region: Region | None = None) -> tuple[ContactSet, CheckReport]:
    """Contact set against concave paraboloids of fixed opening.

    At interior touching nodes the discrete Hessian is bounded below by
    ``-opening`` (up to lattice slack), which is reported as a check.
    """
    fam = ParaboloidFamily(opening=opening, center_set=center_set)
    cs = contact_set(fld, fam, tol=tangency_tolerance(fam, fld.grid.h),
                     search_region=search_region)
    csi = cs.interior()
    H = hessian(fld)
    if len(csi):
        eigs = np.array([sym_eigvals(H.values[tuple(i - 1)])[0]
                         for i in csi.indices])
        worst = float((-eigs).max())
    else:
        worst = 0.0
    rep = make_report(
        "hessian-contact", worst,
        opening + 8 * opening * fld.grid.h,
        constants={"opening": opening, "n_contacts": len(csi)},
        grid=fld.grid.meta(),
        notes="smallest Hessian eigenvalue at contact nodes vs opening")
    return cs, rep
