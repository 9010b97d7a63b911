import itertools
import math

import numpy as np
import pytest
from scipy import ndimage

import ellipticlab as el
from ellipticlab.contact import _plane_contacts


ELL = el.Ellipticity(1.0, 2.0)


# ---------------------------------------------------------------------------
# oracles: the per-center, per-node and per-slope loops that the whole-array
# kernels of ``ellipticlab.contact`` replace


def envelope_pass(f, x, inv2eps):
    """1-d lower parabola envelope ``g[p] = min_q f[q] + (x[p]-x[q])^2 a``
    by the linear-time sweep over the parabolas of the lower envelope."""
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


def sweep_inf_convolution(fld, eps):
    g = fld.grid
    inv2eps = 1.0 / (2.0 * eps)
    vals = fld.values.copy()
    for ax in range(g.dim):
        x = g.axes()[ax]
        moved = np.moveaxis(vals, ax, -1)
        flat = moved.reshape(-1, moved.shape[-1])
        for row in range(flat.shape[0]):
            flat[row] = envelope_pass(flat[row], x, inv2eps)
        vals = np.moveaxis(flat.reshape(moved.shape), -1, ax)
    return vals


def loop_contact_set(fld, family, tol=None, search_region=None):
    """One center at a time, then one hit at a time."""
    g = fld.grid
    pts = g.coords().reshape(-1, g.dim)
    smask = (np.ones(g.n_nodes, dtype=bool) if search_region is None
             else search_region.mask(g).reshape(-1))
    if fld.mask is not None:
        smask = smask & fld.mask.reshape(-1)
    centers = pts[family.center_set.mask(g).reshape(-1)]
    if tol is None:
        tol = 1e-12 * max(1.0, float(np.max(np.abs(fld.values))))
    grad = el.gradient(fld)
    sub_pts = pts[smask]
    sub_u = fld.values.reshape(-1)[smask]
    sub_lin = np.flatnonzero(smask)
    cen_l, pt_l, idx_l, off_l, grd_l, hull_l = [], [], [], [], [], []
    counts = np.asarray(g.counts)
    for y0 in centers:
        gvals = sub_u - family.evaluate(sub_pts, y0)
        mval = gvals.min()
        for hit in np.flatnonzero(gvals - mval <= tol):
            idx = np.unravel_index(sub_lin[hit], g.counts)
            on_hull = bool(np.any(np.asarray(idx) == 0)
                           or np.any(np.asarray(idx) == counts - 1))
            cen_l.append(y0)
            pt_l.append(sub_pts[hit])
            idx_l.append(idx)
            off_l.append(mval)
            grd_l.append(np.full(g.dim, np.nan) if on_hull
                         else grad.values[tuple(np.asarray(idx) - 1)])
            hull_l.append(on_hull)
    return dict(centers=np.asarray(cen_l).reshape(-1, g.dim),
                points=np.asarray(pt_l).reshape(-1, g.dim),
                indices=np.asarray(idx_l, dtype=int).reshape(-1, g.dim),
                offsets=np.asarray(off_l, dtype=float),
                grads=np.asarray(grd_l).reshape(-1, g.dim),
                on_hull=np.asarray(hull_l, dtype=bool))


def loop_transport(contact, fld):
    """One contact node at a time; returns (targets, jacobians, clamp)."""
    fam = contact.family
    H = el.hessian(fld)
    d = contact.grid.dim
    targets = np.full_like(contact.points, np.nan)
    jacs = np.zeros(len(contact.offsets))
    clamp = 0.0
    eye = np.eye(d)
    for k in range(len(contact.offsets)):
        if contact.on_hull[k]:
            continue
        x0 = contact.points[k]
        du = contact.grads[k]
        D2u = H.values[tuple(contact.indices[k] - 1)]
        if isinstance(fam, el.ParaboloidFamily):
            M = fam.opening
            targets[k] = x0 + du / M
            DT = eye + D2u / M
        else:
            z = fam.invert_gradient(du)
            targets[k] = x0 - z
            Phi = fam.hessian_at(z)
            DT = eye - np.linalg.solve(Phi, D2u) if np.linalg.det(Phi) != 0 \
                else np.full((d, d), np.nan)
        det = float(np.linalg.det(DT))
        if det < 0:
            clamp = max(clamp, -det)
            det = 0.0
        jacs[k] = det
    return targets, jacs, clamp


def dict_area_rhs(transport, slack=0.0):
    """Largest Jacobian per contact node, summed in a dict."""
    contact = transport.contact
    seen = {}
    for k in range(len(contact.offsets)):
        if contact.on_hull[k]:
            continue
        key = tuple(contact.indices[k])
        seen[key] = max(seen.get(key, 0.0), transport.jacobians[k])
    return sum(seen.values()) * contact.grid.cell_measure * (1.0 + slack)


def abp_inputs(fld):
    """The closed unit ball and the depth ``m`` of the field below it, as
    :func:`el.abp_bound` takes them."""
    g = fld.grid
    inside = el.ClosedBall((0.0,) * g.dim, 1.0).mask(g)
    ring = inside & ~ndimage.binary_erosion(inside)
    m = float(np.clip(-fld.values[inside & ~ring], 0, None).max())
    return inside, m


def loop_plane_contacts(fld, inside, m):
    """One ``argmin`` over the ball for each slope of the lattice."""
    g = fld.grid
    n = g.dim
    s = m / (2 * max(g.counts))
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
        contact_lin.add(int(sub_lin[int(np.argmin(sub_u - sub_pts @ p))]))
    amask = np.zeros(g.n_nodes, dtype=bool)
    amask[list(contact_lin)] = True
    return amask.reshape(g.counts), len(slopes)


def loop_aleksandrov_lhs(fld, domain):
    """``max |u|^n / dist`` with the distance to the ring found node by
    node when the domain has no analytic boundary distance."""
    g = fld.grid
    inside = domain.mask(g)
    ring = inside & ~ndimage.binary_erosion(inside)
    pts = g.coords()
    best = 0.0
    for idx in np.argwhere(inside & ~ring):
        x = pts[tuple(idx)]
        d = domain.boundary_distance(x)
        if d is None:
            d = float(np.min(np.linalg.norm(pts[ring] - x, axis=-1)))
        best = max(best, abs(fld.values[tuple(idx)]) ** g.dim / max(d, g.h))
    return best


def brute_inf_convolution(fld, eps):
    """Double loop reference with the same per-axis addition order as the
    separable sweep, so results can be compared exactly."""
    g = fld.grid
    pts = g.coords().reshape(-1, g.dim)
    u = fld.values.reshape(-1)
    inv2eps = 1.0 / (2.0 * eps)
    out = np.empty_like(u)
    for j, y in enumerate(pts):
        cand = u.copy()
        for ax in range(g.dim):
            cand = cand + (pts[:, ax] - y[ax]) ** 2 * inv2eps
        out[j] = cand.min()
    return out.reshape(fld.values.shape)


def cosine_field(g, seed):
    """Three random cosines (semiconvex with constant below 8)."""
    rng = np.random.default_rng(seed)
    pts = g.coords()
    vals = np.zeros(g.counts)
    for _ in range(3):
        kvec = rng.uniform(-2, 2, g.dim)
        vals += rng.uniform(-0.3, 0.3) * np.cos(pts @ kvec
                                                 + rng.uniform(0, 2 * np.pi))
    return vals


def convex_family(count):
    """The first fields of the acceptance tests' randomized convex family."""
    rng = np.random.default_rng(2024)
    g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 32)
    pts = g.coords()
    ring = np.abs(np.linalg.norm(pts, axis=-1) - 1.0) <= g.h
    for _ in range(count):
        ev = rng.uniform(0.3, 2.0, 2)
        th = rng.uniform(0, np.pi)
        Q = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        A = Q @ np.diag(ev) @ Q.T
        b = rng.uniform(-0.1, 0.1, 2)
        q = 0.5 * np.einsum("...i,ij,...j->...", pts, A, pts) + pts @ b
        yield el.ScalarField(g, q - 0.8 * q[ring].min())


def bowl(dim, h, amp=1.0, floor=-np.inf, wiggle=None):
    """``max(amp (|x|^2 - 1), floor)``, plus ``0.2 (u - min u)`` for the
    cosine field ``u`` of seed ``wiggle`` (which makes it non-convex)."""
    g = el.Grid.cover((0.0,) * dim, 1.0, h)
    vals = np.maximum(amp * (np.sum(g.coords() ** 2, axis=-1) - 1.0), floor)
    if wiggle is not None:
        u = cosine_field(g, wiggle)
        vals = vals + 0.2 * (u - u.min())
    return el.ScalarField(g, vals)


def assert_same_contacts(cs, ref):
    for name, want in ref.items():
        got = getattr(cs, name)
        assert got.dtype.kind == want.dtype.kind, name
        # NaN grads (hull nodes) compare as equal
        np.testing.assert_array_equal(got, want, err_msg=name)


class TestInfConvolution:
    def test_exact_vs_brute_force(self):
        g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 12)
        rng = np.random.default_rng(0)
        f = el.ScalarField(g, rng.normal(size=g.counts))
        for eps in (0.05, 0.3, 2.0):
            got = el.inf_convolution(f, eps).values
            ref = brute_inf_convolution(f, eps)
            assert np.array_equal(got, ref)

    def test_matches_envelope_sweep(self):
        rng = np.random.default_rng(8)
        for g in (el.Grid.cover((0.0,), 1.0, 1 / 40),
                  el.Grid.cover((0.0, 0.0), 1.0, 1 / 12),
                  el.Grid(3, 1 / 4, (0.0, -1.0, 0.5), (9, 7, 5))):
            f = el.ScalarField(g, rng.normal(size=g.counts))
            for eps in (0.05, 0.3, 2.0):
                assert np.array_equal(el.inf_convolution(f, eps).values,
                                      sweep_inf_convolution(f, eps))

    def test_below_and_monotone(self):
        g = el.Grid.cover((0.0,), 1.0, 1 / 64)
        rng = np.random.default_rng(1)
        f = el.ScalarField(g, rng.normal(size=g.counts))
        a = el.inf_convolution(f, 0.1).values
        b = el.inf_convolution(f, 0.5).values
        assert np.all(a <= f.values + 1e-15)
        assert np.all(b <= a + 1e-15)

    def test_smooth_field_nearly_fixed(self):
        # for C^2 data the inf-convolution differs by O(eps)
        g = el.Grid.cover((0.0,), 1.0, 1 / 128)
        f = el.ScalarField.from_function(g, lambda p: np.sin(p[..., 0]))
        out = el.inf_convolution(f, 1e-3).values
        assert np.max(np.abs(out - f.values)) < 5e-3

    def test_sup_is_negated_inf(self):
        g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 16)
        rng = np.random.default_rng(2)
        f = el.ScalarField(g, rng.normal(size=g.counts))
        s = el.sup_convolution(f, 0.2).values
        i = el.inf_convolution(el.ScalarField(g, -f.values), 0.2).values
        np.testing.assert_array_equal(s, -i)

    def test_envelope_between(self):
        g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 16)
        rng = np.random.default_rng(3)
        f = el.ScalarField(g, rng.normal(size=g.counts))
        env = el.paraboloid_envelope(f, 0.2).values
        low = el.inf_convolution(f, 0.2).values
        assert np.all(env >= low - 1e-12)
        assert np.all(env <= f.values + 1e-12)

    def test_eps_validation(self):
        g = el.Grid.cover((0.0,), 1.0, 1 / 8)
        f = el.ScalarField(g, np.zeros(g.counts))
        with pytest.raises(ValueError):
            el.inf_convolution(f, 0.0)


class TestContactSet:
    def test_zero_field_contact_is_center_ball(self):
        # concave paraboloids under u == 0 touch exactly at their vertices
        g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 16)
        f = el.ScalarField(g, np.zeros(g.counts))
        ball = el.Ball((0.0, 0.0), 0.25)
        fam = el.ParaboloidFamily(opening=1.0, center_set=ball)
        cs = el.contact_set(f, fam)
        np.testing.assert_array_equal(cs.node_mask(), ball.mask(g))

    def test_gradient_matches_family(self):
        # u a known smooth convex bowl: touching paraboloid gradients line up
        g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 64)
        f = el.ScalarField.from_function(
            g, lambda p: np.sum(p ** 2, axis=-1))
        fam = el.ParaboloidFamily(opening=1.0,
                                  center_set=el.Ball((0.0, 0.0), 0.2))
        cs = el.contact_set(f, fam,
                            tol=el.tangency_tolerance(fam, g.h)).interior()
        assert len(cs) > 0
        # at contact: grad u(x) = -M (x - y0)  =>  x = y0 / (1 + ... )
        for k in range(len(cs)):
            want = -fam.opening * (cs.points[k] - cs.centers[k])
            assert np.allclose(cs.grads[k], want, atol=8 * g.h)

    def test_hull_flagging(self):
        g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 8)
        # steeply decreasing towards a corner: contact lands on the hull
        f = el.ScalarField.from_function(
            g, lambda p: -3.0 * (p[..., 0] + p[..., 1]))
        fam = el.ParaboloidFamily(opening=1.0,
                                  center_set=el.Ball((0.0, 0.0), 1e-9))
        cs = el.contact_set(f, fam)
        assert cs.on_hull.all()
        assert len(cs.interior()) == 0
        assert np.all(np.isnan(cs.grads))

    def test_matches_loop(self):
        g1 = el.Grid.cover((0.0,), 1.0, 1 / 32)
        g2 = el.Grid.cover((0.0, 0.0), 1.0, 1 / 32)
        g3 = el.Grid.cover((0.0, 0.0, 0.0), 1.0, 1 / 8)
        u2 = cosine_field(g2, 9)
        masked = el.ScalarField(g2, u2, mask=~el.Ball((0.3, 0.2), 0.2).mask(g2))
        radial = el.RadialProfileFamily(alpha=4.0, rho=0.25, C0=1.0,
                                        center_set=el.Ball((0.0, 0.0), 0.2))
        cases = [
            (el.ScalarField(g1, cosine_field(g1, 10)),
             el.ParaboloidFamily(4.0, el.Ball((0.0,), 0.3)), None),
            (el.ScalarField(g2, u2), el.ParaboloidFamily(8.0, el.Ball((0.0, 0.0), 0.25)), None),
            (masked, el.ParaboloidFamily(8.0, el.Ball((0.0, 0.0), 0.25)),
             el.Ball((0.0, 0.0), 0.9)),
            (el.ScalarField(g2, u2), radial, None),
            (el.ScalarField(g3, cosine_field(g3, 11)),
             el.ParaboloidFamily(4.0, el.Ball((0.0,) * 3, 0.3)), None),
        ]
        for fld, fam, region in cases:
            # the radial barrier's curvature slack would take every node
            slack = 1e-3 if fam is radial else el.tangency_tolerance(fam, fld.grid.h)
            for tol in (None, slack):
                cs = el.contact_set(fld, fam, tol=tol, search_region=region)
                ref = loop_contact_set(fld, fam, tol=tol, search_region=region)
                assert_same_contacts(cs, ref)
                want = np.zeros(fld.grid.counts, dtype=bool)
                for idx in ref["indices"]:
                    want[tuple(idx)] = True
                np.testing.assert_array_equal(cs.node_mask(), want)


class TestTransport:
    def test_quadratic_identity_jacobian(self):
        # u = |x|^2 / 2 touched by opening-1 concave paraboloids: the
        # transport x -> x + Du/M doubles distances, det DT = 2^n
        g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 32)
        f = el.ScalarField.from_function(
            g, lambda p: 0.5 * np.sum(p ** 2, axis=-1))
        fam = el.ParaboloidFamily(opening=1.0,
                                  center_set=el.Ball((0.0, 0.0), 0.3))
        cs = el.contact_set(f, fam,
                            tol=el.tangency_tolerance(fam, g.h)).interior()
        tr = el.transport_map(cs, f)
        assert np.allclose(tr.jacobians, 4.0, atol=0.2)
        rep = el.area_formula_check(tr, fam.center_set, slack=0.1)
        assert rep.passed

    def test_matches_loop(self):
        g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 32)
        u = cosine_field(g, 12)
        fams = [el.ParaboloidFamily(8.0, el.Ball((0.0, 0.0), 0.25)),
                el.RadialProfileFamily(alpha=4.0, rho=0.25, C0=1.0,
                                       center_set=el.Ball((0.0, 0.0), 0.2))]
        for fam, fld in itertools.product(
                fams, (el.ScalarField(g, u), el.ScalarField(g, 4 * u))):
            # the radial barrier's curvature slack would take every node
            tol = None if isinstance(fam, el.RadialProfileFamily) \
                else el.tangency_tolerance(fam, g.h)
            cs = el.contact_set(fld, fam, tol=tol)
            tr = el.transport_map(cs, fld)
            targets, jacs, clamp = loop_transport(cs, fld)
            np.testing.assert_array_equal(tr.targets, targets)
            np.testing.assert_array_equal(tr.jacobians, jacs)
            assert tr.clamp == clamp
            assert tr.undefined_jacobians == np.isnan(jacs).sum()
            rhs = el.area_formula_check(tr, fam.center_set, slack=0.1).rhs
            assert rhs == pytest.approx(dict_area_rhs(tr, 0.1), rel=1e-12)

    def test_radial_flat_cap_jacobians_counted(self):
        # on the flat cap of the barrier its Hessian is singular: the
        # Jacobian is undefined there and is counted, not dropped unseen
        g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 16)
        f = el.ScalarField(g, np.zeros(g.counts))
        fam = el.RadialProfileFamily(alpha=4.0, rho=0.25, C0=1.0,
                                     center_set=el.Ball((0.0, 0.0), 0.125))
        tr = el.transport_map(el.contact_set(f, fam), f)
        assert tr.undefined_jacobians == len(tr.jacobians) == 117
        rep = el.area_formula_check(tr, fam.center_set)
        assert rep.constants["undefined_jacobians"] == 117
        assert rep.rhs == 0.0

    def test_jacobians_nonnegative(self):
        g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 16)
        rng = np.random.default_rng(4)
        f = el.ScalarField(g, 0.1 * rng.normal(size=g.counts))
        fam = el.ParaboloidFamily(opening=4.0,
                                  center_set=el.Ball((0.0, 0.0), 0.2))
        cs = el.contact_set(f, fam,
                            tol=el.tangency_tolerance(fam, g.h)).interior()
        tr = el.transport_map(cs, f)
        assert np.all(tr.jacobians >= 0.0)


class TestMeasureEstimate:
    def test_flat_supersolution_passes(self):
        g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 32)
        f = el.ScalarField(g, np.zeros(g.counts))
        rep = el.measure_estimate_check(f)
        assert rep.passed

    def test_hypothesis_guard(self):
        g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 16)
        f = el.ScalarField(g, np.full(g.counts, 5.0))
        rep = el.measure_estimate_check(f)
        assert not rep.passed
        assert "hypothesis" in rep.notes


class TestBarrier:
    def test_profile_shape(self):
        fam = el.localization_barrier(ELL, 2, 0.25,
                                      el.Ball((0.0, 0.0), 1e-9))
        # vanishes at the outer shell radius, exceeds 1 on the inner shell
        y0 = np.zeros(2)
        outer = np.array([[1.0 - 0.125, 0.0]])
        inner = np.array([[0.5 + 0.125, 0.0]])
        assert fam.evaluate(outer, y0)[0] == pytest.approx(0.0, abs=1e-12)
        assert fam.evaluate(inner, y0)[0] >= fam.C0 - 1e-12

    def test_supersolution_in_annulus(self):
        fam = el.localization_barrier(ELL, 2, 0.25,
                                      el.Ball((0.0, 0.0), 1e-9))
        rng = np.random.default_rng(5)
        for _ in range(50):
            r = rng.uniform(0.2, 1.0)
            th = rng.uniform(0, 2 * np.pi)
            z = np.array([r * np.cos(th), r * np.sin(th)])
            H = fam.hessian_at(z)
            assert el.pucci_minus(H, ELL) >= 1.0 - 1e-9

    def test_gradient_inversion(self):
        fam = el.localization_barrier(ELL, 2, 0.25,
                                      el.Ball((0.0, 0.0), 1e-9))
        z = np.array([0.4, 0.3])
        back = fam.invert_gradient(fam.gradient_at(z))
        assert np.allclose(back, z, atol=1e-9)

    def test_rho_validation(self):
        with pytest.raises(ValueError):
            el.RadialProfileFamily(alpha=4.0, rho=0.5, C0=1.0,
                                   center_set=el.Ball((0.0, 0.0), 1e-9))

    def test_localization_check_smoke(self):
        g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 64)
        f = el.ScalarField.from_function(
            g, lambda p: 1.0 - np.sum(p ** 2, axis=-1))
        rep = el.localization_check(f, ELL, rho=0.25)
        assert rep.passed
        assert rep.constants["M"] > 1.0

    def test_localization_hypothesis_guard(self):
        g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 32)
        f = el.ScalarField(g, np.full(g.counts, 5.0))
        rep = el.localization_check(f, ELL, rho=0.25)
        assert not rep.passed


class TestABP:
    def test_quadratic_bowl(self):
        g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 64)
        f = el.ScalarField.from_function(
            g, lambda p: 0.5 * (np.sum(p ** 2, axis=-1) - 1.0))
        rep = el.abp_bound(f, ELL)
        assert rep.passed

    def test_scaling_with_forcing(self):
        # doubling the forcing doubles both sides: margins stay positive
        g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 64)
        for amp in (0.5, 1.0, 2.0):
            f = el.ScalarField.from_function(
                g, lambda p: amp * 0.5 * (np.sum(p ** 2, axis=-1) - 1.0))
            rep = el.abp_bound(f, ELL)
            assert rep.passed

    def test_aleksandrov(self):
        g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 64)
        f = el.ScalarField.from_function(
            g, lambda p: 0.5 * (np.sum(p ** 2, axis=-1) - 1.0))
        rep = el.aleksandrov_check(f, el.Ball((0.0, 0.0), 1.0))
        assert rep.passed


class TestSearchesMatchLoops:
    ABP_FIELDS = {
        "quadratic-bowl": lambda: bowl(2, 1 / 64, amp=0.5),
        "reference-bowl": lambda: bowl(2, 1 / 64),
        "convex-family": lambda: next(convex_family(1)),
        "non-convex-bowl": lambda: bowl(2, 1 / 32, wiggle=13),
        "3-d-bowl": lambda: bowl(3, 1 / 8),
        # slopes near 0 tie across the whole plateau: the first node wins
        "plateau": lambda: bowl(2, 1 / 32, floor=-0.5),
    }

    @pytest.mark.parametrize("name", sorted(ABP_FIELDS))
    def test_plane_contacts(self, name):
        fld = self.ABP_FIELDS[name]()
        inside, m = abp_inputs(fld)
        mask, n_slopes = _plane_contacts(fld, inside, m)
        ref, n_ref = loop_plane_contacts(fld, inside, m)
        assert n_slopes == n_ref
        np.testing.assert_array_equal(mask, ref)
        assert el.abp_bound(fld, ELL).constants["contact_nodes"] == ref.sum()

    def test_aleksandrov_lhs(self):
        cases = [(f, el.SubLevel(f, 0.0)) for f in convex_family(3)]
        b2, b3 = bowl(2, 1 / 32, amp=0.5), bowl(3, 1 / 8)
        cases += [(b2, el.Ball((0.0, 0.0), 1.0)),
                  (b2, el.ClosedBall((0.0, 0.0), 0.9)),
                  (b2, el.Cube((0.0, 0.0), 1.2)),
                  (b3, el.SubLevel(b3, 0.0))]
        for fld, domain in cases:
            lhs = el.aleksandrov_check(fld, domain).lhs
            assert lhs == pytest.approx(loop_aleksandrov_lhs(fld, domain),
                                        rel=1e-12)


class TestHessianContact:
    def test_semiconvex_lower_bound(self):
        g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 32)
        f = el.ScalarField.from_function(
            g, lambda p: np.cos(3 * p[..., 0]) * np.cos(3 * p[..., 1]))
        cs, rep = el.hessian_contact_set(
            f, opening=16.0, center_set=el.Ball((0.0, 0.0), 0.3))
        assert rep.passed
