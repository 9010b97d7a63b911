import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import ndimage

import ellipticlab as el
from ellipticlab.contact import _plane_contacts
from ellipticlab.grid import _blocks, _region_values
from test_benchmark_outputs import workloads


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
    sub_pts = pts[smask]
    sub_u = fld.values.reshape(-1)[smask]
    if tol is None:
        tol = 1e-12 * max(1.0, float(np.max(np.abs(sub_u))))
    sub_lin = np.flatnonzero(smask)
    cen_l, idx_l = [], []
    for y0 in centers:
        gvals = sub_u - family.evaluate(sub_pts, y0)
        mval = gvals.min()
        for hit in np.flatnonzero(gvals - mval <= tol):
            cen_l.append(y0)
            idx_l.append(np.unravel_index(sub_lin[hit], g.counts))
    return dict(centers=np.asarray(cen_l).reshape(-1, g.dim),
                indices=np.asarray(idx_l, dtype=int).reshape(-1, g.dim))


def brute_contact_set(fld, family, tol=None, search_region=None):
    """Every center against every searched node, the centers in blocks."""
    g = fld.grid
    pts = g.points()
    smask = _region_values(fld, search_region).reshape(-1)
    centers = pts[family.center_set.mask(g).reshape(-1)]
    sub_lin = np.flatnonzero(smask)
    sub_pts = pts[sub_lin]
    sub_u = fld.values.reshape(-1)[sub_lin]
    if tol is None:
        tol = 1e-12 * max(1.0, float(np.max(np.abs(sub_u))))
    rows, cols = [], []
    for blk in _blocks(len(centers), len(sub_lin)):
        gvals = sub_u - family.evaluate(sub_pts, centers[blk, None])
        mval = gvals.min(axis=1)
        # row-major: by center, then by node, the order of the entries
        r, c = np.nonzero(gvals - mval[:, None] <= tol)
        rows.append(r + blk.start)
        cols.append(c)
    lin = sub_lin[np.concatenate(cols)]
    return dict(centers=centers[np.concatenate(rows)],
                indices=np.stack(np.unravel_index(lin, g.counts), axis=-1))


def envelope_fields(seed):
    """The fields of envelope-fields input set ``seed``, with its family."""
    rng = workloads._rng(seed, 1)
    fam = el.ParaboloidFamily(8.0, el.Ball((0.0, 0.0), 0.25))
    for n, count in workloads.ENVELOPE_FIELDS:
        g = el.Grid.cover((0.0, 0.0), 1.0, 2.0 / (n - 1))
        for _ in range(count):
            u = workloads._cosine_field(rng, g.coords())
            yield el.ScalarField(g, u), fam


def loop_transport(contact, fld):
    """One contact node at a time, for a paraboloid family; returns
    (targets, jacobians, clamp)."""
    g = contact.grid
    M = contact.family.opening
    H = el.hessian(fld)
    grad = el.gradient(fld)
    targets = np.full((len(contact), g.dim), np.nan)
    jacs = np.zeros(len(contact))
    clamp = 0.0
    eye = np.eye(g.dim)
    counts = np.asarray(g.counts)
    for k in range(len(contact)):
        idx = contact.indices[k]
        if np.any(idx == 0) or np.any(idx == counts - 1):
            continue
        D2u = H[tuple(idx - 1)]
        targets[k] = g.coords()[tuple(idx)] + grad[tuple(idx - 1)] / M
        det = float(np.linalg.det(eye + D2u / M))
        if det < 0:
            clamp = max(clamp, -det)
            det = 0.0
        jacs[k] = det
    return targets, jacs, clamp


def dict_area_rhs(transport):
    """Largest Jacobian per contact node, summed in a dict."""
    contact = transport.contact
    seen = {}
    for k in range(len(contact)):
        if contact.on_hull[k]:
            continue
        key = tuple(contact.indices[k])
        seen[key] = max(seen.get(key, 0.0), transport.jacobians[k])
    return sum(seen.values()) * contact.grid.cell_measure


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
        points = g.coords()[tuple(cs.indices.T)]
        grads = el.gradient(f)[tuple((cs.indices - 1).T)]
        for k in range(len(cs)):
            want = -fam.opening * (points[k] - cs.centers[k])
            assert np.allclose(grads[k], want, atol=8 * g.h)

    def test_hull_flagging(self):
        g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 8)
        # steeply decreasing towards a corner: contact lands on the hull
        f = el.ScalarField.from_function(
            g, lambda p: -3.0 * (p[..., 0] + p[..., 1]))
        fam = el.ParaboloidFamily(opening=1.0,
                                  center_set=el.Ball((0.0, 0.0), 1e-9))
        cs = el.contact_set(f, fam)
        assert len(cs) > 0 and cs.on_hull.all()
        assert len(cs.interior()) == 0
        # no centered difference on the hull: the transport refuses it
        with pytest.raises(ValueError, match=r"pass contact\.interior\(\)"):
            el.transport_map(cs, f)

    def test_matches_loop(self):
        g1 = el.Grid.cover((0.0,), 1.0, 1 / 32)
        g2 = el.Grid.cover((0.0, 0.0), 1.0, 1 / 32)
        g3 = el.Grid.cover((0.0, 0.0, 0.0), 1.0, 1 / 8)
        u2 = cosine_field(g2, 9)
        u3 = cosine_field(g3, 11)
        masked = el.ScalarField(g2, u2, mask=~el.Ball((0.3, 0.2), 0.2).mask(g2))
        masked3 = el.ScalarField(
            g3, u3, mask=~el.Ball((0.3, 0.2, -0.1), 0.3).mask(g3))
        fam2 = el.ParaboloidFamily(8.0, el.Ball((0.0, 0.0), 0.25))
        cases = [
            (el.ScalarField(g1, cosine_field(g1, 10)),
             el.ParaboloidFamily(4.0, el.Ball((0.0,), 0.3)), None),
            (el.ScalarField(g2, u2), fam2, None),
            (masked, fam2, el.Ball((0.0, 0.0), 0.9)),
            (el.ScalarField(g3, u3),
             el.ParaboloidFamily(4.0, el.Ball((0.0,) * 3, 0.3)), None),
            (masked3, el.ParaboloidFamily(4.0, el.Ball((0.0,) * 3, 0.3)),
             el.Ball((0.0,) * 3, 0.9)),
            # ties and offsets: every node ties, a large offset, a plateau
            (el.ScalarField(g2, np.zeros(g2.counts)), fam2, None),
            (el.ScalarField(g2, 1e6 + u2), fam2, None),
            (el.ScalarField(g2, np.where(g2.coords()[..., 0] < 0, 0.0, u2)),
             fam2, None),
            # centers on every node, the outer layer included
            (el.ScalarField(g2, u2),
             el.ParaboloidFamily(8.0, el.Ball((0.0, 0.0), 2.0)), None),
        ]
        for fld, fam, region in cases:
            for tol in (None, el.tangency_tolerance(fam, fld.grid.h)):
                cs = el.contact_set(fld, fam, tol=tol, search_region=region)
                ref = loop_contact_set(fld, fam, tol=tol, search_region=region)
                assert_same_contacts(cs, ref)
                assert_same_contacts(cs, brute_contact_set(
                    fld, fam, tol=tol, search_region=region))
                want = np.zeros(fld.grid.counts, dtype=bool)
                for idx in ref["indices"]:
                    want[tuple(idx)] = True
                np.testing.assert_array_equal(cs.node_mask(), want)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_brute_force_on_envelope_fields(self, seed):
        for fld, fam in envelope_fields(seed):
            for tol in (None, el.tangency_tolerance(fam, fld.grid.h)):
                assert_same_contacts(el.contact_set(fld, fam, tol=tol),
                                     brute_contact_set(fld, fam, tol=tol))

    def test_exact_ties_survive_the_prune(self):
        # u is the family's member at y, so u - phi is 0.0 at every node
        # and tol = 0 records them all; off dyadic spacings the axis
        # passes round the same terms differently, and only the rounding
        # slack keeps every slab
        for dim, h, opening in ((2, 0.1, 3.7), (2, 1 / 12, 8.0),
                                (3, 0.15, 1.3)):
            g = el.Grid.cover((0.0,) * dim, 1.0, h)
            for y in (np.zeros(dim), g.points()[g.n_nodes // 3]):
                fam = el.ParaboloidFamily(opening,
                                          el.ClosedBall(tuple(y), 1e-9))
                f = el.ScalarField(g, fam.evaluate(g.coords(), y))
                cs = el.contact_set(f, fam, tol=0.0)
                assert len(cs) == g.n_nodes
                assert_same_contacts(cs, brute_contact_set(f, fam, tol=0.0))

    def test_tol_must_be_finite_and_nonnegative(self):
        g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 8)
        f = el.ScalarField(g, np.zeros(g.counts))
        fam = el.ParaboloidFamily(1.0, el.Ball((0.0, 0.0), 0.25))
        for tol in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="tol must be finite"):
                el.contact_set(f, fam, tol=tol)

    def test_default_tol_reads_only_the_searched_nodes(self):
        # values behind the mask must not widen the default tolerance
        g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 16)
        fam = el.ParaboloidFamily(1.0, el.Ball((0.0, 0.0), 0.1))
        hole = el.Ball((0.5, 0.5), 0.2).mask(g)
        u = np.zeros(g.counts)
        sets = []
        for fill in (0.0, 1e12):
            u[hole] = fill
            f = el.ScalarField(g, u.copy(), mask=~hole)
            cs = el.contact_set(f, fam)
            assert_same_contacts(cs, brute_contact_set(f, fam))
            assert_same_contacts(cs, loop_contact_set(f, fam))
            sets.append(cs)
        assert len(sets[0]) == len(sets[1]) == 9
        assert_same_contacts(sets[1], dict(centers=sets[0].centers,
                                           indices=sets[0].indices))


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
        rep = el.area_formula_check(tr, fam.center_set)
        assert rep.lhs <= 1.1 * rep.rhs

    def test_matches_loop(self):
        g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 32)
        u = cosine_field(g, 12)
        fam = el.ParaboloidFamily(8.0, el.Ball((0.0, 0.0), 0.25))
        for fld in (el.ScalarField(g, u), el.ScalarField(g, 4 * u)):
            cs = el.contact_set(fld, fam, tol=el.tangency_tolerance(fam, g.h))
            tr = el.transport_map(cs, fld)
            targets, jacs, clamp = loop_transport(cs, fld)
            np.testing.assert_array_equal(tr.targets, targets)
            np.testing.assert_array_equal(tr.jacobians, jacs)
            assert tr.clamp == clamp
            rhs = el.area_formula_check(tr, fam.center_set).rhs
            assert rhs == pytest.approx(dict_area_rhs(tr), rel=1e-12)

    def test_contact_set_takes_paraboloids_only(self):
        # a lookalike with the fields of a ParaboloidFamily is refused too
        g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 16)
        f = el.ScalarField(g, np.zeros(g.counts))
        for family in (SimpleNamespace(opening=1.0,
                                       center_set=el.Ball((0.0, 0.0), 0.125)),
                       el.Ball((0.0, 0.0), 0.125), None):
            with pytest.raises(TypeError, match="unsupported family "
                               + type(family).__name__):
                el.contact_set(f, family)

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


def barrier_profile(bar, rho, r):
    """The localization barrier at distance ``r`` from its center, from
    the constants of ``localization_barrier``: ``C0 (q(r) - q(1 - rho/2))
    / (q(1/2 + rho/2) - q(1 - rho/2))``, ``q(r) = min(r**-alpha,
    (rho/2)**-alpha)``."""
    a = bar["alpha"]

    def q(s):
        with np.errstate(divide="ignore"):
            return np.minimum(np.asarray(s, dtype=float) ** -a,
                              (rho / 2) ** -a)

    return bar["C0"] * (q(r) - q(1 - rho / 2)) \
        / (q(0.5 + rho / 2) - q(1 - rho / 2))


def barrier_hessian(bar, rho, z):
    """Analytic Hessian of the localization barrier at offset
    ``z = x - y0``."""
    r = float(np.linalg.norm(z))
    d = len(z)
    if r <= rho / 2:
        return np.zeros((d, d))
    a = bar["alpha"]
    c = bar["C0"] / ((0.5 + rho / 2) ** -a - (1 - rho / 2) ** -a)
    zz = np.outer(z, z) / (r * r)
    return c * a * r ** (-a - 2) * ((a + 2) * zz - np.eye(d))


def lattice_geometry(g, ell, rho):
    """The lattice sweep that ``localization_check`` once ran on every
    call: over every node center in ``B_{rho/2}`` (the origin is one), the
    least barrier value on the nodes of the closed ``B_{1/2}`` and the
    greatest on the unit ring of width ``h``."""
    n = g.dim
    bar = el.localization_barrier(ell, n, rho)
    pts = g.points()
    centers = pts[el.Ball((0.0,) * n, rho / 2).mask(g).reshape(-1)]
    half = pts[el.ClosedBall((0.0,) * n, 0.5).mask(g).reshape(-1)]
    r = np.linalg.norm(pts, axis=-1)
    ring = pts[(r >= 1.0 - g.h / 2) & (r <= 1.0 + g.h / 2)]
    lo = min(barrier_profile(bar, rho, np.linalg.norm(half - y0, axis=-1))
             .min() for y0 in centers)
    hi = max(barrier_profile(bar, rho, np.linalg.norm(ring - y0, axis=-1))
             .max() for y0 in centers)
    return lo, hi, bar


WINDOWS = [el.Ellipticity(1.0, 1.0), ELL, el.Ellipticity(0.5, 3.0),
           el.Ellipticity(1.0, 7.5)]


class TestBarrier:
    def test_profile_shape(self):
        for rho, ell, dim in itertools.product((0.1, 0.25, 0.45), WINDOWS,
                                               (1, 2, 3)):
            bar = el.localization_barrier(ell, dim, rho)
            assert bar["alpha"] == ell.Lam * dim / ell.lam
            # vanishes at the outer shell radius, equals C0 >= 1 on the
            # inner shell, and is flat at its supremum M on the cap
            assert barrier_profile(bar, rho, 1 - rho / 2) \
                == pytest.approx(0.0, abs=1e-12)
            assert barrier_profile(bar, rho, 0.5 + rho / 2) \
                == pytest.approx(bar["C0"], rel=1e-12)
            assert bar["C0"] >= 1.0
            for r in (0.0, rho / 4, rho / 2):
                assert barrier_profile(bar, rho, r) \
                    == pytest.approx(bar["M"], rel=1e-12)
            # does not increase with the radius
            r = np.linspace(0.0, 1.5, 301)
            assert np.all(np.diff(barrier_profile(bar, rho, r)) <= 0.0)
            # curvature: the Hessian bound c alpha (alpha + 2)
            # (rho/2)^(-alpha-2) at the cap edge, where the Hessian is largest
            a = bar["alpha"]
            c = bar["C0"] / ((0.5 + rho / 2) ** -a - (1 - rho / 2) ** -a)
            assert bar["curvature"] == pytest.approx(
                c * a * (a + 2) * (rho / 2) ** (-a - 2), rel=1e-12)
            z = np.zeros(dim)
            z[0] = rho / 2 * (1 + 1e-12)
            H = barrier_hessian(bar, rho, z)
            assert np.abs(np.linalg.eigvalsh(H)).max() <= bar["curvature"]

    def test_supersolution_in_annulus(self):
        rho = 0.25
        rng = np.random.default_rng(5)
        for ell, dim in itertools.product(WINDOWS, (1, 2, 3)):
            bar = el.localization_barrier(ell, dim, rho)
            for _ in range(50):
                z = rng.normal(size=dim)
                z *= rng.uniform(0.2, 1.0) / np.linalg.norm(z)
                H = barrier_hessian(bar, rho, z)
                assert el.pucci_minus(H, ell) >= 1.0 - 1e-9
            # C0 is the least power of two that does it: at |z| = 1 half
            # of it falls short of 1
            z = np.zeros(dim)
            z[0] = 1.0
            P1 = el.pucci_minus(barrier_hessian(bar, rho, z), ell)
            assert P1 >= 1.0 - 1e-9
            assert bar["C0"] == 1.0 or P1 / 2 < 1.0

    @pytest.mark.parametrize("dim, inv_hs", [
        (1, (8, 16, 32, 64, 128)), (2, (8, 16, 32, 64)), (3, (8, 16))])
    def test_geometry_on_the_lattice(self, dim, inv_hs):
        # the sweep's bounds: at least 1 on the closed B_1/2 for every
        # lattice center, at most curvature * h on the unit ring
        bad = []
        for inv_h, ell, rho in itertools.product(inv_hs, WINDOWS,
                                                 (0.1, 0.25, 0.45)):
            g = el.Grid.cover((0.0,) * dim, 1.0, 1 / inv_h)
            lo, hi, bar = lattice_geometry(g, ell, rho)
            if lo < 1.0 - 1e-9 or hi > bar["curvature"] * g.h:
                bad.append((inv_h, ell, rho, lo, hi))
        assert bad == []

    def test_rho_validation(self):
        for rho in (0.0, -0.1, 0.5, 0.7):
            with pytest.raises(ValueError, match="rho"):
                el.localization_barrier(ELL, 2, rho)

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
                  (b3, el.SubLevel(b3, 0.0)),
                  # these reach the outer layer, where the ring takes the
                  # nodes whose neighbour is off the grid
                  (b2, el.SubLevel(b2, 0.45)),
                  (b3, el.SubLevel(b3, 0.3))]
        for fld, domain in cases[-2:]:
            assert (domain.mask(fld.grid) & ~fld.grid._off_hull).any()
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
