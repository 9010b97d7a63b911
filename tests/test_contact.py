import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from scipy import ndimage

import ellipticlab as el
from ellipticlab.contact import (_ROW_BLOCK, _min_plus_pass, _plane_contacts,
                                 _ring, _sq_index_distance, _sup_convolution)
from ellipticlab.grid import _ball_volume, _blocks, _interior, _lp, _sq_dist
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


def min_plus_brute(vals, x, axis, coef, rows=slice(None)):
    """``_min_plus_pass`` by brute force: every target of ``rows`` against
    every node of its grid line, the lines taken in blocks."""
    cost = (x[rows, None] - x[None, :]) ** 2 * coef      # [p, q]
    moved = np.ascontiguousarray(np.moveaxis(vals, axis, -1))
    lines = moved.reshape(-1, len(x))
    out = np.empty((len(lines), len(cost)), dtype=lines.dtype)
    for blk in _blocks(len(lines), cost.size):
        out[blk] = (lines[blk, None, :] + cost).min(axis=-1)
    return np.moveaxis(out.reshape(moved.shape[:-1] + (len(cost),)), -1,
                       axis)


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


def searched(g, search_region):
    """The nodes that a contact search over ``search_region`` reads."""
    return (np.ones(g.counts, dtype=bool) if search_region is None
            else search_region.mask(g))


def loop_contact_set(fld, family, tol=None, search_region=None):
    """One center at a time, then one hit at a time."""
    g = fld.grid
    pts = g.coords().reshape(-1, g.dim)
    smask = searched(g, search_region).reshape(-1)
    centers = pts[family.center_set.mask(g).reshape(-1)]
    sub_pts = pts[smask]
    sub_u = fld.values.reshape(-1)[smask]
    if tol is None:
        tol = 1e-12 * max(1.0, float(np.max(np.abs(sub_u))))
    sub_lin = np.flatnonzero(smask)
    cen_l, node_l = [], []
    for y0 in centers:
        gvals = sub_u - family.evaluate(sub_pts, y0)
        mval = gvals.min()
        for hit in np.flatnonzero(gvals - mval <= tol):
            cen_l.append(y0)
            node_l.append(sub_lin[hit])
    return dict(centers=np.asarray(cen_l).reshape(-1, g.dim),
                nodes=np.asarray(node_l, dtype=np.intp))


def brute_contact_set(fld, family, tol=None, search_region=None):
    """Every center against every searched node, the centers in blocks."""
    g = fld.grid
    pts = g.points()
    smask = searched(g, search_region).reshape(-1)
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
    return dict(centers=centers[np.concatenate(rows)],
                nodes=sub_lin[np.concatenate(cols)])


def slab_contact_set(fld, family, tol=None, search_region=None):
    """Every node of each slab of the last axis that the inf-convolution's
    axis passes over the other axes leave possible: the search that the
    windows of ``contact_set`` refine."""
    g = fld.grid
    pts = g.points()
    smask = searched(g, search_region)
    cen_lin = np.flatnonzero(family.center_set.mask(g))
    umax = float(np.max(np.abs(fld.values[smask])))
    if tol is None:
        tol = 1e-12 * max(1.0, umax)
    centers = pts[cen_lin]
    axes = g.axes()
    c = 0.5 * family.opening
    n_last = g.counts[-1]
    W = np.where(smask, fld.values, np.inf)
    slab_u = np.ascontiguousarray(W.reshape(-1, n_last).T)
    slab_pts = np.ascontiguousarray(
        pts.reshape(-1, n_last, g.dim).swapaxes(0, 1))
    for ax in range(g.dim - 1):
        W = _min_plus_pass(W, axes[ax], ax, c)
    W = W.reshape(-1, n_last)
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
            k = r + blk.start + sub.start
            gvals = slab_u[j] - family.evaluate(slab_pts[j], centers[k, None])
            mval = np.full(len(keep), np.inf)
            np.minimum.at(mval, r, gvals.min(axis=1))
            gvals -= mval[r, None]
            p, s = np.nonzero(gvals <= tol)
            rows.append(k[p])
            cols.append(s * n_last + j[p])
    row, lin = np.concatenate(rows), np.concatenate(cols)
    order = np.argsort(row * g.n_nodes + lin)
    return dict(centers=centers[row[order]], nodes=lin[order])


def slab_pts_contact_set(fld, family, tol=None, search_region=None):
    """``contact_set`` as it evaluated its windows before the nodes were
    flat: every window's points gathered from ``slab_pts``, a ``(dim,
    n_last, rows)`` copy of every node's point, and the entries' nodes
    as ``(K, dim)`` integer indices."""
    g = fld.grid
    pts = g.points()
    smask = searched(g, search_region)
    cen_lin = np.flatnonzero(family.center_set.mask(g))
    umax = float(np.max(np.abs(fld.values[smask])))
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
    slab_u = np.pad(np.ascontiguousarray(W.reshape(-1, n_last).T), pad,
                    constant_values=np.inf)
    slab_pts = np.pad(np.ascontiguousarray(pts.reshape(-1, n_last, g.dim).T),
                      ((0, 0),) + pad)
    block_min = slab_u.reshape(n_last, n_blk, _ROW_BLOCK).min(axis=-1)
    row_x = np.pad(pts[::n_last, :-1], pad[::-1], mode="edge")
    row_x = row_x.reshape(n_blk, _ROW_BLOCK, g.dim - 1)
    box_lo, box_hi = row_x.min(axis=1), row_x.max(axis=1)
    cen_idx = np.unravel_index(cen_lin, g.counts)
    rest = np.zeros(len(cen_lin), dtype=np.intp)
    for ax in range(g.dim - 1):
        lo, hi = int(cen_idx[ax].min()), int(cen_idx[ax].max()) + 1
        W = _min_plus_pass(W, axes[ax], ax, c, slice(lo, hi))
        rest = rest * (hi - lo) + cen_idx[ax] - lo
    W = W.reshape(-1, n_last)
    last = cen_idx[-1]
    last_cost = (axes[-1][:, None] - axes[-1][None, :]) ** 2 * c
    delta = (g.dim + 4) * np.finfo(float).eps * (
        umax + c * sum((x[-1] - x[0]) ** 2 for x in axes))
    slack = tol + 4 * delta
    mval = np.full(len(centers), np.inf)
    rows, cols = [], []
    for blk in _blocks(len(centers), n_last):
        found = []
        bound = W[rest[blk]]
        bound += last_cost[last[blk]]
        least = bound.min(axis=1)
        bound -= least[:, None]
        r, j = np.nonzero(bound <= slack)
        for sub in _blocks(len(r), n_blk):
            k, js = r[sub] + blk.start, j[sub]
            lower = block_min[js] + last_cost[last[k], js, None]
            for ax in range(g.dim - 1):
                y = centers[k, ax, None]
                lower += np.maximum(
                    np.maximum(box_lo[:, ax] - y, y - box_hi[:, ax]), 0.0
                ) ** 2 * c
            lower -= least[r[sub], None]
            keep = lower <= slack
            hit = keep.any(axis=1)
            if not hit.any():
                continue
            k, js, keep = k[hit], js[hit], keep[hit]
            first = keep.argmax(axis=1)
            span = int((n_blk - keep[:, ::-1].argmax(axis=1) - first).max())
            start = np.minimum(first, n_blk - span) * _ROW_BLOCK
            width = span * _ROW_BLOCK
            win_u = sliding_window_view(slab_u, width, axis=1)
            win_pts = sliding_window_view(slab_pts, width, axis=2)
            for sw in _blocks(len(k), width * g.dim):
                kw, jw, sr = k[sw], js[sw], start[sw]
                gvals = win_u[jw, sr] - family.evaluate(
                    np.moveaxis(win_pts[:, jw, sr], 0, -1), centers[kw, None])
                np.minimum.at(mval, kw, gvals.min(axis=1))
                p, s = np.nonzero(gvals - mval[kw, None] <= tol)
                found.append((kw[p], (sr[p] + s) * n_last + jw[p],
                              gvals[p, s]))
        k, lin, gval = (np.concatenate(f) for f in zip(*found))
        keep = gval - mval[k] <= tol
        rows.append(k[keep])
        cols.append(lin[keep])
    row, lin = np.concatenate(rows), np.concatenate(cols)
    order = np.argsort(row * g.n_nodes + lin, kind="stable")
    return dict(centers=centers[row[order]],
                indices=np.stack(np.unravel_index(lin[order], g.counts),
                                 axis=-1))


def index_interior(g, contact):
    """``on_hull`` and ``interior()`` of a contact set whose nodes are
    ``(K, dim)`` integer indices: the on-hull flags and the interior's
    centers and indices."""
    on_hull = ~g._off_hull[tuple(contact["indices"].T)]
    keep = ~on_hull
    return on_hull, dict(centers=contact["centers"][keep],
                         indices=contact["indices"][keep])


def grid_transport(g, family, indices, fld):
    """``transport_map`` of interior contacts at ``(K, dim)`` integer
    indices, from the whole-grid ``gradient`` and ``hessian`` read at the
    raveled contact nodes; returns (targets, jacobians, clamp)."""
    M = family.opening
    lin = np.ravel_multi_index(tuple(indices.T), g.counts)
    touched = np.zeros(g.n_nodes, dtype=bool)
    touched[lin] = True
    entry = (np.cumsum(touched) - 1)[lin]
    idx = np.unravel_index(np.flatnonzero(touched), g.counts)
    core = tuple(i - 1 for i in idx)
    targets = (g.coords()[idx] + el.gradient(fld)[core] / M)[entry]
    dets = np.linalg.det(np.eye(g.dim) + el.hessian(fld)[core] / M)[entry]
    neg = dets < 0
    return (targets, np.where(neg, 0.0, dets),
            float(-dets[neg].min(initial=0.0)))


def grid_abp_bound(fld, ell):
    """``abp_bound`` with the whole-grid ``hessian`` read at the plane
    contacts off the outer layer."""
    g = fld.grid
    n = g.dim
    b1 = el.ClosedBall((0.0,) * n, 1.0)
    inside = b1.mask(g)
    ring = _ring(inside)
    osc = el.oscillation(fld, b1) if inside.any() else 0.0
    ring_ok = float(fld.values[ring].min(initial=0.0)) >= -8 * g.h * max(
        1.0, osc)
    m = float(np.clip(-fld.values[inside & ~ring], 0, None).max(initial=0.0))
    amask, n_slopes = (_plane_contacts(fld, inside, m) if m > 0
                       else (np.zeros(g.counts, dtype=bool), 0))
    P = el.pucci_minus(el.hessian(fld)[amask[_interior(g.counts)]], ell)
    C_impl = 2.0 / (n * ell.lam * _ball_volume(n) ** (1.0 / n))
    rhs = C_impl * _lp(np.clip(P, 0, None), n, g.cell_measure)
    return el.make_report(
        "abp", m, rhs, tol=8.0 * g.h * max(1.0, m),
        constants={"C_impl": C_impl, "contact_nodes": int(amask.sum()),
                   "n_slopes": n_slopes, "tol_factor": 8.0},
        grid=g.meta(),
        notes="max u_- vs L^n norm of (P^-)_+ on the plane-contact set",
        hypothesis=None if ring_ok
        else "hypothesis failed: u negative on the ring")


def envelope_fields(seed):
    """The fields of envelope-fields input set ``seed``, with its family."""
    rng = workloads._rng(seed, 1)
    fam = el.ParaboloidFamily(8.0, el.Ball((0.0, 0.0), 0.25))
    for n, count in workloads.ENVELOPE_FIELDS:
        g = el.Grid.cover((0.0, 0.0), 1.0, 2.0 / (n - 1))
        for _ in range(count):
            u = workloads._cosine_field(rng, g.coords())
            yield el.ScalarField(g, u), fam


def envelope_bowl(fld):
    """The bowl ``|x|^2 - 1 + 0.2 (u - min u)`` that envelope-fields builds
    from its cosine field ``u`` for ``abp_bound``."""
    r2 = np.sum(fld.grid.coords() ** 2, axis=-1)
    return el.ScalarField(fld.grid,
                          r2 - 1.0 + 0.2 * (fld.values - fld.values.min()))


def entry_transport(contact, fld):
    """Targets and Jacobians evaluated once per entry, a node touched by
    several centers as often as it is touched; returns (targets,
    jacobians, clamp)."""
    M = contact.family.opening
    g = contact.grid
    core = tuple(i - 1 for i in np.unravel_index(contact.nodes, g.counts))
    targets = g.points()[contact.nodes] + el.gradient(fld)[core] / M
    dets = np.linalg.det(np.eye(g.dim) + el.hessian(fld)[core] / M)
    neg = dets < 0
    return (targets, np.where(neg, 0.0, dets),
            float(-dets[neg].min()) if neg.any() else 0.0)


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
        idx = np.array(np.unravel_index(contact.nodes[k], g.counts))
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
    hull = contact.on_hull
    seen = {}
    for k in range(len(contact)):
        if hull[k]:
            continue
        key = int(contact.nodes[k])
        seen[key] = max(seen.get(key, 0.0), transport.jacobians[k])
    return sum(seen.values()) * contact.grid.cell_measure


def fmax_area_rhs(transport):
    """The area formula's right side with the largest Jacobian per node
    taken by an unbuffered ``np.fmax.at``."""
    g = transport.contact.grid
    best = np.zeros(g.n_nodes)
    np.fmax.at(best, transport.contact.nodes, transport.jacobians)
    return float(best.sum()) * g.cell_measure


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


def tiled_plane_contacts(fld, inside, m):
    """The slope search by square tiles of 24 slopes per axis.

    For a tile with center ``p_c`` and radius ``delta`` let ``x*``
    minimize ``g_c = u - x.p_c``.  A minimizer ``x`` of ``u - x.p`` for a
    slope of the tile has ``g_c(x) - g_c(x*) <= |x - x*| delta``, so only
    the nodes passing this test (with a slack of 1e-12 of the scale for
    rounding) are evaluated, in ascending node order."""
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
    for start in itertools.product(range(0, 2 * k + 1, 24), repeat=n):
        mesh = np.meshgrid(*(ax[a:a + 24] for a in start), indexing="ij")
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
            vals = u[cand] - (pts[cand] @ slopes[blk, :, None])[..., 0]
            hit[cand[np.argmin(vals, axis=1)]] = True
    mask = np.zeros(g.n_nodes, dtype=bool)
    mask[sel[hit]] = True
    return mask.reshape(g.counts), n_slopes


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


def cosine_case(dim, h, seed, amp=1.0):
    g = el.Grid.cover((0.0,) * dim, 1.0, h)
    return el.ScalarField(g, amp * cosine_field(g, seed))


def off_nodes(g, nodes):
    """The region of the nodes of ``g`` off the boolean array ``nodes``."""
    return el.SubLevel(el.ScalarField(g, nodes.astype(float)), 0.0)


def holed_rows():
    """A field and a search region without rows 24-39: blocks 3 and 4 of
    every slab, which the windows of the centers cross or end at."""
    g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 32)
    rows = np.zeros(g.counts, dtype=bool)
    rows[24:40] = True
    return el.ScalarField(g, cosine_field(g, 9)), off_nodes(g, rows)


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


def cone(h, apex=-0.6):
    """``|x| + apex``: the apex's slope box holds every slope."""
    g = el.Grid.cover((0.0, 0.0), 1.0, h)
    return el.ScalarField(g, np.sqrt(np.sum(g.coords() ** 2, axis=-1)) + apex)


def polyhedron(seed):
    """``max(-33/64, x.a_j + c_j)`` on a grid of spacing 1/16: the depth is
    33/64, so the slope lattice has spacing 1/128 and holds the eight
    random slopes ``a_j`` inside ``B_{m/2}``; with dyadic ``c_j`` every
    ``u - x.p`` is exact, and each facet's slope ties across the facet.
    Four steep planes lift the ring."""
    g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 16)
    rng = np.random.default_rng(seed)
    rim = [[1, 0], [-1, 0], [0, 1], [0, -1]]
    a = np.concatenate([rng.integers(-22, 23, size=(8, 2)) / 128, rim])
    c = np.concatenate([rng.integers(-40, -33, size=8) / 64, [-0.75] * 4])
    vals = np.max(g.coords() @ a.T + c, axis=-1)
    return el.ScalarField(g, np.maximum(vals, -33 / 64))


def edge_box_bowl(first):
    """``bowl(1, 1/64)`` with the value left of one node lowered so that
    the node's slope box ``[D-u - sigma, D+u + sigma]`` starts exactly on
    the last lattice slope ``ax[-1]``, with ``sigma`` as
    :func:`_plane_contacts` computes it; for ``first`` the field is
    mirrored, and the mirrored node's box ends exactly on ``ax[0] =
    -ax[-1]``.  Returns the field and that lattice slope."""
    fld = bowl(1, 1 / 64)
    inside, m = abp_inputs(fld)
    x = fld.grid.axes()[0]
    h = x[1] - x[0]
    s = m / (2 * len(x))
    end = math.floor(0.5 * m / s) * s
    u = fld.values.copy()
    B = np.abs(u[inside]).max() + 0.5 * m * np.sqrt((x[inside] ** 2).max())
    sigma = 9 * np.finfo(float).eps * B / (h / 2)
    j = 1 + int(np.argmin(np.abs(np.diff(u) / h - end)))
    q = end + sigma
    while q - sigma != end:
        q = np.nextafter(q, np.inf if q - sigma < end else -np.inf)
    v = u[j] - q * h
    while (u[j] - v) / h != q:
        v = np.nextafter(v, -np.inf if (u[j] - v) / h < q else np.inf)
    u[j - 1] = v
    if first:
        return el.ScalarField(fld.grid, u[::-1].copy()), -end
    return el.ScalarField(fld.grid, u), end


def assert_same_contacts(cs, ref):
    for name, want in ref.items():
        got = getattr(cs, name)
        assert got.dtype.kind == want.dtype.kind, name
        np.testing.assert_array_equal(got, want, err_msg=name)


def assert_matches_searches(fld, fam, tol=None, region=None):
    """``contact_set`` equals the brute force and the slab search, entry
    order included; returns it."""
    cs = el.contact_set(fld, fam, tol=tol, search_region=region)
    for oracle in (brute_contact_set, slab_contact_set):
        assert_same_contacts(cs, oracle(fld, fam, tol=tol,
                                        search_region=region))
    return cs


class TestInfConvolution:
    def test_exact_vs_brute_force(self):
        g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 12)
        rng = np.random.default_rng(0)
        f = el.ScalarField(g, rng.normal(size=g.counts))
        for eps in (0.05, 0.3, 2.0):
            got = el.inf_convolution(f, eps).values
            ref = brute_inf_convolution(f, eps)
            assert np.array_equal(got, ref)

    def test_pass_at_target_rows_is_a_slice_of_the_full_pass(self):
        rng = np.random.default_rng(1)
        vals = rng.normal(size=(9, 11, 13))
        for ax, n in enumerate(vals.shape):
            x = np.linspace(-1.0, 1.0, n)
            full = _min_plus_pass(vals, x, ax, 3.7)
            for rows in (slice(2, 5), slice(n - 1, n), slice(None)):
                got = _min_plus_pass(vals, x, ax, 3.7, rows)
                want = full[(slice(None),) * ax + (rows,)]
                assert got.shape == want.shape
                assert np.array_equal(got, want)

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
        s = _sup_convolution(f, 0.2).values
        i = el.inf_convolution(el.ScalarField(g, -f.values), 0.2).values
        np.testing.assert_array_equal(s, -i)

    def test_envelope_between(self):
        g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 16)
        rng = np.random.default_rng(3)
        f = el.ScalarField(g, rng.normal(size=g.counts))
        low = el.inf_convolution(f, 0.2)
        env = _sup_convolution(low, 0.2).values
        assert np.all(env >= low.values - 1e-12)
        assert np.all(env <= f.values + 1e-12)

    def test_eps_validation(self):
        g = el.Grid.cover((0.0,), 1.0, 1 / 8)
        f = el.ScalarField(g, np.zeros(g.counts))
        for conv in (el.inf_convolution, _sup_convolution):
            for eps in (0.0, -1.0, float("nan")):
                with pytest.raises(ValueError, match="eps"):
                    conv(f, eps)


def assert_pass_matches(vals, axes, coef, rows=slice(None)):
    """``_min_plus_pass`` along every axis equals the brute force, dtype
    and bits."""
    for ax, x in enumerate(axes):
        got = _min_plus_pass(vals, x, ax, coef, rows)
        want = min_plus_brute(vals, x, ax, coef, rows)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def first_argmins(line, x, coef):
    """The brute force's first computed argmin at every target."""
    return (line[None, :] + (x[:, None] - x[None, :]) ** 2 * coef).argmin(
        axis=1)


class TestMinPlusPass:
    """The bracketed search equals the brute force bit for bit."""

    @pytest.mark.parametrize("seed", [3, 11])
    def test_envelope_fields_and_bowls(self, seed):
        # n = 65 and 129; eps = 0.25 and the contact search's c = M/2 = 4
        for fld, _ in envelope_fields(seed):
            for vals in (fld.values, envelope_bowl(fld).values):
                for coef in (2.0, 4.0):
                    assert_pass_matches(vals, fld.grid.axes(), coef)

    def test_concave_field_whose_argmins_jump(self):
        # along axis 1, f'' reaches -22.5, below -2 coef: minimizers jump
        g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 64)
        pts = g.coords()
        vals = 2.5 * np.cos(5 * pts[..., 0]) * np.cos(3 * pts[..., 1] + 1)
        x = g.axes()[1]
        assert np.diff(first_argmins(vals[40], x, 1.0)).max() > 8
        assert_pass_matches(vals, g.axes(), 1.0)

    def test_rounded_values_tie(self):
        # dyadic values and spacing: every sum is exact, and many tie
        rng = np.random.default_rng(4)
        x = np.arange(50) * 0.25
        vals = rng.integers(-8, 8, size=(50, 50)) * 0.0625
        sums = vals[7][None, :] + (x[:, None] - x[None, :]) ** 2
        assert ((sums == sums.min(axis=1, keepdims=True)).sum(axis=1)
                > 1).any()
        assert_pass_matches(vals, (x, x), 1.0)

    def test_inf_entries_and_lines_with_target_rows(self):
        rng = np.random.default_rng(6)
        vals = rng.normal(size=(37, 41))
        vals[rng.random(vals.shape) < 0.4] = np.inf
        vals[5] = vals[20] = np.inf                 # all-inf axis-1 lines
        vals[:, 3] = np.inf                         # an all-inf axis-0 line
        axes = (np.linspace(-1, 1, 37), np.linspace(0, 2, 41))
        for rows in (slice(None), slice(4, 31), slice(0, 1), slice(30, 37),
                     slice(2, 35, 3)):
            assert_pass_matches(vals, axes, 3.0, rows)
        assert_pass_matches(np.full((37, 41), np.inf), axes, 3.0)

    def test_one_and_three_dimensional_grids(self):
        rng = np.random.default_rng(7)
        for g in (el.Grid.cover((0.0,), 1.0, 1 / 100),
                  el.Grid(3, 1 / 8, (0.0, -1.0, 0.5), (9, 17, 33))):
            vals = rng.normal(size=g.counts)
            for coef in (0.1, 2.0, 50.0):
                assert_pass_matches(vals, g.axes(), coef)

    def test_zero_coefficient(self):
        vals = np.random.default_rng(8).normal(size=(30, 20))
        assert_pass_matches(vals, (np.linspace(0, 1, 30),
                                   np.linspace(0, 1, 20)), 0.0)

    def test_rounding_that_breaks_the_separation(self):
        # nodes 0 and 1 lie 2^-46 apart, so 2 coef g^2 = 2^-91 is far
        # below the rounding of costs near 3000: the computed minimizer
        # moves back, and targets 4 and 5 attain their minimum at node 1,
        # right of target 6's argmin.  A bracket would miss it.
        x = np.array([5.75, 5.75 + 2.0 ** -46, 60, 61, 62, 63, 70, 80, 90])
        vals = np.full(9, 1e7)
        vals[:2] = (x[3] - x[1]) ** 2 - (x[3] - x[0]) ** 2, 0.0
        assert first_argmins(vals, x, 1.0).tolist() == [0, 0, 0, 0, 1, 1,
                                                        0, 0, 1]
        assert_pass_matches(vals, (x,), 1.0)

    def test_callers_match_the_brute_force(self, monkeypatch):
        # inf- and sup-convolutions, the envelope, contact_set's passes
        # at its centers' rows and the distance transform's ring lines
        from ellipticlab import contact
        fld, fam = next(envelope_fields(3))
        bowl_ = envelope_bowl(fld)
        ring = _ring(el.SubLevel(bowl_, 0.0).mask(fld.grid))
        run = lambda: (el.inf_convolution(fld, 0.25).values,
                       _sup_convolution(fld, 0.25).values,
                       _sup_convolution(el.inf_convolution(bowl_, 0.1),
                                          0.1).values,
                       el.contact_set(fld, fam).nodes,
                       el.contact_set(bowl_, fam, search_region=el.Ball(
                           (0.1, 0.0), 0.6)).nodes,
                       _sq_index_distance(ring))
        got = run()
        monkeypatch.setattr(contact, "_min_plus_pass", min_plus_brute)
        for a, b in zip(got, run()):
            assert a.dtype == b.dtype and np.array_equal(a, b)


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
        points = g.points()[cs.nodes]
        grads = el.gradient(f)[tuple(
            i - 1 for i in np.unravel_index(cs.nodes, g.counts))]
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
        # B_0.9 less a ball, searched
        holed = el.Ball((0.0, 0.0), 0.9) & off_nodes(
            g2, el.Ball((0.3, 0.2), 0.2).mask(g2))
        holed3 = el.Ball((0.0,) * 3, 0.9) & off_nodes(
            g3, el.Ball((0.3, 0.2, -0.1), 0.3).mask(g3))
        fam2 = el.ParaboloidFamily(8.0, el.Ball((0.0, 0.0), 0.25))
        cases = [
            (el.ScalarField(g1, cosine_field(g1, 10)),
             el.ParaboloidFamily(4.0, el.Ball((0.0,), 0.3)), None),
            (el.ScalarField(g2, u2), fam2, None),
            (el.ScalarField(g2, u2), fam2, holed),
            (el.ScalarField(g3, u3),
             el.ParaboloidFamily(4.0, el.Ball((0.0,) * 3, 0.3)), None),
            (el.ScalarField(g3, u3),
             el.ParaboloidFamily(4.0, el.Ball((0.0,) * 3, 0.3)), holed3),
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
                cs = assert_matches_searches(fld, fam, tol, region)
                ref = loop_contact_set(fld, fam, tol=tol, search_region=region)
                assert_same_contacts(cs, ref)
                want = np.zeros(fld.grid.n_nodes, dtype=bool)
                for node in ref["nodes"]:
                    want[node] = True
                np.testing.assert_array_equal(cs.node_mask(),
                                              want.reshape(fld.grid.counts))

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_brute_force_on_envelope_fields(self, seed):
        for fld, fam in envelope_fields(seed):
            for tol in (None, el.tangency_tolerance(fam, fld.grid.h)):
                assert_matches_searches(fld, fam, tol)

    WINDOW_CASES = {
        "hole-over-row-blocks": holed_rows,
        # one row per slab: one block, padded to _ROW_BLOCK rows
        "1-d": lambda: (cosine_case(1, 1 / 64, 3), None),
        # 13 nodes per line: most row blocks hold the ends of two lines
        "3-d": lambda: (cosine_case(3, 1 / 6, 5, amp=2.0), None),
    }

    @pytest.mark.parametrize("name", sorted(WINDOW_CASES))
    def test_windows_match_the_searches(self, name):
        fld, region = self.WINDOW_CASES[name]()
        g = fld.grid
        assert g.dim == 1 or g.counts[-2] % _ROW_BLOCK
        fam = el.ParaboloidFamily(6.0, el.Ball((0.1,) * g.dim, 0.3))
        for tol in (None, el.tangency_tolerance(fam, g.h)):
            cs = assert_matches_searches(fld, fam, tol, region)
            assert len(cs) > 0
            assert searched(g, region).reshape(-1)[cs.nodes].all()

    def test_window_widths_differ_between_center_blocks(self, monkeypatch):
        # small blocks split the centers and their pairs into many
        # blocks, whose windows are one to three row blocks wide here
        g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 32)
        u = cosine_field(g, 9)
        fld = el.ScalarField(g, np.where(g.coords()[..., 0] < -0.1, 0.0, u))
        fam = el.ParaboloidFamily(8.0, el.Ball((0.0, 0.0), 0.25))
        widths = []
        view = el.contact.sliding_window_view

        def spy(arr, width, axis):
            widths.append(width)
            return view(arr, width, axis=axis)
        monkeypatch.setattr("ellipticlab.grid._BLOCK", 1 << 10)
        monkeypatch.setattr("ellipticlab.contact.sliding_window_view", spy)
        for tol in (None, el.tangency_tolerance(fam, g.h)):
            assert_matches_searches(fld, fam, tol)
        assert len(set(widths)) > 1

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
                cs = assert_matches_searches(f, fam, tol=0.0)
                assert len(cs) == g.n_nodes

    def test_tol_must_be_finite_and_nonnegative(self):
        g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 8)
        f = el.ScalarField(g, np.zeros(g.counts))
        fam = el.ParaboloidFamily(1.0, el.Ball((0.0, 0.0), 0.25))
        for tol in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="tol must be finite"):
                el.contact_set(f, fam, tol=tol)

    @pytest.mark.parametrize("opening", [0.0, -1.0, np.nan])
    def test_opening_must_be_positive(self, opening):
        # a NaN opening passed "opening <= 0", and contact_set then died
        # unpacking an empty search
        with pytest.raises(ValueError, match="opening must be positive"):
            el.ParaboloidFamily(opening, el.Ball((0.0, 0.0), 0.25))

    def test_default_tol_reads_only_the_searched_nodes(self):
        # values off the search region must not widen the default tolerance
        g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 16)
        fam = el.ParaboloidFamily(1.0, el.Ball((0.0, 0.0), 0.1))
        hole = el.Ball((0.5, 0.5), 0.2).mask(g)
        region = off_nodes(g, hole)
        u = np.zeros(g.counts)
        sets = []
        for fill in (0.0, 1e12):
            u[hole] = fill
            f = el.ScalarField(g, u.copy())
            cs = el.contact_set(f, fam, search_region=region)
            for oracle in (brute_contact_set, loop_contact_set):
                assert_same_contacts(cs, oracle(f, fam, search_region=region))
            sets.append(cs)
        assert len(sets[0]) == len(sets[1]) == 9
        assert_same_contacts(sets[1], dict(centers=sets[0].centers,
                                           nodes=sets[0].nodes))


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
            assert rhs == fmax_area_rhs(tr)
            assert rhs == pytest.approx(dict_area_rhs(tr), rel=1e-12)

    @pytest.mark.parametrize("seed", [0, 3])
    def test_once_per_node_matches_the_per_entry_expression(self, seed):
        for fld, fam in envelope_fields(seed):
            cs = el.contact_set(fld, fam,
                                tol=el.tangency_tolerance(fam, fld.grid.h))
            csi = cs.interior()
            # several centers touch most nodes
            assert len(csi) > csi.node_mask().sum()
            tr = el.transport_map(csi, fld)
            targets, jacs, clamp = entry_transport(csi, fld)
            assert np.array_equal(tr.targets, targets)
            assert np.array_equal(tr.jacobians, jacs)
            assert tr.clamp == clamp
            rhs = el.area_formula_check(tr, fam.center_set).rhs
            assert rhs == fmax_area_rhs(tr)
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


def ravel_contacts(g, contact):
    """A contact set of ``(K, dim)`` integer indices with its nodes flat."""
    return dict(centers=contact["centers"],
                nodes=np.ravel_multi_index(tuple(contact["indices"].T),
                                           g.counts))


def assert_bits(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


class TestFlatNodesMatchTheIndexPaths:
    """Contact sets as flat node indices, their windows from axis
    coordinates and their derivatives at the contact nodes alone, against
    the paths they replace: windows gathered from ``slab_pts``, ``(K,
    dim)`` indices, and whole-grid ``gradient`` and ``hessian``."""

    @staticmethod
    def cases(name):
        """(field, family, ABP's field) triples of case ``name``."""
        if name.startswith("envelope-fields"):
            return [(fld, fam, envelope_bowl(fld))
                    for fld, fam in envelope_fields(int(name[16:]))]
        if name == "plateau":
            fld = TestSearchesMatchLoops.ABP_FIELDS["plateau"]()
            return [(fld, el.ParaboloidFamily(
                8.0, el.Ball((0.0, 0.0), 0.25)), fld)]
        if name == "every-node-a-center":
            fld = cosine_case(2, 1 / 32, 9)
            return [(fld, el.ParaboloidFamily(8.0, el.Ball((0.0, 0.0), 2.0)),
                     envelope_bowl(fld))]
        dim = int(name[0])
        fld = (cosine_case(1, 1 / 64, 3) if dim == 1
               else cosine_case(3, 1 / 6, 5, amp=2.0))
        return [(fld, el.ParaboloidFamily(6.0, el.Ball((0.1,) * dim, 0.3)),
                 envelope_bowl(fld))]

    @pytest.mark.parametrize("name", [
        "envelope-fields-0", "envelope-fields-3", "envelope-fields-11",
        "plateau", "every-node-a-center", "1-d", "3-d"])
    def test_contacts_transport_and_abp(self, name):
        hull = 0
        for fld, fam, abp_field in self.cases(name):
            g = fld.grid
            for tol in (None, el.tangency_tolerance(fam, g.h)):
                cs = el.contact_set(fld, fam, tol=tol)
                ref = slab_pts_contact_set(fld, fam, tol=tol)
                assert_same_contacts(cs, ravel_contacts(g, ref))
                on_hull, ref_interior = index_interior(g, ref)
                assert_bits(cs.on_hull, on_hull)
                hull += int(on_hull.sum())
                csi = cs.interior()
                assert_same_contacts(csi, ravel_contacts(g, ref_interior))
                tr = el.transport_map(csi, fld)
                targets, jacobians, clamp = grid_transport(
                    g, fam, ref_interior["indices"], fld)
                assert_bits(tr.targets, targets)
                assert_bits(tr.jacobians, jacobians)
                assert tr.clamp == clamp
            assert el.abp_bound(abp_field, ELL).to_dict() \
                == grid_abp_bound(abp_field, ELL).to_dict()
        assert name != "every-node-a-center" or hull > 0


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
        "cone": lambda: cone(1 / 32),
        # every slope is held by several boxes, and most tie exactly
        "polyhedron": lambda: polyhedron(0),
        "quantized-bowl": lambda: el.ScalarField(
            bowl(2, 1 / 32).grid, np.round(16 * bowl(2, 1 / 32).values) / 16),
        # every slope is held by several boxes, and 2,185 of 20,401 have
        # several exact minimizers
        "quantized-3-d-bowl": lambda: el.ScalarField(
            bowl(3, 1 / 8).grid, np.round(16 * bowl(3, 1 / 8).values) / 16),
        "1-d-bowl": lambda: bowl(1, 1 / 64),
    }

    @pytest.mark.parametrize("name", sorted(ABP_FIELDS))
    def test_plane_contacts(self, name):
        fld = self.ABP_FIELDS[name]()
        inside, m = abp_inputs(fld)
        mask, n_slopes = _plane_contacts(fld, inside, m)
        ref, n_ref = loop_plane_contacts(fld, inside, m)
        assert n_slopes == n_ref
        np.testing.assert_array_equal(mask, ref)
        rep = el.abp_bound(fld, ELL)
        assert rep.status == "pass"
        assert rep.constants["contact_nodes"] == ref.sum()

    @pytest.mark.parametrize("name", ["plateau", "polyhedron"])
    def test_tie_slopes_in_many_blocks(self, name, monkeypatch):
        # small blocks split the products of the slopes held by several
        # boxes into many calls
        fld = self.ABP_FIELDS[name]()
        inside, m = abp_inputs(fld)
        ref, n_ref = loop_plane_contacts(fld, inside, m)
        seen = []

        def blocks(count, width):
            out = list(_blocks(count, width))
            seen.append(len(out))
            return out
        monkeypatch.setattr("ellipticlab.grid._BLOCK", 1 << 12)
        monkeypatch.setattr("ellipticlab.contact._blocks", blocks)
        mask, n_slopes = _plane_contacts(fld, inside, m)
        assert max(seen) > 1
        assert n_slopes == n_ref
        np.testing.assert_array_equal(mask, ref)

    @pytest.mark.parametrize("first", [False, True])
    def test_box_ending_on_a_lattice_end_is_searched(self, first,
                                                     monkeypatch):
        # the box that meets the slope lattice only at its end slope is
        # among the boxes searched, and the mask is the loop's.  The mask
        # alone cannot show the first: sigma leaves such a box a margin
        # short of the computed minimizer's, so the searched ends are read
        fld, end = edge_box_bowl(first)
        inside, m = abp_inputs(fld)
        assert m == abp_inputs(bowl(1, 1 / 64))[1]
        searched = {"left": [], "right": []}
        search = np.searchsorted

        def spy(a, v, side="left"):
            searched[side].append(np.array(v))
            return search(a, v, side=side)
        monkeypatch.setattr(np, "searchsorted", spy)
        mask, n_slopes = _plane_contacts(fld, inside, m)
        monkeypatch.undo()
        assert end in np.concatenate(searched["right" if first else "left"])
        ref, n_ref = loop_plane_contacts(fld, inside, m)
        assert n_slopes == n_ref
        np.testing.assert_array_equal(mask, ref)

    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_plane_contacts_match_the_tiles_on_envelope_bowls(self, seed):
        for fld, _ in envelope_fields(seed):
            bowl_ = envelope_bowl(fld)
            inside, m = abp_inputs(bowl_)
            mask, n_slopes = _plane_contacts(bowl_, inside, m)
            ref, n_ref = tiled_plane_contacts(bowl_, inside, m)
            assert n_slopes == n_ref
            np.testing.assert_array_equal(mask, ref)

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


def scipy_aleksandrov(fld, domain):
    """``aleksandrov_check``'s lhs and rhs with scipy's distance transform
    and LAPACK determinants, the path that the package's own replaced."""
    g = fld.grid
    inside = domain.mask(g)
    ring = _ring(inside)
    nodes = inside & ~ring
    dists = ndimage.distance_transform_edt(~ring, sampling=g.h)[nodes]
    lhs = float((np.abs(fld.values[nodes]) ** g.dim
                 / np.maximum(dists, g.h)).max(initial=0.0))
    dets = np.linalg.det(el.hessian(fld)[nodes[_interior(g.counts)]])
    return lhs, float(np.clip(dets, 0, None).sum())


class TestDistanceTransform:
    def test_matches_scipy_on_random_feature_sets(self):
        rng = np.random.default_rng(11)
        lines_without_feature = 0
        for case in range(240):
            dim = 1 + case % 3
            shape = tuple(rng.integers(2, (70, 35, 14)[dim - 1], size=dim))
            feature = rng.random(shape) < rng.choice([0.002, 0.02, 0.2, 0.6])
            feature.flat[rng.integers(feature.size)] = True
            lines_without_feature += int((~feature.any(axis=0)).sum())
            h = float(rng.choice([1 / 32, 0.1, 2 / 3, 1 / 7]))
            d2 = _sq_index_distance(feature)
            assert d2.dtype == np.int32
            # exact on the lattice: integer squares
            np.testing.assert_array_equal(
                d2, np.round(ndimage.distance_transform_edt(~feature) ** 2))
            want = ndimage.distance_transform_edt(~feature, sampling=h)
            got = np.sqrt(d2) * h
            assert np.all(np.abs(got - want) <= 1e-15 * want)
        assert lines_without_feature > 0

    def test_one_feature_node(self):
        # every axis-0 line but one holds no feature node
        feature = np.zeros((6, 9, 4), dtype=bool)
        feature[4, 2, 1] = True
        idx = np.indices(feature.shape)
        want = sum((i - c) ** 2 for i, c in zip(idx, (4, 2, 1)))
        np.testing.assert_array_equal(_sq_index_distance(feature), want)

    def test_long_axes_do_not_wrap(self):
        # 60000^2 is beyond int32; the second line holds no feature node
        feature = np.zeros((60001, 2), dtype=bool)
        feature[0, 0] = True
        d2 = _sq_index_distance(feature)
        assert d2[-1].tolist() == [60000 ** 2, 60000 ** 2 + 1]

    @pytest.mark.parametrize("n", [65, 129, 257])
    def test_bit_equal_on_the_envelope_bowls(self, n):
        g = el.Grid.cover((0.0, 0.0), 1.0, 2.0 / (n - 1))
        u = workloads._cosine_field(workloads._rng(3, 1), g.coords())
        fld = envelope_bowl(el.ScalarField(g, u))
        ring = _ring(el.SubLevel(fld, 0.0).mask(g))
        np.testing.assert_array_equal(
            np.sqrt(_sq_index_distance(ring)) * g.h,
            ndimage.distance_transform_edt(~ring, sampling=g.h))

    def test_aleksandrov_on_sublevel_domains_matches_scipy(self):
        cases = [(f, el.SubLevel(f, 0.0)) for f in convex_family(3)]
        b2, b3 = bowl(2, 1 / 32, amp=0.5), bowl(3, 1 / 8)
        cases += [(b3, el.SubLevel(b3, 0.0)), (b2, el.SubLevel(b2, 0.45)),
                  (envelope_bowl(next(envelope_fields(3))[0]), None),
                  # a domain of ring nodes only: no node to measure
                  (b2, el.SubLevel(b2, -0.4999))]
        for fld, domain in cases:
            domain = domain or el.SubLevel(fld, 0.0)
            rep = el.aleksandrov_check(fld, domain)
            lhs, mass = scipy_aleksandrov(fld, domain)
            assert rep.lhs == pytest.approx(lhs, rel=1e-12, abs=0.0)
            rhs = (rep.constants["C_impl"] * rep.constants["diam"]
                   ** (fld.grid.dim - 1) * mass * fld.grid.cell_measure)
            assert rep.rhs == pytest.approx(rhs, rel=1e-12)
        inside = cases[-1][1].mask(b2.grid)
        assert inside.any() and not (inside & ~_ring(inside)).any()
        assert rep.lhs == 0.0


class TestHessianContact:
    def test_semiconvex_lower_bound(self):
        g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 32)
        f = el.ScalarField.from_function(
            g, lambda p: np.cos(3 * p[..., 0]) * np.cos(3 * p[..., 1]))
        rep = el.hessian_contact_check(
            f, opening=16.0, center_set=el.Ball((0.0, 0.0), 0.3))
        assert rep.passed
