"""Hot numeric kernels.

Three kernels dominate runtime: the thinning subiteration, the alignment
search over minutia-pair hypotheses, and the critical-shift scan of the
turning-function distance. Each has one numpy implementation;
``tests/oracles.py`` keeps a plain reference for each, and the tests
compare the two.

The thinning subiteration looks every pixel's 3 x 3 neighbourhood up in
a 512-entry table: three horizontal shifts pack each row triple into 3
bits, three vertical shifts stack three such rows into a 9-bit code,
and one ``take`` per subiteration gives the deletion mask. The table is
built once, on first use, from Zhang and Suen's rule evaluated over all
512 codes.

The alignment search, ``best_alignment``, is an exact branch and bound:
an upper bound on every hypothesis's matched count, computed from
anchor-relative invariants padded by ``BOUND_EPS``, decides which
hypotheses are verified, and the result is the one the exhaustive
search gives. ``benchmarks/bench_kernels.py`` times the kernels against
their references.
"""

import functools
import math

import numpy as np

TWO_PI = 2.0 * math.pi

# Merged-partition cells narrower than this are rounding slivers: two
# breakpoints that coincide in exact arithmetic but differ by float
# noise (~1e-15). Integrating across them would floor every distance
# between congruent shapes near sqrt(noise); dropping them costs
# O(eps) accuracy on genuine gaps, which are many orders wider.
SNAP_EPS = 1e-12


# ---------------------------------------------------------------------------
# Zhang-Suen thinning subiteration
#
# Operates on a zero-padded uint8 0/1 image in place and returns the
# number of deleted pixels. `step` selects the subiteration (0 or 1).
# Deletion is simultaneous: every code is read before any pixel clears.
# ---------------------------------------------------------------------------


@functools.cache
def _zhang_suen_tables():
    """Deletion flag of every 3 x 3 neighbourhood code, one row per step.

    Bit 8 is the top-left pixel and bit 0 the bottom-right, in raster
    order, so the centre is bit 4. Neighbours are named as in Zhang and
    Suen (CACM 27(3), 1984): p2 above, then clockwise to p9 top-left.

    Built on first use rather than at import: its integer array
    operations page in numpy code (about 0.5 MB resident) that a process
    which never thins would not otherwise load.
    """
    code = np.arange(512)
    p9, p2, p3, p8, c, p4, p7, p6, p5 = ((code >> k) & 1 for k in range(8, -1, -1))
    ring = (p2, p3, p4, p5, p6, p7, p8, p9)
    b = sum(ring)
    a = sum((cur == 0) & (nxt == 1) for cur, nxt in zip(ring, ring[1:] + ring[:1]))
    core = (c == 1) & (b >= 2) & (b <= 6) & (a == 1)
    table = np.stack([
        core & (p2 * p4 * p6 == 0) & (p4 * p6 * p8 == 0),
        core & (p2 * p4 * p8 == 0) & (p2 * p6 * p8 == 0),
    ])
    table.flags.writeable = False  # shared by every call
    return table


def zhang_suen_pass(img, step):
    """One subiteration on a padded uint8 0/1 image, in place; pixels deleted."""
    rows = (img[:, :-2] << 2) | (img[:, 1:-1] << 1) | img[:, 2:]
    code = (rows[:-2].astype(np.uint16) << 6) | (rows[1:-1] << 3) | rows[2:]
    kill = _zhang_suen_tables()[step].take(code)
    img[1:-1, 1:-1][kill] = 0
    return int(np.count_nonzero(kill))


# ---------------------------------------------------------------------------
# Alignment search
#
# Every minutia pair (a, b) proposes a transform: rotate the first set by
# the angle-label difference, then translate a onto b. Pairs passing both
# tolerances are matched greedily in order of increasing spatial
# distance, ties broken by generation order (a-index major). The winning
# hypothesis maximizes the matched count, then minimizes the summed
# matched distance, then comes earliest in (a, b) order.
#
# The search is branch and bound. Under hypothesis (a, b), input i can
# pair with template j only if i, seen from a's frame (origin at a, axis
# along theta_a), lies within r0 of j seen from b's frame, and the two
# orientations relative to the anchors differ by at most theta0: that is
# the tolerance test itself, rewritten in anchor-relative terms that do
# not depend on the other hypotheses. The greedy count k of (a, b) is at
# most the smaller of the number of distinct i and of distinct j with
# such a partner. Hypotheses are verified in order of descending bound
# until the bound drops below the best k found, so the winner is the
# one the exhaustive search finds.
# ---------------------------------------------------------------------------

# Pad on both tolerances inside the bound (times the coordinate scale
# for distances), far above float rounding and far below any tolerance,
# so that rounding at a tolerance edge never prunes a valid hypothesis.
BOUND_EPS = 1e-6

# Working memory of one pass of the bound computation, in bytes: at
# most this plus one anchor's worth, whatever the set sizes.
PASS_BYTES = 1 << 18


def _verify(xi, yi, ti, xj, yj, tj, ki, kj, strict, r2, theta0, a, b):
    """Greedy pairing under hypothesis (a, b): (k, ssum, pairs_i, pairs_j)."""
    m = xi.shape[0]
    n = xj.shape[0]
    dth = (tj[b] - ti[a]) % 360.0
    rad = dth * math.pi / 180.0
    cosv, sinv = math.cos(rad), math.sin(rad)
    dx = xj[b] - (cosv * xi[a] - sinv * yi[a])
    dy = yj[b] - (sinv * xi[a] + cosv * yi[a])
    px = cosv * xi - sinv * yi + dx
    py = sinv * xi + cosv * yi + dy
    d2 = (px[:, None] - xj[None, :]) ** 2 + (py[:, None] - yj[None, :]) ** 2
    diff = np.abs((ti[:, None] + dth) % 360.0 - tj[None, :])
    diff = np.minimum(diff, 360.0 - diff)
    ok = (d2 <= r2) & (diff <= theta0)
    if strict:
        ok &= ki[:, None] == kj[None, :]
    ii, jj = np.nonzero(ok)  # row-major: i-major, j-minor
    sd = np.sqrt(d2[ii, jj])
    order = np.argsort(sd, kind="stable")
    used_i = np.zeros(m, bool)
    used_j = np.zeros(n, bool)
    pi, pj = [], []
    ssum = 0.0
    for idx in order:
        i, j = ii[idx], jj[idx]
        if used_i[i] or used_j[j]:
            continue
        used_i[i] = True
        used_j[j] = True
        pi.append(i)
        pj.append(j)
        ssum += sd[idx]
    return len(pi), ssum, np.asarray(pi, np.int64), np.asarray(pj, np.int64)


def _local_frames(x, y, t):
    """Every point of a set seen from every point: (anchor, point) arrays.

    Position is rotated into the anchor's frame, orientation is taken
    relative to the anchor's, in [0, 360).
    """
    rad = t * (math.pi / 180.0)
    c = np.cos(rad)[:, None]
    s = np.sin(rad)[:, None]
    dx = x[None, :] - x[:, None]
    dy = y[None, :] - y[:, None]
    return c * dx + s * dy, c * dy - s * dx, (t[None, :] - t[:, None]) % 360.0


def _alignment_bounds(xi, yi, ti, xj, yj, tj, r0, theta0):
    """Upper bound on the greedy count of every hypothesis, (a, b) order.

    The template's n^2 local points go into a dense grid of cells at
    least r0 wide, so every partner of an input local point lies in the
    3 x 3 cells around it: three runs of consecutive cells, one per row.
    Candidates from those runs get the exact tests; each survivor marks
    its i and its j as pairable under its (a, b).
    """
    m = xi.shape[0]
    n = xj.shape[0]
    scale = max(1.0, r0, *(float(np.abs(v).max()) for v in (xi, yi, xj, yj)))
    r_pad = r0 + BOUND_EPS * scale
    t_pad = theta0 + BOUND_EPS
    ix, iy, it = _local_frames(xi, yi, ti)
    jx, jy, jt = _local_frames(xj, yj, tj)
    if not all(np.isfinite(v).all() for v in (ix, iy, jx, jy)):
        # coordinates so far apart that their differences overflow: no
        # bound, every hypothesis gets verified
        return np.full(m * n, min(m, n))

    # cells wider than r_pad by one more pad, so no rounding in the cell
    # index can put two partners two cells apart; wider still when the
    # points spread far, so the table has at most 153 x 153 cells and
    # its keys fit int16, which numpy sorts by radix
    x0, y0 = float(jx.min()), float(jy.min())
    span = max(float(jx.max()) - x0, float(jy.max()) - y0)
    cell = max(r_pad + BOUND_EPS * scale, span / 150)
    # one empty cell of margin on every side: clamping a query's cell to
    # the inside then only ever widens its 3 x 3 neighbourhood
    gx = (np.floor((jx - x0) / cell) + 1).astype(np.intp)
    gy = (np.floor((jy - y0) / cell) + 1).astype(np.intp)
    nx = int(gx.max()) + 2
    ny = int(gy.max()) + 2
    key = (gy * nx + gx).ravel().astype(np.int16)
    order = np.argsort(key, kind="stable")
    start = np.zeros(nx * ny + 1, np.intp)
    np.cumsum(np.bincount(key, minlength=nx * ny), out=start[1:])
    sx = jx.ravel().take(order)
    sy = jy.ravel().take(order)
    st = jt.ravel().take(order)
    sb, sj = np.divmod(order, n)

    # every input local point queries three runs of three cells, one
    # run per row of its 3 x 3 neighbourhood
    qx, qy, qt = ix.ravel(), iy.ravel(), it.ravel()
    cx = np.clip(np.floor((qx - x0) / cell) + 1, 1, nx - 2).astype(np.intp)
    cy = np.clip(np.floor((qy - y0) / cell) + 1, 1, ny - 2).astype(np.intp)
    first = (cy * nx + cx - 1)[None, :] + np.arange(-nx, nx + 1, nx)[:, None]
    lo = start[first]
    cnt = start[first + 3] - lo

    # passes over runs of consecutive anchors; an anchor costs about 64
    # bytes per candidate plus its n * (m + n) pairability marks
    cost = 64 * cnt.reshape(3, m, m).sum(axis=(0, 2)) + n * (m + n)
    group = (np.cumsum(cost) - cost) // PASS_BYTES
    cuts = [0, *(np.flatnonzero(np.diff(group)) + 1).tolist(), m]
    bound = np.empty(m * n, np.intp)
    for a0, a1 in zip(cuts[:-1], cuts[1:]):
        lo_p = lo[:, a0 * m:a1 * m].ravel()
        cnt_p = cnt[:, a0 * m:a1 * m].ravel()
        # intp indices throughout: numpy gathers with them several
        # times faster than with int32
        skip = lo_p - (np.cumsum(cnt_p) - cnt_p)
        pos = np.arange(int(cnt_p.sum())) + np.repeat(skip, cnt_p)
        q = np.repeat(np.tile(np.arange(a0 * m, a1 * m), 3), cnt_p)
        ddx = qx.take(q) - sx.take(pos)
        ddy = qy.take(q) - sy.take(pos)
        dt = np.abs(qt.take(q) - st.take(pos))
        ok = (ddx * ddx + ddy * ddy <= r_pad * r_pad) & (np.minimum(dt, 360.0 - dt) <= t_pad)
        q = q[ok]
        pos = pos[ok]
        hyp = (q // m - a0) * n + sb.take(pos)  # within the pass
        size = (a1 - a0) * n
        has_i = np.zeros(size * m, bool)
        has_j = np.zeros(size * n, bool)
        has_i[hyp * m + q % m] = True
        has_j[hyp * n + sj.take(pos)] = True
        bound[a0 * n:a1 * n] = np.minimum(has_i.reshape(size, m).sum(axis=1), has_j.reshape(size, n).sum(axis=1))
    return bound


def best_alignment(xi, yi, ti, xj, yj, tj, ki, kj, strict, r0, theta0):
    """Winning hypothesis and its pairing: (a, b, pairs_i, pairs_j, ssum).

    Same result as verifying all m * n hypotheses, from only those whose
    bound can still reach the best count. `strict` only removes
    candidates, so the bound ignores it. Empty sets give (0, 0, [], [], 0).
    """
    m = xi.shape[0]
    n = xj.shape[0]
    if m == 0 or n == 0:
        return 0, 0, np.empty(0, np.int64), np.empty(0, np.int64), 0.0
    bound = _alignment_bounds(xi, yi, ti, xj, yj, tj, r0, theta0)
    r2 = r0 * r0
    best = None  # (k, ssum, hypothesis, pairs_i, pairs_j)
    # descending bound, then (a, b); a level below the best k cannot win,
    # a level equal to it still can, on ssum
    level = int(bound.max())
    while best is None or level >= best[0]:
        for h in np.flatnonzero(bound == level).tolist():
            k, ssum, pi, pj = _verify(xi, yi, ti, xj, yj, tj, ki, kj, strict, r2, theta0, *divmod(h, n))
            # a later level can hold an earlier (a, b), so that rule is explicit
            if best is None or k > best[0] or (k == best[0] and (ssum < best[1] or (ssum == best[1] and h < best[2]))):
                best = (k, ssum, h, pi, pj)
        level -= 1
    a, b = divmod(best[2], n)
    return a, b, best[3], best[4], best[1]


# ---------------------------------------------------------------------------
# Turning-distance critical-shift scan
#
# Both turning functions are step functions on [0, 1). At a fixed shift
# the optimal rotation has a closed form for the L2 norm, and the
# shift-minimum is attained where two breakpoints align, so only the
# m*n critical shifts need evaluation. The moments of the difference are
# integrated exactly over the merged breakpoint partition.
# ---------------------------------------------------------------------------


def min_turning_distance(fs, fa, gs, ga):
    """(distance, shift, rotation) minimized over all m * n critical shifts.

    All shifts at once, via a sorted merged-break table.
    """
    m = fs.shape[0]
    n = gs.shape[0]
    shifts = (fs[:, None] - gs[None, :]).ravel() % 1.0  # i-major, like the reference scan
    ns = shifts.shape[0]
    pos_f = (fs[None, :] - shifts[:, None]) % 1.0
    val_f = fa[None, :] + TWO_PI * (fs[None, :] < shifts[:, None])
    tot = m + n
    pos = np.concatenate([pos_f, np.broadcast_to(gs, (ns, n))], axis=1)
    val = np.concatenate([val_f, np.broadcast_to(ga, (ns, n))], axis=1)
    isf = np.zeros((ns, tot), bool)
    isf[:, :m] = True
    order = np.argsort(pos, axis=1, kind="stable")
    pos = np.take_along_axis(pos, order, 1)
    val = np.take_along_axis(val, order, 1)
    isf = np.take_along_axis(isf, order, 1)

    col = np.arange(tot)[None, :]
    f_idx = np.maximum.accumulate(np.where(isf, col, -1), axis=1)
    g_idx = np.maximum.accumulate(np.where(~isf, col, -1), axis=1)
    fv = np.take_along_axis(val, np.maximum(f_idx, 0), 1)
    gv = np.take_along_axis(val, np.maximum(g_idx, 0), 1)
    # before the first break of a function its value wraps around from
    # the last break minus a full turn
    k0 = (fs[None, :] < shifts[:, None]).sum(axis=1)
    f_init = np.where(k0 > 0, fa[np.maximum(k0 - 1, 0)] + TWO_PI, fa[m - 1]) - TWO_PI
    g_init = ga[n - 1] - TWO_PI
    fv = np.where(f_idx < 0, f_init[:, None], fv)
    gv = np.where(g_idx < 0, g_init, gv)

    widths = np.empty((ns, tot))
    widths[:, :-1] = pos[:, 1:] - pos[:, :-1]
    widths[:, -1] = 1.0 - pos[:, -1]
    widths[widths <= SNAP_EPS] = 0.0
    h = fv - gv
    i1 = (h * widths).sum(axis=1)
    # two-pass form: summing squared deviations sidesteps the
    # cancellation of E[h^2] - E[h]^2 near zero distances
    dev = h - i1[:, None]
    d2 = (dev * dev * widths).sum(axis=1)
    best = int(np.argmin(d2))  # first minimum, same tie rule as the reference scan
    return math.sqrt(max(d2[best], 0.0)), float(shifts[best]), float(-i1[best])
