"""Hot numeric kernels.

Three kernels dominate runtime: the thinning subiteration, the alignment
search over minutia-pair hypotheses, and the turning-function distance,
which one call encodes and scans for every peer ring pair of a
fingerprint pair; this module alone knows the layout of its tables.
Each has one numpy implementation;
``tests/oracles.py`` keeps a plain reference for each, and the tests
compare the two.

The thinning subiteration is bitwise logic on bit-packed rows, 64
pixels to a uint64 word: the eight neighbours of every pixel are the
packed image shifted by a row or by a bit, and Zhang and Suen's deletion
rule, written over those planes, takes about 45 numpy operations per
subiteration, whatever the image holds. Despeckling and crossing-number
detection read the same planes. ``tests/oracles.py`` keeps the 512-entry
tables of both rules, and the tests check the logic against them on
every neighbourhood, placed across a word boundary.

The alignment search, ``best_alignment``, is an exact branch and bound:
an upper bound on every hypothesis's matched count, computed from
anchor-relative invariants padded by ``BOUND_EPS``, decides which
hypotheses are verified, and the result is the one the exhaustive
search gives. The bound finds partners by fixed-radius cell bucketing
(Bentley, Stanat and Williams, IPL 6(6), 1977) in three dimensions:
relative orientation, then position. ``benchmarks/bench_kernels.py``
times the kernels against their references.
"""

import functools
import itertools
import math

import numpy as np

from .errors import InvalidInputError

TWO_PI = 2.0 * math.pi

# Merged-partition cells narrower than this are rounding slivers: two
# breakpoints that coincide in exact arithmetic but differ by float
# noise (~1e-15). Integrating across them would floor every distance
# between congruent shapes near sqrt(noise); dropping them costs
# O(eps) accuracy on genuine gaps, which are many orders wider.
SNAP_EPS = 1e-12


# ---------------------------------------------------------------------------
# 3 x 3 neighbourhoods on bit-packed rows: despeckling, Zhang-Suen
# thinning and crossing numbers
#
# A binary image is packed once into uint64 words, 64 pixels a word:
# pixel x of a row is bit x % 64 of the row's word x // 64, and each
# row ends in at least one zero bit. A zero row lies above and below
# the image, and the rows lie end to end in one flat array. The pixels
# above and below are then that array shifted by a row of words, and
# the east and west neighbours are its words shifted by one bit, each
# taking the carry from the next or previous word; a carry across a row
# end is a zero bit. Every rule is bitwise logic on the centre and its
# eight neighbour planes, 64 pixels per operation, and every pixel reads
# the image as it was before the rule applies. No rule sets a padding
# bit: deletion clears only foreground pixels, and a hole is filled only
# where all eight neighbours are set, which no padding bit has.
#
# The ring runs clockwise from the pixel above, p2 to p9 as Zhang and
# Suen name it (CACM 27(3), 1984): the 4-neighbours a0..a3 = p2, p4, p6,
# p8, and the diagonals d0..d3 = p3, p5, p7, p9 between them. Along
# a_j, d_j, a_j+1 the ring has at most one 0-to-1 transition,
# (d_j | a_j+1) ^ (a_j & d_j), so the four of them sum to the crossing
# number (Rutovitz 1966).
# ---------------------------------------------------------------------------


def pack_rows(binary):
    """A 2-D 0/1 or boolean image, bit-packed and zero-padded."""
    h, w = binary.shape
    packed = np.zeros((h + 2, w // 64 + 1), "<u8")
    packed.view(np.uint8)[1:-1, :(w + 7) // 8] = np.packbits(binary, axis=1, bitorder="little")
    return packed


def _bytes(words):
    """Little-endian bytes of uint64 words, 8 per word."""
    return words.astype("<u8", copy=False).view(np.uint8)


def unpack_rows(packed, width):
    """The uint8 0/1 image, `width` columns wide, that `packed` holds."""
    return np.unpackbits(_bytes(packed[1:-1]), axis=1, count=width, bitorder="little")


def _ring(packed):
    """Centre, then a0, d0, a1, d1, a2, d2, a3, d3, of every pixel of a
    packed image's rows, as flat word arrays; the centre is a view."""
    words = packed.shape[1]
    flat = packed.reshape(-1)
    east = flat >> 1
    east[:-1] |= flat[1:] << 63
    west = flat << 1
    west[1:] |= flat[:-1] >> 63
    up, mid, down = slice(0, -2 * words), slice(words, -words), slice(2 * words, None)
    return flat[mid], (flat[up], east[up], east[mid], east[down],
                       flat[down], west[down], west[mid], west[up])


def _transitions(ring):
    """The ring's 0-to-1 transitions along a_j, d_j, a_j+1, j = 0..3."""
    a0, d0, a1, d1, a2, d2, a3, d3 = ring
    return [(d | b) ^ (a & d) for a, d, b in ((a0, d0, a1), (a1, d1, a2), (a2, d2, a3), (a3, d3, a0))]


def despeckle_rows(packed):
    """Clear each foreground pixel with no foreground neighbour and set
    each background pixel with eight, in a packed image, in place."""
    centre, ring = _ring(packed)
    centre[:] = (centre & functools.reduce(np.bitwise_or, ring)) | functools.reduce(np.bitwise_and, ring)


def zhang_suen_pass(packed, step):
    """One Zhang-Suen subiteration on a packed image, in place; returns
    the pixels deleted. `step` (0 or 1) selects the subiteration.

    A foreground pixel goes when its ring has one 0-to-1 transition,
    2 <= B <= 6 foreground neighbours, and p4 p6 (p2 | p8) = 0 in step 0,
    p2 p8 (p4 | p6) = 0 in step 1. With one transition the foreground
    neighbours form one arc and the background ones another, and an arc
    longer than one pixel holds both an a_j and a d_j. So B >= 2 when
    some a_j and some d_j are set, which also rules out an empty ring,
    and B <= 6 when some a_j and some d_j are clear. A pixel that passes
    the step's test has some a_j clear, so only the d_j are tested, and
    they rule out a full ring too.
    """
    centre, ring = _ring(packed)
    a0, d0, a1, d1, a2, d2, a3, d3 = ring
    u0, u1, u2, u3 = _transitions(ring)
    kill = centre & (a0 | a1 | a2 | a3) & (d0 | d1 | d2 | d3)
    keep = d0 & d1 & d2 & d3
    keep |= a1 & a2 & (a0 | a3) if step == 0 else a0 & a3 & (a1 | a2)
    # two transitions or more
    keep |= ((u0 | u1) & (u2 | u3)) | (u0 & u1) | (u2 & u3)
    kill &= ~keep
    deleted = int(np.bitwise_count(kill).sum())
    if deleted:
        centre ^= kill
    return deleted


def crossing_minutiae(packed):
    """(y, x, bifurcation) of the minutiae of a packed skeleton, in
    raster order: the foreground pixels whose crossing number is 1, an
    ending, or at least 3, a bifurcation. Only the words that hold one
    are unpacked.
    """
    centre, ring = _ring(packed)
    u0, u1, u2, u3 = _transitions(ring)
    # bitwise counts: at least one, two, three transitions
    ones = u0 | u1
    twos = u0 & u1
    threes = twos & u2
    twos |= ones & u2
    ones |= u2
    threes |= twos & u3
    twos |= ones & u3
    ones |= u3
    bif = centre & threes
    found = (centre & (ones ^ twos)) | bif
    at = np.flatnonzero(found)
    bits = np.flatnonzero(np.unpackbits(_bytes(found[at]), bitorder="little"))
    word = at[bits >> 6]
    y, col = np.divmod(word, packed.shape[1])
    x = col * 64 + (bits & 63)
    return y, x, np.unpackbits(_bytes(bif[at]), bitorder="little")[bits].view(bool)


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
#
# The partners are found over all hypotheses at once. The template's
# n^2 anchor-relative points are bucketed by orientation slab, cell row
# and cell column, with slabs at least 2 theta0 and cells at least 2 r0
# wide, so an input point's partners lie in 2 x 2 x 2 buckets around it.
# Only the points in those buckets get the exact tests, and each
# hypothesis counts the distinct i and j among its few survivors.
# ---------------------------------------------------------------------------

# Pad on both tolerances inside the bound (times the coordinate scale
# for distances), far above float rounding and far below any tolerance,
# so that rounding at a tolerance edge never prunes a valid hypothesis.
BOUND_EPS = 1e-6

# Working memory of one pass of the bound computation, in bytes: at
# most this plus one anchor's worth, whatever the set sizes. The
# candidates from an anchor's buckets dominate it; the tables of
# anchor-relative points, n^2 and m^2 entries, are outside the passes.
PASS_BYTES = 1 << 18


def _verify(xi, yi, ti, xj, yj, tj, r2, theta0, a, b):
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
    relative to the anchor's, in [0, 360]: for angles in [0, 360) a
    negative difference plus 360 is what `% 360.0` gives, rounding to
    360.0 included, at a fraction of its cost.
    """
    rad = t * (math.pi / 180.0)
    c = np.cos(rad)[:, None]
    s = np.sin(rad)[:, None]
    dx = x[None, :] - x[:, None]
    dy = y[None, :] - y[:, None]
    dt = t[None, :] - t[:, None]
    return c * dx + s * dy, c * dy - s * dx, np.where(dt < 0.0, dt + 360.0, dt)


def _distinct_counts(hyp, idx, k, size):
    """Number of distinct idx (each below k) per hypothesis in [0, size)."""
    key = hyp * k + idx
    key.sort()
    new = np.empty(key.shape[0], bool)
    new[:1] = True
    np.not_equal(key[1:], key[:-1], out=new[1:])
    return np.bincount(key[new] // k, minlength=size)


def _alignment_bounds(xi, yi, ti, xj, yj, tj, r0, theta0):
    """Upper bound on the greedy count of every hypothesis, (a, b) order.

    The template's n^2 local points go into a table keyed by
    (orientation slab, cell row, cell column). Slabs are at least
    2 theta0 and cells at least 2 r0 wide, each plus the pads, so every
    partner of an input local point lies in 2 slabs x 2 rows x 2
    columns: up to four runs of two consecutive cells. Candidates from
    those runs get the exact tests, and the bound of (a, b) counts the
    distinct i and the distinct j among its survivors.
    """
    m = xi.shape[0]
    n = xj.shape[0]
    if r0 == math.inf and theta0 >= 180.0:
        # every input point is a partner of every template point
        return np.full(m * n, min(m, n))
    scale = max(1.0, r0, *(float(np.abs(v).max()) for v in (xi, yi, xj, yj)))
    r_pad = r0 + BOUND_EPS * scale
    t_pad = theta0 + BOUND_EPS
    ix, iy, it = _local_frames(xi, yi, ti)
    jx, jy, jt = _local_frames(xj, yj, tj)
    if not all(np.isfinite(v).all() for v in (ix, iy, jx, jy)):
        # coordinates so far apart that their differences overflow: no
        # bound, every hypothesis gets verified
        return np.full(m * n, min(m, n))

    # a partner lies within reach of its query, half a pad more than the
    # tests allow, so no rounding in a cell or slab index can put it
    # outside the query's two. Cells are wider still when the points
    # spread far, and slabs when cells are many, so the table has at
    # most 2^15 keys, which fit int16 and numpy sorts by radix. Cells
    # are at least BOUND_EPS times the largest coordinate magnitude
    # wide, so no index exceeds a few million before clamping.
    reach_r = r_pad + BOUND_EPS * scale / 2
    reach_t = t_pad + BOUND_EPS / 2
    keys = np.iinfo(np.int16).max + 1
    side = math.isqrt(keys) - 2  # (side + 2)^2 cells fit the keys
    x0, y0 = float(jx.min()), float(jy.min())
    span = max(float(jx.max()) - x0, float(jy.max()) - y0)
    cell = max(2 * reach_r, span / side)
    # a query's reach in cells; an infinite cell (infinite r0, or a
    # spread that overflows) holds every point, in cell 0
    lead = reach_r / cell if cell < math.inf else 0.0
    jx, jy, jt = jx.ravel(), jy.ravel(), jt.ravel()
    gx = np.floor(jx / cell - x0 / cell).astype(np.intp)
    gy = np.floor(jy / cell - y0 / cell).astype(np.intp)
    # one empty column and row past the last, so a query's two never wrap
    nx = int(gx.max()) + 2
    ny = int(gy.max()) + 2
    slabs = max(1, min(int(360.0 / (2 * reach_t)), keys // (nx * ny)))
    width = 360.0 / slabs
    gt = np.floor(jt / width).astype(np.intp) % slabs  # 360 is 0
    key = ((gt * ny + gy) * nx + gx).astype(np.int16)
    order = np.argsort(key, kind="stable")
    start = np.zeros(slabs * nx * ny + 1, np.intp)
    np.cumsum(np.bincount(key, minlength=slabs * nx * ny), out=start[1:])
    two = start[2:] - start[:-2]  # points in the two cells from each key on
    sx = jx.take(order)
    sy = jy.take(order)
    st = jt.take(order)
    sb, sj = np.divmod(order, n)

    # every input local point queries its first slab, row and column;
    # clamping them to the table only ever adds empty cells. Its runs
    # are (slab, row) = (s, r), (s, r + 1), (s + 1, r), (s + 1, r + 1),
    # slabs wrapping around, and one slab when there is only one.
    qx, qy, qt = ix.ravel(), iy.ravel(), it.ravel()
    cx = np.clip(np.floor(qx / cell - (x0 / cell + lead)), 0, nx - 2).astype(np.intp)
    cy = np.clip(np.floor(qy / cell - (y0 / cell + lead)), 0, ny - 2).astype(np.intp)
    first = cy * nx + cx
    if slabs > 1:
        s0 = np.floor(qt / width - reach_t / width).astype(np.intp) % slabs
        s1 = s0 + 1
        s1[s1 == slabs] = 0
        first = np.stack([s0, s1]) * (nx * ny) + first
    first = (first.reshape(-1, 1, m * m) + np.array([0, nx])[:, None]).reshape(-1, m * m)
    runs = first.shape[0]
    lo = start.take(first)
    cnt = two.take(first)

    # passes over runs of consecutive anchors; an anchor costs about 64
    # bytes per candidate and 40 per query run and per hypothesis
    cost = 64 * cnt.reshape(runs, m, m).sum(axis=(0, 2)) + 40 * (runs * m + n)
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
        q = np.repeat(np.tile(np.arange(a0 * m, a1 * m), runs), cnt_p)
        ddx = qx.take(q) - sx.take(pos)
        ddy = qy.take(q) - sy.take(pos)
        dt = np.abs(qt.take(q) - st.take(pos))
        ok = (ddx * ddx + ddy * ddy <= r_pad * r_pad) & (np.minimum(dt, 360.0 - dt) <= t_pad)
        q = q[ok]
        pos = pos[ok]
        hyp = (q // m - a0) * n + sb.take(pos)  # within the pass
        size = (a1 - a0) * n
        bound[a0 * n:a1 * n] = np.minimum(_distinct_counts(hyp, q % m, m, size),
                                          _distinct_counts(hyp, sj.take(pos), n, size))
    return bound


@np.errstate(over="ignore", invalid="ignore")
def best_alignment(xi, yi, ti, xj, yj, tj, r0, theta0):
    """Winning hypothesis and its pairing: (a, b, pairs_i, pairs_j, ssum).

    Same result as verifying all m * n hypotheses, from only those whose
    bound can still reach the best count. Minutia kind plays no part.
    Empty sets give (0, 0, [], [], 0). Differences that overflow (points
    some 1e308 apart) get no bound and fail every tolerance test, which
    numpy need not warn about.
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
            k, ssum, pi, pj = _verify(xi, yi, ti, xj, yj, tj, r2, theta0, *divmod(h, n))
            # a later level can hold an earlier (a, b), so that rule is explicit
            if best is None or k > best[0] or (k == best[0] and (ssum < best[1] or (ssum == best[1] and h < best[2]))):
                best = (k, ssum, h, pi, pj)
        level -= 1
    a, b = divmod(best[2], n)
    return a, b, best[3], best[4], best[1]


# ---------------------------------------------------------------------------
# Turning distance of convex rings
#
# A ring is encoded as a step function mapping normalized arc length in
# [0, 1) to the cumulative tangent direction in radians. The walk starts
# at the ring's lexicographically smallest vertex, so congruent rings
# produce identical encodings whatever their input order. Only edge
# differences enter the encoding, so it holds far from the origin too.
# Edge directions come from math.atan2 element by element: numpy's
# arctan2 picks its SIMD kernel by CPU, and the AVX-512 one rounds some
# results differently, so report scores would depend on the machine.
#
# Both turning functions are step functions on [0, 1). At a fixed shift
# the optimal rotation has a closed form for the L2 norm, and the
# shift-minimum is attained where two breakpoints align, so only the
# m*n critical shifts need evaluation. The moments of the difference are
# integrated exactly over the merged breakpoint partition.
#
# `min_turning_distance` is the way in: one call encodes every peer ring
# of a fingerprint pair and evaluates the critical shifts of every ring
# pair, one table row per shift. A row holds its pair's f breaks, then
# its g breaks, as if the pair were alone, then padding at position 1.0
# that a stable sort keeps after every break. Padding adds nothing to a
# row: the last break's cell still ends at 1.0, and each row, like each
# ring's perimeter, is summed over its own entries only (`row_sums`),
# since numpy's pairwise summation associates by the number of terms.
# ---------------------------------------------------------------------------

# Cells of one pass over the table, m * n rows of max(m + n) + 1 entries
# for each pair in it: a pass holds some 0.1 KB per cell, about 7 MB,
# whatever the batch. The pairs of 30-60 minutiae prints need some 4,000
# cells, one pass.
SHIFT_CELLS = 1 << 16


def row_sums(table, runs):
    """Sums over the last axis of a (..., K, V) table, each row over its
    first entries only: `runs` holds (size, rows) pairs that cover the K
    rows in order. Consecutive rows of one size are summed in one call,
    and every row sums exactly as it would alone.
    """
    out = np.empty(table.shape[:-1])
    start = 0
    for size, group in itertools.groupby(runs, key=lambda run: run[0]):
        stop = start + sum(rows for _, rows in group)
        out[..., start:stop] = table[..., start:stop, :size].sum(axis=-1)
        start = stop
    return out


def _frac(x):
    """x % 1.0 for finite x, bit for bit, at a fraction of its cost.

    numpy's float remainder is the exact fmod(x, 1.0), plus 1.0 when
    that is negative, which rounds once to x - floor(x); both give +0.0
    at the integers.
    """
    return x - np.floor(x)


_atan2 = np.frompyfunc(math.atan2, 2, 1)


def _encode(rings):
    """Turning functions of rings as `geometry.convex_layers` peels them,
    counterclockwise with 3 or more distinct vertices, as tables.

    Returns (breaks, angles, counts, perimeters): row k of the (K, V)
    tables holds ring k's turning function in its first counts[k]
    columns, and later columns continue the ring cyclically, so every
    entry is finite. Breaks run from 0.0, strictly increasing, below 1.0;
    angles[k, i], the direction of the edge leaving vertex i, is
    unwrapped so that one full tour adds exactly 2*pi. An encoding that
    overflows (edges some 1e154 long) raises InvalidInputError.
    """
    counts = np.array([len(ring) for ring in rings])
    flat = np.concatenate(rings, dtype=np.float64)
    x, y = flat[:, 0], flat[:, 1]
    base = (np.cumsum(counts) - counts)[:, None]
    # ring k starts at its first vertex in (x, y) order
    start = np.lexsort((y, x, np.repeat(np.arange(len(rings)), counts)))[base] - base
    # vertex c from the start, and the one after it
    walk = (np.arange(int(counts.max()) + 1) + start) % counts[:, None] + base
    with np.errstate(over="ignore", invalid="ignore"):
        ex = np.diff(x[walk])
        ey = np.diff(y[walk])
        lengths = np.hypot(ex, ey)
        perimeter = row_sums(lengths, [(size, 1) for size in counts.tolist()])
        breaks = np.zeros_like(lengths)
        np.cumsum(lengths[:, :-1], axis=1, out=breaks[:, 1:])
        breaks /= perimeter[:, None]
        # cross/dot of consecutive edges give the exterior turn at each
        # vertex after the first
        px, py, qx, qy = ex[:, :-1], ey[:, :-1], ex[:, 1:], ey[:, 1:]
        angles = np.zeros_like(lengths)
        turns = _atan2(px * qy - py * qx, px * qx + py * qy).astype(float)
        np.cumsum(turns, axis=1, out=angles[:, 1:])
        angles += _atan2(ey[:, :1], ex[:, :1]).astype(float)  # the first edge's direction
    if not (np.isfinite(perimeter).all() and np.isfinite(angles).all()):
        raise InvalidInputError("polygon too large: its turning function overflows")
    return breaks, angles, counts, perimeter


def min_turning_distance(rings_f, rings_g):
    """Turning distance of each ring pair (rings_f[r], rings_g[r]),
    minimized over the pair's m * n critical shifts, as a list.

    All rings are encoded at once, f[0], g[0], f[1], ... in that order,
    and all shifts of all pairs evaluated via one sorted merged-break
    table, in passes over consecutive pairs of at most SHIFT_CELLS cells
    (one pair at least), so that memory stays bounded whatever the batch.
    """
    if not rings_f:
        return []
    breaks, angles, counts, _ = _encode([r for pair in zip(rings_f, rings_g) for r in pair])
    fs, fa, m = breaks[0::2], angles[0::2], counts[0::2]
    gs, ga, n = breaks[1::2], angles[1::2], counts[1::2]
    cuts = [0]
    rows = width = 0
    for k, (mn, w) in enumerate(zip((m * n).tolist(), (m + n + 1).tolist())):
        rows += mn
        width = max(width, w)
        if k > cuts[-1] and rows * width > SHIFT_CELLS:
            cuts.append(k)
            rows, width = mn, w
    cuts.append(m.shape[0])
    parts = [_shift_pass(fs[a:b], fa[a:b], m[a:b], gs[a:b], ga[a:b], n[a:b])
             for a, b in zip(cuts[:-1], cuts[1:])]
    return np.concatenate(parts).tolist()


def _shift_pass(fs, fa, m, gs, ga, n):
    """The distances of `min_turning_distance` over one table: row r of
    `fs` and `fa` holds the breaks and angles of pair r's first turning
    function in its first m[r] columns, `gs` and `ga` those of its second
    in n[r]; later columns are ignored."""
    npairs = m.shape[0]
    tot = m + n
    mn = m * n
    width = int(tot.max()) + 1
    col = np.arange(width)
    # pair r's merged row before the shift: its f columns, its g columns,
    # then padding, as flat indices into [fs | gs | pad] row by row
    isf = col < m[:, None]
    mw, nw = fs.shape[1], gs.shape[1]
    src = np.where(isf, col, np.where(col < tot[:, None], mw - m[:, None] + col, mw + nw))
    src += (mw + nw + 1) * np.arange(npairs)[:, None]
    pad = np.ones((npairs, 1))

    # one row per critical shift: pair-major, then i-major like the
    # reference scan. The table is flat, `width` entries a row, so that
    # no operation broadcasts along rows this short.
    pair = np.repeat(np.arange(npairs), mn)
    first = np.cumsum(mn) - mn
    q = np.arange(pair.shape[0]) - first[pair]
    i, j = np.divmod(q, n[pair])
    shifts = _frac(fs[pair, i] - gs[pair, j])
    shift = np.repeat(shifts, width)
    src = src[pair].ravel()
    isf = isf[pair].ravel()
    pos = np.concatenate([fs, gs, pad], axis=1).take(src)
    val = np.concatenate([fa, ga, pad], axis=1).take(src)
    # shift the f entries only
    below = isf & (pos < shift)
    np.add(val, TWO_PI * below, out=val, where=isf)
    x = pos - shift
    np.subtract(x, np.floor(x), out=pos, where=isf)  # _frac(x), in place
    row0 = np.repeat(np.arange(0, pos.shape[0], width), width)
    order = np.argsort(pos.reshape(-1, width), axis=1, kind="stable").ravel() + row0
    pos = pos.take(order)
    val = val.take(order)
    isf = isf.take(order)

    # index of the last f (g) entry up to each entry; one before the
    # row's first means none yet, and the value wraps around from the
    # last break minus a full turn
    flat = np.arange(pos.shape[0])
    f_idx = np.maximum.accumulate(np.where(isf, flat, -1))
    g_idx = np.maximum.accumulate(np.where(isf, -1, flat))
    k0 = below.reshape(-1, width).sum(axis=1)
    fa_row = fa.shape[1] * pair
    f_init = np.where(k0 > 0, fa.take(fa_row + np.maximum(k0 - 1, 0)) + TWO_PI,
                      fa.take(fa_row + m[pair] - 1)) - TWO_PI
    g_init = (ga.take(ga.shape[1] * np.arange(npairs) + n - 1) - TWO_PI)[pair]
    fv = np.where(f_idx < row0, np.repeat(f_init, width), val.take(f_idx))
    gv = np.where(g_idx < row0, np.repeat(g_init, width), val.take(g_idx))

    # each cell runs to the next entry; a row's m + n cells end before
    # its padding, so its last cell ends at 1.0
    widths = np.zeros_like(pos)
    np.subtract(pos[1:], pos[:-1], out=widths[:-1])
    np.copyto(widths, 0.0, where=widths <= SNAP_EPS)
    h = fv - gv
    runs = list(zip(tot.tolist(), mn.tolist()))
    i1 = row_sums((h * widths).reshape(-1, width), runs)
    # two-pass form: summing squared deviations sidesteps the
    # cancellation of E[h^2] - E[h]^2 near zero distances
    dev = h - np.repeat(i1, width)
    d2 = row_sums((dev * dev * widths).reshape(-1, width), runs)
    # first minimum of each pair, same tie rule as the reference scan
    table = np.full((npairs, int(mn.max())), np.inf)
    table[pair, q] = d2
    best = first + np.argmin(table, axis=1)
    return np.sqrt(np.maximum(d2[best], 0.0))
