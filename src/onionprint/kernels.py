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
relative orientation, then position. As geometric hashing does with
its invariants (Wolfson and Rigoutsos, IEEE CSE 4(4), 1997), each print
files its anchor-relative points once per grid (``Print``), and a pair
only joins two filed prints. ``benchmarks/bench_kernels.py`` times the
kernels against their references.
"""

import collections
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
# The partners are found over all hypotheses at once, in two halves.
# Once per print and grid, `_prepare` files the print's anchor-relative
# points by orientation slab, cell row and cell column. The grid is
# fixed by r0, theta0 and the scale class S, the smallest power of two
# at least the pair's coordinate scale (`_grid`): slabs are at least
# 2 theta0 and cells at least 2 r0 wide, each plus the widest pads of
# the class, so an input point's partners lie in the 2 x 2 x 2 cells
# from its first one, and one grid serves every pair of the class,
# whatever the other print. Per pair only `_join` runs: each input point
# looks its cells up in the template's table, the candidates get the
# exact tests at the pair's own pads, and each hypothesis counts the
# distinct i and j among its few survivors.
#
# An anchor's own point is the origin of its frame. So under (a, b) the
# anchors a and b are partners, which adds 1 to both counts, and their
# other partners are the points within the pads of their own anchor: a
# short list per print. The anchors' own points enter neither the table
# nor the queries.
# ---------------------------------------------------------------------------

# Pad on both tolerances inside the bound (times the coordinate scale
# for distances), far above float rounding and far below any tolerance,
# so that rounding at a tolerance edge never prunes a valid hypothesis.
BOUND_EPS = 1e-6

# Working memory of one pass of the join, in bytes: at most this plus
# one anchor's worth, whatever the set sizes. The candidates from an
# anchor's cells dominate it; the prints' tables are outside the passes,
# and so are the survivors' keys, at most 8 bytes per distinct
# (hypothesis, point) pair.
# Passes this small reuse the memory the last one freed: at 4 MB, one
# pass per pair, the benchmark's verify pairs faulted in 3.3 times the
# pages, which the fewer numpy calls did not make up for.
PASS_BYTES = 1 << 19

# Cells are at least 1/SIDE of the widest spread of anchor-relative
# points in a scale class, 4 sqrt(2) S, so a print's points span at most
# SIDE + 2 of them a side, and its table at most MAX_SLABS (SIDE + 4)^2
# buckets, 4.3 MB of int32 offsets. A print of 45 minutiae spread over
# 400 pixels has some 13,000.
SIDE = 179
MAX_SLABS = 32


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


def _distinct_counts(key, k, size):
    """Number of distinct keys h k + idx (idx below k) per h in [0, size)."""
    key = np.sort(key)
    new = np.empty(key.shape[0], bool)
    new[:1] = True
    np.not_equal(key[1:], key[:-1], out=new[1:])
    return np.bincount(key[new] // k, minlength=size)


class Print:
    """A minutia set as the alignment search reads it: its x, y and angle
    arrays and, each built on first use and then kept, its
    anchor-relative points and its table on each grid it has been
    aligned on. `len` is the set's size.

    `best_alignment` takes a Print in place of a set's x array. A
    `MinutiaSet` keeps one (`MinutiaSet.prepared`), so that a print
    aligned against many others is prepared once per grid.
    """

    __slots__ = ("x", "y", "t", "extent", "_frames", "_tables")

    def __init__(self, x, y, t):
        self.x, self.y, self.t = x, y, t
        self.extent = max(float(np.abs(v).max(initial=0.0)) for v in (x, y))
        self._frames = None
        self._tables = {}

    def __len__(self):
        return self.x.shape[0]

    def table(self, grid):
        """The print's table on `grid`, or None when its anchor-relative
        coordinates overflow."""
        if grid not in self._tables:
            if self._frames is None:
                frames = [v.ravel() for v in _local_frames(self.x, self.y, self.t)]
                self._frames = frames if all(np.isfinite(v).all() for v in frames[:2]) else ()
            self._tables[grid] = _prepare(*self._frames, len(self), grid) if self._frames else None
        return self._tables[grid]


def _print(x, y, t):
    """`x` if it is a Print, else a Print of the three arrays."""
    return x if isinstance(x, Print) else Print(x, y, t)


def _grid(r0, theta0, scale):
    """The grid of every pair whose coordinate scale is in the class of
    `scale`: (r_far, t_pad, cell, lead, slabs, width, lead_t).

    The class S is the smallest power of two at least `scale`, or inf
    past the largest float. r_far = r0 + BOUND_EPS S is the widest
    position pad of the class, and t_pad is every pair's. A partner lies
    within reach of its query, half a pad more than the widest tests
    allow, so no rounding in a cell or slab index can put it outside
    the query's two: a query's first cell starts `lead` cells, and its
    first slab `lead_t` slabs, below it. Cells are at least 1/SIDE of the
    spread of the class wide, so no cell index exceeds SIDE / 2 + 1 in
    magnitude, and an infinite cell (an infinite r0, or a spread that
    overflows) holds every point, in cell 0.
    """
    frac, exp = math.frexp(scale)
    if frac == 0.5 or scale == math.inf:
        size = scale
    else:
        size = math.ldexp(1.0, exp) if exp < 1024 else math.inf
    r_far = r0 + BOUND_EPS * size
    reach_r = r_far + BOUND_EPS * size / 2
    t_pad = theta0 + BOUND_EPS
    reach_t = t_pad + BOUND_EPS / 2
    cell = max(2 * reach_r, 4 * math.sqrt(2.0) * size / SIDE)
    slabs = max(1, min(int(360.0 / (2 * reach_t)), MAX_SLABS))
    width = 360.0 / slabs
    return r_far, t_pad, cell, reach_r / cell if cell < math.inf else 0.0, slabs, width, reach_t / width


# A print's table on one grid: see `_prepare`
_Table = collections.namedtuple("_Table", "x y t index start x0 y0 nx ny qx qy qs own own_r2")


def _prepare(x, y, t, m, grid):
    """A print's table on `grid`, from its anchor-relative points x, y, t:
    flat and anchor-major, i seen from a at a m + i.

    Bucket (s, r, c) lists, by their place in x, y, t (`index`), the
    points other than the anchors' own in slabs s and s + 1, rows r and
    r + 1 and column c, so that a query's 2 x 2 x 2 cells are two
    consecutive buckets: every point is filed four times, twice when
    there is one slab. The buckets span the print's own cells, with one
    empty column past the last so that a query's two columns stay in one
    row, and `start` holds each bucket's first place in `index`; both are
    uint16 when the entries fit, int32 otherwise. Every point also keeps
    its first query cell (`qx`, `qy`, `qs`: global column, row and slab,
    int16), and `own` lists the points within the widest pads of the
    class of their anchor, `own_r2` their squared distances from it.
    """
    r_far, t_pad, cell, lead, slabs, width, lead_t = grid
    off = np.arange(m * (m - 1))
    off += off // m + 1  # the places of the points other than the anchors' own
    ox, oy, ot = x.take(off), y.take(off), t.take(off)
    gx = np.floor(ox / cell).astype(np.intp)
    gy = np.floor(oy / cell).astype(np.intp)
    gt = np.floor(ot / width).astype(np.intp)
    gt[gt == slabs] = 0  # 360 is slab 0
    x0 = int(gx.min(initial=0))
    y0 = int(gy.min(initial=0)) - 1
    nx = int(gx.max(initial=0)) - x0 + 2
    ny = int(gy.max(initial=0)) - y0 + 1
    # each point goes to the buckets of its slab and the one before, of
    # its row and the one below
    slab = np.stack([gt, gt - 1 + slabs * (gt == 0)][:min(slabs, 2)]) * (ny * nx)
    key = (slab[:, None] + ((gy - y0) * nx + (gx - x0) - np.array([[0], [nx]]))).ravel()
    size = slabs * ny * nx
    small = np.uint16 if key.shape[0] <= np.iinfo(np.uint16).max else np.int32
    start = np.zeros(size + 1, small)
    start[1:] = np.cumsum(np.bincount(key, minlength=size))
    index = np.tile(off.astype(small), 2 * slab.shape[0]).take(_stable_order(key, size))
    r2 = ox * ox + oy * oy
    near = np.flatnonzero((r2 <= r_far * r_far) & (np.minimum(ot, 360.0 - ot) <= t_pad))
    qs = np.floor(t / width - lead_t).astype(np.int16)
    qs[qs < 0] += slabs
    return _Table(x, y, t, index, start, x0, y0, nx, ny,
                  np.floor(x / cell - lead).astype(np.int16), np.floor(y / cell - lead).astype(np.int16),
                  qs, off.take(near), r2.take(near))


def _stable_order(key, size):
    """np.argsort(key, kind="stable") for keys in [0, size), size at most
    2^32: by 16-bit digits, which numpy sorts by radix."""
    order = np.argsort(key.astype(np.uint16), kind="stable")
    if size > 1 << 16:
        order = order.take(np.argsort((key.take(order) >> 16).astype(np.uint16), kind="stable"))
    return order


def _alignment_bounds(xi, yi, ti, xj, yj, tj, r0, theta0):
    """Upper bound on the greedy count of every hypothesis, (a, b) order,
    for two sets given as `best_alignment` takes them: a Print prepares
    itself once per grid, and arrays are prepared for this pair alone."""
    set_i, set_j = _print(xi, yi, ti), _print(xj, yj, tj)
    m = len(set_i)
    n = len(set_j)
    if r0 == math.inf and theta0 >= 180.0:
        # every input point is a partner of every template point
        return np.full(m * n, min(m, n))
    scale = max(1.0, r0, set_i.extent, set_j.extent)
    grid = _grid(r0, theta0, scale)
    qt, tt = set_i.table(grid), set_j.table(grid)
    if qt is None or tt is None:
        # coordinates so far apart that their differences overflow: no
        # bound, every hypothesis gets verified
        return np.full(m * n, min(m, n))
    return _join(qt, tt, m, n, r0 + BOUND_EPS * scale, grid[1])


def _join(qt, tt, m, n, r_pad, t_pad):
    """The bounds of input table qt against template table tt at the
    pair's pads.

    Every input point other than an anchor's own reads the bucket of its
    first slab, row and column, clamped to the template's range, which
    only ever adds candidates, and the bucket after it.
    """
    key = ((qt.qs.astype(np.int32) * tt.ny + np.clip(qt.qy - tt.y0, 0, tt.ny - 1)) * tt.nx
           + np.clip(qt.qx - tt.x0, 0, tt.nx - 2))
    lo = tt.start.take(key)
    cnt = tt.start.take(key + 2) - lo
    cnt[::m + 1] = 0

    # Each survivor (a m + i, b n + j) adds key (a n + b) m + i to the
    # input's keys and (a n + b) n + j to the template's. From the
    # own-point lists at the pair's pads: input i near its anchor a meets
    # b's own point under every (a, b), and template j near b meets a's
    # own point under every (a, b).
    r2 = r_pad * r_pad
    a, i = np.divmod(qt.own[qt.own_r2 <= r2], m)
    b, j = np.divmod(tt.own[tt.own_r2 <= r2], n)
    keys_i = [(((a * n)[:, None] + np.arange(n)) * m + i[:, None]).ravel()]
    keys_j = [(((np.arange(m) * n)[:, None] + b) * n + j).ravel()]

    # passes over runs of consecutive anchors; an anchor costs about 128
    # bytes per candidate and 40 per query
    cuts = [0, m]
    if 128 * int(cnt.sum()) + 40 * m * m > PASS_BYTES:
        group = np.cumsum(128 * cnt.reshape(m, m).sum(axis=1) + 40 * m) // PASS_BYTES
        cuts[1:1] = (np.flatnonzero(np.diff(group)) + 1).tolist()
    for a0, a1 in zip(cuts[:-1], cuts[1:]):
        lo_p = lo[a0 * m:a1 * m]
        cnt_p = cnt[a0 * m:a1 * m]
        ends = np.cumsum(cnt_p, dtype=np.intp)
        pos = np.repeat(lo_p - ends + cnt_p, cnt_p)
        pos += np.arange(pos.shape[0])
        q = np.repeat(np.arange(a0 * m, a1 * m), cnt_p)
        p = tt.index.take(pos).astype(np.intp)  # numpy gathers fastest by intp
        # position first: it passes a fifth of the candidates, orientation half
        dx = qt.x.take(q) - tt.x.take(p)
        dy = qt.y.take(q) - tt.y.take(p)
        near = np.flatnonzero(dx * dx + dy * dy <= r2)
        q = q.take(near)
        p = p.take(near)
        dt = np.abs(qt.t.take(q) - tt.t.take(p))
        ok = np.flatnonzero(np.minimum(dt, 360.0 - dt) <= t_pad)
        q = q.take(ok)
        p = p.take(ok)
        a = q // m
        keys_i.append(q + (a * (n - 1) + p // n) * m)
        keys_j.append(p + a * (n * n))
        if sum(k.shape[0] for k in keys_i) > PASS_BYTES // 16:
            # survivors beyond a pass's worth are kept once per distinct key
            keys_i = [np.unique(np.concatenate(keys_i))]
            keys_j = [np.unique(np.concatenate(keys_j))]
    return 1 + np.minimum(_distinct_counts(np.concatenate(keys_i), m, m * n),
                          _distinct_counts(np.concatenate(keys_j), n, m * n))


@np.errstate(over="ignore", invalid="ignore")
def best_alignment(xi, yi, ti, xj, yj, tj, r0, theta0):
    """Winning hypothesis and its pairing: (a, b, pairs_i, pairs_j, ssum).

    Same result as verifying all m * n hypotheses, from only those whose
    bound can still reach the best count. Minutia kind plays no part.
    Each set comes as its x, y and angle arrays; its `Print` may stand in
    for its x array, and then brings the tables its earlier pairs built.
    Empty sets give (0, 0, [], [], 0). Differences that overflow (points
    some 1e308 apart) get no bound and fail every tolerance test, which
    numpy need not warn about.
    """
    set_i, set_j = _print(xi, yi, ti), _print(xj, yj, tj)
    m = len(set_i)
    n = len(set_j)
    if m == 0 or n == 0:
        return 0, 0, np.empty(0, np.int64), np.empty(0, np.int64), 0.0
    bound = _alignment_bounds(set_i, set_i.y, set_i.t, set_j, set_j.y, set_j.t, r0, theta0)
    xi, yi, ti, xj, yj, tj = set_i.x, set_i.y, set_i.t, set_j.x, set_j.y, set_j.t
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
