"""Grayscale fingerprint image to cleaned minutia set.

Pipeline: Otsu binarization (ridges are dark, so foreground means
intensity below threshold), despeckle, Zhang-Suen thinning, crossing-
number classification on the skeleton (1 an ending, 3 or more a
bifurcation), spurious-minutia cleanup (border removal, then merging
of detections within rm, found by grid-bucketed near-neighbor search),
and orientation by a short ridge trace. The binary image is bit-packed
once, 64 pixels to a word (`kernels.pack_rows`): despeckling, every
thinning subiteration and detection are bitwise logic on the packed
rows, and only the skeleton is unpacked, for the ridge trace.
Everything after detection works on plain arrays: detections are
parallel x, y and bifurcation-flag arrays, merging names each group's
representative by index, and `orientations` traces all the survivors
at once, every walker stepping together on the padded skeleton.
Merging places each cleaned minutia by position alone and gives it the
orientation of one raw detection, so only those representatives are
traced, not every detection. The numpy calls of the cleanup do not
grow with the number of groups, members or walkers: each merge round
sums all groups by `bincount`, each trace step advances every walker by
one table lookup, and bifurcations compare all their branch pairs at
once.
Coordinates are screen pixels (origin top-left, y down); angles are
degrees counterclockwise from +x in image space, so "up" is 270.
"""

import math

import numpy as np

from . import kernels
from .config import MatchConfig
from .errors import InvalidInputError
from .minutiae import MinutiaSet, quantize

# ridge-following horizon for orientation estimation, in skeleton steps
TRACE_STEPS = 10

# candidate pairs `merge_close` tests per batch; bounds its memory
MERGE_CHUNK = 1 << 18

# a ridge trace's state: the neighbour it last stepped to, _START before
# its first step, _STOPPED once it has stopped
_START, _STOPPED = 8, 9

# the move (dx, dy) into each state: the 8-neighborhood in raster order,
# where neighbour 7 - k lies opposite neighbour k, then no move
_OFF_X, _OFF_Y = np.array(((-1, -1), (0, -1), (1, -1), (-1, 0), (1, 0), (-1, 1), (0, 1), (1, 1),
                           (0, 0), (0, 0))).T

# neighbour k's bit in a neighbourhood code
_BIT = (1 << np.arange(8)).astype(np.uint8)


def _next_states():
    """_NEXT[code, state]: the state after one step. Bit k of `code` is
    set when neighbour k is foreground; the step goes to the only one
    other than the pixel the trace came from (neighbour 7 - state), and
    stops where there is none or more than one."""
    fg = (np.arange(256)[:, None, None] >> np.arange(8) & 1).astype(bool)
    came = 7 - np.arange(_STOPPED + 1)  # negative for _START and _STOPPED
    ahead = fg & (np.arange(8) != came[:, None])
    nxt = np.where(np.count_nonzero(ahead, axis=2) == 1, ahead.argmax(axis=2), _STOPPED)
    nxt[:, _STOPPED] = _STOPPED
    return nxt


_NEXT = _next_states()

# the pairs (i, j), i < j, of up to 8 sorted branch angles in (i, j)
# order, and the first angle outside each pair, the smallest leftover
_PAIR_I, _PAIR_J = np.triu_indices(8, 1)
_PAIR_REST = np.where(_PAIR_I > 0, 0, np.where(_PAIR_J > 1, 1, 2))

# direction from a pixel to one dy rows and dx columns away, indexed
# [dy + TRACE_STEPS, dx + TRACE_STEPS]; no trace ends farther away
_ANGLE = np.array([
    [math.degrees(math.atan2(-dy, dx)) % 360.0 for dx in range(-TRACE_STEPS, TRACE_STEPS + 1)]
    for dy in range(-TRACE_STEPS, TRACE_STEPS + 1)
])


def _as_gray(img):
    arr = np.asarray(img)
    if arr.ndim != 2 or arr.size == 0:
        raise InvalidInputError("expected a nonempty 2-D grayscale image")
    return arr


def otsu_threshold(img) -> int:
    """Threshold maximizing between-class variance; ties pick the smallest.

    Classes are {p < t} and {p >= t} for t in 0..255.
    """
    hist = np.bincount(_as_gray(img).astype(np.uint8).ravel(), minlength=256).astype(np.float64)
    total = hist.sum()
    idx = np.arange(256, dtype=np.float64)
    below = np.concatenate(([0.0], np.cumsum(hist)))[:256]
    below_moment = np.concatenate(([0.0], np.cumsum(hist * idx)))[:256]
    above = total - below
    above_moment = float(np.sum(hist * idx)) - below_moment
    var_between = np.zeros(256)
    ok = (below > 0) & (above > 0)
    mu0 = below_moment[ok] / below[ok]
    mu1 = above_moment[ok] / above[ok]
    var_between[ok] = below[ok] * above[ok] * (mu0 - mu1) ** 2
    return int(np.argmax(var_between))


def binarize(img):
    """Foreground mask: pixels strictly below the Otsu threshold are ridges."""
    gray = _as_gray(img)
    return (gray < otsu_threshold(gray)).astype(np.uint8)


def _thin(packed):
    """Zhang-Suen thinning of a packed image, in place: the steps
    alternate until two subiterations in a row delete nothing, after
    which none would."""
    step = idle = 0
    while idle < 2:
        idle = 0 if kernels.zhang_suen_pass(packed, step) else idle + 1
        step ^= 1


def bifurcation_direction(branch_angles):
    """Bisector of the two most alike branch directions, per row, in [0, 360).

    Each row of `branch_angles` holds one bifurcation's branch angles,
    2 to 8 of them, in degrees in [0, 360), padded with NaN. Within the
    sorted angles of a row, the pair (i, j) with the smallest gap wins;
    ties go to the pair whose leftover branches contain the smallest
    angle, then to the first (i, j). The bisector follows the short arc.
    All 28 pairs of every row are compared at once; no `%` touches the
    NaN padding, on which numpy's float modulo is some ten times slower.
    """
    angles = np.sort(np.asarray(branch_angles, dtype=float), axis=1)  # NaN last
    inside = (0.0 <= angles) & (angles < 360.0)
    count = inside.sum(axis=1)
    if ((count < 2) | (count > 8) | (inside == np.isnan(angles)).any(axis=1)).any():
        raise InvalidInputError("a bifurcation needs 2 to 8 branch directions in [0, 360)")
    rows = np.full((len(angles), 8), np.nan)
    rows[:, :angles.shape[1]] = angles[:, :8]
    a, b = rows[:, _PAIR_I], rows[:, _PAIR_J]
    gap = b - a  # b >= a; NaN for pairs past the row's count
    gap = np.minimum(gap, 360.0 - gap)
    tied = gap == np.fmin.reduce(gap, axis=1, keepdims=True)
    # among the tied pairs the smallest leftover angle wins, then the
    # first pair; a row of two angles has the one pair (0, 1)
    pick = np.where(tied, rows[:, _PAIR_REST], np.inf).argmin(axis=1)
    r = np.arange(len(pick))
    a, b = a[r, pick], b[r, pick]
    delta = b - a
    return np.where(delta <= 180.0, a + delta / 2.0, b + (360.0 - delta) / 2.0) % 360.0


def orientations(sk, x, y, bif):
    """Direction in degrees of the minutia at each pixel (x, y) of `sk`.

    Endings point along the ridge toward its interior, at the pixel a
    trace of TRACE_STEPS steps ends on. Bifurcations point down the
    bisector of their two closest branches, away from the lone one:
    each foreground neighbour starts a trace of TRACE_STEPS - 1 steps
    with the bifurcation behind it, and a trace that ends back on the
    bifurcation is no branch. A trace steps to the only foreground
    neighbour other than the pixel it came from and stops where there is
    none or more than one. An ending whose trace ends where it started,
    and a bifurcation with fewer than two branches, get 0.

    All traces walk together on the zero-padded, flattened skeleton, so
    the image edge needs no test. Each walker is a pixel offset and a
    state, the neighbour it last stepped to: one table lookup on the
    packed neighbourhood gives every walker's next state, and a stopped
    walker stays where it is. A trace's end offset from its minutia
    indexes a table of angles.
    """
    sk = np.asarray(sk)
    h, w = sk.shape
    # wide enough that an end offset, at most TRACE_STEPS rows and
    # columns, has one (row, column) reading; np.zeros, not np.pad,
    # whose calls leave reference cycles to the garbage collector
    width = max(w + 2, 2 * TRACE_STEPS + 1)
    pad = np.zeros((h + 2, width), bool)
    pad[1:-1, 1:w + 1] = sk
    pad = pad.ravel()
    step = _OFF_Y * width + _OFF_X  # by state
    nbr = step[:8]
    centre = (np.asarray(y).astype(np.intp) + 1) * width + np.asarray(x).astype(np.intp) + 1
    ends = np.flatnonzero(~np.asarray(bif, bool))
    bifs = np.flatnonzero(bif)
    # one walker per ending, then one per foreground neighbour of each
    # bifurcation, in neighbour order, already stepped onto it
    owner, k = np.nonzero(pad[centre[bifs, None] + nbr])
    ne = len(ends)
    origin = np.concatenate((centre[ends], centre[bifs[owner]]))
    state = np.concatenate((np.full(ne, _START), k))
    cur = origin + step[state]
    for s in range(TRACE_STEPS):
        if s == TRACE_STEPS - 1:
            state[ne:] = _STOPPED  # branch traces are one step shorter
        state = _NEXT[pad[cur[:, None] + nbr].view(np.uint8) @ _BIT, state]
        cur += step[state]
    dy, dx = np.divmod(cur - origin + TRACE_STEPS * (width + 1), width)
    angle = _ANGLE[dy, dx]
    theta = np.zeros(len(centre))
    theta[ends] = angle[:ne]
    away = cur[ne:] != origin[ne:]
    owner, k = owner[away], k[away]
    branch = np.full((len(bifs), 8), np.nan)
    branch[owner, k] = angle[ne:][away]
    ok = np.bincount(owner, minlength=len(bifs)) >= 2
    theta[bifs[ok]] = bifurcation_direction(branch[ok])
    return theta


def merge_close(x, y, bif, rm):
    """Collapse groups of detections linked by distances <= rm: (x, y, bif, rep).

    Grouping is the transitive closure of `dx*dx + dy*dy <= rm*rm` over
    the points (x, y). Each group becomes one point at its centroid, a
    bifurcation if any member was one, and names as `rep` the index of
    the member nearest the centroid (ties to lowest (y, x)), whose
    orientation the merged minutia takes. Merged centroids can re-enter
    each other's radius, so the pass repeats until stable; the result
    therefore keeps all pairwise distances above rm. Groups come out in
    the order of their lowest member index; `MinutiaSet.from_arrays`
    sorts them.

    A round makes the same numpy calls however many groups it forms;
    only the union-find passes and the MERGE_CHUNK batches vary with the
    input. Pairs are found by fixed-radius near-neighbor search
    (`_merge_roots`) and joined by union-find. A group's centroid
    is its members' sum in index order from 0.0, divided by its size,
    which is what `mean` computes; numpy's segmented sum (`reduceat`)
    adds a segment's first member to the rest summed apart, pairwise
    when long, and differs in the last bit. A single point keeps its
    position. So every output bit is that of testing
    all n^2 pairs and averaging group by group (`tests/oracles.py` keeps
    that version); memory is O(n + MERGE_CHUNK).
    """
    if not rm >= 0:
        raise InvalidInputError(f"rm must be nonnegative, got {rm}")
    x = np.array(x, dtype=float)
    y = np.array(y, dtype=float)
    bif = np.asarray(bif, bool)
    rep = np.arange(len(x))
    moved = None  # every point is new to the first round
    with np.errstate(over="ignore"):
        while len(x) > 1:
            root = _merge_roots(x, y, rm, moved)
            # members grouped by root, the group's smallest index, and
            # ascending inside each group, so each group starts at its root
            order = root.argsort(kind="stable")
            first = root[order] == order
            starts = first.nonzero()[0]
            if len(starts) == len(x):
                break
            group = first.cumsum() - 1
            sizes = np.bincount(group)
            moved = sizes > 1
            px, py = x[order], y[order]
            cx = np.where(moved, np.bincount(group, px) / sizes, px[starts])
            cy = np.where(moved, np.bincount(group, py) / sizes, py[starts])
            if not (np.isfinite(cx).all() and np.isfinite(cy).all()):
                raise InvalidInputError("merged minutia coordinates overflow")
            d2 = (px - cx[group]) ** 2 + (py - cy[group]) ** 2
            nearest = np.lexsort((px, py, d2, group))[starts]
            rep = rep[order[nearest]]
            bif = np.logical_or.reduceat(bif[order], starts)
            x, y = cx, cy
    return x, y, bif, rep


def _merge_roots(x, y, rm, moved):
    """Smallest member index of each point's group under d2 <= rm * rm.

    Points go into square cells rm plus a pad of `kernels.BOUND_EPS`
    times max(1, rm, largest |coordinate|) wide, so float rounding of a
    cell index can never put two points within rm two cells apart, and
    no cell index exceeds about 1e6 in size. Sorted by cell key, the
    cells of one column and three adjacent rows are one run of keys, so
    every pair to test is found by two batched `searchsorted` calls.
    With `moved` None, each pair of points in the same or adjacent cells
    is tested once.
    Otherwise `moved` marks the points that a merge just placed: the
    others were farther than rm apart already, so only pairs with a
    moved point are tested, from the moved point's side.
    """
    n = len(x)
    r2 = rm * rm
    root = np.arange(n)
    x0, x1, y0, y1 = float(x.min()), float(x.max()), float(y.min()), float(y.max())
    if (x1 - x0) * (x1 - x0) + (y1 - y0) * (y1 - y0) <= r2:
        # one group, as no pair is farther apart than the box's diagonal;
        # the cells below would hold every point in one and test n^2/2 pairs
        return np.zeros(n, np.int64)
    width = rm + kernels.BOUND_EPS * max(1.0, rm, -x0, x1, -y0, y1)
    # rows counted from the lowest, as floor is monotone; one spare row
    # per column, so a key plus or minus 1 never aliases the next column
    row0 = math.floor(y0 / width)
    rows = math.floor(y1 / width) - row0 + 2
    key = np.floor(x / width).astype(np.int64) * rows + (np.floor(y / width).astype(np.int64) - row0)
    order = key.argsort(kind="stable")
    key = key[order]
    if moved is None:
        # the own cell's later points and the cell below, then the three
        # cells of the next column
        src = np.arange(n)
        lo, hi = (0, rows - 1), (1, rows + 1)
    else:
        # all nine cells, as three runs
        src = moved[order].nonzero()[0]
        lo, hi = (-rows - 1, -1, rows - 1), (1 - rows, 1, rows + 1)
    q = key[src, None]
    begin = key.searchsorted(q + lo)
    end = key.searchsorted(q + hi, "right").ravel()
    if moved is None:
        begin[:, 0] = src + 1
    begin = begin.ravel()
    src = order[src].repeat(len(lo))
    count = end - begin
    total = count.cumsum()
    done = 0
    while done < len(src):
        # the next segments, up to MERGE_CHUNK pairs, or one longer segment
        stop = max(done + 1, int(total.searchsorted(total[done] - count[done] + MERGE_CHUNK, "right")))
        c = count[done:stop]
        step = c.cumsum()
        i = src[done:stop].repeat(c)
        j = order[np.arange(step[-1]) + (begin[done:stop] - step + c).repeat(c)]
        dx = x[i] - x[j]
        dy = y[i] - y[j]
        close = dx * dx + dy * dy <= r2
        _union(root, i[close], j[close])
        done = stop
    return root


def _union(root, i, j):
    """Join the groups of each (i, j) edge; every root is its group's minimum.

    `root` maps each point straight to its root on entry and on exit.
    """
    while True:
        ri, rj = root[i], root[j]
        apart = ri != rj
        if not apart.any():
            return
        i, j, ri, rj = i[apart], j[apart], ri[apart], rj[apart]
        np.minimum.at(root, np.maximum(ri, rj), np.minimum(ri, rj))
        while True:
            nxt = root[root]
            if (nxt == root).all():
                break
            root[:] = nxt


def remove_border_minutiae(x, y, bif, shape, margin):
    """The (x, y, bif) of the detections no closer than margin to the image frame."""
    h, w = shape
    keep = (margin <= x) & (x <= (w - 1) - margin) & (margin <= y) & (y <= (h - 1) - margin)
    return x[keep], y[keep], bif[keep]


def raw_minutiae(img):
    """Image through detection, before any cleanup: ((x, y, bif), skeleton).

    Despeckling, Zhang-Suen thinning and crossing-number detection
    (Rutovitz 1966) on one packed image, which is unpacked once, for the
    skeleton. Detections are integer pixels in raster order, `bif` True
    for a bifurcation. Unlike a neighbour count, the crossing number
    reads the corner pixels of a Zhang-Suen staircase as ridge pixels.
    No config parameter reaches this stage, so parameter sweeps compute
    it once per image and rerun only the cleanup below it.
    """
    packed = kernels.pack_rows(binarize(img))
    kernels.despeckle_rows(packed)
    _thin(packed)
    y, x, bif = kernels.crossing_minutiae(packed)
    return (x, y, bif), kernels.unpack_rows(packed, np.shape(img)[1])


# the MatchConfig fields that clean_minutiae reads
CLEANUP_FIELDS = ("rm", "border_margin")


def clean_minutiae(detected, sk, cfg=None, source=None) -> MinutiaSet:
    """Border removal, merging, orientation, and quantization to the text format.

    `detected` and `sk` are what `raw_minutiae` returns. Each surviving
    minutia's orientation is traced on the skeleton `sk` from its
    representative detection, all in one `orientations` call.
    Quantization makes a set round-trip exactly through the text format.
    """
    cfg = cfg if cfg is not None else MatchConfig()
    x, y, bif = remove_border_minutiae(*detected, np.shape(sk), cfg.border_margin)
    mx, my, mbif, rep = merge_close(x, y, bif, cfg.rm)
    theta = orientations(sk, x[rep], y[rep], bif[rep])
    return MinutiaSet.from_arrays(*quantize(mx, my, theta), mbif, source)


def extract(img, cfg=None, source=None) -> MinutiaSet:
    """Full image-to-minutiae pipeline, deterministic for equal inputs."""
    return clean_minutiae(*raw_minutiae(img), cfg, source)
