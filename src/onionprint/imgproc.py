"""Grayscale fingerprint image to cleaned minutia set.

Pipeline: binarize (ridges are dark, so foreground means intensity
below threshold), optional despeckle, Zhang-Suen thinning by a 9-bit
neighbourhood lookup table, neighbor count classification on the
skeleton, spurious-minutia cleanup (border removal, then merging of
detections within rm, found by grid-bucketed near-neighbor search),
and orientation by a short ridge trace. Everything after binarization
works on arrays: detections are a `Detections` record of x, y and
bifurcation-flag arrays, merging names each group's representative by
index, and `orientations` traces all the survivors at once, every
walker stepping together on the padded skeleton. Merging places each
cleaned minutia by position alone and gives it the orientation of one
raw detection, so only those representatives are traced, not the
~90 % of detections the cleanup drops.
Coordinates are screen pixels (origin top-left, y down); angles are
degrees counterclockwise from +x in image space, so "up" is 270.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .config import MatchConfig
from .errors import InvalidInputError, PreconditionError
from .minutiae import MinutiaSet

# ridge-following horizon for orientation estimation, in skeleton steps
TRACE_STEPS = 10

# candidate pairs `merge_close` tests per batch; bounds its memory
MERGE_CHUNK = 1 << 18

# 8-neighborhood offsets (dx, dy) in raster order
_OFF_X, _OFF_Y = np.array(((-1, -1), (0, -1), (1, -1), (-1, 0), (1, 0), (-1, 1), (0, 1), (1, 1))).T

# direction from a pixel to one dy rows and dx columns away, indexed
# [dy + TRACE_STEPS, dx + TRACE_STEPS]; no trace ends farther away
_ANGLE = np.array([
    [math.degrees(math.atan2(-dy, dx)) % 360.0 for dx in range(-TRACE_STEPS, TRACE_STEPS + 1)]
    for dy in range(-TRACE_STEPS, TRACE_STEPS + 1)
])


@dataclass(frozen=True, eq=False)
class Detections:
    """Skeleton pixels classified as minutiae, as parallel arrays.

    `x` and `y` are float pixel coordinates, `bif` is True for a
    bifurcation and False for an ending; len() is the detection count.
    """

    x: np.ndarray
    y: np.ndarray
    bif: np.ndarray

    def __len__(self):
        return len(self.x)


@dataclass(frozen=True, eq=False)
class Merged(Detections):
    """Cleaned positions and kinds, and for each the index of the input
    detection whose orientation it takes."""

    rep: np.ndarray


def _as_gray(img):
    arr = np.asarray(img)
    if arr.ndim != 2 or arr.size == 0:
        raise InvalidInputError("expected a nonempty 2-D grayscale image")
    return arr


def _as_binary(img):
    arr = np.asarray(img)
    if arr.ndim != 2 or arr.size == 0:
        raise InvalidInputError("expected a nonempty 2-D binary image")
    return (arr != 0).astype(np.uint8)


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


def binarize(img, method="otsu", threshold=128):
    """Foreground mask: pixels strictly below the threshold are ridges."""
    gray = _as_gray(img)
    if method == "otsu":
        t = otsu_threshold(gray)
    elif method == "fixed":
        t = int(threshold)
    else:
        raise InvalidInputError(f"unknown binarization method {method!r}")
    return (gray < t).astype(np.uint8)


def _neighbor_counts(binary):
    """Count of foreground 8-neighbors at every pixel."""
    p = np.pad(binary, 1)  # 0/1 uint8, so sums of 8 fit
    return (
        p[:-2, :-2] + p[:-2, 1:-1] + p[:-2, 2:]
        + p[1:-1, :-2] + p[1:-1, 2:]
        + p[2:, :-2] + p[2:, 1:-1] + p[2:, 2:]
    )


def despeckle(binary):
    """Drop isolated foreground pixels and fill fully enclosed holes."""
    b = _as_binary(binary)
    counts = _neighbor_counts(b)
    out = b.copy()
    out[(b == 1) & (counts == 0)] = 0
    out[(b == 0) & (counts == 8)] = 1
    return out


def _padded(binary):
    b = _as_binary(binary)
    h, w = b.shape
    padded = np.zeros((h + 2, w + 2), np.uint8)
    padded[1:-1, 1:-1] = b
    return padded


def thin(binary):
    """Zhang-Suen thinning to a one-pixel-wide skeleton.

    Each subiteration is one `kernels.zhang_suen_pass`, a lookup of every
    pixel's 9-bit neighbourhood code in the deletion table.
    """
    padded = _padded(binary)
    while True:
        changed = kernels.zhang_suen_pass(padded, 0)
        changed += kernels.zhang_suen_pass(padded, 1)
        if changed == 0:
            break
    return padded[1:-1, 1:-1].copy()


def is_thin(skeleton) -> bool:
    """True when one more thinning iteration would delete nothing."""
    padded = _padded(skeleton)
    return kernels.zhang_suen_pass(padded, 0) + kernels.zhang_suen_pass(padded, 1) == 0


def bifurcation_direction(branch_angles):
    """Bisector of the two most alike branch directions, per row, in [0, 360).

    Each row of `branch_angles` holds one bifurcation's branch angles in
    degrees, padded with NaN, at least two per row. Within the sorted
    angles of a row, the pair (i, j) with the smallest gap wins; ties go
    to the pair whose leftover branches contain the smallest angle, then
    to the first (i, j). The bisector follows the short arc.
    """
    angles = np.sort(np.asarray(branch_angles, dtype=float) % 360.0, axis=1)  # NaN last
    count = np.count_nonzero(~np.isnan(angles), axis=1)
    if (count < 2).any():
        raise PreconditionError("bifurcation needs at least 2 branch directions")
    rows = np.arange(len(angles))[:, None]
    i, j = np.triu_indices(angles.shape[1], 1)  # (i, j) order
    gap = np.abs(angles[:, i] - angles[:, j])
    gap = np.minimum(gap, 360.0 - gap)  # NaN for pairs past the row's count
    # the smallest leftover angle is the first sorted one outside (i, j);
    # none is left when the row holds two angles
    first = np.where(i > 0, 0, np.where(j > 1, 1, 2))
    rest = np.pad(angles, ((0, 0), (0, 1)))[:, first]
    rest[first >= count[:, None]] = 0.0
    with np.errstate(invalid="ignore"):
        tied = gap == np.nanmin(gap, axis=1, keepdims=True)
    tied &= rest == np.where(tied, rest, np.inf).min(axis=1, keepdims=True)
    pick = tied.argmax(axis=1)[:, None]
    a = angles[rows, i[pick]][:, 0]
    b = angles[rows, j[pick]][:, 0]
    delta = (b - a) % 360.0
    return np.where(delta <= 180.0, (a + delta / 2.0) % 360.0, (b + (360.0 - delta) / 2.0) % 360.0)


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
    the image edge needs no test; a trace's end offset from its minutia
    indexes a table of angles.
    """
    pad = np.pad(np.asarray(sk) != 0, 1)
    width = pad.shape[1]
    pad = pad.ravel()
    step = _OFF_Y * width + _OFF_X
    x = np.asarray(x).astype(np.intp)
    y = np.asarray(y).astype(np.intp)
    centre = (y + 1) * width + x + 1
    ends = np.flatnonzero(~np.asarray(bif, bool))
    bifs = np.flatnonzero(bif)
    # one walker per ending, then one per foreground neighbour of each
    # bifurcation, in neighbour order
    owner, k = np.nonzero(pad[centre[bifs, None] + step])
    ne = len(ends)
    cur = np.concatenate((centre[ends], centre[bifs[owner]] + step[k]))
    prev = np.concatenate((np.full(ne, -1), centre[bifs[owner]]))
    dx = np.concatenate((np.zeros(ne, np.intp), _OFF_X[k]))
    dy = np.concatenate((np.zeros(ne, np.intp), _OFF_Y[k]))
    live = np.arange(len(cur))
    for s in range(TRACE_STEPS):
        if s == TRACE_STEPS - 1:
            live = live[live < ne]  # branch traces are one step shorter
        nbr = cur[live, None] + step
        fg = pad[nbr] & (nbr != prev[live, None])
        one = np.count_nonzero(fg, axis=1) == 1
        live = live[one]
        go = fg[one].argmax(axis=1)
        prev[live] = cur[live]
        cur[live] += step[go]
        dx[live] += _OFF_X[go]
        dy[live] += _OFF_Y[go]
    angle = _ANGLE[dy + TRACE_STEPS, dx + TRACE_STEPS]
    theta = np.zeros(len(centre))
    theta[ends] = angle[:ne]
    branch = np.full((len(bifs), len(step)), np.nan)
    away = (dx[ne:] != 0) | (dy[ne:] != 0)
    branch[owner[away], k[away]] = angle[ne:][away]
    ok = np.count_nonzero(~np.isnan(branch), axis=1) >= 2
    theta[bifs[ok]] = bifurcation_direction(branch[ok])
    return theta


def detect_minutiae(sk) -> Detections:
    """Classify skeleton pixels by foreground neighbor count.

    1 neighbor is an ending, more than 2 a bifurcation, exactly 2 an
    ordinary ridge pixel, 0 an ignored speck. Output is in raster
    order, which already matches the canonical (y, x) sort. No
    orientation is traced here: most detections are cut at the border
    or merged away, so `clean_minutiae` traces only the survivors.
    """
    sk = _as_binary(sk)
    if not is_thin(sk):
        raise PreconditionError("detect_minutiae requires a fully thinned skeleton")
    counts = _neighbor_counts(sk)
    ys, xs = np.nonzero((sk == 1) & ((counts == 1) | (counts > 2)))
    return Detections(xs.astype(float), ys.astype(float), counts[ys, xs] > 2)


def merge_close(d, rm) -> Merged:
    """Collapse groups of detections linked by distances <= rm.

    Grouping is the transitive closure of `dx*dx + dy*dy <= rm*rm` over
    the positions of `d`. Each group becomes one point at its centroid,
    a bifurcation if any member was one, and names as `rep` the index of
    the member nearest the centroid (ties to lowest (y, x)), whose
    orientation the merged minutia takes. Merged centroids can re-enter
    each other's radius, so the pass repeats until stable; the result
    therefore keeps all pairwise distances above rm. Output is sorted by
    (y, x).

    Pairs are found by fixed-radius near-neighbor search: points are
    bucketed into square cells, and only pairs in the same or adjacent
    cells are tested, then joined by union-find. Cells are rm plus a pad
    of `kernels.BOUND_EPS` times max(1, rm, largest |coordinate|) wide,
    so float rounding of a cell index can never put two points within
    rm two cells apart, and no cell index exceeds about 1e6 in size.
    Groups and their members keep the order of the dense search, so
    every output bit is that of testing all n^2 pairs
    (`tests/oracles.py` keeps that version); memory is
    O(n + MERGE_CHUNK).
    """
    if not rm >= 0:
        raise InvalidInputError(f"rm must be nonnegative, got {rm}")
    pos = np.column_stack((d.x, d.y)).astype(float)
    bif = np.asarray(d.bif, bool)
    rep = np.arange(len(pos))
    r2 = rm * rm
    with np.errstate(over="ignore"):
        while len(pos) > 1:
            root = _merge_roots(pos, rm, r2)
            if np.array_equal(root, np.arange(len(pos))):
                break
            # members grouped by root, the group's smallest index, and
            # ascending inside each group, so each group starts at its root
            order = np.argsort(root, kind="stable")
            starts = np.flatnonzero(root[order] == order)
            sizes = np.diff(np.r_[starts, len(pos)])
            centroid = pos[order[starts]]
            # one mean per group: a segmented sum differs in the last bit
            for g in np.flatnonzero(sizes > 1).tolist():
                centroid[g] = pos[order[starts[g]:starts[g] + sizes[g]]].mean(axis=0)
            if not np.isfinite(centroid).all():
                raise InvalidInputError("merged minutia coordinates overflow")
            group = np.repeat(np.arange(len(starts)), sizes)
            d2 = ((pos[order] - centroid[group]) ** 2).sum(axis=1)
            nearest = np.lexsort((pos[order, 0], pos[order, 1], d2, group))[starts]
            rep = rep[order[nearest]]
            bif = np.logical_or.reduceat(bif[order], starts)
            pos = centroid
    out = np.lexsort((pos[:, 0], pos[:, 1]))
    return Merged(pos[out, 0], pos[out, 1], bif[out], rep[out])


def _merge_roots(pos, rm, r2):
    """Smallest member index of each point's group under d2 <= r2."""
    n = len(pos)
    root = np.arange(n)
    span = pos.max(axis=0) - pos.min(axis=0)
    if span[0] * span[0] + span[1] * span[1] <= r2:
        # no pair is farther apart than the bounding box's diagonal
        return np.zeros(n, np.int64)
    width = rm + kernels.BOUND_EPS * max(1.0, rm, float(np.abs(pos).max()))
    cell = np.floor(pos / width).astype(np.int64)
    cell -= cell.min(axis=0)
    # one spare row per column, so a key plus or minus 1 never aliases
    # the next column
    rows = int(cell[:, 1].max()) + 2
    key = cell[:, 0] * rows + cell[:, 1]
    order = np.argsort(key, kind="stable")
    key = key[order]
    # each unordered pair once: later points of the own cell, and the
    # cells above-right, right, below-right and below
    begin = [np.arange(1, n + 1)]
    end = [np.searchsorted(key, key, "right")]
    for off in (rows - 1, rows, rows + 1, 1):
        begin.append(np.searchsorted(key, key + off, "left"))
        end.append(np.searchsorted(key, key + off, "right"))
    src = np.tile(np.arange(n), len(begin))
    begin, end = np.concatenate(begin), np.concatenate(end)
    count = np.maximum(end - begin, 0)
    total = np.cumsum(count)
    done = 0
    while done < len(src):
        stop = max(done + 1, int(np.searchsorted(total, total[done] - count[done] + MERGE_CHUNK, "right")))
        c = count[done:stop]
        step = np.arange(int(c.sum())) - np.repeat(np.cumsum(c) - c, c)
        i = order[np.repeat(src[done:stop], c)]
        j = order[np.repeat(begin[done:stop], c) + step]
        dx = pos[i, 0] - pos[j, 0]
        dy = pos[i, 1] - pos[j, 1]
        close = dx * dx + dy * dy <= r2
        _union(root, i[close], j[close])
        done = stop
    return root


def _union(root, i, j):
    """Join the groups of each (i, j) edge; every root is its group's minimum.

    `root` maps each point straight to its root on entry and on exit.
    """
    while len(i):
        ri, rj = root[i], root[j]
        apart = ri != rj
        i, j, ri, rj = i[apart], j[apart], ri[apart], rj[apart]
        np.minimum.at(root, np.maximum(ri, rj), np.minimum(ri, rj))
        while True:
            nxt = root[root]
            if np.array_equal(nxt, root):
                break
            root[:] = nxt


def remove_border_minutiae(d, shape, margin) -> Detections:
    """Drop detections closer than margin to the image frame."""
    h, w = shape
    keep = (margin <= d.x) & (d.x <= (w - 1) - margin) & (margin <= d.y) & (d.y <= (h - 1) - margin)
    return Detections(d.x[keep], d.y[keep], d.bif[keep])


def raw_minutiae(img, cfg=None):
    """Image through detection, before any cleanup: (detections, skeleton).

    Split out from extract so parameter sweeps can cache this expensive
    stage per image and rerun only the cleanup below it.
    """
    cfg = cfg if cfg is not None else MatchConfig()
    binary = binarize(img, cfg.binarize, cfg.fixed_threshold)
    if cfg.despeckle:
        binary = despeckle(binary)
    sk = thin(binary)
    return detect_minutiae(sk), sk


def clean_minutiae(detected, sk, cfg=None, source=None) -> MinutiaSet:
    """Border removal, merging, orientation, and 3-decimal quantization.

    Each surviving minutia's orientation is traced on the skeleton `sk`
    from its representative detection, all in one `orientations` call.
    Quantization makes a set round-trip exactly through the text format.
    """
    cfg = cfg if cfg is not None else MatchConfig()
    kept = remove_border_minutiae(detected, np.shape(sk), cfg.border_margin)
    merged = merge_close(kept, cfg.rm)
    rep = merged.rep
    theta = orientations(sk, kept.x[rep], kept.y[rep], kept.bif[rep])
    return MinutiaSet.from_arrays(
        [round(v, 3) for v in merged.x.tolist()],
        [round(v, 3) for v in merged.y.tolist()],
        [round(t, 3) % 360.0 for t in theta.tolist()],
        merged.bif,
        source,
    )


def extract(img, cfg=None, source=None) -> MinutiaSet:
    """Full image-to-minutiae pipeline, deterministic for equal inputs."""
    cfg = cfg if cfg is not None else MatchConfig()
    detected, sk = raw_minutiae(img, cfg)
    return clean_minutiae(detected, sk, cfg, source)
