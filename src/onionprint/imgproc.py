"""Grayscale fingerprint image to cleaned minutia set.

Pipeline: binarize (ridges are dark, so foreground means intensity
below threshold), optional despeckle, Zhang-Suen thinning, neighbor
count classification on the skeleton, spurious-minutia cleanup (border
removal, then merging of detections within rm, found by grid-bucketed
near-neighbor search), and orientation by a short ridge trace. Merging
places each cleaned minutia by position alone and gives it the
orientation of one raw detection, so only those representatives are
traced, not the ~90 % of detections the cleanup drops.
Coordinates are screen pixels (origin top-left, y down); angles are
degrees counterclockwise from +x in image space, so "up" is 270.
"""

import math
from typing import NamedTuple

import numpy as np

from . import kernels
from .config import MatchConfig
from .errors import InvalidInputError, PreconditionError
from .minutiae import Minutia, MinutiaKind, MinutiaSet

# ridge-following horizon for orientation estimation, in skeleton steps
TRACE_STEPS = 10

# candidate pairs `merge_close` tests per batch; bounds its memory
MERGE_CHUNK = 1 << 18

# 8-neighborhood in raster order
_OFFSETS = ((-1, -1), (0, -1), (1, -1), (-1, 0), (1, 0), (-1, 1), (0, 1), (1, 1))


class Detection(NamedTuple):
    """A skeleton pixel classified as a minutia, orientation not yet traced."""

    x: float
    y: float
    kind: MinutiaKind


class Merged(NamedTuple):
    """A cleaned position and kind, and the input whose orientation it takes."""

    x: float
    y: float
    kind: MinutiaKind
    rep: object


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
    p = np.pad(binary, 1).astype(np.int32)
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


def thin(binary):
    """Zhang-Suen thinning to a one-pixel-wide skeleton."""
    b = _as_binary(binary)
    h, w = b.shape
    padded = np.zeros((h + 2, w + 2), np.uint8)
    padded[1:-1, 1:-1] = b
    while True:
        changed = kernels.zhang_suen_pass(padded, 0)
        changed += kernels.zhang_suen_pass(padded, 1)
        if changed == 0:
            break
    return padded[1:-1, 1:-1].copy()


def is_thin(skeleton) -> bool:
    """True when one more thinning iteration would delete nothing."""
    b = _as_binary(skeleton)
    h, w = b.shape
    padded = np.zeros((h + 2, w + 2), np.uint8)
    padded[1:-1, 1:-1] = b
    return kernels.zhang_suen_pass(padded, 0) + kernels.zhang_suen_pass(padded, 1) == 0


def _fg_neighbors(sk, x, y):
    h, w = sk.shape
    out = []
    for dx, dy in _OFFSETS:
        nx, ny = x + dx, y + dy
        if 0 <= nx < w and 0 <= ny < h and sk[ny, nx]:
            out.append((nx, ny))
    return out


def _trace_ridge(sk, start, prev, steps):
    """Follow unambiguous ridge pixels away from prev; stop at junctions."""
    path = [start]
    cur = start
    for _ in range(steps):
        nxt = [q for q in _fg_neighbors(sk, *cur) if q != prev]
        if len(nxt) != 1:
            break
        prev, cur = cur, nxt[0]
        path.append(cur)
    return path


def _angle_from(p, q) -> float:
    # y grows downward, angles grow counterclockwise
    return math.degrees(math.atan2(-(q[1] - p[1]), q[0] - p[0])) % 360.0


def bifurcation_direction(branch_angles) -> float:
    """Bisector of the two most alike branch directions, in [0, 360).

    Ties between pairs go to the pair whose leftover branches contain
    the smallest angle; the bisector follows the short arc.
    """
    angles = sorted(float(a) % 360.0 for a in branch_angles)
    if len(angles) < 2:
        raise PreconditionError("bifurcation needs at least 2 branch directions")
    best = None
    for i in range(len(angles)):
        for j in range(i + 1, len(angles)):
            gap = abs(angles[i] - angles[j])
            gap = min(gap, 360.0 - gap)
            rest = [angles[k] for k in range(len(angles)) if k != i and k != j]
            key = (gap, min(rest) if rest else 0.0, i, j)
            if best is None or key < best[0]:
                best = (key, angles[i], angles[j])
    _, a, b = best
    delta = (b - a) % 360.0
    if delta <= 180.0:
        return (a + delta / 2.0) % 360.0
    return (b + (360.0 - delta) / 2.0) % 360.0


def estimate_orientation(sk, p, kind, trace_steps=TRACE_STEPS):
    """Minutia direction in degrees plus a low-confidence flag.

    Endings point along the ridge toward its interior. Bifurcations
    point down the bisector of their two closest branches, away from
    the lone one.
    """
    sk = np.asarray(sk)
    x, y = int(p[0]), int(p[1])
    if kind is MinutiaKind.ENDING:
        path = _trace_ridge(sk, (x, y), None, trace_steps)
        if len(path) < 2:
            return 0.0, True
        return _angle_from((x, y), path[-1]), False
    branch_angles = []
    for nbr in _fg_neighbors(sk, x, y):
        path = _trace_ridge(sk, nbr, (x, y), trace_steps - 1)
        tip = path[-1]
        if tip != (x, y):
            branch_angles.append(_angle_from((x, y), tip))
    if len(branch_angles) < 2:
        return 0.0, True
    return bifurcation_direction(branch_angles), False


def detect_minutiae(sk):
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
    ending = counts[ys, xs] == 1
    return [
        Detection(x, y, MinutiaKind.ENDING if e else MinutiaKind.BIFURCATION)
        for x, y, e in zip(xs.astype(float).tolist(), ys.astype(float).tolist(), ending.tolist())
    ]


def merge_close(ms, rm):
    """Collapse groups of minutiae linked by distances <= rm.

    `ms` holds anything with x, y and kind. Grouping is the transitive
    closure of `dx*dx + dy*dy <= rm*rm`. Each group becomes one `Merged`
    at its centroid, kind Bifurcation if any member was one, carrying as
    `rep` the member nearest the centroid (ties to lowest (y, x)), whose
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
    ms = list(ms)
    if not ms:
        return []
    pos = np.array([[m.x, m.y] for m in ms], dtype=float)
    bif = np.array([m.kind is MinutiaKind.BIFURCATION for m in ms])
    rep = np.arange(len(ms))
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
    return [
        Merged(float(pos[i, 0]), float(pos[i, 1]),
               MinutiaKind.BIFURCATION if bif[i] else MinutiaKind.ENDING, ms[rep[i]])
        for i in out.tolist()
    ]


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


def remove_border_minutiae(ms, shape, margin):
    """Drop minutiae closer than margin to the image frame."""
    h, w = shape
    return [
        m
        for m in ms
        if margin <= m.x <= (w - 1) - margin and margin <= m.y <= (h - 1) - margin
    ]


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
    from its representative detection. Quantization makes a set
    round-trip exactly through the text format.
    """
    cfg = cfg if cfg is not None else MatchConfig()
    kept = remove_border_minutiae(detected, np.shape(sk), cfg.border_margin)
    quantized = []
    for m in merge_close(kept, cfg.rm):
        theta, _ = estimate_orientation(sk, m.rep, m.rep.kind)
        quantized.append(
            Minutia(x=round(m.x, 3), y=round(m.y, 3), theta=round(theta, 3) % 360.0, kind=m.kind)
        )
    return MinutiaSet.from_iterable(quantized, source=source)


def extract(img, cfg=None, source=None) -> MinutiaSet:
    """Full image-to-minutiae pipeline, deterministic for equal inputs."""
    cfg = cfg if cfg is not None else MatchConfig()
    detected, sk = raw_minutiae(img, cfg)
    return clean_minutiae(detected, sk, cfg, source)
