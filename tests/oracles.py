"""Slow reference implementations the fast library code is checked against.

Everything here is deliberately naive: hull membership by exhaustive
triangle tests, peeling by repeated application of that test, step
function integrals by rectangle overlaps or dense Riemann sums, merging
over all n^2 pairs, thinning, crossing numbers and ridge tracing pixel
by pixel, the turning-distance scan shift by shift, error rates one
threshold at a time. It also holds the helpers that only tests call:
point classification against a convex ring, the turning function's
value and its distance at one shift, and the transform, candidate,
inverse and tolerance helpers of alignment.
Only the data types of `onionprint.minutiae` and the error types are
imported at module level; `extract_eager` reuses the library code it
does not check.
"""

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from onionprint.errors import InvalidInputError
from onionprint.minutiae import Minutia, MinutiaKind, MinutiaSet

TWO_PI = 2.0 * math.pi


def cross2(ax, ay, bx, by):
    return ax * by - ay * bx


def dedup_points(pts):
    """Distinct rows, lexicographically sorted."""
    return np.unique(np.asarray(pts, dtype=float), axis=0)


def hull_vertex_indices(pts, strict_only=False):
    """Indices of strict-hull vertices by exhaustive containment tests.

    A point is a hull vertex iff it is not contained in the convex
    closure of the remaining points. With `strict_only` the containment
    test is only "strictly inside some triangle of other points", which
    suffices for points in general position; the default also covers
    degenerate layouts (collinear runs) through exact segment tests and
    assumes integer-valued coordinates for exactness.
    """
    pts = np.asarray(pts, dtype=float)
    n = len(pts)
    if n <= 2:
        return list(range(n))
    tri = np.array(list(itertools.combinations(range(n), 3)))
    out = []
    for idx in range(n):
        rows = tri[(tri != idx).all(axis=1)]
        q = pts[idx]
        contained = False
        if len(rows) > 0:
            a, b, c = pts[rows[:, 0]], pts[rows[:, 1]], pts[rows[:, 2]]
            s1 = cross2(b[:, 0] - a[:, 0], b[:, 1] - a[:, 1], q[0] - a[:, 0], q[1] - a[:, 1])
            s2 = cross2(c[:, 0] - b[:, 0], c[:, 1] - b[:, 1], q[0] - b[:, 0], q[1] - b[:, 1])
            s3 = cross2(a[:, 0] - c[:, 0], a[:, 1] - c[:, 1], q[0] - c[:, 0], q[1] - c[:, 1])
            if strict_only:
                contained = bool(
                    np.any((s1 > 0) & (s2 > 0) & (s3 > 0)) or np.any((s1 < 0) & (s2 < 0) & (s3 < 0))
                )
            else:
                area = cross2(b[:, 0] - a[:, 0], b[:, 1] - a[:, 1], c[:, 0] - a[:, 0], c[:, 1] - a[:, 1])
                pos = (s1 >= 0) & (s2 >= 0) & (s3 >= 0)
                neg = (s1 <= 0) & (s2 <= 0) & (s3 <= 0)
                contained = bool(np.any((pos | neg) & (area != 0)))
        if not strict_only and not contained:
            contained = _on_some_segment(q, pts, idx)
        if not contained:
            out.append(idx)
    return out


def _on_some_segment(q, pts, skip):
    for i, j in itertools.combinations(range(len(pts)), 2):
        if i == skip or j == skip:
            continue
        a, b = pts[i], pts[j]
        cr = cross2(b[0] - a[0], b[1] - a[1], q[0] - a[0], q[1] - a[1])
        if cr != 0:
            continue
        dot = (q[0] - a[0]) * (b[0] - a[0]) + (q[1] - a[1]) * (b[1] - a[1])
        if 0 <= dot <= (b[0] - a[0]) ** 2 + (b[1] - a[1]) ** 2:
            return True
    return False


def peel_layers_oracle(pts, strict_only=False):
    """Layer partition as a list of per-depth vertex sets."""
    remaining = dedup_points(pts)
    layers = []
    while len(remaining) > 0:
        idx = hull_vertex_indices(remaining, strict_only=strict_only)
        layers.append({(float(x), float(y)) for x, y in remaining[idx]})
        keep = np.ones(len(remaining), dtype=bool)
        keep[idx] = False
        remaining = remaining[keep]
    return layers


def ring_set(ring):
    return {(float(x), float(y)) for x, y in ring}


# Tolerance on orientation predicates, in squared coordinate units.
EPS_GEOM = 1e-9

INSIDE = "inside"
BOUNDARY = "boundary"
OUTSIDE = "outside"


def polygon_signed_area(verts):
    """Shoelace area; positive for counterclockwise rings."""
    v = np.asarray(verts, dtype=float)
    x, y = v[:, 0], v[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def point_in_convex(poly, q):
    """Classify q against a convex CCW polygon: inside, boundary or outside.

    Uses orientation predicates with tolerance EPS_GEOM on the cross
    product values.
    """
    verts = np.asarray(poly, dtype=float)
    if len(verts) < 3:
        raise InvalidInputError("point_in_convex requires a polygon with >= 3 vertices")
    if polygon_signed_area(verts) <= EPS_GEOM:
        raise InvalidInputError("degenerate polygon: vanishing or negative area")
    qx, qy = float(q[0]), float(q[1])
    min_cross = np.inf
    for i in range(len(verts)):
        a = verts[i]
        b = verts[(i + 1) % len(verts)]
        c = (b[0] - a[0]) * (qy - a[1]) - (b[1] - a[1]) * (qx - a[0])
        if c < min_cross:
            min_cross = c
    if min_cross < -EPS_GEOM:
        return OUTSIDE
    if min_cross <= EPS_GEOM:
        return BOUNDARY
    return INSIDE


# ---------------------------------------------------------------------------
# Turning-function references
# ---------------------------------------------------------------------------


def turning_profile_reference(poly):
    """Per-edge (end fraction, direction) table for a CCW polygon.

    Edges start at the lexicographically smallest vertex. Directions are
    unwrapped by reducing each consecutive direction difference mod 2*pi,
    which for a convex CCW tour recovers the exterior turns.
    """
    pts = np.asarray(poly, dtype=float)
    n = len(pts)
    start = min(range(n), key=lambda i: (pts[i, 0], pts[i, 1]))
    pts = np.roll(pts, -start, axis=0)
    edges = np.roll(pts, -1, axis=0) - pts
    lens = np.hypot(edges[:, 0], edges[:, 1])
    bounds = np.cumsum(lens) / lens.sum()
    raw = np.arctan2(edges[:, 1], edges[:, 0])
    turns = np.mod(np.diff(raw), TWO_PI)
    angles = raw[0] + np.concatenate(([0.0], np.cumsum(turns)))
    return bounds, angles


def turning_values_reference(profile, svals):
    bounds, angles = profile
    svals = np.asarray(svals, dtype=float)
    wraps = np.floor(svals)
    frac = svals - wraps
    idx = np.minimum(np.searchsorted(bounds, frac, side="right"), len(angles) - 1)
    return angles[idx] + wraps * TWO_PI


def turning_value(f, s):
    """Value of turning function f at arc position s, cyclically extended."""
    s = float(s)
    wraps = math.floor(s)
    frac = s - wraps
    idx = int(np.searchsorted(f.breaks, frac, side="right")) - 1
    if idx < 0:
        # frac sits before the first break only through negative
        # rounding noise; clamp to the wrapped last segment
        return float(f.angles[-1]) - TWO_PI + wraps * TWO_PI
    return float(f.angles[idx]) + wraps * TWO_PI


@dataclass(frozen=True)
class ShiftDistance:
    """L2 distance at a fixed shift, with the minimizing rotation."""

    distance: float
    rotation: float


def distance_at_shift(f, g, t):
    """L2 distance between f shifted by t and g, minimized over rotation only."""
    from onionprint.kernels import SNAP_EPS

    t = float(t) % 1.0
    fs, fa = f.breaks, f.angles
    gs, ga = g.breaks, g.angles
    wrapped = fs < t
    pos = np.where(wrapped, fs - t + 1.0, fs - t)
    val = np.where(wrapped, fa + TWO_PI, fa)
    order = np.argsort(pos, kind="stable")
    pos = pos[order]
    val = val[order]

    edges = np.unique(np.concatenate([pos, gs]))
    fi = np.searchsorted(pos, edges, side="right") - 1
    gi = np.searchsorted(gs, edges, side="right") - 1
    fv = np.where(fi >= 0, val[np.maximum(fi, 0)], val[-1] - TWO_PI)
    gv = np.where(gi >= 0, ga[np.maximum(gi, 0)], ga[-1] - TWO_PI)
    widths = np.diff(np.concatenate([edges, [1.0]]))
    # same rounding-sliver suppression and two-pass variance as the
    # scan kernels
    widths = np.where(widths > SNAP_EPS, widths, 0.0)
    h = fv - gv
    i1 = float(np.sum(h * widths))
    d2 = float(np.sum((h - i1) ** 2 * widths))
    return ShiftDistance(distance=math.sqrt(max(d2, 0.0)), rotation=-i1)


def riemann_shift_distance(poly_f, poly_g, t, samples):
    """Left-endpoint Riemann evaluation of the rotation-minimized distance.

    Exact whenever every breakpoint of both functions is a multiple of
    1/samples; otherwise accurate to O(breaks/samples).
    """
    s = np.arange(samples) / samples
    fv = turning_values_reference(turning_profile_reference(poly_f), s + t)
    gv = turning_values_reference(turning_profile_reference(poly_g), s)
    h = fv - gv
    i1 = h.mean()
    i2 = (h * h).mean()
    return math.sqrt(max(i2 - i1 * i1, 0.0)), -i1


def _intervals(profile, t):
    """(start, end, value) pieces of the t-shifted function on [0, 1)."""
    bounds, angles = profile
    segs = []
    lo = 0.0
    for hi, ang in zip(bounds, angles):
        a, b = lo - t, hi - t
        if b <= 0.0:
            segs.append((a + 1.0, b + 1.0, ang + TWO_PI))
        elif a < 0.0:
            segs.append((a + 1.0, 1.0, ang + TWO_PI))
            segs.append((0.0, b, ang))
        else:
            segs.append((a, b, ang))
        lo = hi
    return np.array(segs)


def overlap_shift_distance(poly_f, poly_g, t):
    """Exact rotation-minimized distance at shift t via rectangle overlaps.

    Integrates the difference of the two step functions by intersecting
    every piece of one with every piece of the other.
    """
    sf = _intervals(turning_profile_reference(poly_f), t % 1.0)
    sg = _intervals(turning_profile_reference(poly_g), 0.0)
    w = np.minimum(sf[:, None, 1], sg[None, :, 1]) - np.maximum(sf[:, None, 0], sg[None, :, 0])
    w = np.maximum(w, 0.0)
    h = sf[:, None, 2] - sg[None, :, 2]
    i1 = float((w * h).sum())
    i2 = float((w * h * h).sum())
    return math.sqrt(max(i2 - i1 * i1, 0.0)), -i1


def grid_min_distance(poly_f, poly_g, grid=10000):
    """Exhaustive shift-grid minimization, each shift with exact rotation."""
    best = math.inf
    for i in range(grid):
        d, _ = overlap_shift_distance(poly_f, poly_g, i / grid)
        best = min(best, d)
    return best


def _diff_sweep(fs, fa, gs, ga, t, mean, squared, snap_eps):
    """Integrate (shifted f - g - mean), or its square, over [0, 1).

    Called twice per shift: once to get the mean offset (the optimal
    rotation is its negation), then with that mean to accumulate only
    nonnegative squared deviations.
    """
    m = len(fs)
    n = len(gs)
    k0 = 0
    while k0 < m and fs[k0] < t:
        k0 += 1
    bp = [fs[i] - t for i in range(k0, m)] + [fs[i] - t + 1.0 for i in range(k0)]
    bv = [fa[i] for i in range(k0, m)] + [fa[i] + TWO_PI for i in range(k0)]
    # value on the gap before the first break wraps from the last break
    fv = bv[m - 1] - TWO_PI
    gv = ga[n - 1] - TWO_PI
    acc = 0.0
    s = 0.0
    pf = pg = 0
    while True:
        nf = bp[pf] if pf < m else 2.0
        ng = gs[pg] if pg < n else 2.0
        nxt = min(nf, ng, 1.0)
        w = nxt - s
        if w > snap_eps:
            h = fv - gv - mean
            acc += h * h * w if squared else h * w
        if nxt >= 1.0:
            break
        while pf < m and bp[pf] <= nxt:
            fv = bv[pf]
            pf += 1
        while pg < n and gs[pg] <= nxt:
            gv = ga[pg]
            pg += 1
        s = nxt
    return acc


def min_turning_distance_scan(fs, fa, gs, ga):
    """`kernels.min_turning_distance` one critical shift at a time.

    Shifts are tried i-major, the first minimum wins; each is integrated
    by a sweep over the merged breakpoints.
    """
    from onionprint.kernels import SNAP_EPS

    fs, fa, gs, ga = (np.asarray(v, dtype=float).tolist() for v in (fs, fa, gs, ga))
    best_d2, best_t, best_i1 = math.inf, 0.0, 0.0
    for f in fs:
        for g in gs:
            t = (f - g) % 1.0
            i1 = _diff_sweep(fs, fa, gs, ga, t, 0.0, False, SNAP_EPS)
            d2 = _diff_sweep(fs, fa, gs, ga, t, i1, True, SNAP_EPS)
            if d2 < best_d2:
                best_d2, best_t, best_i1 = d2, t, i1
    return math.sqrt(max(best_d2, 0.0)), best_t, -best_i1


def random_convex_polygon(rng, nv, radius=100.0):
    """Convex polygon with nv vertices: hull of points on a random ellipse."""
    ang = np.sort(rng.uniform(0.0, TWO_PI, nv))
    while len(np.unique(ang)) < nv:
        ang = np.sort(rng.uniform(0.0, TWO_PI, nv))
    rx = radius * rng.uniform(0.5, 1.5)
    ry = radius * rng.uniform(0.5, 1.5)
    pts = np.column_stack([rx * np.cos(ang), ry * np.sin(ang)])
    return pts + rng.uniform(-50.0, 50.0, 2)


# ---------------------------------------------------------------------------
# Image-processing references
# ---------------------------------------------------------------------------


def otsu_threshold_bruteforce(img):
    """Best threshold by trying all 256, classes {p < t} and {p >= t}."""
    vals = np.asarray(img).ravel().astype(float)
    best_t, best_var = 0, -1.0
    for t in range(256):
        lo = vals[vals < t]
        hi = vals[vals >= t]
        if len(lo) == 0 or len(hi) == 0:
            continue
        var = len(lo) * len(hi) * (lo.mean() - hi.mean()) ** 2
        if var > best_var:
            best_t, best_var = t, var
    return best_t


def count_components_8(binary):
    """Number of 8-connected foreground components, by flood fill."""
    b = np.asarray(binary) != 0
    seen = np.zeros_like(b)
    count = 0
    for y, x in zip(*np.nonzero(b)):
        if seen[y, x]:
            continue
        count += 1
        stack = [(y, x)]
        seen[y, x] = True
        while stack:
            cy, cx = stack.pop()
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    ny, nx = cy + dy, cx + dx
                    if 0 <= ny < b.shape[0] and 0 <= nx < b.shape[1]:
                        if b[ny, nx] and not seen[ny, nx]:
                            seen[ny, nx] = True
                            stack.append((ny, nx))
    return count


def has_full_2x2_block(binary):
    """True when some 2x2 window is entirely foreground (not one pixel wide)."""
    b = np.asarray(binary) != 0
    if b.shape[0] < 2 or b.shape[1] < 2:
        return False
    return bool(np.any(b[:-1, :-1] & b[:-1, 1:] & b[1:, :-1] & b[1:, 1:]))


def despeckle_scalar(binary):
    """`kernels.despeckle_rows` pixel by pixel: a foreground pixel without a
    foreground 8-neighbour clears, a background pixel with eight sets;
    outside the image is background."""
    b = (np.asarray(binary) != 0).astype(np.uint8)
    padded = np.pad(b, 1).tolist()
    out = b.copy()
    for y in range(b.shape[0]):
        for x in range(b.shape[1]):
            count = sum(padded[y + 1 + dy][x + 1 + dx] for dy in (-1, 0, 1) for dx in (-1, 0, 1)) - b[y, x]
            if b[y, x] and count == 0:
                out[y, x] = 0
            elif not b[y, x] and count == 8:
                out[y, x] = 1
    return out


def zhang_suen_pass_scalar(img, step):
    """One Zhang-Suen subiteration, pixel by pixel, on a padded 0/1 image.

    In place; returns the number of deleted pixels. Every pixel is
    tested on the image as it was before the pass, then the marked
    pixels are cleared together.
    """
    rows = np.asarray(img).tolist()
    h, w = len(rows), len(rows[0])
    marked = []
    for y in range(1, h - 1):
        up, row, down = rows[y - 1], rows[y], rows[y + 1]
        for x in range(1, w - 1):
            if row[x] == 0:
                continue
            p2, p3, p4, p5 = up[x], up[x + 1], row[x + 1], down[x + 1]
            p6, p7, p8, p9 = down[x], down[x - 1], row[x - 1], up[x - 1]
            b = p2 + p3 + p4 + p5 + p6 + p7 + p8 + p9
            if b < 2 or b > 6:
                continue
            ring = (p2, p3, p4, p5, p6, p7, p8, p9, p2)
            a = sum(1 for k in range(8) if ring[k] == 0 and ring[k + 1] == 1)
            if a != 1:
                continue
            if step == 0 and (p2 * p4 * p6 != 0 or p4 * p6 * p8 != 0):
                continue
            if step == 1 and (p2 * p4 * p8 != 0 or p2 * p6 * p8 != 0):
                continue
            marked.append((y, x))
    for y, x in marked:
        img[y, x] = 0
    return len(marked)


def is_thin_scalar(binary):
    """True when one scalar Zhang-Suen iteration would delete nothing."""
    padded = np.pad((np.asarray(binary) != 0).astype(np.uint8), 1)
    return zhang_suen_pass_scalar(padded, 0) + zhang_suen_pass_scalar(padded, 1) == 0


def thin_scalar(binary):
    """Zhang-Suen thinning (`imgproc._thin`) with the pixel-by-pixel subiteration."""
    b = (np.asarray(binary) != 0).astype(np.uint8)
    padded = np.pad(b, 1)
    while zhang_suen_pass_scalar(padded, 0) + zhang_suen_pass_scalar(padded, 1):
        pass
    return padded[1:-1, 1:-1].copy()


def _ring_bits():
    """Centre and clockwise 8-neighbour ring bits of every 9-bit code.

    Bit 8 is the top-left pixel and bit 0 the bottom-right, in raster
    order, so the centre is bit 4. The ring is named as in Zhang and
    Suen: p2 above, then clockwise to p9 top-left.
    """
    code = np.arange(512)
    p9, p2, p3, p8, c, p4, p7, p6, p5 = ((code >> k) & 1 for k in range(8, -1, -1))
    return c, (p2, p3, p4, p5, p6, p7, p8, p9)


def _crossings(ring):
    """0-to-1 transitions around the closed ring: the crossing number."""
    return sum((cur == 0) & (nxt == 1) for cur, nxt in zip(ring, ring[1:] + ring[:1]))


@functools.cache
def zhang_suen_tables():
    """Deletion flag of every 9-bit 3 x 3 neighbourhood code, one row per step."""
    c, ring = _ring_bits()
    p2, p3, p4, p5, p6, p7, p8, p9 = ring
    b = sum(ring)
    core = (c == 1) & (b >= 2) & (b <= 6) & (_crossings(ring) == 1)
    table = np.stack([
        core & (p2 * p4 * p6 == 0) & (p4 * p6 * p8 == 0),
        core & (p2 * p4 * p8 == 0) & (p2 * p6 * p8 == 0),
    ])
    table.flags.writeable = False  # shared by every call
    return table


@functools.cache
def crossing_number_table():
    """Crossing number of every code's centre pixel, 0 where it is background."""
    c, ring = _ring_bits()
    table = (c * _crossings(ring)).astype(np.uint8)
    table.flags.writeable = False  # shared by every call
    return table


def neighbourhood_codes(img):
    """9-bit code of every interior pixel of a zero-padded uint8 0/1 image,
    by shifts of the flattened image: the triples and codes that straddle
    a row end land in the last two columns of each row, which the
    returned view leaves out."""
    h, w = img.shape
    flat = img.ravel()
    rows = flat[:-2] << 2
    rows |= flat[1:-1] << 1
    rows |= flat[2:]
    n = (h - 2) * w - 2
    code = np.empty((h - 2) * w, np.uint16)
    np.left_shift(rows[:n], 6, out=code[:n], dtype=np.uint16)
    code[:n] |= rows[w:w + n] << 3
    code[:n] |= rows[2 * w:]
    return code.reshape(h - 2, w)[:, :w - 2]


def thin_and_detect_lut(binary):
    """Thinning and crossing-number detection by 512-entry tables:
    ((x, y, bifurcation) arrays, skeleton).

    Each subiteration computes every pixel's neighbourhood code once and
    deletes by one lookup in its step's table; an idle subiteration
    leaves the codes valid for the other step, and once both steps are
    idle the same codes give the crossing numbers.
    """
    padded = np.pad((np.asarray(binary) != 0).astype(np.uint8), 1)
    tables = zhang_suen_tables()
    step = 0
    while True:
        code = neighbourhood_codes(padded)
        kill = tables[step].take(code)
        if not kill.any():
            step ^= 1
            kill = tables[step].take(code)
            if not kill.any():
                break
        padded[1:-1, 1:-1] ^= kill.view(np.uint8)
        step ^= 1
    cn = crossing_number_table().take(code).ravel()
    at = np.flatnonzero((cn == 1) | (cn >= 3))
    ys, xs = np.divmod(at, code.shape[1])
    return (xs.astype(float), ys.astype(float), cn[at] >= 3), padded[1:-1, 1:-1].copy()


# 8-neighborhood in raster order, as (dx, dy)
_OFFSETS = ((-1, -1), (0, -1), (1, -1), (-1, 0), (1, 0), (-1, 1), (0, 1), (1, 1))


def _fg_neighbors(sk, x, y):
    h, w = sk.shape
    return [(x + dx, y + dy) for dx, dy in _OFFSETS
            if 0 <= x + dx < w and 0 <= y + dy < h and sk[y + dy, x + dx]]


# the 8-neighbourhood clockwise from the pixel above, as (dx, dy)
_RING = ((0, -1), (1, -1), (1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1))


def crossing_number_scalar(sk, x, y):
    """Half the sum of |p(i) - p(i+1)| around pixel (x, y), outside the image 0."""
    h, w = sk.shape
    ring = [int(sk[y + dy, x + dx]) if 0 <= x + dx < w and 0 <= y + dy < h else 0 for dx, dy in _RING]
    return sum(abs(ring[k] - ring[(k + 1) % 8]) for k in range(8)) // 2


def detect_minutiae_scalar(sk):
    """(x, y, bifurcation) of every skeleton pixel whose crossing number
    is 1 or at least 3, in raster order, pixel by pixel."""
    out = []
    for y, x in zip(*np.nonzero(sk)):
        cn = crossing_number_scalar(sk, x, y)
        if cn == 1 or cn >= 3:
            out.append((float(x), float(y), cn >= 3))
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


def _angle_from(p, q):
    # y grows downward, angles grow counterclockwise
    return math.degrees(math.atan2(-(q[1] - p[1]), q[0] - p[0])) % 360.0


def bifurcation_direction_scalar(branch_angles):
    """Bisector of the two most alike of one bifurcation's branch angles.

    The winning pair minimizes (gap, smallest leftover angle, i, j) over
    the sorted angles; the bisector follows the short arc.
    """
    angles = sorted(float(a) % 360.0 for a in branch_angles)
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


def orientation_scalar(sk, p, bif):
    """`imgproc.orientations` for one pixel p = (x, y), by a path-list trace."""
    steps = 10
    sk = np.asarray(sk)
    x, y = int(p[0]), int(p[1])
    if not bif:
        path = _trace_ridge(sk, (x, y), None, steps)
        return 0.0 if len(path) < 2 else _angle_from((x, y), path[-1])
    branch_angles = []
    for nbr in _fg_neighbors(sk, x, y):
        tip = _trace_ridge(sk, nbr, (x, y), steps - 1)[-1]
        if tip != (x, y):
            branch_angles.append(_angle_from((x, y), tip))
    if len(branch_angles) < 2:
        return 0.0
    return bifurcation_direction_scalar(branch_angles)


@dataclass(frozen=True)
class Transform:
    """Rigid map: rotate counterclockwise by dtheta degrees, then translate."""

    dtheta: float = 0.0
    dx: float = 0.0
    dy: float = 0.0


def hypothesis_transform(mi, mj):
    """The transform that the pair (mi, mj) proposes: rotate so the
    angles agree, then translate mi onto mj. The float expressions are
    those of the search kernels, so this is bit for bit the transform
    `kernels.best_alignment` evaluated for its winner (a, b)."""
    dth = (mj.theta - mi.theta) % 360.0
    rad = dth * math.pi / 180.0
    cosv, sinv = math.cos(rad), math.sin(rad)
    return Transform(
        dtheta=dth,
        dx=mj.x - (cosv * mi.x - sinv * mi.y),
        dy=mj.y - (sinv * mi.x + cosv * mi.y),
    )


def apply_transform(tr, mu):
    """The minutia mu moved by tr: rotated about the origin, then translated."""
    rad = tr.dtheta * math.pi / 180.0
    cosv, sinv = math.cos(rad), math.sin(rad)
    return Minutia(
        x=cosv * mu.x - sinv * mu.y + tr.dx,
        y=sinv * mu.x + cosv * mu.y + tr.dy,
        theta=(mu.theta + tr.dtheta) % 360.0,
        kind=mu.kind,
    )


def invert_transform(tr):
    """The transform undoing tr."""
    rad = -tr.dtheta * math.pi / 180.0
    cosv, sinv = math.cos(rad), math.sin(rad)
    return Transform(
        dtheta=(-tr.dtheta) % 360.0,
        dx=-(cosv * tr.dx - sinv * tr.dy),
        dy=-(sinv * tr.dx + cosv * tr.dy),
    )


def spatial_distance(a, b):
    return math.hypot(a.x - b.x, a.y - b.y)


def angular_difference(a, b):
    """Circular distance between orientations, in [0, 180]."""
    d = abs(a.theta - b.theta)
    return min(d, 360.0 - d)


def within_tolerance(a, b, r0=15.0, theta0=10.0):
    """Both bounds inclusive; minutia kind is not compared."""
    return spatial_distance(a, b) <= r0 and angular_difference(a, b) <= theta0


def candidate_transforms(inp, tpl):
    """One transform per cross-set minutia pair, first-set index major."""
    return [hypothesis_transform(mi, mj) for mi in inp for mj in tpl]


def optimal_alignment_cardinality(a_set, b_set, r0, theta0):
    """Largest tolerance-respecting matching over every pair hypothesis.

    Tries all rotate-then-translate transforms that land one minutia of
    the first set exactly on one of the second, and solves each pairing
    instance with maximum-cardinality bipartite matching instead of
    greedy acceptance. `a_set` and `b_set` are (x, y, theta) triples.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_bipartite_matching

    a = np.asarray(a_set, dtype=float)
    b = np.asarray(b_set, dtype=float)
    best = 0
    for xa, ya, ta in a:
        for xb, yb, tb in b:
            dth = (tb - ta) % 360.0
            rad = math.radians(dth)
            cosv, sinv = math.cos(rad), math.sin(rad)
            px = cosv * a[:, 0] - sinv * a[:, 1] + (xb - (cosv * xa - sinv * ya))
            py = sinv * a[:, 0] + cosv * a[:, 1] + (yb - (sinv * xa + cosv * ya))
            d2 = (px[:, None] - b[None, :, 0]) ** 2 + (py[:, None] - b[None, :, 1]) ** 2
            dd = np.abs((a[:, None, 2] + dth) % 360.0 - b[None, :, 2])
            dd = np.minimum(dd, 360.0 - dd)
            ok = (d2 <= r0 * r0) & (dd <= theta0)
            if ok.sum() == 0:
                continue
            perm = maximum_bipartite_matching(csr_matrix(ok), perm_type="column")
            best = max(best, int((perm != -1).sum()))
    return best


def merge_groups_unionfind(points, rm):
    """Transitive-closure groups of the distance graph, as index frozensets."""
    pts = np.asarray(points, dtype=float)
    parent = list(range(len(pts)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in itertools.combinations(range(len(pts)), 2):
        if math.dist(pts[i], pts[j]) <= rm:
            parent[find(i)] = find(j)
    groups = {}
    for i in range(len(pts)):
        groups.setdefault(find(i), []).append(i)
    return frozenset(frozenset(g) for g in groups.values())


def best_alignment_exhaustive(xi, yi, ti, xj, yj, tj, r0, theta0):
    """Verify every (a, b) hypothesis in (a, b) order; the reference search.

    Same arguments and result as `kernels.best_alignment`: the winner
    maximizes the greedy matched count, then minimizes the summed matched
    distance, then comes first in (a, b) order.
    """
    m = xi.shape[0]
    n = xj.shape[0]
    if m == 0 or n == 0:
        return 0, 0, np.empty(0, np.int64), np.empty(0, np.int64), 0.0
    r2 = r0 * r0

    def candidate_match(a, b):
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
        return len(pi), ssum, pi, pj

    best = (-1, np.inf, 0, 0)
    for a in range(m):
        for b in range(n):
            k, ssum, _, _ = candidate_match(a, b)
            if k > best[0] or (k == best[0] and ssum < best[1]):
                best = (k, ssum, a, b)
    _, ssum, pi, pj = candidate_match(best[2], best[3])
    return best[2], best[3], np.asarray(pi, np.int64), np.asarray(pj, np.int64), ssum


def alignment_bounds_bruteforce(xi, yi, ti, xj, yj, tj, r0, theta0):
    """`kernels._alignment_bounds` by its definition, over all m^2 n^2 quadruples.

    Under (a, b), in (a, b) order, i seen from a's frame and j seen from
    b's frame are partners when their positions lie within r0 and their
    orientations relative to the anchors within theta0, both padded by
    `BOUND_EPS` as the kernel pads them. The bound is the smaller of the
    numbers of distinct i and of distinct j that have a partner. When an
    anchor-relative coordinate overflows, every bound is min(m, n).
    """
    from onionprint.kernels import BOUND_EPS

    m, n = len(xi), len(xj)
    scale = max(1.0, r0, *(float(np.abs(v).max()) for v in (xi, yi, xj, yj)))
    r_pad = r0 + BOUND_EPS * scale
    t_pad = theta0 + BOUND_EPS

    def frames(x, y, t):
        # the kernel's float expressions, so both round alike
        rad = t * (math.pi / 180.0)
        c, s = np.cos(rad), np.sin(rad)
        return [(c[a] * (x - x[a]) + s[a] * (y - y[a]), c[a] * (y - y[a]) - s[a] * (x - x[a]),
                 (t - t[a]) % 360.0) for a in range(len(x))]

    with np.errstate(over="ignore", invalid="ignore"):
        fi = frames(xi, yi, ti)
        fj = frames(xj, yj, tj)
        if not all(np.isfinite(v).all() for f in fi + fj for v in f[:2]):
            return np.full(m * n, min(m, n))
        bound = []
        for ix, iy, it in fi:
            for jx, jy, jt in fj:
                ddx = ix[:, None] - jx[None, :]
                ddy = iy[:, None] - jy[None, :]
                dt = np.abs(it[:, None] - jt[None, :])
                ok = (ddx * ddx + ddy * ddy <= r_pad * r_pad) & (np.minimum(dt, 360.0 - dt) <= t_pad)
                bound.append(min(int(ok.any(axis=1).sum()), int(ok.any(axis=0).sum())))
    return np.asarray(bound)


def merge_close_dense(ms, rm):
    """`imgproc.merge_close` over dense n x n distance arrays, on minutiae.

    Groups are the connected components of `d2 <= rm * rm`, found by
    depth-first search; each group becomes a minutia at its centroid
    with the orientation of the member nearest the centroid (ties to
    lowest (y, x)), repeated until stable.
    """
    cur = list(ms)
    while len(cur) > 1:
        pos = np.array([[m.x, m.y] for m in cur])
        d2 = ((pos[:, None, :] - pos[None, :, :]) ** 2).sum(axis=2)
        adj = d2 <= rm * rm
        np.fill_diagonal(adj, False)
        groups = _components(adj)
        if all(len(g) == 1 for g in groups):
            break
        merged = []
        for g in groups:
            if len(g) == 1:
                merged.append(cur[g[0]])
                continue
            centroid = pos[g].mean(axis=0)
            rep_idx = min(
                g,
                key=lambda i: (float(((pos[i] - centroid) ** 2).sum()), cur[i].y, cur[i].x),
            )
            kind = (
                MinutiaKind.BIFURCATION
                if any(cur[i].kind is MinutiaKind.BIFURCATION for i in g)
                else MinutiaKind.ENDING
            )
            merged.append(
                Minutia(x=float(centroid[0]), y=float(centroid[1]), theta=cur[rep_idx].theta, kind=kind)
            )
        cur = merged
    return sorted(cur, key=lambda m: (m.y, m.x, m.kind.value))


def _components(adj):
    n = len(adj)
    seen = [False] * n
    groups = []
    for i in range(n):
        if seen[i]:
            continue
        stack = [i]
        seen[i] = True
        comp = []
        while stack:
            v = stack.pop()
            comp.append(v)
            for u in np.nonzero(adj[v])[0]:
                if not seen[u]:
                    seen[u] = True
                    stack.append(int(u))
        groups.append(sorted(comp))
    return groups


def extract_eager(img, cfg, source=None):
    """`imgproc.extract` tracing an orientation for every raw detection.

    The skeleton is that of `imgproc.raw_minutiae`, detection is
    `detect_minutiae_scalar`, and each detection's orientation is
    traced at once with the scalar trace; border removal, dense merging
    and quantization follow.
    """
    from onionprint.imgproc import raw_minutiae

    sk = raw_minutiae(img)[1]
    h, w = sk.shape
    margin = cfg.border_margin
    detected = []
    for x, y, bif in detect_minutiae_scalar(sk):
        kind = MinutiaKind.BIFURCATION if bif else MinutiaKind.ENDING
        detected.append(Minutia(x=x, y=y, theta=orientation_scalar(sk, (x, y), bif), kind=kind))
    kept = [m for m in detected
            if margin <= m.x <= (w - 1) - margin and margin <= m.y <= (h - 1) - margin]
    ms = merge_close_dense(kept, cfg.rm)
    return MinutiaSet.from_iterable(
        (Minutia(x=round(m.x, 3), y=round(m.y, 3), theta=round(m.theta, 3) % 360.0, kind=m.kind)
         for m in ms),
        source=source,
    )


# ---------------------------------------------------------------------------
# Error rates
# ---------------------------------------------------------------------------


def _ratio(num, den):
    return num / den if den else 0.0


def rates_reference(finals, genuine, thresholds):
    """`evaluation.rates_and_metrics` one threshold at a time.

    `finals` and `genuine` are parallel sequences, both classes present.
    Returns `(rows, eer, eer_threshold, eer_grid_threshold,
    best_f_threshold)`, each row `(t, tp, fp, tn, fn, fmr, fnmr, pr, rc,
    acc, f)`. A predicted match is `final >= t`, counted pair by pair;
    the EER is interpolated in the first bracket where FNMR - FMR turns
    from negative to non-negative, or taken at the closest approach if
    there is none; ties of both picks go to the smaller threshold.
    """
    labelled = list(zip(finals, genuine))
    rows = []
    for t in thresholds:
        tp = sum(1 for x, g in labelled if g and x >= t)
        fp = sum(1 for x, g in labelled if not g and x >= t)
        tn = sum(1 for x, g in labelled if not g and x < t)
        fn = sum(1 for x, g in labelled if g and x < t)
        pr = _ratio(tp, tp + fp)
        rc = _ratio(tp, tp + fn)
        rows.append((t, tp, fp, tn, fn, _ratio(fp, fp + tn), _ratio(fn, tp + fn), pr, rc,
                     _ratio(tp + tn, len(labelled)), _ratio(2.0 * pr * rc, pr + rc)))

    for prev, cur in zip(rows, rows[1:]):
        d0 = prev[6] - prev[5]
        d1 = cur[6] - cur[5]
        if d0 < 0 <= d1:
            frac = 1.0 if d1 == d0 else -d0 / (d1 - d0)
            eer_t = prev[0] + frac * (cur[0] - prev[0])
            eer = prev[5] + frac * (cur[5] - prev[5])
            break
    else:
        best = min(rows, key=lambda r: (abs(r[6] - r[5]), r[0]))
        eer, eer_t = (best[5] + best[6]) / 2.0, best[0]
    grid_t = min(thresholds, key=lambda t: (abs(t - eer_t), t))
    best_f_t = max(rows, key=lambda r: (r[10], -r[0]))[0]
    return rows, eer, eer_t, grid_t, best_f_t
