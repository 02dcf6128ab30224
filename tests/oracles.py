"""Slow reference implementations the fast library code is checked against.

Everything here is deliberately naive: hull membership by exhaustive
triangle tests, peeling by repeated application of that test, step
function integrals by rectangle overlaps or dense Riemann sums. Nothing
imports the modules under test.
"""

import itertools
import math

import numpy as np

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


def best_alignment_exhaustive(xi, yi, ti, xj, yj, tj, ki, kj, strict, r0, theta0):
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
        return len(pi), ssum, pi, pj

    best = (-1, np.inf, 0, 0)
    for a in range(m):
        for b in range(n):
            k, ssum, _, _ = candidate_match(a, b)
            if k > best[0] or (k == best[0] and ssum < best[1]):
                best = (k, ssum, a, b)
    _, ssum, pi, pj = candidate_match(best[2], best[3])
    return best[2], best[3], np.asarray(pi, np.int64), np.asarray(pj, np.int64), ssum
