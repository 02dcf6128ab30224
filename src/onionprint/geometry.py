"""Nested convex layers (onion peeling) of a planar point set.

Points and rings are (n, 2) float arrays. Hulls are strict: collinear
boundary points are dropped from a ring and survive into deeper rings.
Orientation is counterclockwise in the standard mathematical sense
(positive cross products); both fingerprints of a pair use the same
convention, so the image-space y flip cancels out.
"""

import numpy as np

from .errors import InvalidInputError


def _as_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    if pts.size == 0:
        return pts.reshape(0, 2)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise InvalidInputError(f"expected (n, 2) point array, got shape {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise InvalidInputError("point coordinates must be finite")
    return pts


def _dedup_lexsorted(pts: np.ndarray) -> np.ndarray:
    """Unique points sorted by (x, y)."""
    if len(pts) == 0:
        return pts
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    pts = pts[order]
    keep = np.ones(len(pts), dtype=bool)
    keep[1:] = np.any(pts[1:] != pts[:-1], axis=1)
    return pts[keep]


def _cross(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _monotone_chain(pts: list) -> list:
    """Strict hull of distinct (x, y) float tuples sorted by (x, y).

    Tuples, not numpy rows: the cross products are the same IEEE double
    operations either way, and plain floats do them several times faster.
    """
    if len(pts) <= 2:
        return pts
    lower: list = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        # all points collinear: strict hull degenerates to the two extremes
        return [pts[0], pts[-1]]
    return hull


def _ring(hull: list) -> np.ndarray:
    return np.array(hull, dtype=np.float64).reshape(len(hull), 2)


def convex_layers(points) -> tuple:
    """Peel strict convex hulls off the point set until none remain.

    Returns (k, 2) ring arrays, outermost first, so a ring's depth is its
    index. Each ring is the strict hull of the points left (Andrew's
    monotone chain), counterclockwise from its lexicographically smallest
    point, so collinear boundary points fall through to deeper rings. A
    ring of 1 or 2 points, in lexicographic order, is not proper.
    Duplicates are removed and the points sorted once: removing a ring
    keeps the rest distinct and sorted.
    """
    remaining = list(map(tuple, _dedup_lexsorted(_as_points(points)).tolist()))
    rings = []
    while remaining:
        hull = _monotone_chain(remaining)
        rings.append(_ring(hull))
        on_ring = set(hull)
        remaining = [p for p in remaining if p not in on_ring]
    return tuple(rings)
