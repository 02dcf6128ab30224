"""Planar convex hulls and nested convex layers (onion peeling).

Points are (n, 2) float arrays. Hulls are strict: collinear boundary
points are dropped from the hull and therefore survive into deeper
layers during peeling. Orientation is counterclockwise in the standard
mathematical sense (positive cross products); both fingerprints of a
pair use the same convention, so the image-space y flip cancels out.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

@dataclass(frozen=True)
class Layer:
    """One ring of the onion: peeling depth plus its vertices."""

    depth: int
    ring: np.ndarray  # (k, 2); k may be 1 or 2 for degenerate rings

    def is_proper(self) -> bool:
        return len(self.ring) >= 3


@dataclass(frozen=True)
class ConvexLayers:
    layers: tuple[Layer, ...]

    def __len__(self) -> int:
        return len(self.layers)

    def __iter__(self):
        return iter(self.layers)

    def proper_layers(self) -> list[Layer]:
        """Layers with at least 3 vertices, shallowest first."""
        return [lay for lay in self.layers if lay.is_proper()]


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


def convex_hull(points) -> np.ndarray:
    """Strict convex hull by Andrew's monotone chain.

    Returns hull vertices in counterclockwise order starting from the
    lexicographically smallest point. Collinear points on hull edges are
    excluded. For fewer than 3 distinct points the deduplicated points
    are returned in lexicographic order.
    """
    pts = _dedup_lexsorted(_as_points(points))
    return _ring(_monotone_chain(list(map(tuple, pts.tolist()))))


def convex_layers(points) -> ConvexLayers:
    """Peel convex hulls off the point set until none remain.

    Duplicate input points are removed first. Each layer is the strict
    hull of the remaining points, so collinear boundary points fall
    through to deeper layers. The innermost layer may hold 1 or 2 points.
    Removing a ring keeps the rest distinct and sorted, so the points are
    sorted once.
    """
    remaining = list(map(tuple, _dedup_lexsorted(_as_points(points)).tolist()))
    layers: list[Layer] = []
    while remaining:
        hull = _monotone_chain(remaining)
        layers.append(Layer(depth=len(layers), ring=_ring(hull)))
        on_ring = set(hull)
        remaining = [p for p in remaining if p not in on_ring]
    return ConvexLayers(layers=tuple(layers))
