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


def convex_hull(points) -> np.ndarray:
    """Strict convex hull by Andrew's monotone chain.

    Returns hull vertices in counterclockwise order starting from the
    lexicographically smallest point. Collinear points on hull edges are
    excluded. For fewer than 3 distinct points the deduplicated points
    are returned in lexicographic order.
    """
    pts = _dedup_lexsorted(_as_points(points))
    n = len(pts)
    if n <= 2:
        return pts

    lower: list[np.ndarray] = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[np.ndarray] = []
    for p in pts[::-1]:
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)

    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        # all points collinear: strict hull degenerates to the two extremes
        return np.array([pts[0], pts[-1]])
    return np.array(hull)


def convex_layers(points) -> ConvexLayers:
    """Peel convex hulls off the point set until none remain.

    Duplicate input points are removed first. Each layer is the strict
    hull of the remaining points, so collinear boundary points fall
    through to deeper layers. The innermost layer may hold 1 or 2 points.
    """
    remaining = _dedup_lexsorted(_as_points(points))
    layers: list[Layer] = []
    depth = 0
    while len(remaining) > 0:
        ring = convex_hull(remaining)
        layers.append(Layer(depth=depth, ring=ring))
        ring_set = {(x, y) for x, y in ring}
        keep = np.array([(x, y) not in ring_set for x, y in remaining], dtype=bool)
        remaining = remaining[keep]
        depth += 1
    return ConvexLayers(layers=tuple(layers))


def layers_to_csv_rows(layers: ConvexLayers) -> list[str]:
    """Debug dump: one 'depth,x,y' row per ring vertex."""
    rows = []
    for lay in layers:
        for x, y in lay.ring:
            rows.append(f"{lay.depth},{float(x)!r},{float(y)!r}")
    return rows
