"""Turning-function representation of convex rings and the distance on it.

A polygon is encoded as a step function mapping normalized arc length
in [0, 1) to the cumulative tangent direction in radians. The starting
vertex is the lexicographically smallest one so that congruent rings
produce identical encodings regardless of input order. The distance
between two such functions minimizes the L2 difference over all
rotations (closed form) and all cyclic shifts of the starting point
(attained at a breakpoint alignment, so a finite scan suffices).
"""

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import InvalidInputError


@dataclass(frozen=True)
class TurningFunction:
    """Piecewise-constant cumulative direction over normalized arc length.

    ``breaks`` holds the arc-length positions of the vertices starting at
    0.0, strictly increasing and below 1.0. ``angles[i]`` is the
    direction of the edge leaving vertex i, unwrapped so that one full
    tour adds exactly 2*pi.
    """

    breaks: np.ndarray
    angles: np.ndarray
    perimeter: float

    def __len__(self):
        return self.breaks.shape[0]


@dataclass(frozen=True)
class TurningDistanceResult:
    distance: float
    best_shift: float
    best_rotation: float


def _validate_ring(poly):
    pts = np.asarray(poly, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 3:
        raise InvalidInputError("turning function needs at least 3 vertices")
    if not np.all(np.isfinite(pts)):
        raise InvalidInputError("polygon contains non-finite coordinates")
    x, y = pts[:, 0], pts[:, 1]
    area2 = float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))
    if area2 <= 0.0:
        raise InvalidInputError("polygon must wind counterclockwise with positive area")
    return pts


def turning_function(poly):
    """Encode a counterclockwise convex ring as a turning function."""
    pts = _validate_ring(poly)
    n = pts.shape[0]
    start = int(np.lexsort((pts[:, 1], pts[:, 0]))[0])
    pts = np.roll(pts, -start, axis=0)
    edges = np.roll(pts, -1, axis=0) - pts
    lengths = np.hypot(edges[:, 0], edges[:, 1])
    if np.any(lengths == 0.0):
        raise InvalidInputError("polygon has a zero-length edge")
    perimeter = float(lengths.sum())
    breaks = np.concatenate(([0.0], np.cumsum(lengths[:-1]))) / perimeter
    # cross/dot of consecutive edge pairs give the exterior turn at each
    # vertex after the first
    prev = np.roll(edges, 1, axis=0)
    turn = np.arctan2(
        prev[:, 0] * edges[:, 1] - prev[:, 1] * edges[:, 0],
        prev[:, 0] * edges[:, 0] + prev[:, 1] * edges[:, 1],
    )
    angles = math.atan2(edges[0, 1], edges[0, 0]) + np.concatenate(([0.0], np.cumsum(turn[1:])))
    return TurningFunction(breaks=breaks, angles=angles, perimeter=perimeter)


def turning_distance(f, g):
    """L2 distance minimized over rotation and starting-point shift."""
    d, t, theta = kernels.min_turning_distance(f.breaks, f.angles, g.breaks, g.angles)
    return TurningDistanceResult(distance=float(d), best_shift=float(t), best_rotation=float(theta))
