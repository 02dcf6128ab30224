"""Turning-function representation of convex rings and the distance on it.

A polygon is encoded as a step function mapping normalized arc length
in [0, 1) to the cumulative tangent direction in radians. The starting
vertex is the lexicographically smallest one so that congruent rings
produce identical encodings regardless of input order. The distance
between two such functions minimizes the L2 difference over all
rotations (closed form) and all cyclic shifts of the starting point
(attained at a breakpoint alignment, so a finite scan suffices).

`ring_distances` is the way in: a pair's shape stage encodes all its
peer rings at once (`_encode`) and makes one
`kernels.min_turning_distance` call for all of them. Each ring's sums
run over its own vertices only, so a ring's encoding does not depend on
the batch it came in.
"""

import math

import numpy as np

from . import kernels
from .errors import InvalidInputError

# math.atan2 element by element: numpy's arctan2 picks its SIMD kernel by
# CPU, and the AVX-512 one rounds some results differently, so report
# scores would depend on the machine
_atan2 = np.frompyfunc(math.atan2, 2, 1)


def _encode(rings):
    """Turning functions of counterclockwise convex rings, as tables.

    Returns (breaks, angles, counts, perimeters): row k of the (K, V)
    tables holds ring k's turning function in its first counts[k]
    columns, and later columns continue the ring cyclically, so every
    entry is finite. Breaks run from 0.0, strictly increasing, below 1.0;
    angles[k, i], the direction of the edge leaving vertex i, is
    unwrapped so that one full tour adds exactly 2*pi. A bad ring raises
    InvalidInputError, the checks in this order over the batch: vertex
    count, finiteness, winding, zero-length edges, and an encoding that
    overflows (edges some 1e154 long).
    """
    pts = [np.asarray(p, dtype=np.float64) for p in rings]
    if any(p.ndim != 2 or p.shape[1] != 2 or p.shape[0] < 3 for p in pts):
        raise InvalidInputError("turning function needs at least 3 vertices")
    counts = np.array([p.shape[0] for p in pts])
    flat = np.concatenate(pts)
    if not np.isfinite(flat).all():
        raise InvalidInputError("polygon contains non-finite coordinates")
    x, y = flat[:, 0], flat[:, 1]
    cnt = counts[:, None]
    base = (np.cumsum(counts) - counts)[:, None]
    col = np.arange(int(counts.max()) + 1)
    # ring k starts at its first vertex in (x, y) order
    start = np.lexsort((y, x, np.repeat(np.arange(len(pts)), counts)))[base] - base
    # vertex c and the one after it, in input order and from the start
    cyc = col % cnt + base
    walk = (col + start) % cnt + base
    xc, yc, xw, yw = x[cyc], y[cyc], x[walk], y[walk]
    with np.errstate(over="ignore", invalid="ignore"):
        area2 = xc[:, :-1] * yc[:, 1:] - xc[:, 1:] * yc[:, :-1]
        ex = np.diff(xw)
        ey = np.diff(yw)
        lengths = np.hypot(ex, ey)
        runs = [(size, 1) for size in counts.tolist()]
        area2, perimeter = kernels.row_sums(np.stack([area2, lengths]), runs)
        if (area2 <= 0.0).any():
            raise InvalidInputError("polygon must wind counterclockwise with positive area")
        if (lengths == 0.0).any():
            raise InvalidInputError("polygon has a zero-length edge")
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


def ring_distances(rings_f, rings_g):
    """Turning distance of each pair (rings_f[r], rings_g[r]), as a list.

    All rings are encoded at once, f[0], g[0], f[1], ... in that order,
    and all pairs' critical shifts evaluated in one kernel call.
    """
    if not rings_f:
        return []
    breaks, angles, counts, _ = _encode([r for pair in zip(rings_f, rings_g) for r in pair])
    d, _, _ = kernels.min_turning_distance(breaks[0::2], angles[0::2], counts[0::2],
                                           breaks[1::2], angles[1::2], counts[1::2])
    return d.tolist()
