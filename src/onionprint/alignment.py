"""Rigid registration of two minutia sets and tolerance-based pairing.

Every minutia pair across the two sets proposes one transform: rotate
the first set so the angle labels agree, then translate the proposing
minutia onto its counterpart. Each hypothesis is scored by greedy
one-to-one pairing under spatial and angular tolerances; the best
hypothesis wins deterministically. Scale is fixed at 1 because
impressions from one sensor share resolution.

The search (`kernels.best_alignment`) is an exact branch and bound. The
tolerance test of a pair under a hypothesis only depends on where each
minutia sits relative to its own anchor, so one vectorized pass bounds
the matched count of every hypothesis, and only the hypotheses whose
bound can still reach the best count are paired out. The winner is the
one exhaustive verification picks.
"""

import math
from dataclasses import dataclass

from . import kernels
from .errors import InvalidInputError
from .minutiae import Minutia, MinutiaSet

DEFAULT_R0 = 15.0
DEFAULT_THETA0 = 10.0


@dataclass(frozen=True)
class Transform:
    """Similarity map: scale, rotate counterclockwise, then translate."""

    s: float = 1.0
    dtheta: float = 0.0
    dx: float = 0.0
    dy: float = 0.0

    def __post_init__(self):
        if not (self.s > 0):
            raise InvalidInputError(f"scale must be positive, got {self.s}")


IDENTITY = Transform()


@dataclass(frozen=True)
class MatchResult:
    transform: Transform
    pairs: tuple
    k: int
    m: int
    n: int
    score: float


def _rotation(dtheta):
    rad = dtheta * math.pi / 180.0
    return math.cos(rad), math.sin(rad)


def apply_transform(tr: Transform, mu: Minutia) -> Minutia:
    cosv, sinv = _rotation(tr.dtheta)
    return Minutia(
        x=tr.s * (cosv * mu.x - sinv * mu.y) + tr.dx,
        y=tr.s * (sinv * mu.x + cosv * mu.y) + tr.dy,
        theta=(mu.theta + tr.dtheta) % 360.0,
        kind=mu.kind,
    )


def spatial_distance(a: Minutia, b: Minutia) -> float:
    return math.hypot(a.x - b.x, a.y - b.y)


def angular_difference(a: Minutia, b: Minutia) -> float:
    """Circular distance between orientations, in [0, 180]."""
    d = abs(a.theta - b.theta)
    return min(d, 360.0 - d)


def _hypothesis(mi: Minutia, mj: Minutia) -> Transform:
    # identical float expressions to the search kernels, so the rebuilt
    # winner is bit-for-bit the transform the search evaluated
    dth = (mj.theta - mi.theta) % 360.0
    cosv, sinv = _rotation(dth)
    return Transform(
        s=1.0,
        dtheta=dth,
        dx=mj.x - (cosv * mi.x - sinv * mi.y),
        dy=mj.y - (sinv * mi.x + cosv * mi.y),
    )


def minutiae_score(k: int, m: int, n: int) -> float:
    if m + n == 0:
        return 0.0
    return k / ((m + n) / 2.0)


def match_minutiae(
    inp: MinutiaSet,
    tpl: MinutiaSet,
    r0=DEFAULT_R0,
    theta0=DEFAULT_THETA0,
    strict_kind=False,
) -> MatchResult:
    """Best alignment over all pairwise hypotheses, greedily verified.

    The winner maximizes the matched count, then minimizes the summed
    matched distance, then takes the earliest hypothesis. Pairing
    considers tolerance-passing pairs by (distance, i, j) ascending and
    accepts a pair only when both minutiae are still free.
    """
    if not (r0 >= 0):
        raise InvalidInputError(f"r0 must be nonnegative, got {r0}")
    if not (0.0 <= theta0 <= 180.0):
        raise InvalidInputError(f"theta0 must be in [0, 180], got {theta0}")
    m, n = len(inp), len(tpl)
    if m == 0 or n == 0:
        return MatchResult(IDENTITY, (), 0, m, n, 0.0)
    pi = inp.positions()
    pt = tpl.positions()
    a, b, out_i, out_j, _ = kernels.best_alignment(
        pi[:, 0].copy(),
        pi[:, 1].copy(),
        inp.thetas(),
        pt[:, 0].copy(),
        pt[:, 1].copy(),
        tpl.thetas(),
        inp.kind_codes(),
        tpl.kind_codes(),
        strict_kind,
        float(r0),
        float(theta0),
    )
    tr = _hypothesis(inp[a], tpl[b])
    pairs = tuple((int(i), int(j)) for i, j in zip(out_i, out_j))
    return MatchResult(tr, pairs, len(pairs), m, n, minutiae_score(len(pairs), m, n))


def matched_subsets(result: MatchResult, inp: MinutiaSet, tpl: MinutiaSet):
    """Positions of the paired minutiae of each set, in pair order: two (k, 2) arrays."""
    left = inp.positions()[[i for i, _ in result.pairs]]
    right = tpl.positions()[[j for _, j in result.pairs]]
    return left, right


def match_to_csv_rows(result: MatchResult, inp: MinutiaSet, tpl: MinutiaSet):
    """One `i,j,xi,yi,xj,yj,sd,dd` row per matched pair.

    Coordinates are the untransformed originals; sd and dd are measured
    under the selected transform, the quantities the pairing used.
    """
    rows = ["i,j,xi,yi,xj,yj,sd,dd"]
    for i, j in result.pairs:
        a = inp[i]
        b = tpl[j]
        ta = apply_transform(result.transform, a)
        rows.append(
            f"{i},{j},{float(a.x)!r},{float(a.y)!r},{float(b.x)!r},{float(b.y)!r},"
            f"{float(spatial_distance(ta, b))!r},{float(angular_difference(ta, b))!r}"
        )
    return rows
