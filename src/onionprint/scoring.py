"""Similarity of two fingerprints from their matched minutiae.

The matched minutiae of each print are peeled into nested convex
rings; peer rings are compared innermost-first by turning distance and
the average feeds an exponential squash against the minutiae score.
Two cheap rejection gates run first: too few matched minutiae, or ring
counts too far apart.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import alignment, geometry, turning
from .config import MatchConfig
from .errors import InvalidInputError, InvariantError
from .imgproc import extract
from .minutiae import MinutiaSet

GATE_LOW_SIM = "low_sim"
GATE_LAYER_DIFF = "layer_diff"

# stand-in average when no ring pair is comparable: an optimally rotated
# convex-polygon mismatch tops out near pi, so this reads as maximal
# dissimilarity rather than a free perfect score
EMPTY_AVERAGE = math.pi

CSV_HEADER = "idA,idB,k,m,n,minutiae_score,layersA,layersB,l,average,alpha,final,gate_reason"


@dataclass(frozen=True)
class ScoreBreakdown:
    ida: str
    idb: str
    k: int
    m: int
    n: int
    minutiae_score: float
    layers_input: int
    layers_template: int
    layer_dists: tuple
    average: float  # None when gated
    alpha: float  # None when gated
    final: float
    gate_reason: str = ""  # empty means the pair was fully scored

    @property
    def gated(self) -> bool:
        return self.gate_reason != ""

    @property
    def l(self) -> int:
        return len(self.layer_dists)


def layer_distances(layers_input, layers_template, p=2):
    """Turning distances of peer rings of two peelings, innermost pair first.

    Rings with fewer than 3 vertices have no turning function and are
    skipped; the shorter remaining stack bounds the comparison.
    """
    rings_a = [lay.ring for lay in layers_input.proper_layers()]
    rings_b = [lay.ring for lay in layers_template.proper_layers()]
    out = []
    for ra, rb in zip(reversed(rings_a), reversed(rings_b)):
        fa = turning.turning_function(ra)
        fb = turning.turning_function(rb)
        out.append(turning.turning_distance(fa, fb, p).distance)
    return out


def average_distance(dists) -> float:
    if len(dists) == 0:
        return EMPTY_AVERAGE
    return sum(dists) / len(dists)


def final_score(minutiae_score, average):
    """(alpha, final) from the score ratio squashed through 1 - 2^-alpha."""
    if not (0.0 <= minutiae_score <= 1.0):
        raise InvalidInputError(f"minutiae score must be in [0, 1], got {minutiae_score}")
    if average < 0:
        raise InvalidInputError(f"average distance must be nonnegative, got {average}")
    if minutiae_score == 0.0:
        return 0.0, 0.0
    if average == 0.0:
        return math.inf, 1.0
    alpha = minutiae_score / average
    return alpha, 1.0 - 2.0 ** (-alpha)


def _as_minutiae(obj, cfg) -> MinutiaSet:
    if isinstance(obj, MinutiaSet):
        return obj
    return extract(np.asarray(obj), cfg)


def match_pair(a, b, cfg=None, ida=None, idb=None) -> ScoreBreakdown:
    """Score two fingerprints given as images or extracted minutia sets."""
    cfg = cfg if cfg is not None else MatchConfig()
    sa = _as_minutiae(a, cfg)
    sb = _as_minutiae(b, cfg)
    ida = ida if ida is not None else (sa.source or "")
    idb = idb if idb is not None else (sb.source or "")

    res = alignment.match_minutiae(sa, sb, cfg.r0, cfg.theta0)
    left, right = alignment.matched_subsets(res, sa, sb)
    # one peeling per side serves both the ring-count gate and the rings
    layers_a = geometry.convex_layers(left)
    layers_b = geometry.convex_layers(right)
    la, lb = len(layers_a), len(layers_b)

    gate = ""
    if res.score < cfg.sim:
        gate = GATE_LOW_SIM
    elif abs(la - lb) > cfg.diff:
        gate = GATE_LAYER_DIFF
    if gate:
        return _checked(ScoreBreakdown(
            ida, idb, res.k, res.m, res.n, res.score, la, lb, (), None, None, 0.0, gate
        ))

    dists = tuple(layer_distances(layers_a, layers_b, cfg.p))
    avg = average_distance(dists)
    alpha, final = final_score(res.score, avg)
    return _checked(ScoreBreakdown(
        ida, idb, res.k, res.m, res.n, res.score, la, lb, dists, avg, alpha, final
    ))


def _checked(bd: ScoreBreakdown) -> ScoreBreakdown:
    """The breakdown, once its score is in [0, 1] and k <= min(m, n)."""
    if not (0.0 <= bd.final <= 1.0 and bd.k <= min(bd.m, bd.n)):
        raise InvariantError(
            f"pair {bd.ida}~{bd.idb}: final {bd.final!r} and k {bd.k} of m {bd.m}, n {bd.n} out of range"
        )
    return bd


def breakdown_to_csv_row(sb: ScoreBreakdown) -> str:
    avg = "" if sb.average is None else repr(float(sb.average))
    alpha = "" if sb.alpha is None else repr(float(sb.alpha))
    return (
        f"{sb.ida},{sb.idb},{sb.k},{sb.m},{sb.n},{float(sb.minutiae_score)!r},"
        f"{sb.layers_input},{sb.layers_template},{sb.l},{avg},{alpha},"
        f"{float(sb.final)!r},{sb.gate_reason}"
    )
