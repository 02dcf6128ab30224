"""Similarity of two fingerprints from their matched minutiae.

The two minutia sets are aligned by rotation and translation
(`kernels.best_alignment`); scale stays 1, because impressions from one
sensor share its resolution. The minutiae the winning alignment pairs
give the minutiae score, k over the mean set size. The matched
minutiae of each print are peeled into nested convex rings; peer rings
are compared innermost-first by turning distance and the average feeds
an exponential squash against the minutiae score. Two cheap rejection
gates run first: too few matched minutiae, or ring counts too far apart.
"""

import math
from dataclasses import dataclass

from . import geometry, kernels
from .config import MatchConfig
from .errors import InvariantError
from .minutiae import MinutiaSet

GATE_LOW_SIM = "low_sim"
GATE_LAYER_DIFF = "layer_diff"

# stand-in average when no ring pair is comparable: an optimally rotated
# convex-polygon mismatch tops out near pi, so this reads as maximal
# dissimilarity rather than a free perfect score
EMPTY_AVERAGE = math.pi

# a breakdown's columns, in the order of `breakdown_values`
COLUMNS = ("idA", "idB", "k", "m", "n", "minutiae_score", "layersA", "layersB", "l",
           "average", "alpha", "final", "gate_reason")
CSV_HEADER = ",".join(COLUMNS)


@dataclass(frozen=True, slots=True)
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


def minutiae_score(k: int, m: int, n: int) -> float:
    if m + n == 0:
        return 0.0
    return k / ((m + n) / 2.0)


def _proper(rings):
    """The rings with at least 3 vertices, innermost first."""
    return [ring for ring in reversed(rings) if len(ring) >= 3]


def layer_distances(rings_input, rings_template):
    """Turning distances of peer rings of two peelings, innermost pair first.

    Peelings are (k, 2) ring arrays, outermost first. Rings with fewer
    than 3 vertices have no turning function and are skipped; the shorter
    remaining stack bounds the comparison. All pairs are one batch.
    """
    rings_a, rings_b = _proper(rings_input), _proper(rings_template)
    rings = min(len(rings_a), len(rings_b))
    return kernels.min_turning_distance(rings_a[:rings], rings_b[:rings])


def average_distance(dists) -> float:
    if len(dists) == 0:
        return EMPTY_AVERAGE
    return sum(dists) / len(dists)


def final_score(minutiae_score, average):
    """(alpha, final) from the score ratio squashed through 1 - 2^-alpha."""
    if minutiae_score == 0.0:
        return 0.0, 0.0
    if average == 0.0:
        return math.inf, 1.0
    alpha = minutiae_score / average
    return alpha, 1.0 - 2.0 ** (-alpha)


def match_pair(a: MinutiaSet, b: MinutiaSet, cfg=None, ida=None, idb=None) -> ScoreBreakdown:
    """Score two fingerprints given as extracted minutia sets."""
    return match_under([a], [b], [cfg if cfg is not None else MatchConfig()], ida, idb)[0]


def match_under(sets_a, sets_b, cfgs, ida=None, idb=None) -> list:
    """The ScoreBreakdown of sets_a[c] against sets_b[c] under cfgs[c], for each c. A stage runs
    once per distinct input: alignment and peeling once per (id(a), id(b), r0, theta0), and the
    shape stage once per such key that some config's gates leave open."""
    stages, out = {}, []  # key -> [layers_a, layers_b, a breakdown's leading fields, its open breakdown]
    for a, b, cfg in zip(sets_a, sets_b, cfgs):
        key = (id(a), id(b), cfg.r0, cfg.theta0)
        if key not in stages:
            pa, pb = a.prepared, b.prepared
            _, _, pairs_i, pairs_j, _ = kernels.best_alignment(
                pa, pa.y, pa.t, pb, pb.y, pb.t, float(cfg.r0), float(cfg.theta0)
            )
            k, m, n = len(pairs_i), len(a), len(b)
            # one peeling per side serves both the ring-count gate and the rings
            layers_a = geometry.convex_layers(a.positions()[pairs_i])
            layers_b = geometry.convex_layers(b.positions()[pairs_j])
            stages[key] = [layers_a, layers_b, (
                ida if ida is not None else (a.source or ""), idb if idb is not None else (b.source or ""),
                k, m, n, minutiae_score(k, m, n), len(layers_a), len(layers_b)), None]
        layers_a, layers_b, head, bd = stage = stages[key]
        score, la, lb = head[-3:]
        gate = GATE_LOW_SIM if score < cfg.sim else GATE_LAYER_DIFF if abs(la - lb) > cfg.diff else ""
        if gate:
            bd = _checked(ScoreBreakdown(*head, (), None, None, 0.0, gate), 0)
        elif bd is None:  # the first config to leave this pair open runs the shape stage
            dists = tuple(layer_distances(layers_a, layers_b))
            avg = average_distance(dists)
            rings = min(len(_proper(layers_a)), len(_proper(layers_b)))
            bd = stage[3] = _checked(ScoreBreakdown(*head, dists, avg, *final_score(score, avg)), rings)
        out.append(bd)
    return out


def _checked(bd: ScoreBreakdown, rings: int) -> ScoreBreakdown:
    """The breakdown, once its score is in [0, 1], k <= min(m, n), and it
    holds one distance per ring pair compared: `rings`, the smaller
    count of proper rings (0 when gated), at most min(layersA, layersB).
    """
    if not (0.0 <= bd.final <= 1.0 and bd.k <= min(bd.m, bd.n)):
        raise InvariantError(
            f"pair {bd.ida}~{bd.idb}: final {bd.final!r} and k {bd.k} of m {bd.m}, n {bd.n} out of range"
        )
    if bd.l != rings or bd.l > min(bd.layers_input, bd.layers_template):
        raise InvariantError(
            f"pair {bd.ida}~{bd.idb}: {bd.l} ring distances for {rings} ring pairs"
            f" of {bd.layers_input} and {bd.layers_template} layers"
        )
    return bd


def breakdown_values(sb: ScoreBreakdown) -> tuple:
    """The value of each of COLUMNS; average and alpha are None when gated."""
    return (sb.ida, sb.idb, sb.k, sb.m, sb.n, sb.minutiae_score, sb.layers_input,
            sb.layers_template, sb.l, sb.average, sb.alpha, sb.final, sb.gate_reason)


def breakdown_cells(sb: ScoreBreakdown) -> list:
    """Each column's value as text: floats by repr, None as empty."""
    return ["" if v is None else repr(float(v)) if isinstance(v, float) else str(v)
            for v in breakdown_values(sb)]


def breakdown_to_csv_row(sb: ScoreBreakdown) -> str:
    return ",".join(breakdown_cells(sb))
