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
the matched count of every hypothesis: it looks partners up in a table
of anchor-relative points keyed by relative orientation and position.
Only the hypotheses whose bound can still reach the best count are
paired out. The winner is the one exhaustive verification picks.
"""

from dataclasses import dataclass

from . import kernels
from .config import MatchConfig
from .errors import InvalidInputError
from .minutiae import MinutiaSet


@dataclass(frozen=True)
class MatchResult:
    pairs: tuple
    k: int
    m: int
    n: int
    score: float


def minutiae_score(k: int, m: int, n: int) -> float:
    if m + n == 0:
        return 0.0
    return k / ((m + n) / 2.0)


def match_minutiae(
    inp: MinutiaSet,
    tpl: MinutiaSet,
    r0=MatchConfig.r0,
    theta0=MatchConfig.theta0,
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
        return MatchResult((), 0, m, n, 0.0)
    _, _, out_i, out_j, _ = kernels.best_alignment(
        inp.x, inp.y, inp.theta, tpl.x, tpl.y, tpl.theta, float(r0), float(theta0)
    )
    pairs = tuple((int(i), int(j)) for i, j in zip(out_i, out_j))
    return MatchResult(pairs, len(pairs), m, n, minutiae_score(len(pairs), m, n))


def matched_subsets(result: MatchResult, inp: MinutiaSet, tpl: MinutiaSet):
    """Positions of the paired minutiae of each set, in pair order: two (k, 2) arrays."""
    left = inp.positions()[[i for i, _ in result.pairs]]
    right = tpl.positions()[[j for _, j in result.pairs]]
    return left, right
