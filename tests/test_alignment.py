import itertools
import math
import tracemalloc

import numpy as np
import pytest

from onionprint import kernels
from onionprint.config import MatchConfig
from onionprint.errors import InvalidInputError
from onionprint.minutiae import Minutia, MinutiaKind, MinutiaSet
from onionprint.scoring import match_pair, minutiae_score
from onionprint.synth import synthetic_corpus, synthetic_finger
from oracles import (
    Transform,
    alignment_bounds_bruteforce,
    apply_transform,
    best_alignment_exhaustive,
    candidate_transforms,
    hypothesis_transform,
    invert_transform,
    optimal_alignment_cardinality,
    within_tolerance,
)


def _mu(x, y, theta=0.0, kind=MinutiaKind.ENDING):
    return Minutia(x=float(x), y=float(y), theta=float(theta) % 360.0, kind=kind)


def _random_set(rng, n, box=120.0):
    pts = set()
    while len(pts) < n:
        pts.add((round(float(rng.uniform(0, box)), 1), round(float(rng.uniform(0, box)), 1)))
    return MinutiaSet.from_iterable(
        _mu(x, y, rng.uniform(0, 360), MinutiaKind.ENDING if rng.random() < 0.6 else MinutiaKind.BIFURCATION)
        for x, y in pts
    )


def _transform_set(tr, ms):
    return MinutiaSet.from_iterable(apply_transform(tr, m) for m in ms)


def _matched(a, b):
    """The (i, j) pairs the search keeps for a against b, at the stock tolerances."""
    pairs_i, pairs_j = kernels.best_alignment(*_kernel_args(a, b))[2:4]
    return list(zip(pairs_i.tolist(), pairs_j.tolist()))


def _k(a, b):
    return len(_matched(a, b))


def _winning_transform(a, b):
    """The transform of the hypothesis (a, b) that the search picks."""
    i, j = kernels.best_alignment(*_kernel_args(a, b))[:2]
    return hypothesis_transform(a[i], b[j])


def test_identity_transform_is_noop():
    mu = _mu(3.5, 7.25, 123.0)
    assert apply_transform(Transform(), mu) == mu


def test_quarter_turn():
    out = apply_transform(Transform(90.0, 0.0, 0.0), _mu(1.0, 0.0, 10.0))
    assert abs(out.x - 0.0) < 1e-12
    assert abs(out.y - 1.0) < 1e-12
    assert out.theta == 100.0


def test_transform_then_inverse_round_trips():
    rng = np.random.default_rng(101)
    for _ in range(20):
        tr = Transform(
            dtheta=float(rng.uniform(0, 360)),
            dx=float(rng.uniform(-50, 50)),
            dy=float(rng.uniform(-50, 50)),
        )
        mu = _mu(rng.uniform(-30, 30), rng.uniform(-30, 30), rng.uniform(0, 360))
        back = apply_transform(invert_transform(tr), apply_transform(tr, mu))
        assert abs(back.x - mu.x) < 1e-9
        assert abs(back.y - mu.y) < 1e-9
        assert min(abs(back.theta - mu.theta), 360 - abs(back.theta - mu.theta)) < 1e-9


def test_tolerance_wraparound_angle():
    a = _mu(0, 0, 5.0)
    b = _mu(0, 0, 355.0)
    assert within_tolerance(a, b, 15.0, 10.0)
    assert not within_tolerance(a, b, 15.0, 9.0)


def test_tolerance_boundary_inclusive():
    a = _mu(0, 0)
    assert within_tolerance(a, _mu(15.0, 0.0), 15.0, 10.0)
    assert not within_tolerance(a, _mu(15.01, 0.0), 15.0, 10.0)


def test_tolerance_ignores_kind():
    a = _mu(0, 0, 0.0, MinutiaKind.ENDING)
    b = _mu(1, 0, 0.0, MinutiaKind.BIFURCATION)
    assert within_tolerance(a, b)


def test_candidates_include_identity_for_equal_sets():
    ms = _random_set(np.random.default_rng(102), 6)
    cands = candidate_transforms(ms, ms)
    assert len(cands) == 36
    assert any(
        c.dtheta == 0.0 and abs(c.dx) < 1e-12 and abs(c.dy) < 1e-12 for c in cands
    )


def test_candidates_include_pure_translation():
    ms = _random_set(np.random.default_rng(103), 5)
    moved = _transform_set(Transform(0.0, 10.0, 5.0), ms)
    cands = candidate_transforms(ms, moved)
    assert any(
        c.dtheta == 0.0 and abs(c.dx - 10.0) < 1e-9 and abs(c.dy - 5.0) < 1e-9
        for c in cands
    )


def test_candidates_rotation_maps_sets_exactly():
    ms = _random_set(np.random.default_rng(104), 7)
    tr = Transform(30.0, 0.0, 0.0)
    rotated = _transform_set(tr, ms)
    targets = {(round(m.x, 6), round(m.y, 6)) for m in rotated}
    hit = False
    for c in candidate_transforms(ms, rotated):
        mapped = {(round(apply_transform(c, m).x, 6), round(apply_transform(c, m).y, 6)) for m in ms}
        if mapped == targets:
            hit = True
            break
    assert hit


def test_self_match_is_perfect():
    ms = _random_set(np.random.default_rng(105), 10)
    pairs = _matched(ms, ms)
    res = match_pair(ms, ms)
    assert res.k == 10
    assert res.minutiae_score == 1.0
    assert sorted(pairs) == [(i, i) for i in range(10)]
    # under the winning transform every matched pair coincides
    tr = _winning_transform(ms, ms)
    assert all(within_tolerance(apply_transform(tr, ms[i]), ms[j], 1e-9, 1e-9) for i, j in pairs)
    left = ms.positions()[[i for i, _ in pairs]]
    right = ms.positions()[[j for _, j in pairs]]
    assert left.shape == (10, 2) and np.array_equal(left, right)


def test_empty_sets():
    empty = MinutiaSet.from_iterable([])
    ms = _random_set(np.random.default_rng(106), 4)
    assert match_pair(empty, ms).minutiae_score == 0.0
    assert match_pair(ms, empty).k == 0
    assert match_pair(empty, empty).minutiae_score == 0.0


def test_score_arithmetic():
    assert minutiae_score(5, 10, 10) == 0.5
    assert minutiae_score(10, 10, 10) == 1.0
    assert minutiae_score(0, 3, 7) == 0.0
    assert minutiae_score(0, 0, 0) == 0.0


def test_rotated_translated_with_deletions():
    # rigid copy minus 5 minutiae recovers the motion and matches the
    # optimal-assignment count
    rng = np.random.default_rng(107)
    ms = _random_set(rng, 20)
    tr = Transform(25.0, 8.0, -12.0)
    kept = [m for idx, m in enumerate(ms) if idx not in {2, 5, 9, 13, 17}]
    tpl = MinutiaSet.from_iterable(apply_transform(tr, m) for m in kept)
    k = _k(ms, tpl)
    assert k == 15
    found = _winning_transform(ms, tpl)
    assert min(abs(found.dtheta - 25.0), 360.0 - abs(found.dtheta - 25.0)) < 1.0
    want = optimal_alignment_cardinality(
        [(m.x, m.y, m.theta) for m in ms],
        [(m.x, m.y, m.theta) for m in tpl],
        15.0,
        10.0,
    )
    assert k == want


def test_greedy_never_beats_optimal_and_usually_ties():
    rng = np.random.default_rng(108)
    ties = 0
    trials = 30
    for _ in range(trials):
        a = _random_set(rng, int(rng.integers(6, 13)), box=80.0)
        b = _random_set(rng, int(rng.integers(6, 13)), box=80.0)
        got = _k(a, b)
        want = optimal_alignment_cardinality(
            [(m.x, m.y, m.theta) for m in a],
            [(m.x, m.y, m.theta) for m in b],
            15.0,
            10.0,
        )
        assert got <= want
        ties += got == want
    assert ties >= 0.95 * trials


def test_matched_count_symmetric():
    rng = np.random.default_rng(109)
    for _ in range(8):
        a = _random_set(rng, int(rng.integers(5, 12)))
        b = _random_set(rng, int(rng.integers(5, 12)))
        assert _k(a, b) == _k(b, a)


def test_rigid_motion_preserves_matched_count():
    rng = np.random.default_rng(110)
    a = _random_set(rng, 12)
    b = _random_set(rng, 10)
    base = _k(a, b)
    for _ in range(5):
        motion = Transform(
            float(rng.uniform(0, 360)),
            float(rng.uniform(-40, 40)),
            float(rng.uniform(-40, 40)),
        )
        assert _k(_transform_set(motion, a), b) == base


def test_tolerances_validated():
    ms = _random_set(np.random.default_rng(118), 3)
    for r0, theta0 in [(-1.0, 10.0), (math.nan, 10.0), (15.0, -1.0), (15.0, 181.0), (15.0, math.nan)]:
        with pytest.raises(InvalidInputError):
            MatchConfig(r0=r0, theta0=theta0)
    assert match_pair(ms, ms, MatchConfig(r0=math.inf, theta0=180.0)).k == 3


def test_kind_never_blocks_a_pair():
    a = MinutiaSet.from_iterable([_mu(10, 10, 0.0, MinutiaKind.ENDING)])
    b = MinutiaSet.from_iterable([_mu(10, 10, 0.0, MinutiaKind.BIFURCATION)])
    assert _k(a, b) == 1


def test_score_bounds_random():
    rng = np.random.default_rng(111)
    for _ in range(10):
        a = _random_set(rng, int(rng.integers(1, 10)))
        b = _random_set(rng, int(rng.integers(1, 10)))
        res = match_pair(a, b)
        assert 0.0 <= res.minutiae_score <= 1.0
        assert res.k <= min(res.m, res.n)


def _kernel_args(a, b, r0=15.0, theta0=10.0):
    return a.x, a.y, a.theta, b.x, b.y, b.theta, r0, theta0


def _assert_matches_exhaustive(args):
    """Branch and bound returns exactly what verifying every hypothesis does."""
    got = kernels.best_alignment(*args)
    want = best_alignment_exhaustive(*args)
    assert (got[0], got[1]) == (want[0], want[1])
    assert got[2].tolist() == want[2].tolist()
    assert got[3].tolist() == want[3].tolist()
    assert got[4] == want[4]
    return got


def test_best_alignment_matches_exhaustive_random():
    rng = np.random.default_rng(112)
    tolerances = [(15.0, 10.0), (8.0, 25.0), (40.0, 3.0), (0.0, 10.0), (15.0, 180.0)]
    for trial in range(25):
        a = _random_set(rng, int(rng.integers(1, 15)))
        b = _random_set(rng, int(rng.integers(1, 15)))
        r0, theta0 = tolerances[trial % len(tolerances)]
        _assert_matches_exhaustive(_kernel_args(a, b, r0, theta0))


def test_best_alignment_matches_exhaustive_corpus():
    corpus = synthetic_corpus(7, fingers=3, impressions=2, n_min=20, n_max=30)
    for (_, _, a), (_, _, b) in itertools.combinations(corpus, 2):
        _assert_matches_exhaustive(_kernel_args(a, b))


def test_best_alignment_empty_and_singleton():
    empty = MinutiaSet.from_iterable([])
    one = MinutiaSet.from_iterable([_mu(3.0, 4.0, 50.0)])
    other = MinutiaSet.from_iterable([_mu(90.0, -7.5, 300.0)])
    many = _random_set(np.random.default_rng(114), 6)
    for a, b in [(empty, empty), (empty, many), (many, empty)]:
        got = _assert_matches_exhaustive(_kernel_args(a, b))
        assert got[2].tolist() == [] and got[4] == 0.0
    for a, b in [(one, one), (one, other), (one, many), (many, one)]:
        got = _assert_matches_exhaustive(_kernel_args(a, b))
        assert len(got[2]) == 1


def test_best_alignment_coordinates_near_float_limit():
    # differences of these coordinates overflow to inf
    a = MinutiaSet.from_iterable([_mu(-1e308, 0.0, 10.0), _mu(1e308, 5.0, 20.0), _mu(3.0, 4.0, 30.0)])
    b = MinutiaSet.from_iterable([_mu(1e308, 1e308, 15.0), _mu(-1e308, -9e307, 25.0), _mu(1.0, 1.0, 35.0)])
    with np.errstate(all="ignore"):
        _assert_matches_exhaustive(_kernel_args(a, b))
        _assert_matches_exhaustive(_kernel_args(a, a))


def _spaced_points(rng, count):
    """Distinct integer grid points 50 apart, so partners never compete."""
    cells = rng.choice(64, size=count, replace=False)
    return [(50.0 * (c % 8), 50.0 * (c // 8)) for c in cells]


def test_best_alignment_partner_exactly_at_r0():
    # all points but one move by the same 3-4-5 offset of length r0 = 15,
    # so every hypothesis anchored on a moved point matches all of them
    # with one partner exactly r0 away, and these hypotheses tie; a common
    # orientation rotates the anchor frames, so the bound's distances
    # round while the verified ones stay exact. The second half repeats
    # the cases far from the origin.
    rng = np.random.default_rng(115)
    offsets = itertools.cycle([(9.0, 12.0), (-12.0, 9.0), (15.0, 0.0), (0.0, -15.0), (-9.0, -12.0)])
    thetas = [30.0, 47.0, 123.4, 301.0, 211.7, 5.5, 99.9, 333.3]
    for offset, theta, far in zip(offsets, thetas + thetas, [0.0] * 8 + [3e6] * 8):
        pts = [(x + far, y - far) for x, y in _spaced_points(rng, 7)]
        shift = rng.integers(-20, 21, size=2).astype(float)
        a = MinutiaSet.from_iterable(_mu(x, y, theta) for x, y in pts)
        b = MinutiaSet.from_iterable(
            _mu(x + shift[0] + (offset[0] if idx else 0.0), y + shift[1] + (offset[1] if idx else 0.0), theta)
            for idx, (x, y) in enumerate(pts)
        )
        got = _assert_matches_exhaustive(_kernel_args(a, b))
        assert (len(got[2]), got[4]) == (7, 15.0)


def test_best_alignment_angle_exactly_theta0_across_wrap():
    # partner orientations differ by exactly theta0 = 10 and cross 0/360
    rng = np.random.default_rng(116)
    for _ in range(4):
        pts = _spaced_points(rng, 7)
        thetas = rng.choice([350.0, 352.5, 355.0, 357.5, 0.0, 2.5, 5.0], size=7)
        turns = [0.0] + [float(t) for t in rng.choice([-10.0, 10.0], size=6)]
        a = MinutiaSet.from_iterable(_mu(x, y, t) for (x, y), t in zip(pts, thetas))
        b = MinutiaSet.from_iterable(
            _mu(x + 6.0, y - 4.0, (t + d) % 360.0) for (x, y), t, d in zip(pts, thetas, turns)
        )
        got = _assert_matches_exhaustive(_kernel_args(a, b))
        assert len(got[2]) == 7


def test_best_alignment_ties_break_to_earliest_hypothesis():
    # every hypothesis matches one pair; (0, 0), (0, 1) and (1, 2) do so
    # at distance exactly 0. (0, 1) has the larger bound (a0 could also
    # take b2, a1 only b1), so it is verified before (0, 0), which must
    # still win on (a, b) order.
    xi, yi, ti = np.array([0.0, 10.0]), np.array([0.0, 0.0]), np.array([0.0, 8.0])
    xj, yj, tj = np.array([0.0, 100.0, 88.0]), np.zeros(3), np.array([0.0, 0.0, 8.0])
    args = (xi, yi, ti, xj, yj, tj, 15.0, 10.0)
    got = _assert_matches_exhaustive(args)
    assert (got[0], got[1], len(got[2]), got[4]) == (0, 0, 1, 0.0)
    # lattices: every hypothesis with the same offset ties on k and ssum
    rng = np.random.default_rng(117)
    lattice = [(10.0 * u, 10.0 * v) for u in range(4) for v in range(4)]
    for _ in range(6):
        a = MinutiaSet.from_iterable(_mu(x, y) for x, y in
                                     (lattice[i] for i in rng.choice(16, size=9, replace=False)))
        b = MinutiaSet.from_iterable(_mu(x + 20.0, y) for x, y in
                                     (lattice[i] for i in rng.choice(16, size=9, replace=False)))
        _assert_matches_exhaustive(_kernel_args(a, b))


def _assert_bounds_match_bruteforce(args):
    """The bucketed bound is the brute-force bound, element for element."""
    got = kernels._alignment_bounds(*args)
    want = alignment_bounds_bruteforce(*args)
    assert got.tolist() == want.tolist()
    return got


EXTREME_R0 = (0.0, 5e-324, 15.0, 1e300, math.inf)
EXTREME_THETA0 = (0.0, 10.0, 180.0)


def test_alignment_bounds_match_bruteforce_random():
    rng = np.random.default_rng(118)
    for r0, theta0 in itertools.product(EXTREME_R0, EXTREME_THETA0):
        for _ in range(4):
            a = _random_set(rng, int(rng.integers(1, 14)))
            b = _random_set(rng, int(rng.integers(1, 14)))
            _assert_bounds_match_bruteforce(_kernel_args(a, b, r0, theta0))


def test_alignment_bounds_match_bruteforce_corpus():
    corpus = synthetic_corpus(9, fingers=2, impressions=2, n_min=20, n_max=30)
    for (_, _, a), (_, _, b) in itertools.combinations(corpus, 2):
        _assert_bounds_match_bruteforce(_kernel_args(a, b))


def test_alignment_bounds_match_bruteforce_on_slab_edges():
    # orientations on multiples of the slab width the kernel picks for
    # theta0 = 10 and their neighbours at exactly theta0, so relative
    # orientations fall on slab edges; and angles a hair either side of
    # 0, whose relative orientation % 360.0 rounds to 360.0
    theta0 = 10.0
    width = 360.0 / int(360.0 / (2 * (theta0 + 1.5 * kernels.BOUND_EPS)))
    edges = [k * width for k in range(int(360.0 / width))]
    near_zero = [0.0, 5e-15, 1e-14, 359.99999999999994]
    rng = np.random.default_rng(119)
    for thetas in (edges, near_zero + edges[:6]):
        for _ in range(3):
            pts = _spaced_points(rng, len(thetas))
            turns = rng.choice([-theta0, 0.0, theta0], size=len(thetas))
            a = MinutiaSet.from_iterable(_mu(x, y, t) for (x, y), t in zip(pts, thetas))
            b = MinutiaSet.from_iterable(_mu(x + 5.0, y - 3.0, t + d) for (x, y), t, d in zip(pts, thetas, turns))
            for args in (_kernel_args(a, b, 15.0, theta0), _kernel_args(b, a, 15.0, theta0)):
                _assert_bounds_match_bruteforce(args)
    rel = kernels._local_frames(*_kernel_args(a, a)[:3])[2]
    assert (rel == 360.0).any()
    on_edge = rel[(rel > 0.0) & (rel < 360.0)] / width
    assert (on_edge == np.floor(on_edge)).any()


def test_alignment_bounds_match_bruteforce_wide_spread():
    # spreads so wide that cells grow past 2 r0 to keep the table within
    # int16 keys, and with r0 = theta0 = 0 the slabs are capped too
    rng = np.random.default_rng(120)
    for box, r0, theta0 in [(2e5, 15.0, 10.0), (1e9, 15.0, 10.0), (2e5, 0.0, 0.0), (300.0, 0.0, 0.0)]:
        for _ in range(3):
            a = _random_set(rng, 12, box)
            b = _random_set(rng, 12, box)
            _assert_bounds_match_bruteforce(_kernel_args(a, b, r0, theta0))
            _assert_bounds_match_bruteforce(_kernel_args(a, a, r0, theta0))


def test_alignment_bounds_match_bruteforce_singletons():
    one = MinutiaSet.from_iterable([_mu(3.0, 4.0, 50.0)])
    other = MinutiaSet.from_iterable([_mu(90.0, -7.5, 300.0)])
    many = _random_set(np.random.default_rng(121), 6)
    for r0, theta0 in itertools.product(EXTREME_R0, EXTREME_THETA0):
        for a, b in [(one, one), (one, other), (one, many), (many, one)]:
            got = _assert_bounds_match_bruteforce(_kernel_args(a, b, r0, theta0))
            assert got.shape == (len(a) * len(b),)


def test_alignment_bounds_match_bruteforce_near_float_limit():
    # differences of the first pair overflow (no bound: every hypothesis
    # is verified); in the second they stay finite, but the spread of
    # the anchor-relative points overflows
    near = [_mu(-1e308, 0.0, 10.0), _mu(1e308, 5.0, 20.0), _mu(3.0, 4.0, 30.0)]
    far = [_mu(1e308, 1e308, 15.0), _mu(-1e308, -9e307, 25.0), _mu(1.0, 1.0, 35.0)]
    spread = [_mu(-6e307, 0.0, 10.0), _mu(6e307, 5.0, 20.0), _mu(3.0, 4.0, 30.0)]
    other = [_mu(6e307, 6e307, 15.0), _mu(-6e307, -5e307, 25.0), _mu(1.0, 1.0, 35.0)]
    with np.errstate(all="ignore"):
        got = _assert_bounds_match_bruteforce(_kernel_args(*map(MinutiaSet.from_iterable, (near, far))))
        assert got.tolist() == [3] * 9
        for a, b in [(spread, other), (other, spread), (spread, spread)]:
            args = _kernel_args(MinutiaSet.from_iterable(a), MinutiaSet.from_iterable(b))
            for r0 in EXTREME_R0:
                _assert_bounds_match_bruteforce(args[:6] + (r0, 10.0))
            _assert_matches_exhaustive(args)


def test_alignment_bounds_memory_does_not_grow_with_tight_tolerances():
    # slabs and cells are capped by the int16 key space: an uncapped
    # table at theta0 = 0 would hold 1.2e8 slabs per cell. An infinite r0
    # puts every point in one cell and theta0 = 180 in one slab, and the
    # passes keep the candidates to about one anchor's worth, here
    # m n^2 = 64,000.
    rng = np.random.default_rng(122)
    a = _random_set(rng, 40, 300.0)
    b = _random_set(rng, 40, 300.0)
    for r0, theta0 in itertools.product((0.0, 5e-324, 15.0, math.inf), (0.0, 10.0, 180.0)):
        tracemalloc.start()
        try:
            kernels._alignment_bounds(*_kernel_args(a, b, r0, theta0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20, (r0, theta0, peak)


def test_prepared_print_memory_is_bounded():
    # a 45-minutia print keeps its anchor-relative points and its table on
    # the stock grid: some 100 KB, and preparing it peaks under 1 MB
    ms = MinutiaSet.from_iterable(synthetic_finger(np.random.default_rng(124), 45, 45))
    grid = kernels._grid(15.0, 10.0, 512.0)
    tracemalloc.start()
    try:
        kept = kernels.Print(ms.x, ms.y, ms.theta)
        kept.table(grid)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 130 << 10, held
    assert peak < 1 << 20, peak


def _assert_prepared_bounds_match_bruteforce(sets, r0=15.0, theta0=10.0):
    """Every ordered pair of the sets, each set against itself too, bounded
    through the prints the sets keep, as the brute force bounds it."""
    for a, b in itertools.product(sets, repeat=2):
        pa, pb = a.prepared, b.prepared
        got = kernels._alignment_bounds(pa, pa.y, pa.t, pb, pb.y, pb.t, r0, theta0)
        assert got.tolist() == alignment_bounds_bruteforce(*_kernel_args(a, b, r0, theta0)).tolist(), (r0, theta0)


def test_prepared_bounds_match_bruteforce_across_scale_classes():
    # coordinates within 100, 1,000 and 30,000: a pair takes the scale
    # class of its larger print, so each print is filed on several grids,
    # and the input is the larger of the two as often as the smaller
    rng = np.random.default_rng(125)
    sets = [_random_set(rng, 10, box) for box in (100.0, 100.0, 1000.0, 3e4)]
    _assert_prepared_bounds_match_bruteforce(sets)
    assert len(sets[0].prepared._tables) == 3
    assert len({grid for s in sets for grid in s.prepared._tables}) == 3


def test_prepared_bounds_match_bruteforce_at_extreme_tolerances():
    rng = np.random.default_rng(126)
    sets = [_random_set(rng, int(rng.integers(1, 12))) for _ in range(3)]
    for r0, theta0 in itertools.product(EXTREME_R0, EXTREME_THETA0):
        _assert_prepared_bounds_match_bruteforce(sets, r0, theta0)


def test_prepared_bounds_match_bruteforce_on_wide_spreads_and_near_float_limit():
    # the spreads that cap cells and slabs, and the sets whose differences
    # or spread overflow (see the tests of the bound on fresh arrays)
    rng = np.random.default_rng(127)
    wide = [_random_set(rng, 12, box) for box in (2e5, 1e9)]
    for r0, theta0 in [(15.0, 10.0), (0.0, 0.0)]:
        _assert_prepared_bounds_match_bruteforce(wide, r0, theta0)
    limits = [[_mu(-1e308, 0.0, 10.0), _mu(1e308, 5.0, 20.0), _mu(3.0, 4.0, 30.0)],
              [_mu(1e308, 1e308, 15.0), _mu(-1e308, -9e307, 25.0), _mu(1.0, 1.0, 35.0)],
              [_mu(-6e307, 0.0, 10.0), _mu(6e307, 5.0, 20.0), _mu(3.0, 4.0, 30.0)],
              [_mu(6e307, 6e307, 15.0), _mu(-6e307, -5e307, 25.0), _mu(1.0, 1.0, 35.0)]]
    sets = [MinutiaSet.from_iterable(ms) for ms in limits]
    with np.errstate(all="ignore"):
        for r0 in EXTREME_R0:
            _assert_prepared_bounds_match_bruteforce(sets, r0, 10.0)


def test_prepared_own_neighbours_are_tested_at_the_pairs_pad():
    # the scale class is 512 and the pair's scale 300, so the pair's pad
    # is 15.0003 and the class's 15.000512: the input's point 15.0004
    # from its anchor is filed as a near neighbour but is no partner of
    # the template's anchor, while the template's point 10 from its
    # anchor is one of the input's; the bound of (0, 0) is then 1, not 2
    a = MinutiaSet.from_iterable([_mu(100.0, 100.0), _mu(115.0004, 100.0), _mu(300.0, 300.0, 90.0)])
    b = MinutiaSet.from_iterable([_mu(50.0, 50.0), _mu(50.0, 60.0)])
    _assert_prepared_bounds_match_bruteforce([a, b])
    pa, pb = a.prepared, b.prepared
    assert kernels._alignment_bounds(pa, pa.y, pa.t, pb, pb.y, pb.t, 15.0, 10.0)[0] == 1


def test_match_pair_prepares_each_print_once_per_grid(monkeypatch):
    # repeated pairs, both ways round, and a third print: three
    # preparations, all on the stock grid
    calls = []
    real = kernels._prepare

    def logged(x, y, t, m, grid):
        calls.append((id(x), grid))
        return real(x, y, t, m, grid)

    monkeypatch.setattr(kernels, "_prepare", logged)
    rng = np.random.default_rng(128)
    a, b, c = (_random_set(rng, 20) for _ in range(3))
    first = match_pair(a, b)
    for _ in range(3):
        assert match_pair(a, b) == first
        match_pair(b, a)
    match_pair(a, c)
    assert len(calls) == len(set(calls)) == 3
    assert len({grid for _, grid in calls}) == 1


def test_alignment_bounds_admit_everything_without_a_table():
    # at r0 = inf and theta0 = 180 every bound is min(m, n); testing the
    # m^2 n^2 quadruples took 18 s and 124 MB for two 120-minutia sets
    rng = np.random.default_rng(123)
    for m, n in [(1, 1), (5, 3), (4, 9)]:
        _assert_bounds_match_bruteforce(_kernel_args(_random_set(rng, m), _random_set(rng, n), math.inf, 180.0))
    a = _random_set(rng, 120, 300.0)
    b = _random_set(rng, 110, 300.0)
    tracemalloc.start()
    try:
        bound = kernels._alignment_bounds(*_kernel_args(a, b, math.inf, 180.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bound.tolist() == [110] * (120 * 110)
    assert peak < 2 * bound.nbytes
