import itertools
import math

import numpy as np
import pytest

from onionprint import kernels
from onionprint.alignment import (
    MatchResult,
    Transform,
    apply_transform,
    match_minutiae,
    match_to_csv_rows,
    matched_subsets,
    minutiae_score,
)
from onionprint.errors import InvalidInputError
from onionprint.minutiae import Minutia, MinutiaKind, MinutiaSet
from onionprint.synth import synthetic_corpus
from oracles import (
    best_alignment_exhaustive,
    candidate_transforms,
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


def test_identity_transform_is_noop():
    mu = _mu(3.5, 7.25, 123.0)
    assert apply_transform(Transform(), mu) == mu


def test_quarter_turn():
    out = apply_transform(Transform(1.0, 90.0, 0.0, 0.0), _mu(1.0, 0.0, 10.0))
    assert abs(out.x - 0.0) < 1e-12
    assert abs(out.y - 1.0) < 1e-12
    assert out.theta == 100.0


def test_transform_then_inverse_round_trips():
    rng = np.random.default_rng(101)
    for _ in range(20):
        tr = Transform(
            s=float(rng.uniform(0.5, 2.0)),
            dtheta=float(rng.uniform(0, 360)),
            dx=float(rng.uniform(-50, 50)),
            dy=float(rng.uniform(-50, 50)),
        )
        mu = _mu(rng.uniform(-30, 30), rng.uniform(-30, 30), rng.uniform(0, 360))
        back = apply_transform(invert_transform(tr), apply_transform(tr, mu))
        assert abs(back.x - mu.x) < 1e-9
        assert abs(back.y - mu.y) < 1e-9
        assert min(abs(back.theta - mu.theta), 360 - abs(back.theta - mu.theta)) < 1e-9


def test_transform_rejects_nonpositive_scale():
    with pytest.raises(InvalidInputError):
        Transform(s=0.0)


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
    moved = _transform_set(Transform(1.0, 0.0, 10.0, 5.0), ms)
    cands = candidate_transforms(ms, moved)
    assert any(
        c.dtheta == 0.0 and abs(c.dx - 10.0) < 1e-9 and abs(c.dy - 5.0) < 1e-9
        for c in cands
    )


def test_candidates_rotation_maps_sets_exactly():
    ms = _random_set(np.random.default_rng(104), 7)
    tr = Transform(1.0, 30.0, 0.0, 0.0)
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
    res = match_minutiae(ms, ms)
    assert res.k == 10
    assert res.score == 1.0
    assert sorted(res.pairs) == [(i, i) for i in range(10)]


def test_empty_sets():
    empty = MinutiaSet.from_iterable([])
    ms = _random_set(np.random.default_rng(106), 4)
    assert match_minutiae(empty, ms).score == 0.0
    assert match_minutiae(ms, empty).k == 0
    assert match_minutiae(empty, empty).score == 0.0


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
    tr = Transform(1.0, 25.0, 8.0, -12.0)
    kept = [m for idx, m in enumerate(ms) if idx not in {2, 5, 9, 13, 17}]
    tpl = MinutiaSet.from_iterable(apply_transform(tr, m) for m in kept)
    res = match_minutiae(ms, tpl)
    assert res.k == 15
    assert min(abs(res.transform.dtheta - 25.0), 360.0 - abs(res.transform.dtheta - 25.0)) < 1.0
    want = optimal_alignment_cardinality(
        [(m.x, m.y, m.theta) for m in ms],
        [(m.x, m.y, m.theta) for m in tpl],
        15.0,
        10.0,
    )
    assert res.k == want


def test_greedy_never_beats_optimal_and_usually_ties():
    rng = np.random.default_rng(108)
    ties = 0
    trials = 30
    for _ in range(trials):
        a = _random_set(rng, int(rng.integers(6, 13)), box=80.0)
        b = _random_set(rng, int(rng.integers(6, 13)), box=80.0)
        got = match_minutiae(a, b).k
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
        assert match_minutiae(a, b).k == match_minutiae(b, a).k


def test_rigid_motion_preserves_matched_count():
    rng = np.random.default_rng(110)
    a = _random_set(rng, 12)
    b = _random_set(rng, 10)
    base = match_minutiae(a, b).k
    for _ in range(5):
        motion = Transform(
            1.0,
            float(rng.uniform(0, 360)),
            float(rng.uniform(-40, 40)),
            float(rng.uniform(-40, 40)),
        )
        assert match_minutiae(_transform_set(motion, a), b).k == base


def test_tolerances_validated():
    ms = _random_set(np.random.default_rng(118), 3)
    for r0, theta0 in [(-1.0, 10.0), (math.nan, 10.0), (15.0, -1.0), (15.0, 181.0), (15.0, math.nan)]:
        with pytest.raises(InvalidInputError):
            match_minutiae(ms, ms, r0=r0, theta0=theta0)
    assert match_minutiae(ms, ms, r0=math.inf, theta0=180.0).k == 3


def test_strict_kind_flag():
    a = MinutiaSet.from_iterable([_mu(10, 10, 0.0, MinutiaKind.ENDING)])
    b = MinutiaSet.from_iterable([_mu(10, 10, 0.0, MinutiaKind.BIFURCATION)])
    assert match_minutiae(a, b).k == 1
    assert match_minutiae(a, b, strict_kind=True).k == 0


def test_score_bounds_random():
    rng = np.random.default_rng(111)
    for _ in range(10):
        a = _random_set(rng, int(rng.integers(1, 10)))
        b = _random_set(rng, int(rng.integers(1, 10)))
        res = match_minutiae(a, b)
        assert 0.0 <= res.score <= 1.0
        assert res.k <= min(res.m, res.n)


def _kernel_args(a, b, strict=False, r0=15.0, theta0=10.0):
    pa, pb = a.positions(), b.positions()
    return (
        pa[:, 0].copy(), pa[:, 1].copy(), a.thetas(),
        pb[:, 0].copy(), pb[:, 1].copy(), b.thetas(),
        a.kind_codes(), b.kind_codes(), strict, r0, theta0,
    )


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
        _assert_matches_exhaustive(_kernel_args(a, b, trial % 3 == 0, r0, theta0))


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
    args = (xi, yi, ti, xj, yj, tj, np.zeros(2, np.int8), np.zeros(3, np.int8), False, 15.0, 10.0)
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


def test_match_dump_rows():
    ms = _random_set(np.random.default_rng(113), 5)
    res = match_minutiae(ms, ms)
    rows = match_to_csv_rows(res, ms, ms)
    assert rows[0] == "i,j,xi,yi,xj,yj,sd,dd"
    assert len(rows) == 6
    for row in rows[1:]:
        i, j, xi, yi, xj, yj, sd, dd = row.split(",")
        assert i == j
        assert (xi, yi) == (xj, yj)
        assert float(sd) < 1e-9
        assert float(dd) < 1e-9
    left, right = matched_subsets(res, ms, ms)
    assert left.shape == (5, 2) and np.array_equal(left, right)
