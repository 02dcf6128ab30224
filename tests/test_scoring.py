import math
import pickle
from pathlib import Path

import numpy as np
import pytest

from onionprint import scoring
from onionprint.config import MatchConfig
from onionprint.errors import InvariantError
from onionprint.evaluation import load_fingerprint
from onionprint.geometry import convex_layers
from onionprint.imgproc import extract
from onionprint.minutiae import Minutia, MinutiaKind, MinutiaSet
from onionprint.scoring import (
    CSV_HEADER,
    EMPTY_AVERAGE,
    GATE_LAYER_DIFF,
    GATE_LOW_SIM,
    average_distance,
    breakdown_to_csv_row,
    final_score,
    layer_distances,
    match_pair,
    match_under,
    proper_rings,
)
from oracles import Transform, apply_transform


def _mu(x, y, th=0.0, kind=MinutiaKind.ENDING):
    return Minutia(float(x), float(y), float(th) % 360.0, kind)


def _ring_minutiae(cx, cy, radius, count, phase=0.0):
    out = []
    for v in range(count):
        ang = 2.0 * math.pi * v / count + phase
        out.append(_mu(cx + radius * math.cos(ang), cy + radius * math.sin(ang)))
    return out


def _nested_triangles(radii, cx=50.0, cy=50.0):
    out = []
    for li, r in enumerate(radii):
        out.extend(_ring_minutiae(cx, cy, r, 3, phase=math.radians(10 * li + 5)))
    return out


def _ring_distances(a, b):
    """layer_distances of the proper rings of two minutia lists' peelings."""
    return layer_distances(*(proper_rings(convex_layers([(m.x, m.y) for m in ms])) for ms in (a, b)))


def _random_set(rng, n, box=120.0):
    pts = set()
    while len(pts) < n:
        pts.add((round(float(rng.uniform(0, box)), 1), round(float(rng.uniform(0, box)), 1)))
    return MinutiaSet.from_iterable(_mu(x, y, rng.uniform(0, 360)) for x, y in pts)


# ---------------------------------------------------------------------------
# layer distances
# ---------------------------------------------------------------------------


def test_layer_distances_identical_sets_are_zero():
    pts = _nested_triangles([3.0, 9.0, 27.0])
    dists = _ring_distances(pts, pts)
    assert len(dists) == 3
    assert all(d <= 1e-9 for d in dists)


def test_layer_distances_pairs_innermost_first():
    # same two inner rings; the second set adds a huge outer triangle.
    # innermost-first pairing compares the shared rings and reports zero.
    two = _nested_triangles([3.0, 9.0])
    three = _nested_triangles([3.0, 9.0]) + _ring_minutiae(50.0, 50.0, 200.0, 3, phase=1.0)
    dists = _ring_distances(two, three)
    assert len(dists) == 2
    assert all(d <= 1e-9 for d in dists)


def test_layer_distances_rigid_motion_invariant():
    rng = np.random.default_rng(301)
    pts = [_mu(x, y) for x, y in rng.uniform(0, 100, size=(14, 2)).round(2)]
    motion = Transform(40.0, 31.0, -7.0)
    moved = [apply_transform(motion, m) for m in pts]
    dists = _ring_distances(pts, moved)
    assert len(dists) >= 1
    assert all(d <= 1e-9 for d in dists)


def test_layer_distances_skip_degenerate_rings():
    # two points never form a ring; only the triangles are compared
    a = _nested_triangles([5.0]) + [_mu(50.0, 50.0), _mu(50.2, 50.0)]
    b = _nested_triangles([5.0])
    assert len(_ring_distances(a, b)) == 1
    assert _ring_distances([], []) == []


# ---------------------------------------------------------------------------
# averaging and the squash
# ---------------------------------------------------------------------------


def test_average_distance():
    assert average_distance([1.0, 2.0, 3.0]) == 2.0
    assert average_distance([0.5]) == 0.5
    assert average_distance([]) == EMPTY_AVERAGE == math.pi


def test_final_score_examples():
    alpha, final = final_score(0.5, 0.5)
    assert alpha == 1.0
    assert final == 0.5
    assert final_score(0.0, 3.0) == (0.0, 0.0)
    alpha, final = final_score(1.0, 0.0)
    assert math.isinf(alpha) and final == 1.0
    alpha, final = final_score(0.44, 26.78)
    assert abs(final - 0.01133) < 1e-5


def test_final_score_monotonicity():
    scores = [final_score(ms, 2.0)[1] for ms in (0.1, 0.3, 0.5, 0.9)]
    assert scores == sorted(scores)
    avgs = [final_score(0.5, av)[1] for av in (0.2, 1.0, 5.0, 25.0)]
    assert avgs == sorted(avgs, reverse=True)
    for ms in (0.05, 0.4, 1.0):
        for av in (0.01, 1.0, 40.0):
            assert 0.0 <= final_score(ms, av)[1] <= 1.0


# ---------------------------------------------------------------------------
# pair scoring
# ---------------------------------------------------------------------------


def test_match_pair_self_is_one():
    ms = _random_set(np.random.default_rng(302), 15)
    out = match_pair(ms, ms)
    assert out.minutiae_score == 1.0
    assert out.final == 1.0
    assert not out.gated
    assert all(d <= 1e-9 for d in out.layer_dists)


def test_match_pair_checks_its_postconditions(monkeypatch):
    ms = _random_set(np.random.default_rng(302), 15)
    for final in (1.0 + 1e-12, -0.5, math.nan):
        monkeypatch.setattr(scoring, "final_score", lambda score, avg, final=final: (1.0, final))
        with pytest.raises(InvariantError, match="out of range"):
            match_pair(ms, ms, ida="a", idb="b")
    monkeypatch.undo()
    # a matched count past min(m, n), on a gated and on a scored pair
    sixteen = np.arange(16) % 15
    monkeypatch.setattr(scoring.kernels, "best_alignment", lambda *args: (0, 0, sixteen, sixteen, 0.0))
    for score in (0.0, 1.0):
        monkeypatch.setattr(scoring, "minutiae_score", lambda k, m, n, score=score: score)
        with pytest.raises(InvariantError, match="k 16 of m 15, n 15"):
            match_pair(ms, ms)
    monkeypatch.undo()
    # one ring distance too many or too few
    real_dists = scoring.layer_distances
    for change in (lambda d: d + [0.0], lambda d: d[:-1]):
        monkeypatch.setattr(scoring, "layer_distances", lambda a, b, change=change: change(real_dists(a, b)))
        with pytest.raises(InvariantError, match="ring distances for"):
            match_pair(ms, ms)
    monkeypatch.undo()
    assert match_pair(ms, ms).final == 1.0


def test_match_pair_rigid_motion_scores_one():
    rng = np.random.default_rng(303)
    ms = _random_set(rng, 18)
    motion = Transform(33.0, 12.0, -20.0)
    moved = MinutiaSet.from_iterable(apply_transform(motion, m) for m in ms)
    out = match_pair(ms, moved)
    assert out.minutiae_score == 1.0
    assert abs(out.final - 1.0) <= 1e-9


def test_match_pair_low_sim_gate():
    rng = np.random.default_rng(304)
    a = _random_set(rng, 40)
    b = MinutiaSet.from_iterable([_mu(5.0, 5.0, 0.0), _mu(110.0, 110.0, 180.0)])
    out = match_pair(a, b)
    assert out.minutiae_score < 0.15
    assert out.gate_reason == GATE_LOW_SIM
    assert out.final == 0.0
    assert out.average is None and out.alpha is None


def test_match_pair_layer_diff_gate():
    # four nested triangles against the same angles flattened onto one
    # circle: every minutia pairs within tolerance but the ring counts
    # differ by three
    radii = [2.0, 4.5, 10.0, 22.5]
    a, b = [], []
    for li, r in enumerate(radii):
        for v in range(3):
            ang = math.radians(120 * v + 10 * li + 5)
            a.append(_mu(50 + r * math.cos(ang), 50 + r * math.sin(ang)))
            b.append(_mu(50 + 12 * math.cos(ang), 50 + 12 * math.sin(ang)))
    out = match_pair(MinutiaSet.from_iterable(a), MinutiaSet.from_iterable(b))
    assert out.minutiae_score >= 0.15
    assert out.layers_input == 4
    assert out.layers_template == 1
    assert out.gate_reason == GATE_LAYER_DIFF
    assert out.final == 0.0


def test_match_pair_layer_diff_counts_degenerate_rings():
    # diff = 0 turns any layer-count difference into a rejection. The
    # first set is a triangle plus its center (a one-point inner ring,
    # two layers); the second moves that center 12px outward past the
    # inradius, giving a single four-point hull.
    tri = _nested_triangles([20.0])
    a = tri + [_mu(50.0, 50.0)]
    b = tri + [_mu(50.0 + 12.0 * math.cos(math.radians(65)), 50.0 + 12.0 * math.sin(math.radians(65)))]
    cfg = MatchConfig(diff=0.0, sim=0.0)
    out = match_pair(MinutiaSet.from_iterable(a), MinutiaSet.from_iterable(b), cfg)
    assert out.k == 4
    assert (out.layers_input, out.layers_template) == (2, 1)
    assert out.gate_reason == GATE_LAYER_DIFF


def test_disabling_gates_never_lowers_scores():
    rng = np.random.default_rng(305)
    off = MatchConfig(sim=0.0, diff=math.inf)
    for _ in range(6):
        a = _random_set(rng, int(rng.integers(3, 25)))
        b = _random_set(rng, int(rng.integers(3, 25)))
        gated = match_pair(a, b)
        open_ = match_pair(a, b, off)
        assert not open_.gated
        assert open_.final >= gated.final


def test_match_under_scores_each_config_as_match_pair_alone():
    # configs that differ in r0, theta0 and both gates, over distinct and
    # repeated pairs: sharing a stage between configs changes no breakdown
    sets = {p.stem: load_fingerprint(p) for p in sorted((Path(__file__).parent / "data" / "min4x3").glob("*.min"))}
    open_ = {"sim": 0.0, "diff": math.inf}
    cases = [
        ("1_1", "1_2", MatchConfig(**open_)),
        ("1_1", "1_2", MatchConfig(r0=6.0, **open_)),
        ("1_1", "1_2", MatchConfig(theta0=3.0, **open_)),
        ("1_1", "1_2", MatchConfig()),  # the first's alignment and rings, other gates
        ("1_2", "1_1", MatchConfig(r0=6.0, theta0=3.0, diff=1.0)),
        ("1_1", "2_1", MatchConfig(theta0=3.0, **open_)),
        ("1_1", "2_1", MatchConfig(theta0=3.0)),  # low_sim
        ("2_2", "2_3", MatchConfig(r0=6.0, **open_)),
        ("2_2", "2_3", MatchConfig(diff=0.0)),  # layer_diff
    ]
    got = match_under([sets[a] for a, _, _ in cases], [sets[b] for _, b, _ in cases],
                      [cfg for _, _, cfg in cases])
    alone = [match_pair(sets[a], sets[b], cfg) for a, b, cfg in cases]
    assert got == alone
    assert {bd.gate_reason for bd in alone} == {"", GATE_LOW_SIM, GATE_LAYER_DIFF}
    assert alone[1] != match_pair(sets["1_1"], sets["1_2"], MatchConfig(**open_))  # r0 matters


def test_match_pair_symmetry():
    rng = np.random.default_rng(306)
    for _ in range(6):
        a = _random_set(rng, int(rng.integers(8, 20)))
        b = _random_set(rng, int(rng.integers(8, 20)))
        ab = match_pair(a, b)
        ba = match_pair(b, a)
        assert ab.k == ba.k
        assert abs(ab.final - ba.final) <= 1e-9


def test_match_pair_scores_extracted_images():
    img = np.full((64, 64), 220, np.uint8)
    img[20:23, 8:56] = 30
    img[40:43, 8:56] = 30
    cfg = MatchConfig(border_margin=2.0)
    out = match_pair(extract(img, cfg), extract(img.copy(), cfg), cfg)
    assert out.m == out.n == 4
    assert out.final == 1.0


def test_breakdown_csv_row():
    ms = _random_set(np.random.default_rng(307), 10)
    out = match_pair(ms, ms, ida="a1", idb="a2")
    row = breakdown_to_csv_row(out)
    cells = row.split(",")
    assert len(cells) == len(CSV_HEADER.split(","))
    assert cells[0] == "a1" and cells[1] == "a2"
    assert cells[2] == "10"
    assert cells[5] == "1.0"
    assert cells[12] == ""


def test_breakdowns_round_trip_through_pickle():
    # worker processes send their breakdowns back pickled at the highest
    # protocol; a slotted frozen dataclass has to come back whole
    rng = np.random.default_rng(308)
    a = _random_set(rng, 30)
    scored = match_pair(a, a, ida="1_1", idb="1_2")
    gated = match_pair(a, MinutiaSet.from_iterable([_mu(5.0, 5.0), _mu(110.0, 110.0, 180.0)]))
    assert not scored.gated and scored.l > 0 and gated.gated
    for bd in (scored, gated):
        again = pickle.loads(pickle.dumps(bd, pickle.HIGHEST_PROTOCOL))
        assert again == bd
        assert (again.gated, again.l, again.layer_dists) == (bd.gated, bd.l, bd.layer_dists)
    assert not hasattr(scored, "__dict__")
