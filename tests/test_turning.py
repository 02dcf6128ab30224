import math

import numpy as np
import pytest

from onionprint import kernels
from onionprint.errors import InvalidInputError
from onionprint.turning import (
    TurningFunction,
    turning_distance,
    turning_function,
)
from oracles import (
    distance_at_shift,
    grid_min_distance,
    min_turning_distance_scan,
    overlap_shift_distance,
    random_convex_polygon,
    riemann_shift_distance,
    turning_value,
)

SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
RECT_2_1 = [(0.0, 0.0), (2.0, 0.0), (2.0, 1.0), (0.0, 1.0)]


def test_unit_square_breaks():
    f = turning_function(SQUARE)
    assert np.allclose(f.breaks, [0.0, 0.25, 0.5, 0.75])
    assert np.allclose(f.angles, [0.0, math.pi / 2, math.pi, 3 * math.pi / 2])
    assert f.perimeter == 4.0


def test_equilateral_triangle_jumps():
    h = math.sqrt(3.0) / 2.0
    f = turning_function([(0.0, 0.0), (1.0, 0.0), (0.5, h)])
    assert np.allclose(f.breaks, [0.0, 1.0 / 3.0, 2.0 / 3.0])
    assert np.allclose(np.diff(f.angles), [2 * math.pi / 3] * 2)


def test_reference_vertex_is_lexicographic_minimum():
    # same polygon, every cyclic vertex order: identical encoding
    base = turning_function(SQUARE)
    for shift in range(1, 4):
        rolled = turning_function(np.roll(SQUARE, -shift, axis=0))
        assert np.array_equal(rolled.breaks, base.breaks)
        assert np.array_equal(rolled.angles, base.angles)


def test_total_turn_of_random_convex_polygons():
    rng = np.random.default_rng(31)
    for _ in range(30):
        poly = random_convex_polygon(rng, int(rng.integers(3, 31)))
        f = turning_function(poly)
        assert f.breaks[0] == 0.0
        assert np.all(np.diff(f.breaks) > 0)
        assert np.all(f.breaks < 1.0)
        steps = np.diff(f.angles)
        assert np.all(steps >= 0)
        span = f.angles[-1] - f.angles[0]
        assert span < 2 * math.pi
        # closing the tour at the reference vertex completes one full turn
        edges = np.roll(poly, -1, axis=0) - poly
        turns = np.mod(np.diff(np.arctan2(edges[:, 1], edges[:, 0]), append=np.arctan2(edges[0, 1], edges[0, 0])), 2 * math.pi)
        assert abs(turns.sum() - 2 * math.pi) < 1e-9


def test_cyclic_extension():
    f = turning_function(SQUARE)
    for s in (0.0, 0.1, 0.25, 0.6, 0.99):
        assert turning_value(f, s + 1.0) == pytest.approx(turning_value(f, s) + 2 * math.pi,
                                                          abs=1e-12)


def test_rejects_bad_polygons():
    with pytest.raises(InvalidInputError):
        turning_function([(0.0, 0.0), (1.0, 0.0)])
    with pytest.raises(InvalidInputError):
        turning_function(list(reversed(SQUARE)))  # clockwise
    with pytest.raises(InvalidInputError):
        turning_function([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)])  # zero area


def test_shift_distance_identity():
    f = turning_function(SQUARE)
    res = distance_at_shift(f, f, 0.0)
    assert res.distance == pytest.approx(0.0, abs=1e-12)
    assert res.rotation == pytest.approx(0.0, abs=1e-12)


def test_shift_distance_constant_offset_absorbed():
    g = turning_function(SQUARE)
    c = 0.7
    f = TurningFunction(breaks=g.breaks, angles=g.angles + c, perimeter=g.perimeter)
    res = distance_at_shift(f, g, 0.0)
    assert res.distance == pytest.approx(0.0, abs=1e-12)
    # the optimal rotation cancels the offset
    assert res.rotation == pytest.approx(-c, abs=1e-12)


def test_shift_distance_square_vs_rectangle_riemann():
    f = turning_function(SQUARE)
    g = turning_function(RECT_2_1)
    got = distance_at_shift(f, g, 0.0)
    # 99996 samples make every breakpoint (quarters and sixths) a cell
    # boundary, so the Riemann sum is exact
    want_d, want_rot = riemann_shift_distance(SQUARE, RECT_2_1, 0.0, samples=99996)
    assert got.distance == pytest.approx(want_d, abs=1e-6)
    assert got.rotation == pytest.approx(want_rot, abs=1e-6)


def test_shift_distance_random_shifts_match_overlap_oracle():
    rng = np.random.default_rng(32)
    for _ in range(15):
        pf = random_convex_polygon(rng, int(rng.integers(3, 25)))
        pg = random_convex_polygon(rng, int(rng.integers(3, 25)))
        f, g = turning_function(pf), turning_function(pg)
        for t in rng.uniform(0.0, 1.0, 4):
            got = distance_at_shift(f, g, float(t))
            want_d, want_rot = overlap_shift_distance(pf, pg, float(t))
            assert got.distance == pytest.approx(want_d, abs=1e-9)
            assert got.rotation == pytest.approx(want_rot, abs=1e-9)


def test_shift_distance_rejects_other_norms():
    # the norm is L2 throughout: neither the distance nor its reference
    # takes an argument that could choose another
    f = turning_function(SQUARE)
    with pytest.raises(TypeError):
        distance_at_shift(f, f, 0.0, p=1)
    with pytest.raises(TypeError):
        turning_distance(f, f, p=3)


def test_turning_distance_identity():
    rng = np.random.default_rng(33)
    for _ in range(10):
        poly = random_convex_polygon(rng, int(rng.integers(3, 31)))
        f = turning_function(poly)
        assert turning_distance(f, f).distance <= 1e-9


def test_turning_distance_similarity_invariance():
    rng = np.random.default_rng(34)
    for _ in range(10):
        poly = random_convex_polygon(rng, int(rng.integers(3, 20)))
        ang = math.radians(37.0)
        rot = np.array([[math.cos(ang), -math.sin(ang)], [math.sin(ang), math.cos(ang)]])
        moved = 3.0 * (poly @ rot.T) + np.array([12.5, -4.0])
        d = turning_distance(turning_function(poly), turning_function(moved)).distance
        assert d <= 1e-9


def test_turning_distance_square_vs_rectangle_grid_oracle():
    f = turning_function(SQUARE)
    g = turning_function(RECT_2_1)
    res = turning_distance(f, g)
    assert res.distance == pytest.approx(grid_min_distance(SQUARE, RECT_2_1), abs=1e-4)
    assert 0.0 <= res.best_shift < 1.0
    # the reported shift and rotation reproduce the reported distance
    at = distance_at_shift(f, g, res.best_shift)
    assert at.distance == pytest.approx(res.distance, abs=1e-9)
    assert at.rotation == pytest.approx(res.best_rotation, abs=1e-9)


def test_turning_distance_is_a_pseudometric():
    rng = np.random.default_rng(35)
    for _ in range(12):
        polys = [random_convex_polygon(rng, int(rng.integers(3, 15))) for _ in range(3)]
        fa, fb, fc = (turning_function(p) for p in polys)
        dab = turning_distance(fa, fb).distance
        dba = turning_distance(fb, fa).distance
        dac = turning_distance(fa, fc).distance
        dbc = turning_distance(fb, fc).distance
        assert dab >= 0.0
        assert abs(dab - dba) <= 1e-9
        assert dac <= dab + dbc + 1e-9


def test_turning_distance_never_exceeds_any_shift():
    rng = np.random.default_rng(36)
    pf = random_convex_polygon(rng, 12)
    pg = random_convex_polygon(rng, 9)
    f, g = turning_function(pf), turning_function(pg)
    best = turning_distance(f, g).distance
    for t in rng.uniform(0.0, 1.0, 50):
        assert best <= distance_at_shift(f, g, float(t)).distance + 1e-12


def test_min_turning_distance_matches_scalar_scan():
    rng = np.random.default_rng(37)
    for _ in range(10):
        f = turning_function(random_convex_polygon(rng, int(rng.integers(3, 20))))
        g = turning_function(random_convex_polygon(rng, int(rng.integers(3, 20))))
        args = (f.breaks, f.angles, g.breaks, g.angles)
        d1, t1, r1 = min_turning_distance_scan(*args)
        d2, t2, r2 = kernels.min_turning_distance(*args)
        assert d1 == pytest.approx(d2, abs=1e-12)
        assert t1 == pytest.approx(t2, abs=1e-12)
        assert r1 == pytest.approx(r2, abs=1e-12)
