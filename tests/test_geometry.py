import numpy as np
import pytest

from onionprint.errors import InvalidInputError
from onionprint.geometry import convex_hull, convex_layers, layers_to_csv_rows
from oracles import (
    BOUNDARY,
    INSIDE,
    OUTSIDE,
    dedup_points,
    hull_vertex_indices,
    peel_layers_oracle,
    point_in_convex,
    polygon_signed_area,
    ring_set,
)

UNIT_SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]


def test_square_plus_center_hull():
    pts = UNIT_SQUARE + [(0.5, 0.5)]
    hull = convex_hull(pts)
    assert hull.tolist() == [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]


def test_three_points_ccw():
    hull = convex_hull([(2.0, 0.0), (0.0, 0.0), (1.0, 2.0)])
    assert hull.tolist() == [[0.0, 0.0], [2.0, 0.0], [1.0, 2.0]]
    assert polygon_signed_area(hull) > 0


def test_hull_small_inputs():
    assert convex_hull([]).shape == (0, 2)
    assert convex_hull([(3.0, 4.0)]).tolist() == [[3.0, 4.0]]
    assert convex_hull([(3.0, 4.0), (3.0, 4.0)]).tolist() == [[3.0, 4.0]]
    # two distinct points come back lexicographically sorted
    assert convex_hull([(5.0, 1.0), (2.0, 9.0)]).tolist() == [[2.0, 9.0], [5.0, 1.0]]


def test_all_collinear_reduces_to_extremes():
    pts = [(0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (3.0, 3.0)]
    assert convex_hull(pts).tolist() == [[0.0, 0.0], [3.0, 3.0]]


def test_collinear_edge_points_excluded():
    # midpoints of square edges are not strict hull vertices
    pts = UNIT_SQUARE + [(0.5, 0.0), (1.0, 0.5)]
    assert ring_set(convex_hull(pts)) == ring_set(UNIT_SQUARE)


def test_non_finite_rejected():
    with pytest.raises(InvalidInputError):
        convex_hull([(0.0, 0.0), (np.nan, 1.0), (1.0, 0.0)])


def test_two_nested_squares():
    outer = [(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0)]
    inner = [(1.0, 1.0), (3.0, 1.0), (3.0, 3.0), (1.0, 3.0)]
    lay = convex_layers(outer + inner)
    assert len(lay) == 2
    assert lay.layers[0].depth == 0
    assert ring_set(lay.layers[0].ring) == ring_set(outer)
    assert lay.layers[1].depth == 1
    assert ring_set(lay.layers[1].ring) == ring_set(inner)


def test_three_points_single_layer():
    lay = convex_layers([(0.0, 0.0), (2.0, 0.0), (1.0, 2.0)])
    assert len(lay) == 1
    assert lay.layers[0].depth == 0


def test_collinear_stack_peels_inward():
    pts = [(float(i), 0.0) for i in range(5)]
    lay = convex_layers(pts)
    assert [ring_set(l.ring) for l in lay.layers] == [
        {(0.0, 0.0), (4.0, 0.0)},
        {(1.0, 0.0), (3.0, 0.0)},
        {(2.0, 0.0)},
    ]
    assert not lay.layers[0].is_proper()


def test_point_in_convex_unit_square():
    assert point_in_convex(UNIT_SQUARE, (0.5, 0.5)) == INSIDE
    assert point_in_convex(UNIT_SQUARE, (0.0, 0.5)) == BOUNDARY
    assert point_in_convex(UNIT_SQUARE, (2.0, 2.0)) == OUTSIDE
    assert point_in_convex(UNIT_SQUARE, (1.0, 1.0)) == BOUNDARY


def test_point_in_convex_rejects_degenerate():
    with pytest.raises(InvalidInputError):
        point_in_convex([(0.0, 0.0), (1.0, 1.0)], (0.5, 0.5))
    with pytest.raises(InvalidInputError):
        point_in_convex([(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)], (0.5, 0.5))


def test_layers_csv_dump():
    rows = layers_to_csv_rows(convex_layers([(0.0, 0.0), (2.0, 0.0), (1.0, 2.0)]))
    assert rows == ["0,0.0,0.0", "0,2.0,0.0", "0,1.0,2.0"]


def _check_against_oracle(pts, allow_boundary=False):
    """Full cross-check of one point set against the slow references.

    allow_boundary: collinear layouts leave excluded edge points exactly
    on the enclosing ring, so the strict-containment check must admit
    boundary hits for integer grids.
    """
    distinct = dedup_points(pts)
    hull = convex_hull(pts)
    want = ring_set(distinct[hull_vertex_indices(distinct)])
    assert ring_set(hull) == want

    if len(hull) >= 3:
        # counterclockwise from the lexicographic minimum, strictly convex
        assert tuple(hull[0]) == min(map(tuple, hull))
        k = len(hull)
        for i in range(k):
            o, a, b = hull[i], hull[(i + 1) % k], hull[(i + 2) % k]
            assert (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0]) > 0

    lay = convex_layers(pts)
    want_layers = peel_layers_oracle(pts)
    assert len(lay) == len(want_layers)
    for layer, want in zip(lay.layers, want_layers):
        assert ring_set(layer.ring) == want
    assert [layer.depth for layer in lay.layers] == list(range(len(lay)))
    assert sum(len(layer.ring) for layer in lay.layers) == len(distinct)

    # deeper points fall inside every enclosing proper ring, strictly so
    # unless collinear fall-through is possible
    allowed = {INSIDE, BOUNDARY} if allow_boundary else {INSIDE}
    for parent, child in zip(lay.layers, lay.layers[1:]):
        if parent.is_proper():
            for q in child.ring:
                assert point_in_convex(parent.ring, q) in allowed


def test_degenerate_grid_sets_match_oracle():
    # small integer grids force duplicates and collinear runs
    rng = np.random.default_rng(824)
    for _ in range(40):
        n = int(rng.integers(3, 41))
        pts = rng.integers(0, 13, size=(n, 2)).astype(float)
        _check_against_oracle(pts, allow_boundary=True)


def test_generic_float_sets_match_oracle():
    rng = np.random.default_rng(825)
    for _ in range(25):
        n = int(rng.integers(3, 45))
        pts = rng.uniform(0.0, 512.0, size=(n, 2))
        _check_against_oracle(pts)


def test_hull_permutation_invariant():
    rng = np.random.default_rng(826)
    pts = rng.uniform(0.0, 100.0, size=(30, 2))
    base = convex_hull(pts)
    for _ in range(5):
        assert np.array_equal(convex_hull(rng.permutation(pts)), base)


def test_hull_contains_every_input_point():
    rng = np.random.default_rng(827)
    pts = rng.uniform(0.0, 200.0, size=(40, 2))
    hull = convex_hull(pts)
    for q in pts:
        assert point_in_convex(hull, q) != OUTSIDE
