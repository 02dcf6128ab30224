import itertools
import math
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

from onionprint import kernels
from onionprint.errors import InvalidInputError
from onionprint.geometry import convex_layers
from onionprint.scoring import layer_distances, proper_rings
from onionprint.synth import synthetic_corpus
from oracles import (
    distance_at_shift,
    grid_min_distance,
    min_turning_distance_full,
    min_turning_distance_scan,
    overlap_shift_distance,
    random_convex_polygon,
    riemann_shift_distance,
    shift_table_full,
    turning_value,
)


@dataclass(frozen=True)
class _Fn:
    """One ring's turning function, as the oracles read it: ``breaks``
    and ``angles`` of its vertices and the ring's perimeter."""

    breaks: np.ndarray
    angles: np.ndarray
    perimeter: float

    def __len__(self):
        return self.breaks.shape[0]


def _fn(poly):
    """`kernels._encode` on a batch of one ring."""
    breaks, angles, counts, perimeter = kernels._encode([poly])
    v = counts[0]
    return _Fn(breaks=breaks[0, :v], angles=angles[0, :v], perimeter=float(perimeter[0]))


def _distance(pf, pg):
    """The kernel's distance of one ring pair."""
    return kernels.min_turning_distance([pf], [pg])[0]


def _scan(f, g):
    """(distance, shift, rotation) of one pair of turning functions, from
    the reference scan; its shift and rotation reproduce its distance."""
    d, t, r = min_turning_distance_scan(f.breaks, f.angles, g.breaks, g.angles)
    assert 0.0 <= t < 1.0
    at = distance_at_shift(f, g, t)
    assert at.distance == pytest.approx(d, abs=1e-9)
    assert at.rotation == pytest.approx(r, abs=1e-9)
    return d, t, r


SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
RECT_2_1 = [(0.0, 0.0), (2.0, 0.0), (2.0, 1.0), (0.0, 1.0)]


def test_unit_square_breaks():
    f = _fn(SQUARE)
    assert np.allclose(f.breaks, [0.0, 0.25, 0.5, 0.75])
    assert np.allclose(f.angles, [0.0, math.pi / 2, math.pi, 3 * math.pi / 2])
    assert f.perimeter == 4.0


def test_equilateral_triangle_jumps():
    h = math.sqrt(3.0) / 2.0
    f = _fn([(0.0, 0.0), (1.0, 0.0), (0.5, h)])
    assert np.allclose(f.breaks, [0.0, 1.0 / 3.0, 2.0 / 3.0])
    assert np.allclose(np.diff(f.angles), [2 * math.pi / 3] * 2)


def test_reference_vertex_is_lexicographic_minimum():
    # same polygon, every cyclic vertex order: identical encoding
    base = _fn(SQUARE)
    for shift in range(1, 4):
        rolled = _fn(np.roll(SQUARE, -shift, axis=0))
        assert np.array_equal(rolled.breaks, base.breaks)
        assert np.array_equal(rolled.angles, base.angles)


def test_total_turn_of_random_convex_polygons():
    rng = np.random.default_rng(31)
    for _ in range(30):
        poly = random_convex_polygon(rng, int(rng.integers(3, 31)))
        f = _fn(poly)
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
    f = _fn(SQUARE)
    for s in (0.0, 0.1, 0.25, 0.6, 0.99):
        assert turning_value(f, s + 1.0) == pytest.approx(turning_value(f, s) + 2 * math.pi,
                                                          abs=1e-12)


# a ring whose edges overflow: the one bad ring a peeling can give
HUGE = [(-6e307, 0.0), (6e307, 5.0), (3.0, 4.0)]


def test_rejects_bad_polygons():
    # only an encoding that overflows is bad; a small ring far from the
    # origin, as a .min file rounds it, is a ring like any other
    with pytest.raises(InvalidInputError, match="too large"):
        _fn(HUGE)
    tiny = np.array([(0.0, 0.0), (0.001, 0.001), (0.002, 0.003)])
    for offset in (0.0, 1e4, 1e6, 1e8):
        far = tiny + offset
        f = _fn(far)
        assert f.breaks[0] == 0.0 and np.all(np.diff(f.breaks) > 0)
        # the far ring moved to the origin, exactly (Sterbenz)
        assert _distance(far, far - offset) <= 1e-9


def test_shift_distance_identity():
    f = _fn(SQUARE)
    res = distance_at_shift(f, f, 0.0)
    assert res.distance == pytest.approx(0.0, abs=1e-12)
    assert res.rotation == pytest.approx(0.0, abs=1e-12)


def test_shift_distance_constant_offset_absorbed():
    g = _fn(SQUARE)
    c = 0.7
    f = _Fn(breaks=g.breaks, angles=g.angles + c, perimeter=g.perimeter)
    res = distance_at_shift(f, g, 0.0)
    assert res.distance == pytest.approx(0.0, abs=1e-12)
    # the optimal rotation cancels the offset
    assert res.rotation == pytest.approx(-c, abs=1e-12)


def test_shift_distance_square_vs_rectangle_riemann():
    f = _fn(SQUARE)
    g = _fn(RECT_2_1)
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
        f, g = _fn(pf), _fn(pg)
        for t in rng.uniform(0.0, 1.0, 4):
            got = distance_at_shift(f, g, float(t))
            want_d, want_rot = overlap_shift_distance(pf, pg, float(t))
            assert got.distance == pytest.approx(want_d, abs=1e-9)
            assert got.rotation == pytest.approx(want_rot, abs=1e-9)


def test_shift_distance_rejects_other_norms():
    # the norm is L2 throughout: neither the distance nor its reference
    # takes an argument that could choose another
    f = _fn(SQUARE)
    with pytest.raises(TypeError):
        distance_at_shift(f, f, 0.0, p=1)
    with pytest.raises(TypeError):
        kernels.min_turning_distance([SQUARE], [SQUARE], p=3)


def test_turning_distance_identity():
    rng = np.random.default_rng(33)
    for _ in range(10):
        poly = random_convex_polygon(rng, int(rng.integers(3, 31)))
        assert _distance(poly, poly) <= 1e-9


def test_turning_distance_similarity_invariance():
    rng = np.random.default_rng(34)
    for _ in range(10):
        poly = random_convex_polygon(rng, int(rng.integers(3, 20)))
        ang = math.radians(37.0)
        rot = np.array([[math.cos(ang), -math.sin(ang)], [math.sin(ang), math.cos(ang)]])
        moved = 3.0 * (poly @ rot.T) + np.array([12.5, -4.0])
        d = _distance(poly, moved)
        assert d <= 1e-9


def test_turning_distance_square_vs_rectangle_grid_oracle():
    distance = _distance(SQUARE, RECT_2_1)
    assert distance == pytest.approx(grid_min_distance(SQUARE, RECT_2_1), abs=1e-4)
    assert distance == pytest.approx(_scan(_fn(SQUARE), _fn(RECT_2_1))[0], abs=1e-12)


def test_turning_distance_is_a_pseudometric():
    rng = np.random.default_rng(35)
    for _ in range(12):
        pa, pb, pc = (random_convex_polygon(rng, int(rng.integers(3, 15))) for _ in range(3))
        dab = _distance(pa, pb)
        dba = _distance(pb, pa)
        dac = _distance(pa, pc)
        dbc = _distance(pb, pc)
        assert dab >= 0.0
        assert abs(dab - dba) <= 1e-9
        assert dac <= dab + dbc + 1e-9


def test_turning_distance_never_exceeds_any_shift():
    rng = np.random.default_rng(36)
    pf = random_convex_polygon(rng, 12)
    pg = random_convex_polygon(rng, 9)
    f, g = _fn(pf), _fn(pg)
    best = _distance(pf, pg)
    for t in rng.uniform(0.0, 1.0, 50):
        assert best <= distance_at_shift(f, g, float(t)).distance + 1e-12


def test_min_turning_distance_matches_scalar_scan():
    rng = np.random.default_rng(37)
    pfs = [random_convex_polygon(rng, int(rng.integers(3, 20))) for _ in range(10)]
    pgs = [random_convex_polygon(rng, int(rng.integers(3, 20))) for _ in range(10)]
    got = kernels.min_turning_distance(pfs, pgs)
    assert len(got) == 10
    for pf, pg, d in zip(pfs, pgs, got):
        assert _scan(_fn(pf), _fn(pg))[0] == pytest.approx(d, abs=1e-12)


def _batch_cases(rng):
    """Random ring pairs whose m + n falls below 8, in 8-16 and above 16
    (numpy's summation branches), then pairs whose breaks coincide after
    a shift, so that zero-width cells (SNAP_EPS) and ties in the sort
    occur: regular polygons, whose symmetry also makes shifts tie, and a
    ring with a sliver edge."""
    pairs = []
    for lo, hi in ((3, 5), (4, 9), (9, 20)):
        for _ in range(6):
            pairs.append(tuple(random_convex_polygon(rng, int(rng.integers(lo, hi))) for _ in range(2)))

    def regular(nv, scale=1.0):
        ang = 2 * math.pi * np.arange(nv) / nv + 0.3
        return np.column_stack([np.cos(ang), np.sin(ang)]) * scale + 4.0

    symmetric = [(SQUARE, RECT_2_1)]
    for nv, scale in ((3, 1.0), (4, 2.5), (6, 1.0), (8, 3.0), (10, 1.0)):
        symmetric.append((regular(nv), regular(nv, scale)))
    for nf, ng in ((5, 10), (9, 12), (12, 8), (15, 6), (18, 17)):
        symmetric.append((regular(nf), regular(ng, 2.0)))
    # an edge of 1e-17 puts two breaks of one function within rounding
    # of each other
    sliver = np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1e-17), (0.5, 1.0), (0.0, 1.0)])
    symmetric += [(regular(5, 3.0), sliver), (sliver, regular(8, 7.0)), (sliver, regular(12, 7.0))]
    return pairs, symmetric


def test_batched_turning_functions_equal_each_ring_alone():
    rings = [r for cases in _batch_cases(np.random.default_rng(38)) for pair in cases for r in pair]
    breaks, angles, counts, perimeters = kernels._encode(rings)
    for row, ring in enumerate(rings):
        alone = _fn(ring)
        v = len(alone)
        assert counts[row] == v
        assert breaks[row, :v].tolist() == alone.breaks.tolist()
        assert angles[row, :v].tolist() == alone.angles.tolist()
        assert perimeters[row] == alone.perimeter
        # the first edge's direction, as math.atan2 gives it
        pts = np.asarray(ring, dtype=float)
        first = int(np.lexsort((pts[:, 1], pts[:, 0]))[0])
        dx, dy = (pts[(first + 1) % v] - pts[first]).tolist()
        assert angles[row, 0] == math.atan2(dy, dx)


def test_batched_distances_equal_each_pair_alone_and_the_scan():
    random_pairs, symmetric = _batch_cases(np.random.default_rng(39))
    pairs = random_pairs + symmetric
    sums = {len(a) + len(b) for a, b in pairs}
    assert min(sums) < 8 and any(8 <= s <= 16 for s in sums) and max(sums) > 16
    batch = kernels.min_turning_distance([a for a, _ in pairs], [b for _, b in pairs])
    assert len(batch) == len(pairs)
    snapped = 0
    for (a, b), got in zip(pairs, batch):
        assert got == _distance(a, b)
        f, g = _fn(a), _fn(b)
        d, t, _ = _scan(f, g)
        assert got == pytest.approx(d, abs=1e-12)
        shifted = np.sort(np.concatenate([(f.breaks - t) % 1.0, g.breaks]))
        snapped += bool(np.any(np.diff(shifted) <= kernels.SNAP_EPS))
    assert snapped >= 5


def test_batch_with_one_bad_ring_raises_as_that_ring_alone():
    with pytest.raises(InvalidInputError) as alone:
        kernels.min_turning_distance([HUGE], [SQUARE])
    with pytest.raises(InvalidInputError) as batch:
        kernels.min_turning_distance([SQUARE, RECT_2_1, HUGE], [RECT_2_1, SQUARE, SQUARE])
    assert str(batch.value) == str(alone.value)


def test_frac_is_numpy_remainder_bit_for_bit():
    rng = np.random.default_rng(40)
    breaks = np.sort(rng.uniform(0.0, 1.0, (200, 12)), axis=1)
    x = np.concatenate([
        rng.uniform(-3.0, 3.0, 10_000), rng.normal(0.0, 1e-15, 1_000),
        (breaks[:, :, None] - breaks[:, None, :]).ravel(),
        [-0.0, 0.0, 1.0, -1.0, 2.0, -2.0, 1 - 2**-53, -(1 - 2**-53), -1e-17, -5e-324, 5e-324, 1e300, -1e300],
    ])
    want = x % 1.0
    got = kernels._frac(x)
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


def test_row_sums_equal_each_row_summed_alone():
    rng = np.random.default_rng(41)
    sizes = [1, 3, 7, 7, 8, 12, 16, 17, 30, 130, 5]
    table = rng.normal(size=(len(sizes), 140)) * 10.0 ** rng.uniform(-8, 8, size=(len(sizes), 140))
    got = kernels.row_sums(table, [(s, 1) for s in sizes])
    assert got.tolist() == [table[k, :s].copy().sum() for k, s in enumerate(sizes)]


def test_passes_of_the_shift_table_change_no_result(monkeypatch):
    random_pairs, symmetric = _batch_cases(np.random.default_rng(42))
    args = ([a for a, _ in random_pairs + symmetric], [b for _, b in random_pairs + symmetric])
    whole = kernels.min_turning_distance(*args)
    passes = []
    real = kernels._shift_pass
    monkeypatch.setattr(kernels, "_shift_pass", lambda *a: passes.append(len(a[2])) or real(*a))
    monkeypatch.setattr(kernels, "SHIFT_CELLS", 400)
    assert kernels.min_turning_distance(*args) == whole
    assert len(passes) > 3 and sum(passes) == len(whole)


def _genuine_peer_rings():
    """The peer rings the scored genuine pairs of a synthetic corpus
    compare: every two impressions of a finger, aligned at the stock
    tolerances and peeled."""
    corpus = synthetic_corpus(1, 10, 3)
    pairs = []
    for (fa, _, a), (fb, _, b) in itertools.combinations(corpus, 2):
        if fa != fb:
            continue
        pa, pb = a.prepared, b.prepared
        pairs_i, pairs_j = kernels.best_alignment(pa, pa.y, pa.t, pb, pb.y, pb.t, 15.0, 10.0)[2:4]
        rings_a = proper_rings(convex_layers(a.positions()[pairs_i]))
        rings_b = proper_rings(convex_layers(b.positions()[pairs_j]))
        pairs += zip(rings_a, rings_b)
    return pairs


def _screen_families():
    """Ring pairs the screen must not change: the batch cases, rings of
    30 to 60 vertices, and the peer rings of genuine pairs."""
    random_pairs, symmetric = _batch_cases(np.random.default_rng(44))
    rng = np.random.default_rng(45)
    large = [tuple(random_convex_polygon(rng, int(rng.integers(30, 61))) for _ in range(2)) for _ in range(8)]
    return {"batch": random_pairs + symmetric, "large": large, "genuine": _genuine_peer_rings()}


def test_screened_distances_equal_the_full_table():
    for name, pairs in _screen_families().items():
        rings_f, rings_g = [a for a, _ in pairs], [b for _, b in pairs]
        assert len(pairs) >= 8, name
        assert kernels.min_turning_distance(rings_f, rings_g) == min_turning_distance_full(rings_f, rings_g), name


def test_screen_stays_within_a_tenth_of_its_margin():
    # the screen keeps the shifts within 2 delta of each pair's screened
    # minimum; that keeps every minimum of the table only while the
    # screen strays from the table by less than delta at every shift
    for name, pairs in _screen_families().items():
        breaks, angles, counts, _ = kernels._encode([r for pair in pairs for r in pair])
        fs, fa, m = breaks[0::2], angles[0::2], counts[0::2]
        gs, ga, n = breaks[1::2], angles[1::2], counts[1::2]
        pair = np.repeat(np.arange(len(pairs)), m * n)
        q = np.arange(pair.shape[0]) - (np.cumsum(m * n) - m * n)[pair]
        i, j = np.divmod(q, n[pair])
        screen = kernels._screen(fs, fa, m, gs, ga, n, pair, i, j, kernels._frac(fs[pair, i] - gs[pair, j]))
        table = np.concatenate([shift_table_full(fs[r:r + 1], fa[r:r + 1], m[r:r + 1], gs[r:r + 1], ga[r:r + 1],
                                                 n[r:r + 1]) for r in range(len(pairs))])
        delta = (kernels.SCREEN_EPS * (m + n))[pair]
        assert (np.abs(screen - table) <= delta / 10).all(), name


def test_shape_stage_memory_is_bounded():
    # every ring pair of two 600-point peelings in one call: 34 ring
    # pairs, 510,848 table cells in all, some 50 MB in one table
    rng = np.random.default_rng(43)
    pts = rng.uniform(0.0, 400.0, size=(600, 2))
    layers = [convex_layers(p) for p in (pts, pts + rng.normal(0.0, 1.0, size=pts.shape))]
    tracemalloc.start()
    try:
        dists = layer_distances(*map(proper_rings, layers))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(dists) > 25
    assert peak < 16 << 20, peak
