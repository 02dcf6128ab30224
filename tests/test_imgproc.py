import math

import numpy as np
import pytest

from onionprint.config import MatchConfig
from onionprint.errors import InvalidInputError, PreconditionError
from onionprint.imgproc import (
    Detections,
    bifurcation_direction,
    binarize,
    clean_minutiae,
    despeckle,
    detect_minutiae,
    extract,
    is_thin,
    merge_close,
    orientations,
    otsu_threshold,
    remove_border_minutiae,
    thin,
)
from onionprint.kernels import zhang_suen_pass
from onionprint.minutiae import Minutia, MinutiaKind
from oracles import (
    bifurcation_direction_scalar,
    count_components_8,
    extract_eager,
    has_full_2x2_block,
    merge_close_dense,
    merge_groups_unionfind,
    orientation_scalar,
    otsu_threshold_bruteforce,
    thin_scalar,
    zhang_suen_pass_scalar,
)


def _E(x, y, theta=0.0):
    return Minutia(x=x, y=y, theta=theta, kind=MinutiaKind.ENDING)


def _B(x, y, theta=0.0):
    return Minutia(x=x, y=y, theta=theta, kind=MinutiaKind.BIFURCATION)


def _detections(ms):
    """Detections at the positions and kinds of a list of minutiae."""
    return Detections(np.array([m.x for m in ms], dtype=float), np.array([m.y for m in ms], dtype=float),
                      np.array([m.kind is MinutiaKind.BIFURCATION for m in ms], dtype=bool))


def _rows(d):
    """(x, y, kind) per detection."""
    return [(x, y, MinutiaKind.BIFURCATION if b else MinutiaKind.ENDING)
            for x, y, b in zip(d.x.tolist(), d.y.tolist(), d.bif.tolist())]


def _merge(ms, rm):
    """merge_close over minutiae: (x, y, kind, orientation of the representative) rows."""
    out = merge_close(_detections(ms), rm)
    return [(x, y, kind, ms[r].theta) for (x, y, kind), r in zip(_rows(out), out.rep.tolist())]


def _thetas(sk, d):
    return orientations(sk, d.x, d.y, d.bif).tolist()


def _y_skeleton():
    """Perfect one-pixel Y: branches at 90 (up), 225 and 315 (down diagonals)."""
    sk = np.zeros((17, 17), np.uint8)
    for k in range(1, 7):
        sk[8 - k, 8] = 1
        sk[8 + k, 8 - k] = 1
        sk[8 + k, 8 + k] = 1
    sk[8, 8] = 1
    return sk


def _ridges(rng, width, height, noise, angle=45.0, period=10.0):
    """Noisy cosine ridges across direction `angle` (degrees) with a few spiral minutiae."""
    yy, xx = np.mgrid[0:height, 0:width].astype(float)
    t = math.radians(angle)
    phase = (2.0 * math.pi / period) * (xx * math.cos(t) + yy * math.sin(t))
    for k in range(4):
        cx, cy = rng.uniform(20, width - 20), rng.uniform(20, height - 20)
        phase += (-1) ** k * np.arctan2(yy - cy, xx - cx)
    img = 128.0 + 100.0 * np.cos(phase) + rng.normal(0.0, noise, size=phase.shape)
    return np.clip(np.rint(img), 0, 255).astype(np.uint8)


# ---------------------------------------------------------------------------
# binarize
# ---------------------------------------------------------------------------


def test_binarize_uniform_above_threshold_is_background():
    img = np.full((5, 7), 200, np.uint8)
    assert binarize(img, "fixed", 128).sum() == 0


def test_binarize_checkerboard():
    img = (np.indices((6, 6)).sum(axis=0) % 2) * 255
    out = binarize(img, "fixed", 128)
    assert np.array_equal(out, (img == 0).astype(np.uint8))


def test_binarize_rejects_empty_and_unknown_method():
    with pytest.raises(InvalidInputError):
        binarize(np.zeros((0, 4), np.uint8))
    with pytest.raises(InvalidInputError):
        binarize(np.zeros((4, 4), np.uint8), "adaptive")


def test_otsu_matches_exhaustive_search():
    rng = np.random.default_rng(911)
    bimodal = np.where(rng.random((20, 20)) < 0.5, 50, 200).astype(np.uint8)
    cases = [
        bimodal,
        np.array([[50] * 10 + [200] * 10] * 4, np.uint8),
        rng.integers(0, 256, size=(30, 30)).astype(np.uint8),
        rng.normal(120, 30, size=(25, 25)).clip(0, 255).astype(np.uint8),
    ]
    for img in cases:
        t = otsu_threshold(img)
        assert t == otsu_threshold_bruteforce(img)
        assert np.array_equal(binarize(img, "otsu"), (img < t).astype(np.uint8))


def test_otsu_tie_breaks_toward_smaller_threshold():
    # a gap in the histogram makes every threshold inside it equally good
    img = np.array([[10] * 6 + [240] * 6], np.uint8)
    assert otsu_threshold(img) == 11


# ---------------------------------------------------------------------------
# thinning
# ---------------------------------------------------------------------------


def test_thin_diagonal_line_unchanged():
    img = np.zeros((10, 10), np.uint8)
    for i in range(2, 8):
        img[i, i] = 1
    assert np.array_equal(thin(img), img)


def test_thin_bar_collapses_to_line():
    bar = np.zeros((9, 26), np.uint8)
    bar[3:6, 3:23] = 1
    sk = thin(bar)
    assert is_thin(sk)
    assert np.array_equal(thin(sk), sk)
    assert np.all(bar[sk == 1] == 1)
    assert not has_full_2x2_block(sk)
    assert count_components_8(sk) == 1
    # one pixel tall over nearly the full span
    rows = np.unique(np.nonzero(sk)[0])
    assert len(rows) == 1
    assert sk.sum() >= 15


def test_thin_disk_one_pixel_wide_connected():
    yy, xx = np.indices((40, 40))
    disk = ((xx - 20) ** 2 + (yy - 20) ** 2 <= 15 * 15).astype(np.uint8)
    sk = thin(disk)
    assert sk.sum() > 0
    assert count_components_8(sk) == 1
    assert not has_full_2x2_block(sk)
    assert is_thin(sk)


def test_thin_all_background_stays_background():
    assert thin(np.zeros((8, 8), np.uint8)).sum() == 0


def test_thin_random_blobs_properties():
    rng = np.random.default_rng(912)
    for _ in range(12):
        img = np.zeros((48, 48), np.uint8)
        for _ in range(int(rng.integers(2, 5))):
            cy, cx = rng.integers(8, 40, 2)
            r = int(rng.integers(3, 8))
            yy, xx = np.indices(img.shape)
            img |= ((xx - cx) ** 2 + (yy - cy) ** 2 <= r * r).astype(np.uint8)
        sk = thin(img)
        assert np.all(img[sk == 1] == 1)
        assert np.array_equal(thin(sk), sk)
        assert count_components_8(sk) == count_components_8(img)


def _code_image(code):
    """The 3x3 neighbourhood of a 9-bit code (bit 8 top-left, raster order), zero-padded."""
    img = np.zeros((5, 5), np.uint8)
    img[1:4, 1:4] = ((code >> np.arange(8, -1, -1)) & 1).reshape(3, 3)
    return img


def test_zhang_suen_pass_matches_scalar_rule_on_all_neighbourhoods():
    deleted = 0
    for code in range(512):
        for step in (0, 1):
            got, want = _code_image(code), _code_image(code)
            assert zhang_suen_pass(got, step) == zhang_suen_pass_scalar(want, step)
            assert np.array_equal(got, want)
            deleted += int(got[2, 2] == 0 and code & 16)
    assert deleted > 0


def test_zhang_suen_pass_matches_scalar_rule_on_random_binaries():
    rng = np.random.default_rng(932)
    for density in (0.2, 0.5, 0.8):
        for _ in range(6):
            shape = rng.integers(1, 48, size=2)
            binary = (rng.random(shape) < density).astype(np.uint8)
            got = np.pad(binary, 1)
            want = got.copy()
            for step in (0, 1, 0, 1, 1, 0):
                assert zhang_suen_pass(got, step) == zhang_suen_pass_scalar(want, step)
                assert np.array_equal(got, want)
            assert np.array_equal(thin(binary), thin_scalar(binary))


def test_thin_matches_scalar_loop_on_rendered_prints():
    rng = np.random.default_rng(933)
    for angle in (0.0, 15.0, 30.0, 45.0):
        binary = binarize(_ridges(rng, 96, 80, 25.0, angle))
        sk = thin(binary)
        assert np.array_equal(sk, thin_scalar(binary))
        assert is_thin(sk)


# ---------------------------------------------------------------------------
# despeckle
# ---------------------------------------------------------------------------


def test_despeckle_drops_isolated_and_fills_holes():
    img = np.zeros((7, 7), np.uint8)
    img[1, 1] = 1  # lone speck
    img[3:6, 3:6] = 1
    img[4, 4] = 0  # enclosed hole
    out = despeckle(img)
    assert out[1, 1] == 0
    assert out[4, 4] == 1
    assert out[3, 3] == 1


# ---------------------------------------------------------------------------
# detection and orientation
# ---------------------------------------------------------------------------


def test_detect_straight_segment():
    sk = np.zeros((7, 20), np.uint8)
    sk[3, 2:18] = 1
    ms = detect_minutiae(sk)
    assert _rows(ms) == [
        (2.0, 3.0, MinutiaKind.ENDING),
        (17.0, 3.0, MinutiaKind.ENDING),
    ]
    # left end points rightward along the ridge, right end leftward
    assert _thetas(sk, ms) == [0.0, 180.0]


def test_detect_vertical_top_ending_is_270():
    sk = np.zeros((20, 7), np.uint8)
    sk[2:18, 3] = 1
    assert _thetas(sk, detect_minutiae(sk)) == [270.0, 90.0]


def test_detect_y_junction():
    sk = _y_skeleton()
    ms = detect_minutiae(sk)
    assert len(ms) == 4 and ms.bif.sum() == 1
    assert (ms.x[ms.bif][0], ms.y[ms.bif][0]) == (8.0, 8.0)
    # closest branch pair (225, 315) bisects to 270, away from the up branch
    assert orientations(sk, ms.x[ms.bif], ms.y[ms.bif], ms.bif[ms.bif]).tolist() == [270.0]


def test_detect_ignores_isolated_pixels():
    sk = np.zeros((5, 5), np.uint8)
    sk[2, 2] = 1
    assert len(detect_minutiae(sk)) == 0


def test_detect_rejects_non_thin_input():
    fat = np.zeros((8, 8), np.uint8)
    fat[2:6, 2:6] = 1
    with pytest.raises(PreconditionError):
        detect_minutiae(fat)


def test_detect_locality():
    # presence and kind depend only on the 3x3 block around each pixel
    base = np.zeros((9, 30), np.uint8)
    base[4, 2:28] = 1
    before = _rows(detect_minutiae(base))
    edited = base.copy()
    edited[0, 10] = 1  # far from both endings
    after = _rows(detect_minutiae(edited))
    assert [p for p in after if p[1] == 4.0] == before


def test_bifurcation_direction_examples():
    rows = [
        [90.0, 210.0, 330.0],
        [0.0, 40.0, 180.0],
        # equally-close pairs: prefer the one excluding the smallest angle
        [0.0, 90.0, 180.0],
        # bisector takes the short arc even across the wraparound
        [350.0, 10.0, 180.0],
    ]
    assert bifurcation_direction(rows).tolist() == [270.0, 20.0, 135.0, 0.0]
    # NaN pads a row's missing branches
    assert bifurcation_direction([[math.nan, 100.0, math.nan, 60.0]]).tolist() == [80.0]
    with pytest.raises(PreconditionError):
        bifurcation_direction([[10.0, math.nan, math.nan]])


def test_bifurcation_direction_matches_scalar_rule():
    # angles from a coarse set, so gaps and leftover minima tie often
    rng = np.random.default_rng(931)
    for width in (2, 3, 4, 8):
        table = rng.choice([0.0, 45.0, 90.0, 135.0, 180.0, 225.0, 270.0, 315.0, 26.565051177077994,
                            333.434948822922, 359.5, 0.5], size=(400, width))
        count = rng.integers(2, width + 1, size=400)
        table[np.arange(width)[None, :] >= count[:, None]] = math.nan
        for row in table:
            rng.shuffle(row)
        want = [bifurcation_direction_scalar(row[~np.isnan(row)]) for row in table]
        assert bifurcation_direction(table).tolist() == want


def _assert_orientations_exact(sk, xs, ys, bif):
    got = orientations(sk, np.asarray(xs, dtype=float), np.asarray(ys, dtype=float), np.asarray(bif, bool))
    want = [orientation_scalar(sk, (x, y), b) for x, y, b in zip(xs, ys, bif)]
    assert got.tolist() == want
    return want


def _assert_every_pixel_exact(sk):
    """orientations equals the scalar trace at every foreground pixel, read as either kind."""
    ys, xs = np.nonzero(sk)
    for bif in (False, True):
        _assert_orientations_exact(sk, xs.tolist(), ys.tolist(), [bif] * len(xs))


def test_orientations_match_scalar_trace_on_rendered_prints():
    rng = np.random.default_rng(934)
    for angle in (0.0, 15.0, 30.0, 45.0):
        sk = thin(binarize(_ridges(rng, 96, 80, 25.0, angle)))
        d = detect_minutiae(sk)
        assert len(d) > 50 and d.bif.any() and not d.bif.all()
        _assert_orientations_exact(sk, d.x.astype(int).tolist(), d.y.astype(int).tolist(), d.bif.tolist())


def test_orientations_match_scalar_trace_on_random_skeletons():
    # thinned noise: junctions, loops and spurs everywhere
    rng = np.random.default_rng(935)
    for density in (0.2, 0.5, 0.8):
        _assert_every_pixel_exact(thin((rng.random((40, 40)) < density).astype(np.uint8)))
    assert orientations(np.zeros((3, 3), np.uint8), [], [], []).tolist() == []


def test_orientations_on_the_image_edge():
    sk = np.zeros((12, 20), np.uint8)
    sk[0, 3:16] = 1  # along the top edge
    sk[1:6, 9] = 1  # a branch down from (9, 0): a bifurcation on the edge
    sk[4:12, 0] = 1  # along the left edge to the bottom-left corner
    sk[11, 5:19] = 1  # along the bottom edge
    sk[6:11, 19] = 1  # up the right edge from a bottom-right corner turn
    _assert_every_pixel_exact(sk)
    d = detect_minutiae(sk)
    assert (9.0, 0.0, MinutiaKind.BIFURCATION) in _rows(d)
    assert (0.0, 11.0, MinutiaKind.ENDING) in _rows(d)
    _assert_orientations_exact(sk, d.x.astype(int).tolist(), d.y.astype(int).tolist(), d.bif.tolist())


def test_orientations_short_spurs_and_trace_lengths():
    sk = np.zeros((30, 40), np.uint8)
    for row, length in enumerate((2, 3, 5, 9, 10, 11, 12), start=1):
        sk[row * 4, 2:2 + length] = 1
    sk[2:4, 30] = 1  # a spur of 2 off the ridge below
    sk[4, 25:38] = 1
    _assert_every_pixel_exact(sk)
    # a 12-pixel line: the left end traces 10 steps right, both ways
    assert _assert_orientations_exact(sk, [2, 13], [28, 28], [False, False]) == [0.0, 180.0]


def test_orientations_branch_that_returns_to_its_bifurcation():
    # a bifurcation at (5, 5) with stems up-left and down-left and a loop
    # of 8 pixels on its right, whose two traces both end back on it at
    # their ninth and last step: only the stems are branches
    sk = np.zeros((14, 14), np.uint8)
    stems = [(5 - k, 5 - k) for k in range(1, 5)] + [(5 - k, 5 + k) for k in range(1, 5)]
    loop = [(6, 4), (7, 3), (8, 3), (9, 4), (9, 5), (9, 6), (8, 7), (7, 7), (6, 6)]
    for x, y in [(5, 5)] + stems + loop:
        sk[y, x] = 1
    assert _assert_orientations_exact(sk, [5], [5], [True]) == [180.0]
    _assert_every_pixel_exact(sk)
    # with one stem left there is one branch, so the direction is 0
    for x, y in stems[4:]:
        sk[y, x] = 0
    assert _assert_orientations_exact(sk, [5], [5], [True]) == [0.0]
    _assert_every_pixel_exact(sk)


def test_clean_minutiae_traces_each_representative_as_its_own_kind():
    # an ending and a bifurcation merge into a bifurcation whose
    # representative, by the (y, x) tie rule, is the ending
    sk = np.zeros((40, 40), np.uint8)
    sk[10:31, 10] = 1
    detected = Detections(np.array([10.0, 12.0]), np.array([10.0, 10.0]), np.array([False, True]))
    out = clean_minutiae(detected, sk, MatchConfig(rm=5.0, border_margin=0.0))
    assert [(m.x, m.y, m.theta, m.kind) for m in out] == [(11.0, 10.0, 270.0, MinutiaKind.BIFURCATION)]


def test_orientations_four_or_more_branches_and_tied_gaps():
    c = 15
    plus = np.zeros((31, 31), np.uint8)
    plus[c, 2:29] = 1
    plus[2:29, c] = 1
    cross = np.zeros((31, 31), np.uint8)
    for k in range(-13, 14):
        cross[c + k, c + k] = cross[c + k, c - k] = 1
    star = plus | cross
    tee = plus.copy()
    tee[c + 1:, c] = 0
    fork = np.zeros((31, 31), np.uint8)  # 0, 45 and 90 degrees: two tied gaps
    fork[c, c:29] = 1
    fork[2:c, c] = 1
    for k in range(1, 13):
        fork[c - k, c + k] = 1
    for sk, want in ((plus, 135.0), (cross, 180.0), (star, None), (tee, 135.0), (fork, None)):
        got = _assert_orientations_exact(sk, [c], [c], [True])
        if want is not None:
            assert got == [want]
        _assert_every_pixel_exact(sk)


# ---------------------------------------------------------------------------
# merge_close
# ---------------------------------------------------------------------------


def test_merge_two_close_endings_to_midpoint():
    out = _merge([_E(0.0, 0.0, 10.0), _E(3.0, 0.0, 50.0)], 5.0)
    assert len(out) == 1
    assert out[0][:3] == (1.5, 0.0, MinutiaKind.ENDING)


def test_merge_far_pair_retained():
    out = _merge([_E(0.0, 0.0), _E(10.0, 0.0)], 5.0)
    assert len(out) == 2


def test_merge_chain_is_transitive():
    chain = [_E(0.0, 0.0), _E(4.0, 0.0), _B(8.0, 0.0)]
    out = _merge(chain, 5.0)
    assert len(out) == 1
    assert out[0][2] is MinutiaKind.BIFURCATION
    assert out[0][0] == 4.0


def test_merge_orientation_from_member_nearest_centroid():
    out = _merge([_E(0.0, 0.0, 11.0), _E(2.0, 0.0, 22.0), _E(2.5, 0.0, 33.0)], 5.0)
    assert len(out) == 1
    assert out[0][3] == 22.0  # centroid 1.5, nearest member is x=2


def test_merge_rejects_negative_radius():
    with pytest.raises(InvalidInputError):
        merge_close(_detections([_E(0.0, 0.0)]), -1.0)


def _iterated_unionfind_positions(minutiae, rm):
    """Reapply the union-find grouping until stable, tracking centroids."""
    pos = [(m.x, m.y) for m in minutiae]
    while True:
        groups = merge_groups_unionfind(pos, rm)
        if all(len(g) == 1 for g in groups):
            return sorted(pos)
        pos = sorted(
            (
                float(np.mean([pos[i][0] for i in g])),
                float(np.mean([pos[i][1] for i in g])),
            )
            for g in groups
        )


def test_merge_matches_unionfind_oracle():
    rng = np.random.default_rng(913)
    for _ in range(25):
        n = int(rng.integers(2, 25))
        ms = [
            Minutia(
                x=float(rng.uniform(0, 60)),
                y=float(rng.uniform(0, 60)),
                theta=float(rng.uniform(0, 360)),
                kind=MinutiaKind.ENDING if rng.random() < 0.5 else MinutiaKind.BIFURCATION,
            )
            for _ in range(n)
        ]
        rm = float(rng.uniform(1.0, 12.0))
        out = _merge(ms, rm)
        got = sorted((x, y) for x, y, _, _ in out)
        want = _iterated_unionfind_positions(ms, rm)
        assert len(got) == len(want)
        for (gx, gy), (wx, wy) in zip(got, want):
            assert math.isclose(gx, wx, abs_tol=1e-9)
            assert math.isclose(gy, wy, abs_tol=1e-9)
        # all surviving pairs are strictly farther apart than rm
        for i in range(len(out)):
            for j in range(i + 1, len(out)):
                assert math.dist(out[i][:2], out[j][:2]) > rm


def _labelled(points, bif_every=0):
    """Minutiae at the points, each with its own angle so its orientation names it."""
    return [
        Minutia(
            x=float(x),
            y=float(y),
            theta=(i * 0.25) % 360.0,
            kind=MinutiaKind.BIFURCATION if bif_every and i % bif_every == 0 else MinutiaKind.ENDING,
        )
        for i, (x, y) in enumerate(points)
    ]


def _assert_merge_exact(ms, rm):
    """merge_close equals the dense n^2 merge bit for bit, representative included."""
    got = _merge(ms, rm)
    with np.errstate(over="ignore"):
        want = [(m.x, m.y, m.kind, m.theta) for m in merge_close_dense(ms, rm)]
    assert got == want
    return got


def test_merge_matches_dense_oracle_random():
    rng = np.random.default_rng(915)
    for trial in range(60):
        n = int(rng.integers(1, 80))
        if trial % 3 == 0:
            # integer grid: coincident points and exact distance ties
            pts = rng.integers(0, 12, size=(n, 2)).astype(float)
        else:
            pts = rng.uniform(-30.0, 90.0, size=(n, 2))
        rm = float(rng.choice([0.0, 0.5, 1.0, 2.0, float(rng.uniform(0.1, 25.0))]))
        _assert_merge_exact(_labelled(pts, bif_every=int(rng.integers(0, 5))), rm)


def test_merge_matches_dense_oracle_long_chains():
    rng = np.random.default_rng(916)
    rm = 5.0
    # a straight chain that merges only transitively, end to end
    line = [(i * 4.9, 100.0) for i in range(300)]
    assert len(_assert_merge_exact(_labelled(line), rm)) == 1
    # a jittered spiral whose links are just under rm
    t = np.arange(400) * 0.05
    spiral = np.stack([200 + 12 * t * np.cos(t), 200 + 12 * t * np.sin(t)], axis=1)
    spiral += rng.uniform(-0.2, 0.2, size=spiral.shape)
    _assert_merge_exact(_labelled(spiral, bif_every=7), rm)
    # a chain in reverse index order: roots must still be group minima
    _assert_merge_exact(_labelled(line[::-1], bif_every=11), rm)


def _rings(rng):
    """Arcs of points around a few inner points, shuffled with scattered ones.

    An arc and its inner points are apart in the first round, but the
    arc's centroid falls near them, so merging cascades over rounds.
    """
    pts = []
    for _ in range(int(rng.integers(1, 5))):
        cx, cy = rng.uniform(0, 100, 2)
        radius = rng.uniform(6, 15)
        t = rng.uniform(0, 2 * math.pi) + np.linspace(0, rng.uniform(math.pi, 2 * math.pi),
                                                      int(rng.integers(8, 30)))
        pts += list(zip(cx + radius * np.cos(t), cy + radius * np.sin(t)))
        pts += [(cx + dx, cy + dy) for dx, dy in rng.uniform(-3, 3, size=(int(rng.integers(0, 4)), 2))]
    pts += list(rng.uniform(0, 100, size=(int(rng.integers(0, 30)), 2)))
    return [pts[i] for i in rng.permutation(len(pts))]


def test_merge_matches_dense_oracle_over_cascading_rounds():
    # a ring of 24 points 2.6 apart around a center 10 away: the ring
    # merges first, and its centroid then takes in the center
    ring = [(50 + 10 * math.cos(k * math.pi / 12), 50 + 10 * math.sin(k * math.pi / 12)) for k in range(24)]
    assert len(_assert_merge_exact(_labelled(ring + [(50.0, 50.5)]), 4.0)) == 1
    # groups of three or more in later rounds sum their members in order
    rng = np.random.default_rng(921)
    for _ in range(120):
        _assert_merge_exact(_labelled(_rings(rng), bif_every=5), float(rng.uniform(3, 6)))


def test_merge_partner_exactly_at_rm():
    for ox, oy in ((0.0, 0.0), (-3.0, 7.0), (1e6, 1e6), (-1e6 + 0.5, 1e6 - 2.25)):
        for dx, dy, rm in ((5.0, 0.0, 5.0), (3.0, 4.0, 5.0), (0.0, -2.5, 2.5), (6.0, 8.0, 10.0)):
            pair = _labelled([(ox, oy), (ox + dx, oy + dy)])
            assert len(_assert_merge_exact(pair, rm)) == 1
            # one ulp past rm is too far
            far = _labelled([(ox, oy), (np.nextafter(ox + dx, math.inf) if dx else ox,
                                        np.nextafter(oy + dy, math.inf) if dy > 0 else oy + dy)])
            _assert_merge_exact(far, rm)
    # pairs at rm straddling many cell boundaries
    rng = np.random.default_rng(917)
    base = rng.integers(-10**6, 10**6, size=(200, 2)).astype(float)
    pts = np.concatenate([base, base + [3.0, 4.0]])
    got = _assert_merge_exact(_labelled(pts), 5.0)
    assert len(got) <= 200


def test_merge_rm_zero_merges_only_coincident():
    pts = [(1.0, 1.0), (1.0, 1.0), (2.0, 1.0), (1.0, 1.0 + 1e-12), (5.0, 5.0), (5.0, 5.0)]
    got = _assert_merge_exact(_labelled(pts, bif_every=4), 0.0)
    assert [(x, y) for x, y, _, _ in got] == [(1.0, 1.0), (2.0, 1.0), (1.0, 1.0 + 1e-12), (5.0, 5.0)]


def test_merge_rm_inf_is_one_group():
    rng = np.random.default_rng(918)
    pts = rng.uniform(-1e300, 1e300, size=(40, 2))
    assert len(_assert_merge_exact(_labelled(pts), math.inf)) == 1
    assert len(_assert_merge_exact(_labelled(rng.uniform(0, 50, size=(40, 2))), math.inf)) == 1


def test_merge_rejects_nan_radius():
    with pytest.raises(InvalidInputError):
        merge_close(_detections([_E(0.0, 0.0), _E(1.0, 0.0)]), math.nan)


def test_merge_extreme_finite_coordinates():
    big = np.finfo(float).max
    pts = [(-big, -big), (-big, big), (big, big), (big, -big), (big, big * 0.5),
           (0.0, 0.0), (1.0, 0.0), (5e-324, 0.0)]
    # five points one ulp (about 1.6e144) apart, near 1e160
    x = 1e160
    for _ in range(5):
        pts.append((x, -1e160))
        x = float(np.nextafter(x, math.inf))
    for rm in (0.0, 1e-300, 1.0, 1e144, 2e144, 1e150, 1e154):
        _assert_merge_exact(_labelled(pts), rm)
    # past about 1.3e154, rm * rm is infinite and everything is one
    # group, whose centroid overflows: an input error for both
    for rm in (1e155, 1e300, big):
        for merge in (_merge, merge_close_dense):
            with pytest.raises(InvalidInputError), np.errstate(over="ignore"):
                merge(_labelled(pts), rm)


def test_merge_lattice_representative_ties():
    # every member of a square or hexagonal group is equally near its
    # centroid, so the representative is decided by lowest (y, x)
    for rows, cols, step, rm in ((2, 2, 1.0, 1.0), (3, 3, 2.0, 2.0), (4, 5, 1.5, 1.5),
                                 (6, 6, 3.0, 3.5), (5, 4, 2.0, 2.9)):
        square = [(c * step, r * step) for r in range(rows) for c in range(cols)]
        _assert_merge_exact(_labelled(square, bif_every=3), rm)
        _assert_merge_exact(_labelled(square[::-1]), rm)
    hexagon = [(10 + 2 * math.cos(k * math.pi / 3), 10 + 2 * math.sin(k * math.pi / 3)) for k in range(6)]
    _assert_merge_exact(_labelled(hexagon), 2.0)
    # many small squares far apart: one tie per group, decided in one round
    squares = [(x + dx, y + dy) for x in range(0, 200, 20) for y in range(0, 200, 20)
               for dx in (0.0, 1.0) for dy in (0.0, 1.0)]
    assert len(_assert_merge_exact(_labelled(squares), 1.0)) == 100


def test_extract_matches_eager_oracle_on_noisy_diagonal_ridges():
    rng = np.random.default_rng(919)
    for width, height, noise, cfg in ((120, 96, 15.0, MatchConfig()),
                                      (96, 120, 40.0, MatchConfig(rm=8.0, border_margin=4.0)),
                                      (80, 80, 5.0, MatchConfig(rm=0.0, border_margin=0.0))):
        img = _ridges(rng, width, height, noise)
        got = extract(img, cfg, source="img")
        assert len(got) > 0
        assert got == extract_eager(img, cfg, source="img")
        assert [m.theta for m in got] == [m.theta for m in extract_eager(img, cfg)]


# ---------------------------------------------------------------------------
# border removal and full extraction
# ---------------------------------------------------------------------------


def test_remove_border_minutiae():
    ms = [_E(5.0, 30.0), _B(30.0, 30.0), _E(30.0, 58.0), _E(12.0, 47.0), _E(47.5, 12.0)]
    kept = remove_border_minutiae(_detections(ms), (60, 60), 12.0)
    assert _rows(kept) == [(30.0, 30.0, MinutiaKind.BIFURCATION), (12.0, 47.0, MinutiaKind.ENDING)]


def test_extract_all_background_is_empty():
    assert len(extract(np.full((30, 30), 255, np.uint8))) == 0


def test_extract_straight_ridge_two_endings():
    img = np.full((40, 60), 220, np.uint8)
    img[19:22, 5:55] = 30
    out = extract(img, MatchConfig(border_margin=2.0))
    assert len(out) == 2
    assert all(m.kind is MinutiaKind.ENDING for m in out)


def test_extract_y_ridge_three_endings_one_bifurcation():
    img = np.full((64, 64), 230, np.uint8)
    for k in range(22):
        for t in (-1, 0, 1):
            img[32 - k, 32 + t] = 20
            img[32 + k // 2, 32 - round(k * 0.87) + t] = 20
            img[32 + k // 2, 32 + round(k * 0.87) + t] = 20
    out = extract(img, MatchConfig(border_margin=0.0))
    assert sorted(m.kind.value for m in out) == ["B", "E", "E", "E"]


def test_extract_border_margin_removes_frame_minutiae():
    img = np.full((40, 60), 220, np.uint8)
    img[19:22, 0:60] = 30  # ridge runs edge to edge
    assert len(extract(img, MatchConfig(border_margin=12.0))) == 0


def test_extract_deterministic():
    rng = np.random.default_rng(914)
    img = rng.integers(0, 256, size=(50, 50)).astype(np.uint8)
    a = extract(img, source="img")
    b = extract(img.copy(), source="img")
    assert a == b
