import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from onionprint import kernels
from onionprint.config import MatchConfig
from onionprint.errors import InvalidInputError
from onionprint.imgproc import (
    CLEANUP_FIELDS,
    _thin,
    bifurcation_direction,
    binarize,
    clean_minutiae,
    extract,
    merge_close,
    orientations,
    otsu_threshold,
    raw_minutiae,
    remove_border_minutiae,
)
from onionprint.kernels import crossing_minutiae, pack_rows, unpack_rows, zhang_suen_pass
from onionprint.minutiae import Minutia, MinutiaKind, format_minutiae
from onionprint.pgm import read_pgm
from onionprint.synth import render_impression
from oracles import (
    bifurcation_direction_scalar,
    count_components_8,
    crossing_number_scalar,
    crossing_number_table,
    despeckle_scalar,
    detect_minutiae_scalar,
    extract_eager,
    has_full_2x2_block,
    is_thin_scalar,
    merge_close_dense,
    merge_groups_unionfind,
    orientation_scalar,
    otsu_threshold_bruteforce,
    thin_and_detect_lut,
    thin_scalar,
    zhang_suen_pass_scalar,
    zhang_suen_tables,
)


def _E(x, y, theta=0.0):
    return Minutia(x=x, y=y, theta=theta, kind=MinutiaKind.ENDING)


def _B(x, y, theta=0.0):
    return Minutia(x=x, y=y, theta=theta, kind=MinutiaKind.BIFURCATION)


def _detections(ms):
    """(x, y, bif) detections at the positions and kinds of a list of minutiae."""
    return (np.array([m.x for m in ms], dtype=float), np.array([m.y for m in ms], dtype=float),
            np.array([m.kind is MinutiaKind.BIFURCATION for m in ms], dtype=bool))


def _rows(d):
    """(x, y, kind) per detection of (x, y, bif) arrays."""
    return [(x, y, MinutiaKind.BIFURCATION if b else MinutiaKind.ENDING)
            for x, y, b in zip(*(v.tolist() for v in d))]


def _merge(ms, rm):
    """merge_close over minutiae: (x, y, kind, orientation of the representative)
    rows, sorted as `merge_close_dense` sorts them."""
    *out, rep = merge_close(*_detections(ms), rm)
    rows = [(x, y, kind, ms[r].theta) for (x, y, kind), r in zip(_rows(out), rep.tolist())]
    return sorted(rows, key=lambda row: (row[1], row[0], row[2].value))


def _thetas(sk, d):
    return orientations(sk, *d).tolist()


def _skeleton(binary):
    """Zhang-Suen skeleton of a 0/1 image, by the packed thinning of `raw_minutiae`."""
    packed = pack_rows(binary)
    _thin(packed)
    return unpack_rows(packed, binary.shape[1])


def _despeckled(binary):
    """A 0/1 image despeckled by the packed kernel of `raw_minutiae`."""
    packed = pack_rows(binary)
    kernels.despeckle_rows(packed)
    return unpack_rows(packed, binary.shape[1])


def _detect(sk):
    """Crossing-number (x, y, bif) detections of a skeleton, in raster order."""
    y, x, bif = crossing_minutiae(pack_rows(sk))
    return x, y, bif


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
    spirals = [(rng.uniform(20, width - 20), rng.uniform(20, height - 20), (-1) ** k) for k in range(4)]
    return render_impression(rng, width, height, spirals, angle, period, noise)[0]


# ---------------------------------------------------------------------------
# binarize
# ---------------------------------------------------------------------------


def test_binarize_uniform_above_threshold_is_background():
    img = np.full((5, 7), 200, np.uint8)
    assert binarize(img).sum() == 0


def test_binarize_checkerboard():
    img = (np.indices((6, 6)).sum(axis=0) % 2) * 255
    out = binarize(img)
    assert np.array_equal(out, (img == 0).astype(np.uint8))


def test_binarize_rejects_empty():
    with pytest.raises(InvalidInputError):
        binarize(np.zeros((0, 4), np.uint8))


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
        assert np.array_equal(binarize(img), (img < t).astype(np.uint8))


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
    assert np.array_equal(_skeleton(img), img)


def test_thin_bar_collapses_to_line():
    bar = np.zeros((9, 26), np.uint8)
    bar[3:6, 3:23] = 1
    sk = _skeleton(bar)
    assert is_thin_scalar(sk)
    assert np.array_equal(_skeleton(sk), sk)
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
    sk = _skeleton(disk)
    assert sk.sum() > 0
    assert count_components_8(sk) == 1
    assert not has_full_2x2_block(sk)
    assert is_thin_scalar(sk)


def test_thin_all_background_stays_background():
    assert _skeleton(np.zeros((8, 8), np.uint8)).sum() == 0


def test_thin_random_blobs_properties():
    rng = np.random.default_rng(912)
    for _ in range(12):
        img = np.zeros((48, 48), np.uint8)
        for _ in range(int(rng.integers(2, 5))):
            cy, cx = rng.integers(8, 40, 2)
            r = int(rng.integers(3, 8))
            yy, xx = np.indices(img.shape)
            img |= ((xx - cx) ** 2 + (yy - cy) ** 2 <= r * r).astype(np.uint8)
        sk = _skeleton(img)
        assert np.all(img[sk == 1] == 1)
        assert np.array_equal(_skeleton(sk), sk)
        assert count_components_8(sk) == count_components_8(img)


def _code_image(code, centre_x=1, width=3):
    """A 3-row image `width` wide holding the 3x3 neighbourhood of a 9-bit
    code (bit 8 top-left, raster order) centred on column centre_x."""
    img = np.zeros((3, width), np.uint8)
    img[:, centre_x - 1:centre_x + 2] = ((code >> np.arange(8, -1, -1)) & 1).reshape(3, 3)
    return img


# centre columns on both sides of the first word boundary, so every
# neighbourhood is read through the carries between words, in rows that
# with their trailing zero bit fill whole words (63, 127) or not (67, 128)
_BOUNDARY_CENTRES = ((62, 127), (63, 127), (64, 128), (65, 67), (66, 128), (1, 63))


def _packed_pass(binary, step):
    """zhang_suen_pass on a packed copy: (deleted, resulting image)."""
    packed = pack_rows(binary)
    deleted = zhang_suen_pass(packed, step)
    return deleted, unpack_rows(packed, binary.shape[1])


def test_zhang_suen_pass_matches_scalar_rule_on_all_neighbourhoods():
    tables = zhang_suen_tables()
    deleted = 0
    for code in range(512):
        for step in (0, 1):
            for k, (cx, width) in enumerate(_BOUNDARY_CENTRES):
                img = _code_image(code, cx, width)
                got = _packed_pass(img, step)
                assert got[1][1, cx] == (code >> 4 & 1) - tables[step, code], (code, step, cx)
                if k == code % len(_BOUNDARY_CENTRES):
                    want = np.pad(img, 1)
                    assert got[0] == zhang_suen_pass_scalar(want, step)
                    assert np.array_equal(got[1], want[1:-1, 1:-1])
            deleted += int(tables[step, code])
    assert deleted > 0


def _edge_shapes(rng):
    """Random shapes, then every width around one and two packed words."""
    shapes = [tuple(rng.integers(1, 48, size=2)) for _ in range(6)]
    shapes += [(int(rng.integers(1, 12)), w) for w in (1, 2, 62, 63, 64, 65, 126, 127, 128, 129)]
    return shapes


def test_zhang_suen_pass_matches_scalar_rule_on_random_binaries():
    rng = np.random.default_rng(932)
    for density in (0.2, 0.5, 0.8):
        for shape in _edge_shapes(rng):
            binary = (rng.random(shape) < density).astype(np.uint8)
            got = pack_rows(binary)
            want = np.pad(binary, 1)
            for step in (0, 1, 0, 1, 1, 0):
                assert zhang_suen_pass(got, step) == zhang_suen_pass_scalar(want, step)
                assert np.array_equal(unpack_rows(got, shape[1]), want[1:-1, 1:-1])
            assert np.array_equal(_skeleton(binary), thin_scalar(binary))


def test_despeckle_matches_scalar_rule_on_random_binaries():
    rng = np.random.default_rng(934)
    for density in (0.1, 0.5, 0.9):
        for shape in _edge_shapes(rng):
            binary = (rng.random(shape) < density).astype(np.uint8)
            got = _despeckled(binary)
            assert got.dtype == np.uint8
            assert np.array_equal(got, despeckle_scalar(binary))


def test_thinning_matches_lookup_tables():
    # the packed path against the 512-entry table path it replaced:
    # the same skeleton and the same detections, in the same order
    rng = np.random.default_rng(935)
    images = [_gray(rng.random(shape) < density) for density in (0.2, 0.5, 0.8) for shape in _edge_shapes(rng)]
    images += [_ridges(rng, 130, 96, noise, angle) for noise in (0.0, 15.0) for angle in (0.0, 15.0, 30.0, 45.0)]
    images.append(rng.integers(0, 256, size=(70, 129)).astype(np.uint8))
    for img in images:
        (x, y, bif), want = thin_and_detect_lut(_despeckled(binarize(img)))
        (dx, dy, dbif), sk = raw_minutiae(img)
        assert np.array_equal(sk, want)
        assert (dx.tolist(), dy.tolist(), dbif.tolist()) == (x.tolist(), y.tolist(), bif.tolist())


def test_thinning_and_detection_memory_per_pixel():
    # uniform noise makes the most detections per pixel, about 0.14; the
    # lookup-table path peaked at 11 to 13 bytes per pixel on it
    gray = _gray(np.random.default_rng(940).random((512, 512)) < 0.5)
    peaks = []
    for run in (lambda: raw_minutiae(gray), lambda: thin_and_detect_lut(_despeckled(binarize(gray)))):
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1] / gray.size)
        finally:
            tracemalloc.stop()
    assert peaks[0] <= min(peaks[1], 11.0), peaks


def test_thin_matches_scalar_loop_on_rendered_prints():
    rng = np.random.default_rng(933)
    for angle in (0.0, 15.0, 30.0, 45.0):
        binary = binarize(_ridges(rng, 96, 80, 25.0, angle))
        sk = _skeleton(binary)
        assert np.array_equal(sk, thin_scalar(binary))
        assert is_thin_scalar(sk)


def _gray(binary):
    """A print whose dark pixels are the foreground of `binary`."""
    return np.where(np.asarray(binary) != 0, 0, 255).astype(np.uint8)


def _assert_raw_matches_scalar_thinning(img):
    """raw_minutiae(img) equals detection on the scalar loop's skeleton."""
    want = thin_scalar(_despeckled(binarize(img)))
    d, sk = raw_minutiae(img)
    assert (_rows(d), sk.tolist()) == (_rows(_detect(want)), want.tolist())
    return d


def _passes_run(monkeypatch, img):
    """How many times raw_minutiae(img) calls kernels.zhang_suen_pass."""
    zs_pass = kernels.zhang_suen_pass
    calls = []

    def counted(packed, step):
        calls.append(step)
        return zs_pass(packed, step)

    with monkeypatch.context() as m:
        m.setattr(kernels, "zhang_suen_pass", counted)
        raw_minutiae(img)
    return len(calls)


def _scalar_pass_deletions(img):
    """Pixels deleted by each subiteration of the scalar loop on img's binary."""
    padded = np.pad(_despeckled(binarize(img)), 1)
    deleted = []
    while not deleted or deleted[-2:] != [0, 0]:
        deleted.append(zhang_suen_pass_scalar(padded, len(deleted) % 2))
    return deleted


# a subiteration of its thinning deletes nothing and the next one
# deletes a pixel; found by seeded search (1 of 3,000 random 6 x 6
# binaries) and pinned here
_IDLE_THEN_DELETING = np.array([[0, 1, 1, 0, 1, 0],
                                [1, 1, 1, 1, 0, 0],
                                [1, 0, 1, 1, 1, 0],
                                [0, 1, 1, 1, 1, 0],
                                [0, 0, 0, 1, 0, 0],
                                [0, 0, 0, 0, 1, 1]], np.uint8)


def test_raw_minutiae_matches_scalar_thinning_on_rendered_prints():
    rng = np.random.default_rng(937)
    for noise in (0.0, 15.0):
        for angle in (0.0, 15.0, 30.0, 45.0):
            _, _, bif = _assert_raw_matches_scalar_thinning(_ridges(rng, 96, 80, noise, angle))
            assert bif.any() and not bif.all()


def test_raw_minutiae_matches_scalar_thinning_on_edge_cases():
    rng = np.random.default_rng(938)
    for density in (0.2, 0.5, 0.8):
        for _ in range(6):
            _assert_raw_matches_scalar_thinning(_gray(rng.random(rng.integers(1, 40, size=2)) < density))
    assert len(_assert_raw_matches_scalar_thinning(np.full((8, 8), 200, np.uint8))[0]) == 0
    assert len(_assert_raw_matches_scalar_thinning(_gray(_y_skeleton()))[0]) == 4
    _assert_raw_matches_scalar_thinning(_gray(_IDLE_THEN_DELETING))


def test_raw_minutiae_runs_one_pass_per_scalar_subiteration(monkeypatch):
    # the deleting subiterations of the scalar loop, the idle ones among
    # them and the two idle ones that end it
    img = _ridges(np.random.default_rng(939), 96, 80, 15.0)
    deleted = _scalar_pass_deletions(img)
    assert np.count_nonzero(deleted) >= 4
    assert _passes_run(monkeypatch, img) == len(deleted)
    img = _gray(_IDLE_THEN_DELETING)
    deleted = _scalar_pass_deletions(img)
    assert any(a == 0 < b for a, b in zip(deleted, deleted[1:]))
    assert _passes_run(monkeypatch, img) == len(deleted)
    # already thin: the two idle subiterations only
    assert _scalar_pass_deletions(_gray(_y_skeleton())) == [0, 0]
    assert _passes_run(monkeypatch, _gray(_y_skeleton())) == 2


# ---------------------------------------------------------------------------
# despeckle
# ---------------------------------------------------------------------------


def test_despeckle_drops_isolated_and_fills_holes():
    img = np.zeros((7, 7), np.uint8)
    img[1, 1] = 1  # lone speck
    img[3:6, 3:6] = 1
    img[4, 4] = 0  # enclosed hole
    out = _despeckled(img)
    assert out[1, 1] == 0
    assert out[4, 4] == 1
    assert out[3, 3] == 1


# ---------------------------------------------------------------------------
# detection and orientation
# ---------------------------------------------------------------------------


def test_detect_straight_segment():
    sk = np.zeros((7, 20), np.uint8)
    sk[3, 2:18] = 1
    ms = _detect(sk)
    assert _rows(ms) == [
        (2.0, 3.0, MinutiaKind.ENDING),
        (17.0, 3.0, MinutiaKind.ENDING),
    ]
    # left end points rightward along the ridge, right end leftward
    assert _thetas(sk, ms) == [0.0, 180.0]


def test_detect_vertical_top_ending_is_270():
    sk = np.zeros((20, 7), np.uint8)
    sk[2:18, 3] = 1
    assert _thetas(sk, _detect(sk)) == [270.0, 90.0]


def test_detect_y_junction():
    sk = _y_skeleton()
    x, y, bif = _detect(sk)
    assert len(x) == 4 and bif.sum() == 1
    assert (x[bif][0], y[bif][0]) == (8.0, 8.0)
    # closest branch pair (225, 315) bisects to 270, away from the up branch
    assert orientations(sk, x[bif], y[bif], bif[bif]).tolist() == [270.0]


def test_detect_ignores_isolated_pixels():
    sk = np.zeros((5, 5), np.uint8)
    sk[2, 2] = 1
    assert len(_detect(sk)[0]) == 0


def test_detect_locality():
    # presence and kind depend only on the 3x3 block around each pixel
    base = np.zeros((9, 30), np.uint8)
    base[4, 2:28] = 1
    before = _rows(_detect(base))
    edited = base.copy()
    edited[0, 10] = 1  # far from both endings
    after = _rows(_detect(edited))
    assert [p for p in after if p[1] == 4.0] == before


def test_crossing_numbers_match_scalar_rule_on_all_neighbourhoods():
    table = crossing_number_table()
    # the table holds every crossing number a ring of 8 can have
    assert set(table.tolist()) == {0, 1, 2, 3, 4}
    for code in range(512):
        for cx, width in _BOUNDARY_CENTRES:
            img = _code_image(code, cx, width)
            assert crossing_number_scalar(img, cx, 1) * (code >> 4 & 1) == table[code]
            y, x, bif = crossing_minutiae(pack_rows(img))
            found = list(zip(x.tolist(), y.tolist(), bif.tolist()))
            assert found == [(float(x), float(y), b) for x, y, b in detect_minutiae_scalar(img)]
            want = [(cx, 1, bool(table[code] >= 3))] if table[code] == 1 or table[code] >= 3 else []
            assert [p for p in found if p[:2] == (cx, 1)] == want, (code, cx)


def test_detect_matches_scalar_crossing_number_at_every_pixel():
    rng = np.random.default_rng(941)
    skeletons = [_skeleton((rng.random(shape) < density).astype(np.uint8))
                 for density in (0.2, 0.5, 0.8) for shape in ((40, 40), (1, 30), (23, 2))]
    skeletons += [_skeleton(binarize(_ridges(rng, 96, 80, 25.0, angle))) for angle in (0.0, 15.0, 30.0, 45.0)]
    kinds = set()
    for sk in skeletons:
        x, y, bif = _detect(sk)
        want = detect_minutiae_scalar(sk)
        assert list(zip(x.tolist(), y.tolist(), bif.tolist())) == want
        kinds.update(bif for _, _, bif in want)
    assert kinds == {False, True}


def test_detect_reads_staircase_corners_as_ridge():
    # Zhang-Suen's skeleton of a 3.5-pixel bar at 10 degrees: each step
    # keeps two 4-connected corner pixels with three foreground
    # neighbours, which cross the ridge only twice
    steps = ["111110000000000",
             "000011111110000",
             "000000000011110",
             "000000000000001"]
    sk = np.pad(np.array([[int(c) for c in row] for row in steps], np.uint8), 2)
    assert is_thin_scalar(sk)
    assert _rows(_detect(sk)) == [(2.0, 2.0, MinutiaKind.ENDING), (16.0, 5.0, MinutiaKind.ENDING)]


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
    # padding past eight columns is allowed; one angle, a ninth angle
    # and an angle outside [0, 360) are not
    assert bifurcation_direction([[math.nan] * 8 + [100.0, 60.0]]).tolist() == [80.0]
    for row in ([10.0, math.nan, math.nan], [float(a) for a in range(0, 360, 40)], [10.0, 360.0],
                [-1.0, 10.0, math.nan]):
        with pytest.raises(InvalidInputError):
            bifurcation_direction([row])


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
        sk = _skeleton(binarize(_ridges(rng, 96, 80, 25.0, angle)))
        x, y, bif = _detect(sk)
        assert len(x) > 50 and bif.any() and not bif.all()
        _assert_orientations_exact(sk, x.tolist(), y.tolist(), bif.tolist())


def test_orientations_match_scalar_trace_on_random_skeletons():
    # thinned noise: junctions, loops and spurs everywhere
    rng = np.random.default_rng(935)
    for density in (0.2, 0.5, 0.8):
        _assert_every_pixel_exact(_skeleton((rng.random((40, 40)) < density).astype(np.uint8)))
    assert orientations(np.zeros((3, 3), np.uint8), [], [], []).tolist() == []


def test_orientations_on_the_image_edge():
    sk = np.zeros((12, 20), np.uint8)
    sk[0, 3:16] = 1  # along the top edge
    sk[1:6, 9] = 1  # a branch down from (9, 0): a bifurcation on the edge
    sk[4:12, 0] = 1  # along the left edge to the bottom-left corner
    sk[11, 5:19] = 1  # along the bottom edge
    sk[6:11, 19] = 1  # up the right edge from a bottom-right corner turn
    _assert_every_pixel_exact(sk)
    d = _detect(sk)
    assert (9.0, 0.0, MinutiaKind.BIFURCATION) in _rows(d)
    assert (0.0, 11.0, MinutiaKind.ENDING) in _rows(d)
    _assert_orientations_exact(sk, *(v.tolist() for v in d))


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
    detected = (np.array([10.0, 12.0]), np.array([10.0, 10.0]), np.array([False, True]))
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
        merge_close(*_detections([_E(0.0, 0.0)]), -1.0)


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
        merge_close(*_detections([_E(0.0, 0.0), _E(1.0, 0.0)]), math.nan)


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


def test_cleanup_fields_name_the_config_fields_clean_minutiae_reads():
    # sweeps clean an image once per distinct value of these fields
    read = set()

    class Recording(MatchConfig):
        def __getattribute__(self, name):
            read.add(name)
            return super().__getattribute__(name)

    cfg = Recording()
    read.clear()  # construction validates every field
    clean_minutiae(*raw_minutiae(read_pgm(Path(__file__).parent / "data" / "ridges_00deg_noise05.pgm")), cfg)
    assert read & set(MatchConfig.__dataclass_fields__) == set(CLEANUP_FIELDS)


def test_extract_bytes_match_the_committed_files():
    # tests/data holds four rendered prints and the .min files an earlier
    # version of `extract` wrote for each at four (rm, border_margin)
    # settings, named in the file name; tests/data/README.md says how
    # they were made. rm 0 keeps every detection, so every raw
    # orientation is pinned, and rm 16 takes two merge rounds on the
    # 45-degree prints
    data = Path(__file__).parent / "data"
    files = sorted(data.glob("*.min"))
    assert len(files) == 16
    for path in files:
        stem, setting = path.stem.split(".")
        rm, margin = re.fullmatch(r"rm(\d+)_margin(\d+)", setting).groups()
        got = extract(read_pgm(data / f"{stem}.pgm"), MatchConfig(rm=float(rm), border_margin=float(margin)))
        assert format_minutiae(got) == path.read_text(), path.name


def _spiral_grid(rng, width, height, cell=50.0, margin=20.0):
    """One spiral per cell of a jittered grid, signs in a checkerboard:
    planted minutiae at least 0.4 cell apart and margin from the frame."""
    nx, ny = int((width - 2 * margin) // cell), int((height - 2 * margin) // cell)
    ox, oy = (width - nx * cell) / 2.0, (height - ny * cell) / 2.0
    return [(ox + (i + rng.uniform(0.2, 0.8)) * cell, oy + (j + rng.uniform(0.2, 0.8)) * cell, (-1) ** (i + j))
            for j in range(ny) for i in range(nx)]


@pytest.mark.parametrize("noise, min_precision, min_recall", [(0.0, 0.95, 0.95), (15.0, 0.65, 0.95)])
def test_extract_finds_planted_minutiae_and_invents_few(noise, min_precision, min_recall):
    # a detection is correct within r0 of a planted minutia, and a
    # planted minutia is found when some detection is that close. Here
    # precision reads 64/64 without noise and 65/82 with it, recall
    # 64/64 and 63/64; over ten other seeds precision ran 0.98-1.00 and
    # 0.75-0.88, recall 0.97-1.00 and 0.98-1.00
    rng = np.random.default_rng(940)
    r0 = MatchConfig().r0
    correct = detected = found = planted = 0
    for angle in (0.0, 15.0, 30.0, 45.0):
        img, truth = render_impression(rng, 256, 256, _spiral_grid(rng, 256, 256), angle, 10.0, noise)
        got = extract(img)
        d = np.hypot(got.x[:, None] - truth[None, :, 0], got.y[:, None] - truth[None, :, 1])
        correct += int(np.count_nonzero(d.min(axis=1) <= r0))
        detected += len(got)
        found += int(np.count_nonzero(d.min(axis=0) <= r0))
        planted += len(truth)
    assert correct / detected >= min_precision
    assert found / planted >= min_recall


# ---------------------------------------------------------------------------
# border removal and full extraction
# ---------------------------------------------------------------------------


def test_remove_border_minutiae():
    ms = [_E(5.0, 30.0), _B(30.0, 30.0), _E(30.0, 58.0), _E(12.0, 47.0), _E(47.5, 12.0)]
    kept = remove_border_minutiae(*_detections(ms), (60, 60), 12.0)
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
