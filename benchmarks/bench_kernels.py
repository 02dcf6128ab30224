"""Times each hot kernel against its slow reference in tests/oracles.py.

Run as `python3 benchmarks/bench_kernels.py` from the repository root.
Rows: `imgproc.raw_minutiae`, which despeckles, thins and detects by
crossing number with bitwise logic on one bit-packed image, against the
scalar Zhang-Suen loop and the pixel-by-pixel crossing-number rule
(binarization and despeckling run on both sides); packed thinning plus
detection alone on a binarized print, against the same scalar rules and
against the 512-entry lookup tables they ran by before; the batched
ridge trace (`imgproc.orientations`) against the scalar trace; the
batched bisector choice (`imgproc.bifurcation_direction`) against the
pair-by-pair rule on each row; the whole `imgproc.extract` of a rendered
print against `extract_eager`, which traces every detection with the
scalar trace and merges densely; one pair's whole shape stage
(`scoring.layer_distances`, which encodes and compares every peer ring
pair in one batch) against each ring encoded alone and the
shift-by-shift sweep one ring pair at a time; the branch-and-bound
`best_alignment` against the exhaustive search; its bound pass
`_alignment_bounds`, which files each print's anchor-relative points by
orientation slab and cell, against the brute-force bound over all
m^2 n^2 quadruples, twice: on two prepared prints, where only the
per-pair join runs (as when a print meets many others), and on two
fresh prints, which pay for both preparations (as `onionprint match`
does); and the grid-bucketed `merge_close` against the dense n x n
merge. Each row exits if the two results differ.
"""

import argparse
import math
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from onionprint import geometry, imgproc, kernels, scoring, synth  # noqa: E402
from onionprint.config import MatchConfig  # noqa: E402
from onionprint.minutiae import Minutia, MinutiaKind, MinutiaSet  # noqa: E402
from oracles import (  # noqa: E402
    alignment_bounds_bruteforce,
    best_alignment_exhaustive,
    bifurcation_direction_scalar,
    detect_minutiae_scalar,
    extract_eager,
    merge_close_dense,
    min_turning_distance_scan,
    orientation_scalar,
    thin_and_detect_lut,
    thin_scalar,
)


def best_of(fn, repeat, inner):
    best = math.inf
    for _ in range(repeat):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        best = min(best, (time.perf_counter() - t0) / inner)
    return best


def ridge_image(side=384, period=9):
    """Parallel wavy dark ridges on white, a stand-in for a real print."""
    yy, xx = np.mgrid[0:side, 0:side]
    phase = yy + 6.0 * np.sin(xx / 23.0)
    return np.where((phase % period) < period / 2.5, 0, 255).astype(np.uint8)


def rendered_print(width=384, height=296, seed=5):
    """A noisy print with diagonal ridges.

    The size and ridge angle are the largest and most staircased of the
    rendered prints.
    """
    rng = np.random.default_rng(seed)
    spirals = [(x, y, (-1) ** k) for k, (x, y) in enumerate(rng.uniform(40, 256, size=(12, 2)))]
    img, _ = synth.render_impression(rng, width, height, spirals, 45.0, 10.0, 15.0)
    return img


def raw_rows(img):
    """(x, y, bifurcation) rows and skeleton of `imgproc.raw_minutiae`."""
    (x, y, bif), sk = imgproc.raw_minutiae(img)
    return list(zip(x.tolist(), y.tolist(), bif.tolist())), sk


def despeckled(img):
    """The binarized, despeckled image, by the packed kernel that
    `imgproc.raw_minutiae` runs."""
    binary = imgproc.binarize(img)
    packed = kernels.pack_rows(binary)
    kernels.despeckle_rows(packed)
    return kernels.unpack_rows(packed, binary.shape[1])


def raw_rows_scalar(img):
    sk = thin_scalar(despeckled(img))
    return detect_minutiae_scalar(sk), sk


def thin_detect(binary):
    """Packed thinning plus detection: (x, y, bifurcation) rows and skeleton."""
    packed = kernels.pack_rows(binary)
    imgproc._thin(packed)
    y, x, bif = kernels.crossing_minutiae(packed)
    return (list(zip(x.astype(float).tolist(), y.astype(float).tolist(), bif.tolist())),
            kernels.unpack_rows(packed, binary.shape[1]))


def thin_detect_scalar(binary):
    sk = thin_scalar(binary)
    return detect_minutiae_scalar(sk), sk


def thin_detect_tables(binary):
    (x, y, bif), sk = thin_and_detect_lut(binary)
    return list(zip(x.tolist(), y.tolist(), bif.tolist())), sk


def same_raw(a, b):
    return a[0] == b[0] and np.array_equal(a[1], b[1])


def merge_workload(detected, sk):
    """Border-cleaned detections as minutiae, each with its own angle,
    so the merged orientation names the representative."""
    kept = imgproc.remove_border_minutiae(*detected, sk.shape, 12.0)
    return kept, [Minutia(x=x, y=y, theta=i * 0.01, kind=MinutiaKind.BIFURCATION if b else MinutiaKind.ENDING)
                  for i, (x, y, b) in enumerate(zip(*(v.tolist() for v in kept)))]


def branch_table(seed=6, rows=400):
    """NaN-padded rows of 2 to 8 branch angles, mostly 3, drawn from the
    directions a ridge trace can end in, so that gaps often tie."""
    rng = np.random.default_rng(seed)
    ends = [math.degrees(math.atan2(-dy, dx)) % 360.0 for dy in range(-10, 11) for dx in range(-10, 11)
            if dx or dy]
    table = np.full((rows, 8), np.nan)
    for row, count in zip(table, rng.choice([2, 3, 3, 3, 4, 5, 8], size=rows)):
        row[:count] = rng.choice(ends, size=count)
    return table


def alignment_workload(seed=3, size=50):
    rng = np.random.default_rng(seed)
    finger = synth.synthetic_finger(rng, n_min=size, n_max=size)
    a = MinutiaSet.from_iterable(finger)
    b = synth.jittered_impression(rng, finger)
    return (a.x, a.y, a.theta, b.x, b.y, b.theta, 15.0, 10.0)


def shape_workload(seed=4, size=40):
    """The peelings of a genuine pair: every peer ring pair, innermost first."""
    rng = np.random.default_rng(seed)
    finger = synth.synthetic_finger(rng, n_min=size, n_max=size)
    a = MinutiaSet.from_iterable(finger)
    b = synth.jittered_impression(rng, finger)
    return geometry.convex_layers(a.positions()), geometry.convex_layers(b.positions())


def shape_stage_scan(layers_a, layers_b):
    """`scoring.layer_distances` one ring pair and one shift at a time."""
    out = []
    for ra, rb in zip(scoring._proper(layers_a), scoring._proper(layers_b)):
        fs, fa, _, _ = kernels._encode([ra])
        gs, ga, _, _ = kernels._encode([rb])
        out.append(min_turning_distance_scan(fs[0], fa[0], gs[0], ga[0])[0])
    return out


def agree(a, b):
    """Distances equal to 1e-9: the two sum in different orders."""
    return len(a) == len(b) and all(math.isclose(x, y, rel_tol=0.0, abs_tol=1e-9) for x, y in zip(a, b))


def same_alignment(got, want):
    return (got[:2] == want[:2] and np.array_equal(got[2], want[2])
            and np.array_equal(got[3], want[3]) and got[4] == want[4])


def fmt(seconds):
    if seconds < 1e-3:
        return f"{seconds * 1e6:8.1f} us"
    return f"{seconds * 1e3:8.2f} ms"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=5,
                        help="timing repetitions, best is reported")
    args = parser.parse_args()

    ridges = ridge_image()
    img = rendered_print()
    binary = despeckled(img)
    detected, sk = imgproc.raw_minutiae(img)
    xs, ys, bif = detected
    points = list(zip(xs.tolist(), ys.tolist(), bif.tolist()))
    align_args = alignment_workload()
    bound_args = alignment_workload(5, 60)
    # prepared by the row's first call, the check against the reference
    prints = [kernels.Print(*bound_args[:3]), kernels.Print(*bound_args[3:6])]
    prepared_args = (prints[0], prints[0].y, prints[0].t, prints[1], prints[1].y, prints[1].t, *bound_args[6:])
    peelings = shape_workload()
    rings = len(shape_stage_scan(*peelings))
    kept, minutiae = merge_workload(detected, sk)
    branches = branch_table()
    cfg = MatchConfig()

    def merged_rows():
        out = imgproc.merge_close(*kept, 5.0)
        rows = [(x, y, b, minutiae[r].theta) for x, y, b, r in zip(*(v.tolist() for v in out))]
        return sorted(rows, key=lambda row: (row[1], row[0]))  # as merge_close_dense sorts

    def dense_rows():
        return [(m.x, m.y, m.kind is MinutiaKind.BIFURCATION, m.theta) for m in merge_close_dense(minutiae, 5.0)]

    # (name, fast, reference, same results, calls per timing)
    rows = [
        ("raw_minutiae 384x384 ridges", lambda: raw_rows(ridges), lambda: raw_rows_scalar(ridges), same_raw, 3),
        (f"thin+detect {sk.shape[1]}x{sk.shape[0]} print", lambda: thin_detect(binary),
         lambda: thin_detect_scalar(binary), same_raw, 10),
        ("thin+detect, against tables", lambda: thin_detect(binary), lambda: thin_detect_tables(binary),
         same_raw, 10),
        (f"orientations {len(points)} points", lambda: imgproc.orientations(sk, xs, ys, bif).tolist(),
         lambda: [orientation_scalar(sk, (x, y), b) for x, y, b in points], lambda a, b: a == b, 3),
        (f"bifurcation_direction {len(branches)} rows", lambda: imgproc.bifurcation_direction(branches).tolist(),
         lambda: [bifurcation_direction_scalar(row[~np.isnan(row)]) for row in branches], lambda a, b: a == b, 20),
        (f"extract {sk.shape[1]}x{sk.shape[0]} print", lambda: imgproc.extract(img, cfg),
         lambda: extract_eager(img, cfg), lambda a, b: a == b and a.theta.tolist() == b.theta.tolist(), 10),
        (f"layer_distances {rings} ring pairs", lambda: scoring.layer_distances(*peelings),
         lambda: shape_stage_scan(*peelings), agree, 20),
        ("best_alignment 50 vs ~50", lambda: kernels.best_alignment(*align_args),
         lambda: best_alignment_exhaustive(*align_args), same_alignment, 3),
        (f"_alignment_bounds {len(bound_args[0])} vs {len(bound_args[3])}, join",
         lambda: kernels._alignment_bounds(*prepared_args), lambda: alignment_bounds_bruteforce(*bound_args),
         np.array_equal, 10),
        (f"_alignment_bounds {len(bound_args[0])} vs {len(bound_args[3])}, fresh",
         lambda: kernels._alignment_bounds(*bound_args), lambda: alignment_bounds_bruteforce(*bound_args),
         np.array_equal, 10),
        (f"merge_close {len(kept[0])} points", merged_rows, dense_rows, lambda a, b: a == b, 3),
    ]

    print(f"{'kernel':<40}{'fast':>12}{'reference':>12}{'speedup':>10}")
    for name, fast, ref, same, inner in rows:
        if not same(fast(), ref()):
            raise SystemExit(f"{name}: results differ from the reference")
        t_fast = best_of(fast, args.repeat, inner)
        t_ref = best_of(ref, args.repeat, 1)
        print(f"{name:<40}{fmt(t_fast):>12}{fmt(t_ref):>12}{t_ref / t_fast:9.1f}x", flush=True)


if __name__ == "__main__":
    main()
