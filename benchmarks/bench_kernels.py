"""Times each hot kernel against its slow reference in tests/oracles.py.

Run as `python3 benchmarks/bench_kernels.py` from the repository root.
Rows: thinning by the 9-bit lookup-table pass against the scalar
Zhang-Suen loop, the batched ridge trace (`imgproc.orientations`)
against the scalar trace, the turning scan against the shift-by-shift
sweep, the branch-and-bound `best_alignment` against the exhaustive
search, and the grid-bucketed `merge_close` against the dense n x n
merge. Each row exits if the two results differ.
"""

import argparse
import math
import sys
import time
from pathlib import Path

import numpy as np

from onionprint import imgproc, kernels, synth
from onionprint.minutiae import Minutia, MinutiaKind, MinutiaSet
from onionprint.turning import turning_function

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from oracles import (  # noqa: E402
    best_alignment_exhaustive,
    merge_close_dense,
    min_turning_distance_scan,
    orientation_scalar,
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
    """Parallel wavy ridges, a stand-in for a real print's foreground."""
    yy, xx = np.mgrid[0:side, 0:side]
    phase = yy + 6.0 * np.sin(xx / 23.0)
    return ((phase % period) < period / 2.5).astype(np.uint8)


def rendered_print(width=384, height=296, seed=5):
    """Skeleton and raw detections of a noisy print with diagonal ridges.

    The size and ridge angle are the largest and most staircased of the
    rendered prints.
    """
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:height, 0:width].astype(np.float64)
    phase = (2.0 * math.pi / 10.0) * (xx + yy) / math.sqrt(2.0)
    for k, (x, y) in enumerate(rng.uniform(40, 256, size=(12, 2))):
        phase += (-1) ** k * np.arctan2(yy - y, xx - x)
    img = 128.0 + 100.0 * np.cos(phase) + rng.normal(0.0, 15.0, size=phase.shape)
    detected, sk = imgproc.raw_minutiae(np.clip(np.rint(img), 0, 255).astype(np.uint8))
    return detected, sk


def merge_workload(detected, sk):
    """Border-cleaned detections as minutiae, each with its own angle,
    so the merged orientation names the representative."""
    kept = imgproc.remove_border_minutiae(detected, sk.shape, 12.0)
    return kept, [Minutia(x=x, y=y, theta=i * 0.01, kind=MinutiaKind.BIFURCATION if b else MinutiaKind.ENDING)
                  for i, (x, y, b) in enumerate(zip(kept.x.tolist(), kept.y.tolist(), kept.bif.tolist()))]


def alignment_workload(seed=3):
    rng = np.random.default_rng(seed)
    finger = synth.synthetic_finger(rng, n_min=50, n_max=50)
    other = synth.jittered_impression(rng, finger)
    cols = []
    for ms in (MinutiaSet.from_iterable(finger), other):
        pos = ms.positions()
        cols.append((pos[:, 0].copy(), pos[:, 1].copy(), ms.thetas(),
                     ms.kind_codes()))
    (xi, yi, ti, ki), (xj, yj, tj, kj) = cols
    return (xi, yi, ti, xj, yj, tj, ki, kj, False, 15.0, 10.0)


def turning_workload(seed=4, nv=25):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(2):
        # convex ring by sorted angles, same recipe as the tests use
        angles = np.sort(rng.uniform(0.0, 2.0 * math.pi, nv))
        radius = rng.uniform(40.0, 120.0)
        poly = np.stack([radius * np.cos(angles), radius * np.sin(angles)], axis=1)
        fn = turning_function(poly)
        out.extend([fn.breaks, fn.angles])
    return tuple(out)


def agree(a, b):
    """(distance, shift, rotation) equal to 1e-9: the two sum in different orders."""
    return all(math.isclose(x, y, rel_tol=0.0, abs_tol=1e-9) for x, y in zip(a, b))


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

    binary = ridge_image()
    detected, sk = rendered_print()
    xs, ys, bif = detected.x, detected.y, detected.bif
    points = list(zip(xs.astype(int).tolist(), ys.astype(int).tolist(), bif.tolist()))
    align_args = alignment_workload()
    turn_args = turning_workload()
    kept, minutiae = merge_workload(detected, sk)

    def merged_rows():
        out = imgproc.merge_close(kept, 5.0)
        return [(x, y, b, minutiae[r].theta)
                for x, y, b, r in zip(out.x.tolist(), out.y.tolist(), out.bif.tolist(), out.rep.tolist())]

    def dense_rows():
        return [(m.x, m.y, m.kind is MinutiaKind.BIFURCATION, m.theta) for m in merge_close_dense(minutiae, 5.0)]

    # (name, fast, reference, same results, calls per timing)
    rows = [
        ("thin 384x384, 9-bit table", lambda: imgproc.thin(binary), lambda: thin_scalar(binary),
         np.array_equal, 3),
        (f"orientations {len(points)} points", lambda: imgproc.orientations(sk, xs, ys, bif).tolist(),
         lambda: [orientation_scalar(sk, (x, y), b) for x, y, b in points], lambda a, b: a == b, 3),
        ("min_turning_distance 25-gon", lambda: kernels.min_turning_distance(*turn_args),
         lambda: min_turning_distance_scan(*turn_args), agree, 20),
        ("best_alignment 50 vs ~50", lambda: kernels.best_alignment(*align_args),
         lambda: best_alignment_exhaustive(*align_args), same_alignment, 3),
        (f"merge_close {len(kept)} points", merged_rows, dense_rows, lambda a, b: a == b, 3),
    ]

    print(f"{'kernel':<34}{'fast':>12}{'reference':>12}{'speedup':>10}")
    for name, fast, ref, same, inner in rows:
        if not same(fast(), ref()):
            raise SystemExit(f"{name}: results differ from the reference")
        t_fast = best_of(fast, args.repeat, inner)
        t_ref = best_of(ref, args.repeat, 1)
        print(f"{name:<34}{fmt(t_fast):>12}{fmt(t_ref):>12}{t_ref / t_fast:9.1f}x", flush=True)


if __name__ == "__main__":
    main()
