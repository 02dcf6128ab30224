"""Times the hot kernels: jitted against numpy twins, alignment against the oracle.

Run as `python3 benchmarks/bench_kernels.py` from the repository root.
Thinning and the turning scan are timed as their numba and numpy
variants, called directly, so the ONIONPRINT_NUMBA selection flag does
not matter here. The branch-and-bound `best_alignment` is timed against
the exhaustive search in `tests/oracles.py`, and the two must return
identical results.
"""

import argparse
import math
import sys
import time
from pathlib import Path

import numpy as np

from onionprint import kernels, synth
from onionprint.minutiae import MinutiaSet
from onionprint.turning import turning_function

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from oracles import best_alignment_exhaustive  # noqa: E402


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


def thin_with(pass_fn, binary):
    h, w = binary.shape
    padded = np.zeros((h + 2, w + 2), np.uint8)
    padded[1:-1, 1:-1] = binary
    while True:
        changed = pass_fn(padded, 0)
        changed += pass_fn(padded, 1)
        if changed == 0:
            return padded[1:-1, 1:-1]


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
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, tuple):
        return len(a) == len(b) and all(agree(x, y) for x, y in zip(a, b))
    return math.isclose(float(a), float(b), rel_tol=0.0, abs_tol=1e-9)


def fmt(seconds):
    if seconds < 1e-3:
        return f"{seconds * 1e6:8.1f} us"
    return f"{seconds * 1e3:8.2f} ms"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=5,
                        help="timing repetitions, best is reported")
    args = parser.parse_args()

    if not kernels.HAVE_NUMBA:
        print("numba is not importable; timing the numpy fallback only")

    img = ridge_image()
    align_args = alignment_workload()
    turn_args = turning_workload()

    cases = [
        ("zhang_suen full thin",
         kernels.zhang_suen_pass_numba, kernels.zhang_suen_pass_numpy,
         lambda fn: thin_with(fn, img), 1),
        ("min_turning_distance 25-gon",
         kernels.min_turning_distance_numba, kernels.min_turning_distance_numpy,
         lambda fn: fn(*turn_args), 20),
    ]

    print(f"{'kernel':<28}{'numba':>12}{'numpy':>12}{'speedup':>10}")
    for name, jitted, plain, run, inner in cases:
        baseline = run(plain)  # warms nothing, numpy has no compile step
        if kernels.HAVE_NUMBA:
            got = run(jitted)  # first call compiles
            if not agree(baseline, got):
                raise SystemExit(f"{name}: variants disagree")
            t_jit = best_of(lambda: run(jitted), args.repeat, inner)
        else:
            t_jit = math.nan
        t_np = best_of(lambda: run(plain), args.repeat, inner)
        ratio = f"{t_np / t_jit:9.1f}x" if t_jit == t_jit else "       n/a"
        jit_txt = fmt(t_jit) if t_jit == t_jit else "       n/a"
        print(f"{name:<28}{jit_txt:>12}{fmt(t_np):>12}{ratio}")

    got = kernels.best_alignment(*align_args)
    want = best_alignment_exhaustive(*align_args)
    same = (got[:2] == want[:2] and np.array_equal(got[2], want[2])
            and np.array_equal(got[3], want[3]) and got[4] == want[4])
    if not same:
        raise SystemExit("best_alignment disagrees with the exhaustive oracle")
    t_bb = best_of(lambda: kernels.best_alignment(*align_args), args.repeat, 3)
    t_ex = best_of(lambda: best_alignment_exhaustive(*align_args), args.repeat, 1)
    print(f"\n{'kernel':<28}{'bound':>12}{'exhaustive':>12}{'speedup':>10}")
    print(f"{'best_alignment 50 vs ~50':<28}{fmt(t_bb):>12}{fmt(t_ex):>12}{t_ex / t_bb:9.1f}x")


if __name__ == "__main__":
    main()
