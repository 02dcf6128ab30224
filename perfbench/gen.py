"""Seeded input generator for the onionprint benchmark.

    python3 perfbench/gen.py --workload verify-min --seed 7 --out DIR [--tiny]

Writes the workload's input files into DIR plus `workload.json`, which
describes them. The same seed gives the same bytes.

Minutia corpora are built from `onionprint.synth`: one latent finger per
`synthetic_finger` call and its impressions by `jittered_impression`.
Finger sizes are the evenly spaced values of the 30..60 range, dealt to
fingers in seeded order. Pair cost grows faster than the product of the
two sizes, so drawing each size at random, as `synthetic_corpus` does,
would let the seed change the total work by more than the benchmark's
bounds.

Images are the cosine of a phase field (Larkin & Fletcher, "A coherent
framework for fingerprint analysis: are fingerprints holograms?", Optics
Express 15(14), 2007): a plane-wave carrier with a fixed gentle bend sets
the ridge orientation, and one +-atan2 spiral term per planted minutia
adds a ridge ending or bifurcation there; minutiae sit on a jittered
grid. Every class of a size x orientation grid is rendered once, so each
seed covers the same classes. Orientations run from axis-aligned to
diagonal; diagonal ridges make Zhang-Suen thinning leave staircases that
read as bifurcations, the defect the benchmark has to show. The largest
size, 384 x 296, is the one limit: `imgproc.merge_close` builds n x n
float arrays over the raw detections, and this size keeps them near 1 GB.
"""

import argparse
import json
import math
from pathlib import Path

import numpy as np

from onionprint import synth
from onionprint.minutiae import Minutia, MinutiaSet, write_minutiae
from onionprint.pgm import write_pgm

WORKLOADS = ("verify-min", "extract-img", "screen-min-2w")

# (fingers, impressions, smallest, largest finger size)
CORPUS = {
    "verify-min": (10, 3, 30, 60),
    "screen-min-2w": (5, 2, 30, 60),
}
TINY_CORPUS = {
    "verify-min": (3, 2, 12, 16),
    "screen-min-2w": (3, 2, 12, 16),
}

IMAGE_SIZES = ((256, 256), (320, 288), (384, 296))  # (width, height)
RIDGE_ANGLES = (0.0, 15.0, 30.0, 45.0)  # degrees from the x axis
NOISE_SIGMA = (5.0, 15.0)  # gray levels, alternating over the grid
RIDGE_PERIOD = 10.0  # pixels, about 0.5 mm at 500 dpi
CELL = 50.0  # pixels per planted minutia along each axis
MARGIN = 20.0  # pixels kept free of planted minutiae at the frame
TINY_IMAGES = (((96, 96), 0.0, NOISE_SIGMA[0]), ((96, 80), 45.0, NOISE_SIGMA[1]))


def _seed_for(seed, workload):
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def quantized(mset):
    """The set as the text format keeps it, angles wrapped after rounding.

    `write_minutiae` prints angles to 3 decimals without wrapping, so an
    angle in [359.9995, 360) is written as 360.000, which `read_minutiae`
    rejects; `imgproc.clean_minutiae` quantizes its output the same way.
    """
    return MinutiaSet.from_iterable(
        Minutia(x=round(m.x, 3), y=round(m.y, 3), theta=round(m.theta, 3) % 360.0, kind=m.kind)
        for m in mset)


def write_corpus(rng, out, fingers, impressions, lo, hi):
    sizes = np.rint(np.linspace(lo, hi, fingers)).astype(int)
    rng.shuffle(sizes)
    for f, n in enumerate(sizes.tolist(), start=1):
        latent = synth.synthetic_finger(rng, n, n)
        for i in range(1, impressions + 1):
            write_minutiae(out / f"{f:03d}_{i}.min",
                           quantized(synth.jittered_impression(rng, latent)))
    return {"fingers": fingers, "impressions": impressions, "sizes": sorted(sizes.tolist())}


def render_print(rng, width, height, angle_deg, noise_sigma):
    """(uint8 image, planted minutiae) for one phase-field print."""
    yy, xx = np.mgrid[0:height, 0:width].astype(np.float64)
    a = math.radians(angle_deg)
    across = xx * math.cos(a) + yy * math.sin(a)
    along = -xx * math.sin(a) + yy * math.cos(a)
    bend = 4.0 * np.sin(along / 37.0)
    phase = (2.0 * math.pi / RIDGE_PERIOD) * (across + bend)
    # one minutia per cell of a jittered grid, signs in a checkerboard:
    # with random positions and signs the seed alone moved the raw
    # detection count of one image class by 4 to 12 %, and peak memory,
    # which grows with its square, by twice that
    nx = int((width - 2 * MARGIN) // CELL)
    ny = int((height - 2 * MARGIN) // CELL)
    ox = (width - nx * CELL) / 2.0
    oy = (height - ny * CELL) / 2.0
    planted = []
    for j in range(ny):
        for i in range(nx):
            x = ox + (i + rng.uniform(0.2, 0.8)) * CELL
            y = oy + (j + rng.uniform(0.2, 0.8)) * CELL
            planted.append((x, y, 1 if (i + j) % 2 else -1))
    for x, y, sign in planted:
        phase += sign * np.arctan2(yy - y, xx - x)
    img = 128.0 + 100.0 * np.cos(phase)
    img += rng.normal(0.0, noise_sigma, size=img.shape)
    return np.clip(np.rint(img), 0, 255).astype(np.uint8), planted


def image_classes(tiny):
    if tiny:
        return list(TINY_IMAGES)
    out = []
    for si, size in enumerate(IMAGE_SIZES):
        for ai, angle in enumerate(RIDGE_ANGLES):
            out.append((size, angle, NOISE_SIGMA[(si + ai) % 2]))
    return out


def write_images(rng, out, tiny):
    images = []
    for idx, ((w, h), angle, noise) in enumerate(image_classes(tiny), start=1):
        img, planted = render_print(rng, w, h, angle, noise)
        name = f"{idx:03d}_1.pgm"
        write_pgm(out / name, img)
        images.append({"file": name, "width": w, "height": h, "angle": angle,
                       "noise": noise, "planted": len(planted)})
    return {"images": images}


def generate(workload, seed, out, tiny=False):
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    rng = _seed_for(seed, workload)
    if workload == "extract-img":
        info = write_images(rng, out, tiny)
    else:
        info = write_corpus(rng, out, *(TINY_CORPUS if tiny else CORPUS)[workload])
    info.update(workload=workload, seed=seed, tiny=tiny)
    (out / "workload.json").write_text(json.dumps(info, indent=1) + "\n")
    return info


def main():
    parser = argparse.ArgumentParser(description="Write one workload's seeded inputs.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--tiny", action="store_true", help="smoke-check sizes")
    args = parser.parse_args()
    generate(args.workload, args.seed, args.out, args.tiny)


if __name__ == "__main__":
    main()
