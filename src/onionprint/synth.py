"""Seeded synthetic fingerprint corpus.

Fingers are random well-separated minutia sets; impressions of a finger
are rigid motions of it with Gaussian position and orientation jitter,
a fraction of minutiae deleted, and a fraction of spurious ones
inserted. Everything derives from one seed, so a corpus is reproducible
byte for byte.

Images are the cosine of a ridge phase field (Larkin and Fletcher,
Optics Express 15(14), 2007): a plane wave sets the ridge direction and
period, and each +-atan2 spiral added to the phase is one ridge ending
or bifurcation, so a rendered print carries its own ground truth.
"""

import math

import numpy as np

from .minutiae import Minutia, MinutiaKind, MinutiaSet

BOX = 400.0
MIN_SEPARATION = 14.0


def _random_minutia(rng, taken, margin=30.0):
    while True:
        x = float(rng.uniform(margin, BOX - margin))
        y = float(rng.uniform(margin, BOX - margin))
        if all((x - px) ** 2 + (y - py) ** 2 > MIN_SEPARATION**2 for px, py in taken):
            taken.append((x, y))
            return Minutia(
                x=x,
                y=y,
                theta=float(rng.uniform(0.0, 360.0)),
                kind=MinutiaKind.ENDING if rng.random() < 0.6 else MinutiaKind.BIFURCATION,
            )


def synthetic_finger(rng, n_min=30, n_max=60):
    """Latent template: n random minutiae, pairwise farther than 14 px."""
    n = int(rng.integers(n_min, n_max + 1))
    taken = []
    return [_random_minutia(rng, taken) for _ in range(n)]


def jittered_impression(
    rng,
    finger,
    pos_sigma=3.0,
    angle_sigma=5.0,
    delete_frac=0.1,
    insert_frac=0.1,
    max_rotation=25.0,
    max_shift=15.0,
) -> MinutiaSet:
    """One noisy capture of a latent finger."""
    dtheta = float(rng.uniform(-max_rotation, max_rotation)) % 360.0
    dx = float(rng.uniform(-max_shift, max_shift))
    dy = float(rng.uniform(-max_shift, max_shift))
    rad = math.radians(dtheta)
    cosv, sinv = math.cos(rad), math.sin(rad)
    cx = cy = BOX / 2.0

    n = len(finger)
    n_del = int(round(delete_frac * n))
    drop = set(rng.choice(n, size=n_del, replace=False).tolist()) if n_del else set()

    out = []
    taken = []
    for idx, m in enumerate(finger):
        if idx in drop:
            continue
        # rotate about the box center, translate, then jitter
        rx = cosv * (m.x - cx) - sinv * (m.y - cy) + cx + dx
        ry = sinv * (m.x - cx) + cosv * (m.y - cy) + cy + dy
        out.append(
            Minutia(
                x=rx + float(rng.normal(0.0, pos_sigma)),
                y=ry + float(rng.normal(0.0, pos_sigma)),
                theta=(m.theta + dtheta + float(rng.normal(0.0, angle_sigma))) % 360.0,
                kind=m.kind,
            )
        )
        taken.append((out[-1].x, out[-1].y))
    n_ins = int(round(insert_frac * n))
    for _ in range(n_ins):
        out.append(_random_minutia(rng, taken))
    return MinutiaSet.from_iterable(out)


def synthetic_corpus(seed, fingers=20, impressions=4, n_min=30, n_max=60):
    """[(finger_id, impression_id, MinutiaSet)] with ids starting at 1."""
    rng = np.random.default_rng(seed)
    out = []
    for f in range(1, fingers + 1):
        latent = synthetic_finger(rng, n_min, n_max)
        for i in range(1, impressions + 1):
            out.append((f, i, jittered_impression(rng, latent)))
    return out


def render_impression(rng, width, height, spirals, angle, period, noise, shift=(0.0, 0.0)):
    """(uint8 image, planted minutia positions) of one phase-field print.

    Ridges run across direction `angle` (degrees from +x) with `period`
    pixels. Each row (x, y, sign) of `spirals` adds sign * atan2 around
    (x, y) to the phase, which plants a minutia there. The field is
    sampled at pixel coordinates minus `shift`, so the planted positions,
    an (n, 2) array of x and y, are the spiral centres plus `shift`.
    Gaussian noise of standard deviation `noise` gray levels comes from
    `rng`; the image is 128 + 100 cos(phase), rounded and clipped.
    """
    spirals = np.asarray(spirals, dtype=float).reshape(-1, 3)
    yy, xx = np.mgrid[0:height, 0:width].astype(float)
    u, v = xx - shift[0], yy - shift[1]
    t = math.radians(angle)
    phase = (2.0 * math.pi / period) * (u * math.cos(t) + v * math.sin(t))
    for cx, cy, sign in spirals.tolist():
        phase += sign * np.arctan2(v - cy, u - cx)
    img = 128.0 + 100.0 * np.cos(phase)
    img += rng.normal(0.0, noise, size=img.shape)
    return np.clip(np.rint(img), 0, 255).astype(np.uint8), spirals[:, :2] + shift
