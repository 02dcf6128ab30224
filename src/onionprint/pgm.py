"""Minimal PGM reader/writer, ASCII (P2) and binary (P5), maxval <= 255.

Comment lines starting '#' are accepted anywhere whitespace is legal,
including inside P2 sample data.
"""

from pathlib import Path

import numpy as np

from .errors import InvalidInputError

_WS = b" \t\r\n"


def parse_pgm(data: bytes, name="<pgm>") -> np.ndarray:
    n = len(data)
    pos = 0

    def error(msg):
        raise InvalidInputError(f"{name}: {msg}")

    def next_token(what):
        nonlocal pos
        while pos < n:
            c = data[pos]
            if c in _WS:
                pos += 1
            elif c == 0x23:  # '#'
                while pos < n and data[pos] not in b"\r\n":
                    pos += 1
            else:
                break
        if pos >= n:
            error(f"unexpected end of file reading {what}")
        start = pos
        while pos < n and data[pos] not in _WS:
            pos += 1
        return data[start:pos]

    def next_int(what):
        tok = next_token(what)
        try:
            return int(tok)
        except ValueError:
            error(f"bad {what}: {tok!r}")

    magic = next_token("magic number")
    if magic not in (b"P2", b"P5"):
        error("not a PGM file (expected P2 or P5)")
    width = next_int("width")
    height = next_int("height")
    maxval = next_int("maxval")
    if width < 1 or height < 1:
        error(f"image dimensions must be positive, got {width}x{height}")
    if not 1 <= maxval <= 255:
        error(f"unsupported maxval {maxval} (this reader handles 1..255)")
    count = width * height

    if magic == b"P5":
        if pos >= n or data[pos] not in _WS:
            error("missing whitespace before raster data")
        pos += 1
        raster = data[pos : pos + count]
        if len(raster) < count:
            error(f"truncated raster: expected {count} bytes, got {len(raster)}")
        img = np.frombuffer(raster, dtype=np.uint8).reshape(height, width).copy()
    else:
        # every sample takes a separator and a digit, so a header cannot
        # declare more samples than half the bytes left; checked before
        # allocating, since a few bytes can declare gigapixels
        if count > (n - pos) // 2:
            error(f"truncated raster: {count} samples need at least {2 * count} bytes, "
                  f"{n - pos} left")
        vals = np.empty(count, dtype=np.int32)
        for i in range(count):
            vals[i] = next_int(f"sample {i}")
        if vals.min() < 0 or vals.max() > maxval:
            error(f"sample value outside 0..{maxval}")
        img = vals.astype(np.uint8).reshape(height, width)
    if int(img.max()) > maxval:
        error(f"sample value exceeds declared maxval {maxval}")
    return img


def read_pgm(path) -> np.ndarray:
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise InvalidInputError(f"cannot read {path}: {exc}") from exc
    return parse_pgm(data, name=str(path))


def write_pgm(path, img, binary=True):
    img = np.asarray(img)
    if img.ndim != 2 or img.size == 0:
        raise InvalidInputError("write_pgm needs a nonempty 2-D array")
    if img.dtype != np.uint8:
        if img.min() < 0 or img.max() > 255:
            raise InvalidInputError("samples out of range for 8-bit PGM")
        img = img.astype(np.uint8)
    h, w = img.shape
    header = f"{'P5' if binary else 'P2'}\n{w} {h}\n255\n"
    path = Path(path)
    if binary:
        path.write_bytes(header.encode("ascii") + img.tobytes())
    else:
        body = "\n".join(" ".join(str(v) for v in row) for row in img)
        path.write_text(header + body + "\n")


def looks_like_pgm(data: bytes) -> bool:
    return data[:2] in (b"P2", b"P5")
