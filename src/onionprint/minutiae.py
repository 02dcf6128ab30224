"""Minutia records and the plain-text interchange format.

A minutia is a ridge ending or bifurcation with a position in pixel
coordinates (origin top-left, y down) and an orientation in degrees.
Sets are kept in a canonical (y, x, kind) order so that equal contents
always serialize identically.
"""

import enum
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import InvalidInputError

FILE_HEADER = "# onionprint-minutiae v1"


class MinutiaKind(enum.Enum):
    ENDING = "E"
    BIFURCATION = "B"


@dataclass(frozen=True)
class Minutia:
    x: float
    y: float
    theta: float
    kind: MinutiaKind

    def __post_init__(self):
        if not (np.isfinite(self.x) and np.isfinite(self.y)):
            raise InvalidInputError("minutia coordinates must be finite")
        if not (0.0 <= self.theta < 360.0):
            raise InvalidInputError(f"minutia angle {self.theta} outside [0, 360)")

    @property
    def sort_key(self):
        return (self.y, self.x, self.kind.value)


@dataclass(frozen=True)
class MinutiaSet:
    minutiae: tuple = ()
    source: str = field(default=None, compare=False)

    @classmethod
    def from_iterable(cls, items, source=None):
        ms = tuple(sorted(items, key=lambda m: m.sort_key))
        seen = set()
        for m in ms:
            if (m.x, m.y) in seen:
                raise InvalidInputError(f"two minutiae at identical position ({m.x}, {m.y})")
            seen.add((m.x, m.y))
        return cls(minutiae=ms, source=source)

    def __len__(self):
        return len(self.minutiae)

    def __iter__(self):
        return iter(self.minutiae)

    def positions(self):
        """(n, 2) float array of x, y."""
        if not self.minutiae:
            return np.empty((0, 2))
        return np.array([[m.x, m.y] for m in self.minutiae])

    def thetas(self):
        return np.array([m.theta for m in self.minutiae])

    def kind_codes(self):
        """int8 codes for the kernels: 0 = ending, 1 = bifurcation."""
        return np.array([m.kind is MinutiaKind.BIFURCATION for m in self.minutiae], np.int8)


def format_minutiae(mset) -> str:
    lines = [FILE_HEADER]
    for m in mset:
        # rounded and wrapped first: an angle in [359.9995, 360) would
        # otherwise print as 360.000, which the parser rejects
        theta = round(m.theta, 3) % 360.0
        lines.append(f"{m.x:.3f} {m.y:.3f} {theta:.3f} {m.kind.value}")
    return "\n".join(lines) + "\n"


def write_minutiae(path, mset):
    Path(path).write_text(format_minutiae(mset))


def parse_minutiae(text, source=None) -> MinutiaSet:
    lines = text.splitlines()
    if not lines or lines[0].strip() != FILE_HEADER:
        raise InvalidInputError(f"{source or 'input'}: missing '{FILE_HEADER}' header")
    out = []
    for ln, line in enumerate(lines[1:], start=2):
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 4:
            raise InvalidInputError(f"{source or 'input'}:{ln}: expected 'x y theta kind'")
        try:
            x, y, theta = float(parts[0]), float(parts[1]), float(parts[2])
            kind = MinutiaKind(parts[3])
        except ValueError as exc:
            raise InvalidInputError(f"{source or 'input'}:{ln}: {exc}") from exc
        out.append(Minutia(x=x, y=y, theta=theta, kind=kind))
    return MinutiaSet.from_iterable(out, source=source)


def read_minutiae(path) -> MinutiaSet:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InvalidInputError(f"cannot read {path}: {exc}") from exc
    return parse_minutiae(text, source=str(path))
