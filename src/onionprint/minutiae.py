"""Minutia records and the plain-text interchange format.

A minutia is a ridge ending or bifurcation with a position in pixel
coordinates (origin top-left, y down) and an orientation in degrees.
Sets hold minutiae at distinct positions in a canonical (y, x) order,
so that equal contents always serialize identically.
"""

import enum
import math
from dataclasses import dataclass
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
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise InvalidInputError("minutia coordinates must be finite")
        if not (0.0 <= self.theta < 360.0):
            raise InvalidInputError(f"minutia angle {self.theta} outside [0, 360)")

    @property
    def sort_key(self):
        return (self.y, self.x, self.kind.value)


def _read_only(arr):
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class MinutiaSet:
    """Minutiae at distinct positions in canonical (y, x) order, as parallel arrays.

    `x`, `y` and `theta` are read-only float64 arrays and `bif` a
    read-only bool array, True for a bifurcation. Iterating or indexing
    gives `Minutia` records. Two sets are equal when their minutiae are;
    `source` is not compared.
    """

    x: np.ndarray
    y: np.ndarray
    theta: np.ndarray
    bif: np.ndarray
    source: str = None

    @classmethod
    def from_arrays(cls, x, y, theta, bif, source=None):
        """A set of the given minutiae, validated and sorted by (y, x)."""
        x, y, theta = (np.asarray(v, dtype=np.float64) for v in (x, y, theta))
        bif = np.asarray(bif, dtype=bool)
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise InvalidInputError("minutia coordinates must be finite")
        bad = np.flatnonzero(~((0.0 <= theta) & (theta < 360.0)))
        if len(bad):
            raise InvalidInputError(f"minutia angle {theta[bad[0]].item()} outside [0, 360)")
        order = np.lexsort((x, y))
        x, y, theta, bif = (_read_only(v[order]) for v in (x, y, theta, bif))
        same = np.flatnonzero((x[1:] == x[:-1]) & (y[1:] == y[:-1]))
        if len(same):
            i = same[0] + 1
            raise InvalidInputError(f"two minutiae at identical position ({x[i].item()}, {y[i].item()})")
        return cls(x, y, theta, bif, source)

    @classmethod
    def from_iterable(cls, items, source=None):
        items = list(items)
        return cls.from_arrays([m.x for m in items], [m.y for m in items], [m.theta for m in items],
                               [m.kind is MinutiaKind.BIFURCATION for m in items], source)

    def __len__(self):
        return len(self.x)

    def __getitem__(self, i):
        return Minutia(float(self.x[i]), float(self.y[i]), float(self.theta[i]),
                       MinutiaKind.BIFURCATION if self.bif[i] else MinutiaKind.ENDING)

    def __iter__(self):
        for x, y, theta, bif in zip(self.x.tolist(), self.y.tolist(), self.theta.tolist(), self.bif.tolist()):
            yield Minutia(x, y, theta, MinutiaKind.BIFURCATION if bif else MinutiaKind.ENDING)

    def __eq__(self, other):
        if not isinstance(other, MinutiaSet):
            return NotImplemented
        return all(np.array_equal(a, b) for a, b in ((self.x, other.x), (self.y, other.y),
                                                     (self.theta, other.theta), (self.bif, other.bif)))

    def positions(self):
        """(n, 2) float array of x, y."""
        return np.column_stack((self.x, self.y))

    def thetas(self):
        return self.theta

    def kind_codes(self):
        """int8 codes for the kernels: 0 = ending, 1 = bifurcation."""
        return self.bif.astype(np.int8)


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
