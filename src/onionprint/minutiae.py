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
        _check(self.x, self.y, self.theta)


def _check(x, y, theta):
    """Reject a minutia at (x, y) with angle theta that no set may hold."""
    if not (math.isfinite(x) and math.isfinite(y)):
        raise InvalidInputError("minutia coordinates must be finite")
    if not (0.0 <= theta < 360.0):
        raise InvalidInputError(f"minutia angle {theta} outside [0, 360)")


@dataclass(frozen=True, eq=False)
class MinutiaSet:
    """Minutiae at distinct positions in canonical (y, x) order, as parallel arrays.

    `x`, `y` and `theta` are float64 arrays and `bif` a bool array, True
    for a bifurcation: read-only views of the one immutable buffer
    `data` (the three float columns, then the flags), made on each
    access. A set costs that buffer and little more, so evaluations and
    sweeps can hold many. Iterating or indexing gives `Minutia` records.
    Two sets are equal when their minutiae are; `source` is not compared.
    """

    data: bytes
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
        x, y = x[order], y[order]
        same = np.flatnonzero((x[1:] == x[:-1]) & (y[1:] == y[:-1]))
        if len(same):
            i = same[0] + 1
            raise InvalidInputError(f"two minutiae at identical position ({x[i].item()}, {y[i].item()})")
        return cls(b"".join(v.tobytes() for v in (x, y, theta[order], bif[order])), source)

    def _column(self, k, dtype=np.float64):
        n = len(self)
        return np.frombuffer(self.data, dtype, n, 8 * k * n)

    @property
    def x(self):
        return self._column(0)

    @property
    def y(self):
        return self._column(1)

    @property
    def theta(self):
        return self._column(2)

    @property
    def bif(self):
        return self._column(3, bool)

    @classmethod
    def from_iterable(cls, items, source=None):
        items = list(items)
        return cls.from_arrays([m.x for m in items], [m.y for m in items], [m.theta for m in items],
                               [m.kind is MinutiaKind.BIFURCATION for m in items], source)

    def __len__(self):
        return len(self.data) // 25  # 3 floats and a flag per minutia

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


def quantize(x, y, theta):
    """Coordinate and angle arrays as the text format holds them: lists
    of floats rounded to 3 decimals, each angle wrapped into [0, 360)
    after rounding. Unwrapped, an angle in [359.9995, 360) would print
    as 360.000, which the parser rejects. Quantized values round-trip
    exactly through the format."""
    return ([round(v, 3) for v in x.tolist()], [round(v, 3) for v in y.tolist()],
            [round(t, 3) % 360.0 for t in theta.tolist()])


def format_minutiae(mset) -> str:
    lines = [FILE_HEADER]
    for x, y, theta, bif in zip(*quantize(mset.x, mset.y, mset.theta), mset.bif.tolist()):
        kind = MinutiaKind.BIFURCATION if bif else MinutiaKind.ENDING
        lines.append(f"{x:.3f} {y:.3f} {theta:.3f} {kind.value}")
    return "\n".join(lines) + "\n"


def write_minutiae(path, mset):
    Path(path).write_text(format_minutiae(mset))


def parse_minutiae(text, source=None) -> MinutiaSet:
    """The set a minutiae file holds; every error names the line at fault."""
    where = source or "input"
    lines = text.splitlines()
    if not lines or lines[0].strip() != FILE_HEADER:
        raise InvalidInputError(f"{where}: missing '{FILE_HEADER}' header")
    xs, ys, thetas, bifs = [], [], [], []
    first_line = {}  # (x, y) -> the line that holds it
    for ln, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 4:
            raise InvalidInputError(f"{where}:{ln}: expected 'x y theta kind'")
        try:
            x, y, theta = float(parts[0]), float(parts[1]), float(parts[2])
            bif = MinutiaKind(parts[3]) is MinutiaKind.BIFURCATION
            _check(x, y, theta)
        except (ValueError, InvalidInputError) as exc:
            raise InvalidInputError(f"{where}:{ln}: {exc}") from exc
        first = first_line.setdefault((x, y), ln)
        if first != ln:
            raise InvalidInputError(f"{where}:{ln}: two minutiae at identical position ({x}, {y}),"
                                    f" the first on line {first}")
        xs.append(x)
        ys.append(y)
        thetas.append(theta)
        bifs.append(bif)
    return MinutiaSet.from_arrays(xs, ys, thetas, bifs, source)

