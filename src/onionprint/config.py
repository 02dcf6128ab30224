"""Matching parameters and the plain `key = value` configuration format."""

import math
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import InvalidInputError


@dataclass(frozen=True)
class MatchConfig:
    """Extraction cleanup and matching parameters with their stock defaults.

    diff may be infinite to disable the layer-count gate entirely.
    """

    rm: float = 5.0
    r0: float = 15.0
    theta0: float = 10.0
    sim: float = 0.15
    diff: float = 2.0
    border_margin: float = 12.0

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if not (v >= 0):
                raise InvalidInputError(f"config: {f.name} must be nonnegative, got {v}")
        if self.sim > 1:
            raise InvalidInputError(f"config: sim must lie in [0, 1], got {self.sim}")
        if self.theta0 > 180:
            raise InvalidInputError(f"config: theta0 must lie in [0, 180], got {self.theta0}")


def _parse_float(text):
    v = float(text)
    if math.isnan(v):
        raise ValueError("nan is not a valid value")
    return v


_KEYS = frozenset(f.name for f in fields(MatchConfig))


def load_config_file(path) -> dict:
    """Parse `key = value` lines; '#' starts a comment."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidInputError(f"cannot read config {path}: {exc}") from exc
    values = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if not eq or not key or not val:
            raise InvalidInputError(f"{path}:{ln}: expected 'key = value'")
        if key not in _KEYS:
            raise InvalidInputError(f"{path}:{ln}: unknown key {key!r}")
        try:
            values[key] = _parse_float(val)
        except ValueError as exc:
            raise InvalidInputError(f"{path}:{ln}: {exc}") from exc
    return values


def build_config(file_values=None, overrides=None) -> MatchConfig:
    """Merge config sources; overrides (typically CLI flags) win."""
    merged = dict(file_values or {})
    for key, val in (overrides or {}).items():
        if val is not None:
            merged[key] = val
    return MatchConfig(**merged)
