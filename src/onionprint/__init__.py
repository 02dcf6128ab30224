"""Minutiae-based fingerprint verification via convex layer peeling.

The pipeline: extract minutiae from a grayscale print, align two sets
rigidly, peel the matched minutiae into nested convex rings, compare
peer rings by turning-function distance, and squash into a [0, 1]
similarity score.
"""

from .config import MatchConfig, build_config, load_config_file
from .errors import InvalidInputError, InvariantError, OnionprintError
from .evaluation import Dataset, EvalReport, ScoreTable, evaluate, load_dataset, sweep
from .geometry import convex_layers
from .imgproc import extract
from .minutiae import Minutia, MinutiaKind, MinutiaSet, write_minutiae
from .pgm import read_pgm, write_pgm
from .scoring import ScoreBreakdown, match_pair

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "EvalReport",
    "InvalidInputError",
    "InvariantError",
    "MatchConfig",
    "Minutia",
    "MinutiaKind",
    "MinutiaSet",
    "OnionprintError",
    "ScoreBreakdown",
    "ScoreTable",
    "build_config",
    "convex_layers",
    "evaluate",
    "extract",
    "load_config_file",
    "load_dataset",
    "match_pair",
    "read_pgm",
    "sweep",
    "write_minutiae",
    "write_pgm",
]
