"""Genuine/impostor protocols, error rates, and threshold sweeps.

A dataset is a directory of `FFF_I.pgm` files (finger, impression) or a
manifest CSV listing `finger_id,impression_id,path`. Entries may be PGM
images or pre-extracted minutiae files; the two are told apart by
content. All pair orderings and reductions are deterministic, so a run
produces byte-identical outputs at any thread count.
"""

import csv
import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .config import MatchConfig
from .errors import InvalidInputError
from .imgproc import clean_minutiae, extract, raw_minutiae
from .minutiae import MinutiaSet, parse_minutiae
from .pgm import looks_like_pgm, parse_pgm
from .scoring import CSV_HEADER, ScoreBreakdown, breakdown_to_csv_row, match_pair

GENUINE = "genuine"
IMPOSTOR = "impostor"

MODE_FVC = "fvc"
MODE_ALL_PAIRS = "all_pairs"

DEFAULT_THRESHOLDS = tuple(i / 100 for i in range(101))

CURVES_HEADER = "threshold,fmr,fnmr,pr,rc,acc,f"


@dataclass(frozen=True)
class DatasetEntry:
    finger_id: int
    impression_id: int
    path: str

    @property
    def label(self) -> str:
        return f"{self.finger_id}_{self.impression_id}"


@dataclass(frozen=True)
class Dataset:
    entries: tuple

    def __len__(self):
        return len(self.entries)


@dataclass(frozen=True)
class ScoreRow:
    label: str  # genuine or impostor
    breakdown: ScoreBreakdown


@dataclass(frozen=True)
class ScoreTable:
    rows: tuple

    def __len__(self):
        return len(self.rows)

    def finals(self):
        return np.array([r.breakdown.final for r in self.rows], dtype=float)

    def genuine_mask(self):
        return np.array([r.label == GENUINE for r in self.rows], dtype=bool)

    def without_gated(self) -> "ScoreTable":
        return ScoreTable(tuple(r for r in self.rows if not r.breakdown.gated))


@dataclass(frozen=True)
class ThresholdMetrics:
    threshold: float
    tp: int
    fp: int
    tn: int
    fn: int
    fmr: float
    fnmr: float
    pr: float
    rc: float
    acc: float
    f: float


@dataclass(frozen=True)
class EvalReport:
    rows: tuple  # ThresholdMetrics per grid threshold
    eer: float
    eer_threshold: float  # interpolated crossing position
    eer_grid_threshold: float  # grid point nearest the crossing
    best_f_threshold: float

    @property
    def thresholds(self):
        return tuple(r.threshold for r in self.rows)

    @property
    def fmr(self):
        return tuple(r.fmr for r in self.rows)

    @property
    def fnmr(self):
        return tuple(r.fnmr for r in self.rows)


# ---------------------------------------------------------------------------
# Dataset loading
# ---------------------------------------------------------------------------

_PRINT_SUFFIXES = (".pgm", ".txt", ".min")


def _parse_fvc_stem(stem, where):
    parts = stem.split("_")
    if len(parts) != 2:
        raise InvalidInputError(f"{where}: expected FFF_I name, got {stem!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise InvalidInputError(f"{where}: expected numeric finger/impression in {stem!r}") from None


def _dataset_from_dir(root: Path) -> Dataset:
    entries = []
    for path in sorted(root.iterdir()):
        if path.suffix.lower() not in _PRINT_SUFFIXES or not path.is_file():
            continue
        finger, impression = _parse_fvc_stem(path.stem, str(path))
        entries.append(DatasetEntry(finger, impression, str(path)))
    return _validated(entries, str(root))


def _dataset_from_manifest(manifest: Path) -> Dataset:
    entries = []
    base = manifest.parent
    with open(manifest, newline="") as fh:
        for lineno, rec in enumerate(csv.reader(fh), start=1):
            if not rec or (lineno == 1 and rec[0].strip() == "finger_id"):
                continue
            if len(rec) != 3:
                raise InvalidInputError(
                    f"{manifest}:{lineno}: expected finger_id,impression_id,path"
                )
            try:
                finger, impression = int(rec[0]), int(rec[1])
            except ValueError:
                raise InvalidInputError(f"{manifest}:{lineno}: non-numeric ids") from None
            path = Path(rec[2].strip())
            if not path.is_absolute():
                path = base / path
            if not path.is_file():
                raise InvalidInputError(f"{manifest}:{lineno}: no such file {path}")
            entries.append(DatasetEntry(finger, impression, str(path)))
    return _validated(entries, str(manifest))


def _validated(entries, where) -> Dataset:
    seen = set()
    for e in entries:
        key = (e.finger_id, e.impression_id)
        if key in seen:
            raise InvalidInputError(f"{where}: duplicate entry {e.finger_id}_{e.impression_id}")
        seen.add(key)
    entries.sort(key=lambda e: (e.finger_id, e.impression_id))
    return Dataset(tuple(entries))


def load_dataset(path) -> Dataset:
    p = Path(path)
    if p.is_dir():
        return _dataset_from_dir(p)
    if p.is_file():
        return _dataset_from_manifest(p)
    raise InvalidInputError(f"dataset path {p} is neither a directory nor a manifest")


def load_fingerprint(path, cfg=None, source=None) -> MinutiaSet:
    """Read one print: a PGM is run through extraction, a minutiae file as-is."""
    cfg = cfg if cfg is not None else MatchConfig()
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise InvalidInputError(f"cannot read {path}: {exc}") from None
    name = str(path)
    if looks_like_pgm(data):
        return extract(parse_pgm(data, name), cfg, source=source or name)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        raise InvalidInputError(f"{name}: neither a PGM image nor a minutiae file") from None
    ms = parse_minutiae(text, name)
    return replace(ms, source=source or name)


# ---------------------------------------------------------------------------
# Pair protocols and scoring
# ---------------------------------------------------------------------------


def pair_protocol(ds: Dataset, mode=MODE_FVC):
    """Labeled unordered pairs: (entry, entry, genuine|impostor).

    Genuine pairs are all same-finger impression pairs in both modes.
    Impostor pairs are every cross-finger pair in all_pairs mode; fvc
    mode keeps only cross-finger pairs of first impressions, the
    standard FVC protocol.
    """
    if mode not in (MODE_FVC, MODE_ALL_PAIRS):
        raise InvalidInputError(f"unknown protocol mode {mode!r}")
    if len(ds) < 2:
        raise InvalidInputError("dataset needs at least 2 entries")
    first = {}
    for e in ds.entries:
        if e.finger_id not in first or e.impression_id < first[e.finger_id]:
            first[e.finger_id] = e.impression_id
    out = []
    for a, b in itertools.combinations(ds.entries, 2):
        if a.finger_id == b.finger_id:
            out.append((a, b, GENUINE))
        elif mode == MODE_ALL_PAIRS or (
            a.impression_id == first[a.finger_id] and b.impression_id == first[b.finger_id]
        ):
            out.append((a, b, IMPOSTOR))
    return out


def _ordered_map(fn, items, threads):
    if threads <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _unique_entries(pairs):
    """Entries of labeled pairs, each path once, in order of first appearance."""
    unique = {}
    for a, b, _ in pairs:
        unique.setdefault(a.path, a)
        unique.setdefault(b.path, b)
    return list(unique.values())


def score_pairs(pairs, cfg=None, threads=1, sets=None) -> ScoreTable:
    """Score labeled entry pairs; each entry is loaded and extracted once.

    `sets` maps entry path to a pre-extracted MinutiaSet and overrides
    loading, which the sweep uses to share work across configurations.
    """
    cfg = cfg if cfg is not None else MatchConfig()
    if sets is None:
        unique = _unique_entries(pairs)
        loaded = _ordered_map(
            lambda e: load_fingerprint(e.path, cfg, source=e.label), unique, threads
        )
        sets = {e.path: ms for e, ms in zip(unique, loaded)}

    def one(pair):
        a, b, label = pair
        bd = match_pair(sets[a.path], sets[b.path], cfg, ida=a.label, idb=b.label)
        return ScoreRow(label, bd)

    return ScoreTable(tuple(_ordered_map(one, pairs, threads)))


# ---------------------------------------------------------------------------
# Rates and reports
# ---------------------------------------------------------------------------


def confusion_at(table: ScoreTable, t):
    """(TP, FP, TN, FN) with predicted-match meaning final score >= t."""
    finals = table.finals()
    genuine = table.genuine_mask()
    pred = finals >= t
    tp = int(np.sum(pred & genuine))
    fp = int(np.sum(pred & ~genuine))
    tn = int(np.sum(~pred & ~genuine))
    fn = int(np.sum(~pred & genuine))
    return tp, fp, tn, fn


def _ratio(num, den):
    return num / den if den else 0.0


def rates_and_metrics(table: ScoreTable, thresholds=DEFAULT_THRESHOLDS) -> EvalReport:
    thresholds = tuple(float(t) for t in thresholds)
    if list(thresholds) != sorted(thresholds):
        raise InvalidInputError("thresholds must be sorted ascending")
    finals = table.finals()
    genuine = table.genuine_mask()
    n_gen = int(genuine.sum())
    n_imp = int((~genuine).sum())
    if n_gen == 0 or n_imp == 0:
        raise InvalidInputError("protocol produced no genuine or no impostor pairs")

    rows = []
    for t in thresholds:
        tp, fp, tn, fn = confusion_at(table, t)
        pr = _ratio(tp, tp + fp)
        rc = _ratio(tp, tp + fn)
        rows.append(
            ThresholdMetrics(
                threshold=t,
                tp=tp,
                fp=fp,
                tn=tn,
                fn=fn,
                fmr=_ratio(fp, fp + tn),
                fnmr=_ratio(fn, tp + fn),
                pr=pr,
                rc=rc,
                acc=_ratio(tp + tn, len(table)),
                f=_ratio(2.0 * pr * rc, pr + rc),
            )
        )

    eer, eer_t = _interpolate_eer(rows)
    grid_t = min(thresholds, key=lambda t: (abs(t - eer_t), t))
    best_f_t = max(rows, key=lambda r: (r.f, -r.threshold)).threshold
    return EvalReport(tuple(rows), eer, eer_t, grid_t, best_f_t)


def _interpolate_eer(rows):
    """Crossing of the FMR and FNMR polylines over the threshold grid.

    FNMR - FMR starts negative (at t=0 everything is a predicted match)
    and grows; the first sign change brackets the crossing and linear
    interpolation inside the bracket gives both the EER and its
    threshold.
    """
    prev = rows[0]
    for cur in rows[1:]:
        d0 = prev.fnmr - prev.fmr
        d1 = cur.fnmr - cur.fmr
        if d0 < 0 <= d1:
            frac = 1.0 if d1 == d0 else -d0 / (d1 - d0)
            t = prev.threshold + frac * (cur.threshold - prev.threshold)
            eer = prev.fmr + frac * (cur.fmr - prev.fmr)
            return eer, t
        prev = cur
    # curves never cross inside the grid; report the closest approach
    best = min(rows, key=lambda r: (abs(r.fnmr - r.fmr), r.threshold))
    return (best.fmr + best.fnmr) / 2.0, best.threshold


def evaluate(ds: Dataset, cfg=None, mode=MODE_FVC, threads=1, exclude_gated=False,
             thresholds=DEFAULT_THRESHOLDS, sets=None):
    """Full protocol run: (ScoreTable, EvalReport).

    With exclude_gated the gated pairs still appear in the table (and in
    scores.csv) but are dropped from every rate computation.
    """
    pairs = pair_protocol(ds, mode)
    table = score_pairs(pairs, cfg, threads, sets=sets)
    basis = table.without_gated() if exclude_gated else table
    return table, rates_and_metrics(basis, thresholds)


# ---------------------------------------------------------------------------
# File outputs
# ---------------------------------------------------------------------------


def scores_csv_lines(table: ScoreTable):
    yield CSV_HEADER + ",label"
    for row in table.rows:
        yield breakdown_to_csv_row(row.breakdown) + f",{row.label}"


def curves_csv_lines(report: EvalReport):
    yield CURVES_HEADER
    for r in report.rows:
        yield (
            f"{r.threshold!r},{r.fmr!r},{r.fnmr!r},{r.pr!r},{r.rc!r},{r.acc!r},{r.f!r}"
        )


def summary_lines(table: ScoreTable, report: EvalReport):
    genuine = int(table.genuine_mask().sum())
    yield f"pairs = {len(table)} (genuine {genuine}, impostor {len(table) - genuine})"
    yield f"eer = {report.eer!r}"
    yield f"eer_threshold = {report.eer_threshold!r}"
    yield f"eer_grid_threshold = {report.eer_grid_threshold!r}"
    yield f"best_f_threshold = {report.best_f_threshold!r}"


def _write_lines(path, lines):
    with open(path, "w", newline="\n") as fh:
        for line in lines:
            fh.write(line + "\n")


def write_report_files(out_dir, table: ScoreTable, report: EvalReport):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_lines(out / "scores.csv", scores_csv_lines(table))
    _write_lines(out / "curves.csv", curves_csv_lines(report))
    _write_lines(out / "summary.txt", summary_lines(table, report))


# ---------------------------------------------------------------------------
# Parameter sweeps
# ---------------------------------------------------------------------------

SWEEP_KEYS = ("rm", "r0", "theta0", "sim", "diff")


def sweep(ds: Dataset, grid, base_cfg=None, mode=MODE_FVC, threads=1,
          exclude_gated=False, out_dir=None):
    """One evaluation per parameter override set; results in grid order.

    The image-to-detection stage is shared across configurations; only
    cleanup (border margin, merging) and matching rerun. With out_dir,
    writes `curves_NNN.csv` per configuration plus a `grid.csv` mapping
    file.
    """
    base_cfg = base_cfg if base_cfg is not None else MatchConfig()
    grid = [dict(g) for g in grid]
    if not grid:
        raise InvalidInputError("sweep grid is empty")
    for g in grid:
        for key in g:
            if key not in SWEEP_KEYS:
                raise InvalidInputError(f"sweep key {key!r} not one of {SWEEP_KEYS}")

    pairs = pair_protocol(ds, mode)
    unique = _unique_entries(pairs)

    # cache per entry: either the detection-stage output of an image or
    # the already-final set from a minutiae file
    def stage(entry):
        data = Path(entry.path).read_bytes()
        if looks_like_pgm(data):
            return raw_minutiae(parse_pgm(data, entry.path), base_cfg)
        return load_fingerprint(entry.path, base_cfg, source=entry.label)

    try:
        staged = dict(zip((e.path for e in unique), _ordered_map(stage, unique, threads)))
    except OSError as exc:
        raise InvalidInputError(str(exc)) from None

    results = []
    for idx, overrides in enumerate(grid):
        cfg = replace(base_cfg, **overrides)
        sets = {}
        for e in unique:
            cached = staged[e.path]
            if isinstance(cached, MinutiaSet):
                sets[e.path] = cached
            else:
                detected, sk = cached
                sets[e.path] = clean_minutiae(detected, sk, cfg, source=e.label)
        table = score_pairs(pairs, cfg, threads, sets=sets)
        basis = table.without_gated() if exclude_gated else table
        report = rates_and_metrics(basis)
        results.append((overrides, table, report))
        if out_dir is not None:
            out = Path(out_dir)
            out.mkdir(parents=True, exist_ok=True)
            _write_lines(out / f"curves_{idx:03d}.csv", curves_csv_lines(report))

    if out_dir is not None:
        lines = ["index," + ",".join(SWEEP_KEYS) + ",eer,best_f_threshold"]
        for idx, (overrides, _, report) in enumerate(results):
            cfg = replace(base_cfg, **overrides)
            vals = ",".join(repr(float(getattr(cfg, k))) for k in SWEEP_KEYS)
            lines.append(f"{idx:03d},{vals},{report.eer!r},{report.best_f_threshold!r}")
        _write_lines(Path(out_dir) / "grid.csv", lines)
    return results
