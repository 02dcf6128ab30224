"""Genuine/impostor protocols, error rates, and threshold sweeps.

A dataset is a directory of `FFF_I.pgm` files (finger, impression) or a
manifest CSV listing `finger_id,impression_id,path`. Entries may be PGM
images or pre-extracted minutiae files; the two are told apart by
content. All pair orderings and reductions are deterministic, so a run
produces byte-identical outputs at any worker count.

`evaluate` is the `sweep` of one configuration. A sweep loads, scores and
rates, and each stage runs once per distinct input: a print is read once and
an image detected once, cleaned once per distinct (rm, border_margin), and a
pair aligned and peeled once per distinct pair of sets and (r0, theta0).

With `threads` above 1, image loading and pair scoring run in worker
processes made by fork, so they inherit the loaded sets and the scoring
closures instead of receiving them pickled. The items are cut into
contiguous chunks of near-equal estimated cost, one per process; the
calling process takes the first chunk and forked children the rest.
Minutiae files are read in the calling process: parsing one takes less
than starting a process. The processes are capped at the usable CPUs,
and results come back in input order, so the first error in input
order is the one raised, as with one worker.
"""

import csv
import itertools
import os
import pickle  # numpy has already loaded it
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .config import MatchConfig
from .errors import InvalidInputError, InvariantError
from .imgproc import CLEANUP_FIELDS, clean_minutiae, raw_minutiae
from .minutiae import MinutiaSet, parse_minutiae
from .pgm import looks_like_pgm, parse_pgm
from .scoring import CSV_HEADER, ScoreBreakdown, breakdown_to_csv_row, match_under

GENUINE = "genuine"
IMPOSTOR = "impostor"

MODE_FVC = "fvc"
MODE_ALL_PAIRS = "all_pairs"

THRESHOLDS = tuple(i / 100 for i in range(101))

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
class EvalReport:
    """Rates as columns: one tuple per rate, one entry per `THRESHOLDS` value."""

    tp: tuple
    fp: tuple
    tn: tuple
    fn: tuple
    fmr: tuple
    fnmr: tuple
    pr: tuple
    rc: tuple
    acc: tuple
    f: tuple
    eer: float
    eer_threshold: float  # interpolated crossing position
    eer_grid_threshold: float  # grid point nearest the crossing, the smaller on a tie
    best_f_threshold: float  # the smaller on a tie


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
    try:
        with open(manifest, newline="") as fh:
            records = list(csv.reader(fh))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise InvalidInputError(f"cannot read manifest {manifest}: {exc}") from None
    for lineno, rec in enumerate(records, start=1):
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
        try:
            found = path.is_file()
        except OSError as exc:  # a name the OS rejects, such as one too long
            raise InvalidInputError(f"{manifest}:{lineno}: bad path: {exc}") from None
        if not found:
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


def _load(path, cfgs, source=None):
    """One print's MinutiaSet under each of cfgs, reading the file once.

    A minutiae file is final, so every config gets the one set it holds; a
    PGM image goes through detection once and cleanup once per distinct
    value of `CLEANUP_FIELDS`, and configs that agree on it get one set.
    """
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise InvalidInputError(f"cannot read {path}: {exc}") from None
    name = str(path)
    if looks_like_pgm(data):
        detected, sk = raw_minutiae(parse_pgm(data, name))
        keys = [tuple(getattr(cfg, field) for field in CLEANUP_FIELDS) for cfg in cfgs]
        cleaned = {key: clean_minutiae(detected, sk, cfg, source or name)
                   for key, cfg in dict(zip(keys, cfgs)).items()}  # cleanup reads only the key
        return [cleaned[key] for key in keys]
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        raise InvalidInputError(f"{name}: neither a PGM image nor a minutiae file") from None
    return [replace(parse_minutiae(text, name), source=source or name)] * len(cfgs)


def load_fingerprint(path, cfg=None, source=None) -> MinutiaSet:
    """Read one print: a PGM is run through extraction, a minutiae file as-is."""
    return _load(path, [cfg], source)[0]


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


def usable_cpus():
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has affinity masks
        return os.cpu_count() or 1


def chunk_bounds(costs, threads, cpus):
    """Contiguous `(lo, hi)` index ranges of near-equal summed cost, one per process.

    There are at most min(threads, len(costs), cpus) ranges, none empty,
    covering the items in order. Each cut falls after the item whose
    running cost first reaches the next equal share of the total. Work
    of zero estimated cost is not worth a process, so it is one range.
    """
    n = len(costs)
    workers = min(threads, n, cpus)
    cum = np.cumsum(costs, dtype=float)
    if workers <= 1 or cum[-1] <= 0:
        return [(0, n)]
    cuts = np.searchsorted(cum, cum[-1] * np.arange(1, workers) / workers) + 1
    edges = [0, *sorted(set(np.clip(cuts, 1, n - 1).tolist())), n]
    return list(zip(edges[:-1], edges[1:]))


def _ordered_map(fn, items, threads, cost):
    """[fn(item) for item in items], spread over up to `threads` processes.

    `cost(item)` estimates an item's share of the work.
    """
    if threads > 1:
        bounds = chunk_bounds([cost(item) for item in items], threads, usable_cpus())
        if len(bounds) > 1:
            return _forked_map(fn, items, bounds)
    return [fn(item) for item in items]


def _forked_map(fn, items, bounds):
    """fn over the first chunk here and over each other chunk in a forked child, in order."""
    pending = []  # (pid, reader) of children not yet reaped, in chunk order
    try:
        for lo, hi in bounds[1:]:
            fds = ()
            try:
                fds = os.pipe()
                pid = os.fork()
            except OSError as exc:  # e.g. a process or file limit
                for fd in fds:
                    os.close(fd)
                raise InvariantError(f"cannot start a worker process: {exc}") from None
            r, w = fds
            if pid == 0:
                os.close(r)
                _run_chunk(fn, items[lo:hi], w)
            os.close(w)
            pending.append((pid, os.fdopen(r, "rb")))
        lo, hi = bounds[0]
        results = [fn(item) for item in items[lo:hi]]
        while pending:
            pid, reader = pending[0]
            data = reader.read()
            reader.close()
            _, status = os.waitpid(pid, 0)
            pending.pop(0)
            try:
                ok, value = pickle.loads(data)
            except Exception as exc:
                code = os.waitstatus_to_exitcode(status)
                how = f"was killed by signal {-code}" if code < 0 else f"exited with {code}"
                raise InvariantError(
                    f"worker process {how} without a readable result ({type(exc).__name__})"
                ) from None
            if not ok:
                raise value
            results.extend(value)
        return results
    finally:  # an error cut the run short: stop the children still running
        for pid, reader in pending:
            os.kill(pid, 9)  # SIGKILL
            os.waitpid(pid, 0)
            reader.close()


def _run_chunk(fn, chunk, w):
    """Child side of `_forked_map`: send (True, results) or (False, error) down w, then exit."""
    code = 1
    try:
        try:
            data = pickle.dumps((True, [fn(item) for item in chunk]), pickle.HIGHEST_PROTOCOL)
        except BaseException as exc:  # re-raised by the parent, as with one worker
            data = pickle.dumps((False, exc), pickle.HIGHEST_PROTOCOL)
        with open(w, "wb") as fh:
            fh.write(data)
        code = 0
    finally:
        os._exit(code)


def _unique_entries(pairs):
    """Entries of labeled pairs, each path once, in order of first appearance."""
    unique = {}
    for a, b, _ in pairs:
        unique.setdefault(a.path, a)
        unique.setdefault(b.path, b)
    return list(unique.values())


def _load_cost(entry):
    """Extracting an image is worth a process, reading a minutiae file is not.

    The estimate goes by the file name; the content still decides how an
    entry is read.
    """
    return float(entry.path.lower().endswith(".pgm"))


def score_pairs(pairs, cfgs, threads=1, *, sets) -> list:
    """One ScoreTable per config of cfgs, from one pass over the pairs.

    `sets` maps each path to its MinutiaSet under each config, in cfgs order;
    `scoring.match_under` shares each stage among the configs with equal inputs.
    """

    def one(pair):
        a, b, label = pair
        bds = match_under(sets[a.path], sets[b.path], cfgs, ida=a.label, idb=b.label)
        return [ScoreRow(label, bd) for bd in bds]

    def cost(pair):
        # alignment, most of a pair's time, bounds all m * n hypotheses. On
        # all pairs of three seeded 5-finger, 2-impression corpora of 30-60
        # minutiae (2-CPU Xeon), a 2-way cut by this estimate ended about
        # 11 % sooner than a cut by pair count and 6 % sooner than one by
        # m * n * (m + n)
        return len(sets[pair[0].path][0]) * len(sets[pair[1].path][0])

    return [ScoreTable(rows) for rows in zip(*_ordered_map(one, pairs, threads, cost))]


# ---------------------------------------------------------------------------
# Rates and reports
# ---------------------------------------------------------------------------


def _over(num, den):
    """num / den, with 0 where den is 0."""
    return np.divide(num, den, out=np.zeros(len(THRESHOLDS)), where=den != 0)


def rates_and_metrics(table: ScoreTable) -> EvalReport:
    finals = table.finals()
    genuine = table.genuine_mask()
    n_gen = int(genuine.sum())
    n_imp = len(table) - n_gen
    if n_gen == 0 or n_imp == 0:
        raise InvalidInputError(f"cannot rate {n_gen} genuine and {n_imp} impostor pairs: "
                                "both classes are needed")

    # a predicted match is final >= t: count each class's finals below t
    grid = np.array(THRESHOLDS)
    fn = np.searchsorted(np.sort(finals[genuine]), grid, "left")
    tn = np.searchsorted(np.sort(finals[~genuine]), grid, "left")
    tp = n_gen - fn
    fp = n_imp - tn
    fmr = fp / n_imp
    fnmr = fn / n_gen
    pr = _over(tp, tp + fp)
    rc = tp / n_gen
    acc = (tp + tn) / len(table)
    f = _over(2.0 * pr * rc, pr + rc)

    # FNMR - FMR starts negative (at t=0 everything is a predicted match)
    # and grows; the first sign change brackets the crossing, and linear
    # interpolation inside it gives both the EER and its threshold
    d = fnmr - fmr
    cross = np.flatnonzero((d[:-1] < 0) & (d[1:] >= 0))
    if cross.size:
        i = int(cross[0])
        frac = float(-d[i] / (d[i + 1] - d[i]))
        eer_t = THRESHOLDS[i] + frac * (THRESHOLDS[i + 1] - THRESHOLDS[i])
        eer = float(fmr[i] + frac * (fmr[i + 1] - fmr[i]))
    else:  # the curves never cross inside the grid: take the closest approach
        i = int(np.argmin(np.abs(d)))
        eer, eer_t = float((fmr[i] + fnmr[i]) / 2.0), THRESHOLDS[i]
    grid_t = THRESHOLDS[int(np.argmin(np.abs(grid - eer_t)))]
    best_f_t = THRESHOLDS[int(np.argmax(f))]
    cols = (tp, fp, tn, fn, fmr, fnmr, pr, rc, acc, f)
    return EvalReport(*(tuple(c.tolist()) for c in cols), eer, eer_t, grid_t, best_f_t)


def evaluate(ds: Dataset, cfg=None, mode=MODE_FVC, threads=1, exclude_gated=False):
    """Full protocol run: (ScoreTable, EvalReport), a sweep of one configuration.

    With exclude_gated the gated pairs still appear in the table (and in
    scores.csv) but are dropped from every rate computation.
    """
    [(_, table, report)] = sweep(ds, [{}], cfg, mode, threads, exclude_gated)
    return table, report


# ---------------------------------------------------------------------------
# File outputs
# ---------------------------------------------------------------------------


def scores_csv_lines(table: ScoreTable):
    yield CSV_HEADER + ",label"
    for row in table.rows:
        yield breakdown_to_csv_row(row.breakdown) + f",{row.label}"


def curves_csv_lines(report: EvalReport):
    yield CURVES_HEADER
    for row in zip(THRESHOLDS, report.fmr, report.fnmr, report.pr, report.rc, report.acc,
                   report.f):
        yield ",".join(map(repr, row))


def summary_lines(table: ScoreTable, report: EvalReport):
    genuine, impostor = report.tp[0] + report.fn[0], report.fp[0] + report.tn[0]
    yield f"pairs = {genuine + impostor} (genuine {genuine}, impostor {impostor})"
    if len(table) > genuine + impostor:  # gated pairs left out of the rates
        left_gen = int(table.genuine_mask().sum()) - genuine
        left_imp = len(table) - genuine - impostor - left_gen
        yield f"excluded_gated = {left_gen + left_imp} (genuine {left_gen}, impostor {left_imp})"
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

    It loads each print once, scores every configuration in one pass over the
    pairs, and rates each; a stage runs once per distinct input (see `_load` and
    `scoring.match_under`). Once all are rated, out_dir gets `curves_NNN.csv` per
    configuration and a `grid.csv`.
    """
    base_cfg = base_cfg if base_cfg is not None else MatchConfig()
    grid = [dict(g) for g in grid]
    if not grid:
        raise InvalidInputError("sweep grid is empty")
    for g in grid:
        for key in g:
            if key not in SWEEP_KEYS:
                raise InvalidInputError(f"sweep key {key!r} not one of {SWEEP_KEYS}")
    cfgs = [replace(base_cfg, **g) for g in grid]

    pairs = pair_protocol(ds, mode)
    unique = _unique_entries(pairs)
    loaded = _ordered_map(lambda e: _load(e.path, cfgs, e.label), unique, threads, _load_cost)
    tables = score_pairs(pairs, cfgs, threads, sets={e.path: ms for e, ms in zip(unique, loaded)})

    results = []
    grid_lines = ["index," + ",".join(SWEEP_KEYS) + ",eer,best_f_threshold"]
    for idx, (overrides, cfg, table) in enumerate(zip(grid, cfgs, tables)):
        report = rates_and_metrics(table.without_gated() if exclude_gated else table)
        results.append((overrides, table, report))
        vals = ",".join(repr(float(getattr(cfg, k))) for k in SWEEP_KEYS)
        grid_lines.append(f"{idx:03d},{vals},{report.eer!r},{report.best_f_threshold!r}")
    if out_dir is not None:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
        for idx, (_, _, report) in enumerate(results):
            _write_lines(Path(out_dir) / f"curves_{idx:03d}.csv", curves_csv_lines(report))
        _write_lines(Path(out_dir) / "grid.csv", grid_lines)
    return results
