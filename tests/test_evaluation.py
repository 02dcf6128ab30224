import errno
import math
import os
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from onionprint import evaluation, kernels
from onionprint.config import MatchConfig
from onionprint.errors import InvalidInputError, InvariantError
from onionprint.evaluation import (
    GENUINE,
    IMPOSTOR,
    THRESHOLDS,
    Dataset,
    DatasetEntry,
    EvalReport,
    ScoreRow,
    ScoreTable,
    chunk_bounds,
    curves_csv_lines,
    evaluate,
    load_dataset,
    load_fingerprint,
    pair_protocol,
    rates_and_metrics,
    score_pairs,
    scores_csv_lines,
    summary_lines,
    sweep,
    write_report_files,
)
from onionprint.minutiae import write_minutiae
from onionprint.pgm import write_pgm
from onionprint.scoring import ScoreBreakdown
from onionprint.synth import render_impression, synthetic_corpus
from oracles import rates_reference


def _entries(fingers, impressions):
    return Dataset(
        tuple(
            DatasetEntry(f, i, f"mem:{f}_{i}")
            for f in range(1, fingers + 1)
            for i in range(1, impressions + 1)
        )
    )


def _fake_row(label, final, gate=""):
    bd = ScoreBreakdown(
        "a", "b", 5, 10, 10, 0.5, 2, 2, (), None if gate else 1.0,
        None if gate else 0.5, final, gate,
    )
    return ScoreRow(label, bd)


def _table(genuine_finals, impostor_finals):
    rows = [_fake_row(GENUINE, v) for v in genuine_finals]
    rows += [_fake_row(IMPOSTOR, v) for v in impostor_finals]
    return ScoreTable(tuple(rows))


def _corpus_dir(tmp_path, seed=77, fingers=3, impressions=2, n_min=12, n_max=18):
    d = tmp_path / "ds"
    d.mkdir()
    for f, i, ms in synthetic_corpus(seed, fingers, impressions, n_min, n_max):
        write_minutiae(d / f"{f}_{i}.txt", ms)
    return d


# ---------------------------------------------------------------------------
# dataset loading
# ---------------------------------------------------------------------------


def test_load_dataset_from_directory(tmp_path):
    d = _corpus_dir(tmp_path)
    ds = load_dataset(d)
    assert len(ds) == 6
    assert [(e.finger_id, e.impression_id) for e in ds.entries] == [
        (1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2),
    ]


def test_load_dataset_rejects_bad_names(tmp_path):
    d = tmp_path / "ds"
    d.mkdir()
    (d / "fingerprint.pgm").write_bytes(b"P5\n1 1\n255\n\x00")
    with pytest.raises(InvalidInputError):
        load_dataset(d)


def test_load_dataset_from_manifest(tmp_path):
    d = _corpus_dir(tmp_path, fingers=2)
    manifest = tmp_path / "manifest.csv"
    lines = ["finger_id,impression_id,path"]
    for e in load_dataset(d).entries:
        lines.append(f"{e.finger_id},{e.impression_id},{e.path}")
    manifest.write_text("\n".join(lines) + "\n")
    ds = load_dataset(manifest)
    assert len(ds) == 4


def test_manifest_missing_file_names_row(tmp_path):
    manifest = tmp_path / "m.csv"
    manifest.write_text("1,1,absent.txt\n")
    with pytest.raises(InvalidInputError, match="m.csv:1"):
        load_dataset(manifest)


def test_manifest_duplicate_entry(tmp_path):
    d = _corpus_dir(tmp_path, fingers=1, impressions=1)
    path = load_dataset(d).entries[0].path
    manifest = tmp_path / "m.csv"
    manifest.write_text(f"1,1,{path}\n1,1,{path}\n")
    with pytest.raises(InvalidInputError, match="duplicate"):
        load_dataset(manifest)


# manifest fields: short text, ids, and paths the OS rejects (a name
# too long, a NUL byte)
_MANIFEST_FIELD = st.one_of(st.text(max_size=12), st.integers(-2, 3).map(str),
                            st.sampled_from(["1_1.txt", "finger_id", "x" * 5000, "a/" * 3000, "x\x00y"]))
_MANIFEST = st.lists(st.lists(_MANIFEST_FIELD, max_size=4), max_size=5).map(
    lambda rows: "".join(",".join(r) + "\n" for r in rows).encode("utf-8", "surrogatepass"))


@settings(max_examples=150, deadline=None, database=None)
@given(st.one_of(st.binary(max_size=200), _MANIFEST))
@example(b"1,1," + b"x" * 5000 + b"\n")
def test_manifest_fuzz_loads_or_rejects(tmp_path_factory, data):
    d = tmp_path_factory.mktemp("manifest")
    (d / "1_1.txt").write_bytes(b"")
    manifest = d / "m.csv"
    manifest.write_bytes(data)
    try:
        ds = load_dataset(manifest)
    except InvalidInputError:
        return
    assert all(os.path.isfile(e.path) for e in ds.entries)


def test_load_fingerprint_sniffs_content(tmp_path):
    ms = synthetic_corpus(5, 1, 1, 10, 12)[0][2]
    mfile = tmp_path / "1_1.txt"
    write_minutiae(mfile, ms)
    got = load_fingerprint(mfile)
    # the text format carries 3 decimals, so coordinates come back rounded
    assert [(round(m.x, 3), round(m.y, 3)) for m in ms] == [(m.x, m.y) for m in got]

    img = np.full((48, 48), 220, np.uint8)
    img[23:26, 6:42] = 25
    pfile = tmp_path / "2_1.pgm"
    write_pgm(pfile, img)
    got = load_fingerprint(pfile, MatchConfig(border_margin=2.0))
    assert len(got) == 2

    with pytest.raises(InvalidInputError):
        load_fingerprint(tmp_path / "nope.pgm")


# ---------------------------------------------------------------------------
# pair protocols
# ---------------------------------------------------------------------------


def test_protocol_counts_fvc_database_shape():
    ds = _entries(10, 8)
    ap = pair_protocol(ds, "all_pairs")
    assert sum(1 for *_, l in ap if l == GENUINE) == 280
    assert sum(1 for *_, l in ap if l == IMPOSTOR) == 2880
    fv = pair_protocol(ds, "fvc")
    assert sum(1 for *_, l in fv if l == GENUINE) == 280
    assert sum(1 for *_, l in fv if l == IMPOSTOR) == 45


def test_protocol_single_finger():
    pairs = pair_protocol(_entries(1, 2), "all_pairs")
    assert [l for *_, l in pairs] == [GENUINE]


def test_protocol_rejects_tiny_or_unknown():
    with pytest.raises(InvalidInputError):
        pair_protocol(_entries(1, 1), "fvc")
    with pytest.raises(InvalidInputError):
        pair_protocol(_entries(2, 2), "leave_one_out")


def test_protocol_fvc_uses_lowest_impression_as_first():
    ds = Dataset(
        (
            DatasetEntry(1, 3, "a"),
            DatasetEntry(1, 5, "b"),
            DatasetEntry(2, 2, "c"),
            DatasetEntry(2, 7, "d"),
        )
    )
    imp = [(a.label, b.label) for a, b, l in pair_protocol(ds, "fvc") if l == IMPOSTOR]
    assert imp == [("1_3", "2_2")]


# ---------------------------------------------------------------------------
# confusion and rates
# ---------------------------------------------------------------------------


def _confusion(table, t):
    """(TP, FP, TN, FN) of the report at grid threshold t."""
    rep, i = rates_and_metrics(table), THRESHOLDS.index(t)
    return rep.tp[i], rep.fp[i], rep.tn[i], rep.fn[i]


def test_confusion_extremes():
    table = _table([0.9, 0.8], [0.2, 0.1])
    assert _confusion(table, 0.0) == (2, 2, 0, 0)
    assert _confusion(table, 0.95) == (0, 0, 2, 2)


def test_confusion_hand_built_six_pairs():
    table = _table([0.9, 0.5, 0.3], [0.7, 0.5, 0.1])
    # threshold 0.5, predicted match means >= t
    tp, fp, tn, fn = _confusion(table, 0.5)
    assert (tp, fp, tn, fn) == (2, 2, 1, 1)


def _random_table(rng, n_gen, n_imp):
    """Finals drawn from the extremes, grid thresholds, a few repeated
    values and uniform noise, so that ties and finals exactly on a
    threshold occur; about a quarter of the rows gated."""
    pool = [0.0, 1.0, 0.15, 0.5, 0.15, 0.5, 0.37, 0.37, 0.99]

    def final():
        return pool[rng.integers(len(pool))] if rng.random() < 0.6 else float(rng.random())

    def row(label, i):
        # the first row of each class stays scored, so without_gated()
        # keeps both classes
        gate = "low_sim" if i and rng.random() < 0.25 else ""
        return _fake_row(label, final(), gate)

    return ScoreTable(tuple([row(GENUINE, i) for i in range(n_gen)]
                            + [row(IMPOSTOR, i) for i in range(n_imp)]))


def test_confusion_counts_equal_a_brute_force_count():
    rng = np.random.default_rng(406)
    tables = [_random_table(rng, 1, 30)]
    tables += [_random_table(rng, int(rng.integers(1, 40)), int(rng.integers(1, 40)))
               for _ in range(20)]
    for table in tables + [t.without_gated() for t in tables]:
        labelled = [(r.breakdown.final, r.label == GENUINE) for r in table.rows]
        rep = rates_and_metrics(table)
        for i, t in enumerate(THRESHOLDS):
            want = [0, 0, 0, 0]
            for final, genuine in labelled:
                match = final >= t
                want[(0 if genuine else 1) if match else (3 if genuine else 2)] += 1
            assert (rep.tp[i], rep.fp[i], rep.tn[i], rep.fn[i]) == tuple(want), t


def test_rates_perfect_separation():
    table = _table([0.9] * 20, [0.1] * 20)
    rep = rates_and_metrics(table)
    assert rep.eer == 0.0
    assert all(0.0 <= v <= 1.0 for v in rep.fmr + rep.fnmr)


def test_rates_same_distribution_eer_half():
    rng = np.random.default_rng(404)
    table = _table(rng.uniform(0, 1, 5000).tolist(), rng.uniform(0, 1, 5000).tolist())
    rep = rates_and_metrics(table)
    assert abs(rep.eer - 0.5) < 0.02


def test_rates_monotone_curves():
    rng = np.random.default_rng(405)
    table = _table(
        np.clip(rng.normal(0.7, 0.2, 300), 0, 1).tolist(),
        np.clip(rng.normal(0.3, 0.2, 300), 0, 1).tolist(),
    )
    rep = rates_and_metrics(table)
    assert list(rep.fmr) == sorted(rep.fmr, reverse=True)
    assert list(rep.fnmr) == sorted(rep.fnmr)
    assert 0.0 < rep.eer < 0.5


def test_precision_thirty_one_percent():
    table = _table([0.9] * 31, [0.9] * 69)
    rep, i = rates_and_metrics(table), THRESHOLDS.index(0.5)
    assert (rep.tp[i], rep.fp[i]) == (31, 69)
    assert rep.pr[i] == 0.31


def test_zero_over_zero_metrics_are_zero():
    table = _table([0.4], [0.3])
    rep = rates_and_metrics(table)  # at threshold 1.0, the last, nothing is predicted
    assert (rep.pr[-1], rep.rc[-1], rep.f[-1]) == (0.0, 0.0, 0.0)


def test_rates_require_both_labels():
    with pytest.raises(InvalidInputError):
        rates_and_metrics(_table([0.5], []))
    with pytest.raises(InvalidInputError):
        rates_and_metrics(_table([], [0.5]))


def test_rates_match_the_scalar_reference():
    rng = np.random.default_rng(407)
    tables = [_random_table(rng, int(rng.integers(1, 40)), int(rng.integers(1, 40)))
              for _ in range(150)]
    tables += [
        _random_table(rng, 1, 30),  # a single genuine pair
        _table([0.42], [0.1, 0.42, 0.7]),
        _table([1.0] * 3, [1.0] * 5),  # FNMR stays below FMR: the curves never cross
        _table([0.5, 0.5, 0.2], [0.5, 0.2, 0.2]),  # ties on a grid threshold
    ]
    for table in tables + [t.without_gated() for t in tables]:
        rows, *figures = rates_reference([r.breakdown.final for r in table.rows],
                                         [r.label == GENUINE for r in table.rows], THRESHOLDS)
        rep = rates_and_metrics(table)
        assert list(curves_csv_lines(rep)) == ["threshold,fmr,fnmr,pr,rc,acc,f"] + [
            f"{t!r},{fmr!r},{fnmr!r},{pr!r},{rc!r},{acc!r},{f!r}"
            for t, _, _, _, _, fmr, fnmr, pr, rc, acc, f in rows
        ]
        got = (rep.eer, rep.eer_threshold, rep.eer_grid_threshold, rep.best_f_threshold)
        assert list(map(repr, got)) == list(map(repr, figures))
        assert list(zip(rep.tp, rep.fp, rep.tn, rep.fn)) == [r[1:5] for r in rows]


# ---------------------------------------------------------------------------
# end-to-end evaluation
# ---------------------------------------------------------------------------


def test_evaluate_writes_deterministic_reports(tmp_path):
    ds = load_dataset(_corpus_dir(tmp_path))
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    table, rep = evaluate(ds, mode="all_pairs")
    write_report_files(out1, table, rep)
    table2, rep2 = evaluate(ds, mode="all_pairs", threads=4)
    write_report_files(out2, table2, rep2)
    for name in ("scores.csv", "curves.csv", "summary.txt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    scores = (out1 / "scores.csv").read_text().splitlines()
    assert len(scores) == 1 + 3 + 12  # header, 3 genuine, 12 impostor
    assert scores[0].endswith(",label")
    curves = (out1 / "curves.csv").read_text().splitlines()
    assert curves[0] == "threshold,fmr,fnmr,pr,rc,acc,f"
    assert len(curves) == 102


def test_evaluate_exclude_gated_changes_rates_not_rows(tmp_path):
    ds = load_dataset(_corpus_dir(tmp_path, seed=78))
    t_all, rep_all = evaluate(ds, mode="all_pairs")
    t_excl, rep_excl = evaluate(ds, mode="all_pairs", exclude_gated=True)
    assert len(t_all) == len(t_excl)
    gated = sum(1 for r in t_all.rows if r.breakdown.gated)
    assert gated > 0
    # gated impostor pairs leave the denominator, so FMR can only grow
    assert all(a <= b + 1e-12 for a, b in zip(rep_all.fmr, rep_excl.fmr))


def test_exclude_gated_summary_counts_the_rated_pairs(tmp_path):
    ds = load_dataset(_corpus_dir(tmp_path, seed=78))
    table, report = evaluate(ds, mode="all_pairs", exclude_gated=True)
    labels = Counter(r.label for r in table.rows)
    gated = Counter(r.label for r in table.rows if r.breakdown.gated)
    assert gated[IMPOSTOR] > 0
    rated = labels - gated
    lines = list(summary_lines(table, report))
    assert lines[:2] == [
        f"pairs = {rated.total()} (genuine {rated[GENUINE]}, impostor {rated[IMPOSTOR]})",
        f"excluded_gated = {gated.total()} (genuine {gated[GENUINE]}, impostor {gated[IMPOSTOR]})",
    ]
    # without exclusion every pair is rated and no line names an exclusion
    table, report = evaluate(ds, mode="all_pairs")
    lines = list(summary_lines(table, report))
    assert lines[0] == (f"pairs = {labels.total()} (genuine {labels[GENUINE]}, "
                        f"impostor {labels[IMPOSTOR]})")
    assert lines[1].startswith("eer = ")


def test_synthetic_corpus_separates(tmp_path):
    ds = load_dataset(_corpus_dir(tmp_path, seed=79, fingers=4, impressions=3))
    table, rep = evaluate(ds, mode="all_pairs")
    gen = [r.breakdown.final for r in table.rows if r.label == GENUINE]
    imp = [r.breakdown.final for r in table.rows if r.label == IMPOSTOR]
    assert np.median(gen) > np.median(imp)
    assert rep.eer <= 0.25


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def test_sweep_singleton_matches_direct_run(tmp_path):
    ds = load_dataset(_corpus_dir(tmp_path))
    _, direct = evaluate(ds, mode="all_pairs")
    results = sweep(ds, [{}], mode="all_pairs")
    assert len(results) == 1
    assert results[0][2] == direct


def test_sweep_gating_reduces_fmr(tmp_path):
    ds = load_dataset(_corpus_dir(tmp_path, seed=80))
    results = sweep(ds, [{"sim": 0.0, "diff": math.inf}, {"sim": 0.15, "diff": 2.0}],
                    mode="all_pairs")
    open_rep = results[0][2]
    gated_rep = results[1][2]
    assert all(g <= o + 1e-12 for g, o in zip(gated_rep.fmr, open_rep.fmr))


def test_sweep_writes_curve_files(tmp_path):
    ds = load_dataset(_corpus_dir(tmp_path))
    out = tmp_path / "sweep"
    sweep(ds, [{"rm": 4.0}, {"rm": 6.0}], mode="all_pairs", out_dir=out)
    assert (out / "curves_000.csv").is_file()
    assert (out / "curves_001.csv").is_file()
    grid = (out / "grid.csv").read_text().splitlines()
    assert grid[0].startswith("index,rm,")
    assert len(grid) == 3


def _image_dataset_dir(tmp_path, seed=81, fingers=2, impressions=2, side=112):
    """Rendered ridge images: per finger a ridge angle and spiral minutiae,
    per impression a small shift and fresh noise."""
    d = tmp_path / "imgs"
    d.mkdir()
    rng = np.random.default_rng(seed)
    for f in range(1, fingers + 1):
        angle = rng.uniform(0.0, 90.0)
        spirals = [(cx, cy, (-1) ** k) for k, (cx, cy) in enumerate(rng.uniform(25.0, side - 25.0, size=(4, 2)))]
        for i in range(1, impressions + 1):
            shift = rng.uniform(-3.0, 3.0, size=2)
            img, _ = render_impression(rng, side, side, spirals, angle, 9.0, 10.0, shift)
            write_pgm(d / f"{f:03d}_{i}.pgm", img)
    return d


def test_sweep_over_images_equals_direct_runs(tmp_path):
    # the sweep detects on each image once and reruns only the cleanup,
    # orientation tracing included, for each merge radius
    ds = load_dataset(_image_dataset_dir(tmp_path))
    cfg = MatchConfig(border_margin=8.0)
    grid = [{"rm": rm} for rm in (2.0, 8.0, 24.0)]  # planted minutiae here are 7 to 52 px apart
    results = sweep(ds, grid, cfg, mode="all_pairs", out_dir=tmp_path / "sweep")
    assert len(results) == len(grid)
    for (overrides, table, report), g in zip(results, grid):
        assert overrides == g
        assert (table, report) == evaluate(ds, replace(cfg, **g), mode="all_pairs")
    assert len({r[1] for r in results}) > 1  # the radius changes the scores


def test_sweep_rejects_unknown_keys(tmp_path):
    ds = load_dataset(_corpus_dir(tmp_path))
    with pytest.raises(InvalidInputError):
        sweep(ds, [{"volume": 11}])
    with pytest.raises(InvalidInputError):
        sweep(ds, [])


# ---------------------------------------------------------------------------
# worker processes
# ---------------------------------------------------------------------------


def test_chunk_bounds_caps_the_process_count():
    # the count is min(threads, items, cpus); no process is started here
    assert chunk_bounds([1] * 10, 100000, 2) == [(0, 5), (5, 10)]
    assert chunk_bounds([1] * 3, 8, 64) == [(0, 1), (1, 2), (2, 3)]
    assert chunk_bounds([1] * 5, 1, 64) == [(0, 5)]
    assert chunk_bounds([1] * 5, 4, 1) == [(0, 5)]
    assert chunk_bounds([7], 4, 4) == [(0, 1)]
    assert chunk_bounds([], 4, 4) == [(0, 0)]


def test_chunk_bounds_balances_cost_and_covers_in_order():
    assert chunk_bounds([9, 1, 1, 1, 1, 1, 1, 1, 1, 1], 2, 2) == [(0, 1), (1, 10)]
    assert chunk_bounds([1, 1, 1, 1, 1, 1, 1, 1, 1, 9], 2, 2) == [(0, 9), (9, 10)]
    assert chunk_bounds([0, 0, 0, 1], 2, 2) == [(0, 3), (3, 4)]
    assert chunk_bounds([0, 0, 0, 0], 3, 3) == [(0, 4)]  # no work worth a process
    rng = np.random.default_rng(5)
    for _ in range(50):
        costs = rng.integers(0, 100, size=int(rng.integers(1, 40))).tolist()
        threads = int(rng.integers(1, 9))
        bounds = chunk_bounds(costs, threads, 6)
        assert 1 <= len(bounds) <= min(threads, len(costs), 6)
        assert bounds[0][0] == 0 and bounds[-1][1] == len(costs)
        assert all(lo < hi for lo, hi in bounds)
        assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))


def test_chunk_bounds_leaves_numpy_ma_unimported():
    # numpy imports numpy.ma on the first np.unique, some 11-13 ms that
    # would sit before every fork; a fresh process shows whether it did
    code = ("import sys; from onionprint import evaluation; "
            "evaluation.chunk_bounds([1, 2, 3, 4], 2, 2); print('numpy.ma' in sys.modules)")
    src = str(Path(evaluation.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def _equal(item):
    return 1


@pytest.fixture
def many_cpus(monkeypatch):
    """Each worker count below is the number of processes run, on any machine."""
    monkeypatch.setattr(evaluation, "usable_cpus", lambda: 64)


def test_worker_error_reaches_the_caller_first_in_input_order(many_cpus):
    def fail_late_odd(v):
        if v % 2 and v > 2:
            raise InvalidInputError(f"item {v}")
        return v

    # the calling process takes items 0-2 at two processes; items 3 and
    # 5 fail in different workers at three, and each in its own at six
    for threads in (1, 2, 3, 6):
        with pytest.raises(InvalidInputError, match=r"^item 3$"):
            evaluation._ordered_map(fail_late_odd, list(range(6)), threads, _equal)


class _Unreadable:
    def __reduce__(self):
        return (_refuse, ())


def _refuse():
    raise ValueError("cannot rebuild")


@pytest.mark.parametrize(
    "child_does, expected",
    [
        (lambda: os._exit(7), r"worker process exited with 7 without a readable result"),
        (lambda: os.kill(os.getpid(), 9), r"worker process was killed by signal 9"),
        (lambda: _Unreadable(), r"exited with 0 without a readable result \(ValueError\)"),
    ],
    ids=["exits", "killed", "unreadable"],
)
def test_dead_or_unreadable_worker_is_an_invariant_error(many_cpus, child_does, expected):
    parent = os.getpid()

    def fn(v):
        return v if os.getpid() == parent else child_does()

    with pytest.raises(InvariantError, match=expected):
        evaluation._ordered_map(fn, [0, 1, 2, 3], 2, _equal)


def test_worker_that_cannot_start_is_an_invariant_error(many_cpus, monkeypatch):
    real_fork, real_pipe = os.fork, os.pipe
    children, fds = [], []

    def pipe():
        fds.extend(real_pipe())
        return fds[-2], fds[-1]

    def fork():  # the first child starts, the second cannot
        if children:
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
        children.append(real_fork())
        return children[-1]

    monkeypatch.setattr(os, "pipe", pipe)
    monkeypatch.setattr(os, "fork", fork)
    with pytest.raises(InvariantError,
                       match=r"^cannot start a worker process: \[Errno 11\] Resource"):
        evaluation._ordered_map(lambda v: v, list(range(6)), 3, _equal)
    assert len(fds) == 4
    for fd in fds:  # both pipes are closed
        with pytest.raises(OSError):
            os.fstat(fd)
    with pytest.raises(ChildProcessError):  # and the child that started is reaped
        os.waitpid(children[0], os.WNOHANG)


@pytest.mark.parametrize("kind, forked", [("minutiae", ["pairs"]),
                                           ("images", ["entries", "pairs"])],
                         ids=["minutiae", "images"])
def test_only_images_are_loaded_in_worker_processes(tmp_path, monkeypatch, many_cpus,
                                                    kind, forked):
    # parsing a minutiae file takes less time than starting a process
    root = _corpus_dir(tmp_path) if kind == "minutiae" else _image_dataset_dir(tmp_path)
    real, seen = evaluation._forked_map, []

    def spy(fn, items, bounds):
        seen.append("entries" if isinstance(items[0], DatasetEntry) else "pairs")
        return real(fn, items, bounds)

    monkeypatch.setattr(evaluation, "_forked_map", spy)
    evaluate(load_dataset(root), MatchConfig(border_margin=8.0), mode="all_pairs", threads=2)
    assert seen == forked


@pytest.mark.parametrize("threads", [1, 2])
def test_sweep_detects_once_per_image_and_cleans_once_per_cleanup(tmp_path, monkeypatch, many_cpus,
                                                                   threads):
    # four images, rm 0 and 16, sim 0 and 0.15: detection runs once per
    # image and cleanup once per image and rm, where the image was read
    log = tmp_path / "calls.log"

    def logged(fn):
        def call(*args, **kwargs):
            with open(log, "a") as fh:  # the children's calls are seen too
                fh.write(f"{fn.__name__} {os.getpid()}\n")
            return fn(*args, **kwargs)
        return call

    for name in ("raw_minutiae", "clean_minutiae"):
        monkeypatch.setattr(evaluation, name, logged(getattr(evaluation, name)))
    ds = load_dataset(Path(__file__).parent / "data" / "ridges.csv")
    grid = [{"rm": rm, "sim": sim} for rm in (0.0, 16.0) for sim in (0.0, 0.15)]
    sweep(ds, grid, MatchConfig(border_margin=0.0), mode="all_pairs", threads=threads)
    calls = [tuple(line.split()) for line in log.read_text().splitlines()]
    assert Counter(name for name, _ in calls) == {"raw_minutiae": 4, "clean_minutiae": 8}
    by_process = Counter(calls)
    pids = {pid for _, pid in calls}
    assert len(pids) == threads
    assert all(by_process["clean_minutiae", pid] == 2 * by_process["raw_minutiae", pid] for pid in pids)


@pytest.mark.parametrize("threads", [1, 2])
def test_sweep_aligns_once_per_pair_and_r0(tmp_path, monkeypatch, many_cpus, threads):
    # sixteen configs over rm, r0, sim and diff: a .min set is the same under
    # every rm, so each pair is aligned once per r0 and its rings compared
    # once per r0, all in one scoring pass
    log = tmp_path / "calls.log"

    def logged(fn):
        def call(*args, **kwargs):
            with open(log, "a") as fh:  # the children's calls are seen too
                fh.write(f"{fn.__name__} {os.getpid()}\n")
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(kernels, "best_alignment", logged(kernels.best_alignment))
    monkeypatch.setattr(kernels, "min_turning_distance", logged(kernels.min_turning_distance))
    ds = load_dataset(Path(__file__).parent / "data" / "min4x3")
    grid = [{"rm": rm, "r0": r0, "sim": sim, "diff": diff} for rm in (3.0, 5.0)
            for r0 in (10.0, 15.0) for sim in (0.0, 0.15) for diff in (2.0, math.inf)]
    sweep(ds, grid, mode="fvc", threads=threads)
    calls = [tuple(line.split()) for line in log.read_text().splitlines()]
    pairs = len(pair_protocol(ds, "fvc"))
    # sim 0 with diff inf gates no pair, so every pair reaches the rings
    assert Counter(name for name, _ in calls) == {"best_alignment": 2 * pairs,
                                                  "min_turning_distance": 2 * pairs}
    # one pass: the caller and threads - 1 children
    assert len({pid for _, pid in calls}) == threads


def test_breakdowns_share_their_entries_labels():
    # an entry formats its label once, and every breakdown of its pairs
    # holds that one string, so kept results cost no id strings of their own
    ds = load_dataset(Path(__file__).parent / "data" / "min4x3")
    table, _ = evaluate(ds, mode="all_pairs")
    labels = {e.label: e.label for e in ds.entries}
    assert all(e.label is e.label for e in ds.entries)
    assert all(labels[r.breakdown.ida] is r.breakdown.ida and labels[r.breakdown.idb] is r.breakdown.idb
               for r in table.rows)


@pytest.mark.parametrize("threads", [1, 2])
def test_sweep_prepares_each_print_once_per_grid(tmp_path, monkeypatch, many_cpus, threads):
    # a sweep over r0 aligns every pair once per r0, and a process files
    # each print it aligns once per grid, however many pairs it is in
    log = tmp_path / "calls.log"
    real = kernels._prepare

    def logged(x, y, t, m, grid):
        with open(log, "a") as fh:  # the children's calls are seen too
            fh.write(f"{os.getpid()} {id(x)} {grid!r}\n")
        return real(x, y, t, m, grid)

    monkeypatch.setattr(kernels, "_prepare", logged)
    ds = load_dataset(Path(__file__).parent / "data" / "min4x3")
    sweep(ds, [{"r0": 10.0}, {"r0": 15.0}], mode="all_pairs", threads=threads)
    calls = log.read_text().splitlines()
    assert len(calls) == len(set(calls))
    assert len({line.split()[0] for line in calls}) == threads
    # every print spans 256 to 512 pixels: one scale class, one grid per r0
    assert len({line.split(maxsplit=2)[2] for line in calls}) == 2
    if threads == 1:
        assert len(calls) == 2 * len(ds)


@pytest.mark.parametrize("threads", [1, 2])
def test_sweep_over_minutiae_and_images_equals_direct_runs(tmp_path, many_cpus, threads):
    # a .min file gives every rm one set and an image one set per rm; either
    # way each config scores as in a run of its own
    data = Path(__file__).parent / "data"
    manifest = tmp_path / "mixed.csv"
    manifest.write_text(
        f"1,1,{data / 'min4x3' / '1_1.min'}\n1,2,{data / 'min4x3' / '1_2.min'}\n"
        f"2,1,{data / 'ridges_00deg_noise05.pgm'}\n2,2,{data / 'ridges_00deg_noise15.pgm'}\n")
    ds = load_dataset(manifest)
    cfg = MatchConfig(border_margin=0.0)
    grid = [{"rm": rm, "r0": r0} for rm in (0.0, 16.0) for r0 in (10.0, 15.0)]
    results = sweep(ds, grid, cfg, mode="all_pairs", threads=threads)
    for (overrides, table, report), g in zip(results, grid):
        assert overrides == g
        assert (table, report) == evaluate(ds, replace(cfg, **g), mode="all_pairs")
    assert len({r[1] for r in results}) == len(grid)  # each axis changes the scores


def _report_bytes(out):
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("kind", ["minutiae", "images"])
def test_outputs_byte_identical_at_every_worker_count(tmp_path, many_cpus, kind):
    if kind == "minutiae":
        ds = load_dataset(_corpus_dir(tmp_path))
        cfg = MatchConfig()
        # the last two share each pair's alignment and peeling
        grid = [{"r0": 10.0}, {"r0": 15.0, "sim": 0.1}, {"r0": 15.0, "sim": 0.0, "diff": math.inf}]
    else:
        ds = load_dataset(_image_dataset_dir(tmp_path, fingers=2, impressions=2))
        cfg = MatchConfig(border_margin=8.0)
        grid = [{"rm": 2.0}, {"rm": 6.0}]  # rm reruns clean-up on shared detections
    n_pairs = len(pair_protocol(ds, "all_pairs"))
    outputs = {}
    for threads in (1, 2, 3, n_pairs + 1):
        out = tmp_path / f"threads_{threads}"
        table, report = evaluate(ds, cfg, mode="all_pairs", threads=threads)
        write_report_files(out / "evaluate", table, report)
        sweep(ds, grid, cfg, mode="all_pairs", threads=threads, out_dir=out / "sweep")
        outputs[threads] = (_report_bytes(out / "evaluate"), _report_bytes(out / "sweep"))
    assert sorted(outputs[1][0]) == ["curves.csv", "scores.csv", "summary.txt"]
    assert sorted(outputs[1][1]) == [f"curves_{i:03d}.csv" for i in range(len(grid))] + ["grid.csv"]
    assert all(got == outputs[1] for got in outputs.values())
