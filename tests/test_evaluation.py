import math
from dataclasses import replace

import numpy as np
import pytest

from onionprint.config import MatchConfig
from onionprint.errors import InvalidInputError
from onionprint.evaluation import (
    GENUINE,
    IMPOSTOR,
    Dataset,
    DatasetEntry,
    EvalReport,
    ScoreRow,
    ScoreTable,
    confusion_at,
    curves_csv_lines,
    evaluate,
    load_dataset,
    load_fingerprint,
    pair_protocol,
    rates_and_metrics,
    score_pairs,
    scores_csv_lines,
    sweep,
    write_report_files,
)
from onionprint.minutiae import write_minutiae
from onionprint.pgm import write_pgm
from onionprint.scoring import ScoreBreakdown
from onionprint.synth import synthetic_corpus


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


def test_confusion_extremes():
    table = _table([0.9, 0.8], [0.2, 0.1])
    assert confusion_at(table, 0.0) == (2, 2, 0, 0)
    assert confusion_at(table, 0.95) == (0, 0, 2, 2)


def test_confusion_hand_built_six_pairs():
    table = _table([0.9, 0.5, 0.3], [0.7, 0.5, 0.1])
    # threshold 0.5, predicted match means >= t
    tp, fp, tn, fn = confusion_at(table, 0.5)
    assert (tp, fp, tn, fn) == (2, 2, 1, 1)


def test_rates_perfect_separation():
    table = _table([0.9] * 20, [0.1] * 20)
    rep = rates_and_metrics(table)
    assert rep.eer == 0.0
    assert all(0.0 <= r.fmr <= 1.0 and 0.0 <= r.fnmr <= 1.0 for r in rep.rows)


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
    fmr = list(rep.fmr)
    fnmr = list(rep.fnmr)
    assert fmr == sorted(fmr, reverse=True)
    assert fnmr == sorted(fnmr)
    assert 0.0 < rep.eer < 0.5


def test_precision_thirty_one_percent():
    table = _table([0.9] * 31, [0.9] * 69)
    row = next(r for r in rates_and_metrics(table).rows if r.threshold == 0.5)
    assert (row.tp, row.fp) == (31, 69)
    assert row.pr == 0.31


def test_zero_over_zero_metrics_are_zero():
    table = _table([0.4], [0.3])
    row = rates_and_metrics(table).rows[-1]  # threshold 1.0, nothing predicted
    assert (row.pr, row.rc, row.f) == (0.0, 0.0, 0.0)


def test_rates_require_both_labels():
    with pytest.raises(InvalidInputError):
        rates_and_metrics(_table([0.5], []))
    with pytest.raises(InvalidInputError):
        rates_and_metrics(_table([], [0.5]))
    with pytest.raises(InvalidInputError):
        rates_and_metrics(_table([0.5], [0.4]), thresholds=(0.5, 0.1))


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
    yy, xx = np.mgrid[0:side, 0:side].astype(float)
    for f in range(1, fingers + 1):
        angle = math.radians(rng.uniform(0.0, 90.0))
        spirals = rng.uniform(25.0, side - 25.0, size=(4, 2))
        for i in range(1, impressions + 1):
            sx, sy = rng.uniform(-3.0, 3.0, size=2)
            u, v = xx - sx, yy - sy
            phase = (2.0 * math.pi / 9.0) * (u * math.cos(angle) + v * math.sin(angle))
            for k, (cx, cy) in enumerate(spirals):
                phase += (-1) ** k * np.arctan2(v - cy, u - cx)
            img = 128.0 + 100.0 * np.cos(phase) + rng.normal(0.0, 10.0, size=phase.shape)
            write_pgm(d / f"{f:03d}_{i}.pgm", np.clip(np.rint(img), 0, 255).astype(np.uint8))
    return d


def test_sweep_over_images_equals_direct_runs(tmp_path):
    # the cache keeps detections and skeleton per image and reruns only
    # the cleanup, orientation tracing included, for each merge radius
    ds = load_dataset(_image_dataset_dir(tmp_path))
    cfg = MatchConfig(border_margin=8.0)
    grid = [{"rm": rm} for rm in (2.0, 4.0, 6.0)]
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
