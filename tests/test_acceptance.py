"""The acceptance gate: eight go/no-go checks, one printed verdict each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
"""

import itertools
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from onionprint.config import MatchConfig
from onionprint.evaluation import (MODE_ALL_PAIRS, MODE_FVC, THRESHOLDS, Dataset,
                                   DatasetEntry, evaluate, load_dataset,
                                   pair_protocol, rates_and_metrics,
                                   score_pairs, write_report_files)
from onionprint.geometry import convex_layers
from onionprint.minutiae import MinutiaSet, write_minutiae
from onionprint.scoring import final_score, match_pair, minutiae_score
from onionprint.synth import synthetic_corpus
from onionprint.turning import ring_distances
from oracles import (Transform, apply_transform, dedup_points, grid_min_distance,
                     hull_vertex_indices, peel_layers_oracle,
                     random_convex_polygon, ring_set)


def _verdict(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def corpus():
    # 20 synthetic fingers, 4 impressions each, 30 to 60 minutiae per finger
    return synthetic_corpus(20260823, fingers=20, impressions=4,
                            n_min=30, n_max=60)


def _in_memory_dataset(corpus):
    entries = []
    sets = {}
    for finger, impression, ms in corpus:
        entry = DatasetEntry(finger, impression, f"mem:{finger}_{impression}")
        entries.append(entry)
        sets[entry.path] = ms
    return Dataset(tuple(entries)), sets


def test_criterion_1_geometry_matches_bruteforce():
    rng = np.random.default_rng(20260823)
    cases = [rng.uniform(0.0, 512.0, size=(int(rng.integers(1, 61)), 2))
             for _ in range(500)]

    start = time.perf_counter()
    results = [convex_layers(pts) for pts in cases]
    elapsed = time.perf_counter() - start

    # continuous uniform coordinates are in general position, so the
    # strict-containment oracle applies
    mismatches = 0
    for pts, lay in zip(cases, results):
        hull = lay[0]
        distinct = dedup_points(pts)
        want_hull = ring_set(distinct[hull_vertex_indices(distinct, strict_only=True)])
        want_layers = peel_layers_oracle(pts, strict_only=True)
        hull_ok = ring_set(hull) == want_hull
        layers_ok = len(lay) == len(want_layers) and all(
            ring_set(ring) == want for ring, want in zip(lay, want_layers))
        if not (hull_ok and layers_ok):
            mismatches += 1
    ok = mismatches == 0 and elapsed < 10.0
    _verdict(1, ok, f"500 random sets, {mismatches} oracle mismatches, "
                    f"hull+layers computed in {elapsed:.2f} s (< 10 s)")


def test_criterion_2_turning_distance_properties():
    rng = np.random.default_rng(20260824)
    polys = [random_convex_polygon(rng, int(rng.integers(3, 31)))
             for _ in range(200)]
    # the shape stage's own call: one batch of peer ring pairs
    worst_self = max(ring_distances(polys, polys))
    moves = []
    for poly in polys:
        ang = rng.uniform(0.0, 2.0 * math.pi)
        scale = rng.uniform(0.3, 3.0)
        cosv, sinv = math.cos(ang), math.sin(ang)
        moved = np.empty_like(poly)
        moved[:, 0] = scale * (cosv * poly[:, 0] - sinv * poly[:, 1]) + rng.uniform(-100, 100)
        moved[:, 1] = scale * (sinv * poly[:, 0] + cosv * poly[:, 1]) + rng.uniform(-100, 100)
        moves.append(np.roll(moved, int(rng.integers(0, len(moved))), axis=0))
    worst_sim = max(ring_distances(polys, moves))
    fg = ring_distances(polys[:-1], polys[1:])
    gf = ring_distances(polys[1:], polys[:-1])
    worst_sym = max(abs(d - e) for d, e in zip(fg, gf))
    fh = ring_distances(polys[:-2], polys[2:])
    worst_tri = max(0.0, *(d - e - g for d, e, g in zip(fh, fg, fg[1:])))

    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    rect = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [0.0, 1.0]])
    got = ring_distances([square], [rect])[0]
    want = grid_min_distance(square, rect, grid=10_000)
    grid_err = abs(got - want)

    ok = (worst_self <= 1e-9 and worst_sim <= 1e-9 and worst_sym <= 1e-9
          and worst_tri <= 1e-9 and grid_err <= 1e-4)
    _verdict(2, ok, f"200 polygons: self {worst_self:.1e}, similarity "
                    f"{worst_sim:.1e}, symmetry {worst_sym:.1e}, triangle "
                    f"{worst_tri:.1e} (all <= 1e-9); square-vs-rectangle off "
                    f"grid oracle by {grid_err:.1e} (<= 1e-4)")


def test_criterion_3_self_match_identity(corpus):
    rng = np.random.default_rng(424242)
    bad_self = 0
    worst_rigid = 0.0
    for _, _, ms in corpus:
        bd = match_pair(ms, ms)
        if not (bd.minutiae_score == 1.0 and bd.final == 1.0):
            bad_self += 1
        tr = Transform(dtheta=float(rng.uniform(0.0, 360.0)),
                       dx=float(rng.uniform(-40.0, 40.0)),
                       dy=float(rng.uniform(-40.0, 40.0)))
        moved = MinutiaSet.from_iterable(apply_transform(tr, m) for m in ms)
        worst_rigid = max(worst_rigid, abs(match_pair(ms, moved).final - 1.0))
    ok = bad_self == 0 and worst_rigid <= 1e-9
    _verdict(3, ok, f"{len(corpus)} impressions: {bad_self} imperfect "
                    f"self-matches, rigid-motion worst |final - 1| = "
                    f"{worst_rigid:.1e} (<= 1e-9)")


def test_criterion_4_score_chain_arithmetic():
    ms_ok = minutiae_score(5, 10, 10) == 0.5
    alpha, final = final_score(0.5, 0.5)
    unit_ok = alpha == 1.0 and final == 0.5
    _, table_final = final_score(0.44, 26.78)
    table_err = abs(table_final - 0.01133)
    ok = ms_ok and unit_ok and table_err <= 1e-5
    _verdict(4, ok, f"(5,10,10) -> 0.5; alpha 1 -> 0.5; (0.44, 26.78) -> "
                    f"{table_final:.6f}, off 0.01133 by {table_err:.1e} (<= 1e-5)")


def test_criterion_5_synthetic_separation(corpus):
    ds, sets = _in_memory_dataset(corpus)
    start = time.perf_counter()
    table = score_pairs(pair_protocol(ds, MODE_FVC), MatchConfig(), threads=1, sets=sets)
    report = rates_and_metrics(table)
    elapsed = time.perf_counter() - start
    finals = table.finals()
    genuine = table.genuine_mask()
    med_gen = float(np.median(finals[genuine]))
    med_imp = float(np.median(finals[~genuine]))
    ok = med_gen > med_imp and report.eer <= 0.10 and elapsed < 120.0
    _verdict(5, ok, f"median genuine {med_gen:.3f} > median impostor "
                    f"{med_imp:.3f}, EER {report.eer:.4f} (<= 0.10), "
                    f"{elapsed:.1f} s single-threaded (< 120 s)")


def test_criterion_6_fvc_db2b_error_rates():
    candidates = [os.environ.get("ONIONPRINT_DB2B"), "data/DB2_B", "DB2_B"]
    root = next((Path(c) for c in candidates if c and Path(c).is_dir()), None)
    if root is None:
        print("criterion 6: SKIP - FVC2002 DB2_B not present locally, "
              "criterion 5 substitutes")
        pytest.skip("FVC2002 DB2_B not available")
    ds = load_dataset(root)
    table, report = evaluate(ds, cfg=MatchConfig(), mode=MODE_FVC)
    best_acc = report.acc[THRESHOLDS.index(report.best_f_threshold)]
    ok = 0.15 <= report.eer <= 0.35 and 0.75 <= best_acc <= 0.95
    _verdict(6, ok, f"EER {report.eer:.3f} (target [0.15, 0.35]), accuracy "
                    f"{best_acc:.3f} at best-F threshold (target [0.75, 0.95])")


def test_criterion_7_gating_behavior():
    sets = [ms for _, _, ms in synthetic_corpus(99, fingers=8, impressions=2)]
    gated_cfg = MatchConfig()  # sim 0.15, diff 2
    open_cfg = MatchConfig(sim=0.0, diff=math.inf)
    pairs = gated_n = nonzero_gated = decreased = 0
    for a, b in itertools.combinations(sets, 2):
        g = match_pair(a, b, gated_cfg)
        o = match_pair(a, b, open_cfg)
        pairs += 1
        if (g.minutiae_score < 0.15
                or abs(g.layers_input - g.layers_template) > 2):
            gated_n += 1
            if g.final != 0.0:
                nonzero_gated += 1
        if o.final < g.final:
            decreased += 1
    ok = gated_n > 0 and nonzero_gated == 0 and decreased == 0
    _verdict(7, ok, f"{pairs} pairs, {gated_n} met a gate condition and all "
                    f"scored 0; open gates decreased {decreased} scores")


def test_criterion_8_determinism(tmp_path):
    root = tmp_path / "corpus"
    root.mkdir()
    for finger, impression, ms in synthetic_corpus(555, fingers=6, impressions=3):
        write_minutiae(root / f"{finger}_{impression}.txt", ms)
    ds = load_dataset(root)
    outs = []
    for threads in (1, 4):
        table, report = evaluate(ds, cfg=MatchConfig(), mode=MODE_FVC,
                                 threads=threads)
        out = tmp_path / f"threads_{threads}"
        write_report_files(out, table, report)
        outs.append(out)
    same = {name: (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
            for name in ("scores.csv", "curves.csv", "summary.txt")}
    ok = all(same.values())
    _verdict(8, ok, "threads 1 vs 4 byte-identical: "
             + ", ".join(f"{k} {'yes' if v else 'NO'}" for k, v in same.items()))
