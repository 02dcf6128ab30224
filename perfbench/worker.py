"""Runs one workload in a fresh interpreter; `run.py` starts it.

    python3 perfbench/worker.py setup --workload W --data DIR
    python3 perfbench/worker.py run --workload W --data DIR --seed N \
        --seconds S --trace 0|1 --spans PATH

`setup` imports onionprint, loads the workload's files and prints
`ready`; the caller times it from process start. `run` measures the
workload and prints one JSON object of raw samples and check results.
With `--trace 1` it first runs untraced for half the time, then installs
the tracer and repeats the same operations, so the two timings give the
tracing overhead, and it writes the spans to PATH.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import random
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import numpy as np

import onionprint
from onionprint import cli, evaluation, kernels
from onionprint.config import MatchConfig

import tracer

CFG = MatchConfig()
SCREEN_THREADS = 2


def _peak_rss_mb(who):
    return resource.getrusage(who).ru_maxrss / 1024.0


def load_sets(data):
    ds = evaluation.load_dataset(data)
    return ds, {e.path: evaluation.load_fingerprint(e.path, CFG, source=e.label)
                for e in ds.entries}


def load_images(data):
    ds = evaluation.load_dataset(data)
    for e in ds.entries:
        onionprint.read_pgm(e.path)
    return ds


def environment(root):
    src = Path(root) / "src" / "onionprint"
    lines = sum(len(p.read_text().splitlines()) for p in sorted(src.glob("*.py")))
    return {
        "kernel": kernels.best_alignment.__name__,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": lines,
    }


def timed_loop(ops, step, seconds=None, count=None):
    """Closed loop, one client: run ops in order, cycling, for `count` ops or
    until `seconds` have passed and every op has run at least once.

    Returns (per-op seconds, per-op outcome, wall seconds); an outcome is
    the step's return value, or the exception it raised.
    """
    lat, out = [], []
    t_start = time.perf_counter()
    i = 0
    while True:
        if count is not None and i >= count:
            break
        op = ops[i % len(ops)]
        t0 = time.perf_counter()
        try:
            res = step(op)
        except Exception as exc:  # counted as a failed operation
            res = exc
        t1 = time.perf_counter()
        lat.append(t1 - t0)
        out.append(res)
        i += 1
        if seconds is not None and t1 - t_start >= seconds and i >= len(ops):
            break
    return lat, out, time.perf_counter() - t_start


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def pair_ok(bd, sa, sb):
    return (0.0 <= bd.final <= 1.0 and bd.k <= min(len(sa), len(sb))
            and bd.m == len(sa) and bd.n == len(sb))


def minutiae_ok(ms, shape):
    h, w = shape
    margin = CFG.border_margin
    if any(not (margin <= m.x <= (w - 1) - margin and margin <= m.y <= (h - 1) - margin)
           for m in ms):
        return False
    pos = ms.positions()
    if len(pos) < 2:
        return True
    d2 = ((pos[:, None, :] - pos[None, :, :]) ** 2).sum(axis=2)
    np.fill_diagonal(d2, math.inf)
    return bool(d2.min() > CFG.rm * CFG.rm)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def verify_min(args, info, traced):
    ds, sets = load_sets(args.data)
    pairs = evaluation.pair_protocol(ds, evaluation.MODE_FVC)
    f, i = info["fingers"], info["impressions"]
    checks = {"protocol_pairs": len(pairs) == f * i * (i - 1) // 2 + f * (f - 1) // 2}
    random.Random(args.seed).shuffle(pairs)

    def step(pair):
        a, b, label = pair
        if traced is not None:
            traced.set_request(f"{a.label}~{b.label}")
        return onionprint.match_pair(sets[a.path], sets[b.path], CFG, ida=a.label, idb=b.label)

    def judge(pair, res):
        a, b, _ = pair
        return not isinstance(res, Exception) and pair_ok(res, sets[a.path], sets[b.path])

    return pairs, step, judge, checks, lambda: load_sets(args.data)


def pair_summary(pairs, out):
    """Label per op, plus EER and the median check over the first pass."""
    labels = [pairs[k % len(pairs)][2] for k in range(len(out))]
    first = [(labels[k], out[k]) for k in range(min(len(pairs), len(out)))
             if not isinstance(out[k], Exception)]
    gen = [r.final for lab, r in first if lab == evaluation.GENUINE]
    imp = [r.final for lab, r in first if lab == evaluation.IMPOSTOR]
    table = evaluation.ScoreTable(tuple(evaluation.ScoreRow(lab, r) for lab, r in first))
    eer = evaluation.rates_and_metrics(table).eer if gen and imp else math.nan
    return labels, eer, bool(gen and imp and median(gen) > median(imp))


def extract_img(args, info, traced):
    images = [Path(args.data) / im["file"] for im in info["images"]]
    random.Random(args.seed).shuffle(images)

    def step(path):
        if traced is not None:
            traced.set_request(path.name)
        img = onionprint.read_pgm(path)
        return onionprint.extract(img, CFG, source=path.stem), img.shape

    def judge(path, res):
        return not isinstance(res, Exception) and minutiae_ok(*res)

    return images, step, judge, {}, lambda: None


def measure_loop(args, info, setup):
    """verify-min and extract-img: closed loop, one client."""
    traced = tracer.Tracer() if args.trace else None
    ops, step, judge, checks, reload = setup(args, info, traced)
    # one untimed operation first, so that the timed loop does not pay
    # for first calls into numpy and the program
    _, w_out, _ = timed_loop(ops, step, count=1)
    checks["warm_up"] = judge(ops[0], w_out[0])
    seconds = args.seconds / 2.0 if args.trace else args.seconds
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    lat, out, wall = timed_loop(ops, step, seconds=seconds)
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    ok = [judge(ops[k % len(ops)], r) for k, r in enumerate(out)]
    result = {"lat_s": lat, "ok": ok, "wall_s": wall, "ops_per_pass": len(ops),
              "user_s": ru1.ru_utime - ru0.ru_utime, "sys_s": ru1.ru_stime - ru0.ru_stime,
              "names": [_op_name(ops[k % len(ops)]) for k in range(len(out))]}
    if args.workload == "verify-min":
        labels, eer, separated = pair_summary(ops, out)
        checks["genuine_above_impostor"] = separated
        result.update(labels=labels, eer=eer)
    else:
        result["final_minutiae"] = [None if isinstance(r, Exception) else len(r[0]) for r in out]
    if args.trace:
        traced.set_request(None)
        uninstall = tracer.install(traced)
        try:
            reload()
            t_lat, t_out, _ = timed_loop(ops, step, count=len(ops))
        finally:
            uninstall()
        # the overhead is taken against a later untraced pass, so that
        # both passes run in a process that is already warm
        traced.set_request(None)
        u_lat, u_out, _ = timed_loop(ops, step, count=len(ops))
        t_ok = [judge(ops[k % len(ops)], r) for k, r in enumerate(t_out + u_out)]
        cut = sorted(t_lat)[int(0.75 * (len(t_lat) - 1))]
        tail = {result["names"][k] for k in range(len(t_lat)) if t_lat[k] >= cut}
        result.update(traced_ok=t_ok, overhead=sum(t_lat) / sum(u_lat) - 1.0)
        result.update(_trace_figures(traced, args.spans, len(t_out), tail))
    result["checks"] = checks
    result["peak_rss_mb"] = _peak_rss_mb(resource.RUSAGE_SELF)
    return result


def _op_name(op):
    if isinstance(op, tuple):
        return f"{op[0].label}~{op[1].label}"
    return op.name


def _trace_figures(traced, spans_path, n_ops, tail=()):
    traced.dump(spans_path)
    spans = traced.spans
    sums = tracer.subtree_self_sums(spans)
    return {
        "layers": tracer.layer_metrics(spans, n_ops, tail),
        "spans": len(spans),
        "self_sum_max_err_s": max((abs(d - s) for d, s in sums), default=0.0),
    }


def screen_min_2w(args, info):
    """Batch job: `onionprint evaluate --mode all-pairs --threads 2`, repeated."""
    out_dir = Path(args.data).parent / "report"
    argv = ["evaluate", args.data, "--mode", "all-pairs",
            "--threads", str(SCREEN_THREADS), "--out", str(out_dir)]
    n = info["fingers"] * info["impressions"]
    expect = {"pairs": n * (n - 1) // 2,
              "genuine": info["fingers"] * info["impressions"] * (info["impressions"] - 1) // 2}
    batches = []
    if args.trace:
        # untraced, traced, untraced: the overhead is taken against the
        # second untraced batch, when both ran in a warm process
        spans_of = tracer.Tracer()
        for traced in (None, spans_of, None):
            uninstall = tracer.install(traced) if traced else (lambda: None)
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    t0 = time.perf_counter()
                    rc = cli.main(argv)
                    wall = time.perf_counter() - t0
            finally:
                uninstall()
            batches.append(_read_report(out_dir, rc, wall, expect))
        overhead = batches[1]["wall_s"] / batches[2]["wall_s"] - 1.0
        figures = _trace_figures(spans_of, args.spans, batches[1]["pairs"])
        result = {"batches": batches, "overhead": overhead, **figures}
    else:
        # a batch takes seconds, so one more starts only if it should end
        # nearer to the deadline than stopping now would
        t_start = time.perf_counter()
        while not batches or (time.perf_counter() - t_start + batches[-1]["wall_s"] / 2
                              < args.seconds):
            t0 = time.perf_counter()
            proc = subprocess.run([sys.executable, "-m", "onionprint.cli", *argv],
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
            wall = time.perf_counter() - t0
            if proc.returncode:
                print(proc.stderr, file=sys.stderr)
            batches.append(_read_report(out_dir, proc.returncode, wall, expect))
        result = {"batches": batches}
    result["checks"] = {"same_scores_sha256": len({b["sha256"] for b in batches}) == 1}
    result["peak_rss_mb"] = max(_peak_rss_mb(resource.RUSAGE_CHILDREN),
                                _peak_rss_mb(resource.RUSAGE_SELF) if args.trace else 0.0)
    return result


def _read_report(out_dir, rc, wall, expect):
    """One batch's figures and checks from the files `evaluate` wrote."""
    batch = {"rc": rc, "wall_s": wall, "pairs": 0, "bad_rows": 0, "sha256": None,
             "eer": math.nan, "counts_ok": False, "separated": False}
    if rc != 0:
        return batch
    scores = (out_dir / "scores.csv").read_bytes()
    batch["sha256"] = hashlib.sha256(scores).hexdigest()
    lines = scores.decode().splitlines()
    header = lines[0].split(",")
    col = {name: header.index(name) for name in ("k", "m", "n", "final", "label")}
    gen, imp = [], []
    for line in lines[1:]:
        rec = line.split(",")
        k, m, n = (int(rec[col[c]]) for c in ("k", "m", "n"))
        final = float(rec[col["final"]])
        if not (0.0 <= final <= 1.0 and k <= min(m, n)):
            batch["bad_rows"] += 1
        (gen if rec[col["label"]] == evaluation.GENUINE else imp).append(final)
    batch["pairs"] = len(gen) + len(imp)
    batch["counts_ok"] = batch["pairs"] == expect["pairs"] and len(gen) == expect["genuine"]
    batch["separated"] = bool(gen and imp and median(gen) > median(imp))
    for line in (out_dir / "summary.txt").read_text().splitlines():
        key, _, value = line.partition(" = ")
        if key == "eer":
            batch["eer"] = float(value)
    return batch


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--data", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans")
    args = parser.parse_args()

    if args.mode == "setup":
        if args.workload == "extract-img":
            load_images(args.data)
        else:
            load_sets(args.data)
        print("ready", flush=True)
        return
    info = json.loads((Path(args.data) / "workload.json").read_text())
    if args.workload == "verify-min":
        result = measure_loop(args, info, verify_min)
    elif args.workload == "extract-img":
        result = measure_loop(args, info, extract_img)
    else:
        result = screen_min_2w(args, info)
    result["env"] = environment(".")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
