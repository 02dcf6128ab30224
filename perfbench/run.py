"""onionprint benchmark: one seeded workload, end-to-end or traced.

    python3 perfbench/run.py --workload verify-min --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the program is imported from `src/`.
Inputs are generated from the seed under `.perfbench/`, set-up is timed
in several fresh interpreters, and the workload runs in one more. The
report lines name each figure with its unit and sample count; the last
line is one JSON object with `correct`, `attempted`, `failed` and
`metrics`. With `--trace 0` the metrics are the end-to-end ones of
BENCHMARK.json; with `--trace 1` they are its per-layer ones. See
perfbench/NOTES.md for the workloads, the predictions and the baseline.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
WORKLOADS = ("verify-min", "extract-img", "screen-min-2w")
# set-up probes before and after the workload process, so that their
# median spans the run rather than one moment of the machine's drift
SETUP_RUNS = 3
WORKER_TIMEOUT_S = 150.0


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def run_child(cmd, env, timeout):
    """Run cmd to completion, killing it on timeout; returns (rc, stdout)."""
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail(f"timed out after {timeout:.0f} s: {' '.join(cmd)}")
    return proc.returncode, out


def time_setup(cmd, env):
    """Seconds from process start until the child prints `ready`."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        proc.stdout.read()
        proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or line.strip() != "ready":
        fail(f"set-up probe failed: {' '.join(cmd)}")
    return ready


def percentile(values, p):
    """Linear-interpolated percentile, as numpy's default."""
    values = sorted(values)
    pos = (len(values) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def tail_percentile(n):
    """Highest whole percentile with at least 10 samples beyond it."""
    return math.floor(100.0 * (n - 10) / n) if n >= 20 else None


def timing_lines(name, values_ms):
    n = len(values_ms)
    p = tail_percentile(n)
    p50 = percentile(values_ms, 50) if n else math.nan
    tail = percentile(values_ms, p) if p else math.nan
    tail_desc = f"p{p}" if p else "none: fewer than 20 samples"
    return [
        f"{name}_p50 = {p50:.4f} ms (n={n})",
        f"{name}_tail = {tail:.4f} ms ({tail_desc}, n={n})",
    ]


def loop_report(workload, res):
    """Report lines, gated metrics, operations attempted and failed, of a closed loop."""
    lat_ms = [t * 1e3 for t in res["lat_s"]]
    n = len(lat_ms)
    failed = sum(not ok for ok in res["ok"])
    lines = []
    unit_name = "pair" if workload == "verify-min" else "image"
    # one pass at each operation's median latency over the run: operations
    # differ in cost by two orders of magnitude, so this weighs each the
    # same however many times the run, cut at the deadline, reached it;
    # and the median drops a slow stretch of the machine
    per_pass = res["ops_per_pass"]
    rate = per_pass / sum(median(res["lat_s"][k::per_pass]) for k in range(per_pass))
    lines.append(f"{unit_name}s_per_s = {rate:.4f} 1/s (n={n}, {n / per_pass:.2f} passes of "
                 f"{per_pass}, wall {res['wall_s']:.2f} s, cpu user {res['user_s']:.2f} s "
                 f"sys {res['sys_s']:.2f} s)")
    lines += timing_lines(f"{unit_name}_ms", lat_ms)
    if workload == "verify-min":
        for label in ("genuine", "impostor"):
            sel = [t for t, lab in zip(lat_ms, res["labels"]) if lab == label]
            lines.append(f"{label}_ms_p50 = {percentile(sel, 50):.4f} ms (n={len(sel)})"
                         if sel else f"{label}_ms_p50 = nan ms (n=0)")
        lines.append(f"eer = {res['eer']:.6f} 1 (first pass over the protocol)")
    else:
        finals = [c for c in res["final_minutiae"] if c is not None]
        if finals:
            lines.append(f"final minutiae per image: min {min(finals)}, max {max(finals)}")
    return lines, {"throughput_per_s": rate}, n, failed


def screen_report(res):
    batches = res["batches"]
    walls_ms = [b["wall_s"] * 1e3 for b in batches]
    pairs = sum(b["pairs"] for b in batches)
    wall = sum(b["wall_s"] for b in batches)
    failed = 0
    for b in batches:
        if b["rc"] != 0 or not b["counts_ok"]:
            failed += max(b["pairs"], 1)
        else:
            failed += b["bad_rows"] + (not b["separated"])
    rate = median([b["pairs"] / b["wall_s"] for b in batches])
    lines = [
        f"pairs_per_s = {rate:.4f} 1/s (median of {len(batches)} batches, n={pairs} pairs, "
        f"wall {wall:.2f} s)",
        f"batch_ms_p50 = {median(walls_ms):.4f} ms (n={len(batches)})",
        f"eer = {batches[0]['eer']:.6f} 1",
        f"scores.csv sha256 = {batches[0]['sha256']}",
    ]
    return lines, {"throughput_per_s": rate}, max(pairs, 1), failed


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-check sizes: tiny inputs, one set-up probe a side")
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "onionprint" / "__init__.py").is_file():
        fail("run from the root of an onionprint checkout (no src/onionprint here)")
    spec = json.loads((root / "BENCHMARK.json").read_text())
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    py = sys.executable
    tag = f"{args.workload}-{args.seed}{'-tiny' if args.tiny else ''}"
    work = root / ".perfbench" / tag
    shutil.rmtree(work, ignore_errors=True)
    data = work / "data"

    cmd = [py, str(HERE / "gen.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--out", str(data)] + (["--tiny"] if args.tiny else [])
    rc, _ = run_child(cmd, env, WORKER_TIMEOUT_S)
    if rc != 0:
        fail("input generation failed")
    gen_info = json.loads((data / "workload.json").read_text())

    worker = [py, str(HERE / "worker.py")]
    common = ["--workload", args.workload, "--data", str(data)]
    probe = worker + ["setup"] + common
    n_probes = 1 if args.tiny else SETUP_RUNS
    setups = [time_setup(probe, env) for _ in range(n_probes)]

    spans = work / "spans.jsonl"
    cmd = worker + ["run"] + common + ["--seed", str(args.seed), "--seconds", str(args.seconds),
                                       "--trace", str(args.trace), "--spans", str(spans)]
    rc, out = run_child(cmd, env, WORKER_TIMEOUT_S)
    if rc != 0 or not out.strip():
        fail(f"workload process exited with {rc}")
    res = json.loads(out.strip().splitlines()[-1])
    setups += [time_setup(probe, env) for _ in range(n_probes)]

    e = res["env"]
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print(f"env kernel={e['kernel']} python={e['python']} numpy={e['numpy']} "
          f"nproc={e['nproc']} src_lines={e['src_lines']}")
    if args.workload == "extract-img":
        print("images: " + ", ".join(f"{im['width']}x{im['height']}@{im['angle']:g}deg"
                                     f"~{im['noise']:g}"
                                     for im in gen_info["images"]))
    else:
        print(f"corpus: {gen_info['fingers']} fingers x {gen_info['impressions']} impressions, "
              f"finger sizes {gen_info['sizes']}")

    checks = dict(res["checks"])
    if args.workload == "screen-min-2w":
        lines, measured, attempted, failed = screen_report(res)
    else:
        lines, measured, attempted, failed = loop_report(args.workload, res)
        if args.trace:
            failed += sum(not ok for ok in res["traced_ok"])
            attempted += len(res["traced_ok"])
    failed += sum(not ok for ok in checks.values())
    failed = min(failed, attempted)
    measured["setup_s"] = median(setups)
    measured["peak_rss_mb"] = res["peak_rss_mb"]

    print(f"setup_s = {measured['setup_s']:.4f} s (median of n={len(setups)} fresh interpreters)")
    for line in lines:
        print(line)
    print(f"peak_rss_mb = {measured['peak_rss_mb']:.1f} MB (n=1 process)")
    print(f"error_rate = {failed / attempted:.6f} 1 ({failed} of {attempted} operations)")
    for name, ok in sorted(checks.items()):
        print(f"check {name}: {'ok' if ok else 'FAILED'}")

    if args.trace:
        layers = dict(res["layers"], **{"trace.overhead_frac": res["overhead"]})
        print(f"trace: {res.get('spans', 0)} spans in {spans.relative_to(root)}, "
              f"largest |root - sum of self times| = {res.get('self_sum_max_err_s', 0.0):.3g} s")
        for name in sorted(layers):
            print(f"layer {name} = {layers[name]:.6g}")
        values = layers
    else:
        values = measured
    # BENCHMARK.json names the metrics and their units; a missing figure is an error
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if args.trace else "end_to_end"]}

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
