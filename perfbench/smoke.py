"""Smoke check of the benchmark itself, at tiny input sizes.

    python3 perfbench/smoke.py

Run from the root of a checkout. For every workload, untraced and
traced, it checks that the run succeeds with no failed operation, that
the result line carries exactly the metrics BENCHMARK.json lists with
their units, that the report names every end-to-end figure that applies
to the workload with a unit, and that in each traced request the self
times of its spans add up to the root span's duration. It also checks
that the benchmark refuses to run without the program's sources.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402

# figures each workload's report must name, each followed by a unit
REPORTED = {
    "verify-min": ("setup_s", "pairs_per_s", "pair_ms_p50", "pair_ms_tail", "genuine_ms_p50",
                   "impostor_ms_p50", "peak_rss_mb", "eer", "error_rate"),
    "extract-img": ("setup_s", "images_per_s", "image_ms_p50", "image_ms_tail", "peak_rss_mb",
                    "error_rate"),
    "screen-min-2w": ("setup_s", "pairs_per_s", "peak_rss_mb", "eer", "error_rate"),
}


def run(workload, trace, cwd="."):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def load_spans(path):
    spans = []
    with open(path) as fh:
        for line in fh:
            d = json.loads(line)
            spans.append(tracer.Span(*(d[f] for f in tracer.FIELDS)))
    return spans


def check_result(spec, workload, trace, proc, problems):
    where = f"{workload} trace={trace}"
    if proc.returncode != 0:
        problems.append(f"{where}: exit {proc.returncode}: {proc.stderr.strip()}")
        return
    lines = proc.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(res)}")
    if not res["correct"] or res["failed"] or res["attempted"] < 1:
        problems.append(f"{where}: correct={res['correct']} failed={res['failed']}")
    want = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in want}
    got = {name: m["unit"] for name, m in res["metrics"].items()}
    if got != units:
        problems.append(f"{where}: metrics/units differ from BENCHMARK.json: "
                        f"{sorted(set(got.items()) ^ set(units.items()))}")
    for name in REPORTED[workload]:
        if not any(line.startswith(f"{name} = ") and len(line.split()) >= 4 for line in lines):
            problems.append(f"{where}: report has no '{name} = <value> <unit>' line")
    if trace:
        spans = load_spans(Path(".perfbench") / f"{workload}-1-tiny" / "spans.jsonl")
        resolution = time.get_clock_info("perf_counter").resolution
        for root, total in tracer.subtree_self_sums(spans):
            if abs(root - total) > resolution + 1e-12 * len(spans):
                problems.append(f"{where}: self times sum to {total!r}, root lasted {root!r}")
                break


def main():
    spec = json.loads(Path("BENCHMARK.json").read_text())
    problems = []
    for workload in REPORTED:
        for trace in (0, 1):
            check_result(spec, workload, trace, run(workload, trace), problems)

    bare = Path(".perfbench") / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("verify-min", 0, cwd=bare)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("without src/ the benchmark must exit non-zero and print no result")
    shutil.rmtree(bare)

    for p in problems:
        print(f"FAIL {p}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
