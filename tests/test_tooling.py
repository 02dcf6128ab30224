"""The scripts beside the library still run against it."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_kernels_runs_and_agrees_with_references():
    # the script exits non-zero when a kernel differs from its reference
    done = subprocess.run([sys.executable, str(ROOT / "benchmarks" / "bench_kernels.py"), "--repeat", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "merge_close" in done.stdout


def test_benchmark_smoke_check_passes():
    # the benchmark imports and wraps public names of the library, so a
    # change to those names must not leave it broken
    done = subprocess.run([sys.executable, str(ROOT / "perfbench" / "smoke.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=900)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "smoke: ok" in done.stdout
