"""Report bytes pinned against the files an earlier version wrote.

`tests/data/reports/<run>/` holds what each command of `RUNS` wrote,
its stdout as `stdout.txt`, as `python tests/test_reports.py DIR`
writes them. The inputs are committed files:
`min4x3/` holds the 12 minutiae files of
`synth.synthetic_corpus(1, fingers=4, impressions=3)` and `ridges.csv`
names the four rendered prints of `tests/data` as fingers 1-2,
impressions 1-2. A change that alters a report on purpose rewrites the
files and says so in CHANGES.md.
"""

import contextlib
import io
import sys
from pathlib import Path

from onionprint import evaluation
from onionprint.cli import main

DATA = Path(__file__).parent / "data"
PINNED = DATA / "reports"

# (run name, argv); every run that writes files gets an output directory
# as --out
MIN = DATA / "min4x3"
IMAGES = DATA / "ridges.csv"
BORDER0 = DATA / "border0.cfg"
RUNS = [
    ("evaluate_fvc", ["evaluate", MIN]),
    ("evaluate_all_pairs", ["evaluate", MIN, "--mode", "all-pairs"]),
    ("evaluate_exclude_gated", ["evaluate", MIN, "--mode", "all-pairs", "--exclude-gated",
                                "--sim", "0.1"]),
    ("sweep_min", ["sweep", MIN, "--r0", "10,15", "--sim", "0,0.15", "--diff", "2,inf"]),
    ("sweep_images", ["sweep", IMAGES, "--config", BORDER0, "--rm", "0,16",
                      "--sim", "0,0.15", "--mode", "all-pairs"]),
    ("match_min", ["match", MIN / "1_1.min", MIN / "1_2.min", "--json"]),
    ("match_images", ["match", DATA / "ridges_00deg_noise05.pgm", DATA / "ridges_00deg_noise15.pgm",
                      "--config", BORDER0, "--json"]),
]


def run(argv, out):
    """Run one command with `out` as its output directory: {file name: bytes}."""
    argv = [str(a) for a in argv] + (["--out", str(out)] if argv[0] != "match" else [])
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    assert code == 0, (argv, code)
    out.mkdir(parents=True, exist_ok=True)
    (out / "stdout.txt").write_text(stdout.getvalue())
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def run_all(out_root):
    """Run every command of RUNS: {run name: {file name: bytes}}."""
    return {name: run(argv, Path(out_root) / name) for name, argv in RUNS}


def _pinned(name):
    return {p.name: p.read_bytes() for p in sorted((PINNED / name).iterdir())}


def test_reports_match_the_committed_bytes(tmp_path):
    got = run_all(tmp_path)
    for name, _ in RUNS:
        expected = _pinned(name)
        assert sorted(got[name]) == sorted(expected), name
        for file, data in expected.items():
            assert got[name][file] == data, f"{name}/{file}"


def test_sweep_at_two_threads_matches_the_committed_bytes(tmp_path, monkeypatch):
    # the gate-only neighbours share each pair's scoring in worker processes
    monkeypatch.setattr(evaluation, "usable_cpus", lambda: 2)
    got = run(dict(RUNS)["sweep_min"] + ["--threads", "2"], tmp_path / "sweep_min")
    expected = _pinned("sweep_min")
    assert sorted(got) == sorted(expected)
    for file, data in expected.items():
        assert got[file] == data, file


if __name__ == "__main__":
    run_all(sys.argv[1])
