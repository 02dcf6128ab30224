"""End-to-end checks of the command-line front end."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import onionprint
from onionprint import synth
from onionprint.cli import main
from onionprint.imgproc import raw_minutiae
from onionprint.minutiae import FILE_HEADER, read_minutiae, write_minutiae
from onionprint.pgm import write_pgm

# Address-space limit for the bounded-memory runs. Extracting the noise
# image below peaked at 155 MB of virtual memory (VmPeak; 84 MB
# resident) with one BLAS thread, Python 3.11 and numpy 2.4; the limit
# leaves over 3x that, while dense n x n merging (20 GiB) or allocating
# what a P2 header declares (37 GiB) fails under it.
MEMORY_LIMIT = 512 * 2**20

_LIMITED_CLI = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))
from onionprint.cli import main
sys.exit(main(sys.argv[1:]))
"""


def _two_ridge_image():
    # endings sit well inside the default border margin of 12
    img = np.full((64, 64), 255, dtype=np.uint8)
    img[20, 18:46] = 0
    img[40, 18:46] = 0
    return img


def _corpus_dir(tmp_path, seed=7, fingers=2, impressions=2):
    root = tmp_path / "ds"
    root.mkdir()
    for f, i, ms in synth.synthetic_corpus(seed, fingers=fingers,
                                           impressions=impressions):
        write_minutiae(root / f"{f}_{i}.txt", ms)
    return root


def _stdout_dict(capsys):
    out = {}
    for line in capsys.readouterr().out.splitlines():
        key, _, value = line.partition(" = ")
        out[key] = value
    return out


def test_extract_writes_file_and_prints_count(tmp_path, capsys):
    img_path = tmp_path / "a.pgm"
    out_path = tmp_path / "a.min"
    write_pgm(img_path, _two_ridge_image())
    assert main(["extract", str(img_path), str(out_path)]) == 0
    assert capsys.readouterr().out == "4 minutiae\n"
    assert out_path.exists()
    assert len(out_path.read_text().splitlines()) == 5


def test_extract_truncated_pgm_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"P5\n64 64\n255\n\x00\x01\x02")
    assert main(["extract", str(bad), str(tmp_path / "out.min")]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_extract_all_background_writes_header_only(tmp_path, capsys):
    img_path = tmp_path / "blank.pgm"
    out_path = tmp_path / "blank.min"
    write_pgm(img_path, np.full((40, 40), 255, dtype=np.uint8))
    assert main(["extract", str(img_path), str(out_path)]) == 0
    assert capsys.readouterr().out == "0 minutiae\n"
    assert out_path.read_text() == FILE_HEADER + "\n"


def test_match_same_file_twice_scores_one(tmp_path, capsys):
    img_path = tmp_path / "a.pgm"
    write_pgm(img_path, _two_ridge_image())
    assert main(["match", str(img_path), str(img_path)]) == 0
    got = _stdout_dict(capsys)
    assert got["final"] == "1.0"
    assert got["minutiae_score"] == "1.0"
    assert got["gate_reason"] == ""


def test_match_different_fingers_below_one(tmp_path, capsys):
    root = _corpus_dir(tmp_path)
    assert main(["match", str(root / "1_1.txt"), str(root / "2_1.txt")]) == 0
    got = _stdout_dict(capsys)
    assert float(got["final"]) < 1.0


def test_match_minutiae_files_equal_image_pipeline(tmp_path, capsys):
    # pre-extracted inputs must score exactly like the images they came from
    imgs = []
    for name, row in (("a", 20), ("b", 28)):
        img = np.full((64, 64), 255, dtype=np.uint8)
        img[row, 18:46] = 0
        path = tmp_path / f"{name}.pgm"
        write_pgm(path, img)
        imgs.append(path)
        assert main(["extract", str(path), str(tmp_path / f"{name}.min")]) == 0
    capsys.readouterr()

    assert main(["match", str(imgs[0]), str(imgs[1]), "--json"]) == 0
    from_images = json.loads(capsys.readouterr().out)
    assert main(["match", str(tmp_path / "a.min"), str(tmp_path / "b.min"),
                 "--json"]) == 0
    from_files = json.loads(capsys.readouterr().out)
    for key in ("k", "m", "n", "minutiae_score", "layersA", "layersB",
                "l", "average", "alpha", "final", "gate_reason"):
        assert from_images[key] == from_files[key]


def test_match_csv_output(tmp_path, capsys):
    img_path = tmp_path / "a.pgm"
    write_pgm(img_path, _two_ridge_image())
    assert main(["match", str(img_path), str(img_path), "--csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("idA,idB,k,m,n,")
    cells = lines[1].split(",")
    assert cells[0] == cells[1] == "a"
    assert cells[11] == "1.0"


def test_match_json_renders_infinite_alpha_as_string(tmp_path, capsys):
    img_path = tmp_path / "a.pgm"
    write_pgm(img_path, _two_ridge_image())
    assert main(["match", str(img_path), str(img_path), "--json"]) == 0
    got = json.loads(capsys.readouterr().out)
    assert got["alpha"] == "inf"
    assert got["final"] == 1.0


def test_match_unreadable_input_exits_2(tmp_path, capsys):
    assert main(["match", str(tmp_path / "no.pgm"), str(tmp_path / "no2.pgm")]) == 2
    assert "error:" in capsys.readouterr().err


def test_flag_overrides_config_file(tmp_path, capsys):
    root = _corpus_dir(tmp_path)
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text("r0 = 0.5  # jitter exceeds this almost everywhere\n")
    a, b = str(root / "1_1.txt"), str(root / "1_2.txt")

    assert main(["match", a, b, "--config", str(cfg_path), "--json"]) == 0
    tight = json.loads(capsys.readouterr().out)
    assert main(["match", a, b, "--config", str(cfg_path), "--r0", "15",
                 "--json"]) == 0
    overridden = json.loads(capsys.readouterr().out)
    assert main(["match", a, b, "--json"]) == 0
    stock = json.loads(capsys.readouterr().out)

    assert tight["k"] < overridden["k"]
    assert overridden == stock


def test_evaluate_writes_reports_and_prints_summary(tmp_path, capsys):
    root = _corpus_dir(tmp_path)
    out = tmp_path / "rep"
    assert main(["evaluate", str(root), "--out", str(out),
                 "--mode", "all-pairs"]) == 0
    printed = capsys.readouterr().out
    assert printed.startswith("pairs = 6 (genuine 2, impostor 4)")
    assert "eer = " in printed
    for name in ("scores.csv", "curves.csv", "summary.txt"):
        assert (out / name).exists()
    assert len((out / "scores.csv").read_text().splitlines()) == 7


def test_evaluate_rerun_byte_identical(tmp_path, capsys):
    root = _corpus_dir(tmp_path)
    outs = []
    for name in ("rep1", "rep2"):
        out = tmp_path / name
        assert main(["evaluate", str(root), "--out", str(out)]) == 0
        outs.append(out)
    capsys.readouterr()
    for name in ("scores.csv", "curves.csv", "summary.txt"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_evaluate_threads_do_not_change_output(tmp_path, capsys):
    root = _corpus_dir(tmp_path, seed=11, fingers=3, impressions=2)
    serial = tmp_path / "serial"
    pooled = tmp_path / "pooled"
    assert main(["evaluate", str(root), "--out", str(serial),
                 "--mode", "all-pairs"]) == 0
    assert main(["evaluate", str(root), "--out", str(pooled),
                 "--mode", "all-pairs", "--threads", "4"]) == 0
    capsys.readouterr()
    for name in ("scores.csv", "curves.csv", "summary.txt"):
        assert (serial / name).read_bytes() == (pooled / name).read_bytes()


def test_evaluate_manifest_missing_file_exits_2(tmp_path, capsys):
    root = _corpus_dir(tmp_path)
    manifest = tmp_path / "m.csv"
    manifest.write_text(
        "finger_id,impression_id,path\n"
        f"1,1,{root / '1_1.txt'}\n"
        "1,2,ds/absent.txt\n")
    assert main(["evaluate", str(manifest), "--out", str(tmp_path / "rep")]) == 2
    err = capsys.readouterr().err
    assert "m.csv:3" in err


def test_evaluate_empty_dataset_exits_2(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["evaluate", str(empty), "--out", str(tmp_path / "rep")]) == 2
    assert "error:" in capsys.readouterr().err


def test_sweep_writes_grid_files(tmp_path, capsys):
    root = _corpus_dir(tmp_path)
    out = tmp_path / "sw"
    assert main(["sweep", str(root), "--out", str(out), "--r0", "10,20",
                 "--sim", "0.1", "--mode", "all-pairs"]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 2
    assert printed[0].startswith("[000] r0=10.0 sim=0.1 ")
    grid_lines = (out / "grid.csv").read_text().splitlines()
    assert grid_lines[0] == "index,rm,r0,theta0,sim,diff,eer,best_f_threshold"
    assert len(grid_lines) == 3
    assert (out / "curves_000.csv").exists()
    assert (out / "curves_001.csv").exists()


def test_sweep_requires_an_axis(tmp_path, capsys):
    root = _corpus_dir(tmp_path)
    assert main(["sweep", str(root), "--out", str(tmp_path / "sw")]) == 2
    assert "at least one" in capsys.readouterr().err


def test_sweep_rejects_non_numeric_axis(tmp_path, capsys):
    root = _corpus_dir(tmp_path)
    assert main(["sweep", str(root), "--out", str(tmp_path / "sw"),
                 "--r0", "10,ten"]) == 2
    assert "not a number" in capsys.readouterr().err


def test_bad_flag_and_missing_subcommand_exit_2(capsys):
    assert main([]) == 2
    assert main(["match", "a", "b", "--bogus"]) == 2
    capsys.readouterr()


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "extract" in capsys.readouterr().out


def test_mutually_exclusive_output_formats(tmp_path, capsys):
    img_path = tmp_path / "a.pgm"
    write_pgm(img_path, _two_ridge_image())
    assert main(["match", str(img_path), str(img_path), "--json", "--csv"]) == 2
    capsys.readouterr()


def _run_cli_with_memory_limit(*args):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    src = str(Path(onionprint.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = _LIMITED_CLI.format(limit=MEMORY_LIMIT)
    return subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=300)


def test_extract_p2_dimension_bomb_exits_2_in_bounded_memory(tmp_path):
    bomb = tmp_path / "bomb.pgm"
    bomb.write_bytes(b"P2\n100000 100000\n255\n0 0 0\n")  # declares 37 GiB of samples
    done = _run_cli_with_memory_limit("extract", bomb, tmp_path / "bomb.min")
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("error:") and "truncated" in done.stderr
    assert len(done.stderr.splitlines()) == 1


def test_extract_uniform_noise_image_in_bounded_memory(tmp_path):
    # FVC2002 DB2 size; every other pixel is a raw detection
    img = np.random.default_rng(920).integers(0, 256, size=(296, 560)).astype(np.uint8)
    assert len(raw_minutiae(img)[0]) > 50_000
    path = tmp_path / "noise.pgm"
    write_pgm(path, img)
    done = _run_cli_with_memory_limit("extract", path, tmp_path / "noise.min")
    assert done.returncode == 0, done.stderr
    read_minutiae(tmp_path / "noise.min")
