"""End-to-end checks of the command-line front end."""

import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import onionprint
from onionprint import evaluation, scoring, synth
from onionprint.cli import main
from onionprint.imgproc import raw_minutiae
from onionprint.minutiae import (FILE_HEADER, Minutia, MinutiaKind, MinutiaSet, read_minutiae,
                                 write_minutiae)
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


def test_match_score_out_of_range_exits_3(tmp_path, capsys, monkeypatch):
    img_path = tmp_path / "a.pgm"
    write_pgm(img_path, _two_ridge_image())
    monkeypatch.setattr(scoring, "final_score", lambda score, avg: (1.0, 1.5))
    assert main(["match", str(img_path), str(img_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error:") and "final 1.5" in err
    assert len(err.splitlines()) == 1


def test_match_extra_ring_distance_exits_3(tmp_path, capsys, monkeypatch):
    # a shape stage that returns one distance more than there are ring
    # pairs breaks the breakdown's post-condition
    root = _corpus_dir(tmp_path)
    real = scoring.layer_distances
    monkeypatch.setattr(scoring, "layer_distances", lambda a, b: real(a, b) + [0.0])
    assert main(["match", str(root / "1_1.txt"), str(root / "1_2.txt")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error:") and "ring distances" in err
    assert len(err.splitlines()) == 1


def _far_apart_sets(tmp_path):
    # finite coordinates whose differences overflow
    paths = tmp_path / "a.min", tmp_path / "b.min"
    for path, rows in zip(paths, [[(-6e307, 0.0, 10.0), (6e307, 5.0, 20.0), (3.0, 4.0, 30.0)],
                                  [(6e307, 6e307, 15.0), (-6e307, -5e307, 25.0), (1.0, 1.0, 35.0)]]):
        write_minutiae(path, MinutiaSet.from_iterable(Minutia(*row, MinutiaKind.ENDING) for row in rows))
    return paths


def test_match_far_apart_coordinates_prints_no_warnings(tmp_path, capsys):
    a, b = _far_apart_sets(tmp_path)
    with np.errstate(all="ignore"):
        assert main(["match", str(a), str(b)]) == 0
    want = capsys.readouterr().out
    assert "k = 1\n" in want and "l = 0\n" in want
    done = subprocess.run([sys.executable, "-m", "onionprint.cli", "match", str(a), str(b)],
                          env=_env_with_src(), capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (0, want, "")


def test_match_ring_too_large_to_encode_exits_2(tmp_path):
    # all three minutiae pair up, and the ring they form overflows its
    # turning function
    a, _ = _far_apart_sets(tmp_path)
    done = subprocess.run([sys.executable, "-m", "onionprint.cli", "match", str(a), str(a)],
                          env=_env_with_src(), capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
    assert done.stderr.startswith("error:") and "too large" in done.stderr
    assert len(done.stderr.splitlines()) == 1


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


@pytest.mark.parametrize("same", [True, False], ids=["self-match", "two-prints"])
def test_match_text_json_and_csv_agree(tmp_path, capsys, same):
    root = _corpus_dir(tmp_path)
    a, b = str(root / "1_1.txt"), str(root / ("1_1.txt" if same else "1_2.txt"))
    assert main(["match", a, b]) == 0
    text = _stdout_dict(capsys)
    assert main(["match", a, b, "--json"]) == 0
    as_json = json.loads(capsys.readouterr().out)
    assert main(["match", a, b, "--csv"]) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert list(text) == list(as_json) == header.split(",") == list(scoring.COLUMNS)
    assert list(text.values()) == row.split(",")
    for key, cell in text.items():
        value = as_json[key]
        if value is None:
            assert cell == ""
        elif isinstance(value, float):
            assert float(cell) == value
        else:
            assert cell == str(value)
    assert (as_json["alpha"] == "inf") == same


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


def test_evaluate_exclude_gated_names_the_class_it_emptied(tmp_path, capsys):
    # every impostor pair of this corpus is gated, and no genuine pair is
    root = _corpus_dir(tmp_path, fingers=3, impressions=2)
    assert main(["evaluate", str(root), "--out", str(tmp_path / "rep"),
                 "--mode", "all-pairs", "--exclude-gated"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "3 genuine and 0 impostor pairs" in err


def test_evaluate_bad_entry_in_a_worker_exits_2_as_with_one(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(evaluation, "usable_cpus", lambda: 2)
    root = _corpus_dir(tmp_path, fingers=3, impressions=2)
    # the last of six entries and the only one named as an image, so the
    # only one worth a process: the forked worker loads it at --threads 2
    (root / "3_2.txt").unlink()
    (root / "3_2.pgm").write_text("not a minutiae file\n")
    errs = []
    for threads in ("1", "2"):
        assert main(["evaluate", str(root), "--out", str(tmp_path / "rep"),
                     "--threads", threads]) == 2
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1]
    assert errs[1].startswith("error:") and "3_2.pgm" in errs[1]
    assert len(errs[1].splitlines()) == 1


@pytest.mark.parametrize("edit, line", [
    (lambda rows: rows[1].replace(rows[1].split()[2], "400.0"), 3),  # angle outside [0, 360)
    (lambda rows: rows[1].replace(rows[1].split()[0], "inf"), 3),  # non-finite coordinate
    (lambda rows: rows[1] + "\n" + " ".join(rows[0].split()[:2] + ["90.000", "B"]), 4),  # repeated position
])
def test_evaluate_bad_minutia_value_names_file_and_line(tmp_path, capsys, edit, line):
    root = tmp_path / "ds"
    root.mkdir()
    for f, i, ms in synth.synthetic_corpus(11, fingers=5, impressions=2):
        write_minutiae(root / f"{f:03d}_{i}.min", ms)
    bad = root / "005_2.min"
    header, *rows = bad.read_text().splitlines()
    rows[1] = edit(rows)
    bad.write_text("\n".join([header, *rows]) + "\n")
    assert main(["evaluate", str(root), "--out", str(tmp_path / "rep")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"005_2.min:{line}: " in err
    assert len(err.splitlines()) == 1


def test_evaluate_fault_in_a_worker_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(evaluation, "usable_cpus", lambda: 2)
    parent = os.getpid()
    real = scoring.final_score
    monkeypatch.setattr(scoring, "final_score",
                        lambda score, avg: real(score, avg) if os.getpid() == parent
                        else (1.0, 1.5))
    root = _corpus_dir(tmp_path, fingers=3, impressions=2)
    assert main(["evaluate", str(root), "--out", str(tmp_path / "rep"),
                 "--mode", "all-pairs", "--threads", "2"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error:") and "final 1.5" in err
    assert len(err.splitlines()) == 1


def test_evaluate_worker_that_cannot_start_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(evaluation, "usable_cpus", lambda: 2)

    def fork():
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", fork)
    root = _corpus_dir(tmp_path, fingers=3, impressions=2)
    assert main(["evaluate", str(root), "--out", str(tmp_path / "rep"),
                 "--mode", "all-pairs", "--threads", "2"]) == 3
    assert capsys.readouterr().err == ("internal error: cannot start a worker process: "
                                       "[Errno 11] Resource temporarily unavailable\n")


@pytest.mark.parametrize("command", ["evaluate", "sweep"])
def test_threads_below_one_exits_2(tmp_path, capsys, command):
    root = _corpus_dir(tmp_path)
    assert main([command, str(root), "--out", str(tmp_path / "rep"), "--r0", "10",
                 "--threads", "0"]) == 2
    err = capsys.readouterr().err
    assert err == "error: --threads must be at least 1, got 0\n"


def test_import_loads_no_pool_module():
    code = ("import sys, onionprint; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('concurrent', 'multiprocessing')))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_env_with_src(), check=True, timeout=60)
    assert done.stdout.strip() == "[]"


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


def _assert_one_error_line(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_evaluate_non_utf8_config_exits_2(tmp_path, capsys):
    root = _corpus_dir(tmp_path)
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_bytes(b"\xff\xfe r0 = 3\n")
    assert main(["evaluate", str(root), "--config", str(cfg_path),
                 "--out", str(tmp_path / "rep")]) == 2
    _assert_one_error_line(capsys)


@pytest.mark.parametrize("line", ["binarize = fixed", "fixed_threshold = 100",
                                  "despeckle = false"])
def test_config_key_of_removed_option_exits_2(tmp_path, capsys, line):
    root = _corpus_dir(tmp_path)
    cfg_path = tmp_path / "old.cfg"
    cfg_path.write_text(line + "\n")
    assert main(["match", str(root / "1_1.txt"), str(root / "1_2.txt"),
                 "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert repr(line.split(" = ")[0]) in err


@pytest.mark.parametrize("row", [b"1,1,\xff.txt\n", b"1,1," + b"a" * 200_000 + b"\n"],
                         ids=["not-utf8", "field-over-csv-limit"])
def test_evaluate_unreadable_manifest_exits_2(tmp_path, capsys, row):
    manifest = tmp_path / "m.csv"
    manifest.write_bytes(b"finger_id,impression_id,path\n" + row)
    assert main(["evaluate", str(manifest), "--out", str(tmp_path / "rep")]) == 2
    _assert_one_error_line(capsys)


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


def _env_with_src(**extra):
    env = dict(os.environ, **extra)
    src = str(Path(onionprint.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def _run_cli_with_memory_limit(*args):
    env = _env_with_src(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
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
    # twice FVC2002 DB2's height and 1.25 times its width: about one
    # pixel in seven is a raw detection, some 59,000 in all
    img = np.random.default_rng(920).integers(0, 256, size=(592, 700)).astype(np.uint8)
    assert len(raw_minutiae(img)[0][0]) > 50_000
    path = tmp_path / "noise.pgm"
    write_pgm(path, img)
    done = _run_cli_with_memory_limit("extract", path, tmp_path / "noise.min")
    assert done.returncode == 0, done.stderr
    read_minutiae(tmp_path / "noise.min")
