"""PGM image and minutiae text round trips."""

import os
import pickle
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import onionprint
from onionprint.errors import InvalidInputError
from onionprint.evaluation import load_fingerprint
from onionprint.minutiae import (
    FILE_HEADER,
    Minutia,
    MinutiaKind,
    MinutiaSet,
    format_minutiae,
    parse_minutiae,
    write_minutiae,
)
from onionprint.pgm import looks_like_pgm, parse_pgm, read_pgm, write_pgm


def _img(seed=1, shape=(11, 7)):
    return np.random.default_rng(seed).integers(0, 256, size=shape).astype(np.uint8)


def test_pgm_binary_round_trip(tmp_path):
    img = _img()
    p = tmp_path / "a.pgm"
    write_pgm(p, img)
    assert np.array_equal(read_pgm(p), img)


def test_pgm_ascii_round_trip(tmp_path):
    img = _img(2)
    p = tmp_path / "a.pgm"
    rows = "\n".join(" ".join(str(v) for v in row) for row in img)
    p.write_text(f"P2\n{img.shape[1]} {img.shape[0]}\n255\n{rows}\n")
    assert np.array_equal(read_pgm(p), img)


def test_pgm_comments_anywhere_in_header():
    data = b"P2 # magic\n# a comment line\n3 # width\n2 255\n0 1 2\n3 4 5\n"
    img = parse_pgm(data, "inline")
    assert img.tolist() == [[0, 1, 2], [3, 4, 5]]


def test_pgm_p5_truncated_raises():
    good = b"P5\n4 4\n255\n" + bytes(16)
    assert parse_pgm(good, "x").shape == (4, 4)
    with pytest.raises(InvalidInputError):
        parse_pgm(good[:-3], "x")


def test_pgm_p2_header_larger_than_its_bytes_raises():
    # the shortest P2 body is a separator and a digit per sample
    assert parse_pgm(b"P2\n3 1\n255\n0 1 2", "x").tolist() == [[0, 1, 2]]
    with pytest.raises(InvalidInputError, match="truncated"):
        parse_pgm(b"P2\n3 1\n255\n0 12", "x")
    # checked before anything of the declared size is allocated
    with pytest.raises(InvalidInputError, match="truncated"):
        parse_pgm(b"P2\n100000 100000\n255\n0 0 0\n", "x")


def test_pgm_rejects_bad_magic_and_maxval():
    with pytest.raises(InvalidInputError):
        parse_pgm(b"P6\n2 2\n255\n" + bytes(12), "x")
    with pytest.raises(InvalidInputError):
        parse_pgm(b"P2\n1 1\n65535\n300\n", "x")


def test_pgm_p2_sample_out_of_range():
    with pytest.raises(InvalidInputError):
        parse_pgm(b"P2\n2 1\n100\n5 101\n", "x")


def test_pgm_p2_sample_beyond_any_integer_type_raises():
    for sample in (b"99999999999", b"-99999999999", b"9" * 30):
        with pytest.raises(InvalidInputError, match="outside"):
            parse_pgm(b"P2\n1 1\n255\n" + sample + b"\n", "x")


def test_pgm_tokens_must_be_ascii_decimal_digits():
    # int() reads all of these as numbers
    for data in (b"P5\n1_0 1\n255\n" + bytes(10), b"P5\n+3 1\n255\n" + bytes(3),
                 b"P2\n2 1\n255\n+1 0_1\n", b"P2\n1 1\n255\n-0\n"):
        with pytest.raises(InvalidInputError):
            parse_pgm(data, "x")


# what a token of a PGM file can be instead of the right number
_PGM_TOKEN = st.one_of(st.integers(-2, 300).map(lambda v: str(v).encode()),
                       st.integers(2**31, 2**70).map(lambda v: str(v).encode()),
                       st.integers(-2**70, -2**31).map(lambda v: str(v).encode()),
                       st.sampled_from([b"P2", b"P5", b"P6", b"+3", b"0x10", b"1_0", b"3.0", b"", b"#"]),
                       st.binary(max_size=3))
_PGM_SEP = st.sampled_from([b" ", b"\n", b"\t", b"\r\n", b" # note\n"])


@st.composite
def _pgm_like(draw):
    """A small valid P2 or P5 file, then a few tokens replaced, and maybe cut short."""
    w, h = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    maxval = draw(st.integers(1, 255))
    samples = draw(st.lists(st.integers(0, maxval), min_size=w * h, max_size=w * h))
    p2 = draw(st.booleans())
    tokens = [b"P2" if p2 else b"P5", *(str(v).encode() for v in (w, h, maxval))]
    if p2:
        tokens += [str(v).encode() for v in samples]
    for _ in range(draw(st.integers(0, 3))):
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(_PGM_TOKEN)
    data = tokens[0]
    for token in tokens[1:]:
        data += draw(_PGM_SEP) + token
    data += draw(_PGM_SEP) if p2 else b"\n" + bytes(samples)
    return data[:draw(st.integers(0, len(data)))] if draw(st.booleans()) else data


@settings(max_examples=300, deadline=None, database=None)
@given(st.one_of(_pgm_like(), st.binary(max_size=100)))
def test_parse_pgm_fuzz_parses_or_rejects(data):
    try:
        img = parse_pgm(data, "fuzz")
    except InvalidInputError:
        return
    assert img.ndim == 2 and img.size > 0 and img.dtype == np.uint8


# headers that declare far more pixels than their bytes hold
_PGM_BOMBS = [
    b"P5\n100000 100000\n255\n" + bytes(64),
    b"P2\n100000 100000\n255\n0 0 0\n",
    b"P5 4294967296 4294967296 255 " + bytes(64),
    b"P2 4294967296 4294967296 255 0 0",
    b"P5\n" + b"9" * 4000 + b" 1\n255\n" + bytes(8),
    b"P2\n1 " + b"9" * 30 + b"\n1\n0\n",
]

_PARSE_BOMBS = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))
from onionprint.errors import InvalidInputError
from onionprint.pgm import parse_pgm
for data in {bombs!r}:
    try:
        parse_pgm(data, "bomb")
        print("parsed")
    except InvalidInputError:
        print("rejected")
"""


def test_parse_pgm_dimension_bombs_rejected_in_bounded_memory():
    # 256 MiB of address space: Python and numpy need some 100 MiB, and
    # any of these headers would need gigabytes if it were believed
    src = str(Path(onionprint.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    code = _PARSE_BOMBS.format(limit=256 * 2**20, bombs=_PGM_BOMBS)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["rejected"] * len(_PGM_BOMBS)


def test_pgm_missing_file(tmp_path):
    with pytest.raises(InvalidInputError):
        read_pgm(tmp_path / "absent.pgm")


def test_looks_like_pgm():
    assert looks_like_pgm(b"P5\n1 1\n255\n\x00")
    assert looks_like_pgm(b"P2\n1 1\n255\n0")
    assert not looks_like_pgm(b"# onionprint-minutiae v1\n")


def test_minutiae_round_trip():
    ms = MinutiaSet.from_iterable(
        [
            Minutia(10.5, 3.25, 359.125, MinutiaKind.BIFURCATION),
            Minutia(1.0, 2.0, 0.0, MinutiaKind.ENDING),
        ]
    )
    text = format_minutiae(ms)
    assert text.splitlines()[0] == FILE_HEADER
    again = parse_minutiae(text, "t")
    assert again == ms


def test_minutiae_write_read_angle_just_below_360(tmp_path):
    # rounds to 360.000 at three decimals, which must wrap to 0
    ms = MinutiaSet.from_iterable([Minutia(4.0, 5.0, 359.9996, MinutiaKind.ENDING)])
    p = tmp_path / "m.txt"
    write_minutiae(p, ms)
    assert p.read_text().splitlines()[1] == "4.000 5.000 0.000 E"
    assert [m.theta for m in load_fingerprint(p)] == [0.0]


def test_minutiae_sorted_by_y_x_kind():
    ms = MinutiaSet.from_iterable(
        [
            Minutia(5.0, 9.0, 0.0, MinutiaKind.ENDING),
            Minutia(5.0, 2.0, 0.0, MinutiaKind.ENDING),
            Minutia(1.0, 2.0, 0.0, MinutiaKind.BIFURCATION),
        ]
    )
    assert [(m.y, m.x) for m in ms] == [(2.0, 1.0), (2.0, 5.0), (9.0, 5.0)]
    lines = format_minutiae(ms).splitlines()[1:]
    assert lines == ["1.000 2.000 0.000 B", "5.000 2.000 0.000 E", "5.000 9.000 0.000 E"]


def test_minutiae_three_decimal_rendering():
    ms = MinutiaSet.from_iterable([Minutia(1.23456, 7.0, 12.3456, MinutiaKind.ENDING)])
    assert format_minutiae(ms).splitlines()[1] == "1.235 7.000 12.346 E"


def test_minutiae_duplicate_position_rejected():
    with pytest.raises(InvalidInputError):
        MinutiaSet.from_iterable(
            [
                Minutia(1.0, 2.0, 0.0, MinutiaKind.ENDING),
                Minutia(1.0, 2.0, 90.0, MinutiaKind.BIFURCATION),
            ]
        )


def test_minutiae_set_order_matches_sorted_records():
    # coarse values, so y, x and kind ties are common; -0.0 equals 0.0
    rng = np.random.default_rng(41)
    for _ in range(50):
        recs = [Minutia(float(rng.choice([-0.0, 0.0, 1.0, 2.5, 3.0])), float(rng.integers(0, 4)),
                        float(rng.integers(0, 360)), MinutiaKind.BIFURCATION if rng.random() < 0.5 else MinutiaKind.ENDING)
                for _ in range(int(rng.integers(0, 6)))]
        want = sorted(recs, key=lambda m: (m.y, m.x, m.kind.value))
        if len({(m.x, m.y) for m in recs}) < len(recs):
            with pytest.raises(InvalidInputError, match="identical position"):
                MinutiaSet.from_iterable(recs)
            continue
        ms = MinutiaSet.from_iterable(recs, source="s")
        assert list(ms) == want
        assert [ms[i] for i in range(len(ms))] == want
        assert ms == MinutiaSet.from_iterable(reversed(recs), source="other")


def test_minutiae_set_arrays_are_read_only_and_checked():
    ms = MinutiaSet.from_arrays([2.0, 1.0], [5.0, 5.0], [10.0, 20.0], [False, True], source="s")
    assert ms.x.tolist() == [1.0, 2.0] and ms.bif.tolist() == [True, False]
    assert ms.positions().tolist() == [[1.0, 5.0], [2.0, 5.0]]
    for arr in (ms.x, ms.y, ms.theta, ms.bif):
        with pytest.raises(ValueError):
            arr[0] = 0
    assert ms != MinutiaSet.from_arrays([2.0, 1.0], [5.0, 5.0], [10.0, 20.5], [False, True])
    with pytest.raises(InvalidInputError, match="finite"):
        MinutiaSet.from_arrays([np.inf], [0.0], [0.0], [False])
    with pytest.raises(InvalidInputError, match="angle 360.0"):
        MinutiaSet.from_arrays([0.0, 1.0], [0.0, 0.0], [0.0, 360.0], [False, False])
    empty = MinutiaSet.from_arrays([], [], [], [])
    assert len(empty) == 0 and list(empty) == [] and empty.positions().shape == (0, 2)
    again = pickle.loads(pickle.dumps(ms))
    assert again == ms and again.source == "s"
    with pytest.raises(ValueError):
        again.x[0] = 0


def test_minutiae_set_kept_costs_its_values_and_little_more():
    # evaluations, sweeps and benchmarks hold many sets: a set of 25
    # minutiae holds 625 bytes of values, one buffer for all four arrays
    rng = np.random.default_rng(5)
    values = (rng.uniform(0, 300, 25), rng.uniform(0, 300, 25), rng.uniform(0, 360, 25), rng.random(25) < 0.3)
    tracemalloc.start()
    try:
        kept = [MinutiaSet.from_arrays(*values, source="s") for _ in range(200)]
        per_set = tracemalloc.get_traced_memory()[0] / len(kept)
    finally:
        tracemalloc.stop()
    assert per_set < 25 * 25 + 200, per_set


def test_minutia_validation():
    with pytest.raises(InvalidInputError):
        Minutia(1.0, 2.0, 360.0, MinutiaKind.ENDING)
    with pytest.raises(InvalidInputError):
        Minutia(1.0, 2.0, -0.001, MinutiaKind.ENDING)
    with pytest.raises(InvalidInputError):
        Minutia(float("nan"), 2.0, 0.0, MinutiaKind.ENDING)


def test_parse_minutiae_requires_header():
    with pytest.raises(InvalidInputError):
        parse_minutiae("1.0 2.0 3.0 E\n", "t")


def test_parse_minutiae_bad_lines_carry_line_numbers():
    text = FILE_HEADER + "\n1.0 2.0 3.0 E\n1.0 2.0 Q\n"
    with pytest.raises(InvalidInputError, match="t:3"):
        parse_minutiae(text, "t")
    with pytest.raises(InvalidInputError, match="t:2"):
        parse_minutiae(FILE_HEADER + "\n4.0 5.0 10.0 X\n", "t")


def test_minutiae_file_io(tmp_path):
    ms = MinutiaSet.from_iterable([Minutia(3.0, 4.0, 180.0, MinutiaKind.ENDING)])
    p = tmp_path / "m.txt"
    write_minutiae(p, ms)
    assert load_fingerprint(p) == ms
    with pytest.raises(InvalidInputError):
        load_fingerprint(tmp_path / "absent.txt")
    p.write_bytes(FILE_HEADER.encode() + b"\n3 4 180 \xff\n")
    with pytest.raises(InvalidInputError, match="m.txt"):
        load_fingerprint(p)


_FIELD = st.one_of(st.floats().map(repr), st.text(max_size=6),
                   st.sampled_from(["E", "B", "nan", "-0.0", "360", "1e400", "0x10"]))
_BODY = st.lists(st.lists(_FIELD, min_size=3, max_size=5).map(" ".join), max_size=8).map("\n".join)


@settings(max_examples=150, deadline=None, database=None)
@given(st.one_of(st.text(max_size=200), _BODY.map(lambda body: f"{FILE_HEADER}\n{body}")))
def test_parse_minutiae_fuzz_parses_or_rejects(text):
    try:
        parse_minutiae(text)
    except InvalidInputError:
        pass
