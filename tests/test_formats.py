"""PGM image and minutiae text round trips."""

import numpy as np
import pytest

from onionprint.errors import InvalidInputError
from onionprint.minutiae import (
    FILE_HEADER,
    Minutia,
    MinutiaKind,
    MinutiaSet,
    format_minutiae,
    parse_minutiae,
    read_minutiae,
    write_minutiae,
)
from onionprint.pgm import looks_like_pgm, parse_pgm, read_pgm, write_pgm


def _img(seed=1, shape=(11, 7)):
    return np.random.default_rng(seed).integers(0, 256, size=shape).astype(np.uint8)


def test_pgm_binary_round_trip(tmp_path):
    img = _img()
    p = tmp_path / "a.pgm"
    write_pgm(p, img, binary=True)
    assert np.array_equal(read_pgm(p), img)


def test_pgm_ascii_round_trip(tmp_path):
    img = _img(2)
    p = tmp_path / "a.pgm"
    write_pgm(p, img, binary=False)
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
    assert [m.theta for m in read_minutiae(p)] == [0.0]


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
    assert read_minutiae(p) == ms
    with pytest.raises(InvalidInputError):
        read_minutiae(tmp_path / "absent.txt")
