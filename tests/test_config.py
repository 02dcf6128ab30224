import math
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onionprint.config import MatchConfig, build_config, load_config_file
from onionprint.errors import InvalidInputError


def test_defaults():
    cfg = MatchConfig()
    assert cfg.rm == 5.0
    assert cfg.r0 == 15.0
    assert cfg.theta0 == 10.0
    assert cfg.sim == 0.15
    assert cfg.diff == 2.0
    assert cfg.border_margin == 12.0


def test_validation():
    with pytest.raises(InvalidInputError):
        MatchConfig(rm=-1.0)
    with pytest.raises(InvalidInputError):
        MatchConfig(sim=1.5)
    with pytest.raises(InvalidInputError):
        MatchConfig(theta0=200.0)
    with pytest.raises(InvalidInputError):
        MatchConfig(rm=float("nan"))
    # an unbounded layer-count gate is a valid way to switch it off
    assert math.isinf(MatchConfig(diff=float("inf")).diff)


def test_load_config_file(tmp_path):
    p = tmp_path / "cfg"
    p.write_text(
        """
# matcher settings
rm = 4
r0 = 20   # wider pairing radius
sim = 0.1
"""
    )
    vals = load_config_file(p)
    cfg = build_config(vals)
    assert cfg.rm == 4.0
    assert cfg.r0 == 20.0
    assert cfg.sim == 0.1


def test_config_file_errors(tmp_path):
    bad_key = tmp_path / "a"
    bad_key.write_text("bogus = 1\n")
    with pytest.raises(InvalidInputError, match="bogus"):
        load_config_file(bad_key)
    bad_line = tmp_path / "b"
    bad_line.write_text("rm 5\n")
    with pytest.raises(InvalidInputError, match="b:1"):
        load_config_file(bad_line)
    bad_value = tmp_path / "c"
    bad_value.write_text("rm = soon\n")
    with pytest.raises(InvalidInputError):
        load_config_file(bad_value)
    # the turning distance is always L2, so there is no norm to set
    norm = tmp_path / "d"
    norm.write_text("p = 2\n")
    with pytest.raises(InvalidInputError, match="'p'"):
        load_config_file(norm)
    # binarization is always Otsu and despeckling always on
    for key, value in (("binarize", "fixed"), ("fixed_threshold", "100"), ("despeckle", "false")):
        removed = tmp_path / key
        removed.write_text(f"{key} = {value}\n")
        with pytest.raises(InvalidInputError, match=f"'{key}'"):
            load_config_file(removed)


def test_overrides_beat_file_values():
    cfg = build_config({"rm": 4.0, "sim": 0.2}, {"sim": 0.3, "diff": None})
    assert cfg.rm == 4.0
    assert cfg.sim == 0.3
    assert cfg.diff == 2.0


_KEYS = [f.name for f in fields(MatchConfig)] + ["p", "binarize", "fixed_threshold",
                                                   "despeckle", "bogus"]
_LINES = st.lists(st.tuples(st.sampled_from(_KEYS), st.text(max_size=12)), max_size=6).map(
    lambda kv: "".join(f"{k} = {v}\n" for k, v in kv).encode("utf-8", "surrogatepass"))


@settings(max_examples=150, deadline=None, database=None)
@given(st.one_of(st.binary(max_size=200), _LINES))
def test_config_file_fuzz_parses_or_rejects(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "cfg"
    path.write_bytes(data)
    try:
        build_config(load_config_file(path))
    except InvalidInputError:
        pass
