"""Config round trip and rejection over drawn inputs: a loaded config
survives JSON, a file and an empty override unchanged, an unknown key or a
non-number (an integer beyond the float range included) in a numeric field
fails at load naming its path, and every field has exactly one rule in
config.FIELD_RULES."""

import contextlib
import io
import json
import math
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import hqlink.cli as cli
from hqlink.config import (
    FIELD_RULES,
    LABEL_MAPS,
    SCENARIOS,
    ConfigError,
    ExperimentConfig,
    _rule_pattern,
    default_config_dict,
)

unit = st.floats(0.0, 1.0)
white_noise_rate = st.floats(0.0, 0.75)
# the ranges FIELD_RULES accepts
PIPELINE_VALUES = {
    "qfc_process_fidelity": unit,
    "decoherence_exponent_a": st.floats(1.0, 3.0),
    "excitation_error": white_noise_rate,
    "spam_error": white_noise_rate,
    "mw_rotation_error": white_noise_rate,
    "pi_collection_error": white_noise_rate,
    "bootstrap_resamples": st.integers(100, 10 ** 6),
}
positive = st.floats(0.0, exclude_min=True, allow_infinity=False)
RATES_VALUES = {key: positive for key in default_config_dict()["rates"]}

configs = st.fixed_dictionaries(
    {"scenario": st.sampled_from(SCENARIOS), "master_seed": st.integers(0, 2 ** 63)},
    optional={"pipeline": st.fixed_dictionaries({}, optional=PIPELINE_VALUES),
              "rates": st.fixed_dictionaries({}, optional=RATES_VALUES)})


def _sections(tree: dict, path: str = ""):
    """Dotted paths of every object in the defaults whose keys are config fields."""
    yield path
    for key, value in tree.items():
        sub = path + key
        if isinstance(value, dict) and sub not in LABEL_MAPS:
            yield from _sections(value, sub + ".")


SECTIONS = list(_sections(default_config_dict()))


def _leaves(tree: dict, path: str = ""):
    """(dotted path, default) of every field in the defaults, labels included."""
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from _leaves(value, path + key + ".")
        else:
            yield path + key, value


LEAVES = dict(_leaves(default_config_dict()))
NUMERIC_FIELDS = [path for path, value in LEAVES.items()
                  if isinstance(value, (int, float)) and not isinstance(value, bool)]
# integers from 2**1024 up overflow float(), though they compare below infinity
non_numbers = (st.text(max_size=8) | st.none() | st.booleans() | st.just(math.nan)
               | st.lists(st.integers(), max_size=3)
               | st.integers(min_value=2 ** 1024) | st.integers(max_value=-2 ** 1024))


def _nest(path: str, value) -> dict:
    """{"a": {"b": value}} from "a.b"."""
    for key in reversed(path.split(".")):
        value = {key: value}
    return value


def _assert_rejected(config: dict, path: str, tmp: Path):
    """Loading fails naming ``path``; the CLI exits 2 with it and writes nothing."""
    try:
        ExperimentConfig.from_dict(config)
    except ConfigError as exc:
        assert any(e.startswith(path + ":") for e in exc.errors), exc.errors
    else:
        raise AssertionError(f"{config!r} loaded")
    cfg_path = tmp / "bad.json"
    cfg_path.write_text(json.dumps(config))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert cli.main(["--config", str(cfg_path), "--out", str(tmp / "out")]) == 2
    assert "invalid configuration" in err.getvalue()
    assert path + ":" in err.getvalue()
    assert not (tmp / "out").exists()


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(data=configs)
    def test_raw_survives_json_file_and_empty_override(self, data, tmp_path_factory):
        cfg = ExperimentConfig.from_dict(data)
        again = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.raw)))
        assert again.raw == cfg.raw
        assert again == cfg
        path = tmp_path_factory.mktemp("cfg") / "cfg.json"
        path.write_text(json.dumps(cfg.raw))
        assert ExperimentConfig.from_file(path).raw == cfg.raw
        assert cfg.with_overrides().raw == cfg.raw


class TestRejection:
    @settings(max_examples=60, deadline=None)
    @given(section=st.sampled_from(SECTIONS),
           key=st.text("abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=12),
           value=st.integers() | st.text(max_size=8) | st.none() | st.floats(allow_nan=False))
    def test_unknown_key_names_its_path(self, section, key, value, tmp_path_factory):
        known = default_config_dict()
        for part in filter(None, section.split(".")):
            known = known[part]
        assume(key not in known)
        path = section + key
        _assert_rejected(_nest(path, value), path, tmp_path_factory.mktemp("bad"))

    @settings(max_examples=60, deadline=None)
    @given(path=st.sampled_from(NUMERIC_FIELDS), value=non_numbers)
    def test_non_number_names_its_path(self, path, value, tmp_path_factory):
        assume(not (path == "comb.finesse" and value is None))  # null: F = delta/gamma
        _assert_rejected(_nest(path, value), path, tmp_path_factory.mktemp("bad"))

    def test_every_numeric_field_rejects_each_non_number_once(self):
        for path in NUMERIC_FIELDS:
            for value in (math.nan, True, "1", None, [1], 2 ** 1024, -2 ** 1024):
                if path == "comb.finesse" and value is None:
                    continue
                with pytest.raises(ConfigError) as err:
                    ExperimentConfig.from_dict(_nest(path, value))
                assert len(err.value.errors) == 1, err.value.errors
                assert err.value.errors[0].startswith(f"{path}: expected "), err.value.errors


class TestFieldRules:
    def test_every_field_has_exactly_one_rule_and_every_rule_a_field(self):
        patterns = {}
        for path in LEAVES:
            try:
                patterns[path] = _rule_pattern(path)
            except ValueError:
                raise AssertionError(f"{path} matches no rule or more than one") from None
        assert set(patterns.values()) == set(FIELD_RULES)

    def test_added_label_takes_its_maps_rule(self):
        cfg = ExperimentConfig.defaults("budget", pump={"native_d": {"D": 1.0}})
        assert cfg.section("pump")["native_d"]["D"] == 1.0
        with pytest.raises(ConfigError, match=r"pump\.native_d\.D: expected a finite "
                                              r"number >= 0, got -1\.0"):
            ExperimentConfig.defaults("budget", pump={"native_d": {"D": -1.0}})
