"""Config round trip and rejection over drawn inputs: a loaded config
survives JSON, a file and an empty override unchanged, an unknown key or a
non-number (an integer beyond the float range included) in a numeric field
fails at load naming its path, and every field has exactly one rule in
config.FIELD_RULES.  The parameter dataclasses and channel builders check
their fields with the very rule objects of the config fields they take, and
reject the same non-numbers by field name."""

import ast
import contextlib
import copy
import dataclasses
import functools
import inspect
import io
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import hqlink.cli as cli
import hqlink.config as config
import hqlink.rules as rules
from hqlink.budget import EfficiencyStage, ErrorSource, RateChain
from hqlink.config import (
    BUDGET_KEYS,
    FIELD_RULES,
    SCENARIOS,
    ConfigError,
    ExperimentConfig,
    _check_defaults,
    _rule_pattern,
    default_config_dict,
    pump_inputs,
)
from hqlink.ion import (
    DECOHERENCE_EXPONENT,
    IonParams,
    decoherence_channel,
    decoherence_coherence,
    decoherence_infidelity,
    emit_entangled_state,
)
from hqlink.memory import (
    RESIDUAL_INFIDELITY,
    CombParams,
    SpectralModel,
    effective_depth,
    plan_pump_regions,
    storage_channel,
    storage_residual_channel,
)
from hqlink.photon import (
    PBS_EXTINCTION,
    SNR,
    JitterParams,
    dark_noise_admixture,
    dark_noise_infidelity,
    depolarizing_chi,
    pbs_bitflip_channel,
)
from hqlink.qstate import bell_state
from hqlink.rng import child_rng
from hqlink.scenarios import (
    analytic_fidelity,
    analytic_pipeline_state,
    emit_report,
    pipeline_stages,
    records_to_csv,
    round15,
    run,
)
from hqlink.tomography import (
    BOOTSTRAP_RESAMPLES,
    all_settings,
    bootstrap_uncertainty,
    simulate_tomography,
    split_heralds,
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
# a field in Hz is a rate, every other one a rate-chain stage efficiency
RATES_VALUES = {key: positive if key.endswith("_hz") else st.floats(0.0, 1.0, exclude_min=True)
                for key in default_config_dict()["rates"]}

configs = st.fixed_dictionaries(
    {"scenario": st.sampled_from(SCENARIOS), "master_seed": st.integers(0, 2 ** 63)},
    optional={"pipeline": st.fixed_dictionaries({}, optional=PIPELINE_VALUES),
              "rates": st.fixed_dictionaries({}, optional=RATES_VALUES)})


def _sections(tree: dict, path: str = ""):
    """Dotted paths of every object in the defaults."""
    yield path
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from _sections(value, path + key + ".")


SECTIONS = list(_sections(default_config_dict()))


def _leaves(tree: dict, path: str = ""):
    """(dotted path, default) of every field in the defaults."""
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


# fields a build may set: every field of the defaults
OVERRIDE_PATHS = list(LEAVES)


def _load(tree: dict):
    """The raw config ``tree`` loads to, or the errors that reject it."""
    try:
        return ExperimentConfig.from_dict(tree).raw
    except ConfigError as exc:
        return exc.errors


def _fields(tree: dict, defaults: dict, path: str = ""):
    """(dotted path, value) of every field of a full config tree, in the order
    a check of every field takes them: a section's fields, then its subsections."""
    for key, value in tree.items():
        if not isinstance(defaults.get(key), dict):
            yield path + key, value
    for key, value in tree.items():
        if isinstance(defaults.get(key), dict):
            yield from _fields(value, defaults[key], path + key + ".")


class TestDefaultsCheckedOnce:
    """The defaults pass their rules once, at import; a build then checks
    only the fields its caller sets, with the errors of a full check."""

    def test_defaults_pass_the_import_check(self):
        _check_defaults(default_config_dict())

    @pytest.mark.parametrize("path", list(LEAVES))
    def test_import_check_rejects_one_bad_default(self, path):
        tree = default_config_dict()
        *parents, last = path.split(".")
        section = functools.reduce(dict.__getitem__, parents, tree)
        section[last] = math.nan  # NaN passes no rule
        with pytest.raises(ConfigError) as err:
            _check_defaults(tree)
        assert err.value.errors == [
            f"{path}: expected {FIELD_RULES[_rule_pattern(path)].what}, got nan"]

    @settings(max_examples=200, deadline=None)
    @given(fields=st.dictionaries(
        st.sampled_from(OVERRIDE_PATHS),
        st.sampled_from(list(LEAVES.values())) | st.floats() | st.integers() | non_numbers,
        max_size=6))
    def test_a_build_reports_what_a_check_of_every_field_reports(self, fields):
        # the same fields set in a partial tree and in a full copy of the
        # defaults: the same config, or the same errors in the same order
        data, full = {}, default_config_dict()
        for path, value in fields.items():
            *parents, last = path.split(".")
            for tree in (data, full):
                for key in parents:
                    tree = tree.setdefault(key, {})
                tree[last] = value
        loaded = _load(data)
        assert loaded == _load(full)
        # the field errors lead, as every field's rule reports them
        expected = []
        for path, value in _fields(full, default_config_dict()):
            try:
                rules.check(path, FIELD_RULES[_rule_pattern(path)], value)
            except ValueError as exc:
                expected.append(str(exc))
        if expected:
            assert loaded[:len(expected)] == expected


class TestFieldRules:
    def test_every_field_has_exactly_one_rule_and_every_rule_a_field(self):
        patterns = {}
        for path in LEAVES:
            try:
                patterns[path] = _rule_pattern(path)
            except ValueError:
                raise AssertionError(f"{path} matches no rule or more than one") from None
        assert set(patterns.values()) == set(FIELD_RULES)

    def test_pump_inputs_are_the_published_recipe(self):
        ground = {"1/2g": 224.5, "3/2g": 148.1, "5/2g": 0.0}
        excited = {"1/2e": 0.0, "3/2e": 159.1, "5/2e": 431.8}
        strengths = {"1/2g:1/2e": 0.56, "1/2g:3/2e": 0.38, "1/2g:5/2e": 0.06,
                     "3/2g:1/2e": 0.42, "3/2g:3/2e": 0.42, "3/2g:5/2e": 0.16,
                     "5/2g:1/2e": 0.02, "5/2g:3/2e": 0.24, "5/2g:5/2e": 0.74}
        recipe = ({(g, e): ground[g] + excited[e] for g in ground for e in excited},
                  [(274.0, 497.2), (0.0, 223.2)], (224.5, 272.7), 497.2,
                  {tuple(k.split(":")): v for k, v in strengths.items()},
                  {"H": 5.24, "V": 4.66}, 0.5)
        got = pump_inputs(ExperimentConfig.defaults("budget"))
        assert got == recipe
        assert [list(x) for x in got if isinstance(x, dict)] == [
            list(x) for x in recipe if isinstance(x, dict)]  # same key order
        got[0].clear()
        got[1].append((1.0, 2.0))
        assert pump_inputs(ExperimentConfig.defaults("budget")) == recipe

    def test_rates_efficiencies_take_the_stage_rule_at_load(self, tmp_path):
        # each bad stage is named at load, not the first one mid-run
        config = {"rates": {"p_pi": 1.5, "e_obj": 3}}
        for path in ("rates.p_pi", "rates.e_obj"):
            (tmp_path / path).mkdir()
            _assert_rejected(config, path, tmp_path / path)
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict(config)
        assert err.value.errors == ["rates.p_pi: expected a number in (0, 1], got 1.5",
                                    "rates.e_obj: expected a number in (0, 1], got 3"]


# Values that move no output, each with its reason.
NO_OUTPUT_EXEMPT = {
    # it sets only the bootstrap stddev, which the outputs below leave out
    # to keep the test fast
    "pipeline.bootstrap_resamples",
}


def _outputs(overrides: dict, out: Path) -> dict:
    """What the config reaches: the report bytes of the deterministic
    scenarios and, for the tomography ones, the analytic state and fidelity
    and the sampled counts (no fit, no bootstrap)."""
    outputs = {}
    for scenario in ("budget", "chsh", "afc_sweep", "bandwidth_sweep"):
        files = emit_report(run(ExperimentConfig.defaults(scenario, **overrides)), out, "csv")
        outputs[scenario] = [(f.name, f.read_bytes()) for f in files]
    for scenario in ("ion_photon", "post_qfc", "ti_qm"):
        cfg = ExperimentConfig.defaults(scenario, **overrides)
        scen = cfg.scenario_section()
        state, herald_prob, breakdown = analytic_pipeline_state(cfg, scenario)
        shots = dict(zip(((s.ion_axis, s.photon_axis) for s in all_settings()),
                         split_heralds(scen[BUDGET_KEYS[scenario]])))
        counts = simulate_tomography(state, shots, scen["snr"],
                                     child_rng(cfg.master_seed, "tomography"))
        outputs[scenario] = (state.matrix.tobytes(), herald_prob, breakdown,
                             analytic_fidelity(cfg, scenario), records_to_csv(counts))
    return outputs


@pytest.fixture(scope="module")
def default_outputs(tmp_path_factory):
    return _outputs({}, tmp_path_factory.mktemp("defaults"))


class TestEveryValueMatters:
    @pytest.mark.parametrize("path", NUMERIC_FIELDS)
    def test_every_default_value_moves_an_output(self, path, default_outputs, tmp_path):
        # floats x 1.001 (0.0 to 0.001), integers + 1: a value that moves
        # nothing is not configuration
        value = LEAVES[path]
        nudged = value + 1 if isinstance(value, int) else value * 1.001 or 1e-3
        moved = _outputs(_nest(path, nudged), tmp_path) != default_outputs
        assert moved != (path in NO_OUTPUT_EXEMPT), (
            f"{path} is exempt, but moves an output" if moved else f"{path} moves no output")

    def test_exempt_values_are_numeric_fields(self):
        assert NO_OUTPUT_EXEMPT <= set(NUMERIC_FIELDS)

    @pytest.mark.parametrize("key", ["snr", "decoherence_time_us"])
    def test_chsh_reads_the_ti_qm_link(self, key):
        # chsh has no SNR or storage time of its own: it samples the ti_qm link
        default = run(ExperimentConfig.defaults("chsh")).statistics
        cfg = ExperimentConfig.defaults(
            "chsh", **_nest(f"scenarios.ti_qm.{key}", LEAVES[f"scenarios.ti_qm.{key}"] * 1.001))
        nudged = run(cfg).statistics
        assert nudged["pipeline_fidelity"] != default["pipeline_fidelity"]
        assert nudged["pipeline_fidelity"]["value"] == round15(analytic_fidelity(cfg, "ti_qm"))


class TestOneSourcePerValue:
    # null: the finesse is derived as delta / gamma_comb; not a published value
    KEPT_DEFAULTS = {(CombParams, "finesse"): None}

    def test_no_field_the_config_fills_has_a_default(self, monkeypatch):
        # a default on a field that from_dict fills would be a second copy of
        # the config's value
        filled = {}
        for cls in (IonParams, JitterParams, CombParams, SpectralModel):
            def record(*args, cls=cls, **kwargs):
                filled[cls] = set(inspect.signature(cls).bind(*args, **kwargs).arguments)
                return cls(*args, **kwargs)
            monkeypatch.setattr(config, cls.__name__, record)
        ExperimentConfig.from_dict({})
        assert len(filled) == 4
        for cls, names in filled.items():
            for f in dataclasses.fields(cls):
                if f.name in names:
                    assert f.default_factory is dataclasses.MISSING, (cls, f.name)
                    kept = self.KEPT_DEFAULTS.get((cls, f.name), dataclasses.MISSING)
                    assert f.default is kept, f"{cls.__name__}.{f.name} restates a config value"

    @pytest.mark.parametrize("function, name", [
        (decoherence_coherence, "exponent_a"), (decoherence_channel, "exponent_a"),
        (decoherence_infidelity, "exponent_a"), (plan_pump_regions, "broadening_mhz"),
        (effective_depth, "partial_weight")])
    def test_no_parameter_restates_a_published_value(self, function, name):
        assert inspect.signature(function).parameters[name].default is inspect.Parameter.empty


TI_QM = ExperimentConfig.defaults("ti_qm")
# Valid keyword arguments of each parameter dataclass; each field that its
# RULES names is then replaced by a drawn value.
DATACLASS_KWARGS = {
    IonParams: dataclasses.asdict(TI_QM.ion),
    JitterParams: dataclasses.asdict(TI_QM.jitter),
    CombParams: {**dataclasses.asdict(TI_QM.comb), "finesse": None},
    SpectralModel: dataclasses.asdict(TI_QM.spectral),
    EfficiencyStage: {"name": "s", "value": 0.5, "eta_h": 0.4, "eta_v": 0.6},
    RateChain: {"name": "c", "repetition_rate_hz": 1e5, "stages": ()},
    ErrorSource: {"name": "e", "infidelity": 0.01},
}
DATACLASS_FIELDS = [(cls, name) for cls in DATACLASS_KWARGS for name in cls.RULES]
# Every field that a dataclass and the config both check, with its config
# path: the dataclass takes the config value as it is (zeeman_omega: the
# same bound, in rad/s).
SHARED_FIELDS = [
    (IonParams, "zeeman_omega", "ion.zeeman_frequency_mhz"),
    (IonParams, "coherence_time_tau_ms", "ion.coherence_time_tau_ms"),
    (JitterParams, "awg_rms_ns", "jitter.awg_rms_ns"),
    (JitterParams, "transceiver_rms_ns", "jitter.transceiver_rms_ns"),
    (JitterParams, "zeeman_omega", "ion.zeeman_frequency_mhz"),
    *[(CombParams, key, f"comb.{key}") for key in ("d", "gamma_comb_khz", "finesse")],
    (CombParams, "bandwidth_mhz", "spectral.qm_bandwidth_mhz"),
    (SpectralModel, "gamma_natural_mhz", "spectral.gamma_natural_mhz"),
    (SpectralModel, "qm_bandwidth_mhz", "spectral.qm_bandwidth_mhz"),
    (SpectralModel, "zeeman_split_mhz", "ion.zeeman_frequency_mhz"),
    *[(EfficiencyStage, "value", f"rates.{key}") for key in default_config_dict()["rates"]
      if not key.endswith("_hz")],
    (EfficiencyStage, "eta_h", "rates.eta_conv_h"),
    (EfficiencyStage, "eta_v", "rates.eta_conv_v"),
    (EfficiencyStage, "eta_h", "storage.eta_device_h"),
    (EfficiencyStage, "eta_v", "storage.eta_device_v"),
    *[(RateChain, "repetition_rate_hz", f"rates.r_exp{i}_hz") for i in (1, 2, 3)],
]
OFFSETS, WINDOWS, TARGET, SPAN, STRENGTHS, _, W = pump_inputs(TI_QM)
PLAN = plan_pump_regions(OFFSETS, WINDOWS, TARGET, SPAN)
ION, A = TI_QM.ion, TI_QM.section("pipeline")["decoherence_exponent_a"]


def stages_past_load(path: str):
    """pipeline_stages of the default ti_qm config with the field at ``path``
    set to the argument after the load-time check, which the stage's own
    check then meets."""
    def build(value):
        raw = copy.deepcopy(TI_QM.raw)
        *sections, key = path.split(".")
        functools.reduce(dict.__getitem__, sections, raw)[key] = value
        return pipeline_stages(dataclasses.replace(TI_QM, raw=raw), "ti_qm")
    return build


# (builder of one argument, argument name, rule, config path) of each
# builder that takes one config field as it is, of each pipeline stage, and
# of the emission and the pump depth, whose elapsed time and native depth no
# config field holds (path None).
BUILDER_RULES = [
    (lambda v: decoherence_channel(ION, v, A), "t_us", rules.FINITE_NONNEGATIVE,
     "scenarios.ti_qm.decoherence_time_us"),
    (lambda v: decoherence_channel(ION, 1.0, v), "exponent_a", DECOHERENCE_EXPONENT,
     "pipeline.decoherence_exponent_a"),
    *[(lambda v, f=f: f(ION, v, A), "t_us", rules.FINITE_NONNEGATIVE,
       "scenarios.ti_qm.decoherence_time_us")
      for f in (decoherence_coherence, decoherence_infidelity)],
    *[(lambda v, f=f: f(ION, 1.0, v), "exponent_a", DECOHERENCE_EXPONENT,
       "pipeline.decoherence_exponent_a") for f in (decoherence_coherence, decoherence_infidelity)],
    *[(stages_past_load(path), arg, rule, path) for path, arg, rule in (
        ("scenarios.ti_qm.decoherence_time_us", "t_us", rules.FINITE_NONNEGATIVE),
        ("pipeline.decoherence_exponent_a", "exponent_a", DECOHERENCE_EXPONENT),
        ("pipeline.qfc_process_fidelity", "process_fidelity", rules.PROBABILITY),
        ("storage.eta_internal_h", "eta_h", rules.PROBABILITY),
        ("storage.eta_internal_v", "eta_v", rules.PROBABILITY),
        ("storage.residual_infidelity", "avg_infidelity", RESIDUAL_INFIDELITY),
        ("noise.pbs_extinction", "extinction", PBS_EXTINCTION))],
    (depolarizing_chi, "process_fidelity", rules.PROBABILITY, "pipeline.qfc_process_fidelity"),
    (pbs_bitflip_channel, "extinction", PBS_EXTINCTION, "noise.pbs_extinction"),
    (lambda v: storage_channel(v, 0.5), "eta_h", rules.PROBABILITY, "storage.eta_internal_h"),
    (lambda v: storage_channel(0.5, v), "eta_v", rules.PROBABILITY, "storage.eta_internal_v"),
    (storage_residual_channel, "avg_infidelity", RESIDUAL_INFIDELITY,
     "storage.residual_infidelity"),
    (lambda v: effective_depth(PLAN, v, STRENGTHS, partial_weight=W), "native_d",
     rules.FINITE_NONNEGATIVE, None),
    (lambda v: bootstrap_uncertainty([], v, "fidelity", 0), "n_resamples", BOOTSTRAP_RESAMPLES,
     "pipeline.bootstrap_resamples"),
    (lambda v: emit_entangled_state(ION, v), "t_elapsed_ns", rules.FINITE_NONNEGATIVE, None),
    (lambda v: dark_noise_admixture(bell_state(0.0).density(), v), "snr", SNR,
     "scenarios.ti_qm.snr"),
    (dark_noise_infidelity, "snr", SNR, "scenarios.ti_qm.snr"),
]


def inside(rule: rules.Rule):
    """Values that follow a numeric rule: floats and integers of its range,
    and numpy scalars of moderate ones (numpy warns where the comb's
    delta/gamma overflows)."""
    ints = st.integers(math.ceil(max(rule.lo, -2.0 ** 62)), math.floor(min(rule.hi, 2.0 ** 62)))
    moderate = st.floats(max(rule.lo, -1e4), min(rule.hi, 1e4)).filter(
        lambda x: x == 0 or abs(x) >= 1e-4)
    return (st.floats(rule.lo, rule.hi) | ints | moderate.map(np.float64)
            | moderate.map(np.float32) | ints.map(np.int64)).filter(rule.test)


def _named_fields(exc: ValueError) -> list[str]:
    """The fields an error message leads with: "a, b: ..." names a and b."""
    return str(exc).split(": ")[0].split(", ")


class TestDirectConstruction:
    @settings(max_examples=150, deadline=None)
    @given(target=st.sampled_from(DATACLASS_FIELDS), value=non_numbers)
    def test_non_number_names_its_field(self, target, value):
        cls, name = target
        assume(not (name == "finesse" and value is None))  # null: F = delta/gamma
        with pytest.raises(ValueError) as err:
            cls(**{**DATACLASS_KWARGS[cls], name: value})
        assert name in _named_fields(err.value), err.value
        if value is not None or cls is not EfficiencyStage:  # None: an unpolarized stage
            assert str(err.value) == f"{name}: expected {cls.RULES[name].what}, got {value!r}"

    def test_every_field_rejects_each_non_number(self):
        for cls, name in DATACLASS_FIELDS:
            for value in (math.nan, True, False, np.bool_(True), "1", [1], 2 ** 1024):
                with pytest.raises(ValueError, match=f"^{name}: expected "):
                    cls(**{**DATACLASS_KWARGS[cls], name: value})

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), target=st.sampled_from(DATACLASS_FIELDS))
    def test_value_inside_the_rule_constructs(self, data, target):
        cls, name = target
        value = data.draw(inside(cls.RULES[name]))
        try:
            made = cls(**{**DATACLASS_KWARGS[cls], name: value})
        except ValueError as exc:
            # only the comb relates its fields: delta below the bandwidth,
            # finesse near delta/gamma
            assert cls is CombParams and name not in _named_fields(exc), exc
        else:
            assert getattr(made, name) is value

    @pytest.mark.parametrize("finesse", [7.6, 7.7, np.float32(7.7), np.float64(7.8),
                                         np.float16(7.7)])
    def test_comb_takes_a_consistent_finesse_of_any_real_type(self, finesse):
        assert dataclasses.replace(TI_QM.comb, finesse=finesse).finesse is finesse

    @pytest.mark.parametrize("builder, arg, rule, path", BUILDER_RULES)
    def test_builders_reject_by_their_fields_rule(self, builder, arg, rule, path):
        for value in (math.nan, True, "1", 2 ** 1024, -1.0):
            with pytest.raises(ValueError) as err:
                builder(value)
            assert str(err.value) == f"{arg}: expected {rule.what}, got {value!r}"


class TestOneRulePerBound:
    @pytest.mark.parametrize("cls, name, path", SHARED_FIELDS)
    def test_dataclass_and_config_share_the_rule_object(self, cls, name, path):
        assert cls.RULES[name] is FIELD_RULES[_rule_pattern(path)]

    @pytest.mark.parametrize("builder, arg, rule, path",
                             [row for row in BUILDER_RULES if row[3] is not None])
    def test_builder_and_config_share_the_rule_object(self, builder, arg, rule, path):
        assert rule is FIELD_RULES[_rule_pattern(path)]

    def test_rules_module_imports_the_standard_library_alone(self):
        tree = ast.parse(Path(rules.__file__).read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                assert node.level == 0, "relative import"
                modules = [node.module]
            else:
                continue
            for module in modules:
                assert module.split(".")[0] in sys.stdlib_module_names, module

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), rule=st.sampled_from(
        [r for r in {id(r): r for r in FIELD_RULES.values()}.values() if r.lo == r.lo]))
    def test_float_bounds_agree_with_the_test(self, data, rule):
        # check_fields passes a float in [lo, hi] without the test
        edges = [rule.lo, rule.hi, math.nextafter(rule.lo, -math.inf),
                 math.nextafter(rule.hi, math.inf), 0.0, -0.0, math.inf, -math.inf, math.nan]
        v = data.draw(st.floats() | st.sampled_from(edges))
        assert (rule.lo <= v <= rule.hi) == rule.test(v)
