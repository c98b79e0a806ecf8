"""Scenario configuration: defaults, JSON loading and validation.

A config is one JSON document with one section per parameter group.  The
shipped defaults carry the full published operating point, so running any
scenario without a config file reproduces the headline numbers.  They hold
only fields that some scenario reads, and a key that is not among them is
rejected.
"""

from __future__ import annotations

import copy
import itertools
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

from . import rules
from .budget import EfficiencyStage, ErrorSource, RateChain
from .ion import DECOHERENCE_EXPONENT, IonParams, decoherence_infidelity
from .memory import RESIDUAL_INFIDELITY, CombParams, SpectralModel
from .photon import PBS_EXTINCTION, SNR, JitterParams, jitter_infidelity
from .tomography import BOOTSTRAP_RESAMPLES

SCENARIOS = ("ion_photon", "post_qfc", "ti_qm", "chsh", "budget", "afc_sweep",
             "bandwidth_sweep")
# Scenario field that holds the shot budget of each sampled scenario.
BUDGET_KEYS = {"ion_photon": "shots", "post_qfc": "shots", "ti_qm": "heralds",
               "chsh": "trials"}
# Start and stop fields of each sweep scenario's range.
SWEEP_RANGES = {"afc_sweep": ("t_start_ns", "t_stop_ns"),
                "bandwidth_sweep": ("df_start_mhz", "df_stop_mhz")}
# Published ledger rows with no pipeline field of their own.  Their models
# give 0.0259 (dark_noise_infidelity at SNR 28) and 0.0024
# (storage.residual_infidelity).
DARK_NOISE_INFIDELITY_PUBLISHED = 0.027
QM_STORAGE_INFIDELITY_PUBLISHED = 0.002
# The published enhancement-pump design behind comb.d: hyperfine offsets (MHz)
# of the site-2 ion classes on the pump-design axis (reference transition
# 5/2g -> 1/2e at zero), relative transition strengths, the two enhancement
# chirps in the order applied, the target band, the inhomogeneous broadening,
# the native depths and the weight of a partially addressed level.  No
# scenario reads it: the link takes the measured comb.d and storage
# efficiencies.
PUMP_GROUND_OFFSETS_MHZ = {"1/2g": 224.5, "3/2g": 148.1, "5/2g": 0.0}
PUMP_EXCITED_OFFSETS_MHZ = {"1/2e": 0.0, "3/2e": 159.1, "5/2e": 431.8}
PUMP_TRANSITION_OFFSETS_MHZ = {(g, e): g_mhz + e_mhz
                               for g, g_mhz in PUMP_GROUND_OFFSETS_MHZ.items()
                               for e, e_mhz in PUMP_EXCITED_OFFSETS_MHZ.items()}
PUMP_STRENGTHS = {
    ("1/2g", "1/2e"): 0.56, ("1/2g", "3/2e"): 0.38, ("1/2g", "5/2e"): 0.06,
    ("3/2g", "1/2e"): 0.42, ("3/2g", "3/2e"): 0.42, ("3/2g", "5/2e"): 0.16,
    ("5/2g", "1/2e"): 0.02, ("5/2g", "3/2e"): 0.24, ("5/2g", "5/2e"): 0.74,
}
PUMP_WINDOWS_MHZ = ((274.0, 497.2), (0.0, 223.2))
PUMP_TARGET_MHZ = (224.5, 272.7)
PUMP_BROADENING_MHZ = 497.2
PUMP_NATIVE_D = {"H": 5.24, "V": 4.66}
PUMP_PARTIAL_WEIGHT = 0.5
# The comb's published tooth spacing (MHz).  No report reads it: it
# cross-checks comb.finesse against delta / gamma_comb.
COMB_DELTA_MHZ = 2.0


class ConfigError(ValueError):
    """Invalid configuration; ``errors`` lists every offending field."""

    def __init__(self, errors: list[str]):
        super().__init__("invalid configuration:\n  " + "\n  ".join(errors))
        self.errors = errors


def default_config_dict() -> dict:
    """Full default configuration at the published operating point."""
    return {
        "scenario": "ti_qm",
        "master_seed": 20260810,
        "output_dir": "reports",
        # The Zeeman frequency also sets the splitting of the emission
        # spectrum, and the memory bandwidth also sets the comb's bandwidth.
        "ion": {"zeeman_frequency_mhz": 11.22, "coherence_time_tau_ms": 0.989},
        "jitter": {"awg_rms_ns": 0.305, "transceiver_rms_ns": 0.056},
        "noise": {"pbs_extinction": 3500.0},
        "comb": {"d": 10.5, "gamma_comb_khz": 259.8, "finesse": 7.7},
        "spectral": {"gamma_natural_mhz": 19.6, "qm_bandwidth_mhz": 48.2},
        "storage": {
            "eta_internal_h": 0.310,
            "eta_internal_v": 0.289,
            "eta_device_h": 0.195,
            "eta_device_v": 0.183,
            "residual_infidelity": 0.0024,
        },
        "rates": {
            "r_exp1_hz": 250e3,
            "r_exp2_hz": 194e3,
            "r_exp3_hz": 162e3,
            "p_pi": 0.960,
            "p_s12": 0.995,
            "qe_369": 0.35,
            "qe_580": 0.80,
            "t_fib1": 0.27,
            "t_opt": 0.90,
            "e_obj": 0.0999,
            "eta_369": 0.708,
            "eta_conv_h": 0.0070,
            "eta_conv_v": 0.0075,
            "t_580": 0.478,
            "t_fib2": 0.40,
            "eta_aom": 0.80,
            "eta_bw": 0.74,
            "signal_rate_hz": 0.2,
            "noise_rate_hz": 0.007,
        },
        # Channel-pipeline knobs shared by the tomography scenarios.  Scalar
        # error rates without a microscopic model enter as white-noise
        # admixtures of matched infidelity, and as measured ledger rows.
        "pipeline": {
            "qfc_process_fidelity": 0.969,
            "decoherence_exponent_a": 2.0,
            "excitation_error": 0.033,
            "spam_error": 0.007,
            "mw_rotation_error": 0.001,
            "pi_collection_error": 0.005,
            "bootstrap_resamples": 200,
        },
        "scenarios": {
            "ion_photon": {"shots": 62723, "snr": 1800.0, "decoherence_time_us": 1.01},
            "post_qfc": {"shots": 2714, "snr": 19.5, "decoherence_time_us": 2.17},
            "ti_qm": {"heralds": 1780, "snr": 28.0, "decoherence_time_us": 3.17},
            # chsh samples the ti_qm link, at its SNR and storage time
            "chsh": {"trials": 3634},
            "afc_sweep": {"t_start_ns": 500.0, "t_stop_ns": 5000.0, "points": 46},
            "bandwidth_sweep": {"df_start_mhz": -60.0, "df_stop_mhz": 60.0, "points": 121},
        },
    }


_DEFAULTS = default_config_dict()


# The one rule of each config field: what the value must be, and its test.
# A field that a dataclass or a channel builder takes as it is takes the
# same rule object there, and NaN and booleans fail every rule.  ``*``
# stands for any one key.
FIELD_RULES = {
    "scenario": rules.Rule(f"one of {SCENARIOS}", lambda v: v in SCENARIOS),
    "master_seed": rules.integer_from(0),
    "output_dir": rules.Rule("a nonempty string", lambda v: isinstance(v, str) and v != ""),
    "ion.zeeman_frequency_mhz": SpectralModel.RULES["zeeman_split_mhz"],
    "ion.coherence_time_tau_ms": IonParams.RULES["coherence_time_tau_ms"],
    # sections whose fields are fields of one dataclass take its rules
    **{f"jitter.{key}": JitterParams.RULES[key] for key in _DEFAULTS["jitter"]},
    **{f"comb.{key}": CombParams.RULES[key] for key in _DEFAULTS["comb"]},
    **{f"spectral.{key}": SpectralModel.RULES[key] for key in _DEFAULTS["spectral"]},
    "noise.pbs_extinction": PBS_EXTINCTION,
    "storage.eta_internal_h": rules.PROBABILITY,  # memory.storage_channel
    "storage.eta_internal_v": rules.PROBABILITY,
    "storage.eta_device_h": EfficiencyStage.RULES["eta_h"],
    "storage.eta_device_v": EfficiencyStage.RULES["eta_v"],
    "storage.residual_infidelity": RESIDUAL_INFIDELITY,
    # a field in Hz is a rate; every other one is a rate-chain stage
    **{f"rates.{key}": (rules.POSITIVE_FINITE if key.endswith("_hz")
                        else EfficiencyStage.RULES["value"]) for key in _DEFAULTS["rates"]},
    "pipeline.qfc_process_fidelity": rules.PROBABILITY,  # photon.depolarizing_chi
    "pipeline.decoherence_exponent_a": DECOHERENCE_EXPONENT,
    "pipeline.excitation_error": rules.WHITE_NOISE_RATE,
    "pipeline.spam_error": rules.WHITE_NOISE_RATE,
    "pipeline.mw_rotation_error": rules.WHITE_NOISE_RATE,
    "pipeline.pi_collection_error": rules.WHITE_NOISE_RATE,
    "pipeline.bootstrap_resamples": BOOTSTRAP_RESAMPLES,  # tomography.bootstrap_uncertainty
    # shot budgets: at least one shot per measurement setting
    "scenarios.*.shots": rules.integer_from(9),
    "scenarios.ti_qm.heralds": rules.integer_from(9),
    "scenarios.chsh.trials": rules.integer_from(4),
    "scenarios.*.snr": SNR,  # photon.dark_noise_admixture
    "scenarios.*.decoherence_time_us": rules.FINITE_NONNEGATIVE,  # ion.decoherence_channel
    "scenarios.*.points": rules.integer_from(2),
    "scenarios.afc_sweep.t_start_ns": rules.FINITE_NONNEGATIVE,
    "scenarios.afc_sweep.t_stop_ns": rules.FINITE,
    "scenarios.bandwidth_sweep.df_start_mhz": rules.FINITE,
    "scenarios.bandwidth_sweep.df_stop_mhz": rules.FINITE,
}


def _rule_pattern(path: str) -> str:
    """The FIELD_RULES key that matches the dotted ``path``, looked up among
    its ``*`` variants (at most 8); a field that matches none, or more than
    one, fails the unpacking."""
    (pattern,) = [pattern for pattern in map(".".join, itertools.product(
        *((part, "*") for part in path.split(".")))) if pattern in FIELD_RULES]
    return pattern


def _section_rules(tree: dict, keys: tuple = ()):
    """(keys from the root, dotted prefix, {field: rule}) of every object in
    the defaults.  Each field's rule is resolved here once; the merge adds
    no path."""
    prefix = "".join(k + "." for k in keys)
    by_key = {key: FIELD_RULES[_rule_pattern(prefix + key)]
              for key, v in tree.items() if not isinstance(v, dict)}
    yield keys, prefix, by_key
    for key, v in tree.items():
        if isinstance(v, dict):
            yield from _section_rules(v, keys + (key,))


_SECTION_RULES = list(_section_rules(_DEFAULTS))


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated scenario configuration with typed parameter sections."""

    scenario: str
    master_seed: int
    output_dir: str
    ion: IonParams
    jitter: JitterParams
    comb: CombParams
    spectral: SpectralModel
    raw: dict = field(repr=False, default_factory=dict)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigError([f"config: expected a JSON object, got {data!r}"])
        cfg = default_config_dict()  # a fresh literal on every call
        errors: list[str] = []
        _deep_update(cfg, data, errors)
        rejected: set[str] = set()
        _check_fields(cfg, data, errors, rejected)
        _check_spans(errors, cfg, rejected)
        comb = None
        # the one dataclass that checks its fields against each other
        if not any(p.startswith(("comb.", "spectral.qm_bandwidth_mhz")) for p in rejected):
            try:
                comb = CombParams(delta_mhz=COMB_DELTA_MHZ,
                                  bandwidth_mhz=cfg["spectral"]["qm_bandwidth_mhz"],
                                  **cfg["comb"])
            except ValueError as exc:
                errors.append(f"comb: {exc}")
        if errors:
            raise ConfigError(errors)
        zeeman_mhz = cfg["ion"]["zeeman_frequency_mhz"]
        omega = 2 * math.pi * zeeman_mhz * 1e6
        try:  # a splitting above ~2.9e301 MHz overflows omega
            ion = IonParams(omega, cfg["ion"]["coherence_time_tau_ms"])
        except ValueError as exc:
            raise ConfigError([f"ion.zeeman_frequency_mhz: {exc}"]) from None
        return cls(cfg["scenario"], cfg["master_seed"], cfg["output_dir"], ion,
                   JitterParams(zeeman_omega=omega, **cfg["jitter"]), comb,
                   SpectralModel(zeeman_split_mhz=zeeman_mhz, **cfg["spectral"]), raw=cfg)

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        # ValueError: not UTF-8 or not JSON; RecursionError: nested too deep
        except (OSError, ValueError, RecursionError) as exc:
            raise ConfigError([f"config file {path}: {exc}"]) from exc
        return cls.from_dict(data)

    @classmethod
    def defaults(cls, scenario: str = "ti_qm", **overrides) -> "ExperimentConfig":
        data = {"scenario": scenario}
        data.update(overrides)
        return cls.from_dict(data)

    def scenario_section(self, name: str | None = None) -> dict:
        return self.raw["scenarios"][name or self.scenario]

    def section(self, name: str) -> dict:
        return self.raw[name]

    def with_overrides(self, **kv) -> "ExperimentConfig":
        data = copy.deepcopy(self.raw)
        _deep_update(data, kv)
        return ExperimentConfig.from_dict(data)


def _deep_update(base: dict, extra: dict, errors: list | None = None, path: str = ""):
    """Merge ``extra`` into ``base``.  Given ``errors``, a key that ``base``
    lacks, or a value that would replace a section, is reported there by its
    dotted path and left out."""
    for k, v in extra.items():
        key = path + str(k)
        if isinstance(v, dict) and isinstance(base.get(k), dict):
            _deep_update(base[k], v, errors, key + ".")
        elif errors is None:
            base[k] = v
        elif k not in base:
            errors.append(f"{key}: unknown field")
        elif isinstance(base.get(k), dict):
            errors.append(f"{key}: expected an object, got {v!r}")
        else:
            base[k] = v


def _check_fields(cfg: dict, given: dict, errors: list, rejected: set):
    """Test each field of the merged config that the caller's tree ``given``
    sets against its rule, in the order of the merged config; add the dotted
    path of each one that fails to ``rejected``.  Every other field holds
    its default, which passed at import."""
    for keys, prefix, by_key in _SECTION_RULES:
        section, part = cfg, given
        for key in keys:  # the merge keeps every section of cfg an object
            section, part = section[key], part.get(key)
            if not isinstance(part, dict):
                break
        else:
            for key, v in section.items():
                rule = by_key.get(key)  # None: a subsection
                if rule is not None and key in part:
                    try:
                        rules.check(prefix + key, rule, v)
                    except ValueError as exc:
                        errors.append(str(exc))
                        rejected.add(prefix + key)


def _check_defaults(tree: dict):
    """Raise ConfigError unless every field of the defaults ``tree`` follows its rule."""
    errors: list[str] = []
    _check_fields(tree, tree, errors, set())
    if errors:
        raise ConfigError(errors)


def _check_spans(errors: list, cfg: dict, rejected: set):
    """The checks that span fields, and the subnormal storage efficiency."""
    storage = cfg["storage"]
    if storage["eta_internal_h"] == storage["eta_internal_v"] == 0:
        errors.append("storage.eta_internal_h, storage.eta_internal_v: both 0, so the "
                      "memory stores nothing")
    for key in ("eta_internal_h", "eta_internal_v"):  # subnormal: the herald underflows
        v = storage[key]
        if rules.number(v) and 0 < v < sys.float_info.min:
            errors.append(f"storage.{key}: {v!r} is subnormal; expected 0 or at least "
                          f"{sys.float_info.min!r}")
    for scen, (start_key, stop_key) in SWEEP_RANGES.items():
        sec = cfg["scenarios"][scen]
        paths = [f"scenarios.{scen}.{start_key}", f"scenarios.{scen}.{stop_key}"]
        if not rejected.isdisjoint(paths):
            continue
        if not sec[start_key] < sec[stop_key]:
            errors.append(f"{paths[0]}: {sec[start_key]!r} is not below "
                          f"{stop_key} = {sec[stop_key]!r}")
        elif not math.isfinite(float(sec[stop_key]) - float(sec[start_key])):
            # np.linspace would overflow its step
            errors.append(f"{paths[0]}, {paths[1]}: the width {sec[stop_key]!r} - "
                          f"{sec[start_key]!r} overflows; expected a finite range")


# Checked once here, so that a build checks only the fields its caller sets.
_check_defaults(_DEFAULTS)


# ---------------------------------------------------------------------------
# derived builders used by the scenario runner


def pump_inputs(cfg: ExperimentConfig):
    """(level_offsets, windows, target, broadening, strengths, native_d, w_partial)
    of the published pump design, as fresh containers.  ``cfg`` is not read:
    the design is a set of module constants, not configuration."""
    return (dict(PUMP_TRANSITION_OFFSETS_MHZ), list(PUMP_WINDOWS_MHZ), PUMP_TARGET_MHZ,
            PUMP_BROADENING_MHZ, dict(PUMP_STRENGTHS), dict(PUMP_NATIVE_D),
            PUMP_PARTIAL_WEIGHT)


def rate_chains(cfg: ExperimentConfig) -> dict:
    """Named rate chains and efficiency stage lists from the rates section."""
    r = cfg.section("rates")
    pre = {"branching_sigma": 2.0 / 3.0}

    def stages(*keys: str) -> list[EfficiencyStage]:
        return [EfficiencyStage(key, r[key]) for key in keys]

    collection = stages("p_pi", "p_s12", "t_fib1", "t_opt", "e_obj")
    # rate chains use the balanced (2.00 W) conversion efficiency; the
    # polarized pair only enters the per-stage efficiency table
    qfc = [*stages("eta_369"), EfficiencyStage("eta_conv", r["eta_conv_h"]),
           *stages("t_580", "t_fib2", "eta_aom")]
    storage = cfg.section("storage")
    qm = [*stages("eta_bw"), EfficiencyStage.polarized("eta_storage", storage["eta_device_h"],
                                                      storage["eta_device_v"])]
    chains = {
        "r_369": RateChain("r_369", r["r_exp1_hz"], collection + stages("qe_369"), pre),
        "r_580": RateChain("r_580", r["r_exp2_hz"], collection + stages("qe_580") + qfc, pre),
        "r_ti_qm": RateChain("r_ti_qm", r["r_exp3_hz"],
                             collection + stages("qe_580") + qfc + qm, pre),
    }
    overall = [*stages("eta_369", "t_580", "t_fib2"),
               EfficiencyStage.polarized("eta_conv", r["eta_conv_h"], r["eta_conv_v"]),
               *qm, *stages("eta_aom")]
    return {"chains": chains, "qfc_stages": qfc, "qm_stages": qm,
            "overall_stages": overall}


def error_budget_rows(cfg: ExperimentConfig) -> list[ErrorSource]:
    """The ten-row ledger: measured rows read the pipeline fields that also
    build their channels, modeled rows come from the models."""
    pl = cfg.section("pipeline")
    t_us = cfg.scenario_section("ti_qm")["decoherence_time_us"]
    table = (
        ("ion_decoherence", decoherence_infidelity(cfg.ion, t_us, pl["decoherence_exponent_a"]),
         "ion.decoherence_infidelity"),
        ("jitter_phase", jitter_infidelity(cfg.jitter), "photon.jitter_infidelity"),
        ("spam", pl["spam_error"], "measured"),
        ("mw_rotation", pl["mw_rotation_error"], "measured"),
        ("qfc", 1.0 - pl["qfc_process_fidelity"], "photon.depolarizing_chi"),
        ("pulse_excitation", pl["excitation_error"], "measured"),
        ("pi_collection", pl["pi_collection_error"], "measured"),
        ("dark_noise", DARK_NOISE_INFIDELITY_PUBLISHED, "photon.dark_noise_infidelity"),
        ("photon_detection_pbs", 1.0 / cfg.section("noise")["pbs_extinction"],
         "photon.pbs_bitflip_channel"),
        ("qm_storage", QM_STORAGE_INFIDELITY_PUBLISHED, "measured"),
    )
    return [ErrorSource(name=name, infidelity=float(inf), model_ref=ref)
            for name, inf, ref in table]
