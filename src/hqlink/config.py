"""Scenario configuration: defaults, JSON loading and validation.

A config is one JSON document with one section per parameter group.  The
shipped defaults carry the full published operating point, so running any
scenario without a config file reproduces the headline numbers.  They hold
only fields that some scenario reads, and a key that is not among them is
rejected.
"""

from __future__ import annotations

import copy
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .budget import EfficiencyStage, ErrorSource, RateChain
from .ion import IonParams, decoherence_infidelity
from .memory import CombParams, SpectralModel
from .photon import JitterParams, NoiseParams, jitter_infidelity

SCENARIOS = ("ion_photon", "post_qfc", "ti_qm", "chsh", "budget", "afc_sweep",
             "bandwidth_sweep")
# Scenario field that holds the shot budget of each sampled scenario.
BUDGET_KEYS = {"ion_photon": "shots", "post_qfc": "shots", "ti_qm": "heralds",
               "chsh": "trials"}
# Start and stop fields of each sweep scenario's range.
SWEEP_RANGES = {"afc_sweep": ("t_start_ns", "t_stop_ns"),
                "bandwidth_sweep": ("df_start_mhz", "df_stop_mhz")}
# Label maps under ``pump``: their keys are data (level and transition
# labels), not config fields, so any key is accepted there.
LABEL_MAPS = ("pump.ground_offsets", "pump.excited_offsets", "pump.strengths",
              "pump.native_d")
# Published ledger rows with no pipeline field of their own.  Their models
# give 0.0259 (dark_noise_infidelity at SNR 28) and 0.0024
# (storage.residual_infidelity).
DARK_NOISE_INFIDELITY_PUBLISHED = 0.027
QM_STORAGE_INFIDELITY_PUBLISHED = 0.002


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
        "comb": {"d": 10.5, "gamma_comb_khz": 259.8, "delta_mhz": 2.0, "finesse": 7.7},
        "spectral": {"gamma_natural_mhz": 19.6, "qm_bandwidth_mhz": 48.2},
        # Hyperfine offsets of the site-2 ion classes on the pump-design axis
        # (reference transition 5/2g -> 1/2e at zero) and relative transition
        # strengths.  Windows are the two enhancement chirps, applied in order.
        "pump": {
            "ground_offsets": {"1/2g": 224.5, "3/2g": 148.1, "5/2g": 0.0},
            "excited_offsets": {"1/2e": 0.0, "3/2e": 159.1, "5/2e": 431.8},
            "windows": [[274.0, 497.2], [0.0, 223.2]],
            "target": [224.5, 272.7],
            "broadening_mhz": 497.2,
            "strengths": {
                "1/2g:1/2e": 0.56, "1/2g:3/2e": 0.38, "1/2g:5/2e": 0.06,
                "3/2g:1/2e": 0.42, "3/2g:3/2e": 0.42, "3/2g:5/2e": 0.16,
                "5/2g:1/2e": 0.02, "5/2g:3/2e": 0.24, "5/2g:5/2e": 0.74,
            },
            "native_d": {"H": 5.24, "V": 4.66},
            "partial_weight": 0.5,
        },
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
            "apply_storage_residual": True,
            "bootstrap_resamples": 200,
        },
        "scenarios": {
            "ion_photon": {"shots": 62723, "snr": 1800.0, "decoherence_time_us": 1.01},
            "post_qfc": {"shots": 2714, "snr": 19.5, "decoherence_time_us": 2.17},
            "ti_qm": {"heralds": 1780, "snr": 28.0, "decoherence_time_us": 3.17},
            "chsh": {"trials": 3634, "snr": 28.0, "decoherence_time_us": 3.17},
            "afc_sweep": {"t_start_ns": 500.0, "t_stop_ns": 5000.0, "points": 46},
            "bandwidth_sweep": {"df_start_mhz": -60.0, "df_stop_mhz": 60.0, "points": 121},
        },
    }


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated scenario configuration with typed parameter sections."""

    scenario: str
    master_seed: int
    output_dir: str
    ion: IonParams
    jitter: JitterParams
    noise: NoiseParams
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

        scenario = cfg.get("scenario")
        if scenario not in SCENARIOS:
            errors.append(f"scenario: {scenario!r} not one of {SCENARIOS}")
        seed = cfg.get("master_seed")
        if not _integer(seed) or seed < 0:
            errors.append(f"master_seed: expected an explicit nonnegative integer, "
                          f"got {seed!r}")
        out_dir = cfg.get("output_dir")
        if not isinstance(out_dir, str) or not out_dir:
            errors.append(f"output_dir: expected a nonempty string, got {out_dir!r}")

        ion = _build(errors, "ion", _ion_params, cfg)
        jit = _build(errors, "jitter", _jitter_params, cfg)
        noise = _build(errors, "noise", lambda c: NoiseParams(**c["noise"]), cfg)
        comb = _build(errors, "comb", lambda c: CombParams(
            bandwidth_mhz=c["spectral"]["qm_bandwidth_mhz"], **c["comb"]), cfg)
        spectral = _build(errors, "spectral", lambda c: SpectralModel(
            zeeman_split_mhz=c["ion"]["zeeman_frequency_mhz"], **c["spectral"]), cfg)
        _validate_sections(errors, cfg)

        if errors:
            raise ConfigError(errors)
        return cls(scenario=scenario, master_seed=seed, output_dir=out_dir, ion=ion,
                   jitter=jit, noise=noise, comb=comb, spectral=spectral, raw=cfg)

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError([f"config file {path}: {exc}"]) from exc
        except json.JSONDecodeError as exc:
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
        elif k not in base and path[:-1] not in LABEL_MAPS:
            errors.append(f"{key}: unknown field")
        elif isinstance(base.get(k), dict):
            errors.append(f"{key}: expected an object, got {v!r}")
        else:
            base[k] = v


def _build(errors: list, section: str, fn, cfg: dict):
    try:
        return fn(cfg)
    except (TypeError, ValueError, KeyError) as exc:
        errors.append(f"{section}: {exc}")
        return None


def _ion_params(cfg: dict) -> IonParams:
    sec = dict(cfg["ion"])
    freq = sec.pop("zeeman_frequency_mhz")
    if not _finite_number(freq) or freq < 0:
        raise ValueError(f"zeeman_frequency_mhz: expected a finite number >= 0, got {freq!r}")
    return IonParams(zeeman_omega=2 * math.pi * freq * 1e6, **sec)


def _jitter_params(cfg: dict) -> JitterParams:
    sec = dict(cfg["jitter"])
    omega = 2 * math.pi * cfg["ion"]["zeeman_frequency_mhz"] * 1e6
    return JitterParams(zeeman_omega=omega, **sec)


def _validate_sections(errors: list, cfg: dict):
    """Type and range checks; the merge guarantees every default key is present."""
    for key, v in cfg["rates"].items():
        if not _finite_number(v) or v <= 0:
            errors.append(f"rates.{key}: expected a positive finite number, got {v!r}")
    # closed ranges, as the channel constructors enforce them; a white-noise
    # rate costs a Bell state its own value of fidelity, which a depolarizing
    # channel reaches only up to 3/4 (mixing fully to I/4)
    for section, keys, lo, hi in (
            ("pipeline", ("qfc_process_fidelity",), 0, 1),
            ("pipeline", ("excitation_error", "spam_error", "mw_rotation_error",
                          "pi_collection_error"), 0, 0.75),
            ("pipeline", ("decoherence_exponent_a",), 1, 3),
            ("storage", ("eta_internal_h", "eta_internal_v"), 0, 1),
            ("storage", ("residual_infidelity",), 0, 0.5)):
        for key in keys:
            v = cfg[section][key]
            if not _finite_number(v) or not lo <= v <= hi:
                errors.append(f"{section}.{key}: expected a number in [{lo}, {hi}], "
                              f"got {v!r}")
    storage = cfg["storage"]
    for key in ("eta_device_h", "eta_device_v"):  # rate-chain stages, as EfficiencyStage
        v = storage[key]
        if not _finite_number(v) or not 0 < v <= 1:
            errors.append(f"storage.{key}: expected a number in (0, 1], got {v!r}")
    if storage["eta_internal_h"] == storage["eta_internal_v"] == 0:
        errors.append("storage.eta_internal_h, storage.eta_internal_v: both 0, so the "
                      "memory stores nothing")
    for key in ("eta_internal_h", "eta_internal_v"):  # subnormal: the herald underflows
        v = storage[key]
        if _number(v) and 0 < v < sys.float_info.min:
            errors.append(f"storage.{key}: {v!r} is subnormal; expected 0 or at least "
                          f"{sys.float_info.min!r}")
    _validate_pump(errors, cfg["pump"])
    pipeline = cfg["pipeline"]
    v = pipeline["bootstrap_resamples"]
    if not _integer(v) or v < 100:
        errors.append(f"pipeline.bootstrap_resamples: expected an integer >= 100, got {v!r}")
    v = pipeline["apply_storage_residual"]
    if not isinstance(v, bool):
        errors.append(f"pipeline.apply_storage_residual: expected true or false, got {v!r}")
    for scen, key in BUDGET_KEYS.items():
        sec = cfg["scenarios"][scen]
        # at least one shot per measurement setting
        v, least = sec[key], 4 if scen == "chsh" else 9
        if not _integer(v) or v < least:
            errors.append(f"scenarios.{scen}.{key}: expected an integer >= {least}, "
                          f"got {v!r}")
        v = sec["snr"]  # inf allowed: no dark noise
        if not _number(v) or not v > 0:
            errors.append(f"scenarios.{scen}.snr: expected a number > 0, got {v!r}")
        v = sec["decoherence_time_us"]
        if not _finite_number(v) or v < 0:
            errors.append(f"scenarios.{scen}.decoherence_time_us: expected a finite "
                          f"number >= 0, got {v!r}")
    for scen in SWEEP_RANGES:
        _validate_sweep(errors, scen, cfg["scenarios"][scen])


def _number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _finite_number(v) -> bool:
    return _number(v) and math.isfinite(v)


def _integer(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _interval(v) -> bool:
    return (isinstance(v, (list, tuple)) and len(v) == 2 and all(map(_finite_number, v))
            and v[0] < v[1])


def _validate_pump(errors: list, pump: dict):
    """Ordered intervals, finite offsets, nonnegative strengths and depths, a
    positive broadening and a partial weight in [0, 1]."""
    windows, target = pump["windows"], pump["target"]
    if not isinstance(windows, (list, tuple)) or not all(map(_interval, windows)):
        errors.append(f"pump.windows: expected a list of [lo, hi] number pairs with "
                      f"lo < hi, got {windows!r}")
    if not _interval(target):
        errors.append(f"pump.target: expected a [lo, hi] number pair with lo < hi, "
                      f"got {target!r}")
    for key, least in (("ground_offsets", None), ("excited_offsets", None),
                       ("strengths", 0), ("native_d", 0)):
        for label, v in pump[key].items():
            if not _finite_number(v) or (least is not None and v < least):
                bound = "" if least is None else f" >= {least}"
                errors.append(f"pump.{key}.{label}: expected a finite number{bound}, "
                              f"got {v!r}")
    for label in pump["strengths"]:
        ground, _, excited = label.partition(":")
        if ground not in pump["ground_offsets"] or excited not in pump["excited_offsets"]:
            errors.append(f"pump.strengths.{label}: expected a ground:excited pair of "
                          f"pump.ground_offsets and pump.excited_offsets labels")
    v = pump["broadening_mhz"]
    if not _finite_number(v) or v <= 0:
        errors.append(f"pump.broadening_mhz: expected a positive finite number, got {v!r}")
    v = pump["partial_weight"]
    if not _finite_number(v) or not 0 <= v <= 1:
        errors.append(f"pump.partial_weight: expected a number in [0, 1], got {v!r}")


def _validate_sweep(errors: list, scen: str, sec: dict):
    """At least two points over a finite, increasing range (storage times >= 0)."""
    points = sec["points"]
    if not _integer(points) or points < 2:
        errors.append(f"scenarios.{scen}.points: expected an integer >= 2, got {points!r}")
    start_key, stop_key = SWEEP_RANGES[scen]
    start, stop = sec[start_key], sec[stop_key]
    for key, v in ((start_key, start), (stop_key, stop)):
        if not _finite_number(v):
            errors.append(f"scenarios.{scen}.{key}: expected a finite number, got {v!r}")
    if not (_finite_number(start) and _finite_number(stop)):
        return
    if not start < stop:
        errors.append(f"scenarios.{scen}.{start_key}: {start!r} is not below "
                      f"{stop_key} = {stop!r}")
    if scen == "afc_sweep" and start < 0:
        errors.append(f"scenarios.{scen}.{start_key}: storage time {start!r} is negative")


# ---------------------------------------------------------------------------
# derived builders used by the scenario runner


def pump_inputs(cfg: ExperimentConfig):
    """(level_offsets, windows, target, broadening, strengths, native_d, w_partial)."""
    sec = cfg.section("pump")
    ground = sec["ground_offsets"]
    excited = sec["excited_offsets"]
    offsets = {(g, e): ground[g] + excited[e] for g in ground for e in excited}
    strengths = {tuple(k.split(":")): v for k, v in sec["strengths"].items()}
    windows = [tuple(w) for w in sec["windows"]]
    return (offsets, windows, tuple(sec["target"]), sec["broadening_mhz"],
            strengths, dict(sec["native_d"]), sec["partial_weight"])


def rate_chains(cfg: ExperimentConfig) -> dict:
    """Named rate chains and efficiency stage lists from the rates section."""
    r = cfg.section("rates")
    pre = {"branching_sigma": 2.0 / 3.0}
    collection = [
        EfficiencyStage("p_pi", r["p_pi"]),
        EfficiencyStage("p_s12", r["p_s12"]),
        EfficiencyStage("t_fib1", r["t_fib1"]),
        EfficiencyStage("t_opt", r["t_opt"]),
        EfficiencyStage("e_obj", r["e_obj"]),
    ]
    # rate chains use the balanced (2.00 W) conversion efficiency; the
    # polarized pair only enters the per-stage efficiency table
    qfc = [
        EfficiencyStage("eta_369", r["eta_369"]),
        EfficiencyStage("eta_conv", r["eta_conv_h"]),
        EfficiencyStage("t_580", r["t_580"]),
        EfficiencyStage("t_fib2", r["t_fib2"]),
        EfficiencyStage("eta_aom", r["eta_aom"]),
    ]
    storage = cfg.section("storage")
    qm = [
        EfficiencyStage("eta_bw", r["eta_bw"]),
        EfficiencyStage.polarized("eta_storage", storage["eta_device_h"],
                                  storage["eta_device_v"]),
    ]
    chains = {
        "r_369": RateChain("r_369", r["r_exp1_hz"],
                           collection + [EfficiencyStage("qe_369", r["qe_369"])], pre),
        "r_580": RateChain("r_580", r["r_exp2_hz"],
                           collection + [EfficiencyStage("qe_580", r["qe_580"])] + qfc, pre),
        "r_ti_qm": RateChain("r_ti_qm", r["r_exp3_hz"],
                             collection + [EfficiencyStage("qe_580", r["qe_580"])] + qfc + qm,
                             pre),
    }
    overall = [
        EfficiencyStage("eta_369", r["eta_369"]),
        EfficiencyStage("t_580", r["t_580"]),
        EfficiencyStage("t_fib2", r["t_fib2"]),
        EfficiencyStage.polarized("eta_conv", r["eta_conv_h"], r["eta_conv_v"]),
        qm[0], qm[1],
        EfficiencyStage("eta_aom", r["eta_aom"]),
    ]
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
        ("photon_detection_pbs", 1.0 / cfg.noise.pbs_extinction,
         "photon.pbs_bitflip_channel"),
        ("qm_storage", QM_STORAGE_INFIDELITY_PUBLISHED, "measured"),
    )
    return [ErrorSource(name=name, infidelity=float(inf), model_ref=ref)
            for name, inf, ref in table]
