"""Named experiment scenarios and report emission.

The ti_qm pipeline follows the physical chain: emission, ion decoherence,
arrival-time-jitter dephasing, frequency-conversion process matrix, heralded
storage, detection-side bit flip, then tomography with the dark-noise
admixture.  Scalar error rates without microscopic models (pulse excitation,
photon collection, SPAM, microwave rotation) enter as white-noise admixtures
of matched infidelity.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import budget as bd
from . import memory, tomography
from .config import BUDGET_KEYS, ExperimentConfig, error_budget_rows, rate_chains
from .ion import decoherence_channel, emit_entangled_state
from .photon import (
    dark_noise_admixture,
    depolarizing_chi,
    jitter_dephasing_channel,
    pbs_bitflip_channel,
    process_matrix_channel,
)
from .qstate import (
    I2,
    QuantumChannel,
    apply_channel,
    bell_state,
    fidelity,
    kron,
    matrix_to_json_dict,
    werner,
    white_noise_channel,
    round15,
)
from .rng import child_rng
from .tomography import ChshSettings, bootstrap_uncertainty, mle_reconstruct


@dataclass
class RunReport:
    """Outputs of one scenario run; every statistic carries an uncertainty
    or an explicit exact tag."""

    scenario: str
    seed: int
    runtime_s: float = 0.0
    statistics: dict = field(default_factory=dict)
    matrix: np.ndarray | None = None
    budget_rows: list = field(default_factory=list)
    rate_table: list = field(default_factory=list)
    stage_table: list = field(default_factory=list)
    breakdown: list = field(default_factory=list)
    sweep: list = field(default_factory=list)
    sweep_columns: tuple = ()
    counts_records: list = field(default_factory=list)

    def add(self, name: str, value: float, stddev: float | None = None):
        if stddev is None:
            self.statistics[name] = {"value": round15(value), "exact": True}
        else:
            self.statistics[name] = {"value": round15(value), "stddev": round15(stddev)}

    def to_json_dict(self) -> dict:
        # runtime is deliberately not serialized: identical config + seed
        # must produce byte-identical report files
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "statistics": self.statistics,
            "matrix": matrix_to_json_dict(self.matrix) if self.matrix is not None else None,
            "budget": [{"name": r.name, "infidelity": round15(r.infidelity),
                        "model_ref": r.model_ref} for r in self.budget_rows],
            "rates": [{"name": n, "hz": round15(v)} for n, v in self.rate_table],
            "breakdown": [{"stage": n, "fidelity": round15(f)} for n, f in self.breakdown],
        }


def pipeline_channels(cfg: ExperimentConfig, scenario: str) -> list[tuple[str, QuantumChannel]]:
    """Ordered named channels for a tomography scenario (dark noise excluded:
    it is applied at the measurement layer)."""
    pl = cfg.section("pipeline")
    scen = cfg.scenario_section(scenario)
    storage = cfg.section("storage")
    chain: list[tuple[str, QuantumChannel]] = [
        ("pulse_excitation", white_noise_channel(pl["excitation_error"])),
        ("pi_collection", white_noise_channel(pl["pi_collection_error"])),
        ("ion_decoherence", decoherence_channel(cfg.ion, scen["decoherence_time_us"],
                                                pl["decoherence_exponent_a"])),
        ("jitter_dephasing", jitter_dephasing_channel(cfg.jitter)),
    ]
    if scenario in ("post_qfc", "ti_qm", "chsh"):
        chi = depolarizing_chi(pl["qfc_process_fidelity"])
        qfc2 = process_matrix_channel(chi)  # on the photon: I (x) K for each K
        chain.append(("qfc_process", QuantumChannel(kron(I2, qfc2.kraus_ops))))
    if scenario in ("ti_qm", "chsh"):
        chain.append(("qm_storage", memory.storage_channel(storage["eta_internal_h"],
                                                           storage["eta_internal_v"])))
        chain.append(("qm_storage_residual",
                      memory.storage_residual_channel(storage["residual_infidelity"])))
    if scenario in ("post_qfc", "ti_qm", "chsh"):
        chain.append(("pbs_leakage",
                      pbs_bitflip_channel(cfg.section("noise")["pbs_extinction"])))
    chain += [
        ("spam", white_noise_channel(pl["spam_error"])),
        ("mw_rotation", white_noise_channel(pl["mw_rotation_error"])),
    ]
    return chain


def analytic_pipeline_state(cfg: ExperimentConfig, scenario: str):
    """(post-selected state before dark noise, herald probability, breakdown).

    The breakdown lists the fidelity against the phase-zero target after each
    stage, post-selected where the chain is heralded.
    """
    target = bell_state(0.0)
    state = emit_entangled_state(cfg.ion, t_elapsed_ns=0.0).density()
    herald_prob = 1.0
    breakdown = [("emission", fidelity(state, target))]
    for name, ch in pipeline_channels(cfg, scenario):
        state = apply_channel(state, ch)
        if not ch.trace_preserving:
            herald_prob *= state.trace
            state = state.renormalized()
        breakdown.append((name, fidelity(state, target)))
    return state, herald_prob, breakdown


def analytic_fidelity(cfg: ExperimentConfig, scenario: str) -> float:
    """Infinite-shot pipeline fidelity including the dark-noise admixture."""
    state, _, _ = analytic_pipeline_state(cfg, scenario)
    snr = cfg.scenario_section(scenario)["snr"]
    return fidelity(dark_noise_admixture(state, snr), bell_state(0.0))


def run(cfg: ExperimentConfig) -> RunReport:
    """Execute the configured scenario; deterministic for a fixed config+seed."""
    t0 = time.perf_counter()
    runner = {
        "ion_photon": _run_tomography,
        "post_qfc": _run_tomography,
        "ti_qm": _run_tomography,
        "chsh": _run_chsh,
        "budget": _run_budget,
        "afc_sweep": _run_afc_sweep,
        "bandwidth_sweep": _run_bandwidth_sweep,
    }[cfg.scenario]
    report = runner(cfg)
    report.runtime_s = time.perf_counter() - t0
    return report


def _run_tomography(cfg: ExperimentConfig) -> RunReport:
    scen = cfg.scenario_section()
    report = RunReport(scenario=cfg.scenario, seed=cfg.master_seed)
    state, herald_prob, breakdown = analytic_pipeline_state(cfg, cfg.scenario)
    report.breakdown = breakdown
    snr = scen["snr"]
    target = bell_state(0.0)
    report.add("analytic_fidelity", fidelity(dark_noise_admixture(state, snr), target))
    report.add("herald_probability", herald_prob)

    total = int(scen[BUDGET_KEYS[cfg.scenario]])
    per_setting = tomography.split_heralds(total)
    shots_map = {(s.ion_axis, s.photon_axis): n
                 for s, n in zip(tomography.all_settings(), per_setting)}
    records = tomography.simulate_tomography(
        state, shots_map, snr, child_rng(cfg.master_seed, "tomography"))
    rho = mle_reconstruct(records)
    report.matrix = rho.matrix
    f_mle = fidelity(rho, target)
    n_boot = cfg.section("pipeline")["bootstrap_resamples"]
    _, f_std = bootstrap_uncertainty(records, n_boot, "fidelity",
                                     child_rng(cfg.master_seed, "bootstrap"))
    report.add("mle_fidelity", f_mle, f_std)
    report.add("total_trials", total)
    report.counts_records = records
    return report


def _run_chsh(cfg: ExperimentConfig) -> RunReport:
    scen = cfg.scenario_section()
    report = RunReport(scenario=cfg.scenario, seed=cfg.master_seed)
    # Equivalent-visibility model: a Werner state matched to the pipeline
    # fidelity, measured at the optimal angles through the noisy detection
    # chain (dark admixture applied at measurement, as in tomography).
    f_pipe = analytic_fidelity(cfg, "chsh")
    visibility = (4 * f_pipe - 1) / 3
    state = werner(visibility)
    settings = ChshSettings.optimal()
    snr = scen["snr"]
    s_analytic = tomography.chsh(dark_noise_admixture(state, snr), settings)
    report.add("pipeline_fidelity", f_pipe)
    report.add("werner_visibility", visibility)
    report.add("chsh_analytic", s_analytic)
    s_mc, s_err = tomography.simulate_chsh(state, settings, int(scen["trials"]), snr,
                                           child_rng(cfg.master_seed, "chsh"))
    report.add("chsh", s_mc, s_err)
    report.add("total_trials", int(scen["trials"]))
    return report


def _run_budget(cfg: ExperimentConfig) -> RunReport:
    report = RunReport(scenario=cfg.scenario, seed=cfg.master_seed)
    tables = rate_chains(cfg)
    chains = tables["chains"]
    report.rate_table = [(name, bd.rate(chain)) for name, chain in chains.items()]
    eta_qfc = bd.end_to_end_efficiency(tables["qfc_stages"])
    eta_qm = bd.end_to_end_efficiency(tables["qm_stages"])
    report.add("eta_qfc", eta_qfc)
    report.add("eta_qm", eta_qm)
    report.add("eta_overall", eta_qfc * eta_qm)
    rates_sec = cfg.section("rates")
    snr, p_noise = bd.snr_and_noise_rate(rates_sec["signal_rate_hz"],
                                         rates_sec["noise_rate_hz"])
    report.add("snr", snr)
    report.add("noise_fraction", p_noise)
    rows = error_budget_rows(cfg)
    report.budget_rows = rows
    report.add("total_infidelity_sum", bd.total_infidelity(rows, "sum"))
    report.add("total_infidelity_product", bd.total_infidelity(rows, "product"))
    report.add("predicted_fidelity", 1 - bd.total_infidelity(rows, "sum"))
    report.add("analytic_pipeline_fidelity", analytic_fidelity(cfg, "ti_qm"))
    report.stage_table = tables["overall_stages"]
    return report


def _run_afc_sweep(cfg: ExperimentConfig) -> RunReport:
    scen = cfg.scenario_section()
    report = RunReport(scenario=cfg.scenario, seed=cfg.master_seed)
    ts = np.linspace(scen["t_start_ns"], scen["t_stop_ns"], int(scen["points"]))
    report.sweep_columns = ("t_storage_ns", "afc_efficiency")
    report.sweep = [(round15(t), round15(memory.afc_efficiency(cfg.comb, t))) for t in ts]
    report.add("efficiency_at_500ns", memory.afc_efficiency(cfg.comb, 500.0))
    report.add("efficiency_at_1us", memory.afc_efficiency(cfg.comb, 1000.0))
    return report


def _run_bandwidth_sweep(cfg: ExperimentConfig) -> RunReport:
    scen = cfg.scenario_section()
    report = RunReport(scenario=cfg.scenario, seed=cfg.master_seed)
    dfs = np.linspace(scen["df_start_mhz"], scen["df_stop_mhz"], int(scen["points"]))
    rows = []
    for df in dfs:
        model = replace(cfg.spectral, detuning_mhz=float(df))
        rows.append((round15(float(df)), round15(memory.bandwidth_match(model))))
    report.sweep_columns = ("detuning_mhz", "bandwidth_match")
    report.sweep = rows
    report.add("peak_bandwidth_match", max(v for _, v in rows))
    return report


# ---------------------------------------------------------------------------
# report emission


def _write(path: Path, text: str) -> Path:
    """Create or truncate ``path`` and write ``text`` to it as UTF-8 bytes,
    in one write call unless the kernel takes fewer bytes."""
    data = memoryview(text.encode())
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        while data:
            data = data[os.write(fd, data):]
    finally:
        os.close(fd)
    return path


def _matrix_json(matrix: dict) -> str:
    """json.dumps(matrix, indent=2, sort_keys=True) of a {dim, re, im}
    document.  indent= makes json fall back to its pure-Python encoder, so
    the two float lists go through the C encoder in one call and are then
    laid out one entry per line (no float's text holds "," or "]")."""
    im, re = json.dumps((matrix["im"], matrix["re"]))[2:-2].split("], [")

    def column(text: str) -> str:
        return "[\n    " + text.replace(", ", ",\n    ") + "\n  ]" if text else "[]"
    return (f'{{\n  "dim": {matrix["dim"]},\n  "im": {column(im)},'
            f'\n  "re": {column(re)}\n}}')


def emit_report(report: RunReport, out_dir: str | Path, fmt: str = "json") -> list[Path]:
    """Write the report files; filenames embed scenario and seed.

    ``fmt`` selects the summary flavor ("json" or "csv"); the matrix JSON and
    any tables are always written when present.
    """
    if fmt not in ("json", "csv"):
        raise ValueError(f"unknown format {fmt!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{report.scenario}_seed{report.seed}"

    doc = report.to_json_dict()
    matrix = doc["matrix"]
    text = json.dumps({**doc, "matrix": None}, indent=2, sort_keys=True) + "\n"
    if matrix is not None:
        # the matrix is encoded once; in the summary it sits one level deeper,
        # on the top-level "matrix" line (two spaces: no nested key matches)
        matrix_text = _matrix_json(matrix)
        text = text.replace('\n  "matrix": null,\n',
                            '\n  "matrix": ' + matrix_text.replace("\n", "\n  ") + ",\n", 1)
    written = [_write(out / f"{stem}_summary.json", text)]

    if matrix is not None:
        written.append(_write(out / f"{stem}_matrix.json", matrix_text + "\n"))
    if report.budget_rows:
        written.append(_write(out / f"{stem}_error_budget.csv",
                              bd.error_budget_csv(report.budget_rows)))
    if report.stage_table:
        written.append(_write(out / f"{stem}_stages.csv", bd.stage_table_csv(report.stage_table)))
    if report.rate_table:
        written.append(_write(out / f"{stem}_rates.csv", bd.rate_table_csv(report.rate_table)))
    if report.sweep:
        lines = [",".join(report.sweep_columns)]
        lines += [",".join(f"{v:.15g}" for v in row) for row in report.sweep]
        written.append(_write(out / f"{stem}_sweep.csv", "\n".join(lines) + "\n"))
    if report.counts_records:
        written.append(_write(out / f"{stem}_counts.csv",
                              tomography.records_to_csv(report.counts_records)))
    if fmt == "csv":
        lines = ["statistic,value,stddev_or_exact"]
        for name, entry in sorted(report.statistics.items()):
            tag = "exact" if entry.get("exact") else f"{entry.get('stddev'):.15g}"
            lines.append(f"{name},{entry['value']:.15g},{tag}")
        written.append(_write(out / f"{stem}_summary.csv", "\n".join(lines) + "\n"))
    return written
