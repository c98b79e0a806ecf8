"""Named experiment scenarios and report emission.

The ti_qm pipeline follows the physical chain: emission, ion decoherence,
arrival-time-jitter dephasing, frequency-conversion process matrix, heralded
storage, detection-side bit flip, then tomography with the dark-noise
admixture.  Scalar error rates without microscopic models (pulse excitation,
photon collection, SPAM, microwave rotation) enter as white-noise admixtures
of matched infidelity.  Each stage is the closed-form Pauli transfer map of
its channel, applied to the state's 16 Pauli expectations (Greenbaum,
arXiv:1509.02921, sec. 2); one checked density matrix is built at the end.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import budget as bd
from . import memory, qstate, rules, tomography
from .config import BUDGET_KEYS, ExperimentConfig, error_budget_rows, rate_chains
from .ion import decoherence_coherence, emit_entangled_state
from .photon import PBS_EXTINCTION, dark_noise_admixture, jitter_coherence
from .qstate import bell_state, fidelity, werner
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
    sweep: list = field(default_factory=list)  # unrounded: the CSV's "%.15g" rounds
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


# The scenarios whose state runs through the pipeline: the tomography ones.
PIPELINE_SCENARIOS = ("ion_photon", "post_qfc", "ti_qm")


def _white_noise(bell_infidelity: float) -> np.ndarray:
    """(1 - q) rho + q I/4, q = eps/(3/4): a factor 1 - q on every Pauli but II."""
    q = qstate.unit_interval("depolarizing probability", bell_infidelity / 0.75)
    return np.array([1.0] + [1 - q] * 15)


def pipeline_stages(cfg: ExperimentConfig, scenario: str) -> list[tuple[str, np.ndarray]]:
    """Ordered named stages of a tomography scenario (dark noise is applied at the
    measurement layer) as maps of the Pauli vector r_k = tr(P_k rho), P_k = PAULIS_2Q[k]
    = P_a (x) P_b at k = 4 a + b: a Pauli-diagonal stage as its 16 factors (np.repeat of
    one-qubit factors on the ion a, np.tile on the photon b), the heralded storage
    diag(sqrt eta_H, sqrt eta_V) as a (4, 4) map of b.  Each checks its inputs as its
    Kraus builder does; a scenario without a pipeline raises ValueError."""
    if scenario not in PIPELINE_SCENARIOS:
        raise ValueError(f"scenario {scenario!r} has no pipeline: expected one of "
                         f"{', '.join(PIPELINE_SCENARIOS)}")
    pl, storage = cfg.section("pipeline"), cfg.section("storage")
    c_ion = qstate.unit_interval("coherence factor", decoherence_coherence(
        cfg.ion, cfg.scenario_section(scenario)["decoherence_time_us"],
        pl["decoherence_exponent_a"]))
    c_jitter = qstate.unit_interval("coherence factor", jitter_coherence(cfg.jitter))
    chain = [("pulse_excitation", _white_noise(pl["excitation_error"])),
             ("pi_collection", _white_noise(pl["pi_collection_error"])),
             ("ion_decoherence", np.repeat((1.0, c_ion, c_ion, 1.0), 4)),
             ("jitter_dephasing", np.repeat((1.0, c_jitter, c_jitter, 1.0), 4))]
    if scenario in ("post_qfc", "ti_qm"):
        f = pl["qfc_process_fidelity"]
        rules.check("process_fidelity", rules.PROBABILITY, f)
        chain.append(("qfc_process", np.tile((1.0, *[f - (1 - f) / 3] * 3), 4)))
    if scenario == "ti_qm":
        eta_h, eta_v, eps = (storage[k] for k in ("eta_internal_h", "eta_internal_v",
                                                  "residual_infidelity"))
        rules.check("eta_h", rules.PROBABILITY, eta_h)
        rules.check("eta_v", rules.PROBABILITY, eta_v)
        s, d = (eta_h + eta_v) / 2, (eta_h - eta_v) / 2
        c = math.sqrt(eta_h) * math.sqrt(eta_v)  # sqrt(eta_h * eta_v) can underflow
        chain.append(("qm_storage", np.array([[s, 0, 0, d], [0, c, 0, 0], [0, 0, c, 0],
                                              [d, 0, 0, s]])))
        rules.check("avg_infidelity", memory.RESIDUAL_INFIDELITY, eps)
        chain.append(("qm_storage_residual", np.tile((1.0, 1 - 2 * eps, 1 - 2 * eps, 1.0), 4)))
    if scenario in ("post_qfc", "ti_qm"):
        extinction = cfg.section("noise")["pbs_extinction"]
        rules.check("extinction", PBS_EXTINCTION, extinction)
        flip = 1 - 2 * qstate.unit_interval("flip probability", 1.0 / extinction)
        chain.append(("pbs_leakage", np.tile((1.0, 1.0, flip, flip), 4)))
    return chain + [("spam", _white_noise(pl["spam_error"])),
                    ("mw_rotation", _white_noise(pl["mw_rotation_error"]))]


def analytic_pipeline_state(cfg: ExperimentConfig, scenario: str):
    """(post-selected state before dark noise, herald probability, breakdown).

    The chain acts on the Pauli vector r; the state is built and checked once, at
    the end.  The breakdown lists the fidelity against the phase-zero target after
    each stage, post-selected where heralded: (r_II + r_ZZ)/4 + (r_XX - r_YY)/4.
    A scenario outside PIPELINE_SCENARIOS raises ValueError.
    """
    rho = emit_entangled_state(cfg.ion, t_elapsed_ns=0.0).density()
    r = np.einsum("kab,ba->k", qstate.PAULIS_2Q, rho.matrix).real
    herald_prob, breakdown = 1.0, []
    for name, m in [("emission", np.ones(16))] + pipeline_stages(cfg, scenario):
        if m.ndim == 1:
            r = r * m
        else:  # heralded: post-select
            r = (r.reshape(4, 4) @ m.T).reshape(16)
            if r[0] <= 0.0:
                raise qstate.StateError("cannot renormalize a zero-trace state")
            herald_prob *= float(r[0])
            r = r / r[0]
        breakdown.append((name, min(max(float(r[0] + r[15] + r[5] - r[10]) / 4, 0.0), 1.0)))
    rho = qstate.DensityMatrix(np.einsum("k,kab->ab", r, qstate.PAULIS_2Q) / 4)
    return rho, herald_prob, breakdown


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
    state, herald_prob, report.breakdown = analytic_pipeline_state(cfg, cfg.scenario)
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
    # Equivalent-visibility model: a Werner state matched to the fidelity of
    # the ti_qm link, measured at the optimal angles through the noisy
    # detection chain (dark admixture applied at measurement, as in tomography).
    f_pipe = analytic_fidelity(cfg, "ti_qm")
    visibility = (4 * f_pipe - 1) / 3
    state = werner(visibility)
    settings = ChshSettings.optimal()
    snr = cfg.scenario_section("ti_qm")["snr"]
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
    ts = np.linspace(scen["t_start_ns"], scen["t_stop_ns"], int(scen["points"])).tolist()
    report.sweep_columns = ("t_storage_ns", "afc_efficiency")
    report.sweep = [(t, memory.afc_efficiency(cfg.comb, t)) for t in ts]
    report.add("efficiency_at_500ns", memory.afc_efficiency(cfg.comb, 500.0))
    report.add("efficiency_at_1us", memory.afc_efficiency(cfg.comb, 1000.0))
    return report


def _run_bandwidth_sweep(cfg: ExperimentConfig) -> RunReport:
    scen = cfg.scenario_section()
    report = RunReport(scenario=cfg.scenario, seed=cfg.master_seed)
    dfs = np.linspace(scen["df_start_mhz"], scen["df_stop_mhz"], int(scen["points"])).tolist()
    sp = cfg.spectral
    # each point's model from the constructor, which runs the rules that
    # dataclasses.replace would, at less cost
    matches = [memory.bandwidth_match(memory.SpectralModel(
        sp.gamma_natural_mhz, sp.zeeman_split_mhz, sp.qm_bandwidth_mhz, df)) for df in dfs]
    report.sweep_columns = ("detuning_mhz", "bandwidth_match")
    report.sweep = list(zip(dfs, matches))
    report.add("peak_bandwidth_match", max(matches))
    return report


# ---------------------------------------------------------------------------
# report text: every report file is built here, its JSON by _json_text and
# its CSV by _csv


def round15(x: float) -> float:
    # fixed 15-significant-digit round-trip keeps reports byte-stable
    return float(f"{float(x):.15g}")


def round15_all(values: list) -> list[float]:
    """round15 of each value, in one "%.15g" formatting pass."""
    return list(map(float, ("%.15g " * len(values) % tuple(values)).split()))


def matrix_to_json_dict(m: np.ndarray) -> dict:
    """{dim, re, im} with row-major arrays, every entry rounded as round15
    does, all in one "%.15g" formatting pass."""
    a = np.asarray(m, dtype=complex)
    n = a.size
    rounded = round15_all(np.concatenate((a.real.reshape(-1), a.imag.reshape(-1))).tolist())
    return {"dim": a.shape[0], "re": rounded[:n], "im": rounded[n:]}


def _csv(rows) -> str:
    """Fields joined by "," and each row ended by "\n".  This is the text of
    csv.writer(lineterminator="\n") wherever no field holds ",", '"', "\r"
    or "\n" and no row is one empty field, as in every report table."""
    return "".join([",".join(row) + "\n" for row in rows])


def error_budget_csv(sources) -> str:
    """Ledger table: one row per source plus the first-order (summed) total."""
    return _csv([("error_source", "infidelity_percent", "model_ref"),
                 *((s.name, f"{s.infidelity * 100:.6g}", s.model_ref or "") for s in sources),
                 ("total", f"{bd.total_infidelity(sources) * 100:.6g}", "sum")])


def stage_table_csv(stages) -> str:
    """Efficiency table with per-polarization columns and the overall product."""
    return _csv([("stage", "efficiency_H_percent", "efficiency_V_percent"),
                 *((s.name, f"{s.resolved('H') * 100:.6g}", f"{s.resolved('V') * 100:.6g}")
                   for s in stages),
                 ("overall", f"{bd.end_to_end_efficiency(stages, 'H') * 100:.6g}",
                  f"{bd.end_to_end_efficiency(stages, 'V') * 100:.6g}")])


def rate_table_csv(chains_with_rates) -> str:
    return _csv([("chain", "rate_hz"),
                 *((name, f"{value:.6g}") for name, value in chains_with_rates)])


def records_to_csv(records: list[tomography.CountRecord]) -> str:
    """CSV export: setting_ion, setting_photon, n_pp, n_pm, n_mp, n_mm."""
    return _csv([("setting_ion", "setting_photon", "n_pp", "n_pm", "n_mp", "n_mm"),
                 *((r.setting.ion_axis, r.setting.photon_axis, *[f"{c:.15g}" for c in r.counts])
                   for r in records)])


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


def _json_text(value, newline: str = "\n") -> str:
    """json.dumps(value, indent=2, sort_keys=True) of a tree with str keys,
    at the nesting whose line break and indent is ``newline``.  The indent=
    path of json is its pure-Python encoder; this one calls a function per
    value, not a generator per container, and hands a non-empty list whose
    items are all floats to json's C encoder in one call (no float's text
    holds ", ").  A value json cannot encode, and a key that is not a str,
    raise TypeError; a circular tree raises RecursionError."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == math.inf:
            return "Infinity"
        if value == -math.inf:
            return "-Infinity"
        return float.__repr__(value)
    inner = newline + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if {*map(type, value)} == {float}:
            items = json.dumps(value)[1:-1].split(", ")
        else:
            items = [_json_text(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [encode_basestring_ascii(k) + ": " + _json_text(v, inner)
                 for k, v in sorted(value.items())]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def emit_report(report: RunReport, out_dir: str | Path, fmt: str = "json") -> list[Path]:
    """Write the report files; filenames embed scenario and seed.

    The JSON summary, the matrix JSON and any tables are always written when
    present; ``fmt="csv"`` writes a CSV summary as well ("json" or "csv").
    """
    if fmt not in ("json", "csv"):
        raise ValueError(f"unknown format {fmt!r}")
    out = Path(out_dir)
    stem = f"{report.scenario}_seed{report.seed}"

    doc = report.to_json_dict()
    matrix = doc["matrix"]
    text = _json_text({**doc, "matrix": None}) + "\n"
    if matrix is not None:
        # the matrix is encoded once; in the summary it sits one level deeper,
        # on the top-level "matrix" line (two spaces: no nested key matches)
        matrix_text = _json_text(matrix)
        text = text.replace('\n  "matrix": null,\n',
                            '\n  "matrix": ' + matrix_text.replace("\n", "\n  ") + ",\n", 1)
    summary = out / f"{stem}_summary.json"
    try:
        written = [_write(summary, text)]
    except (FileNotFoundError, NotADirectoryError):
        # out_dir is missing (or a file, which mkdir reports); an existing
        # directory costs no stat per report
        out.mkdir(parents=True, exist_ok=True)
        written = [_write(summary, text)]

    if matrix is not None:
        written.append(_write(out / f"{stem}_matrix.json", matrix_text + "\n"))
    if report.budget_rows:
        written.append(_write(out / f"{stem}_error_budget.csv",
                              error_budget_csv(report.budget_rows)))
    if report.stage_table:
        written.append(_write(out / f"{stem}_stages.csv", stage_table_csv(report.stage_table)))
    if report.rate_table:
        written.append(_write(out / f"{stem}_rates.csv", rate_table_csv(report.rate_table)))
    if report.sweep:
        written.append(_write(out / f"{stem}_sweep.csv", _csv(
            [report.sweep_columns, *([f"{v:.15g}" for v in values] for values in report.sweep)])))
    if report.counts_records:
        written.append(_write(out / f"{stem}_counts.csv", records_to_csv(report.counts_records)))
    if fmt == "csv":
        written.append(_write(out / f"{stem}_summary.csv", _csv(
            [("statistic", "value", "stddev_or_exact"),
             *((name, f"{entry['value']:.15g}",
                "exact" if entry.get("exact") else f"{entry.get('stddev'):.15g}")
               for name, entry in sorted(report.statistics.items()))])))
    return written
