"""The benchmark's workloads: what one operation runs and how it is checked.

Each workload has ``run(hq, seed, out)``, the timed operation, which returns
what it made; and ``check(hq, seed, out, made)``, run after the timer stops,
which returns the problems found.  ``memory_design`` runs scenarios through
the command-line entry point, ``hqlink.cli.main``, in-process.  The
tomography workloads call the package's public functions as the tomography
scenarios do and write their reports with ``emit_report``.  The benchmark
hands the program a seed; nothing else about the program changes.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

# Span name -> "module:qualname" targets wrapped by the traced run.
HOOKS = {
    "config.build": ["hqlink.config:ExperimentConfig.defaults",
                     "hqlink.config:ExperimentConfig.from_dict",
                     "hqlink.config:ExperimentConfig.with_overrides"],
    "scenarios.analytic": ["hqlink.scenarios:analytic_pipeline_state",
                           "hqlink.scenarios:analytic_fidelity"],
    "ion.channel": ["hqlink.ion:emit_entangled_state", "hqlink.ion:decoherence_channel"],
    "photon.channel": ["hqlink.photon:jitter_dephasing_channel",
                       "hqlink.photon:depolarizing_chi",
                       "hqlink.photon:process_matrix_channel",
                       "hqlink.photon:pbs_bitflip_channel",
                       "hqlink.photon:dark_noise_admixture"],
    "scenarios.emit": ["hqlink.scenarios:emit_report"],
    "tomography.sample": ["hqlink.tomography:simulate_tomography"],
    "tomography.chsh": ["hqlink.tomography:simulate_chsh"],
    "tomography.mle": ["hqlink.tomography:mle_reconstruct"],
    "tomography.bootstrap": ["hqlink.tomography:bootstrap_uncertainty"],
    "qstate.fidelity": ["hqlink.qstate:fidelity"],
    "memory.bandwidth_match": ["hqlink.memory:bandwidth_match"],
    "memory.effective_depth": ["hqlink.memory:effective_depth"],
    "budget": ["hqlink.budget:rate", "hqlink.budget:end_to_end_efficiency",
               "hqlink.budget:total_infidelity"],
}

# Resamples per bootstrap in the traced ti_qm_link run: the least
# bootstrap_uncertainty takes.
BOOTSTRAP_RESAMPLES = 100
# Published fidelities, and the bands their analytic models must fall in.
TI_QM_FIDELITY = 0.892
TI_QM_ANALYTIC = (0.88, 0.91)
ION_PHOTON_FIDELITY = 0.955
ION_PHOTON_ANALYTIC = (0.945, 0.965)
# SD of the MLE fidelity over fresh datasets at the published defaults: 600
# ti_qm datasets (mean 0.8986) and 360 ion_photon ones (mean 0.9542).  A
# point fit must land within BAND_SDS of them around the published value.
# Ten 30 s runs of each tomography workload check some 5 000 datasets, and the
# means sit 0.4 SD from the published values, so a 4-SD band would flag about
# one sound dataset in every such set.
TI_QM_SD = 0.015
ION_PHOTON_SD = 0.0019
BAND_SDS = 5

@dataclass
class OpResult:
    """Outcome of one operation: problems found, report digest and size."""

    problems: list = field(default_factory=list)
    digest: str = ""
    report_bytes: int = 0
    detail: dict = field(default_factory=dict)


def call_cli(hq, argv: list[str]) -> tuple[int, str]:
    """Run the CLI in-process with its console output captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        rc = hq.cli.main(argv)
    return rc, buf.getvalue()


def report_digest(out: Path) -> tuple[str, int]:
    """sha256 over every report file's name and bytes, and their total size."""
    h = hashlib.sha256()
    size = 0
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        h.update(path.name.encode() + b"\0" + data)
        size += len(data)
    return h.hexdigest(), size


def _summary(out: Path, scenario: str, seed: int) -> dict:
    return json.loads((out / f"{scenario}_seed{seed}_summary.json").read_text())


def _within(problems: list, label: str, value: float, lo: float, hi: float):
    if not (lo <= value <= hi):
        problems.append(f"{label} = {value!r} outside [{lo}, {hi}]")


def _near(problems: list, label: str, value: float, ref: float, rel: float):
    _within(problems, label, value, ref * (1 - rel), ref * (1 + rel))


def _check_density_matrix(problems: list, m):
    import numpy as np
    if np.max(np.abs(m - m.conj().T)) > 1e-9:
        problems.append("reconstructed matrix is not Hermitian")
    if abs(np.trace(m).real - 1.0) > 1e-9:
        problems.append(f"reconstructed matrix trace {np.trace(m).real!r} != 1")
    if np.linalg.eigvalsh((m + m.conj().T) / 2).min() < -1e-9:
        problems.append("reconstructed matrix is not positive semidefinite")


def _log_likelihood(hq, records, m) -> float:
    """Multinomial log-likelihood of the counts under state matrix m."""
    import numpy as np
    total = 0.0
    for r in records:
        p = np.real(np.einsum("nij,ji->n", hq.tomography.setting_projectors(r.setting), m))
        c = np.asarray(r.counts)
        total += float(c[c > 0] @ np.log(p[c > 0]))
    return total


class Tomography:
    """Shared set-up and checks of the two tomography workloads."""

    name: str
    scenario: str
    # wall_s is the median operation: each one fits a fresh dataset, and a
    # run's few hundred of them spread with the data.
    wall_q = 50.0

    def prepare(self, hq, work: Path):
        cfg = hq.config.ExperimentConfig.defaults(self.scenario)
        sec = cfg.scenario_section()
        self.snr = sec["snr"]
        self.total = int(sec.get("heralds") or sec.get("shots"))
        self.state, _, _ = hq.scenarios.analytic_pipeline_state(cfg, self.scenario)
        self.analytic = hq.scenarios.analytic_fidelity(cfg, self.scenario)
        # the distribution the counts are drawn from
        self.source = hq.photon.dark_noise_admixture(self.state, self.snr).matrix

    def shot_map(self, hq) -> dict:
        per_setting = hq.tomography.split_heralds(self.total)
        return {(s.ion_axis, s.photon_axis): n
                for s, n in zip(hq.tomography.all_settings(), per_setting)}

    def check_fit(self, hq, problems: list, records, rho):
        n = sum(r.shots for r in records)
        if n != self.total:
            problems.append(f"sampled {n} shots, expected {self.total}")
        _check_density_matrix(problems, rho.matrix)
        # the maximum-likelihood state can be no less likely than the source
        ll_fit = _log_likelihood(hq, records, rho.matrix)
        ll_src = _log_likelihood(hq, records, self.source)
        if ll_fit < ll_src - 1e-9 * abs(ll_src):
            problems.append(f"MLE log-likelihood {ll_fit!r} below the source state's {ll_src!r}")


class LinkRun(Tomography):
    """The ``ti_qm`` scenario on its published dataset: the traced run of
    ``ti_qm_link``.

    One operation does what ``hqlink --scenario ti_qm`` does, through the same
    public functions: config, analytic pipeline state and fidelity, the
    counts, the MLE fit, a bootstrap of the fidelity and ``emit_report``.  The
    counts are the published run's (drawn from ``master_seed``); the seed
    drives the bootstrap resampling, whose 100 resamples are 100 fresh
    low-count datasets.  One operation takes 6-10 s, and identical operations
    differ by up to a quarter on a noisy host, so the few a run holds give no
    steady wall time; the untraced run times point fits instead.
    """

    name = "ti_qm_link"
    scenario = "ti_qm"

    def run(self, hq, seed: int, out: Path) -> dict:
        cfg = hq.config.ExperimentConfig.defaults(self.scenario)
        state, _, _ = hq.scenarios.analytic_pipeline_state(cfg, self.scenario)
        analytic = hq.scenarios.analytic_fidelity(cfg, self.scenario)
        records = hq.tomography.simulate_tomography(
            state, self.shot_map(hq), self.snr, hq.rng.child_rng(cfg.master_seed, "tomography"))
        rho = hq.tomography.mle_reconstruct(records)
        f = hq.qstate.fidelity(rho, hq.qstate.bell_state(0.0))
        _, f_std = hq.tomography.bootstrap_uncertainty(
            records, BOOTSTRAP_RESAMPLES, "fidelity", hq.rng.child_rng(seed, "bootstrap"))
        report = hq.scenarios.RunReport(scenario=self.scenario, seed=seed)
        report.matrix = rho.matrix
        report.counts_records = records
        report.add("analytic_fidelity", analytic)
        report.add("mle_fidelity", f, f_std)
        report.add("total_trials", self.total)
        hq.scenarios.emit_report(report, out)
        return {"records": records, "rho": rho, "analytic": analytic,
                "fidelity": f, "fidelity_std": f_std}

    def check(self, hq, seed: int, out: Path, made: dict) -> list[str]:
        p = []
        self.check_fit(hq, p, made["records"], made["rho"])
        _within(p, "analytic_fidelity", made["analytic"], *TI_QM_ANALYTIC)
        f, sd = made["fidelity"], made["fidelity_std"]
        if not (sd > 0 and abs(f - TI_QM_FIDELITY) <= 3 * sd):
            p.append(f"mle_fidelity {f!r} not within 3 bootstrap sigma ({sd!r}) "
                     f"of {TI_QM_FIDELITY}")
        return p

    def expected_calls(self) -> dict:
        """Span name -> (min, max) calls in one traced operation; None = no max."""
        fits = 1 + BOOTSTRAP_RESAMPLES
        return {
            "config.build": (1, None), "scenarios.analytic": (2, None),
            "ion.channel": (1, None), "photon.channel": (1, None),
            "tomography.sample": (1, 1), "tomography.mle": (fits, fits),
            "tomography.bootstrap": (1, 1), "qstate.fidelity": (fits, None),
            "scenarios.emit": (1, 1), "tomography.chsh": (0, 0),
            "memory.bandwidth_match": (0, 0), "memory.effective_depth": (0, 0),
            "budget": (0, 0),
        }


class PointFit(Tomography):
    """Tomography of one fresh dataset per operation: sample the counts, fit
    the MLE state, score its fidelity and write the report.

    The state, shot budget and SNR are the scenario's published defaults; a
    run covers hundreds of datasets.  ``traced``, when given, is the
    operation the traced run times instead.
    """

    def __init__(self, name: str, scenario: str, fidelity: float, sd: float,
                 analytic: tuple[float, float], traced=None):
        self.name = name
        self.scenario = scenario
        self.fidelity = fidelity
        self.band = BAND_SDS * sd
        self.analytic_band = analytic
        self.traced = traced

    def prepare(self, hq, work: Path):
        super().prepare(hq, work)
        self.shots = self.shot_map(hq)

    def run(self, hq, seed: int, out: Path) -> dict:
        records = hq.tomography.simulate_tomography(
            self.state, self.shots, self.snr, hq.rng.child_rng(seed, "tomography"))
        rho = hq.tomography.mle_reconstruct(records)
        f = hq.qstate.fidelity(rho, hq.qstate.bell_state(0.0))
        report = hq.scenarios.RunReport(scenario=self.scenario, seed=seed)
        report.matrix = rho.matrix
        report.counts_records = records
        report.add("total_trials", self.total)
        hq.scenarios.emit_report(report, out)
        return {"records": records, "rho": rho, "fidelity": f}

    def check(self, hq, seed: int, out: Path, made: dict) -> list[str]:
        p = []
        self.check_fit(hq, p, made["records"], made["rho"])
        _within(p, "analytic_fidelity", self.analytic, *self.analytic_band)
        _within(p, "mle_fidelity", made["fidelity"], self.fidelity - self.band,
                self.fidelity + self.band)
        return p

    def expected_calls(self) -> dict:
        return {
            "tomography.sample": (1, 1), "tomography.mle": (1, 1),
            "qstate.fidelity": (1, 1), "photon.channel": (1, None),
            "scenarios.emit": (1, 1), "tomography.bootstrap": (0, 0),
            "tomography.chsh": (0, 0), "memory.bandwidth_match": (0, 0),
            "memory.effective_depth": (0, 0), "budget": (0, 0),
        }


class MemoryDesign:
    """Memory design batch: band-match and AFC sweeps, rate budget, CHSH model,
    pump plan and effective depth for H and V.

    No tomography runs here; the adaptive quadrature in
    ``memory.bandwidth_match`` (121 sweep points) dominates the batch.  Only
    the CHSH sampling depends on the seed.
    """

    name = "memory_design"
    scenarios = ("bandwidth_sweep", "afc_sweep", "budget", "chsh")
    traced = None
    # wall_s is the 95th percentile of a run's 12-20 batch times.  Every batch
    # does the same work, but a shared host runs it at two speeds (about 1.3 s
    # while its neighbours idle, 2.5 s while they are busy on a 2-core Xeon
    # VM) for tens of seconds to minutes at a time.  The median follows the
    # share of the run spent at each speed; the 95th percentile reads the
    # busy speed, which nearly every 30 s run reaches.
    wall_q = 95.0

    def prepare(self, hq, work: Path):
        self.sweep_points = hq.config.ExperimentConfig.defaults(
            "bandwidth_sweep").scenario_section()["points"]

    def run(self, hq, seed: int, out: Path) -> dict:
        exits = {}
        for scenario in self.scenarios:
            exits[scenario] = call_cli(hq, ["--scenario", scenario, "--seed", str(seed),
                                            "--out", str(out)])
        cfg = hq.config.ExperimentConfig.defaults("budget")
        offsets, windows, target, span, strengths, native_d, w = hq.config.pump_inputs(cfg)
        plan = hq.memory.plan_pump_regions(offsets, windows, target, span)
        depth = {pol: hq.memory.effective_depth(plan, native_d[pol], strengths,
                                                partial_weight=w)
                 for pol in ("H", "V")}
        return {"exits": exits, "effective_depth": depth}

    def check(self, hq, seed: int, out: Path, made: dict) -> list[str]:
        p = []
        for scenario, (rc, log) in made["exits"].items():
            if rc != 0:
                p.append(f"{scenario}: exit code {rc}: {log.strip()[-400:]}")
        if p:
            return p
        summaries = {s: _summary(out, s, seed) for s in self.scenarios}
        stats = {s: summaries[s]["statistics"] for s in self.scenarios}
        _within(p, "peak_bandwidth_match",
                stats["bandwidth_sweep"]["peak_bandwidth_match"]["value"],
                0.7434 - 1e-4, 0.7434 + 1e-4)
        # tolerance of the AFC acceptance criterion
        _within(p, "efficiency_at_500ns", stats["afc_sweep"]["efficiency_at_500ns"]["value"],
                0.433 - 0.010, 0.433 + 0.010)
        _within(p, "efficiency_at_1us", stats["afc_sweep"]["efficiency_at_1us"]["value"],
                0.310 - 0.010, 0.310 + 0.010)
        _within(p, "chsh_analytic", stats["chsh"]["chsh_analytic"]["value"], 2.27, 2.39)
        self._check_budget(p, summaries["budget"], out / f"budget_seed{seed}_stages.csv")
        depth = made["effective_depth"]
        _within(p, "effective_depth_H", depth["H"], 10.0, 11.0)
        if not (math.isfinite(depth["V"]) and depth["V"] > 0):
            p.append(f"effective_depth_V = {depth['V']!r} is not a positive depth")
        return p

    @staticmethod
    def _check_budget(p: list, summary: dict, stages_csv: Path):
        """The rate-chain values of the acceptance criteria."""
        rates = {r["name"]: r["hz"] for r in summary["rates"]}
        _near(p, "r_369", rates["r_369"], 1352.0, 0.02)
        _near(p, "r_580", rates["r_580"], 1.8, 0.05)
        _near(p, "r_ti_qm", rates["r_ti_qm"], 0.2, 0.10)
        _near(p, "eta_qfc", summary["statistics"]["eta_qfc"]["value"], 0.00076, 0.05)
        with open(stages_csv, newline="") as fh:
            overall = {row["stage"]: row for row in csv.DictReader(fh)}["overall"]
        for col in ("efficiency_H_percent", "efficiency_V_percent"):
            _near(p, f"overall {col}", float(overall[col]) / 100, 0.00011, 0.10)

    def expected_calls(self) -> dict:
        return {
            "config.build": (1, None), "scenarios.analytic": (1, None),
            "ion.channel": (1, None), "photon.channel": (1, None),
            "scenarios.emit": (len(self.scenarios), len(self.scenarios)),
            "tomography.chsh": (1, 1), "budget": (1, None), "qstate.fidelity": (1, None),
            "memory.bandwidth_match": (self.sweep_points, self.sweep_points),
            "memory.effective_depth": (2, 2),
            "tomography.sample": (0, 0), "tomography.mle": (0, 0),
            "tomography.bootstrap": (0, 0),
        }


WORKLOADS = {w.name: w for w in (
    PointFit("ti_qm_link", "ti_qm", TI_QM_FIDELITY, TI_QM_SD, TI_QM_ANALYTIC,
             traced=LinkRun()),
    PointFit("ion_photon_bright", "ion_photon", ION_PHOTON_FIDELITY, ION_PHOTON_SD,
             ION_PHOTON_ANALYTIC),
    MemoryDesign())}
