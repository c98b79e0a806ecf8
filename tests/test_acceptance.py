"""Acceptance suite: one test per release criterion, each printing a
pass/fail line.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import contextlib
import dataclasses
import math
import time

import numpy as np
import pytest

from hqlink.budget import end_to_end_efficiency, rate, total_infidelity
from hqlink.config import ExperimentConfig, error_budget_rows, pump_inputs, rate_chains
from hqlink.memory import (
    afc_efficiency,
    bandwidth_match,
    effective_depth,
    herald_probability,
    plan_pump_regions,
    storage_channel,
)
from hqlink.photon import jitter_phase_uncertainty
from hqlink.qstate import (
    DensityMatrix,
    Observable,
    apply_channel,
    bell_state,
    bitflip_channel,
    dephasing_channel,
    depolarizing_channel,
    fidelity,
    trace_distance,
)
from hqlink.rng import child_rng
from hqlink.scenarios import analytic_fidelity, emit_report, run
from hqlink.tomography import (
    ChshSettings,
    chsh,
    mle_reconstruct,
    records_from_probabilities,
    simulate_tomography,
)


DEFAULTS = ExperimentConfig.defaults()


@contextlib.contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number:02d} FAIL - {label}")
        raise
    print(f"ACCEPTANCE {number:02d} PASS - {label}")


def random_state(rng, dim=4):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real)


def test_01_bandwidth_matching():
    with criterion(1, "bandwidth matching 74.34% at zero detuning, under 1 s"):
        model = DEFAULTS.spectral
        assert model.detuning_mhz == 0.0
        t0 = time.perf_counter()
        eta = bandwidth_match(model)
        elapsed = time.perf_counter() - t0
        assert eta == pytest.approx(0.7434, abs=0.0005)
        assert elapsed < 1.0


def test_02_afc_efficiency():
    with criterion(2, "comb efficiency 43.3% at 500 ns and 31.0% at 1 us"):
        comb = DEFAULTS.comb
        assert afc_efficiency(comb, 500.0) == pytest.approx(0.433, abs=0.010)
        assert afc_efficiency(comb, 1000.0) == pytest.approx(0.310, abs=0.010)


def test_03_rate_chains():
    with criterion(3, "rate chains: R369, eta_QFC, R580, R_TI-QM, overall eta"):
        tables = rate_chains(ExperimentConfig.defaults("budget"))
        assert rate(tables["chains"]["r_369"]) == pytest.approx(1352.0, rel=0.02)
        assert end_to_end_efficiency(tables["qfc_stages"]) == pytest.approx(0.00076, rel=0.05)
        assert rate(tables["chains"]["r_580"]) == pytest.approx(1.8, rel=0.05)
        assert rate(tables["chains"]["r_ti_qm"]) == pytest.approx(0.2, rel=0.10)
        assert end_to_end_efficiency(tables["overall_stages"]) == \
            pytest.approx(0.00011, rel=0.10)


def test_04_error_ledger():
    with criterion(4, "error ledger: 10.6% total with modeled jitter/PBS/dark rows"):
        cfg = ExperimentConfig.defaults("budget")
        rows = {r.name: r.infidelity for r in error_budget_rows(cfg)}
        total = total_infidelity(error_budget_rows(cfg), "sum")
        assert total == pytest.approx(0.106, abs=0.001)
        assert jitter_phase_uncertainty(cfg.jitter) == pytest.approx(2.19e-2, rel=5e-3)
        assert rows["jitter_phase"] == pytest.approx(1.2e-4, rel=0.01)
        assert rows["photon_detection_pbs"] == pytest.approx(2.9e-4, abs=0.05e-4)
        assert cfg.scenario_section("ti_qm")["snr"] == 28.0
        assert rows["dark_noise"] == pytest.approx(0.027, abs=0.001)


def test_05_end_to_end_monte_carlo():
    with criterion(5, "ti_qm pipeline: MLE fidelity near 0.892, analytic in [0.88, 0.91]"):
        t0 = time.perf_counter()
        cfg = ExperimentConfig.defaults("ti_qm")
        assert cfg.scenario_section()["heralds"] == 1780
        report = run(cfg)
        elapsed = time.perf_counter() - t0
        f_mle = report.statistics["mle_fidelity"]["value"]
        f_std = report.statistics["mle_fidelity"]["stddev"]
        assert abs(f_mle - 0.892) <= 3 * f_std
        analytic = analytic_fidelity(cfg, "ti_qm")
        assert 0.88 <= analytic <= 0.91
        assert elapsed < 60.0


def test_06_chsh():
    with criterion(6, "CHSH: Tsirelson point, pipeline-matched Werner S, bound"):
        s_ideal = chsh(bell_state(0.0).density(), ChshSettings.optimal())
        assert s_ideal == pytest.approx(2.8284, abs=1e-4)
        assert s_ideal == pytest.approx(2 * math.sqrt(2), abs=1e-6)

        report = run(ExperimentConfig.defaults("chsh"))
        s_model = report.statistics["chsh_analytic"]["value"]
        assert 2.27 <= s_model <= 2.39

        rng = np.random.default_rng(60)
        bound = 2 * math.sqrt(2) + 1e-9
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
        sz = np.array([[1, 0], [0, -1]], dtype=complex)

        def rand_obs():
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            return Observable(n[0] * sx + n[1] * sy + n[2] * sz)

        for _ in range(300):
            settings = ChshSettings(rand_obs(), rand_obs(), rand_obs(), rand_obs())
            assert abs(chsh(random_state(rng), settings)) <= bound


def test_07_tomography_oracle_equivalence():
    with criterion(7, "MLE: exact counts to 1e-6, sampled counts median below 0.02"):
        rng = np.random.default_rng(70)
        states = [random_state(rng) for _ in range(50)]
        for rho in states:
            est = mle_reconstruct(records_from_probabilities(rho))
            assert trace_distance(est, rho) < 1e-6
        distances = []
        for i, rho in enumerate(states):
            recs = simulate_tomography(rho, 10000, None, child_rng(700 + i, "acc7"))
            distances.append(trace_distance(mle_reconstruct(recs), rho))
        assert float(np.median(distances)) < 0.02


def test_08_property_suites():
    with criterion(8, "property suites: channels, comb decay, band symmetry, heralds"):
        rng = np.random.default_rng(80)

        # completely positive trace-preserving channels keep states physical
        for _ in range(1000):
            kind = rng.integers(0, 3)
            if kind == 0:
                ch = depolarizing_channel(rng.uniform(), 4)
            elif kind == 1:
                ch = dephasing_channel(rng.uniform(), int(rng.integers(0, 2)))
            else:
                ch = bitflip_channel(rng.uniform(), int(rng.integers(0, 2)))
            total = sum(k.conj().T @ k for k in ch.kraus_ops)
            assert np.max(np.abs(total - np.eye(4))) < 1e-9
            out = apply_channel(random_state(rng), ch)
            assert out.eigenvalues().min() >= -1e-9
            assert out.trace == pytest.approx(1.0, abs=1e-9)

        # comb efficiency decays monotonically and log-quadratically
        comb = DEFAULTS.comb
        ts = np.linspace(0.0, 5000.0, 1000)
        effs = np.array([afc_efficiency(comb, t) for t in ts])
        assert np.all(np.diff(effs) <= 1e-15)
        from hqlink.memory import COMB_B
        coeffs = np.polyfit(ts[1:] * 1e-9, np.log(effs[1:]), 2)
        expected = -2 * math.pi * COMB_B ** 2 * (comb.gamma_comb_khz * 1e3) ** 2
        assert coeffs[0] == pytest.approx(expected, rel=1e-6)

        # band overlap is even in detuning and matches the arctan oracle
        sp = DEFAULTS.spectral

        def oracle(df):
            hw, c = sp.gamma_natural_mhz / 2, sp.zeeman_split_mhz / 2
            half = sp.qm_bandwidth_mhz / 2
            total = 0.0
            for center in (c, -c):
                total += math.atan((half + df - center) / hw)
                total += math.atan((half - df + center) / hw)
            return total / (2 * math.pi)

        for df in np.linspace(0.0, 55.0, 500):
            plus = bandwidth_match(dataclasses.replace(sp, detuning_mhz=float(df)))
            minus = bandwidth_match(dataclasses.replace(sp, detuning_mhz=float(-df)))
            assert plus == pytest.approx(minus, abs=1e-8)
            assert plus == pytest.approx(oracle(df), abs=1e-6)

        # heralded storage: success probability is the population-weighted loss
        for _ in range(1000):
            rho = random_state(rng)
            eta_h, eta_v = rng.uniform(size=2)
            p_h = float(np.real(rho.matrix[0, 0] + rho.matrix[2, 2]))
            p_v = float(np.real(rho.matrix[1, 1] + rho.matrix[3, 3]))
            got = herald_probability(rho, storage_channel(eta_h, eta_v))
            assert got == pytest.approx(eta_h * p_h + eta_v * p_v, abs=1e-10)


def test_09_pump_planner_regression():
    with criterion(9, "pump planner: class intervals to 0.1 MHz, depth 10.5 from 5.24"):
        cfg = ExperimentConfig.defaults("budget")
        offsets, windows, target, span, strengths, native_d, w = pump_inputs(cfg)
        plan = plan_pump_regions(offsets, windows, target, span)
        expected = {
            ("1/2g", "1/2e"): [(49.5, 272.7)],
            ("1/2g", "3/2e"): [(0.0, 113.6)],
            ("3/2g", "1/2e"): [(0.0, 75.1), (125.9, 349.1)],
            ("3/2g", "3/2e"): [(0.0, 190.0)],
            ("5/2g", "1/2e"): [(0.0, 223.2), (274.0, 497.2)],
            ("5/2g", "3/2e"): [(0.0, 64.1), (114.9, 338.1)],
            ("5/2g", "5/2e"): [(0.0, 65.4)],
        }
        for key, intervals in expected.items():
            got = plan.pumped_regions[key]
            assert len(got) == len(intervals), key
            for (glo, ghi), (elo, ehi) in zip(got, intervals):
                assert glo == pytest.approx(elo, abs=0.05), key
                assert ghi == pytest.approx(ehi, abs=0.05), key
        depth_h = effective_depth(plan, native_d["H"], strengths, partial_weight=w)
        assert depth_h == pytest.approx(10.5, abs=0.5)


def test_10_determinism(tmp_path):
    with criterion(10, "identical config and seed give byte-identical reports"):
        budget_cfg = ExperimentConfig.defaults("budget", master_seed=11)
        files_a = emit_report(run(budget_cfg), tmp_path / "a")
        files_b = emit_report(run(budget_cfg), tmp_path / "b")
        assert [f.name for f in files_a] == [f.name for f in files_b]
        for fa, fb in zip(files_a, files_b):
            assert fa.read_bytes() == fb.read_bytes()

        mc_cfg = ExperimentConfig.defaults(
            "ti_qm", master_seed=12,
            scenarios={"ti_qm": {"heralds": 360}},
            pipeline={"bootstrap_resamples": 100})
        files_c = emit_report(run(mc_cfg), tmp_path / "c")
        files_d = emit_report(run(mc_cfg), tmp_path / "d")
        for fc, fd in zip(files_c, files_d):
            assert fc.read_bytes() == fd.read_bytes()
