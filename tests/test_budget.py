"""Rate-chain and error-ledger tests against the published operating point."""

import math

import numpy as np
import pytest

from hqlink.budget import (
    EfficiencyStage,
    ErrorSource,
    RateChain,
    end_to_end_efficiency,
    rate,
    snr_and_noise_rate,
    total_infidelity,
)
from hqlink.config import ExperimentConfig, error_budget_rows, rate_chains
from hqlink.scenarios import (
    analytic_fidelity,
    error_budget_csv,
    rate_table_csv,
    stage_table_csv,
)

CFG = ExperimentConfig.defaults("budget")
TABLES = rate_chains(CFG)


class TestRates:
    def test_r369(self):
        assert rate(TABLES["chains"]["r_369"]) == pytest.approx(1352.0, rel=0.02)

    def test_eta_qfc(self):
        assert end_to_end_efficiency(TABLES["qfc_stages"]) == pytest.approx(0.00076, rel=0.05)

    def test_r580(self):
        assert rate(TABLES["chains"]["r_580"]) == pytest.approx(1.8, rel=0.05)

    def test_r_ti_qm(self):
        assert rate(TABLES["chains"]["r_ti_qm"]) == pytest.approx(0.2, rel=0.10)

    def test_overall_efficiency(self):
        eta = end_to_end_efficiency(TABLES["overall_stages"])
        assert eta == pytest.approx(0.00011, rel=0.10)

    def test_unit_stages_give_repetition_rate(self):
        chain = RateChain("unit", 1000.0, [EfficiencyStage("s", 1.0)], {})
        assert rate(chain) == pytest.approx(1000.0)

    def test_stage_reordering_invariant(self):
        rng = np.random.default_rng(2)
        stages = [EfficiencyStage(f"s{i}", v) for i, v in enumerate(rng.uniform(0.1, 1, 8))]
        chain = RateChain("c", 5e4, stages, {"pf": 0.5})
        shuffled = list(stages)
        rng.shuffle(shuffled)
        chain2 = RateChain("c", 5e4, shuffled, {"pf": 0.5})
        assert rate(chain) == pytest.approx(rate(chain2), rel=1e-12)
        assert end_to_end_efficiency(stages) == pytest.approx(
            end_to_end_efficiency(shuffled), rel=1e-12)

    def test_nan_repetition_rate_rejected(self):
        with pytest.raises(ValueError, match=r"^repetition_rate_hz: expected a positive finite "
                                              r"number, got nan$"):
            RateChain("r", math.nan, (EfficiencyStage("a", 0.5),))

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError):
            rate(RateChain("empty", 100.0, [], {}))

    def test_polarized_stage_resolution(self):
        stage = EfficiencyStage.polarized("eta", 0.74 * 0.195 / 0.74, 0.183)
        qm = [EfficiencyStage("eta_bw", 0.74),
              EfficiencyStage.polarized("eta_storage", 0.195, 0.183)]
        assert end_to_end_efficiency(qm, "H") == pytest.approx(0.74 * 0.195, rel=1e-12)
        assert end_to_end_efficiency(qm, "H") == pytest.approx(0.1443, abs=2e-4)
        assert end_to_end_efficiency(qm) == pytest.approx(0.74 * 0.189, rel=1e-12)
        assert stage.resolved("V") == 0.183

    @pytest.mark.parametrize("eta_h, eta_v, field, shown", [
        ("0.5", 0.4, "eta_h", "'0.5'"), (0.5, "0.4", "eta_v", "'0.4'"),
        (None, 0.4, "eta_h", "None"), (0.5, 1.5, "eta_v", "1.5"), (0.0, 0.4, "eta_h", "0.0"),
        (math.nan, 0.4, "eta_h", "nan"), (True, 0.4, "eta_h", "True")])
    def test_polarized_stage_checks_each_efficiency_before_averaging(self, eta_h, eta_v,
                                                                     field, shown):
        # a string once reached (eta_h + eta_v) / 2 and raised TypeError
        with pytest.raises(ValueError, match=rf"^{field}: expected a number in \(0, 1\], "
                                             rf"got {shown}$"):
            EfficiencyStage.polarized("x", eta_h, eta_v)

    def test_single_stage(self):
        assert end_to_end_efficiency([EfficiencyStage("s", 0.5)]) == 0.5


class TestErrorLedger:
    def test_default_rows_sum(self):
        rows = error_budget_rows(CFG)
        assert total_infidelity(rows, "sum") == pytest.approx(0.106, abs=0.001)

    def test_single_source_same_in_both_modes(self):
        src = [ErrorSource("only", 0.05)]
        assert total_infidelity(src, "sum") == pytest.approx(0.05, rel=1e-12)
        assert total_infidelity(src, "product") == pytest.approx(0.05, rel=1e-12)

    def test_two_sources_arithmetic(self):
        src = [ErrorSource("a", 0.1), ErrorSource("b", 0.1)]
        assert total_infidelity(src, "sum") == pytest.approx(0.2)
        assert total_infidelity(src, "product") == pytest.approx(0.19)

    def test_product_never_exceeds_sum(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            src = [ErrorSource(f"s{i}", e) for i, e in
                   enumerate(rng.uniform(0, 0.2, rng.integers(1, 8)))]
            assert total_infidelity(src, "product") <= total_infidelity(src, "sum") + 1e-12
        one = [ErrorSource("a", 0.07), ErrorSource("b", 0.0)]
        assert total_infidelity(one, "sum") == pytest.approx(total_infidelity(one, "product"))

    def test_modeled_rows(self):
        rows = {r.name: r.infidelity for r in error_budget_rows(CFG)}
        assert rows["jitter_phase"] == pytest.approx(1.2e-4, rel=0.01)
        assert rows["photon_detection_pbs"] == pytest.approx(2.9e-4, abs=5e-6)
        assert rows["dark_noise"] == pytest.approx(0.027, abs=1e-12)
        assert rows["qfc"] == pytest.approx(0.031, abs=1e-12)
        assert rows["ion_decoherence"] == pytest.approx(5.1e-6, rel=0.02)

    @pytest.mark.parametrize("field, row", [
        ("spam_error", "spam"), ("mw_rotation_error", "mw_rotation"),
        ("excitation_error", "pulse_excitation"), ("pi_collection_error", "pi_collection"),
    ])
    def test_measured_rows_follow_the_pipeline(self, field, row):
        cfg = ExperimentConfig.defaults("budget", pipeline={field: 0.01})
        rows = {r.name: r.infidelity for r in error_budget_rows(cfg)}
        assert rows[row] == 0.01

    def test_budget_agrees_with_channel_pipeline(self):
        predicted = 1 - total_infidelity(error_budget_rows(CFG), "sum")
        composed = analytic_fidelity(CFG, "ti_qm")
        assert predicted == pytest.approx(0.894, abs=0.001)
        assert abs(predicted - composed) < 0.01

    def test_infidelity_range_enforced(self):
        with pytest.raises(ValueError):
            ErrorSource("bad", 1.5)
        with pytest.raises(ValueError):
            total_infidelity([], "sum")
        with pytest.raises(ValueError):
            total_infidelity([ErrorSource("a", 0.1)], "geometric")


class TestSnr:
    def test_operating_point(self):
        snr, p = snr_and_noise_rate(0.2, 0.007)
        assert snr == pytest.approx(28.6, abs=0.1)
        assert p == pytest.approx(1 / (snr + 1), rel=1e-12)

    def test_equal_rates(self):
        snr, p = snr_and_noise_rate(1.0, 1.0)
        assert snr == 1.0
        assert p == 0.5

    def test_zero_noise(self):
        snr, p = snr_and_noise_rate(0.5, 0.0)
        assert math.isinf(snr)
        assert p == 0.0

    def test_nan_signal_rate_rejected(self):
        with pytest.raises(ValueError, match=r"^signal_rate_hz: expected a positive finite "
                                              r"number, got nan$"):
            snr_and_noise_rate(math.nan, 0.007)

    def test_nan_noise_rate_rejected(self):
        with pytest.raises(ValueError, match=r"^noise_rate_hz: expected a finite number >= 0, "
                                              r"got nan$"):
            snr_and_noise_rate(0.2, math.nan)


class TestCsvLayouts:
    def test_error_budget_csv(self):
        text = error_budget_csv(error_budget_rows(CFG))
        lines = text.strip().splitlines()
        assert lines[0] == "error_source,infidelity_percent,model_ref"
        assert len(lines) == 12  # 10 rows + header + total
        assert lines[-1].startswith("total,")

    def test_stage_table_csv(self):
        text = stage_table_csv(TABLES["overall_stages"])
        lines = text.strip().splitlines()
        assert lines[0] == "stage,efficiency_H_percent,efficiency_V_percent"
        assert lines[-1].startswith("overall,")

    def test_rate_table_csv(self):
        text = rate_table_csv([("r_369", 1352.6)])
        assert "r_369,1352.6" in text
