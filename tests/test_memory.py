"""AFC memory tests: comb efficiency, bandwidth matching, pump planning and
the heralded storage channel."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from hqlink.config import (
    PUMP_BROADENING_MHZ,
    PUMP_NATIVE_D,
    PUMP_PARTIAL_WEIGHT,
    PUMP_STRENGTHS,
    PUMP_TARGET_MHZ,
    PUMP_TRANSITION_OFFSETS_MHZ,
    PUMP_WINDOWS_MHZ,
    ConfigError,
    ExperimentConfig,
)
from hqlink.memory import (
    COMB_B,
    SpectralModel,
    afc_efficiency,
    bandwidth_match,
    effective_depth,
    herald_probability,
    plan_pump_regions,
    storage_channel,
    storage_residual_channel,
)
from hqlink.qstate import DensityMatrix, apply_channel, bell_state, fidelity

DEFAULTS = ExperimentConfig.defaults()
COMB = DEFAULTS.comb
SPECTRAL = DEFAULTS.spectral

# the published pump design of the site-2 ions (MHz)
OFFSETS = PUMP_TRANSITION_OFFSETS_MHZ
WINDOWS = list(PUMP_WINDOWS_MHZ)
TARGET = PUMP_TARGET_MHZ
SPAN = PUMP_BROADENING_MHZ
STRENGTHS = PUMP_STRENGTHS
D_H, D_V = PUMP_NATIVE_D["H"], PUMP_NATIVE_D["V"]
W = PUMP_PARTIAL_WEIGHT


class TestAfcEfficiency:
    def test_500ns_point(self):
        assert afc_efficiency(COMB, 500.0) == pytest.approx(0.433, abs=0.010)

    def test_1us_point(self):
        assert afc_efficiency(COMB, 1000.0) == pytest.approx(0.310, abs=0.010)

    def test_zero_comb_width_limit(self):
        narrow = dataclasses.replace(COMB, gamma_comb_khz=1e-6, finesse=None)
        d_over_f = COMB.d / narrow.finesse
        expected = COMB_B ** 2 * d_over_f ** 2 * math.exp(-COMB_B * d_over_f)
        for t in (0.0, 500.0, 5000.0):
            assert afc_efficiency(narrow, t) == pytest.approx(expected, rel=1e-6)

    def test_decreasing_in_time(self):
        effs = [afc_efficiency(COMB, t) for t in np.linspace(0, 5000, 200)]
        assert all(b <= a for a, b in zip(effs, effs[1:]))

    def test_log_quadratic_in_time(self):
        ts = np.linspace(100, 3000, 200)
        logs = np.log([afc_efficiency(COMB, t) for t in ts])
        coeffs = np.polyfit(ts * 1e-9, logs, 2)
        expected = -2 * math.pi * COMB_B ** 2 * (COMB.gamma_comb_khz * 1e3) ** 2
        assert coeffs[0] == pytest.approx(expected, rel=1e-6)

    def test_nan_storage_time_rejected(self):
        with pytest.raises(ValueError, match=r"^t_storage_ns: expected a finite number >= 0, "
                                              r"got nan$"):
            afc_efficiency(COMB, math.nan)

    @pytest.mark.parametrize("name, rule", [
        ("d", "a positive finite number"), ("gamma_comb_khz", "a positive finite number"),
        ("delta_mhz", "a positive finite number"), ("bandwidth_mhz", "a positive finite number"),
        ("finesse", "a finite number or null")])
    def test_boolean_field_rejected(self, name, rule):
        with pytest.raises(ValueError, match=f"^{name}: expected {rule}, got True$"):
            dataclasses.replace(COMB, **{"finesse": None, name: True})

    def test_finesse_consistency_enforced(self):
        with pytest.raises(ValueError):
            dataclasses.replace(COMB, finesse=5.0)
        implied = dataclasses.replace(COMB, finesse=None)
        assert implied.finesse == pytest.approx(COMB.delta_mhz * 1e3 / COMB.gamma_comb_khz,
                                                rel=1e-12)

    @pytest.mark.parametrize("gamma", [5e-324, np.float64(5e-324), Fraction(1, 10 ** 400)],
                             ids=["float", "float64", "fraction"])
    @pytest.mark.parametrize("finesse", [None, 7.7])
    def test_implied_finesse_must_be_finite(self, gamma, finesse):
        # delta / gamma overflowed: to inf silently, with a RuntimeWarning
        # (an error under tier-1) and as ZeroDivisionError, in that order
        with pytest.raises(ValueError, match=r"^delta_mhz \* 1e3 / gamma_comb_khz: expected a "
                                             r"positive finite number, got (np\.float64\()?inf"):
            dataclasses.replace(COMB, gamma_comb_khz=gamma, finesse=finesse)

    def test_implied_finesse_must_be_positive(self):
        # delta * 1e3 / gamma underflows to 0, which afc_efficiency divides by
        with pytest.raises(ValueError, match=r"^delta_mhz \* 1e3 / gamma_comb_khz: expected a "
                                             r"positive finite number, got 0\.0$"):
            dataclasses.replace(COMB, gamma_comb_khz=1e308, delta_mhz=5e-324, finesse=None)

    def test_tiny_tooth_width_fails_at_config_load(self):
        with pytest.raises(ConfigError, match="comb: delta_mhz"):
            ExperimentConfig.from_dict({"comb": {"gamma_comb_khz": 5e-324, "finesse": None}})


def eta_bw_closed_form(m: SpectralModel, df: float = None) -> float:
    """Arctan oracle for the band overlap of the double Lorentzian."""
    hw = m.gamma_natural_mhz / 2
    c = m.zeeman_split_mhz / 2
    half = m.qm_bandwidth_mhz / 2
    df = m.detuning_mhz if df is None else df
    total = 0.0
    for center in (c, -c):
        total += math.atan((half + df - center) / hw) + math.atan((half - df + center) / hw)
    return total / (2 * math.pi)


class TestBandwidthMatch:
    def test_aligned_operating_point(self):
        assert bandwidth_match(SPECTRAL) == pytest.approx(0.7434, abs=0.0005)

    def test_agrees_with_arctan_oracle(self):
        for df in (0.0, 5.0, -12.0, 30.0):
            m = dataclasses.replace(SPECTRAL, detuning_mhz=df)
            assert bandwidth_match(m) == pytest.approx(eta_bw_closed_form(m), abs=1e-6)

    def test_wide_band_limit(self):
        m = dataclasses.replace(SPECTRAL, qm_bandwidth_mhz=1e6)
        assert bandwidth_match(m) == pytest.approx(1.0, abs=1e-4)

    def test_detuned_below_aligned_and_monotone(self):
        vals = [bandwidth_match(dataclasses.replace(SPECTRAL, detuning_mhz=df))
                for df in np.linspace(0, 50, 11)]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < vals[0]

    def test_even_in_detuning(self):
        for df in (3.0, 17.5, 42.0):
            a = bandwidth_match(dataclasses.replace(SPECTRAL, detuning_mhz=df))
            b = bandwidth_match(dataclasses.replace(SPECTRAL, detuning_mhz=-df))
            assert a == pytest.approx(b, abs=1e-8)


class TestPumpPlanner:
    def test_class_ix_regression(self):
        plan = plan_pump_regions(OFFSETS, WINDOWS, TARGET, SPAN)
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

    def test_empty_windows(self):
        plan = plan_pump_regions(OFFSETS, [], TARGET, SPAN)
        assert all(not v for v in plan.pumped_regions.values())
        assert effective_depth(plan, D_H, STRENGTHS, partial_weight=W) == pytest.approx(D_H)

    def test_single_transition_fully_pumped(self):
        offsets = {("g", "e"): 100.0}
        plan = plan_pump_regions(offsets, [(50.0, 700.0)], (10.0, 20.0), SPAN)
        assert plan.pumped_regions[("g", "e")] == ((0.0, SPAN),)

    def test_window_overlapping_target_rejected(self):
        with pytest.raises(ValueError):
            plan_pump_regions(OFFSETS, [(200.0, 300.0)], TARGET, SPAN)

    def test_malformed_interval_rejected(self):
        with pytest.raises(ValueError):
            plan_pump_regions(OFFSETS, [(300.0, 250.0)], TARGET, SPAN)

    def test_regions_disjoint_and_order_invariant(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            windows = []
            for _ in range(rng.integers(1, 5)):
                lo = rng.uniform(273.0, 600.0)
                windows.append((lo, lo + rng.uniform(1.0, 120.0)))
            plan = plan_pump_regions(OFFSETS, windows, (10.0, 20.0), SPAN)
            shuffled = list(windows)
            rng.shuffle(shuffled)
            plan2 = plan_pump_regions(OFFSETS, shuffled, (10.0, 20.0), SPAN)
            for key, regions in plan.pumped_regions.items():
                for (a1, b1), (a2, b2) in zip(regions, regions[1:]):
                    assert b1 < a2 + 1e-9  # disjoint and sorted
                measure = sum(b - a for a, b in regions)
                measure2 = sum(b - a for a, b in plan2.pumped_regions[key])
                assert measure == pytest.approx(measure2, abs=1e-9)


class TestEffectiveDepth:
    def test_paper_plan_h(self):
        plan = plan_pump_regions(OFFSETS, WINDOWS, TARGET, SPAN)
        assert effective_depth(plan, D_H, STRENGTHS, partial_weight=W) == \
            pytest.approx(10.5, abs=0.5)

    def test_paper_plan_v(self):
        plan = plan_pump_regions(OFFSETS, WINDOWS, TARGET, SPAN)
        assert effective_depth(plan, D_V, STRENGTHS, partial_weight=W) == \
            pytest.approx(9.0, abs=0.5)

    @pytest.mark.parametrize("native_d, transmission, expected", [
        (D_H, True, "0x1.4feb3f3705defp+3"),   # H, 10.497
        (D_V, True, "0x1.2abcb066ac4e1p+3"),   # V, 9.336
        (D_H, False, "0x1.4feb3f3705defp+3"),  # H without the transmission pump
    ])
    def test_paper_plan_bit_for_bit(self, native_d, transmission, expected):
        plan = plan_pump_regions(OFFSETS, WINDOWS, TARGET, SPAN)
        assert effective_depth(plan, native_d, STRENGTHS, transmission,
                               partial_weight=W).hex() == expected

    def test_all_population_removed(self):
        # far-detuned enhancement windows refill nothing: the transmission
        # pump empties the band and the depth collapses
        plan = plan_pump_regions(OFFSETS, [(5000.0, 5100.0)], TARGET, SPAN)
        assert effective_depth(plan, D_H, STRENGTHS, partial_weight=W) == \
            pytest.approx(0.0, abs=1e-9)

    def test_unknown_transition_rejected(self):
        plan = plan_pump_regions(OFFSETS, WINDOWS, TARGET, SPAN)
        with pytest.raises(ValueError):
            effective_depth(plan, D_H, {("x", "y"): 1.0}, partial_weight=W)


# Three ground levels a, b, c at 0, 100, 200 MHz, each with excited levels e1
# (+0) and e2 (+400); the target band (0, 10) sees only (a, e1) and
# (a, e1) is the one weighted transition.  Over its band average x = f runs
# through [0, 10] and no cut falls inside, so one population settles the
# depth: d = native_d * p_a / (1/3), with a the only level absorbing.
TOY_OFFSETS = {(g, e): tg + te for g, tg in (("a", 0.0), ("b", 100.0), ("c", 200.0))
               for e, te in (("e1", 0.0), ("e2", 400.0))}
TOY_TARGET = (0.0, 10.0)
TOY_STRENGTHS = {("a", "e1"): 1.0}


class TestEffectiveDepthToyPlan:
    def test_two_dark_levels_one_absorbing_split_by_partial_weight(self):
        # The transmission pump addresses a only and shares it evenly: (0, 1/2, 1/2).
        # The window (95, 115) addresses b only through (b, e1) at 100 + x; of the
        # dark a and c only a absorbs, so a gets w * 1/2 and c (1 - w) * 1/2:
        # d = 2 * (0.3 / 2) * 3 = 0.9, where an even split would give 1.5.
        plan = plan_pump_regions(TOY_OFFSETS, [(95.0, 115.0)], TOY_TARGET, 1000.0)
        assert effective_depth(plan, 2.0, TOY_STRENGTHS, partial_weight=0.3) == \
            pytest.approx(0.9, rel=1e-12)

    def test_window_addressing_every_level_resets_to_uniform(self):
        # The transmission pump leaves (0, 1/2, 1/2).  The window (300, 700)
        # addresses a, b and c through the e2 lines at 400, 500 and 600 + x, so
        # no level is dark and the populations reset to 1/3: d = native_d = 2.
        plan = plan_pump_regions(TOY_OFFSETS, [(300.0, 700.0)], TOY_TARGET, 1000.0)
        assert effective_depth(plan, 2.0, TOY_STRENGTHS, partial_weight=0.3) == \
            pytest.approx(2.0, rel=1e-12)
        # the sequence goes on from the uniform mixture: (95, 115) then moves
        # b's 1/3 and a gets w / 3, so d = 2 * (1/3 + 0.1) * 3 = 2.6
        plan = plan_pump_regions(TOY_OFFSETS, [(300.0, 700.0), (95.0, 115.0)], TOY_TARGET,
                                 1000.0)
        assert effective_depth(plan, 2.0, TOY_STRENGTHS, partial_weight=0.3) == \
            pytest.approx(2.6, rel=1e-12)


class TestStorageChannel:
    def test_balanced_losses_leave_state_unchanged(self):
        ch = storage_channel(0.31, 0.31)
        rho = bell_state(0.0).density()
        out = apply_channel(rho, ch)
        assert out.trace == pytest.approx(0.31, abs=1e-12)
        np.testing.assert_allclose(out.matrix / out.trace, rho.matrix, atol=1e-12)

    def test_slight_imbalance_fidelity_drop(self):
        eta_h, eta_v = 0.310, 0.289
        out = apply_channel(bell_state(0.0).density(), storage_channel(eta_h, eta_v))
        f = fidelity(DensityMatrix(out.matrix / out.trace), bell_state(0.0))
        # analytic renormalized overlap
        expected = (math.sqrt(eta_h) + math.sqrt(eta_v)) ** 2 / (2 * (eta_h + eta_v))
        assert f == pytest.approx(expected, abs=1e-12)
        assert 1 - f < 0.001

    def test_dead_polarization(self):
        out = apply_channel(bell_state(0.0).density(), storage_channel(0.0, 0.5))
        reduced = out.matrix / out.trace
        # photon support collapses onto |V>
        np.testing.assert_allclose(np.real(np.diag(reduced)), [0, 0, 0, 1], atol=1e-12)

    def test_herald_probability_identity(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            m = g @ g.conj().T
            rho = DensityMatrix(m / np.trace(m).real)
            eta_h, eta_v = rng.uniform(size=2)
            ch = storage_channel(eta_h, eta_v)
            p_h = float(np.real(rho.matrix[0, 0] + rho.matrix[2, 2]))
            p_v = float(np.real(rho.matrix[1, 1] + rho.matrix[3, 3]))
            assert herald_probability(rho, ch) == pytest.approx(
                eta_h * p_h + eta_v * p_v, abs=1e-10)

    def test_residual_channel_matched_infidelity(self):
        ch = storage_residual_channel(0.0024)
        rho = apply_channel(bell_state(0.0).density(), ch)
        assert 1 - fidelity(rho, bell_state(0.0)) == pytest.approx(0.0024, rel=1e-9)
