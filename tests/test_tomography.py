"""Tomography tests: count simulation, MLE reconstruction, CHSH and
bootstrap error bars."""

import csv
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hqlink import tomography
from hqlink.config import BUDGET_KEYS, ExperimentConfig
from hqlink.photon import dark_noise_admixture
from hqlink.qstate import (
    DensityMatrix,
    Observable,
    bell_state,
    expectation,
    fidelity,
    maximally_mixed,
    trace_distance,
    werner,
)
from hqlink.rng import as_rng, child_rng
from hqlink.scenarios import analytic_pipeline_state
from hqlink.tomography import (
    ChshSettings,
    CountRecord,
    MeasurementSetting,
    NonConvergenceError,
    all_settings,
    bootstrap_uncertainty,
    born_probabilities,
    chsh,
    mle_reconstruct,
    records_from_probabilities,
    records_to_csv,
    setting_projectors,
    simulate_chsh,
    simulate_tomography,
    split_heralds,
)


def random_state(rng, dim=4):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real)


def random_pm1_observable(rng) -> Observable:
    n = rng.normal(size=3)
    n /= np.linalg.norm(n)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    return Observable(n[0] * sx + n[1] * sy + n[2] * sz)


def per_setting_draws(rho, shots, snr, rng):
    """One multinomial draw per setting over its born_probabilities, in
    all_settings() order; ``shots`` maps each (ion_axis, photon_axis) to its
    shots."""
    records = []
    for s in all_settings():
        n = shots[(s.ion_axis, s.photon_axis)]
        counts = rng.multinomial(n, born_probabilities(rho, s, snr))
        records.append(CountRecord(s, tuple(int(c) for c in counts), n))
    return records


def zz_record(records):
    (rec,) = [r for r in records if r.setting == MeasurementSetting("Z", "Z")]
    return rec


class TestSimulateCounts:
    def test_bell_zz_pattern(self):
        setting = MeasurementSetting("Z", "Z")
        p = born_probabilities(bell_state(0.0).density(), setting)
        np.testing.assert_allclose(p, [0.5, 0, 0, 0.5], atol=1e-12)
        rec = zz_record(simulate_tomography(bell_state(0.0).density(), 1000, None, 5))
        assert rec.counts[1] == 0 and rec.counts[2] == 0
        assert rec.counts[0] + rec.counts[3] == 1000

    def test_maximally_mixed_uniform(self):
        for rec in simulate_tomography(maximally_mixed(4), 40000, None, 6):
            for c in rec.counts:
                assert c == pytest.approx(10000, abs=500)

    def test_snr_shifts_probabilities_toward_uniform(self):
        setting = MeasurementSetting("Z", "Z")
        p_clean = born_probabilities(bell_state(0.0).density(), setting)
        p_noisy = born_probabilities(bell_state(0.0).density(), setting, snr=28.0)
        mix = 1 / 29
        np.testing.assert_allclose(p_noisy, (1 - mix) * p_clean + mix * 0.25, atol=1e-12)
        # sampled: the anticorrelated ZZ outcomes appear at mix / 4 each
        rec = zz_record(simulate_tomography(bell_state(0.0).density(), 10 ** 6, 28.0, 8))
        np.testing.assert_allclose(np.array(rec.counts) / 10 ** 6, p_noisy, atol=1e-3)
        assert min(rec.counts[1], rec.counts[2]) > 0

    def test_deterministic_per_seed(self):
        rho = werner(0.9)
        a = simulate_tomography(rho, 500, 28.0, 99)
        assert a == simulate_tomography(rho, 500, 28.0, 99)
        assert a != simulate_tomography(rho, 500, 28.0, 100)

    def test_grid_draws_match_per_setting_draws(self):
        # simulate_tomography admixes the dark noise once per dataset; the
        # counts equal one draw per setting on the same stream
        rho = analytic_pipeline_state(ExperimentConfig.defaults("ti_qm"), "ti_qm")[0]
        shots = {(s.ion_axis, s.photon_axis): 198 for s in all_settings()}
        for seed in (3, 20260810):
            grid = simulate_tomography(rho, 198, 28.0, child_rng(seed, "x"))
            assert grid == per_setting_draws(rho, shots, 28.0, child_rng(seed, "x"))

    def test_grid_draws_match_per_setting_draws_for_uneven_shots(self):
        rng = np.random.default_rng(47)
        shots = {(s.ion_axis, s.photon_axis): n
                 for s, n in zip(all_settings(), split_heralds(1780))}
        for seed in range(20):
            rho = random_state(rng)
            grid = simulate_tomography(rho, shots, 28.0, child_rng(seed, "u"))
            state = dark_noise_admixture(rho, 28.0)
            assert grid == per_setting_draws(state, shots, None, child_rng(seed, "u"))

    @pytest.mark.parametrize("shots", [0, -3, {(a, b): 0 if (a, b) == ("Y", "X") else 5
                                               for a in "ZXY" for b in "ZXY"}])
    def test_grid_needs_positive_shots(self, shots):
        with pytest.raises(ValueError, match="shots must be positive"):
            simulate_tomography(werner(0.9), shots, None, 1)

    def test_projectors_are_shared_and_read_only(self):
        projs = setting_projectors(MeasurementSetting("X", "Y"))
        assert projs is setting_projectors(MeasurementSetting("X", "Y"))
        with pytest.raises(ValueError):
            projs[0, 0, 0] = 2.0

    def test_record_validation(self):
        with pytest.raises(ValueError):
            CountRecord(MeasurementSetting("Z", "Z"), (1, 2, 3, 4), 11)
        with pytest.raises(ValueError):
            CountRecord(MeasurementSetting("Z", "Z"), (-1, 2, 3, 6), 10)
        with pytest.raises(ValueError):
            MeasurementSetting("Q", "Z")

    @pytest.mark.parametrize("counts, shots, message", [
        ((math.nan, 1, 1, 1), 3, "counts sum nan"),
        ((1, math.nan, 1, 1), 3, "counts sum nan"),
        ((1, 1, 1, 1), math.nan, "!= shots nan"),
        ((math.inf, 0, 0, 0), math.inf, "counts sum inf"),
        ((True, 0, 0, 0), 1, "booleans"),
        ((1, 0, 0, 0), True, "booleans"),
        ((np.bool_(True), 0, 0, 0), 1, "booleans"),
    ])
    def test_record_rejects_nan_and_booleans(self, counts, shots, message):
        with pytest.raises(ValueError, match=message):
            CountRecord(MeasurementSetting("Z", "Z"), counts, shots)

    @pytest.mark.parametrize("counts, shots", [
        ((1, 2, 3, 4), 10),
        ((0.25, 0.25, 0.5, 0.0), 1.0),
        (tuple(np.array([1, 2, 3, 4])), np.int64(10)),
        (tuple(np.array([0.1, 0.2, 0.3, 0.4])), 1),
        ((0, 0, 0, 0), 0),
    ])
    def test_record_takes_int_and_float_counts(self, counts, shots):
        rec = CountRecord(MeasurementSetting("Z", "X"), counts, shots)
        assert rec.counts == tuple(float(c) for c in counts)
        assert all(type(c) is float for c in rec.counts)


class TestMle:
    def test_flat_counts_recover_maximally_mixed(self):
        recs = simulate_tomography(maximally_mixed(4), 10 ** 6, None, child_rng(1, "flat"))
        est = mle_reconstruct(recs)
        assert trace_distance(est, maximally_mixed(4)) < 0.01

    def test_bell_exact_probabilities(self):
        recs = records_from_probabilities(bell_state(0.0).density())
        est = mle_reconstruct(recs)
        assert fidelity(est, bell_state(0.0)) >= 0.999

    def test_full_rank_states_recovered_exactly(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            rho = random_state(rng)
            est = mle_reconstruct(records_from_probabilities(rho))
            assert trace_distance(est, rho) < 1e-6

    def test_repeated_settings_add_up(self):
        # records in any order, and a setting split across two records, fit
        # to the same matrix as the in-order table
        recs = simulate_tomography(werner(0.85), 200, 28.0, child_rng(12, "grid"))
        expected = mle_reconstruct(recs).matrix.tobytes()
        shuffled = [recs[k] for k in np.random.default_rng(3).permutation(len(recs))]
        assert mle_reconstruct(shuffled).matrix.tobytes() == expected
        whole = recs[4]
        half = tuple(c // 2 for c in whole.counts)
        rest = tuple(c - h for c, h in zip(whole.counts, half))
        split = (recs[:4] + [CountRecord(whole.setting, half, sum(half))] + recs[5:]
                 + [CountRecord(whole.setting, rest, sum(rest))])
        assert mle_reconstruct(split).matrix.tobytes() == expected

    def test_missing_setting_rejected(self):
        recs = records_from_probabilities(werner(0.5))[:-1]
        with pytest.raises(ValueError, match="missing settings"):
            mle_reconstruct(recs)

    def test_output_always_physical(self):
        # adversarial: everything in one outcome bucket per setting
        recs = [CountRecord(s, (50, 0, 0, 0), 50) for s in all_settings()]
        est = mle_reconstruct(recs)
        assert est.eigenvalues().min() >= -1e-9
        assert est.trace == pytest.approx(1.0, abs=1e-9)
        rng = np.random.default_rng(15)
        for _ in range(10):
            counts = rng.multinomial(30, [0.97, 0.01, 0.01, 0.01], size=9)
            recs = [CountRecord(s, tuple(int(x) for x in c), 30)
                    for s, c in zip(all_settings(), counts)]
            est = mle_reconstruct(recs)
            assert est.eigenvalues().min() >= -1e-9

    def test_unconverged_fit_raises(self, monkeypatch):
        # a fit allowed no steps stops where it started, at the gradient of the
        # linear-inversion start, which is far from zero on sampled counts
        monkeypatch.setattr(tomography, "MAX_STEPS", 0)
        recs = simulate_tomography(werner(0.85), 200, 28.0, child_rng(10, "stall"))
        with pytest.raises(NonConvergenceError) as err:
            mle_reconstruct(recs)
        assert err.value.gradient_norm > tomography.GRADIENT_TOL > 0

    @pytest.mark.parametrize("scenario", ["ti_qm", "ion_photon", "post_qfc", "bell"])
    def test_sampled_fits_are_optimal(self, scenario, monkeypatch):
        # low-count mixed states (ti_qm, post_qfc at SNR 19.5), a bright
        # near-pure state (ion_photon) and a pure Bell state at SNR inf
        if scenario == "bell":
            state, snr, total = bell_state(0.0).density(), math.inf, 1780
            source = state.matrix
        else:
            cfg = ExperimentConfig.defaults(scenario)
            sec = cfg.scenario_section()
            state, _, _ = analytic_pipeline_state(cfg, scenario)
            snr, total = sec["snr"], sec[BUDGET_KEYS[scenario]]
            source = dark_noise_admixture(state, snr).matrix
        shots = {(s.ion_axis, s.photon_axis): n
                 for s, n in zip(all_settings(), split_heralds(total))}
        branches = count_step_branches(monkeypatch)
        for i in range(10):
            recs = simulate_tomography(state, shots, snr, child_rng(i, scenario))
            assert_optimal(recs, mle_reconstruct(recs).matrix, source)
        assert branches["cholesky"] > 0
        if scenario != "bell":  # the Bell fits here take Cholesky steps only
            assert branches["eigen"] > 0

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.lists(st.integers(0, 300), min_size=4, max_size=4)
                    .filter(lambda row: sum(row) > 0), min_size=9, max_size=9)
           .filter(lambda table: any(0 in row for row in table)))
    def test_fits_of_count_tables_with_empty_outcomes_are_optimal(self, table):
        recs = [CountRecord(s, tuple(c), sum(c)) for s, c in zip(all_settings(), table)]
        assert_optimal(recs, mle_reconstruct(recs).matrix, np.eye(4) / 4)

    def test_stalled_ti_qm_dataset_converges(self):
        # ti_qm counts (child_rng(1687856765, "tomography")) on which the first
        # Newton pass crawls with a diagonal entry of T near 0 and stops at a
        # gradient norm of 5.8e-5 per count; the optimum has full rank
        table = [[85, 3, 7, 103], [49, 65, 42, 42], [64, 50, 41, 43], [55, 53, 38, 52],
                 [93, 7, 6, 92], [57, 50, 44, 47], [52, 42, 50, 54], [40, 48, 54, 55],
                 [10, 95, 88, 4]]
        recs = [CountRecord(s, tuple(c), sum(c)) for s, c in zip(all_settings(), table)]
        cfg = ExperimentConfig.defaults("ti_qm")
        state, _, _ = analytic_pipeline_state(cfg, "ti_qm")
        source = dark_noise_admixture(state, cfg.scenario_section()["snr"]).matrix
        m = mle_reconstruct(recs).matrix
        assert_optimal(recs, m, source)
        assert np.linalg.eigvalsh(m).min() > 1e-3

    def test_crawl_stopping_under_gradient_tol_restarts(self):
        # post_qfc counts (child_rng(77828, "tomography")) on which the first
        # Newton pass crawls for MAX_STEPS with a diagonal entry of T near 0
        # and stops at a gradient norm of 9.4e-6 per count, under
        # GRADIENT_TOL, with the log-likelihood 2e-3 short of its maximum;
        # the optimum has full rank
        table = [[150, 7, 8, 137], [81, 74, 76, 71], [67, 81, 72, 82], [69, 84, 67, 82],
                 [136, 10, 14, 142], [90, 70, 87, 54], [83, 73, 78, 67], [75, 79, 64, 83],
                 [10, 135, 143, 13]]
        recs = [CountRecord(s, tuple(c), sum(c)) for s, c in zip(all_settings(), table)]
        cfg = ExperimentConfig.defaults("post_qfc")
        state, _, _ = analytic_pipeline_state(cfg, "post_qfc")
        source = dark_noise_admixture(state, cfg.scenario_section()["snr"]).matrix
        m = mle_reconstruct(recs).matrix
        assert_optimal(recs, m, source)
        assert np.linalg.eigvalsh(m).min() > 1e-3

    def test_restart_only_when_first_pass_stalls(self, monkeypatch):
        # a fit that converges in one pass returns that pass's state untouched
        calls = []
        newton = tomography._newton
        monkeypatch.setattr(tomography, "_newton",
                            lambda x, w: calls.append(1) or newton(x, w))
        recs = simulate_tomography(werner(0.85), 200, 28.0, child_rng(3, "restart"))
        mle_reconstruct(recs)
        assert len(calls) == 1

        # a first pass that stops where it started, short of convergence
        # (above or under GRADIENT_TOL), is followed by exactly one more, from
        # its own state
        cfg = ExperimentConfig.defaults("ti_qm")
        state, _, _ = analytic_pipeline_state(cfg, "ti_qm")
        snr = cfg.scenario_section()["snr"]
        recs = simulate_tomography(state, 198, snr, child_rng(3, "restart"))
        for stalled_norm in (10 * tomography.GRADIENT_TOL, tomography.GRADIENT_TOL / 10):
            def stalled_first_pass(x, w):
                calls.append(1)
                return (x, stalled_norm) if len(calls) == 1 else newton(x, w)

            calls.clear()
            monkeypatch.setattr(tomography, "_newton", stalled_first_pass)
            assert_optimal(recs, mle_reconstruct(recs).matrix,
                           dark_noise_admixture(state, snr).matrix)
            assert len(calls) == 2

    def test_start_is_full_rank_cholesky_factor(self):
        # a rank-1 input (the Bell state) floored to full rank at unit trace
        t = tomography._unpack_lower(tomography._start(bell_state(0.0).density().matrix))
        assert np.array_equal(t, np.tril(t))
        rho = t @ t.conj().T
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        w = np.linalg.eigvalsh(rho)
        assert w.min() == pytest.approx(tomography._START_FLOOR / (1 + 3 * tomography._START_FLOOR),
                                        rel=1e-6)
        assert fidelity(DensityMatrix(rho), bell_state(0.0)) > 0.999


def test_step_kernels_match_numpy_linalg():
    # the Newton step's Cholesky test and solve against the public wrappers:
    # the same branch and the same bits, and no warning when Cholesky fails
    rng = np.random.default_rng(31)
    outcomes = set()
    for shift in np.linspace(-1.0, 1.0, 41):
        g = rng.normal(size=(16, 16))
        a = g @ g.T / 16 + shift * np.eye(16)
        b = rng.normal(size=16)
        try:
            np.linalg.cholesky(a)
        except np.linalg.LinAlgError:
            fails = True
        else:
            fails = False
            assert tomography._solve(a, b).tobytes() == np.linalg.solve(a, b).tobytes()
        assert tomography._cholesky_fails(a) is fails
        outcomes.add(fails)
    assert outcomes == {True, False}


def count_step_branches(monkeypatch) -> dict:
    """Count the Newton steps that take the Cholesky branch (its linear solve)
    and those that fall back to the eigen step (a failed Cholesky)."""
    branches = {"cholesky": 0, "eigen": 0}
    cholesky_fails, solve = tomography._cholesky_fails, tomography._solve

    def counted_cholesky_fails(a):
        fails = cholesky_fails(a)
        branches["eigen"] += fails
        return fails

    def counted_solve(a, b):
        branches["cholesky"] += 1
        return solve(a, b)

    monkeypatch.setattr(tomography, "_cholesky_fails", counted_cholesky_fails)
    monkeypatch.setattr(tomography, "_solve", counted_solve)
    return branches


def assert_optimal(recs, m, source):
    """m is a state at which the likelihood of the counts is stationary and
    no lower than at ``source``."""
    assert np.max(np.abs(m - m.conj().T)) <= 1e-9
    assert np.trace(m).real == pytest.approx(1.0, abs=1e-9)
    assert np.linalg.eigvalsh(m).min() >= -1e-9
    projs = np.concatenate([setting_projectors(r.setting) for r in recs])
    counts = np.concatenate([r.counts for r in recs])
    probs = np.real(np.einsum("nij,ji->n", projs, m))
    # stationarity of the likelihood: R <= N and R rho = N rho
    r_op = np.einsum("n,nij->ij", counts / probs, projs) / counts.sum()
    assert np.linalg.eigvalsh(r_op).max() <= 1 + 1e-6
    assert np.linalg.norm(r_op @ m - m) <= 1e-6
    # the maximum is no less likely than the state the counts came from
    p_src = np.real(np.einsum("nij,ji->n", projs, source))
    used = counts > 0
    assert counts[used] @ np.log(probs[used]) >= counts[used] @ np.log(p_src[used])


class TestChsh:
    def test_tsirelson_point(self):
        s = chsh(bell_state(0.0).density(), ChshSettings.optimal())
        assert s == pytest.approx(2 * math.sqrt(2), abs=1e-9)

    def test_maximally_mixed(self):
        assert chsh(maximally_mixed(4), ChshSettings.optimal()) == pytest.approx(0.0, abs=1e-12)

    def test_werner_scaling(self):
        s = chsh(werner(0.823), ChshSettings.optimal())
        assert s == pytest.approx(2 * math.sqrt(2) * 0.823, abs=1e-9)
        assert s == pytest.approx(2.328, abs=0.002)

    def test_paper_stated_axes_cap_at_two(self):
        # ion X/Z with photon Z/X analyzers: bounded by 2 on any state
        paper_stated = ChshSettings.from_angles(math.pi / 2, 0.0, 0.0, math.pi / 2)
        s = chsh(bell_state(0.0).density(), paper_stated)
        assert s == pytest.approx(2.0, abs=1e-9)

    def test_linear_in_state(self):
        rng = np.random.default_rng(16)
        settings = ChshSettings.optimal()
        r1, r2 = random_state(rng), random_state(rng)
        alpha = 0.37
        mix = DensityMatrix(alpha * r1.matrix + (1 - alpha) * r2.matrix)
        assert chsh(mix, settings) == pytest.approx(
            alpha * chsh(r1, settings) + (1 - alpha) * chsh(r2, settings), abs=1e-10)

    def test_tsirelson_bound_random_states_and_settings(self):
        rng = np.random.default_rng(18)
        bound = 2 * math.sqrt(2) + 1e-9
        for _ in range(200):
            rho = random_state(rng)
            settings = ChshSettings(random_pm1_observable(rng), random_pm1_observable(rng),
                                    random_pm1_observable(rng), random_pm1_observable(rng))
            assert abs(chsh(rho, settings)) <= bound

    def test_product_states_respect_classical_bound(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            rho = DensityMatrix(np.kron(random_state(rng, 2).matrix,
                                        random_state(rng, 2).matrix))
            settings = ChshSettings(random_pm1_observable(rng), random_pm1_observable(rng),
                                    random_pm1_observable(rng), random_pm1_observable(rng))
            assert abs(chsh(rho, settings)) <= 2.0 + 1e-9

    def test_deterministic_strategies_bounded_by_two(self):
        # fixed +-1 assignments: S = a0 b0 + a0 b1 + a1 b0 - a1 b1
        for bits in range(16):
            a0, a1, b0, b1 = (((bits >> k) & 1) * 2 - 1 for k in range(4))
            s = a0 * b0 + a0 * b1 + a1 * b0 - a1 * b1
            assert abs(s) <= 2


def chsh_oracle(rho, s):
    """chsh() with one np.kron observable per setting."""
    total = 0.0
    for a, b, sign in s.pairs():
        total += sign * expectation(rho, Observable(np.kron(a.matrix, b.matrix)))
    return total


def simulate_chsh_oracle(rho, s, shots_total, snr, rng_seed):
    """simulate_chsh with a per-outcome table of np.kron projectors, each
    observable eigendecomposed per setting."""
    rng = as_rng(rng_seed)
    state = rho if snr is None else dark_noise_admixture(rho, snr)
    total, var = 0.0, 0.0
    for (a, b, sign), shots in zip(s.pairs(), split_heralds(shots_total, 4)):
        wa, va = np.linalg.eigh(a.matrix)
        wb, vb = np.linalg.eigh(b.matrix)
        probs, values = [], []
        for i in range(2):
            pa = np.outer(va[:, i], va[:, i].conj())
            for j in range(2):
                pb = np.outer(vb[:, j], vb[:, j].conj())
                probs.append(float(np.real(np.trace(np.kron(pa, pb) @ state.matrix))))
                values.append(float(np.sign(wa[i]) * np.sign(wb[j])))
        probs = np.clip(np.array(probs), 0, None)
        counts = rng.multinomial(shots, probs / probs.sum())
        e = float(counts @ np.array(values)) / shots
        total += sign * e
        var += (1 - e * e) / shots
    return total, math.sqrt(var)


class TestChshTables:
    @staticmethod
    def states():
        rng = np.random.default_rng(53)
        pipeline = analytic_pipeline_state(ExperimentConfig.defaults("chsh"), "chsh")[0]
        return [pipeline, bell_state(0.0).density(), werner(0.8), random_state(rng)]

    @pytest.mark.parametrize("which", ["optimal", "paper_stated", "random"])
    def test_sampled_and_exact_values_match_the_kron_tables(self, which):
        rng = np.random.default_rng(59)
        for rho in self.states():
            for seed in range(5):
                if which == "random":
                    s = ChshSettings.from_angles(*rng.uniform(-math.pi, math.pi, size=4))
                elif which == "paper_stated":
                    s = ChshSettings.from_angles(math.pi / 2, 0.0, 0.0, math.pi / 2)
                else:
                    s = ChshSettings.optimal()
                assert chsh(rho, s) == chsh_oracle(rho, s)
                for snr in (None, 28.0):
                    assert (simulate_chsh(rho, s, 4000, snr, child_rng(seed, "chsh"))
                            == simulate_chsh_oracle(rho, s, 4000, snr,
                                                    child_rng(seed, "chsh")))

    def test_general_observables_match_the_kron_tables(self):
        rng = np.random.default_rng(61)
        for seed in range(20):
            s = ChshSettings(random_pm1_observable(rng), random_pm1_observable(rng),
                             random_pm1_observable(rng), random_pm1_observable(rng))
            rho = random_state(rng)
            assert chsh(rho, s) == chsh_oracle(rho, s)
            assert simulate_chsh(rho, s, 999, 28.0, seed) == simulate_chsh_oracle(
                rho, s, 999, 28.0, seed)

    def test_needs_a_shot_per_setting(self):
        with pytest.raises(ValueError, match="need at least one shot per CHSH setting"):
            simulate_chsh(werner(0.9), ChshSettings.optimal(), 3, None, 1)


class TestBootstrap:
    def test_large_shot_concentration(self):
        recs = simulate_tomography(werner(0.88), 10 ** 6, None, child_rng(2, "big"))
        mean, std = bootstrap_uncertainty(recs, 100, "fidelity", child_rng(3, "bs"))
        assert std < 0.002
        assert mean == pytest.approx(fidelity(werner(0.88), bell_state(0.0)), abs=0.01)

    def test_resample_counts_agree_across_sizes(self):
        recs = simulate_tomography(werner(0.85), 2000, 28.0, child_rng(4, "mid"))
        m1, s1 = bootstrap_uncertainty(recs, 100, "fidelity", child_rng(5, "a"))
        m2, s2 = bootstrap_uncertainty(recs, 300, "fidelity", child_rng(5, "b"))
        assert abs(m1 - m2) <= max(s1, s2)

    def test_chsh_statistic(self):
        recs = simulate_tomography(werner(0.9), 20000, None, child_rng(6, "c"))
        mean, std = bootstrap_uncertainty(recs, 100, "chsh", child_rng(7, "d"))
        assert mean == pytest.approx(2 * math.sqrt(2) * 0.9, abs=0.05)
        assert std < 0.05

    def test_zero_shot_record_rejected(self):
        recs = records_from_probabilities(werner(0.5))
        broken = recs[:-1] + [CountRecord(recs[-1].setting, (0, 0, 0, 0), 0)]
        with pytest.raises(ValueError):
            bootstrap_uncertainty(broken, 100, "fidelity", 1)

    def test_too_few_resamples_rejected(self):
        recs = records_from_probabilities(werner(0.5))
        with pytest.raises(ValueError):
            bootstrap_uncertainty(recs, 50, "fidelity", 1)

    def test_deterministic_per_seed(self):
        recs = simulate_tomography(werner(0.85), 500, 28.0, child_rng(8, "e"))
        r1 = bootstrap_uncertainty(recs, 100, "fidelity", 42)
        r2 = bootstrap_uncertainty(recs, 100, "fidelity", 42)
        assert r1 == r2


def test_split_heralds():
    parts = split_heralds(1780)
    assert sum(parts) == 1780
    assert len(parts) == 9
    assert max(parts) - min(parts) <= 1



class TestRecordCsv:
    def test_header_and_one_row_per_record(self):
        recs = simulate_tomography(werner(0.9), 50, None, child_rng(5, "csv"))
        lines = records_to_csv(recs).splitlines()
        assert lines[0] == "setting_ion,setting_photon,n_pp,n_pm,n_mp,n_mm"
        assert len(lines) == 1 + len(recs)

    def test_row_text_is_each_count_to_15_digits(self):
        counts = (1 / 3, 2 / 3, 1e-20, 123456.78901234567)
        rec = CountRecord(MeasurementSetting("Y", "X"), counts, sum(counts))
        row = records_to_csv([rec]).splitlines()[1]
        assert row == "Y,X," + ",".join(f"{c:.15g}" for c in counts)

    def test_rows_read_back_with_csv_module(self):
        # fractional counts survive to 15 significant digits
        recs = records_from_probabilities(werner(0.7), shots=123.456)
        rows = list(csv.DictReader(io.StringIO(records_to_csv(recs))))
        assert [(r["setting_ion"], r["setting_photon"]) for r in rows] == \
            [(s.ion_axis, s.photon_axis) for s in all_settings()]
        for row, rec in zip(rows, recs):
            got = [float(row[k]) for k in ("n_pp", "n_pm", "n_mp", "n_mm")]
            np.testing.assert_allclose(got, rec.counts, rtol=1e-14)
