"""Photon-chain tests: jitter, PBS leakage, dark noise and process
matrices."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hqlink.config import ExperimentConfig
from hqlink.photon import (
    _LIFT_MIN_WEIGHT,
    ProcessMatrix,
    dark_noise_admixture,
    dark_noise_infidelity,
    depolarizing_chi,
    jitter_dephasing_channel,
    jitter_infidelity,
    jitter_phase_uncertainty,
    jitter_total_rms,
    pbs_bitflip_channel,
    process_matrix_channel,
)
from hqlink.qstate import (
    HERMITIAN_TOL,
    PAULIS,
    TRACE_TOL,
    DensityMatrix,
    PureState,
    StateError,
    X,
    apply_channel,
    bell_state,
    fidelity,
    trace_distance,
    werner,
)


JITTER = ExperimentConfig.defaults().jitter
NO_JITTER = dataclasses.replace(JITTER, awg_rms_ns=0, transceiver_rms_ns=0)


def random_state(rng, dim=4):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real)


def _gram_state(parts):
    g = np.reshape(parts[:16], (4, 4)) + 1j * np.reshape(parts[16:], (4, 4))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real)


def _pure_state(parts):
    v = np.array(parts[:4]) + 1j * np.array(parts[4:])
    return PureState(v / np.linalg.norm(v)).density()


# Two-qubit states of every rank: G G^dag / tr for a complex G, and pure
# states, whose checked matrices can hold rounding-level negative eigenvalues.
VALID_STATES = st.one_of(
    st.lists(st.floats(-1, 1), min_size=32, max_size=32)
    .filter(lambda x: np.dot(x, x) > 1e-12).map(_gram_state),
    st.lists(st.floats(-1, 1), min_size=8, max_size=8)
    .filter(lambda x: np.dot(x, x) > 1e-12).map(_pure_state))


class TestJitter:
    def test_quadrature_sum_at_operating_point(self):
        assert jitter_total_rms(JITTER) == pytest.approx(0.310, abs=5e-4)

    def test_zero(self):
        assert jitter_total_rms(NO_JITTER) == 0.0

    def test_pythagorean(self):
        p = dataclasses.replace(JITTER, awg_rms_ns=3, transceiver_rms_ns=4)
        assert jitter_total_rms(p) == pytest.approx(5.0, abs=1e-12)

    def test_phase_uncertainty(self):
        assert jitter_phase_uncertainty(JITTER) == pytest.approx(2.19e-2, rel=5e-3)

    def test_bell_infidelity(self):
        assert jitter_infidelity(JITTER) == pytest.approx(1.2e-4, rel=0.01)
        rho = apply_channel(bell_state(0.0).density(), jitter_dephasing_channel(JITTER))
        assert 1 - fidelity(rho, bell_state(0.0)) == pytest.approx(1.2e-4, rel=0.01)

    def test_zero_jitter_identity(self):
        ch = jitter_dephasing_channel(NO_JITTER)
        rho = bell_state(0.4).density()
        np.testing.assert_allclose(apply_channel(rho, ch).matrix, rho.matrix, atol=1e-12)

    @pytest.mark.parametrize("name,value", [
        ("awg_rms_ns", float("nan")),
        ("awg_rms_ns", float("inf")),
        ("transceiver_rms_ns", float("nan")),
        ("transceiver_rms_ns", float("-inf")),
        ("awg_rms_ns", "0.1"),
        ("awg_rms_ns", True),
        ("transceiver_rms_ns", False),
    ])
    def test_non_finite_component_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"^{name}: expected a finite number >= 0, got "):
            dataclasses.replace(JITTER, **{name: value})

    def test_negative_component_rejected(self):
        with pytest.raises(ValueError, match=r"^transceiver_rms_ns: expected a finite number "
                                              r">= 0, got -0\.1$"):
            dataclasses.replace(JITTER, transceiver_rms_ns=-0.1)


class TestPbs:
    def test_extinction_must_exceed_one(self):
        with pytest.raises(ValueError, match=r"^extinction: expected a number > 1, got 1\.0$"):
            pbs_bitflip_channel(1.0)

    def test_nan_extinction_rejected(self):
        # fails its own check, not later inside bitflip_channel
        with pytest.raises(ValueError, match=r"^extinction: expected a number > 1, got nan$"):
            pbs_bitflip_channel(math.nan)

    def test_operating_point(self):
        ch = pbs_bitflip_channel(3500.0)
        rho = apply_channel(bell_state(0.0).density(), ch)
        assert 1 - fidelity(rho, bell_state(0.0)) == pytest.approx(2.9e-4, abs=5e-6)

    def test_infinite_extinction(self):
        ch = pbs_bitflip_channel(1e12)
        rho = bell_state(0.0).density()
        assert 1 - fidelity(apply_channel(rho, ch), bell_state(0.0)) < 1e-11

    def test_full_flip_kills_fidelity(self):
        # epsilon = 1: pure (I (x) X) conjugation
        rho = bell_state(0.0).density()
        ch = pbs_bitflip_channel(1.0 + 1e-12)
        out = apply_channel(rho, ch)
        ix = np.kron(np.eye(2), X)
        np.testing.assert_allclose(out.matrix, ix @ rho.matrix @ ix, atol=1e-9)
        assert fidelity(out, bell_state(0.0)) == pytest.approx(0.0, abs=1e-9)

    def test_infidelity_equals_leakage_exactly(self):
        for ext in (10.0, 100.0, 3500.0):
            rho = apply_channel(bell_state(0.0).density(), pbs_bitflip_channel(ext))
            assert 1 - fidelity(rho, bell_state(0.0)) == pytest.approx(1 / ext, rel=1e-9)


class TestDarkNoise:
    def test_operating_point(self):
        out = dark_noise_admixture(bell_state(0.0).density(), 28.0)
        infid = 1 - fidelity(out, bell_state(0.0))
        # p (1 - 1/4) with p = 1/29
        assert infid == pytest.approx((1 / 29) * 0.75, rel=1e-9)
        assert infid == pytest.approx(2.59e-2, rel=2e-3)
        assert dark_noise_infidelity(28.0) == pytest.approx(infid, rel=1e-9)

    def test_infinite_snr_no_change(self):
        rho = bell_state(0.2).density()
        out = dark_noise_admixture(rho, 1e15)
        np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-12)

    # snr = 0 is rejected by the rule the config's scenarios.*.snr takes: a
    # run whose counts are all noise has no state to reconstruct
    @pytest.mark.parametrize("snr", [-1.0, -0.5, math.nan, 0.0])
    def test_nonpositive_or_nan_snr_rejected(self, snr):
        with pytest.raises(ValueError, match=r"^snr: expected a number > 0, got "):
            dark_noise_admixture(bell_state(0.0).density(), snr)
        # the ledger's model of the same admixture takes the same rule
        with pytest.raises(ValueError, match=r"^snr: expected a number > 0, got "):
            dark_noise_infidelity(snr)

    def test_least_snr_fully_mixed(self):
        # the least positive float: p = 1/(snr + 1) rounds to 1
        out = dark_noise_admixture(bell_state(0.0).density(), 5e-324)
        np.testing.assert_allclose(out.matrix, np.eye(4) / 4, atol=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(rho=VALID_STATES, snr=st.floats(min_value=0.0, exclude_min=True))
    @example(rho=bell_state(0.3).density(), snr=math.inf)
    @example(rho=bell_state(0.3).density(), snr=1e300)
    @example(rho=bell_state(0.3).density(), snr=28.0)
    def test_mixture_keeps_every_bit_of_the_full_check(self, rho, snr):
        out = dark_noise_admixture(rho, snr)
        p = 1.0 / (snr + 1.0)
        checked = DensityMatrix((1 - p) * rho.matrix + p * np.eye(4) / 4)
        assert out.matrix.tobytes() == checked.matrix.tobytes()
        again = DensityMatrix(out.matrix)
        if p >= _LIFT_MIN_WEIGHT:
            # the eigenvalue check skipped on the lifted mixture changes nothing;
            # a lighter admixture ran the check itself, and the check's clip of a
            # rank-deficient state need not be idempotent
            assert again.matrix.tobytes() == out.matrix.tobytes()

    # SNRs whose weight p = 1/(snr + 1) lies well above, at and under the
    # least weight that skips the checks
    @pytest.mark.parametrize("snr", [28.0, 1800.0, 1 / _LIFT_MIN_WEIGHT - 1,
                                     math.nextafter(1 / _LIFT_MIN_WEIGHT - 1, math.inf),
                                     1e6, 1e7, 1e12, 1e15])
    @pytest.mark.parametrize("trace_side", [-1, 0, 1])
    def test_mixture_of_a_state_at_its_tolerances_keeps_the_full_check(self, snr, trace_side):
        # states that pass the Hermiticity and trace checks at their
        # tolerances: the mixture has the full check's outcome, bit for bit
        # or the same error, whether or not its checks run.  Under a weight
        # of ~1e-5 the mixture of some of these fails the trace check.
        rng = np.random.default_rng(7)
        candidates = [random_state(rng).matrix for _ in range(6)]
        for where in ((0, 1), (2, 3)):
            for direction in (1, -1, 1j, -1j):
                m = werner(0.8).matrix.copy()
                m[where] += HERMITIAN_TOL * direction
                candidates.append(m)
        p = 1.0 / (snr + 1.0)
        for m in candidates:
            rho = state_at_trace_tolerance(m, trace_side)
            assert (outcome(dark_noise_admixture, rho, snr)
                    == outcome(DensityMatrix, (1 - p) * rho.matrix + p * np.eye(4) / 4))

    def test_subnormalized_state_takes_the_full_check(self):
        # the trace check runs on the mixture of a heralded state: a trace of
        # 1/2 is rejected, a trace of 1 is mixed as a normalized state is
        with pytest.raises(StateError, match="^trace 0.5"):
            dark_noise_admixture(DensityMatrix(werner(0.8).matrix / 2, subnormalized=True), 28.0)
        unit = DensityMatrix(werner(0.8).matrix, subnormalized=True)
        assert (dark_noise_admixture(unit, 28.0).matrix.tobytes()
                == dark_noise_admixture(werner(0.8), 28.0).matrix.tobytes())

    def test_commutes_with_pbs(self):
        rng = np.random.default_rng(4)
        pbs = pbs_bitflip_channel(200.0)
        for _ in range(100):
            rho = random_state(rng)
            a = dark_noise_admixture(apply_channel(rho, pbs), 15.0)
            b = apply_channel(dark_noise_admixture(rho, 15.0), pbs)
            assert trace_distance(a, b) < 1e-9

    def test_linear_trace_preserving_fixed_point(self):
        rng = np.random.default_rng(5)
        r1, r2 = random_state(rng), random_state(rng)
        alpha = 0.3
        mix = DensityMatrix(alpha * r1.matrix + (1 - alpha) * r2.matrix)
        lhs = dark_noise_admixture(mix, 9.0).matrix
        rhs = (alpha * dark_noise_admixture(r1, 9.0).matrix
               + (1 - alpha) * dark_noise_admixture(r2, 9.0).matrix)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)
        eye4 = DensityMatrix(np.eye(4, dtype=complex) / 4)
        np.testing.assert_allclose(dark_noise_admixture(eye4, 9.0).matrix, eye4.matrix,
                                   atol=1e-12)


def state_at_trace_tolerance(m: np.ndarray, side: int) -> DensityMatrix:
    """The state of m with m[0, 0] moved by the offset of sign ``side`` nearest
    TRACE_TOL that the trace check passes (to 1e-25, by bisection)."""
    inside, outside = 0.0, 2 * TRACE_TOL
    while side and outside - inside > 1e-25:
        mid = (inside + outside) / 2
        moved = m.copy()
        moved[0, 0] += side * mid
        try:
            DensityMatrix(moved)
        except StateError:
            outside = mid
        else:
            inside = mid
    moved = m.copy()
    moved[0, 0] += side * inside
    return DensityMatrix(moved)


def outcome(fn, *args):
    """fn(*args)'s matrix bits, or its error's type and message."""
    try:
        return fn(*args).matrix.tobytes()
    except ValueError as exc:
        return type(exc), str(exc)


class TestProcessMatrix:
    def test_identity_chi_gives_identity_channel(self):
        ch = process_matrix_channel(depolarizing_chi(1.0))
        assert len(ch.kraus_ops) == 1
        np.testing.assert_allclose(np.abs(ch.kraus_ops[0]), np.eye(2), atol=1e-12)

    def test_unitary_rotation_chi_is_rank_one(self):
        theta = 0.7
        coeffs = np.array([math.cos(theta), -1j * math.sin(theta), 0, 0])
        chi = ProcessMatrix(np.outer(coeffs, coeffs.conj()))
        ch = process_matrix_channel(chi)
        assert len(ch.kraus_ops) == 1
        k = ch.kraus_ops[0]
        np.testing.assert_allclose(k @ k.conj().T, np.eye(2), atol=1e-10)

    def test_kraus_completeness_for_random_valid_chi(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            chi = _random_chi(rng)
            ch = process_matrix_channel(chi)
            total = sum(k.conj().T @ k for k in ch.kraus_ops)
            assert np.max(np.abs(total - np.eye(2))) < 1e-8

    @pytest.mark.parametrize("fp", [2.1e-10, 5e-10, 1 - 5e-10])
    def test_small_chi_weight_is_kept(self, fp):
        # weights below CHI_TOL are still part of a trace-preserving map
        ch = process_matrix_channel(depolarizing_chi(fp))
        total = sum(k.conj().T @ k for k in ch.kraus_ops)
        assert np.max(np.abs(total - np.eye(2))) <= 1e-14

    def test_channel_acts_as_chi(self):
        # sum_i K_i rho K_i^dag = sum_mn chi_mn P_m rho P_n^dag
        rng = np.random.default_rng(8)
        for _ in range(20):
            chi = _random_chi(rng)
            ch = process_matrix_channel(chi)
            rho = random_state(rng, 2).matrix
            expected = sum(chi.chi[m, n] * PAULIS[m] @ rho @ PAULIS[n]
                           for m in range(4) for n in range(4))
            out = sum(k @ rho @ k.conj().T for k in ch.kraus_ops)
            assert np.max(np.abs(out - expected)) < 1e-12

    def test_non_psd_chi_rejected(self):
        bad = np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex)
        with pytest.raises(StateError):
            ProcessMatrix(bad)

    def test_depolarizing_chi_state_infidelity(self):
        # one-sided depolarizing chi: Bell infidelity equals 1 - F_process
        for fp in (0.9732, 0.969):
            ch = process_matrix_channel(depolarizing_chi(fp))
            kraus4 = tuple(np.kron(np.eye(2), k) for k in ch.kraus_ops)
            from hqlink.qstate import QuantumChannel
            rho = apply_channel(bell_state(0.0).density(), QuantumChannel(kraus4))
            assert 1 - fidelity(rho, bell_state(0.0)) == pytest.approx(1 - fp, rel=1e-9)


def _random_chi(rng) -> ProcessMatrix:
    """Random valid chi: unitary rotation mixed with depolarizing weight."""
    theta = rng.uniform(0, math.pi)
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    coeffs = np.array([math.cos(theta / 2), *(-1j * math.sin(theta / 2) * axis)])
    chi_u = np.outer(coeffs, coeffs.conj())
    w = rng.uniform(0, 0.5)
    chi = (1 - w) * chi_u + w * np.eye(4) / 4
    return ProcessMatrix(chi)
