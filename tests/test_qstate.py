"""Core state/channel algebra tests."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hqlink.qstate import (
    PAULIS,
    PAULIS_2Q,
    DensityMatrix,
    Observable,
    PureState,
    QuantumChannel,
    StateError,
    X,
    Z,
    apply_channel,
    bell_state,
    bitflip_channel,
    dephasing_channel,
    depolarizing_channel,
    expectation,
    fidelity,
    identity_channel,
    kron,
    matrix_from_json_dict,
    matrix_to_json_dict,
    maximally_mixed,
    round15,
    trace_distance,
    werner,
    white_noise_channel,
)

RNG = np.random.default_rng(20260810)


def random_state(rng, dim=4):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real)


def ion_state(rho: DensityMatrix) -> DensityMatrix:
    """Reduced state of the ion: the photon traced out of ion (x) photon."""
    return DensityMatrix(np.trace(rho.matrix.reshape(2, 2, 2, 2), axis1=1, axis2=3))


def test_bell_state_superposes_matching_basis_products():
    # |1'>|sigma+> and |1>|sigma-> superposed with equal weight
    a = np.kron([1, 0], [1, 0])
    b = np.kron([0, 1], [0, 1])
    np.testing.assert_allclose(bell_state(0.0).amplitudes, (a + b) / np.sqrt(2), atol=1e-15)


def test_phase_zero_bell_state_is_one_shared_read_only_state():
    target = bell_state(0.0)
    assert bell_state() is target and bell_state(0) is target
    with pytest.raises(ValueError):
        target.amplitudes[3] = 0.0
    # the same bits as the formula, also where e^{i phi} may carry a -0.0
    for phi in (0.0, -0.0, 0.3):
        amps = np.array([1, 0, 0, np.exp(1j * phi)]) / np.sqrt(2)
        assert bell_state(phi).amplitudes.tobytes() == amps.tobytes()


def signed_zero_matrix(rng, dim):
    """Random complex matrix with about a third of its real and imaginary
    parts replaced by 0.0 or -0.0."""
    parts = rng.normal(size=(2, dim, dim))
    zeros = rng.uniform(size=parts.shape) < 1 / 3
    parts[zeros] = rng.choice([0.0, -0.0], size=zeros.sum())
    return parts[0] + 1j * parts[1]


class TestKron:
    @pytest.mark.parametrize("n, m", [(2, 2), (2, 4), (4, 2), (4, 4)])
    def test_bitwise_equal_to_numpy_kron(self, n, m):
        rng = np.random.default_rng(29)
        for _ in range(50):
            a, b = signed_zero_matrix(rng, n), signed_zero_matrix(rng, m)
            ours, ref = kron(a, b), np.kron(a, b)
            assert ours.shape == ref.shape == (n * m, n * m)
            assert ours.tobytes() == ref.tobytes()
            for part in ("real", "imag"):
                assert np.array_equal(np.signbit(getattr(ours, part)),
                                      np.signbit(getattr(ref, part)))

    def test_signed_zeros_are_drawn(self):
        rng = np.random.default_rng(29)
        a = kron(signed_zero_matrix(rng, 4), signed_zero_matrix(rng, 4))
        zeros = a.real == 0.0
        assert np.signbit(a.real[zeros]).any() and not np.signbit(a.real[zeros]).all()

    def test_stacks_broadcast_over_leading_axes(self):
        rng = np.random.default_rng(41)
        a, b = signed_zero_matrix(rng, 2), np.array([signed_zero_matrix(rng, 2)
                                                     for _ in range(3)])
        stacked = kron(a, b)
        assert stacked.shape == (3, 4, 4)
        for ours, bk in zip(stacked, b):
            assert ours.tobytes() == np.kron(a, bk).tobytes()
        grid = kron(b[:, None], b)
        assert grid.shape == (3, 3, 4, 4)
        for i, j in np.ndindex(3, 3):
            assert grid[i, j].tobytes() == np.kron(b[i], b[j]).tobytes()

    def test_paulis_are_one_read_only_stack(self):
        reference = [np.eye(2, dtype=complex), np.array([[0, 1], [1, 0]], dtype=complex),
                     np.array([[0, -1j], [1j, 0]], dtype=complex),
                     np.array([[1, 0], [0, -1]], dtype=complex)]
        assert PAULIS.shape == (4, 2, 2) and PAULIS_2Q.shape == (16, 4, 4)
        assert PAULIS.tobytes() == np.array(reference).tobytes()
        assert not PAULIS.flags.writeable and not PAULIS_2Q.flags.writeable

    def test_two_qubit_paulis_are_built_once_read_only(self):
        reference = [np.kron(a, b) for a in PAULIS for b in PAULIS]
        assert len(PAULIS_2Q) == 16
        for ours, ref in zip(PAULIS_2Q, reference):
            assert ours.tobytes() == ref.tobytes()
            assert not ours.flags.writeable
            with pytest.raises(ValueError):
                ours[0, 0] = 2.0


class TestFidelity:
    def test_pure_state_with_itself(self):
        psi = bell_state(0.3)
        assert fidelity(psi.density(), psi) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed_vs_bell(self):
        assert fidelity(maximally_mixed(4), bell_state(0.0)) == pytest.approx(0.25, abs=1e-12)

    def test_werner_closed_form_and_direct_product(self):
        p = 0.8
        rho = werner(p)
        # oracle: direct <psi| rho |psi> by plain matrix arithmetic
        v = bell_state(0.0).amplitudes
        direct = float(np.real(v.conj() @ rho.matrix @ v))
        assert direct == pytest.approx((1 + 3 * p) / 4, abs=1e-12)
        assert fidelity(rho, bell_state(0.0)) == pytest.approx(0.85, abs=1e-12)

    def test_linearity_in_rho(self):
        rng = np.random.default_rng(7)
        psi = bell_state(0.0)
        for _ in range(50):
            r1, r2 = random_state(rng), random_state(rng)
            alpha = rng.uniform()
            mix = DensityMatrix(alpha * r1.matrix + (1 - alpha) * r2.matrix)
            expected = alpha * fidelity(r1, psi) + (1 - alpha) * fidelity(r2, psi)
            assert fidelity(mix, psi) == pytest.approx(expected, abs=1e-10)

    def test_dim_mismatch(self):
        with pytest.raises(StateError):
            fidelity(maximally_mixed(2), bell_state(0.0))


class TestApplyChannel:
    def test_identity(self):
        rng = np.random.default_rng(3)
        rho = random_state(rng)
        out = apply_channel(rho, identity_channel(4))
        np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-12)

    def test_full_depolarizing(self):
        out = apply_channel(bell_state(0.0).density(), depolarizing_channel(1.0, 4))
        np.testing.assert_allclose(out.matrix, np.eye(4) / 4, atol=1e-12)

    def test_bitflip_on_photon_matches_hand_conjugation(self):
        rho = bell_state(0.0).density()
        out = apply_channel(rho, bitflip_channel(1.0, subsystem=1))
        ix = np.kron(np.eye(2), X)
        np.testing.assert_allclose(out.matrix, ix @ rho.matrix @ ix, atol=1e-12)
        # support moved onto |1'>|sigma-> and |1>|sigma+>
        diag = np.real(np.diag(out.matrix))
        np.testing.assert_allclose(diag, [0, 0.5, 0.5, 0], atol=1e-12)

    def test_trace_preserved(self):
        rng = np.random.default_rng(11)
        rho = random_state(rng)
        for ch in (depolarizing_channel(0.3, 4), dephasing_channel(0.7, 0),
                   bitflip_channel(0.2, 1), white_noise_channel(0.05)):
            assert apply_channel(rho, ch).trace == pytest.approx(rho.trace, abs=1e-9)

    def test_dim_mismatch(self):
        with pytest.raises(StateError):
            apply_channel(maximally_mixed(2), identity_channel(4))


class TestExpectation:
    def test_zz_on_phase_zero_state(self):
        # with ion |1'> -> +Z and photon |sigma+> -> +Z the correlation is +1
        zz = Observable(np.kron(Z, Z))
        val = expectation(bell_state(0.0).density(), zz)
        assert val == pytest.approx(1.0, abs=1e-12)
        assert abs(val) == pytest.approx(1.0, abs=1e-12)

    def test_zz_on_maximally_mixed(self):
        zz = Observable(np.kron(Z, Z))
        assert expectation(maximally_mixed(4), zz) == pytest.approx(0.0, abs=1e-12)

    def test_xx_on_phase_zero_state(self):
        xx = Observable(np.kron(X, X))
        assert expectation(bell_state(0.0).density(), xx) == pytest.approx(1.0, abs=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(StateError):
            expectation(maximally_mixed(2), Observable(np.kron(Z, Z)))


class TestInvariants:
    def test_channel_kraus_sums_within_tolerance(self):
        rng = np.random.default_rng(13)
        channels = [depolarizing_channel(rng.uniform(), 4) for _ in range(20)]
        channels += [dephasing_channel(rng.uniform(), rng.integers(0, 2)) for _ in range(20)]
        for ch in channels:
            total = sum(k.conj().T @ k for k in ch.kraus_ops)
            assert np.max(np.abs(total - np.eye(ch.dim))) < 1e-9

    def test_channel_commutes_with_partial_trace_on_kept_subsystem(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            rho = random_state(rng)
            coh = rng.uniform()
            lifted = dephasing_channel(coh, subsystem=0)
            local = dephasing_channel(coh, subsystem=None)
            via_joint = ion_state(apply_channel(rho, lifted))
            via_local = apply_channel(ion_state(rho), local)
            assert trace_distance(via_joint, via_local) < 1e-9

    def test_pipeline_states_stay_psd(self):
        rng = np.random.default_rng(19)
        rho = bell_state(0.0).density()
        for _ in range(50):
            ch = depolarizing_channel(rng.uniform(0, 0.2), 4)
            rho = apply_channel(rho, ch)
            assert rho.eigenvalues().min() >= -1e-9


class TestValidation:
    def test_non_hermitian_rejected(self):
        m = np.eye(4, dtype=complex)
        m[0, 1] = 1.0
        with pytest.raises(StateError):
            DensityMatrix(m / np.trace(m))

    def test_wrong_trace_rejected(self):
        with pytest.raises(StateError):
            DensityMatrix(np.eye(4, dtype=complex))

    def test_subnormalized_allows_reduced_trace(self):
        rho = DensityMatrix(np.eye(4, dtype=complex) / 8, subnormalized=True)
        assert rho.trace == pytest.approx(0.5)
        with pytest.raises(StateError):
            DensityMatrix(np.eye(4, dtype=complex) / 8)

    def test_tiny_negative_eigenvalue_clipped(self):
        m = np.diag([0.6, 0.4 + 5e-10, -5e-10, 0.0]).astype(complex)
        rho = DensityMatrix(m)
        assert rho.eigenvalues().min() >= 0.0
        assert rho.trace == pytest.approx(1.0, abs=1e-12)

    def test_large_negative_eigenvalue_rejected(self):
        m = np.diag([0.7, 0.4, -0.1, 0.0]).astype(complex)
        with pytest.raises(StateError):
            DensityMatrix(m)

    def test_unnormalized_pure_state_rejected(self):
        with pytest.raises(StateError):
            PureState(np.array([1.0, 1.0]))

    def test_non_tp_channel_rejected(self):
        with pytest.raises(StateError):
            QuantumChannel((np.eye(2, dtype=complex) * 0.9,))

    def test_heralded_channel_must_stay_below_identity(self):
        with pytest.raises(StateError):
            QuantumChannel((np.eye(2, dtype=complex) * 1.1,), trace_preserving=False)

    def test_nan_pure_state_rejected(self):
        with pytest.raises(StateError, match="norm nan"):
            PureState(np.array([np.nan, 1.0]))

    @pytest.mark.parametrize("subnormalized", [False, True])
    def test_nan_off_diagonals_rejected(self, subnormalized):
        m = np.array([[0.5, np.nan], [np.nan, 0.5]], dtype=complex)
        with pytest.raises(StateError, match="not Hermitian"):
            DensityMatrix(m, subnormalized=subnormalized)

    def test_nan_matrix_rejected_before_eigenvalues(self):
        # np.linalg.eigvalsh raises LinAlgError on an all-NaN matrix
        with pytest.raises(StateError, match="not Hermitian"):
            DensityMatrix(np.full((4, 4), np.nan, dtype=complex))

    def test_nan_observable_rejected(self):
        with pytest.raises(StateError, match="not Hermitian"):
            Observable(np.full((2, 2), np.nan))

    @pytest.mark.parametrize("trace_preserving, message", [
        (True, "do not sum to identity"), (False, "exceeds identity")])
    def test_nan_kraus_operators_rejected(self, trace_preserving, message):
        ops = (np.eye(2) / np.sqrt(2), np.array([[np.nan, 0], [0, 0.5]]))
        with pytest.raises(StateError, match=message):
            QuantumChannel(ops, trace_preserving=trace_preserving)

    @pytest.mark.parametrize("ops, message", [
        ((), "channel needs at least one Kraus operator"),
        (np.zeros((0, 2, 2)), "channel needs at least one Kraus operator"),
        ((np.eye(2), np.eye(4)), "Kraus operators must share one dimension"),
        ([np.eye(2), np.zeros((2, 3))], r"expected a square matrix, got shape \(2, 3\)"),
        (np.ones((1, 2, 3)), r"expected a square matrix, got shape \(2, 3\)"),
        ((np.eye(8),), "dimension 8 exceeds the two-qubit limit"),
        (np.eye(8)[None], "dimension 8 exceeds the two-qubit limit"),
    ], ids=["empty", "empty-array", "ragged", "non-square", "non-square-array", "over-4",
            "over-4-array"])
    def test_bad_kraus_shapes_rejected_before_stacking(self, ops, message):
        # np.array alone raises a bare ValueError on ragged operators
        with pytest.raises(StateError, match=message):
            QuantumChannel(ops)


class TestKrausStack:
    @pytest.mark.parametrize("ops", [
        (np.eye(2), np.zeros((2, 2))),
        [np.eye(4, dtype=complex)],
        np.array([np.eye(2) / np.sqrt(2), X / np.sqrt(2)]),
    ])
    def test_one_read_only_complex_stack(self, ops):
        ch = QuantumChannel(ops)
        assert isinstance(ch.kraus_ops, np.ndarray)
        assert ch.kraus_ops.dtype == complex
        assert ch.kraus_ops.shape == (len(ops),) + np.shape(ops[0])
        assert ch.dim == np.shape(ops[0])[0]
        with pytest.raises(ValueError):
            ch.kraus_ops[0, 0, 0] = 2.0
        assert ch.kraus_ops.tobytes() == np.array(ops, dtype=complex).tobytes()

    def test_input_array_is_copied_not_frozen(self):
        ops = np.array([np.eye(2, dtype=complex)])
        ch = QuantumChannel(ops)
        ops[0, 0, 0] = 5.0
        assert ops.flags.writeable and ch.kraus_ops[0, 0, 0] == 1.0


class TestSerialization:
    def test_round_trip_is_stable(self):
        rng = np.random.default_rng(23)
        rho = random_state(rng)
        d1 = matrix_to_json_dict(rho.matrix)
        m = matrix_from_json_dict(d1)
        d2 = matrix_to_json_dict(m)
        assert d1 == d2

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(), min_size=8, max_size=8))
    @example([-0.0, 5e-324, 1e308, -1e308, math.inf, -math.inf, math.nan, 0.1])
    @example([1e15, 123456789012345.67, -2.5e-5, 1.0, 0.0, -5e-324, 1e16, 0.3])
    def test_one_pass_rounding_matches_round15(self, values):
        # bit for bit: the hex of every entry, NaN and signed zeros included
        m = np.empty((2, 2), dtype=complex)
        m.real, m.imag = np.reshape(values[:4], (2, 2)), np.reshape(values[4:], (2, 2))
        d = matrix_to_json_dict(m)
        for key, part in (("re", m.real), ("im", m.imag)):
            assert [v.hex() for v in d[key]] == [round15(v).hex() for v in part.ravel()]

    def test_dim_preserved(self):
        d = matrix_to_json_dict(np.eye(2, dtype=complex) / 2)
        assert d["dim"] == 2
        np.testing.assert_allclose(matrix_from_json_dict(d), np.eye(2) / 2)


def test_trace_distance_extremes():
    a = bell_state(0.0).density()
    b = bell_state(np.pi).density()
    assert trace_distance(a, a) == pytest.approx(0.0, abs=1e-12)
    assert trace_distance(a, b) == pytest.approx(1.0, abs=1e-12)
