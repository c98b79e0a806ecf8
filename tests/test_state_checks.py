"""The one-pass state and channel checks against the checks they replaced.

``oracle_density_matrix`` and ``oracle_channel`` are the earlier
constructors' check code, kept as the reference with one change, the
dimension rule (2 or 4, where the earlier code took 0 to 4): the new
``DensityMatrix`` and ``QuantumChannel`` must accept and reject the same
inputs, with the same exception type and message, and return the same
matrix bits.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.linalg import _umath_linalg

from hqlink import linalg
from hqlink.qstate import (
    CPTP_TOL,
    EIG_FLOOR,
    HERMITIAN_TOL,
    TRACE_TOL,
    DensityMatrix,
    Observable,
    QuantumChannel,
    StateError,
    apply_channel,
    depolarizing_channel,
    werner,
)

# ---------------------------------------------------------------------------
# the earlier check code


def _oracle_as_complex_matrix(m) -> np.ndarray:
    a = np.array(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise StateError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] not in (2, 4):
        raise StateError(f"dimension must be 2 or 4, got {a.shape[0]}")
    if not np.isfinite(a).all():  # before arithmetic on a NaN or inf warns
        raise StateError("matrix has a non-finite entry")
    return a


def oracle_density_matrix(matrix, subnormalized: bool = False) -> np.ndarray:
    m = _oracle_as_complex_matrix(matrix)
    if not np.abs(m - m.conj().T).max() <= HERMITIAN_TOL:
        raise StateError("density matrix is not Hermitian within tolerance")
    tr = float(m.trace().real)
    if subnormalized:
        if not -TRACE_TOL <= tr <= 1.0 + TRACE_TOL:
            raise StateError(f"subnormalized trace {tr} outside [0, 1]")
    elif not abs(tr - 1.0) <= TRACE_TOL:
        raise StateError(f"trace {tr} deviates from 1 by more than {TRACE_TOL}")
    evals = np.linalg.eigvalsh(m)
    if not evals.min() >= EIG_FLOOR:
        raise StateError(f"negative eigenvalue {evals.min()} below floor {EIG_FLOOR}")
    if evals.min() < 0.0:
        # clip rounding-level negatives, rescale to the original trace
        w, v = np.linalg.eigh(m)
        w = np.clip(w, 0.0, None)
        m = v @ np.diag(w) @ v.conj().T
        if w.sum() > 0 and tr > 0:
            m *= tr / w.sum()
    return m


def oracle_channel(kraus_ops, trace_preserving: bool = True) -> np.ndarray:
    ops = kraus_ops
    mats = [_oracle_as_complex_matrix(k)
            for k in (ops[:1] if isinstance(ops, np.ndarray) else ops)]
    if not mats:
        raise StateError("channel needs at least one Kraus operator")
    if any(k.shape != mats[0].shape for k in mats):
        raise StateError("Kraus operators must share one dimension")
    ops = np.array(ops, dtype=complex)
    if not np.isfinite(ops).all():  # the operators of an array past the first
        raise StateError("matrix has a non-finite entry")
    total = (ops.conj().transpose(0, 2, 1) @ ops).sum(axis=0)
    if trace_preserving:
        if not np.abs(total - np.eye(ops.shape[1])).max() <= CPTP_TOL:
            raise StateError("Kraus operators do not sum to identity")
    elif not (np.isfinite(total).all()
              and np.linalg.eigvalsh(total).max() <= 1.0 + CPTP_TOL):
        raise StateError("trace-decreasing channel exceeds identity")
    return ops


# ---------------------------------------------------------------------------
# comparison


def _outcome(fn, *args):
    """fn(*args)'s matrix bits or (exception type, message), and whether it
    warned.  The earlier code warned on some inputs (an overflow in m - m^dag
    or in the trace); the new code may warn less, never more."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = fn(*args).tobytes()
        except Exception as exc:  # noqa: BLE001 - the outcome under comparison
            result = type(exc), str(exc)
    return result, bool(caught)


def _new_state(matrix, subnormalized) -> np.ndarray:
    m = DensityMatrix(matrix, subnormalized=subnormalized).matrix
    assert not m.flags.writeable
    return m


def _new_channel(ops, trace_preserving) -> np.ndarray:
    ch = QuantumChannel(ops, trace_preserving=trace_preserving)
    assert np.array_equal(ch.adjoint_ops, ch.kraus_ops.conj().transpose(0, 2, 1))
    assert not ch.kraus_ops.flags.writeable and not ch.adjoint_ops.flags.writeable
    return ch.kraus_ops


def assert_same_state_outcome(matrix, subnormalized=False):
    expected, oracle_warned = _outcome(oracle_density_matrix, matrix, subnormalized)
    result, warned = _outcome(_new_state, matrix, subnormalized)
    assert result == expected
    assert oracle_warned or not warned


def assert_same_channel_outcome(ops, trace_preserving=True):
    expected, oracle_warned = _outcome(oracle_channel, ops, trace_preserving)
    result, warned = _outcome(_new_channel, ops, trace_preserving)
    assert result == expected
    assert oracle_warned or not warned


# ---------------------------------------------------------------------------
# strategies

FLOATS = st.floats(allow_nan=True, allow_infinity=True, width=64)
MODERATE = st.floats(-2.0, 2.0)
# an entry's deviation: zero, rounding noise, the tolerances and beyond
DEVIATIONS = st.sampled_from([
    0.0, 1e-17, -1e-17, 1e-13, 0.5 * HERMITIAN_TOL, math.nextafter(HERMITIAN_TOL, 0.0),
    HERMITIAN_TOL, math.nextafter(HERMITIAN_TOL, 1.0), 2 * HERMITIAN_TOL, 1e-6, 0.3,
    1e300, math.nan, math.inf, -math.inf])


def _random_state(values: list, n: int) -> np.ndarray:
    g = np.reshape(values[:n * n], (n, n)) + 1j * np.reshape(values[n * n:2 * n * n], (n, n))
    m = g @ g.conj().T
    tr = np.trace(m).real
    # a subnormal trace overflows the complex division, so it falls back too
    return m / tr if tr >= np.finfo(float).tiny else np.eye(n, dtype=complex) / n


@st.composite
def state_candidates(draw):
    """A valid state of dimension 1-4 as it is, with one entry moved by a
    deviation, or with one diagonal entry moved and the whole rescaled; or
    raw entries."""
    n = draw(st.sampled_from([1, 2, 3, 4]))
    kind = draw(st.sampled_from(["state", "skew", "trace", "raw"]))
    if kind == "raw":
        return np.array(draw(st.lists(FLOATS, min_size=n * n, max_size=n * n)),
                        dtype=complex).reshape(n, n)
    m = _random_state(draw(st.lists(MODERATE, min_size=2 * n * n, max_size=2 * n * n)), n)
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    delta = draw(DEVIATIONS) * draw(st.sampled_from([1, -1, 1j, -1j, (0.6 + 0.8j)]))
    scale = draw(st.sampled_from([1.0, 0.5, 1e-300, 0.0, -1e-11, 1 + 2e-10]))
    with np.errstate(all="ignore"):  # inf * 0 is one of the drawn entries
        if kind == "skew":
            m[i, j] += delta
        elif kind == "trace":
            m[i, i] += delta.real
            m *= scale
    return m


@st.composite
def channel_candidates(draw):
    """Kraus operators of a random isometry (a channel), scaled, perturbed
    or raw, as a tuple, a list or a stacked array.  The sum of K^dag K is one
    product now and its rounding may differ in the last bits, so the
    deviations stay clear of the 1e-9 tolerance by far more than that."""
    n_ops, d = draw(st.integers(1, 5)), draw(st.sampled_from([1, 2, 4]))
    values = draw(st.lists(MODERATE, min_size=2 * n_ops * d * d, max_size=2 * n_ops * d * d))
    g = np.reshape(values[:n_ops * d * d], (n_ops * d, d)) + 1j * np.reshape(
        values[n_ops * d * d:], (n_ops * d, d))
    q = np.linalg.qr(g + np.eye(n_ops * d, d))[0]  # full column rank
    ops = q.reshape(n_ops, d, d)
    kind = draw(st.sampled_from(["channel", "scaled", "perturbed", "raw"]))
    if kind == "scaled":
        ops = ops * draw(st.sampled_from([0.5, 1 - 1e-6, 1 + 1e-6, 2.0]))
    elif kind == "perturbed":
        k, i, j = draw(st.integers(0, n_ops - 1)), draw(st.integers(0, d - 1)), draw(
            st.integers(0, d - 1))
        ops[k, i, j] += draw(st.sampled_from([1e-13, 1e-6, 0.1, math.nan, math.inf]))
    elif kind == "raw":
        ops = np.array(draw(st.lists(st.floats(-1e3, 1e3) | st.sampled_from(
            [math.nan, math.inf]), min_size=n_ops * d * d, max_size=n_ops * d * d)),
            dtype=complex).reshape(n_ops, d, d)
    form = draw(st.sampled_from([tuple, list, np.array]))
    return form(list(ops)) if form is not np.array else ops


# ---------------------------------------------------------------------------
# tests


class TestDensityMatrixAgainstTheEarlierChecks:
    @settings(max_examples=400, deadline=None)
    @given(matrix=state_candidates(), subnormalized=st.booleans())
    def test_same_outcome_on_drawn_matrices(self, matrix, subnormalized):
        assert_same_state_outcome(matrix, subnormalized)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0, math.inf),
                                     complex(math.nan, 0)])
    @pytest.mark.parametrize("where", [(0, 0), (0, 1), (3, 2)])
    def test_non_finite_entries(self, bad, where):
        m = np.eye(4, dtype=complex) / 4
        m[where] = bad
        for subnormalized in (False, True):
            assert_same_state_outcome(m, subnormalized)

    def test_finite_entries_whose_sum_overflows(self):
        # the sum of the entries overflows, so each entry is tested alone
        assert_same_state_outcome(np.array([[0.5, 1e308], [1e308, 0.5]]))
        # the skew overflows too, and is rejected without a warning
        m = np.array([[0.5, 1e308 + 1e308j], [-1e308 + 1e308j, 0.5]])
        assert_same_state_outcome(m)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StateError, match="not Hermitian"):
                DensityMatrix(m)

    @pytest.mark.parametrize("direction", [1, -1, 1j, -1j, 0.6 + 0.8j, -0.8 + 0.6j])
    @pytest.mark.parametrize("size", [
        0.5 * HERMITIAN_TOL, math.nextafter(HERMITIAN_TOL, 0.0), HERMITIAN_TOL,
        math.nextafter(HERMITIAN_TOL, 1.0), 2 * HERMITIAN_TOL])
    @pytest.mark.parametrize("where", [(0, 1), (2, 3), (1, 1)])
    def test_hermiticity_at_its_tolerance(self, direction, size, where):
        m = werner(0.8).matrix.copy()
        m[where] += size * direction
        assert_same_state_outcome(m)
        assert_same_state_outcome(m[:2, :2] * 2, True)

    @pytest.mark.parametrize("offset", [
        -2 * TRACE_TOL, math.nextafter(-TRACE_TOL, -1.0), -TRACE_TOL,
        math.nextafter(-TRACE_TOL, 0.0), 0.0, math.nextafter(TRACE_TOL, 0.0), TRACE_TOL,
        math.nextafter(TRACE_TOL, 1.0), 2 * TRACE_TOL])
    def test_trace_at_its_tolerance(self, offset):
        for n in (2, 4):
            m = np.eye(n, dtype=complex) / n
            m[0, 0] += offset
            assert_same_state_outcome(m)
            assert_same_state_outcome(m, True)
            # subnormalized traces near 0 and near 1
            low = np.zeros((n, n), dtype=complex)
            low[0, 0] = offset
            assert_same_state_outcome(low, True)

    @pytest.mark.parametrize("lowest", [
        2 * EIG_FLOOR, math.nextafter(EIG_FLOOR, -1.0), EIG_FLOOR,
        math.nextafter(EIG_FLOOR, 0.0), 0.5 * EIG_FLOOR, -1e-17, -0.0, 0.0])
    def test_eigenvalues_at_the_floor(self, lowest):
        # diagonal states, whose eigenvalues the kernel returns as given, and
        # a rotated copy, which takes the clip path through eigh
        d = np.array([lowest, 0.25, 0.35, 0.4 - lowest])
        assert_same_state_outcome(np.diag(d).astype(complex))
        u = np.linalg.qr(np.arange(16).reshape(4, 4) + 1j * np.eye(4) + np.eye(4))[0]
        assert_same_state_outcome(u @ np.diag(d) @ u.conj().T)

    @pytest.mark.parametrize("matrix", [
        [], [1.0], [[1.0, 0.0]], np.zeros((0, 0)), np.zeros((2, 0)), np.ones((1, 2, 2)),
        np.eye(5) / 5, np.eye(6) / 6, np.eye(3) / 3, [[1.0]], [[1.0 + 1e-9j]], 1.0,
        [[0.5, 0.0], [0.0]],
    ], ids=["empty-list", "vector", "row", "0x0", "2x0", "stack", "5x5", "6x6", "3x3", "1x1",
            "1x1-imaginary", "scalar", "ragged"])
    def test_shapes_and_dimensions(self, matrix):
        assert_same_state_outcome(matrix)
        assert_same_state_outcome(matrix, True)

    def test_eigenvalue_non_convergence_raises_lin_alg_error(self, monkeypatch):
        def nonconverging_kernel(a, signature=None):
            """What the kernel returns when LAPACK does not converge: NaN
            eigenvalues, with the invalid flag raised (0 / 0)."""
            return np.zeros(a.shape[-1]) / np.zeros(a.shape[-1])

        m = werner(0.5).matrix
        # numpy's wrapper calls the kernel it imported; hqlink binds its own
        monkeypatch.setattr(_umath_linalg, "eigvalsh_lo", nonconverging_kernel)
        monkeypatch.setattr(linalg, "_eigvalsh_lo", nonconverging_kernel)
        expected, _ = _outcome(oracle_density_matrix, m)
        assert expected == (np.linalg.LinAlgError, "Eigenvalues did not converge")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(np.linalg.LinAlgError, match="^Eigenvalues did not converge$"):
                DensityMatrix(m)


class TestQuantumChannelAgainstTheEarlierChecks:
    @settings(max_examples=300, deadline=None)
    @given(ops=channel_candidates(), trace_preserving=st.booleans())
    def test_same_outcome_on_drawn_operators(self, ops, trace_preserving):
        assert_same_channel_outcome(ops, trace_preserving)

    @pytest.mark.parametrize("ops", [
        (), [], np.zeros((0, 2, 2)), np.zeros((0, 0, 0)), np.zeros((1, 0, 0)),
        (np.eye(2), np.eye(4)), [np.eye(2) / 2, np.zeros((2, 3))], [np.eye(2), [[1, 0]]],
        np.ones((1, 2, 3)), (np.eye(8),), np.eye(8)[None], np.eye(2), [[1.0]], [1.0],
        ([[math.nan, 0], [0, 1]], np.eye(4)), (np.eye(4), [[math.nan, 0], [0, 1]]),
        np.array([np.eye(2), [[math.inf, 0], [0, 0]]]),
    ], ids=["empty-tuple", "empty-list", "empty-array", "0x0x0", "1x0x0", "ragged",
            "non-square", "ragged-rows", "non-square-array", "over-4", "over-4-array",
            "2d-array", "nested-1x1", "flat", "nan-before-ragged", "ragged-before-nan",
            "inf-past-the-first"])
    @pytest.mark.parametrize("trace_preserving", [True, False])
    def test_empty_ragged_and_bad_operators(self, ops, trace_preserving):
        assert_same_channel_outcome(ops, trace_preserving)

    @pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
    def test_library_channels_apply_bit_for_bit_as_before(self, p):
        ch = depolarizing_channel(p, 4)
        rho = werner(0.7)
        k = ch.kraus_ops
        before = (k @ rho.matrix @ k.conj().transpose(0, 2, 1)).sum(axis=0)
        assert apply_channel(rho, ch).matrix.tobytes() == DensityMatrix(before).matrix.tobytes()


@settings(max_examples=50, deadline=None)
@given(values=st.lists(st.floats(-1.0, 1.0), min_size=32, max_size=32))
@example(values=[0.0] * 32)
def test_observable_keeps_the_earlier_hermiticity_check(values):
    m = np.reshape(values[:16], (4, 4)) + 1j * np.reshape(values[16:], (4, 4))
    for matrix in (m, m + m.conj().T, (m + m.conj().T) / 2 + 1e-10 * np.eye(4) * 1j):
        try:
            expected = _oracle_as_complex_matrix(matrix)
            if not np.abs(expected - expected.conj().T).max() <= HERMITIAN_TOL:
                raise StateError("observable is not Hermitian within tolerance")
            expected = expected.tobytes()
        except StateError as exc:
            with pytest.raises(StateError, match=f"^{exc}$"):
                Observable(matrix)
        else:
            assert Observable(matrix).matrix.tobytes() == expected
