"""Dense complex linear algebra for 1- and 2-qubit states and channels.

Everything downstream (ion node, photon chain, memory, tomography) builds on
the types here.  States and channels are immutable after construction and all
operations are pure functions, so values can be shared freely across parallel
workers.

Basis convention, fixed once for the whole package:

* ion qubit ordered (|1'>, |1>), mapped after the microwave pulse to (|0>, |1>)
* photon qubit ordered (|sigma+> = |H>, |sigma-> = |V>)
* joint states are ion (x) photon, row-major

With this ordering the phase-zero entangled state is (|00> + |11>)/sqrt(2) and
Z (x) Z evaluates to +1 on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import itemgetter, sub

import numpy as np

from . import linalg

HERMITIAN_TOL = 1e-10
TRACE_TOL = 1e-10
NORM_TOL = 1e-12
EIG_FLOOR = -1e-9
CPTP_TOL = 1e-9
# the dimensions of a state, an observable and a channel: one qubit or two
DIMS = (2, 4)

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two square matrices, or of stacks of them
    broadcast over their leading axes: the same elementwise products as
    np.kron (signed zeros included), without its general-shape bookkeeping."""
    n, m = a.shape[-1], b.shape[-1]
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (n * m, n * m))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


# The Paulis I, X, Y, Z as one read-only (4, 2, 2) stack, and the 16
# two-qubit Paulis P_a (x) P_b, a the outer index, as a (16, 4, 4) stack.
PAULIS = _read_only(np.array((I2, X, Y, Z)))
PAULIS_2Q = _read_only(kron(PAULIS[:, None], PAULIS).reshape(16, 4, 4))


class StateError(ValueError):
    """Raised when a state or channel violates its construction invariants."""


def _as_complex_matrix(m) -> tuple[np.ndarray, list]:
    """A complex copy of ``m`` and its entries as a flat list, after the
    shape, dimension and finiteness checks, in that order."""
    a = np.array(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise StateError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] not in DIMS:
        raise StateError(f"dimension must be 2 or 4, got {a.shape[0]}")
    flat = a.ravel().tolist()
    # a sum of finite entries is finite unless it overflows; only then, or
    # for a NaN or an inf, are the entries tested one by one (before any
    # arithmetic on a NaN or an inf warns)
    total = sum(flat)
    if not (math.isfinite(total.real + total.imag) or np.isfinite(a).all()):
        raise StateError("matrix has a non-finite entry")
    return a, flat


def _mirror_getters(n: int) -> tuple[itemgetter, itemgetter]:
    """Getters of the entries on and above the diagonal of a flattened
    n x n matrix, and of their mirror images below it."""
    upper = [(i * n + j, j * n + i) for i in range(n) for j in range(i, n)]
    return itemgetter(*(k for k, _ in upper)), itemgetter(*(k for _, k in upper))


_MIRRORS = {n: _mirror_getters(n) for n in DIMS}


def _python_skew(flat: list, upper: itemgetter, lower: itemgetter) -> float:
    """max |m - m^dag| over the entries of a flattened finite m, by
    Python's complex arithmetic."""
    try:
        return max(map(abs, map(sub, upper(flat), map(complex.conjugate, lower(flat)))))
    except OverflowError:  # |z| beyond the float range
        return math.inf


def _checked_hermitian(matrix, what: str) -> np.ndarray:
    """A complex copy of ``matrix`` after the shape, dimension, finiteness
    and Hermiticity checks, in that order; ``what`` names it in the
    Hermiticity error."""
    m, flat = _as_complex_matrix(matrix)
    # Python's complex abs may differ from numpy's in the last bit, so
    # numpy's value of max |m - m^dag| decides unless Python's lies below
    # half the tolerance
    if not _python_skew(flat, *_MIRRORS[m.shape[0]]) <= HERMITIAN_TOL / 2:
        with np.errstate(over="ignore"):  # a skew that overflows fails the check
            skew = np.abs(m - m.conj().T).max()
        if not skew <= HERMITIAN_TOL:
            raise StateError(f"{what} is not Hermitian within tolerance")
    return m


@dataclass(frozen=True)
class PureState:
    """Unit-norm complex amplitude vector (dimension 2 or 4)."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=complex).reshape(-1)
        if amps.size not in DIMS:
            raise StateError(f"pure state dimension must be 2 or 4, got {amps.size}")
        norm = np.linalg.norm(amps)
        if not abs(norm - 1.0) <= NORM_TOL:  # also catches NaN
            raise StateError(f"pure state norm {norm} deviates from 1 by more than {NORM_TOL}")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def density(self) -> "DensityMatrix":
        """Return |psi><psi| as a DensityMatrix."""
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()))


def _hermitian_with_trace(matrix, subnormalized: bool) -> np.ndarray:
    """A complex copy of a density-matrix candidate, after the shape,
    finiteness, Hermiticity and trace checks."""
    m = _checked_hermitian(matrix, "density matrix")
    tr = float(m.trace().real)
    if subnormalized:
        if not -TRACE_TOL <= tr <= 1.0 + TRACE_TOL:
            raise StateError(f"subnormalized trace {tr} outside [0, 1]")
    elif not abs(tr - 1.0) <= TRACE_TOL:
        raise StateError(f"trace {tr} deviates from 1 by more than {TRACE_TOL}")
    return m


def _checked_spectrum(m: np.ndarray) -> np.ndarray:
    """A complex Hermitian ``m`` after the eigenvalue check, read-only: ``m``
    itself, or where its lowest eigenvalue lies in (EIG_FLOOR, 0), a copy
    with its negative eigenvalues clipped to zero and rescaled to its trace."""
    # NaN where np.linalg.eigvalsh(m) would raise LinAlgError
    lowest = linalg.eigvalsh(m)[0]  # ascending
    if not lowest >= EIG_FLOOR:
        if math.isnan(lowest):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        raise StateError(f"negative eigenvalue {lowest} below floor {EIG_FLOOR}")
    if lowest < 0.0:
        tr = float(m.trace().real)
        w, v = linalg.eigh(m)
        w = np.clip(w, 0.0, None)
        m = v @ np.diag(w) @ v.conj().T
        if w.sum() > 0 and tr > 0:
            m *= tr / w.sum()
    return _read_only(m)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, positive-semidefinite matrix of dimension 2 or 4.

    Normalized states carry trace 1 within 1e-10.  Heralded (trace-decreasing)
    outputs set ``subnormalized=True``, which permits trace <= 1.  Eigenvalues
    in (-1e-9, 0) are treated as rounding noise: they are clipped to zero and
    the matrix is rescaled back to its original trace.
    """

    matrix: np.ndarray
    subnormalized: bool = False

    def __post_init__(self):
        m = _hermitian_with_trace(self.matrix, self.subnormalized)
        object.__setattr__(self, "matrix", _checked_spectrum(m))

    @classmethod
    def _built(cls, matrix: np.ndarray, lifted: bool = False) -> "DensityMatrix":
        """The normalized state of a complex matrix the package built Hermitian
        and of unit trace, taken without a copy: the constructor's checks but
        the shape, finiteness, Hermiticity and trace ones, which such a matrix
        passes.  ``lifted``: its eigenvalues are also known to lie far above
        rounding error (a checked state mixed with I/4), so the eigenvalue
        check could not fail nor its clip fire, and it is skipped too."""
        state = object.__new__(cls)
        object.__setattr__(state, "matrix",
                           _read_only(matrix) if lifted else _checked_spectrum(matrix))
        object.__setattr__(state, "subnormalized", False)
        return state

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def trace(self) -> float:
        return float(self.matrix.trace().real)

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)


@dataclass(frozen=True)
class Observable:
    """Hermitian operator; expectation values are taken against states."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _checked_hermitian(self.matrix, "observable")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


# The identity of each dimension a channel may have.
_EYES = {d: _read_only(np.eye(d)) for d in DIMS}


@dataclass(frozen=True)
class QuantumChannel:
    """Completely positive map given by its Kraus operators, held as one
    read-only (n, d, d) array, and their adjoints K^dag as a read-only
    (n, d, d) view.

    Trace-preserving channels satisfy sum(K^dag K) = I within 1e-9; heralded
    (trace-decreasing) channels only require sum(K^dag K) <= I.
    """

    kraus_ops: np.ndarray
    trace_preserving: bool = True
    adjoint_ops: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # shapes before stacking, as np.array raises a bare ValueError on
        # ragged operators; the operators of an array share the first one's
        ops = self.kraus_ops
        stacked = isinstance(ops, np.ndarray)
        mats = [_as_complex_matrix(k)[0] for k in (ops[:1] if stacked else ops)]
        if not mats:
            raise StateError("channel needs at least one Kraus operator")
        if any(k.shape != mats[0].shape for k in mats):
            raise StateError("Kraus operators must share one dimension")
        ops = _read_only(np.array(ops, dtype=complex))
        if stacked and not np.isfinite(ops).all():  # the operators past the first
            raise StateError("matrix has a non-finite entry")
        # sum_k K_k^dag K_k as one product of the (n d, d) stack with itself
        n, d = ops.shape[:2]
        rows = ops.reshape(n * d, d)
        total = rows.conj().T @ rows
        if self.trace_preserving:
            if not np.abs(total - _EYES[d]).max() <= CPTP_TOL:
                raise StateError("Kraus operators do not sum to identity")
        elif not (np.isfinite(total).all()
                  and np.linalg.eigvalsh(total).max() <= 1.0 + CPTP_TOL):
            raise StateError("trace-decreasing channel exceeds identity")
        object.__setattr__(self, "kraus_ops", ops)
        object.__setattr__(self, "adjoint_ops", _read_only(ops.conj().transpose(0, 2, 1)))

    @property
    def dim(self) -> int:
        return self.kraus_ops.shape[1]


# ---------------------------------------------------------------------------
# operations


def fidelity(rho: DensityMatrix, target: PureState) -> float:
    """<target| rho |target>, real in [0, 1]."""
    if rho.dim != target.dim:
        raise StateError(f"dimension mismatch: state {rho.dim}, target {target.dim}")
    v = target.amplitudes
    val = complex(v.conj() @ rho.matrix @ v)
    if not abs(val.imag) <= HERMITIAN_TOL:
        raise StateError(f"fidelity has imaginary part {val.imag}")
    return float(min(max(val.real, 0.0), 1.0))


def apply_channel(rho: DensityMatrix, ch: QuantumChannel) -> DensityMatrix:
    """sum_i K_i rho K_i^dag; heralded channels return a subnormalized state."""
    if rho.dim != ch.dim:
        raise StateError(f"dimension mismatch: state {rho.dim}, channel {ch.dim}")
    out = (ch.kraus_ops @ rho.matrix @ ch.adjoint_ops).sum(axis=0)
    return DensityMatrix(out, subnormalized=rho.subnormalized or not ch.trace_preserving)


def expectation(rho: DensityMatrix, obs: Observable) -> float:
    """trace(rho * obs), real within 1e-10."""
    if rho.dim != obs.dim:
        raise StateError(f"dimension mismatch: state {rho.dim}, observable {obs.dim}")
    val = complex(np.trace(rho.matrix @ obs.matrix))
    if not abs(val.imag) <= 1e-9:
        raise StateError(f"expectation has imaginary part {val.imag}")
    return float(val.real)


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """Half the trace norm of a - b."""
    if a.dim != b.dim:
        raise StateError("dimension mismatch")
    evals = np.linalg.eigvalsh(a.matrix - b.matrix)
    return float(0.5 * np.abs(evals).sum())


def unit_interval(what: str, value: float) -> float:
    """``value`` if it lies in [0, 1]; a StateError naming ``what`` if not (or NaN)."""
    if not 0.0 <= value <= 1.0:
        raise StateError(f"{what} {value} outside [0, 1]")
    return value


# ---------------------------------------------------------------------------
# constructors for common states and channels


def _bell_state(phi: float) -> PureState:
    amps = np.zeros(4, dtype=complex)
    amps[0] = 1 / np.sqrt(2)
    amps[3] = np.exp(1j * phi) / np.sqrt(2)
    return PureState(amps)


# The phase-zero target, built once: every fidelity in the package is taken
# against it.  PureState is frozen and its amplitudes read-only.
_BELL_0 = _bell_state(0.0)


def bell_state(phi: float = 0.0) -> PureState:
    """(|1'>|sigma+> + e^{i phi} |1>|sigma->)/sqrt(2) in the package ordering.

    Phase +0.0 returns one shared state (-0.0 builds its own, whose
    amplitude carries the signed zero)."""
    if phi == 0.0 and math.copysign(1.0, phi) > 0.0:
        return _BELL_0
    return _bell_state(phi)


def maximally_mixed(dim: int) -> DensityMatrix:
    return DensityMatrix(np.eye(dim, dtype=complex) / dim)


def werner(p: float) -> DensityMatrix:
    """p |Psi_0><Psi_0| + (1-p) I/4."""
    unit_interval("werner visibility", p)
    return DensityMatrix(p * bell_state(0.0).density().matrix + (1 - p) * np.eye(4) / 4)


def embed_single_qubit(op: np.ndarray, subsystem: int) -> np.ndarray:
    """Lift a 2x2 operator onto one factor of the ion (x) photon space."""
    if subsystem == 0:
        return kron(op, I2)
    if subsystem == 1:
        return kron(I2, op)
    raise StateError(f"invalid subsystem index {subsystem}")


def identity_channel(dim: int) -> QuantumChannel:
    return QuantumChannel((np.eye(dim, dtype=complex),))


def depolarizing_channel(p: float, dim: int) -> QuantumChannel:
    """Mix toward I/dim with probability p: rho -> (1-p) rho + p I/dim."""
    unit_interval("depolarizing probability", p)
    paulis = {2: PAULIS, 4: PAULIS_2Q}.get(dim)
    if paulis is None:
        raise StateError("depolarizing channel supports dim 2 or 4 only")
    n = len(paulis)  # d^2 Paulis; uniform Pauli noise at rate p*(n-1)/n mixes to I/d
    weights = np.full(n, np.sqrt(p / n))
    weights[0] = np.sqrt(1 - p * (n - 1) / n)
    return QuantumChannel(weights[:, None, None] * paulis)


def white_noise_channel(bell_infidelity: float) -> QuantumChannel:
    """Two-qubit depolarizing channel whose infidelity on a Bell state is the
    given value.

    Mixing weight q toward I/4 costs a Bell state q*(1 - 1/4), so q = eps/(3/4).
    """
    return depolarizing_channel(bell_infidelity / 0.75, 4)


def dephasing_channel(coherence: float, subsystem: int | None = None) -> QuantumChannel:
    """Phase damping with the given residual coherence factor in [0, 1].

    With ``subsystem`` set, acts on one qubit of the two-qubit space; otherwise
    a bare single-qubit channel is returned.
    """
    unit_interval("coherence factor", coherence)
    z = Z if subsystem is None else embed_single_qubit(Z, subsystem)
    eye = np.eye(z.shape[0], dtype=complex)
    return QuantumChannel((np.sqrt((1 + coherence) / 2) * eye,
                           np.sqrt((1 - coherence) / 2) * z))


def bitflip_channel(prob: float, subsystem: int | None = None) -> QuantumChannel:
    """X is applied with the given probability (optionally on one subsystem)."""
    unit_interval("flip probability", prob)
    x = X if subsystem is None else embed_single_qubit(X, subsystem)
    eye = np.eye(x.shape[0], dtype=complex)
    return QuantumChannel((np.sqrt(1 - prob) * eye, np.sqrt(prob) * x))
