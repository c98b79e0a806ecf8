"""Photon chain between ion emission and the memory/detectors.

Covers the frequency-conversion process matrix, arrival-time-jitter
dephasing, polarizing-beam-splitter leakage and the dark-noise admixture.
"""

from __future__ import annotations

import importlib.resources
import json
import math
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .ion import ZEEMAN_OMEGA_DEFAULT
from .qstate import (
    PAULIS,
    DensityMatrix,
    QuantumChannel,
    StateError,
    bitflip_channel,
    dephasing_channel,
    matrix_from_json_dict,
    matrix_to_json_dict,
)

CHI_TOL = 1e-9
# Chi eigenvalues at or below this are the eigensolver's rounding of zero
# weight (a rank-1 chi shows ~5e-16); dropping them costs the channel at most
# 4e-14 of trace, far inside TRACE_TOL.
KRAUS_FLOOR = 1e-14
# [m, n] holds P_n P_m, the products in the trace-preservation sum of a chi.
_PAULI_PRODUCTS = PAULIS[None, :] @ PAULIS[:, None]
_PAULI_PRODUCTS.flags.writeable = False
# Least dark-noise weight p whose lift p/4 of every eigenvalue clears the
# eigensolver's rounding error on a unit-trace 4x4 state (~1e-15) a
# thousandfold; a lighter admixture takes the full eigenvalue check.
_LIFT_MIN_WEIGHT = 4e-12


@dataclass(frozen=True)
class JitterParams:
    """RMS timing jitter of the classical readout chain, in nanoseconds."""

    awg_rms_ns: float = 0.305
    transceiver_rms_ns: float = 0.056
    zeeman_omega: float = ZEEMAN_OMEGA_DEFAULT

    def __post_init__(self):
        for name in ("awg_rms_ns", "transceiver_rms_ns"):
            v = getattr(self, name)
            if isinstance(v, bool) or not (isinstance(v, Real) and math.isfinite(v)):
                raise ValueError(f"{name} must be a finite number, got {v!r}")
        if self.awg_rms_ns < 0 or self.transceiver_rms_ns < 0:
            raise ValueError("jitter components must be nonnegative")


@dataclass(frozen=True)
class ProcessMatrix:
    """Single-qubit chi matrix over the Pauli basis {I, X, Y, Z}.

    Valid process matrices are Hermitian, positive semidefinite, unit trace,
    and induce a trace-preserving map.
    """

    chi: np.ndarray

    def __post_init__(self):
        chi = np.array(self.chi, dtype=complex)
        if chi.shape != (4, 4):
            raise StateError("chi must be 4x4 over the Pauli basis")
        if np.max(np.abs(chi - chi.conj().T)) > CHI_TOL:
            raise StateError("chi is not Hermitian")
        if abs(np.trace(chi).real - 1.0) > CHI_TOL:
            raise StateError("chi trace deviates from 1")
        if np.linalg.eigvalsh(chi).min() < -CHI_TOL:
            raise StateError("chi is not positive semidefinite")
        # trace preservation: sum_{mn} chi_mn P_n P_m = I
        tp = np.einsum("mn,mnab->ab", chi, _PAULI_PRODUCTS)
        if np.max(np.abs(tp - np.eye(2))) > CHI_TOL:
            raise StateError("chi does not induce a trace-preserving map")
        chi.flags.writeable = False
        object.__setattr__(self, "chi", chi)

    def to_json_dict(self) -> dict:
        d = matrix_to_json_dict(self.chi)
        d["basis"] = "pauli-IXYZ"
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "ProcessMatrix":
        if d.get("basis", "pauli-IXYZ") != "pauli-IXYZ":
            raise StateError(f"unsupported chi basis {d.get('basis')!r}")
        return cls(matrix_from_json_dict(d))


def identity_chi() -> ProcessMatrix:
    chi = np.zeros((4, 4), dtype=complex)
    chi[0, 0] = 1.0
    return ProcessMatrix(chi)


def depolarizing_chi(process_fidelity: float) -> ProcessMatrix:
    """Least-informative chi with the given overlap with the identity process.

    Used when only a scalar process fidelity is configured: the residual
    weight is spread uniformly over X, Y, Z.
    """
    if not 0.0 <= process_fidelity <= 1.0:
        raise ValueError(f"process fidelity {process_fidelity} outside [0, 1]")
    r = (1 - process_fidelity) / 3
    return ProcessMatrix(np.diag([process_fidelity, r, r, r]).astype(complex))


def jitter_total_rms(p: JitterParams) -> float:
    """Total RMS jitter in ns, independent contributions added in quadrature."""
    return math.hypot(p.awg_rms_ns, p.transceiver_rms_ns)


def jitter_phase_uncertainty(p: JitterParams) -> float:
    """Phase spread Delta Phi = t_rms * omega in radians."""
    return jitter_total_rms(p) * 1e-9 * p.zeeman_omega


def jitter_dephasing_channel(p: JitterParams) -> QuantumChannel:
    """Ion-qubit dephasing from Gaussian quasi-static arrival-time jitter.

    The coherence factor is exp(-DeltaPhi^2 / 2); the induced Bell-state
    infidelity is DeltaPhi^2 / 4 to leading order.
    """
    dphi = jitter_phase_uncertainty(p)
    return dephasing_channel(math.exp(-dphi ** 2 / 2), subsystem=0)


def jitter_infidelity(p: JitterParams) -> float:
    """(1 - exp(-DeltaPhi^2/2)) / 2, the exact Bell infidelity of the channel."""
    dphi = jitter_phase_uncertainty(p)
    return (1 - math.exp(-dphi ** 2 / 2)) / 2


def pbs_bitflip_channel(extinction: float) -> QuantumChannel:
    """Polarization leakage of the analyzing PBS as a photon-side bit flip.

    The leakage probability is 1/extinction and equals the Bell-state
    infidelity of the channel exactly.
    """
    if not extinction > 1:  # NaN fails too
        raise ValueError("extinction ratio must exceed 1")
    return bitflip_channel(1.0 / extinction, subsystem=1)


def dark_noise_admixture(rho: DensityMatrix, snr: float) -> DensityMatrix:
    """Mix the state with I/4 at weight p = 1/(snr + 1).

    Dark counts are uniform over measurement outcomes, so their effect on the
    reconstructed state is exactly a white-noise admixture.  Applied at the
    tomography layer, not as a mid-pipeline channel.
    """
    if rho.dim != 4:
        raise StateError("dark noise admixture expects a two-qubit state")
    if not snr >= 0:  # also catches NaN
        raise ValueError(f"snr must be nonnegative, got {snr}")
    p = 1.0 / (snr + 1.0)
    mixed = (1 - p) * rho.matrix + p * np.eye(4) / 4
    if p < _LIFT_MIN_WEIGHT:
        return DensityMatrix(mixed)
    # every eigenvalue of the checked state rises by p/4, so the check's
    # clip of rounding-level negatives cannot fire
    return DensityMatrix._lifted(mixed)


def dark_noise_infidelity(snr: float, dim: int = 4) -> float:
    """Fidelity loss of a pure target under the admixture: p (1 - 1/D)."""
    p = 1.0 / (snr + 1.0)
    return p * (1 - 1 / dim)


def process_matrix_channel(chi: ProcessMatrix) -> QuantumChannel:
    """Kraus decomposition of a chi matrix.

    Eigendecompose chi = sum_i lam_i v_i v_i^dag and set
    K_i = sqrt(lam_i) sum_m (v_i)_m P_m, skipping eigenvalues at or below
    KRAUS_FLOOR.  Rank-1 chi yields a single unitary Kraus operator.
    """
    w, v = np.linalg.eigh(chi.chi)
    keep = w > KRAUS_FLOOR
    ops = np.einsum("mi,mab->iab", v[:, keep], PAULIS)
    return QuantumChannel(np.sqrt(w[keep])[:, None, None] * ops)


def process_fidelity(chi: ProcessMatrix, chi_ideal: ProcessMatrix) -> float:
    """Uhlmann fidelity between chi matrices treated as states.

    For the rank-1 identity ideal this reduces to the chi_II element of the
    measured matrix.
    """
    a, b = chi.chi, chi_ideal.chi
    wa, va = np.linalg.eigh(a)
    sqrt_a = va @ np.diag(np.sqrt(np.clip(wa, 0, None))) @ va.conj().T
    m = sqrt_a @ b @ sqrt_a
    wm = np.linalg.eigvalsh(m)
    f = float(np.sqrt(np.clip(wm, 0, None)).sum() ** 2)
    return min(max(f, 0.0), 1.0)


def load_reference_chi(name: str = "qfc_chi_3min") -> ProcessMatrix:
    """Load a stored chi matrix shipped with the package."""
    path = importlib.resources.files("hqlink.data").joinpath(f"{name}.json")
    with path.open("r") as fh:
        return ProcessMatrix.from_json_dict(json.load(fh))
