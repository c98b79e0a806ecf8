"""Photon chain between ion emission and the memory/detectors.

Covers the frequency-conversion process matrix, arrival-time-jitter
dephasing, polarizing-beam-splitter leakage and the dark-noise admixture.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rules
from .qstate import (
    PAULIS,
    DensityMatrix,
    QuantumChannel,
    StateError,
    bitflip_channel,
    dephasing_channel,
)

CHI_TOL = 1e-9
# Chi eigenvalues at or below this are the eigensolver's rounding of zero
# weight (a rank-1 chi shows ~5e-16); dropping them costs the channel at most
# 4e-14 of trace, far inside TRACE_TOL.
KRAUS_FLOOR = 1e-14
# [m, n] holds P_n P_m, the products in the trace-preservation sum of a chi.
_PAULI_PRODUCTS = PAULIS[None, :] @ PAULIS[:, None]
_PAULI_PRODUCTS.flags.writeable = False
# Least dark-noise weight p at which the mixture of a checked, normalized
# state needs none of the state checks.  The mix scales the state's
# Hermiticity and trace errors by 1 - p, which takes p * 1e-10 >= 1e-14 off an
# error at its tolerance, eight times the rounding the mix adds (< 1.2e-15),
# and lifts every eigenvalue by p/4, far above the eigensolver's rounding
# (~1e-15).  A lighter admixture, or one of a subnormalized state, takes the
# full check.
_LIFT_MIN_WEIGHT = 1e-4
# the PBS extinction ratio; inf: no leakage
PBS_EXTINCTION = rules.above(1)
# the signal-to-noise ratio of the counts; inf: no dark noise
SNR = rules.above(0)


@dataclass(frozen=True)
class JitterParams(rules.CheckedFields):
    """RMS timing jitter of the classical readout chain, in nanoseconds."""

    awg_rms_ns: float
    transceiver_rms_ns: float
    zeeman_omega: float  # rad/s

    RULES = dict.fromkeys(("awg_rms_ns", "transceiver_rms_ns", "zeeman_omega"),
                          rules.FINITE_NONNEGATIVE)


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


def depolarizing_chi(process_fidelity: float) -> ProcessMatrix:
    """Least-informative chi with the given overlap with the identity process.

    Used when only a scalar process fidelity is configured: the residual
    weight is spread uniformly over X, Y, Z.
    """
    rules.check("process_fidelity", rules.PROBABILITY, process_fidelity)
    r = (1 - process_fidelity) / 3
    return ProcessMatrix(np.diag([process_fidelity, r, r, r]).astype(complex))


def jitter_total_rms(p: JitterParams) -> float:
    """Total RMS jitter in ns, independent contributions added in quadrature."""
    return math.hypot(p.awg_rms_ns, p.transceiver_rms_ns)


def jitter_phase_uncertainty(p: JitterParams) -> float:
    """Phase spread Delta Phi = t_rms * omega in radians."""
    return jitter_total_rms(p) * 1e-9 * p.zeeman_omega


def jitter_coherence(p: JitterParams) -> float:
    """exp(-DeltaPhi^2 / 2), the ion qubit's coherence under Gaussian quasi-static
    arrival-time jitter: a Bell-state infidelity of DeltaPhi^2 / 4 to leading order."""
    return math.exp(-jitter_phase_uncertainty(p) ** 2 / 2)


def jitter_dephasing_channel(p: JitterParams) -> QuantumChannel:
    """Ion-qubit dephasing from arrival-time jitter."""
    return dephasing_channel(jitter_coherence(p), subsystem=0)


def jitter_infidelity(p: JitterParams) -> float:
    """(1 - exp(-DeltaPhi^2/2)) / 2, the exact Bell infidelity of the channel."""
    return (1 - jitter_coherence(p)) / 2


def pbs_bitflip_channel(extinction: float) -> QuantumChannel:
    """Polarization leakage of the analyzing PBS as a photon-side bit flip.

    The leakage probability is 1/extinction and equals the Bell-state
    infidelity of the channel exactly.
    """
    rules.check("extinction", PBS_EXTINCTION, extinction)
    return bitflip_channel(1.0 / extinction, subsystem=1)


def dark_noise_admixture(rho: DensityMatrix, snr: float) -> DensityMatrix:
    """Mix the state with I/4 at weight p = 1/(snr + 1).

    Dark counts are uniform over measurement outcomes, so their effect on the
    reconstructed state is exactly a white-noise admixture.  Applied at the
    tomography layer, not as a mid-pipeline channel.
    """
    if rho.dim != 4:
        raise StateError("dark noise admixture expects a two-qubit state")
    rules.check("snr", SNR, snr)
    p = 1.0 / (snr + 1.0)
    mixed = (1 - p) * rho.matrix + p * np.eye(4) / 4
    if rho.subnormalized or p < _LIFT_MIN_WEIGHT:
        return DensityMatrix(mixed)
    return DensityMatrix._built(mixed, lifted=True)


def dark_noise_infidelity(snr: float, dim: int = 4) -> float:
    """Fidelity loss of a pure target under the admixture: p (1 - 1/D)."""
    rules.check("snr", SNR, snr)
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

