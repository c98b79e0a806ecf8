"""Trapped-ion node: entangled emission, pulsed excitation, SPAM readout and
ion-qubit decoherence.

The ion emits a photon whose polarization is entangled with two Zeeman
sublevels split by omega = 2 pi x 11.22 MHz; the relative phase of the pair
advances at omega until the readout pulse, and the experiment cancels it with
a microwave phase offset.

Only the SPAM calibrations, which no scenario calls, import scipy; importing
this module, and so ``import hqlink``, loads numpy only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qstate import PureState, QuantumChannel, dephasing_channel

ZEEMAN_OMEGA_DEFAULT = 2 * math.pi * 11.22e6  # rad/s

# Background mean and per-scatter leak solved from the target readout
# fidelities (0.998 dark / 0.987 bright); see calibrate_spam_background and
# calibrate_spam_leak.
SPAM_BACKGROUND_MEAN_DEFAULT = 0.06461885743311294
SPAM_LEAK_DEFAULT = 0.006700254486518358


@dataclass(frozen=True)
class IonParams:
    """Physical parameters of the ion qubit and its emission."""

    zeeman_omega: float = ZEEMAN_OMEGA_DEFAULT  # rad/s
    coherence_time_tau_ms: float = 0.989

    def __post_init__(self):
        if self.coherence_time_tau_ms <= 0:
            raise ValueError("coherence time must be positive")


@dataclass(frozen=True)
class SpamParams:
    """State-preparation-and-measurement readout model.

    Dark counts are Poisson background; a bright ion scatters Poisson-many
    photons but may leak out of the fluorescence cycle with a fixed
    probability per detected photon (geometric stopping).
    """

    mean_bright_counts: float = 12.0
    threshold: float = 1.5
    dark_fidelity: float = 0.998
    bright_fidelity: float = 0.987
    leak_per_scatter: float = SPAM_LEAK_DEFAULT
    background_mean: float = SPAM_BACKGROUND_MEAN_DEFAULT

    def __post_init__(self):
        if self.threshold <= 0:
            raise ValueError("threshold must be positive")
        for name in ("dark_fidelity", "bright_fidelity", "leak_per_scatter"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name}={v} outside [0, 1]")
        if self.background_mean < 0:
            raise ValueError("background mean must be nonnegative")

    @classmethod
    def calibrated(cls, dark_fidelity: float = 0.998, bright_fidelity: float = 0.987,
                   mean_bright_counts: float = 12.0, threshold: float = 1.5) -> "SpamParams":
        """Solve background mean and leak probability from target fidelities."""
        bg = calibrate_spam_background(dark_fidelity, threshold)
        leak = calibrate_spam_leak(bright_fidelity, mean_bright_counts, bg, threshold)
        return cls(mean_bright_counts=mean_bright_counts, threshold=threshold,
                   dark_fidelity=dark_fidelity, bright_fidelity=bright_fidelity,
                   leak_per_scatter=leak, background_mean=bg)

    @property
    def spam_error(self) -> float:
        """Mean misassignment probability over the two prepared states."""
        return ((1 - self.dark_fidelity) + (1 - self.bright_fidelity)) / 2


@dataclass(frozen=True)
class ExcitationFit:
    """Fit parameters of the single-pulse excitation curve.

    P_bright = (2 A / 3) sin^2(alpha E^(beta/2) / 2) for pulse energy E.
    """

    A: float = 0.960
    alpha: float = math.pi
    beta: float = 2.0
    E: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.A <= 1.0:
            raise ValueError(f"A={self.A} outside (0, 1]")
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError("alpha and beta must be positive")
        if self.E < 0:
            raise ValueError("pulse energy must be nonnegative")


def emit_entangled_state(params: IonParams, t_elapsed_ns: float,
                         phi_comp: float = 0.0) -> PureState:
    """Ion-photon pair after free evolution for t_elapsed_ns.

    Returns (|1'>|sigma+> + e^{i phi} |1>|sigma->)/sqrt(2) with
    phi = omega * t - phi_comp.  Exact phase compensation (phi_comp equal to
    the accumulated phase) restores the maximally entangled phi = 0 state.
    """
    if t_elapsed_ns < 0:
        raise ValueError("elapsed time must be nonnegative")
    phi = params.zeeman_omega * t_elapsed_ns * 1e-9 - phi_comp
    amps = np.zeros(4, dtype=complex)
    amps[0] = 1 / math.sqrt(2)
    amps[3] = np.exp(1j * phi) / math.sqrt(2)
    return PureState(amps)


def excitation_probability(fit: ExcitationFit) -> float:
    """Excitation probability P_e = P_bright / (2/3), clamped to [0, 1]."""
    p_bright = (2 * fit.A / 3) * math.sin(fit.alpha * fit.E ** (fit.beta / 2) / 2) ** 2
    return min(max(p_bright / (2 / 3), 0.0), 1.0)


def calibrate_spam_background(dark_fidelity: float, threshold: float = 1.5) -> float:
    """Poisson background mean reproducing the dark-state fidelity."""
    from scipy import optimize, special  # no scenario calls the calibration

    kmax = int(math.floor(threshold))

    def err(mu):
        return special.pdtrc(kmax, mu) - (1 - dark_fidelity)

    return float(optimize.brentq(err, 1e-12, 5.0, xtol=1e-14))


def calibrate_spam_leak(bright_fidelity: float, mean_bright: float = 12.0,
                        background_mean: float = SPAM_BACKGROUND_MEAN_DEFAULT,
                        threshold: float = 1.5) -> float:
    """Per-scatter leak probability reproducing the bright-state fidelity."""
    from scipy import optimize, special

    kmax = int(math.floor(threshold))

    def bright_error(lam):
        # counts = min(N, L) + B with N ~ Poisson(mean), P(L >= k) = (1-lam)^k
        def surv_min(k):
            # P(N >= k) is the Poisson survival function at k - 1, and 1 at k = 0
            survival = special.pdtrc(k - 1, mean_bright) if k > 0 else 1.0
            return survival * (1 - lam) ** k

        total = 0.0
        for k in range(kmax + 1):
            p_min_k = surv_min(k) - surv_min(k + 1)
            total += p_min_k * special.pdtr(kmax - k, background_mean)
        return total

    def err(lam):
        return bright_error(lam) - (1 - bright_fidelity)

    return float(optimize.brentq(err, 1e-12, 0.9, xtol=1e-15))


def decoherence_channel(params: IonParams, t_us: float, exponent_a: float = 2.0) -> QuantumChannel:
    """Ion-qubit dephasing after t microseconds of free evolution.

    Coherence decays as exp(-(t/tau)^a); the two-qubit fidelity against the
    phi = 0 target is (1 + coherence)/2.
    """
    if t_us < 0:
        raise ValueError("time must be nonnegative")
    if not 1.0 <= exponent_a <= 3.0:
        raise ValueError(f"exponent {exponent_a} outside [1, 3]")
    tau_us = params.coherence_time_tau_ms * 1e3
    coherence = math.exp(-((t_us / tau_us) ** exponent_a))
    return dephasing_channel(coherence, subsystem=0)


def decoherence_infidelity(params: IonParams, t_us: float, exponent_a: float = 2.0) -> float:
    """(1 - exp(-(t/tau)^a)) / 2, the Bell-state infidelity of the channel."""
    tau_us = params.coherence_time_tau_ms * 1e3
    return (1 - math.exp(-((t_us / tau_us) ** exponent_a))) / 2
