"""Trapped-ion node: entangled emission and ion-qubit decoherence.

The ion emits a photon whose polarization is entangled with two Zeeman
sublevels split by omega = 2 pi x ``ion.zeeman_frequency_mhz`` of the config;
the relative phase of the pair advances at omega until the readout pulse, and
the experiment cancels it with a microwave phase offset.

The SPAM error and the pi-pulse excitation probability enter as measured
values (``pipeline.spam_error``, ``rates.p_pi``), not from a readout or
excitation model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import rules
from .qstate import PureState, QuantumChannel, bell_state, dephasing_channel

# the exponent a of the coherence decay exp(-(t/tau)^a)
DECOHERENCE_EXPONENT = rules.closed(1, 3)


@dataclass(frozen=True)
class IonParams(rules.CheckedFields):
    """Physical parameters of the ion qubit and its emission."""

    zeeman_omega: float  # rad/s
    coherence_time_tau_ms: float

    RULES = {"zeeman_omega": rules.FINITE_NONNEGATIVE,
             "coherence_time_tau_ms": rules.above(0)}  # inf: no decoherence


def emit_entangled_state(params: IonParams, t_elapsed_ns: float,
                         phi_comp: float = 0.0) -> PureState:
    """Ion-photon pair after free evolution for t_elapsed_ns.

    Returns (|1'>|sigma+> + e^{i phi} |1>|sigma->)/sqrt(2) with
    phi = omega * t - phi_comp.  Exact phase compensation (phi_comp equal to
    the accumulated phase) restores the maximally entangled phi = 0 state.
    """
    rules.check("t_elapsed_ns", rules.FINITE_NONNEGATIVE, t_elapsed_ns)
    return bell_state(params.zeeman_omega * t_elapsed_ns * 1e-9 - phi_comp)


def decoherence_coherence(params: IonParams, t_us: float, exponent_a: float) -> float:
    """exp(-(t/tau)^a), the ion qubit's coherence after t microseconds of free
    evolution; the Bell-state fidelity of its dephasing is (1 + coherence)/2."""
    rules.check("t_us", rules.FINITE_NONNEGATIVE, t_us)
    rules.check("exponent_a", DECOHERENCE_EXPONENT, exponent_a)
    return math.exp(-((t_us / (params.coherence_time_tau_ms * 1e3)) ** exponent_a))


def decoherence_channel(params: IonParams, t_us: float, exponent_a: float) -> QuantumChannel:
    """Ion-qubit dephasing after t microseconds of free evolution."""
    return dephasing_channel(decoherence_coherence(params, t_us, exponent_a), subsystem=0)


def decoherence_infidelity(params: IonParams, t_us: float, exponent_a: float) -> float:
    """(1 - exp(-(t/tau)^a)) / 2, the Bell-state infidelity of the channel."""
    return (1 - decoherence_coherence(params, t_us, exponent_a)) / 2
