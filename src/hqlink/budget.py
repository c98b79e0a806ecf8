"""Deterministic rate-chain and error-ledger arithmetic.

Rates are products of a repetition rate, named prefactors and per-stage
efficiencies; error budgets compose either first-order (sum) or
multiplicatively (product).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import rules


@dataclass(frozen=True)
class EfficiencyStage(rules.CheckedFields):
    """One stage of a photon chain; optionally polarization-resolved."""

    name: str
    value: float
    eta_h: float | None = None
    eta_v: float | None = None

    RULES = dict.fromkeys(("value", "eta_h", "eta_v"), rules.STAGE_EFFICIENCY)

    def __post_init__(self):
        if (self.eta_h is None) != (self.eta_v is None):
            raise ValueError(f"eta_h, eta_v: give both polarizations of stage {self.name} "
                             "or neither")
        if self.eta_h is None:  # unpolarized
            rules.check("value", self.RULES["value"], self.value)
        else:
            super().__post_init__()

    def resolved(self, polarization: str | None) -> float:
        if self.eta_h is None or polarization is None:
            if self.eta_h is not None:
                return (self.eta_h + self.eta_v) / 2
            return self.value
        if polarization == "H":
            return self.eta_h
        if polarization == "V":
            return self.eta_v
        raise ValueError(f"unknown polarization {polarization!r}")

    @classmethod
    def polarized(cls, name: str, eta_h: float, eta_v: float) -> "EfficiencyStage":
        """A stage of the mean of its two polarizations' efficiencies, each
        checked before they are averaged."""
        rules.check("eta_h", cls.RULES["eta_h"], eta_h)
        rules.check("eta_v", cls.RULES["eta_v"], eta_v)
        return cls(name=name, value=(eta_h + eta_v) / 2, eta_h=eta_h, eta_v=eta_v)


@dataclass(frozen=True)
class RateChain(rules.CheckedFields):
    """Repetition rate times prefactors times stage efficiencies."""

    name: str
    repetition_rate_hz: float
    stages: tuple
    prefactors: dict = field(default_factory=dict)

    RULES = {"repetition_rate_hz": rules.POSITIVE_FINITE}

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "stages", tuple(self.stages))
        object.__setattr__(self, "prefactors", dict(self.prefactors))


@dataclass(frozen=True)
class ErrorSource(rules.CheckedFields):
    """One row of the infidelity ledger."""

    name: str
    infidelity: float
    model_ref: str | None = None

    RULES = {"infidelity": rules.PROBABILITY}


def rate(chain: RateChain) -> float:
    """Event rate of the chain in Hz; polarized stages average H and V."""
    if not chain.stages:
        raise ValueError(f"chain {chain.name} has no stages")
    value = chain.repetition_rate_hz
    for pf in chain.prefactors.values():
        value *= pf
    for stage in chain.stages:
        value *= stage.resolved(None)
    return value


def end_to_end_efficiency(stages, polarization: str | None = None) -> float:
    """Product of stage efficiencies; polarized stages average H and V unless
    a polarization is selected."""
    stages = list(stages)
    if not stages:
        raise ValueError("need at least one stage")
    value = 1.0
    for stage in stages:
        value *= stage.resolved(polarization)
    return value


def total_infidelity(sources, mode: str = "sum") -> float:
    """Compose error sources first-order ("sum") or exactly ("product")."""
    sources = list(sources)
    if not sources:
        raise ValueError("need at least one error source")
    if mode == "sum":
        return min(sum(s.infidelity for s in sources), 1.0)
    if mode == "product":
        alive = 1.0
        for s in sources:
            alive *= 1.0 - s.infidelity
        return 1.0 - alive
    raise ValueError(f"unknown mode {mode!r}")


def snr_and_noise_rate(signal_rate_hz: float, noise_rate_hz: float) -> tuple[float, float]:
    """(SNR, noise fraction p = 1/(SNR+1)); zero noise gives (inf, 0)."""
    rules.check("signal_rate_hz", rules.POSITIVE_FINITE, signal_rate_hz)
    rules.check("noise_rate_hz", rules.FINITE_NONNEGATIVE, noise_rate_hz)
    if noise_rate_hz == 0:
        return math.inf, 0.0
    snr = signal_rate_hz / noise_rate_hz
    return snr, 1.0 / (snr + 1.0)
