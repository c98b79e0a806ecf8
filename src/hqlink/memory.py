"""Atomic-frequency-comb quantum memory.

Models comb efficiency versus storage time, bandwidth matching between the
ion's double-Lorentzian emission and the memory's absorption band, the
optical-pumping plan that builds up the effective absorption depth, and the
heralded polarization storage channel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rules
from .qstate import QuantumChannel, DensityMatrix, apply_channel, embed_single_qubit, Z

# Gaussian comb-tooth constant sqrt(pi / (4 ln 2))
COMB_B = math.sqrt(math.pi) / math.sqrt(4 * math.log(2))

FINESSE_CONSISTENCY_RTOL = 0.02  # fitted finesse vs delta/gamma, rounding headroom
# the storage residual's Bell infidelity: a phase flip costs at most 1/2
RESIDUAL_INFIDELITY = rules.closed(0, 0.5)


@dataclass(frozen=True)
class CombParams(rules.CheckedFields):
    """AFC comb parameters.

    ``finesse`` may be omitted, in which case it is computed as
    delta / gamma_comb.  When both are given they must agree within 2%
    (published finesse values are rounded).
    """

    d: float
    gamma_comb_khz: float
    delta_mhz: float
    bandwidth_mhz: float
    finesse: float | None = None

    RULES = {**dict.fromkeys(("d", "gamma_comb_khz", "delta_mhz", "bandwidth_mhz"),
                             rules.POSITIVE_FINITE), "finesse": rules.optional(rules.FINITE)}

    def __post_init__(self):
        super().__post_init__()
        if self.bandwidth_mhz <= self.delta_mhz:
            raise ValueError("bandwidth must exceed the tooth spacing")
        try:
            with np.errstate(over="ignore"):  # numpy scalars warn on an overflow
                implied = self.delta_mhz * 1e3 / self.gamma_comb_khz
        except ZeroDivisionError:  # a Fraction tooth width whose float() is 0
            implied = math.inf
        # F = delta / gamma overflows for a tooth width near 0 (and underflows
        # for a spacing near 0): an implied finesse must be positive and finite
        rules.check("delta_mhz * 1e3 / gamma_comb_khz", rules.POSITIVE_FINITE, implied)
        if self.finesse is None:
            object.__setattr__(self, "finesse", implied)
        elif abs(self.finesse - implied) > FINESSE_CONSISTENCY_RTOL * implied:
            raise ValueError(
                f"finesse {self.finesse} inconsistent with delta/gamma = {implied:.4f}")


@dataclass(frozen=True)
class SpectralModel(rules.CheckedFields):
    """Photon spectrum vs memory band.

    ``gamma_natural_mhz`` is the natural linewidth 1/(2 pi tau), i.e. the
    FWHM of each Lorentzian component; the lineshape uses half of it as the
    Lorentzian half-width.  The two components sit at +-zeeman/2.
    """

    gamma_natural_mhz: float
    zeeman_split_mhz: float
    qm_bandwidth_mhz: float
    detuning_mhz: float = 0.0

    RULES = {"gamma_natural_mhz": rules.POSITIVE_FINITE,
             "zeeman_split_mhz": rules.FINITE_NONNEGATIVE,
             "qm_bandwidth_mhz": rules.POSITIVE_FINITE, "detuning_mhz": rules.FINITE}


def afc_efficiency(c: CombParams, t_storage_ns: float) -> float:
    """Internal storage efficiency of the comb after t_storage.

    eta = B^2 (d/F)^2 exp(-B d/F - 2 pi B^2 t^2 gamma^2) with Gaussian teeth,
    B = sqrt(pi)/sqrt(4 ln 2).  Clamped to [0, 1]; 0, the model's limit, where
    a term overflows (t from about 1.3e163 ns, or d/F from about 1.3e154).
    """
    rules.check("t_storage_ns", rules.FINITE_NONNEGATIVE, t_storage_ns)
    d_over_f = c.d / c.finesse
    t_s = t_storage_ns * 1e-9
    gamma_hz = c.gamma_comb_khz * 1e3
    try:
        eta = (COMB_B ** 2) * d_over_f ** 2 * math.exp(
            -COMB_B * d_over_f - 2 * math.pi * COMB_B ** 2 * t_s ** 2 * gamma_hz ** 2)
    except OverflowError:  # a square beyond the float range: each one drives eta to 0
        return 0.0
    if math.isnan(eta):  # (d/F)^2 B^2 overflowed to inf against an exp() of 0
        return 0.0
    return min(max(eta, 0.0), 1.0)


def bandwidth_match(m: SpectralModel) -> float:
    """Fraction of the photon spectrum inside the memory band.

    The band is [df - B/2, df + B/2].  A Lorentzian of half-width hw = gamma/2
    centred at s*c (c = zeeman/2, s = +-1) puts
    [atan((B/2 + df - s*c)/hw) + atan((B/2 - df + s*c)/hw)] / pi of its weight
    inside it; the two components weigh the same, so

        eta = sum_{s=+-1} [atan((B/2 + df - s*c)/hw) + atan((B/2 - df + s*c)/hw)] / (2 pi),

    clamped to [0, 1].  The terms pair up so that eta is exactly even in df.
    """
    hw = m.gamma_natural_mhz / 2.0
    c = m.zeeman_split_mhz / 2.0
    half = m.qm_bandwidth_mhz / 2.0
    df = m.detuning_mhz
    total = ((math.atan((half + df - c) / hw) + math.atan((half - df + c) / hw))
             + (math.atan((half + df + c) / hw) + math.atan((half - df - c) / hw)))
    return min(max(total / (2 * math.pi), 0.0), 1.0)


# ---------------------------------------------------------------------------
# pump-region planning


Interval = tuple[float, float]


@dataclass(frozen=True)
class PumpPlan:
    """Result of planning the absorption-enhancement pumping.

    ``transitions`` maps (ground, excited) labels to the transition's
    frequency offset on the common axis.  ``pumped_regions`` lists, per
    transition and in its own detuning frame, the intervals excited by the
    pump windows.
    """

    transitions: dict
    pump_windows: tuple
    target: Interval
    broadening_mhz: float
    pumped_regions: dict


def _merge(intervals: list[Interval]) -> list[Interval]:
    out: list[Interval] = []
    for lo, hi in sorted(intervals):
        if out and lo <= out[-1][1] + 1e-9:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return out


# the pump target and each pump window
INTERVAL = rules.Rule("a [lo, hi] number pair with lo < hi",
                      lambda v: isinstance(v, (list, tuple)) and len(v) == 2
                      and all(map(rules.FINITE.test, v)) and v[0] < v[1])


def plan_pump_regions(level_offsets: dict, windows: list[Interval],
                      target: Interval, broadening_mhz: float) -> PumpPlan:
    """Compute per-transition pumped intervals for an enhancement pump set.

    ``level_offsets`` maps (ground, excited) label pairs to the transition
    offset on the common frequency axis.  Each pump window [lo, hi] excites a
    transition with offset T over the detuning range (window - T), clipped to
    [0, broadening].  Enhancement windows must not overlap the target band
    (they would burn away the absorbers they are meant to feed).
    """
    rules.check("target", INTERVAL, target)
    for w in windows:
        rules.check("pump window", INTERVAL, w)
        if w[0] < target[1] and target[0] < w[1]:
            raise ValueError(f"pump window {w} overlaps the target band {target}")
    regions = {}
    for key, offset in level_offsets.items():
        hits = []
        for lo, hi in windows:
            a, b = max(lo - offset, 0.0), min(hi - offset, broadening_mhz)
            if b > a + 1e-9:
                hits.append((a, b))
        regions[key] = tuple(_merge(hits))
    return PumpPlan(transitions=dict(level_offsets), pump_windows=tuple(tuple(w) for w in windows),
                    target=tuple(target), broadening_mhz=broadening_mhz,
                    pumped_regions=regions)


def effective_depth(plan: PumpPlan, native_d: float, strengths: dict,
                    include_transmission_pump: bool = True, *,
                    partial_weight: float) -> float:
    """Band-averaged absorption depth after the pump sequence.

    ``strengths`` maps each (ground, excited) transition k to its relative
    oscillator strength s_k.  The sequence is: optional transmission pump over
    the target band [lo, hi], then the plan's enhancement windows in order.
    With p_g(x) the population of ground level g at detuning x after the
    sequence, T_k the offset of transition k and g_k its ground level, the
    native depth scales by the ratio of pumped to equilibrium band absorption:

        d = native_d * sum_k s_k <p_{g_k}>_k / sum_k (s_k / n_levels),
        <p_g>_k = (1 / (hi - lo)) * integral_lo^hi p_g(f - T_k) df.

    A window empties the levels it addresses into the dark ones: evenly, or
    ``partial_weight`` to the absorbing one when exactly one of two dark
    levels absorbs in the band.  One addressing every level leaves the uniform
    mixture.  p_g(f - T_k) only changes where f - T_k + T_t crosses a window or
    band edge, so each band average is an exact length-weighted midpoint sum.
    """
    rules.check("native_d", rules.FINITE_NONNEGATIVE, native_d)
    windows = list(plan.pump_windows)
    if not windows:
        return native_d
    if include_transmission_pump:
        windows = [plan.target] + windows
    for key in strengths:
        if key not in plan.transitions:
            raise ValueError(f"strength given for unknown transition {key}")
    levels = sorted({g for g, _ in plan.transitions})
    lo, hi = plan.target
    offsets = np.array(list(plan.transitions.values()), dtype=float)
    own = np.array([plan.transitions[key] for key in strengths], dtype=float)
    # every cut e + T_k - T_t of each band average, one row per strength; cuts
    # outside the band clip onto lo or hi (the +-inf edges put both in every
    # row), and the zero-width pieces that leaves drop out
    edges = np.array([-np.inf, np.inf, *{e for w in (*windows, plan.target) for e in w}])
    cuts = np.clip(edges[:, None] + own[:, None, None] - offsets, lo, hi)
    cuts = np.sort(cuts.reshape(len(own), edges.size * offsets.size), axis=1)
    width = np.diff(cuts, axis=1)
    keep = width > 0
    x = ((cuts[:, :-1] + cuts[:, 1:]) / 2 - own[:, None])[keep]
    freq = offsets[:, None] + x
    hit = np.array([(a <= freq) & (freq <= b) for a, b in (plan.target, *windows)])
    ground = np.array([[g == level for g, _ in plan.transitions] for level in levels])
    absorbing, *addressed = ground @ hit  # (n_levels, n_points) per band
    pop = np.full(absorbing.shape, 1.0 / len(levels))
    for pumped in addressed:
        dark = ~pumped
        n_dark = dark.sum(0)
        moved = np.where(pumped, pop, 0.0).sum(0)
        split = (n_dark == 2) & ((dark & absorbing).sum(0) == 1)
        gain = np.where(split, moved * np.where(absorbing, partial_weight, 1 - partial_weight),
                        moved / np.maximum(n_dark, 1))
        pop = np.where(n_dark == 0, 1.0 / len(levels), np.where(dark, pop + gain, 0.0))
    # dropped pieces stay zeros, so the running sum adds a row's pieces in order
    own_level = np.array([levels.index(g) for g, _ in strengths], dtype=int)
    terms = np.zeros(width.shape)
    terms[keep] = width[keep] * pop[own_level[keep.nonzero()[0]], np.arange(x.size)]
    post = native = 0.0
    for s, acc in zip(strengths.values(), np.cumsum(terms, axis=1)[:, -1].tolist()):
        post += s * acc / (hi - lo)
        native += s / len(levels)
    return native_d * post / native if native else 0.0


# ---------------------------------------------------------------------------
# storage channels


def storage_channel(eta_h: float, eta_v: float) -> QuantumChannel:
    """Heralded polarization storage with per-polarization efficiencies.

    Trace-decreasing: the herald probability on input rho is
    eta_h * p_H + eta_v * p_V.  Balanced efficiencies leave the post-selected
    state unchanged.
    """
    rules.check("eta_h", rules.PROBABILITY, eta_h)
    rules.check("eta_v", rules.PROBABILITY, eta_v)
    k = embed_single_qubit(np.diag([math.sqrt(eta_h), math.sqrt(eta_v)]).astype(complex), 1)
    return QuantumChannel((k,), trace_preserving=False)


def herald_probability(rho: DensityMatrix, ch: QuantumChannel) -> float:
    """Trace of the unnormalized channel output."""
    return apply_channel(rho, ch).trace


def storage_residual_channel(avg_infidelity: float) -> QuantumChannel:
    """Phenomenological storage imperfection as a photon-side phase flip.

    Calibrated so the Bell-state infidelity equals the measured average
    storage infidelity; not derived from a microscopic model.
    """
    rules.check("avg_infidelity", RESIDUAL_INFIDELITY, avg_infidelity)
    z = embed_single_qubit(Z, 1)
    eye = np.eye(4, dtype=complex)
    return QuantumChannel((math.sqrt(1 - avg_infidelity) * eye,
                           math.sqrt(avg_infidelity) * z))
