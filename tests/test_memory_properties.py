"""Property tests of the closed-form memory design: the band overlap of the
double Lorentzian and the exact band-averaged pump depth."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from hqlink.memory import SpectralModel, bandwidth_match, effective_depth, plan_pump_regions

spectral_models = st.builds(
    SpectralModel,
    gamma_natural_mhz=st.floats(0.5, 100.0),
    zeeman_split_mhz=st.floats(0.0, 60.0),
    qm_bandwidth_mhz=st.floats(0.5, 300.0),
    detuning_mhz=st.floats(-200.0, 200.0),
)


@st.composite
def single_peaked_models(draw):
    """Spectra with one maximum: the doublet splits by at most gamma / sqrt(3)."""
    m = draw(spectral_models)
    split = draw(st.floats(0.0, m.gamma_natural_mhz / math.sqrt(3)))
    return replace(m, zeeman_split_mhz=split)


def quad_band_fraction(m: SpectralModel) -> float:
    """Band fraction by numerical quadrature of the two Lorentzians."""
    hw, c = m.gamma_natural_mhz / 2, m.zeeman_split_mhz / 2
    lo = m.detuning_mhz - m.qm_bandwidth_mhz / 2
    hi = m.detuning_mhz + m.qm_bandwidth_mhz / 2
    inside = 0.0
    for center in (c, -c):
        line = lambda f, center=center: hw ** 2 / ((f - center) ** 2 + hw ** 2)
        peak = [center] if lo < center < hi else None
        inside += integrate.quad(line, lo, hi, points=peak, epsabs=1e-13, epsrel=1e-13,
                                 limit=200)[0]
    # each component integrates to pi * hw over the whole line
    return inside / (2 * math.pi * hw)


class TestBandwidthMatchProperties:
    @given(spectral_models)
    def test_within_unit_interval(self, m):
        assert 0.0 <= bandwidth_match(m) <= 1.0

    @given(spectral_models)
    def test_even_in_detuning(self, m):
        assert bandwidth_match(m) == bandwidth_match(replace(m, detuning_mhz=-m.detuning_mhz))

    # a resolved doublet dips at zero detuning, where the band then catches
    # less light than when centred on one line; the property needs one peak
    @given(single_peaked_models(), st.floats(-200.0, 200.0))
    def test_not_increasing_with_detuning_magnitude(self, m, other):
        near, far = sorted((abs(m.detuning_mhz), abs(other)))
        assert bandwidth_match(replace(m, detuning_mhz=far)) <= \
            bandwidth_match(replace(m, detuning_mhz=near)) + 1e-12

    @given(spectral_models, st.floats(0.5, 300.0))
    def test_not_decreasing_with_bandwidth(self, m, other):
        narrow, wide = sorted((m.qm_bandwidth_mhz, other))
        assert bandwidth_match(replace(m, qm_bandwidth_mhz=wide)) >= \
            bandwidth_match(replace(m, qm_bandwidth_mhz=narrow)) - 1e-12

    @given(spectral_models)
    def test_agrees_with_quadrature(self, m):
        assert bandwidth_match(m) == pytest.approx(quad_band_fraction(m), abs=1e-9)


# ---------------------------------------------------------------------------
# effective depth


GROUNDS = ("a", "b", "c")
EXCITED = ("x", "y", "z")


@st.composite
def pump_cases(draw):
    """A random three-class pump plan with strengths and sequence options."""
    offset = st.floats(0.0, 300.0)
    ground = {g: draw(offset) for g in GROUNDS}
    excited = {e: draw(offset) for e in EXCITED}
    transitions = {(g, e): ground[g] + excited[e] for g in GROUNDS for e in EXCITED}
    lo = draw(st.floats(0.0, 400.0))
    target = (lo, lo + draw(st.floats(5.0, 80.0)))
    windows = []
    for _ in range(draw(st.integers(1, 3))):
        gap, width = draw(st.floats(0.0, 300.0)), draw(st.floats(1.0, 250.0))
        if draw(st.booleans()):
            windows.append((target[1] + gap, target[1] + gap + width))
        else:
            windows.append((target[0] - gap - width, target[0] - gap))
    plan = plan_pump_regions(transitions, windows, target, draw(st.floats(100.0, 600.0)))
    strengths = {key: draw(st.floats(0.01, 1.0)) for key in transitions}
    return (plan, draw(st.floats(0.5, 10.0)), strengths, draw(st.booleans()),
            draw(st.floats(0.0, 1.0)))


def brute_force_depth(plan, native_d, strengths, include_transmission_pump,
                      partial_weight, n=20_000):
    """Midpoint average over n band points of the population model, in numpy."""
    windows = list(plan.pump_windows)
    if include_transmission_pump:
        windows = [plan.target] + windows
    levels = sorted({g for g, _ in plan.transitions})
    lo, hi = plan.target
    fs = lo + (np.arange(n) + 0.5) * (hi - lo) / n
    post = native = 0.0
    for key, s in strengths.items():
        x = fs - plan.transitions[key]

        def addressed(a, b):
            out = np.zeros((len(levels), n), dtype=bool)
            for (g, _), t in plan.transitions.items():
                out[levels.index(g)] |= (a <= t + x) & (t + x <= b)
            return out

        absorbing = addressed(lo, hi)
        pop = np.full((len(levels), n), 1.0 / len(levels))
        for a, b in windows:
            dark = ~addressed(a, b)
            n_dark = dark.sum(axis=0)
            moved = np.where(dark, 0.0, pop).sum(axis=0)
            split = (n_dark == 2) & ((dark & absorbing).sum(axis=0) == 1)
            share = np.where(split, np.where(absorbing, partial_weight, 1 - partial_weight),
                             1.0 / np.maximum(n_dark, 1))
            pop = np.where(dark, pop + moved * share, 0.0)
            pop = np.where(n_dark == 0, 1.0 / len(levels), pop)
        post += s * pop[levels.index(key[0])].mean()
        native += s / len(levels)
    return native_d * post / native


class TestEffectiveDepthProperties:
    @settings(max_examples=40, deadline=None)
    @given(pump_cases())
    def test_matches_brute_force_band_average(self, case):
        plan, native_d, strengths, transmission, w = case
        exact = effective_depth(plan, native_d, strengths, transmission, partial_weight=w)
        brute = brute_force_depth(plan, native_d, strengths, transmission, w)
        # relative to the native depth: a pumped-empty band reads 0 on both sides
        assert exact == pytest.approx(brute, abs=1e-3 * native_d)

    @settings(deadline=None)
    @given(pump_cases(), st.randoms(use_true_random=False))
    def test_independent_of_strength_order(self, case, rnd):
        plan, native_d, strengths, transmission, w = case
        keys = list(strengths)
        rnd.shuffle(keys)
        shuffled = {k: strengths[k] for k in keys}
        assert effective_depth(plan, native_d, shuffled, transmission,
                               partial_weight=w) == pytest.approx(
            effective_depth(plan, native_d, strengths, transmission, partial_weight=w),
            rel=1e-12, abs=1e-12)
