"""Trapped-ion node tests: emission phase and decoherence."""

import dataclasses
import math

import numpy as np
import pytest

from hqlink.config import ExperimentConfig
from hqlink.ion import decoherence_channel, decoherence_infidelity, emit_entangled_state
from hqlink.qstate import apply_channel, bell_state, fidelity

DEFAULTS = ExperimentConfig.defaults()
ION = DEFAULTS.ion
A = DEFAULTS.section("pipeline")["decoherence_exponent_a"]


class TestEmission:
    def test_zero_time_gives_phase_zero_pair(self):
        psi = emit_entangled_state(ION, 0.0)
        np.testing.assert_allclose(psi.amplitudes, bell_state(0.0).amplitudes, atol=1e-15)

    def test_half_zeeman_period_flips_coherence_sign(self):
        t_ns = math.pi / ION.zeeman_omega * 1e9
        psi = emit_entangled_state(ION, t_ns)
        assert psi.amplitudes[3].real == pytest.approx(-1 / math.sqrt(2), abs=1e-9)

    def test_phase_compensation_restores_maximal_state(self):
        t_ns = 484.0  # photon flight time scale
        phi = ION.zeeman_omega * t_ns * 1e-9
        psi = emit_entangled_state(ION, t_ns, phi_comp=phi)
        assert fidelity(psi.density(), bell_state(0.0)) == pytest.approx(1.0, abs=1e-12)

    def test_always_maximally_entangled(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            t_ns = rng.uniform(0, 5000)
            r = emit_entangled_state(ION, t_ns).density().matrix.reshape(2, 2, 2, 2)
            # reduced states of the ion (trace out the photon) and the photon
            for axes in ((1, 3), (0, 2)):
                np.testing.assert_allclose(np.trace(r, axis1=axes[0], axis2=axes[1]),
                                           np.eye(2) / 2, atol=1e-10)

    def test_diagonal_pattern_independent_of_phase(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            rho = emit_entangled_state(ION, rng.uniform(0, 1000)).density()
            np.testing.assert_allclose(np.real(np.diag(rho.matrix)),
                                       [0.5, 0, 0, 0.5], atol=1e-12)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            emit_entangled_state(ION, -1.0)

    def test_nonpositive_coherence_time_rejected(self):
        with pytest.raises(ValueError, match=r"^coherence_time_tau_ms: expected a number > 0, "
                                              r"got 0\.0$"):
            dataclasses.replace(ION, coherence_time_tau_ms=0.0)

    def test_nan_coherence_time_rejected(self):
        with pytest.raises(ValueError, match=r"^coherence_time_tau_ms: expected a number > 0, "
                                              r"got nan$"):
            dataclasses.replace(ION, coherence_time_tau_ms=math.nan)


class TestDecoherence:
    def test_zero_time_identity(self):
        ch = decoherence_channel(ION, 0.0, A)
        rho = apply_channel(bell_state(0.0).density(), ch)
        assert fidelity(rho, bell_state(0.0)) == pytest.approx(1.0, abs=1e-12)

    def test_long_time_limit(self):
        ch = decoherence_channel(ION, 1e9, A)
        rho = apply_channel(bell_state(0.0).density(), ch)
        assert fidelity(rho, bell_state(0.0)) == pytest.approx(0.5, abs=1e-9)

    def test_operating_point_formula_value(self):
        # direct evaluation of (1 - exp(-(t/tau)^2))/2 at the ti_qm storage time
        t_us = DEFAULTS.scenario_section("ti_qm")["decoherence_time_us"]
        tau_us = ION.coherence_time_tau_ms * 1e3
        expected = (1 - math.exp(-((t_us / tau_us) ** 2))) / 2
        assert expected == pytest.approx(5.1e-6, rel=0.01)
        assert decoherence_infidelity(ION, t_us, A) == pytest.approx(expected, rel=1e-12)
        rho = apply_channel(bell_state(0.0).density(), decoherence_channel(ION, t_us, A))
        assert 1 - fidelity(rho, bell_state(0.0)) == pytest.approx(expected, rel=1e-6)

    def test_fidelity_monotone_in_time(self):
        times = np.linspace(0, 2000, 40)
        fids = [1 - decoherence_infidelity(ION, t, A) for t in times]
        assert all(b <= a + 1e-15 for a, b in zip(fids, fids[1:]))

    def test_exponent_range_enforced(self):
        with pytest.raises(ValueError):
            decoherence_channel(ION, 1.0, exponent_a=0.5)

