"""Channel invariants of the analytic pipeline: the stacked Kraus product
against the per-operator sum, and CPTP / PSD properties over the pipeline
rates that load-time validation accepts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hqlink.config import ConfigError, ExperimentConfig
from hqlink.ion import emit_entangled_state
from hqlink.qstate import (
    CPTP_TOL,
    DensityMatrix,
    apply_channel,
    bitflip_channel,
    dephasing_channel,
    depolarizing_channel,
    identity_channel,
    white_noise_channel,
)
from hqlink.scenarios import analytic_pipeline_state, pipeline_channels

TOMOGRAPHY_SCENARIOS = ("ion_photon", "post_qfc", "ti_qm", "chsh")
WHITE_NOISE_RATES = ("excitation_error", "pi_collection_error", "spam_error",
                     "mw_rotation_error")


def kraus_sum(rho: DensityMatrix, ch) -> DensityMatrix:
    """apply_channel as the per-operator Python sum."""
    out = sum(k @ rho.matrix @ k.conj().T for k in ch.kraus_ops)
    return DensityMatrix(out, subnormalized=rho.subnormalized or not ch.trace_preserving)


def random_state(rng, dim: int, trace: float = 1.0) -> DensityMatrix:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return DensityMatrix(trace * m / np.trace(m).real, subnormalized=trace < 1.0)


def assert_bitwise_equal(rho: DensityMatrix, ch):
    ours, ref = apply_channel(rho, ch), kraus_sum(rho, ch)
    assert ours.matrix.tobytes() == ref.matrix.tobytes()
    assert ours.subnormalized == ref.subnormalized


class TestStackedKrausProduct:
    def test_library_channels_on_random_states(self):
        rng = np.random.default_rng(31)
        channels = [depolarizing_channel(rng.uniform(), 4), depolarizing_channel(0.2, 2),
                    dephasing_channel(rng.uniform(), 1), dephasing_channel(0.4),
                    bitflip_channel(rng.uniform(), 0), white_noise_channel(0.05),
                    identity_channel(4)]
        for ch in channels:
            for _ in range(20):
                assert_bitwise_equal(random_state(rng, ch.dim), ch)

    @pytest.mark.parametrize("scenario", TOMOGRAPHY_SCENARIOS)
    def test_pipeline_channels_on_pipeline_and_random_states(self, scenario):
        cfg = ExperimentConfig.defaults(scenario)
        rng = np.random.default_rng(37)
        state = emit_entangled_state(cfg.ion, t_elapsed_ns=0.0).density()
        for _, ch in pipeline_channels(cfg, scenario):
            assert_bitwise_equal(state, ch)
            for _ in range(10):
                assert_bitwise_equal(random_state(rng, 4), ch)
                assert_bitwise_equal(random_state(rng, 4, trace=rng.uniform()), ch)
            state = apply_channel(state, ch)
            if not ch.trace_preserving:
                state = state.renormalized()


# Each white-noise rate costs a Bell state its own value of fidelity, which a
# depolarizing channel can take only up to 3/4 (mixing fully to I/4).
white_noise_rate = st.floats(0.0, 0.75)
unit = st.floats(0.0, 1.0)
# A storage efficiency below ~1e-307 leaves a subnormal herald probability
# that the post-selection cannot rescale; the tests below pin that failure.
efficiency = st.just(0.0) | st.floats(1e-300, 1.0)


@st.composite
def pipeline_configs(draw):
    """(config, scenario) with the pipeline, storage and scenario values
    drawn from the ranges that load-time validation accepts."""
    scenario = draw(st.sampled_from(TOMOGRAPHY_SCENARIOS))
    pipeline = {name: draw(white_noise_rate) for name in WHITE_NOISE_RATES}
    pipeline.update(qfc_process_fidelity=draw(unit),
                    decoherence_exponent_a=draw(st.floats(1.0, 3.0)),
                    apply_storage_residual=draw(st.booleans()))
    eta_h, eta_v = draw(efficiency), draw(efficiency)
    if eta_h == eta_v == 0.0:
        eta_v = draw(st.floats(1e-300, 1.0))
    storage = {"eta_internal_h": eta_h, "eta_internal_v": eta_v,
               "residual_infidelity": draw(st.floats(0.0, 0.5))}
    scen = {"decoherence_time_us": draw(st.floats(0.0, 1e4)),
            "snr": draw(st.floats(0.0, np.inf, exclude_min=True))}
    cfg = ExperimentConfig.defaults(scenario, pipeline=pipeline, storage=storage,
                                    scenarios={scenario: scen})
    return cfg, scenario


class TestPipelineChannelProperties:
    @settings(max_examples=60, deadline=None)
    @given(pipeline_configs())
    def test_kraus_completeness(self, drawn):
        cfg, scenario = drawn
        for name, ch in pipeline_channels(cfg, scenario):
            total = sum(k.conj().T @ k for k in ch.kraus_ops)
            if ch.trace_preserving:
                assert np.max(np.abs(total - np.eye(ch.dim))) <= CPTP_TOL, name
            else:
                assert np.linalg.eigvalsh(total).max() <= 1.0 + CPTP_TOL, name

    @settings(max_examples=60, deadline=None)
    @given(pipeline_configs())
    def test_pipeline_state_is_a_state(self, drawn):
        cfg, scenario = drawn
        state, herald_prob, breakdown = analytic_pipeline_state(cfg, scenario)
        assert not state.subnormalized
        assert abs(state.trace - 1.0) <= 1e-10
        assert state.eigenvalues().min() >= -1e-12  # PSD up to eigensolver rounding
        assert 0.0 < herald_prob <= 1.0
        assert [name for name, _ in breakdown[1:]] == [
            name for name, _ in pipeline_channels(cfg, scenario)]
        for name, f in breakdown:
            assert 0.0 <= f <= 1.0, name

    @pytest.mark.parametrize("rate", WHITE_NOISE_RATES)
    def test_white_noise_rate_above_three_quarters_rejected_at_load(self, rate):
        # the channel itself stops at 3/4, so load-time validation does too
        ExperimentConfig.defaults("ti_qm", pipeline={rate: 0.75})
        with pytest.raises(ConfigError, match=f"pipeline.{rate}: expected a number in "
                                              r"\[0, 0.75\], got 0.9"):
            ExperimentConfig.defaults("ti_qm", pipeline={rate: 0.9})

    @pytest.mark.parametrize("process_fidelity", [2.1e-10, 5e-10])
    def test_tiny_qfc_process_fidelity_keeps_unit_trace(self, process_fidelity):
        # chi weights below the chi tolerance still belong to the channel
        cfg = ExperimentConfig.defaults(
            "post_qfc", pipeline={"qfc_process_fidelity": process_fidelity})
        state, _, _ = analytic_pipeline_state(cfg, "post_qfc")
        assert abs(state.trace - 1.0) <= 1e-14

    @pytest.mark.parametrize("eta", [1e-310, 5e-324])
    def test_subnormal_storage_efficiency_fails_in_the_pipeline(self, eta):
        # accepted at load, but the herald probability underflows and the
        # rescale to unit trace overflows
        cfg = ExperimentConfig.defaults("ti_qm", storage={"eta_internal_h": 0.0,
                                                          "eta_internal_v": eta})
        with pytest.raises(ValueError), np.errstate(over="ignore", invalid="ignore"):
            analytic_pipeline_state(cfg, "ti_qm")
