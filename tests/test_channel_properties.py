"""Channel invariants of the analytic pipeline: each builder's Kraus stack
and the stacked Kraus product against the per-operator formulas, CPTP / PSD
properties over the pipeline rates that load-time validation accepts, and the
Pauli-vector chain against the same chain of Kraus channels."""

import copy
import dataclasses
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hqlink.scenarios as scenarios
from hqlink.config import ConfigError, ExperimentConfig
from hqlink.ion import decoherence_channel, emit_entangled_state
from hqlink.memory import storage_channel, storage_residual_channel
from hqlink.photon import (
    KRAUS_FLOOR,
    ProcessMatrix,
    depolarizing_chi,
    jitter_dephasing_channel,
    pbs_bitflip_channel,
    process_matrix_channel,
)
from hqlink.qstate import (
    CPTP_TOL,
    PAULIS,
    DensityMatrix,
    QuantumChannel,
    StateError,
    apply_channel,
    bell_state,
    bitflip_channel,
    dephasing_channel,
    depolarizing_channel,
    fidelity,
    identity_channel,
    kron,
    white_noise_channel,
)
from hqlink.scenarios import (
    PIPELINE_SCENARIOS,
    analytic_fidelity,
    analytic_pipeline_state,
    pipeline_stages,
)

# chsh samples the ti_qm link and has no pipeline of its own
TOMOGRAPHY_SCENARIOS = ("ion_photon", "post_qfc", "ti_qm")
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


I2, X, Z = PAULIS[0], PAULIS[1], PAULIS[3]
I4 = np.eye(4, dtype=complex)


def lift(op, subsystem):
    return np.kron(op, I2) if subsystem == 0 else np.kron(I2, op)


# Each builder's Kraus operators, one at a time, by the per-operator formulas
# that the stacked builders replaced.
def depolarizing_ops(p, dim):
    paulis = list(PAULIS) if dim == 2 else [np.kron(a, b) for a in PAULIS for b in PAULIS]
    n = len(paulis)
    return ([np.sqrt(1 - p * (n - 1) / n) * paulis[0]]
            + [np.sqrt(p / n) * P for P in paulis[1:]])


def process_matrix_ops(chi):
    w, v = np.linalg.eigh(chi.chi)
    return [math.sqrt(w[i]) * sum(v[m, i] * PAULIS[m] for m in range(4))
            for i in range(4) if w[i] > KRAUS_FLOOR]


def dephasing_ops(coherence, subsystem):
    z = Z if subsystem is None else lift(Z, subsystem)
    eye = np.eye(z.shape[0], dtype=complex)
    return [np.sqrt((1 + coherence) / 2) * eye, np.sqrt((1 - coherence) / 2) * z]


def bitflip_ops(prob, subsystem):
    x = X if subsystem is None else lift(X, subsystem)
    eye = np.eye(x.shape[0], dtype=complex)
    return [np.sqrt(1 - prob) * eye, np.sqrt(prob) * x]


def assert_stack_equals(ch, ops):
    k = ch.kraus_ops
    assert k.dtype == complex and k.shape == (len(ops),) + ops[0].shape
    assert not k.flags.writeable
    assert k.tobytes() == np.array(ops).tobytes()  # signed zeros included


def kraus_chain(cfg: ExperimentConfig, scenario: str) -> list[tuple[str, QuantumChannel]]:
    """The pipeline's stages as Kraus channels from the builders, with the
    names, order and inputs of pipeline_stages: the chain the Pauli-vector
    pipeline replaced, kept as its reference."""
    pl, storage = cfg.section("pipeline"), cfg.section("storage")
    scen = cfg.scenario_section(scenario)
    chain = [
        ("pulse_excitation", white_noise_channel(pl["excitation_error"])),
        ("pi_collection", white_noise_channel(pl["pi_collection_error"])),
        ("ion_decoherence", decoherence_channel(cfg.ion, scen["decoherence_time_us"],
                                                pl["decoherence_exponent_a"])),
        ("jitter_dephasing", jitter_dephasing_channel(cfg.jitter)),
    ]
    if scenario in ("post_qfc", "ti_qm"):
        qfc = process_matrix_channel(depolarizing_chi(pl["qfc_process_fidelity"]))
        chain.append(("qfc_process", QuantumChannel(kron(I2, qfc.kraus_ops))))
    if scenario == "ti_qm":
        chain.append(("qm_storage", storage_channel(storage["eta_internal_h"],
                                                    storage["eta_internal_v"])))
        chain.append(("qm_storage_residual",
                      storage_residual_channel(storage["residual_infidelity"])))
    if scenario in ("post_qfc", "ti_qm"):
        chain.append(("pbs_leakage", pbs_bitflip_channel(cfg.section("noise")["pbs_extinction"])))
    return chain + [("spam", white_noise_channel(pl["spam_error"])),
                    ("mw_rotation", white_noise_channel(pl["mw_rotation_error"]))]


def kraus_pipeline_state(cfg: ExperimentConfig, scenario: str):
    """analytic_pipeline_state by the Kraus chain: each channel applied to a
    checked state, the heralded one post-selected to unit trace."""
    target = bell_state(0.0)
    state = emit_entangled_state(cfg.ion, t_elapsed_ns=0.0).density()
    herald_prob = 1.0
    breakdown = [("emission", fidelity(state, target))]
    for name, ch in kraus_chain(cfg, scenario):
        state = apply_channel(state, ch)
        if not ch.trace_preserving:
            herald_prob *= state.trace
            state = DensityMatrix(state.matrix / state.trace)
        breakdown.append((name, fidelity(state, target)))
    return state, herald_prob, breakdown


def rank_one_chi(rng) -> ProcessMatrix:
    """The chi of a random unitary, sum_m c_m P_m with c_m = tr(P_m U) / 2."""
    q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    c = np.einsum("mab,ba->m", PAULIS, q) / 2
    return ProcessMatrix(np.outer(c, c.conj()))


class TestKrausStackBuilders:
    RATES = (0.0, 1e-12, 0.05, 1 / 3, 0.75, 1.0)

    @pytest.mark.parametrize("dim", [2, 4])
    def test_depolarizing(self, dim):
        rng = np.random.default_rng(dim)
        for p in self.RATES + tuple(rng.uniform(size=20)):
            assert_stack_equals(depolarizing_channel(p, dim), depolarizing_ops(p, dim))

    def test_white_noise(self):
        for eps in (0.0, 0.017, 0.5, 0.75):
            assert_stack_equals(white_noise_channel(eps), depolarizing_ops(eps / 0.75, 4))

    def test_process_matrix_on_depolarizing_chi(self):
        for f in self.RATES + (2.1e-10, 0.92):
            chi = depolarizing_chi(f)
            ops = process_matrix_ops(chi)
            assert_stack_equals(process_matrix_channel(chi), ops)
            embedded = QuantumChannel(kron(I2, process_matrix_channel(chi).kraus_ops))
            assert_stack_equals(embedded, [lift(k, 1) for k in ops])

    def test_rank_one_chi_gives_one_operator(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            chi = rank_one_chi(rng)
            ops = process_matrix_ops(chi)
            assert len(ops) == 1
            assert_stack_equals(process_matrix_channel(chi), ops)

    @pytest.mark.parametrize("subsystem", [None, 0, 1])
    def test_dephasing_and_bitflip(self, subsystem):
        for v in self.RATES:
            assert_stack_equals(dephasing_channel(v, subsystem), dephasing_ops(v, subsystem))
            assert_stack_equals(bitflip_channel(v, subsystem), bitflip_ops(v, subsystem))

    def test_storage_and_residual(self):
        for eta_h, eta_v in ((0.0, 1.0), (0.31, 0.27), (sys.float_info.min, 0.5), (1.0, 1.0)):
            diag = np.diag([math.sqrt(eta_h), math.sqrt(eta_v)]).astype(complex)
            ch = storage_channel(eta_h, eta_v)
            assert not ch.trace_preserving
            assert_stack_equals(ch, [lift(diag, 1)])
        for eps in (0.0, 0.013, 0.5):
            assert_stack_equals(storage_residual_channel(eps),
                                [math.sqrt(1 - eps) * I4, math.sqrt(eps) * lift(Z, 1)])

    @pytest.mark.parametrize("scenario", TOMOGRAPHY_SCENARIOS)
    def test_pipeline_channels_are_read_only_stacks(self, scenario):
        for name, ch in kraus_chain(ExperimentConfig.defaults(scenario), scenario):
            assert ch.kraus_ops.ndim == 3 and ch.kraus_ops.shape[1:] == (4, 4), name
            assert not ch.kraus_ops.flags.writeable, name


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
        for _, ch in kraus_chain(cfg, scenario):
            assert_bitwise_equal(state, ch)
            for _ in range(10):
                assert_bitwise_equal(random_state(rng, 4), ch)
                assert_bitwise_equal(random_state(rng, 4, trace=rng.uniform()), ch)
            state = apply_channel(state, ch)
            if not ch.trace_preserving:
                state = DensityMatrix(state.matrix / state.trace)


# Each white-noise rate costs a Bell state its own value of fidelity, which a
# depolarizing channel can take only up to 3/4 (mixing fully to I/4).
white_noise_rate = st.floats(0.0, 0.75)
unit = st.floats(0.0, 1.0)
# Load-time validation takes a storage efficiency of 0 or one in
# [sys.float_info.min, 1]: a subnormal one would leave a herald probability
# that the post-selection cannot rescale.
efficiency = st.just(0.0) | st.floats(sys.float_info.min, 1.0)


@st.composite
def pipeline_configs(draw):
    """(config, scenario) with the pipeline, storage and scenario values
    drawn from the ranges that load-time validation accepts."""
    scenario = draw(st.sampled_from(TOMOGRAPHY_SCENARIOS))
    pipeline = {name: draw(white_noise_rate) for name in WHITE_NOISE_RATES}
    pipeline.update(qfc_process_fidelity=draw(unit),
                    decoherence_exponent_a=draw(st.floats(1.0, 3.0)))
    eta_h, eta_v = draw(efficiency), draw(efficiency)
    if eta_h == eta_v == 0.0:
        eta_v = draw(st.floats(sys.float_info.min, 1.0))
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
        for name, ch in kraus_chain(cfg, scenario):
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
        stages = pipeline_stages(cfg, scenario)
        assert [name for name, _ in breakdown[1:]] == [name for name, _ in stages]
        for name, m in stages:
            assert m.dtype == float and m.shape == ((4, 4) if name == "qm_storage" else (16,))
        for name, f in breakdown:
            assert 0.0 <= f <= 1.0, name

    def test_zero_storage_residual_is_the_chain_without_it(self, monkeypatch):
        # residual_infidelity 0 switches the residual off: its factors
        # (1, 1, 1, 1) on the photon leave the Pauli vector bitwise unchanged
        cfg = ExperimentConfig.defaults("ti_qm", storage={"residual_infidelity": 0.0})
        state, herald_prob, breakdown = analytic_pipeline_state(cfg, "ti_qm")
        all_stages = scenarios.pipeline_stages
        monkeypatch.setattr(scenarios, "pipeline_stages", lambda *args: [
            stage for stage in all_stages(*args) if stage[0] != "qm_storage_residual"])
        skipped, skipped_prob, skipped_breakdown = analytic_pipeline_state(cfg, "ti_qm")
        assert "qm_storage_residual" not in dict(skipped_breakdown)
        assert state.matrix.tobytes() == skipped.matrix.tobytes()
        assert herald_prob == skipped_prob
        fidelities = dict(breakdown)
        assert fidelities["qm_storage_residual"] == fidelities["qm_storage"]

    @pytest.mark.parametrize("rate", WHITE_NOISE_RATES)
    def test_white_noise_rate_above_three_quarters_rejected_at_load(self, rate):
        # the channel itself stops at 3/4, so load-time validation does too
        ExperimentConfig.defaults("ti_qm", pipeline={rate: 0.75})
        with pytest.raises(ConfigError, match=f"pipeline.{rate}: expected a number in "
                                              r"\[0, 0.75\], got 0.9"):
            ExperimentConfig.defaults("ti_qm", pipeline={rate: 0.9})

    def test_stages_fail_where_the_kraus_builders_fail(self):
        # a jitter whose rms sum overflows at zero Zeeman frequency loads but
        # has a NaN coherence; a white-noise rate above 3/4 and two dead
        # storage efficiencies can only come past the load-time check
        jitter = ExperimentConfig.defaults("ti_qm", ion={"zeeman_frequency_mhz": 0.0}, jitter={
            "awg_rms_ns": 1.7e308, "transceiver_rms_ns": 1.7e308})
        base = ExperimentConfig.defaults("ti_qm")
        raw = copy.deepcopy(base.raw)
        raw["pipeline"]["spam_error"] = 0.9
        for cfg in (jitter, dataclasses.replace(base, raw=raw)):
            with pytest.raises(StateError) as kraus_error:
                kraus_pipeline_state(cfg, "ti_qm")
            with pytest.raises(StateError, match=r"(coherence factor|depolarizing probability) "
                                                 r"\S+ outside \[0, 1\]") as error:
                analytic_pipeline_state(cfg, "ti_qm")
            assert str(error.value) == str(kraus_error.value)
        raw["pipeline"]["spam_error"] = 0.01
        raw["storage"].update(eta_internal_h=0.0, eta_internal_v=0.0)
        with pytest.raises(StateError, match="^cannot renormalize a zero-trace state$"):
            analytic_pipeline_state(dataclasses.replace(base, raw=raw), "ti_qm")

    @pytest.mark.parametrize("process_fidelity", [2.1e-10, 5e-10])
    def test_tiny_qfc_process_fidelity_keeps_unit_trace(self, process_fidelity):
        # chi weights below the chi tolerance still belong to the channel
        cfg = ExperimentConfig.defaults(
            "post_qfc", pipeline={"qfc_process_fidelity": process_fidelity})
        state, _, _ = analytic_pipeline_state(cfg, "post_qfc")
        assert abs(state.trace - 1.0) <= 1e-14

    @pytest.mark.parametrize("eta", [1e-310, 5e-324])
    def test_subnormal_storage_efficiency_rejected_at_load(self, eta):
        # the herald probability would underflow and the rescale to unit
        # trace overflow, so the value stops at load
        for key in ("eta_internal_h", "eta_internal_v"):
            with pytest.raises(ConfigError, match=f"storage.{key}: {eta!r} is subnormal"):
                ExperimentConfig.defaults("ti_qm", storage={key: eta})

    @pytest.mark.parametrize("eta_h, eta_v", [
        (0.0, sys.float_info.min), (sys.float_info.min, 0.0),
        (sys.float_info.min, sys.float_info.min)])
    def test_smallest_normal_storage_efficiency_builds(self, eta_h, eta_v):
        cfg = ExperimentConfig.defaults("ti_qm", storage={"eta_internal_h": eta_h,
                                                          "eta_internal_v": eta_v})
        state, herald_prob, _ = analytic_pipeline_state(cfg, "ti_qm")
        assert abs(state.trace - 1.0) <= 1e-10
        assert 0.0 < herald_prob <= sys.float_info.min

    @pytest.mark.parametrize("key", ["snr", "decoherence_time_us"])
    def test_chsh_sets_no_link_of_its_own(self, key):
        # chsh samples the ti_qm link at the ti_qm SNR and storage time
        with pytest.raises(ConfigError, match=f"^invalid configuration:\n  "
                                              f"scenarios.chsh.{key}: unknown field$"):
            ExperimentConfig.defaults("chsh", scenarios={"chsh": {key: 28.0}})


@pytest.mark.parametrize("scenario", ["chsh", "budget", "nonsense"])
def test_scenario_without_a_pipeline_is_named(scenario):
    assert PIPELINE_SCENARIOS == TOMOGRAPHY_SCENARIOS
    cfg = ExperimentConfig.defaults("ti_qm")
    for fn in (pipeline_stages, analytic_pipeline_state, analytic_fidelity):
        with pytest.raises(ValueError, match=f"^scenario '{scenario}' has no pipeline: "
                                             "expected one of ion_photon, post_qfc, ti_qm$"):
            fn(cfg, scenario)


def assert_chains_agree(cfg: ExperimentConfig, scenario: str):
    """The Pauli-vector chain against the Kraus chain: the same stages, and
    the state, the herald probability and the breakdown to 1e-14."""
    state, herald_prob, breakdown = analytic_pipeline_state(cfg, scenario)
    ref_state, ref_prob, ref_breakdown = kraus_pipeline_state(cfg, scenario)
    assert ([name for name, _ in pipeline_stages(cfg, scenario)]
            == [name for name, _ in kraus_chain(cfg, scenario)])
    assert [name for name, _ in breakdown] == [name for name, _ in ref_breakdown]
    assert np.abs(state.matrix - ref_state.matrix).max() <= 1e-14
    assert abs(herald_prob - ref_prob) <= 1e-14 * ref_prob
    for (name, f), (_, ref) in zip(breakdown, ref_breakdown):
        assert abs(f - ref) <= 1e-14, name


class TestPauliChainAgainstKrausChain:
    @settings(max_examples=100, deadline=None)
    @given(pipeline_configs())
    def test_drawn_configs(self, drawn):
        assert_chains_agree(*drawn)

    @pytest.mark.parametrize("scenario, overrides", [
        ("post_qfc", {"pipeline": {"qfc_process_fidelity": 2.1e-10}}),
        ("post_qfc", {"pipeline": {"qfc_process_fidelity": 5e-10}}),
        ("ti_qm", {"pipeline": {"qfc_process_fidelity": 2.1e-10}}),
        ("ti_qm", {"storage": {"eta_internal_h": 0.0, "eta_internal_v": sys.float_info.min}}),
        ("ti_qm", {"storage": {"eta_internal_h": sys.float_info.min,
                               "eta_internal_v": sys.float_info.min}}),
        ("ti_qm", {"storage": {"residual_infidelity": 0.0}}),
        *[(scenario, {}) for scenario in TOMOGRAPHY_SCENARIOS],
    ])
    def test_edge_and_default_configs(self, scenario, overrides):
        assert_chains_agree(ExperimentConfig.defaults(scenario, **overrides), scenario)
