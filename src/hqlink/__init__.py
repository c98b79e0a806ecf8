"""hqlink: desk-scale simulator of a trapped-ion to solid-state-memory
quantum link.

Channel models for the ion node, frequency-conversion photon chain and AFC
memory; maximum-likelihood tomography with bootstrap errors; CHSH evaluation;
and deterministic rate/error budgets.
"""

from .budget import (
    EfficiencyStage,
    ErrorSource,
    RateChain,
    end_to_end_efficiency,
    rate,
    snr_and_noise_rate,
    total_infidelity,
)
from .config import ConfigError, ExperimentConfig
from .ion import IonParams, emit_entangled_state
from .memory import (
    CombParams,
    PumpPlan,
    SpectralModel,
    afc_efficiency,
    bandwidth_match,
    effective_depth,
    plan_pump_regions,
)
from .photon import JitterParams, dark_noise_admixture
from .qstate import (
    DensityMatrix,
    Observable,
    PureState,
    QuantumChannel,
    apply_channel,
    bell_state,
    expectation,
    fidelity,
    trace_distance,
    werner,
)
from .scenarios import RunReport, analytic_fidelity, emit_report, run
from .tomography import (
    ChshSettings,
    CountRecord,
    MeasurementSetting,
    NonConvergenceError,
    bootstrap_uncertainty,
    chsh,
    mle_reconstruct,
)

__version__ = "0.1.0"
