"""hqlink.linalg against a numpy whose private module lacks the kernels it
binds: the public calls that stand in must give the same fits, states and
errors, bit for bit."""

import importlib
import types

import numpy as np
import pytest
from numpy.linalg import _umath_linalg

from hqlink import linalg
from hqlink.config import BUDGET_KEYS, ExperimentConfig
from hqlink.qstate import DensityMatrix, StateError, werner
from hqlink.rng import child_rng
from hqlink.scenarios import analytic_pipeline_state
from hqlink.tomography import (
    CountRecord,
    all_settings,
    bootstrap_uncertainty,
    mle_reconstruct,
    simulate_tomography,
    split_heralds,
)

KERNELS = ("_cholesky_lo", "_solve1", "_eigvalsh_lo", "_eigh_lo")

# ti_qm counts on which the first Newton pass stalls and the fit restarts
STALLED = [[85, 3, 7, 103], [49, 65, 42, 42], [64, 50, 41, 43], [55, 53, 38, 52],
           [93, 7, 6, 92], [57, 50, 44, 47], [52, 42, 50, 54], [40, 48, 54, 55],
           [10, 95, 88, 4]]


@pytest.fixture
def public_calls(monkeypatch):
    """hqlink.linalg imported again where numpy.linalg._umath_linalg holds
    none of the names it binds, and restored afterwards."""
    monkeypatch.setattr(np.linalg, "_umath_linalg", types.ModuleType("_umath_linalg"))
    importlib.reload(linalg)
    yield
    monkeypatch.undo()
    importlib.reload(linalg)


def fits() -> list[bytes]:
    """Matrix bytes of fits that take every step branch, the restart and
    both start paths, and a bootstrap."""
    out = []
    for scenario in ("ion_photon", "ti_qm", "post_qfc"):
        cfg = ExperimentConfig.defaults(scenario)
        sec = cfg.scenario_section()
        state, _, _ = analytic_pipeline_state(cfg, scenario)
        shots = {(s.ion_axis, s.photon_axis): n
                 for s, n in zip(all_settings(), split_heralds(sec[BUDGET_KEYS[scenario]]))}
        for i in range(5):
            recs = simulate_tomography(state, shots, sec["snr"], child_rng(i, scenario))
            out.append(mle_reconstruct(recs).matrix.tobytes())
    stalled = [CountRecord(s, tuple(c), sum(c)) for s, c in zip(all_settings(), STALLED)]
    out.append(mle_reconstruct(stalled).matrix.tobytes())
    out.append(mle_reconstruct([CountRecord(s, (50, 0, 0, 0), 50)
                                for s in all_settings()]).matrix.tobytes())
    recs = simulate_tomography(werner(0.85), 200, 28.0, child_rng(8, "kernels"))
    out.append(repr(bootstrap_uncertainty(recs, 100, "fidelity", 4)).encode())
    return out


def state_outcomes() -> list:
    """What DensityMatrix makes of a clipped, a rejected and a
    non-converging input, and of a clipped one whose eigenvectors do not
    converge."""
    out = []
    clipped = werner(1.0).matrix.copy()
    clipped[1, 1] -= 5e-10
    clipped[0, 0] += 5e-10
    out.append(DensityMatrix(clipped).matrix.tobytes())
    with pytest.raises(StateError) as err:
        DensityMatrix(np.diag([1.1, -0.1, 0.0, 0.0]))
    out.append(str(err.value))
    with pytest.MonkeyPatch.context() as patch:
        # the eigenvalue kernel not converging, as numpy's wrapper calls it
        # and as bound here: NaN, with the invalid flag raised
        def nonconverging(a, signature=None):
            return np.zeros(a.shape[-1]) / np.zeros(a.shape[-1])

        patch.setattr(_umath_linalg, "eigvalsh_lo", nonconverging)
        if linalg._eigvalsh_lo is not None:
            patch.setattr(linalg, "_eigvalsh_lo", nonconverging)
        with pytest.raises(np.linalg.LinAlgError) as err:
            DensityMatrix(werner(0.5).matrix)
        out.append(str(err.value))
    with pytest.MonkeyPatch.context() as patch:
        def nonconverging_eigh(a, signature=None):
            nan = np.zeros(a.shape[-1]) / np.zeros(a.shape[-1])
            return nan, np.full(a.shape, nan[0], dtype=a.dtype)

        patch.setattr(_umath_linalg, "eigh_lo", nonconverging_eigh)
        if linalg._eigh_lo is not None:
            patch.setattr(linalg, "_eigh_lo", nonconverging_eigh)
        with pytest.raises(np.linalg.LinAlgError) as err:
            DensityMatrix(clipped)
        out.append(str(err.value))
    return out


def test_kernels_are_bound():
    assert all(getattr(linalg, name) is not None for name in KERNELS)


def test_public_calls_stand_in_for_missing_kernels(request):
    expected = fits(), state_outcomes()
    request.getfixturevalue("public_calls")
    assert all(getattr(linalg, name) is None for name in KERNELS)
    assert (fits(), state_outcomes()) == expected
