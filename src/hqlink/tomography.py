"""Projective measurement simulation, maximum-likelihood state reconstruction,
CHSH evaluation and bootstrap error bars.

Measurements run on the 3x3 grid of mutually unbiased bases (Z, X, Y per
qubit), which is tomographically complete for two qubits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .photon import dark_noise_admixture
from .qstate import (
    PAULIS,
    DensityMatrix,
    Observable,
    StateError,
    X,
    Z,
    bell_state,
    expectation,
    fidelity,
    kron,
)
from .rng import as_rng

AXES = ("Z", "X", "Y")


class NonConvergenceError(RuntimeError):
    """MLE failed to converge; carries the final gradient norm per count."""

    def __init__(self, message: str, gradient_norm: float):
        super().__init__(message)
        self.gradient_norm = gradient_norm


@dataclass(frozen=True)
class MeasurementSetting:
    """One ion-axis / photon-axis pair from the MUB grid."""

    ion_axis: str
    photon_axis: str

    def __post_init__(self):
        for axis in (self.ion_axis, self.photon_axis):
            if axis not in AXES:
                raise ValueError(f"axis {axis!r} not in {AXES}")


_SETTINGS = tuple(MeasurementSetting(a, b) for a in AXES for b in AXES)


def all_settings() -> list[MeasurementSetting]:
    return list(_SETTINGS)


# (I + P) / 2 and (I - P) / 2 for the Paulis of AXES: [axis, sign] (3, 2, 2, 2).
_AXIS_PROJECTORS = (np.eye(2) + np.array([1, -1])[:, None, None] * PAULIS[[3, 1, 2], None]) / 2
# The grid's projectors as one read-only (9, 4, 4, 4) stack, settings in
# all_settings() order, outcomes ++, +-, -+, --; and per setting.
_GRID = kron(_AXIS_PROJECTORS[:, None, :, None],
             _AXIS_PROJECTORS[None, :, None, :]).reshape(9, 4, 4, 4)
_GRID.flags.writeable = False
_PROJECTORS = dict(zip(_SETTINGS, _GRID))


def setting_projectors(setting: MeasurementSetting) -> np.ndarray:
    """The four joint eigenprojectors of the setting, ordered ++, +-, -+, --
    (a shared read-only array)."""
    return _PROJECTORS[setting]


_BOOLEANS = frozenset((bool, np.bool_))


@dataclass(frozen=True)
class CountRecord:
    """Outcome counts for one measurement setting.

    Counts are integers when sampled; fractional counts are accepted so exact
    outcome probabilities can be fed to the estimator directly.  Booleans are
    not counts, and a NaN count or NaN shots fail the sum check.
    """

    setting: MeasurementSetting
    counts: tuple
    shots: float

    def __post_init__(self):
        if not _BOOLEANS.isdisjoint(map(type, (*self.counts, self.shots))):
            raise ValueError("counts and shots must be numbers, not booleans")
        counts = tuple(map(float, self.counts))
        if len(counts) != 4:
            raise ValueError("expected 4 outcome counts")
        if min(counts) < 0:
            raise ValueError("counts must be nonnegative")
        total = sum(counts)
        if not abs(total - self.shots) <= 1e-6:
            raise ValueError(f"counts sum {total} != shots {self.shots}")
        object.__setattr__(self, "counts", counts)

    def frequencies(self) -> np.ndarray:
        if self.shots <= 0:
            raise ValueError("record has zero shots")
        return np.array(self.counts) / self.shots


def _with_dark_noise(rho: DensityMatrix, snr: float | None) -> DensityMatrix:
    return rho if snr is None or math.isinf(snr) else dark_noise_admixture(rho, snr)


def born_probabilities(rho: DensityMatrix, setting: MeasurementSetting,
                       snr: float | None = None) -> np.ndarray:
    """Outcome probabilities, optionally after the dark-noise admixture."""
    state = _with_dark_noise(rho, snr)
    p = np.real(np.einsum("nij,ji->n", setting_projectors(setting), state.matrix))
    p = np.clip(p, 0.0, None)
    return p / p.sum()


def simulate_tomography(rho: DensityMatrix, shots_per_setting, snr: float | None,
                        rng_seed) -> list[CountRecord]:
    """Counts for the full 9-setting grid.

    ``shots_per_setting`` is an int applied to every setting or a mapping from
    (ion_axis, photon_axis) to shots.  The dark-noise admixture is applied
    once, all 36 outcome probabilities come from one contraction and all 9
    settings from one multinomial call; the draws match one multinomial draw
    per setting, over its born_probabilities, on the same generator.
    """
    if isinstance(shots_per_setting, dict):
        shots = [shots_per_setting[(s.ion_axis, s.photon_axis)] for s in _SETTINGS]
    else:
        shots = [int(shots_per_setting)] * len(_SETTINGS)
    if min(shots) <= 0:
        raise ValueError("shots must be positive")
    rng = as_rng(rng_seed)
    state = _with_dark_noise(rho, snr)
    p = np.clip(np.real(np.einsum("snij,ji->sn", _GRID, state.matrix)), 0.0, None)
    counts = rng.multinomial(shots, p / p.sum(axis=1, keepdims=True))
    return [CountRecord(setting=s, counts=tuple(row), shots=n)
            for s, row, n in zip(_SETTINGS, counts.tolist(), shots)]


def split_heralds(total: int, n_settings: int = 9) -> list[int]:
    """Divide a herald budget as evenly as possible across settings."""
    base, extra = divmod(int(total), n_settings)
    return [base + (1 if i < extra else 0) for i in range(n_settings)]


# ---------------------------------------------------------------------------
# maximum-likelihood reconstruction

_SETTING_INDEX = {(s.ion_axis, s.photon_axis): k for k, s in enumerate(_SETTINGS)}
# Design matrix of the grid: row 4 k + o holds outcome o of setting k, laid
# out so that (_DESIGN @ rho.ravel()).real are the 36 outcome probabilities
# (tr(P rho) = sum_ij P_ji rho_ij).
_DESIGN = _GRID.transpose(0, 1, 3, 2).reshape(36, 16)
_DESIGN_PINV = np.linalg.pinv(_DESIGN)
# A lower-triangular T as 16 reals: the real parts of the entries on and below
# the diagonal, then the imaginary parts of those below it (flat indices).
_LOWER = np.ravel_multi_index(np.tril_indices(4), (4, 4))
_STRICT = np.ravel_multi_index(np.tril_indices(4, -1), (4, 4))
# Eigenvalue floor of the linear-inversion start, which keeps T at full rank.
_START_FLOOR = 1e-4
# Largest accepted final gradient norm of the log-likelihood per count, taken
# at tr(T T^dag) = 1.  Converged fits end at or below _STEP_TOL = 1e-9.
GRADIENT_TOL = 1e-5


def _grid_counts(records: list[CountRecord]) -> tuple[np.ndarray, np.ndarray]:
    """Counts (9, 4) and shots (9,) in all_settings() order; repeated
    settings add up."""
    index = [_SETTING_INDEX[(r.setting.ion_axis, r.setting.photon_axis)] for r in records]
    seen = set(index)
    if len(seen) < 9:
        missing = [key for key, k in _SETTING_INDEX.items() if k not in seen]
        raise ValueError(f"missing settings: {missing}")
    record_shots = [r.shots for r in records]
    if not min(record_shots) > 0:
        raise ValueError("every record needs positive shots")
    # np.add.at adds the records in order, as a loop of += would
    counts, shots = np.zeros((9, 4)), np.zeros(9)
    np.add.at(counts, index, [r.counts for r in records])
    np.add.at(shots, index, record_shots)
    return counts, shots


def _pack_lower(t: np.ndarray) -> np.ndarray:
    flat = t.ravel()
    return np.concatenate((flat[_LOWER].real, flat[_STRICT].imag))


def _unpack_lower(x: np.ndarray) -> np.ndarray:
    t = np.zeros(16, dtype=complex)
    t[_LOWER] = x[:10]
    t[_STRICT] += 1j * x[10:]
    return t.reshape(4, 4)


def _quadratic_forms() -> np.ndarray:
    """M (36, 16, 16), real symmetric, with x^T M_n x = tr(Pi_n T T^dag)."""
    basis = np.array([_unpack_lower(e) for e in np.eye(16)])
    products = np.einsum("aij,bkj->abik", basis, basis.conj()).reshape(16, 16, 16)
    return np.ascontiguousarray(np.einsum("nk,abk->nab", _DESIGN, products).real)


_FORMS = _quadratic_forms()
# 2 M_n as (36, 256): the Hessian's form term in one product.
_TWICE_FORMS_FLAT = 2 * _FORMS.reshape(36, 256)
# The same forms as one (576, 16) matrix: M x for all n in one product.
_FORMS_STACKED = _FORMS.reshape(576, 16)
# Newton steps before the fit gives up; sampled counts converge in ~7.
MAX_STEPS = 200
# Stop once the gradient norm per count falls to this.
_STEP_TOL = 1e-9
# Relative rounding error of the objective, a sum of 36 terms.
_ROUNDING = 1e-14


def _evaluate(x: np.ndarray, weights: np.ndarray):
    """At x rescaled to unit norm: x, M x (36, 16), the outcome probabilities
    p_n = x^T M_n x, the ratios w_n / p_n, the objective -sum_n w_n log p_n
    and its gradient."""
    x = x / math.sqrt(x @ x)
    mx = (_FORMS_STACKED @ x).reshape(36, 16)
    probs = np.maximum(mx @ x, 1e-300)
    ratio = weights / probs
    return x, mx, probs, ratio, -float(weights @ np.log(probs)), 2 * (x - ratio @ mx)


def _backtrack(x: np.ndarray, step: np.ndarray, slope: float, value: float,
               weights: np.ndarray):
    """Armijo backtracking: _evaluate at the first of x + step, x + step / 2,
    ... whose objective lies below ``value`` by 1e-4 of the decrease the
    slope predicts, or None.  Near the optimum a Newton step changes the
    objective by less than its rounding error, so a step that raises it by
    no more than _ROUNDING of its value is taken."""
    alpha, trial_step = 1.0, step
    while alpha >= 1e-10:
        trial = _evaluate(x + trial_step, weights)
        if trial[4] <= value + 1e-4 * alpha * slope + _ROUNDING * value:
            return trial
        alpha /= 2
        trial_step = alpha * step
    return None


def _start(rho: np.ndarray) -> np.ndarray:
    """Packed Cholesky factor of rho with its eigenvalues floored at
    _START_FLOOR, which keeps T at full rank, and rescaled to unit sum."""
    w, v = np.linalg.eigh((rho + rho.conj().T) / 2)
    w = np.maximum(w, _START_FLOOR)
    return _pack_lower(np.linalg.cholesky((v * (w / w.sum())) @ v.conj().T))


# The Newton step calls numpy.linalg's own Cholesky and LU-solve kernels
# without the public wrappers, whose argument checks and error-state set-up
# cost ~3 us a call, a tenth of a step; the results are the same bits.
def _cholesky_fails(a: np.ndarray) -> bool:
    """Whether np.linalg.cholesky(a) would raise LinAlgError for a real
    symmetric ``a``: the kernel then fills its result with NaN and raises the
    invalid flag."""
    with np.errstate(invalid="ignore"):
        return math.isnan(_umath_linalg.cholesky_lo(a, signature="d->d")[-1, -1])


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.linalg.solve(a, b) for a real nonsingular a and a vector b."""
    return _umath_linalg.solve1(a, b, signature="dd->d")


def _newton(x: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, float]:
    """Up to MAX_STEPS damped Newton steps on the unit sphere from x: the
    unit-norm end point and its gradient norm per count."""
    x, mx, probs, ratio, value, grad = _evaluate(x, weights)
    for _ in range(MAX_STEPS):
        grad_norm = math.sqrt(grad @ grad)
        if not grad_norm > _STEP_TOL:
            break
        # Hessian of f at |x| = 1, with r_n = w_n / p_n,
        # H = 4 sum_n (r_n / p_n) (M_n x)(M_n x)^T - 4 x x^T - 2 sum_n r_n M_n + 2 I.
        # f is scale invariant, so H x = -g and x^T g = 0; the tangent-space
        # Hessian P H P (P = I - x x^T) with a unit weight on x is
        # H_t = H + x g^T + g x^T + x x^T, whose x x^T terms sum to -3 x x^T.
        # Summed in place, term by term in that order.
        hess = (mx.T * (4 * ratio / probs)) @ mx
        hess -= (ratio @ _TWICE_FORMS_FLAT).reshape(16, 16)
        hess += x[:, None] * (grad - 3 * x)
        hess += grad[:, None] * x
        diagonal = hess.reshape(256)[::17]
        diagonal += 2.0
        damping = 0.1 * grad_norm
        if _cholesky_fails(hess):
            lam, vec = np.linalg.eigh(hess)
            step = -vec @ ((vec.T @ grad) / (np.abs(lam) + damping))
        else:
            diagonal += damping
            step = _solve(hess, -grad)
        trial = _backtrack(x, step, grad @ step, value, weights)
        if trial is None:
            break
        x, mx, probs, ratio, value, grad = trial
    return x, math.sqrt(grad @ grad)


def mle_reconstruct(records: list[CountRecord]) -> DensityMatrix:
    """Maximum-likelihood two-qubit state from the 9-setting counts.

    Maximizes the multinomial log-likelihood over
    rho = T T^dag / tr(T T^dag), T lower-triangular and packed as 16 reals x
    (James et al., PRA 64, 052312, 2001).  Each outcome probability is a
    quadratic form x^T M_n x / x^T x, so with weights w_n = counts / total
    the objective f = -sum_n w_n log(x^T M_n x) + log(x^T x) has a
    closed-form gradient g and Hessian H.  f does not change when x is
    rescaled, so H x = -g and H has a negative eigenvalue at every point
    short of the optimum; the steps therefore run on the unit sphere
    (Absil, Mahony & Sepulchre, 2008).  From the linear-inversion start,
    with its eigenvalues clipped to a small floor, each step is a damped
    Newton step on the tangent space, with the Hessian
    H_t = P H P + x x^T (P = I - x x^T): d = -(H_t + 0.1 |g| I)^-1 g when a
    Cholesky factorization shows H_t positive definite (most steps), and
    otherwise the saddle-free step d = -V diag(1 / (|lambda| + 0.1 |g|)) V^T g
    over the eigenpairs of H_t.  Armijo backtracking shortens the step, and
    x is rescaled to unit norm, which leaves f unchanged.  A diagonal entry
    of T that heads for 0 while the optimum has full rank can stall the
    steps, which then crawl for MAX_STEPS and may stop either side of
    ``GRADIENT_TOL``; a first pass that stops short of convergence (above
    _STEP_TOL) therefore starts once more from its own state, with the
    eigenvalues floored again.  Raises NonConvergenceError when the result
    is not finite or its final gradient norm per count still exceeds
    ``GRADIENT_TOL``.
    """
    counts, shots = _grid_counts(records)
    weights = counts.ravel() / counts.sum()
    rho = (_DESIGN_PINV @ (counts / shots[:, None]).ravel()).reshape(4, 4)
    x, grad_norm = _newton(_start(rho), weights)
    if grad_norm > _STEP_TOL:
        t = _unpack_lower(x)
        x, grad_norm = _newton(_start(t @ t.conj().T), weights)
    if not grad_norm <= GRADIENT_TOL:  # also catches a non-finite result
        raise NonConvergenceError(
            f"MLE stopped at gradient norm {grad_norm:.3e} per count "
            f"(limit {GRADIENT_TOL:g})", grad_norm)
    t = _unpack_lower(x)
    return DensityMatrix(t @ t.conj().T)


def records_from_probabilities(rho: DensityMatrix, shots: float = 1.0,
                               snr: float | None = None) -> list[CountRecord]:
    """Exact-probability records (fractional counts), for estimator oracles."""
    out = []
    for setting in all_settings():
        p = born_probabilities(rho, setting, snr)
        out.append(CountRecord(setting=setting, counts=tuple(p * shots), shots=shots))
    return out


def records_to_csv(records: list[CountRecord]) -> str:
    """CSV export: setting_ion, setting_photon, n_pp, n_pm, n_mp, n_mm."""
    return "setting_ion,setting_photon,n_pp,n_pm,n_mp,n_mm\n" + "".join([
        "%s,%s,%.15g,%.15g,%.15g,%.15g\n" % (r.setting.ion_axis, r.setting.photon_axis, *r.counts)
        for r in records])


# ---------------------------------------------------------------------------
# CHSH


EIGVAL_TOL = 1e-9


@dataclass(frozen=True)
class ChshSettings:
    """Four dichotomic observables; each must have eigenvalues +-1."""

    a0: Observable
    a1: Observable
    b0: Observable
    b1: Observable

    def __post_init__(self):
        for name in ("a0", "a1", "b0", "b1"):
            obs = getattr(self, name)
            if obs.dim != 2:
                raise StateError(f"{name} must be a single-qubit observable")
            evals = np.linalg.eigvalsh(obs.matrix)
            if np.max(np.abs(np.abs(evals) - 1.0)) > EIGVAL_TOL:
                raise StateError(f"{name} eigenvalues {evals} are not +-1")

    @classmethod
    def from_angles(cls, a0: float, a1: float, b0: float, b1: float) -> "ChshSettings":
        """Observables cos(theta) Z + sin(theta) X at the given angles."""
        def obs(theta):
            return Observable(math.cos(theta) * Z + math.sin(theta) * X)
        return cls(obs(a0), obs(a1), obs(b0), obs(b1))

    @classmethod
    def optimal(cls) -> "ChshSettings":
        """Tsirelson-optimal angles for the phase-zero entangled state."""
        return cls.from_angles(0.0, math.pi / 2, math.pi / 4, -math.pi / 4)

    def pairs(self):
        return ((self.a0, self.b0, +1), (self.a0, self.b1, +1),
                (self.a1, self.b0, +1), (self.a1, self.b1, -1))


def chsh(rho: DensityMatrix, s: ChshSettings) -> float:
    """S = <A0 B0> + <A0 B1> + <A1 B0> - <A1 B1>."""
    total = 0.0
    for a, b, sign in s.pairs():
        joint = Observable(kron(a.matrix, b.matrix))
        total += sign * expectation(rho, joint)
    return total


def simulate_chsh(rho: DensityMatrix, s: ChshSettings, shots_total: int,
                  snr: float | None, rng_seed) -> tuple[float, float]:
    """Sampled CHSH value and its standard error, shots split over 4 settings.

    Outcome 2 i + j of a setting (A, B) projects on column 2 i + j of
    kron(va, vb), va[:, i] (x) vb[:, j], and has value sign(wa_i) sign(wb_j).
    """
    rng = as_rng(rng_seed)
    shots_each = split_heralds(shots_total, 4)
    state = _with_dark_noise(rho, snr).matrix
    eigen = {id(o): np.linalg.eigh(o.matrix) for o in (s.a0, s.a1, s.b0, s.b1)}  # once each
    total, var = 0.0, 0.0
    for (a, b, sign), shots in zip(s.pairs(), shots_each):
        if shots <= 0:
            raise ValueError("need at least one shot per CHSH setting")
        (wa, va), (wb, vb) = eigen[id(a)], eigen[id(b)]
        u = kron(va, vb)
        probs = np.clip(np.einsum("ij,ik,kj->j", u.conj(), state, u).real, 0, None)
        counts = rng.multinomial(shots, probs / probs.sum())
        e = float(counts @ np.outer(np.sign(wa), np.sign(wb)).ravel()) / shots
        total += sign * e
        var += (1 - e * e) / shots
    return total, math.sqrt(var)


# ---------------------------------------------------------------------------
# bootstrap


def bootstrap_uncertainty(records: list[CountRecord], n_resamples: int,
                          statistic: str, rng_seed,
                          chsh_settings: ChshSettings | None = None) -> tuple[float, float]:
    """Multinomial-resampling error bar for a tomography statistic.

    ``statistic`` is "fidelity" (against the phase-zero target) or "chsh"
    (at the given or optimal settings).  Returns (mean, sample stddev) over
    the resampled estimates; deterministic per seed.
    """
    if n_resamples < 100:
        raise ValueError("need at least 100 resamples")
    if statistic not in ("fidelity", "chsh"):
        raise ValueError(f"unknown statistic {statistic!r}")
    if any(r.shots <= 0 for r in records):
        raise ValueError("degenerate record with zero shots")
    settings = chsh_settings or ChshSettings.optimal()
    target = bell_state(0.0)
    rng = as_rng(rng_seed)
    shots = [int(round(r.shots)) for r in records]
    freqs = np.array([r.frequencies() for r in records])
    estimates = np.empty(n_resamples)
    for i in range(n_resamples):
        draws = rng.multinomial(shots, freqs)  # row k as one call for record k draws it
        rho = mle_reconstruct([CountRecord(r.setting, tuple(row), n)
                               for r, row, n in zip(records, draws.tolist(), shots)])
        if statistic == "fidelity":
            estimates[i] = fidelity(rho, target)
        else:
            estimates[i] = chsh(rho, settings)
    return float(estimates.mean()), float(estimates.std(ddof=1))
