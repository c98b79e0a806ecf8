"""Projective measurement simulation, maximum-likelihood state reconstruction,
CHSH evaluation and bootstrap error bars.

Measurements run on the 3x3 grid of mutually unbiased bases (Z, X, Y per
qubit), which is tomographically complete for two qubits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import linalg, rules
from .photon import dark_noise_admixture
from .qstate import (
    PAULIS,
    PAULIS_2Q,
    DensityMatrix,
    Observable,
    StateError,
    X,
    Z,
    _read_only,
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
_SETTINGS_LIST = list(_SETTINGS)


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


# Shots at or below this sum as floats without rounding, counts included.
_EXACT_SHOTS = 2 ** 53


def _sampled_records(settings, rows: list, shots: list) -> list[CountRecord]:
    """A CountRecord per setting of multinomial rows (lists of ints) drawn with
    ``shots``.  Where every shot value is an int up to _EXACT_SHOTS the rows
    are whole, nonnegative and sum to their shots exactly in floats, so no
    check of the constructor could fail, and none runs; the counts are
    stored as floats all the same."""
    if not all(type(n) is int and n <= _EXACT_SHOTS for n in shots):
        return [CountRecord(s, tuple(row), n) for s, row, n in zip(settings, rows, shots)]
    records = []
    for s, row, n in zip(settings, rows, shots):
        record = object.__new__(CountRecord)
        object.__setattr__(record, "setting", s)
        object.__setattr__(record, "counts", tuple(map(float, row)))
        object.__setattr__(record, "shots", n)
        records.append(record)
    return records


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
    return _sampled_records(_SETTINGS, counts.tolist(), shots)


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
# The same grid in Pauli coordinates, A[n, k] = tr(Pi_n P_k) / 4: for
# rho = sum_k r_k P_k / 4 (r_k = tr(rho P_k)), A r are the outcome
# probabilities.
_PAULI_DESIGN = np.einsum("nij,kji->nk", _GRID.reshape(36, 4, 4), PAULIS_2Q).real / 4
_PAULIS_FLAT = PAULIS_2Q.reshape(16, 16)
# A lower-triangular T as 16 reals: the real parts of the entries on and below
# the diagonal, then the imaginary parts of those below it (flat indices).
_LOWER = np.ravel_multi_index(np.tril_indices(4), (4, 4))
_STRICT = np.ravel_multi_index(np.tril_indices(4, -1), (4, 4))
# Eigenvalue floor of the least-squares start, which keeps T at full rank
# and a rank-deficient optimum's start next to it.
_START_FLOOR = 1e-8
_FLOOR_EYE = _START_FLOOR * np.eye(4)
# Largest accepted final gradient norm of the log-likelihood per count, taken
# at tr(T T^dag) = 1.  Converged fits end at or below _STEP_TOL = 1e-9.
GRADIENT_TOL = 1e-5


def _grid_counts(records: list[CountRecord]) -> tuple[np.ndarray, np.ndarray]:
    """Counts (9, 4) and shots (9,) in all_settings() order; repeated
    settings add up."""
    record_shots = [r.shots for r in records]
    # records once each in all_settings() order, as simulate_tomography
    # returns them, are the table's rows
    in_order = [r.setting for r in records] == _SETTINGS_LIST
    if not in_order:
        index = [_SETTING_INDEX[(r.setting.ion_axis, r.setting.photon_axis)] for r in records]
        seen = set(index)
        if len(seen) < 9:
            missing = [key for key, k in _SETTING_INDEX.items() if k not in seen]
            raise ValueError(f"missing settings: {missing}")
    if not min(record_shots) > 0:
        raise ValueError("every record needs positive shots")
    if in_order:
        # + 0.0 turns a -0.0 count into 0.0, as adding it into zeros does
        return (np.array([r.counts for r in records]) + 0.0,
                np.array(record_shots, dtype=float))
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
# Newton steps before the fit gives up; sampled counts converge in 1-6.
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


def _weighted_fit(freqs: np.ndarray, shots: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Pauli vector r that minimizes sum_n w_n ((A r)_n - f_n)^2 over the
    frequencies f (9, 4), with w_n = n_s / max(p_n, 1 / (2 n_s)) for the
    setting's shots n_s (9, 1) and the probabilities p (9, 4): the solution
    of the 16 x 16 normal equations (A^T W A) r = A^T W f."""
    aw = _PAULI_DESIGN.T * (shots / np.maximum(probs, 0.5 / shots)).ravel()
    return linalg.solve(aw @ _PAULI_DESIGN, aw @ freqs.ravel())


def _least_squares_state(counts: np.ndarray, shots: np.ndarray) -> np.ndarray:
    """The Gaussian approximation's estimate of the state behind the counts:
    Neyman's minimum chi^2 (weights from the frequencies f), refined once
    with Pearson's (weights from the first pass's probabilities A r_1), as
    sum_k r_k P_k / (4 r_0), Hermitian with unit trace but not always
    positive."""
    n = shots[:, None]
    freqs = counts / n
    r = _weighted_fit(freqs, n, freqs)
    r = _weighted_fit(freqs, n, (_PAULI_DESIGN @ r).reshape(9, 4))
    return (r @ _PAULIS_FLAT).reshape(4, 4) / (4 * r[0])


def _start(rho: np.ndarray) -> np.ndarray:
    """Packed Cholesky factor of rho with its eigenvalues floored at
    _START_FLOOR, which keeps T at full rank, and rescaled to unit sum.
    Where the floor binds no eigenvalue (rho - _START_FLOOR I has a Cholesky
    factor), that is the factor of rho / tr rho, found without eigenvalues."""
    h = (rho + rho.conj().T) / 2
    if linalg.cholesky(h - _FLOOR_EYE) is not None:
        return _pack_lower(linalg.cholesky(h / h.trace().real))
    w, v = linalg.eigh(h)
    w = np.maximum(w, _START_FLOOR)
    t = linalg.cholesky((v * (w / w.sum())) @ v.conj().T)
    if t is None:
        raise np.linalg.LinAlgError("Matrix is not positive definite")
    return _pack_lower(t)


def _cholesky_fails(a: np.ndarray) -> bool:
    """Whether np.linalg.cholesky(a) would raise LinAlgError for a real
    symmetric ``a``."""
    return linalg.cholesky(a) is None


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.linalg.solve(a, b) for a real nonsingular a and a vector b."""
    return linalg.solve(a, b)


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
            lam, vec = linalg.eigh(hess)
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
    (Absil, Mahony & Sepulchre, 2008).  They start from the likelihood's
    Gaussian approximation: a weighted least-squares fit of the Pauli
    expectations to the frequencies, with Neyman's weights and then once
    with Pearson's (Neyman, Proc. 1st Berkeley Symp., 239, 1949), its
    eigenvalues floored at _START_FLOOR = 1e-8 where one falls under it.  At
    low counts the optimum is most often rank-deficient, with a diagonal
    entry of T at 0 (Blume-Kohout, arXiv:1202.5270), and a start that close
    to the boundary lies next to it; on bright counts the start lies one
    step from the optimum.  Each step is a damped Newton step on the
    tangent space, with the Hessian
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
    ``GRADIENT_TOL``.  The converged x is finite with unit norm, so T T^dag
    is Hermitian with unit trace by construction; of the state checks only
    the eigenvalue check and its clip of rounding-level negatives run.
    """
    return _fit(*_grid_counts(records))


def _fit(counts: np.ndarray, shots: np.ndarray) -> DensityMatrix:
    """mle_reconstruct of the counts (9, 4) and shots (9,) of the grid, in
    all_settings() order."""
    weights = counts.ravel() / counts.sum()
    x, grad_norm = _newton(_start(_least_squares_state(counts, shots)), weights)
    if grad_norm > _STEP_TOL:
        t = _unpack_lower(x)
        x, grad_norm = _newton(_start(t @ t.conj().T), weights)
    if not grad_norm <= GRADIENT_TOL:  # also catches a non-finite result
        raise NonConvergenceError(
            f"MLE stopped at gradient norm {grad_norm:.3e} per count "
            f"(limit {GRADIENT_TOL:g})", grad_norm)
    # x is finite and of unit norm, so T T^dag is Hermitian with unit trace
    t = _unpack_lower(x)
    return DensityMatrix._built(t @ t.conj().T)


def records_from_probabilities(rho: DensityMatrix, shots: float = 1.0,
                               snr: float | None = None) -> list[CountRecord]:
    """Exact-probability records (fractional counts), for estimator oracles."""
    out = []
    for setting in all_settings():
        p = born_probabilities(rho, setting, snr)
        out.append(CountRecord(setting=setting, counts=tuple(p * shots), shots=shots))
    return out


# ---------------------------------------------------------------------------
# CHSH


EIGVAL_TOL = 1e-9


@dataclass(frozen=True)
class ChshSettings:
    """Four dichotomic observables; each must have eigenvalues +-1.

    What chsh() and simulate_chsh() read is built once, with the settings:
    per setting (A, B), in pairs() order, a ``ChshTerm``.
    """

    a0: Observable
    a1: Observable
    b0: Observable
    b1: Observable
    terms: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        eigen = {}
        for name in ("a0", "a1", "b0", "b1"):
            obs = getattr(self, name)
            if obs.dim != 2:
                raise StateError(f"{name} must be a single-qubit observable")
            evals = np.linalg.eigvalsh(obs.matrix)
            if np.max(np.abs(np.abs(evals) - 1.0)) > EIGVAL_TOL:
                raise StateError(f"{name} eigenvalues {evals} are not +-1")
            eigen[id(obs)] = np.linalg.eigh(obs.matrix)
        object.__setattr__(self, "terms", tuple(
            ChshTerm.of(a, b, sign, eigen[id(a)], eigen[id(b)]) for a, b, sign in self.pairs()))

    @classmethod
    def from_angles(cls, a0: float, a1: float, b0: float, b1: float) -> "ChshSettings":
        """Observables cos(theta) Z + sin(theta) X at the given angles."""
        def obs(theta):
            return Observable(math.cos(theta) * Z + math.sin(theta) * X)
        return cls(obs(a0), obs(a1), obs(b0), obs(b1))

    @classmethod
    def optimal(cls) -> "ChshSettings":
        """Tsirelson-optimal angles for the phase-zero entangled state (one
        shared settings object)."""
        return _OPTIMAL

    def pairs(self):
        return ((self.a0, self.b0, +1), (self.a0, self.b1, +1),
                (self.a1, self.b0, +1), (self.a1, self.b1, -1))


class ChshTerm(NamedTuple):
    """One setting (A, B) of a CHSH sum: the sign of its term, the joint
    observable A (x) B, and the table of product eigenvectors
    u = kron(va, vb) (read-only, with its conjugate) whose column 2 i + j,
    va[:, i] (x) vb[:, j], is the outcome of value sign(wa_i) sign(wb_j)."""

    sign: int
    joint: Observable
    eigenvectors: np.ndarray
    eigenvectors_conj: np.ndarray
    values: np.ndarray

    @classmethod
    def of(cls, a: Observable, b: Observable, sign: int, eigen_a, eigen_b) -> "ChshTerm":
        (wa, va), (wb, vb) = eigen_a, eigen_b
        u = kron(va, vb)
        return cls(sign, Observable(kron(a.matrix, b.matrix)), _read_only(u),
                   _read_only(u.conj()), _read_only(np.outer(np.sign(wa), np.sign(wb)).ravel()))


_OPTIMAL = ChshSettings.from_angles(0.0, math.pi / 2, math.pi / 4, -math.pi / 4)


def chsh(rho: DensityMatrix, s: ChshSettings) -> float:
    """S = <A0 B0> + <A0 B1> + <A1 B0> - <A1 B1>."""
    total = 0.0
    for term in s.terms:
        total += term.sign * expectation(rho, term.joint)
    return total


def simulate_chsh(rho: DensityMatrix, s: ChshSettings, shots_total: int,
                  snr: float | None, rng_seed) -> tuple[float, float]:
    """Sampled CHSH value and its standard error, shots split over 4 settings:
    one multinomial draw per setting, in order, over the outcome
    probabilities u_j^dag rho u_j (real parts, clipped at 0) of its ChshTerm.

    The counts depend on the last bit of an outcome probability wherever a
    conditional probability of the multinomial draw is 1/2, as on the Werner
    state the chsh scenario samples: numpy draws n - B(n, 1 - p) for p > 1/2,
    so probabilities one ulp apart can swap two counts (a sampled S of 1.816
    against 1.854 at seed 0).  A change to how the probabilities are summed
    can therefore move a sampled S."""
    rng = as_rng(rng_seed)
    shots_each = split_heralds(shots_total, 4)
    state = _with_dark_noise(rho, snr).matrix
    total, var = 0.0, 0.0
    for term, shots in zip(s.terms, shots_each):
        if shots <= 0:
            raise ValueError("need at least one shot per CHSH setting")
        probs = np.einsum("ij,ik,kj->j", term.eigenvectors_conj, state, term.eigenvectors)
        probs = np.clip(probs.real, 0, None)
        counts = rng.multinomial(shots, probs / probs.sum())
        e = float(counts @ term.values) / shots
        total += term.sign * e
        var += (1 - e * e) / shots
    return total, math.sqrt(var)


# ---------------------------------------------------------------------------
# bootstrap


# the least number of resamples a bootstrap takes
BOOTSTRAP_RESAMPLES = rules.integer_from(100)


def bootstrap_uncertainty(records: list[CountRecord], n_resamples: int,
                          statistic: str, rng_seed) -> tuple[float, float]:
    """Multinomial-resampling error bar for a tomography statistic.

    ``statistic`` is "fidelity", against the phase-zero target.  Every
    record's counts and shots must be whole numbers, as sampled ones are: a
    record of exact probabilities holds no sample to resample.  Returns
    (mean, sample stddev) over the resampled estimates; deterministic per
    seed.
    """
    rules.check("n_resamples", BOOTSTRAP_RESAMPLES, n_resamples)
    if statistic != "fidelity":
        raise ValueError(f"unknown statistic {statistic!r}")
    if any(r.shots <= 0 for r in records):
        raise ValueError("degenerate record with zero shots")
    for r in records:
        if not all(float(n).is_integer() for n in (*r.counts, r.shots)):
            raise ValueError(f"setting {r.setting.ion_axis}{r.setting.photon_axis}: the "
                             f"bootstrap resamples whole counts, got {r.counts} of "
                             f"{r.shots} shots")
    target = bell_state(0.0)
    rng = as_rng(rng_seed)
    shots = [int(r.shots) for r in records]
    settings = [r.setting for r in records]
    freqs = np.array([r.counts for r in records]) / np.array([r.shots for r in records])[:, None]
    estimates = np.empty(n_resamples)
    for i in range(n_resamples):
        draws = rng.multinomial(shots, freqs)  # row k as one call for record k draws it
        rho = mle_reconstruct(_sampled_records(settings, draws.tolist(), shots))
        estimates[i] = fidelity(rho, target)
    return float(estimates.mean()), float(estimates.std(ddof=1))
