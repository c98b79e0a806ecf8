"""numpy.linalg's own LAPACK kernels, called without the public wrappers.

The wrappers check their arguments and set up an error state on every call,
~3 us, a tenth of a Newton step of the MLE fit.  The kernels are gufuncs of
the private module numpy.linalg._umath_linalg; each is bound here, once, and
where numpy lacks the name the public call stands in, with the same results.
Where a wrapper raises LinAlgError its kernel instead fills the result with
NaN and raises the invalid flag; the functions here report that failure the
same way on either path.
"""

from __future__ import annotations

import math

import numpy as np

try:
    from numpy.linalg import _umath_linalg
except ImportError:  # pragma: no cover - a numpy without the module
    _umath_linalg = None

_cholesky_lo = getattr(_umath_linalg, "cholesky_lo", None)
_solve1 = getattr(_umath_linalg, "solve1", None)
_eigvalsh_lo = getattr(_umath_linalg, "eigvalsh_lo", None)
_eigh_lo = getattr(_umath_linalg, "eigh_lo", None)


def _nonconvergence(err, flag):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


def cholesky(a: np.ndarray) -> np.ndarray | None:
    """np.linalg.cholesky(a) for a real symmetric or complex Hermitian ``a``,
    or None where it would raise LinAlgError (``a`` not positive definite)."""
    if _cholesky_lo is None:
        try:
            return np.linalg.cholesky(a)
        except np.linalg.LinAlgError:
            return None
    with np.errstate(invalid="ignore"):
        factor = _cholesky_lo(a, signature="D->D" if a.dtype.kind == "c" else "d->d")
    return None if math.isnan(factor[-1, -1].real) else factor


def solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.linalg.solve(a, b) for a real nonsingular ``a`` and a vector ``b``."""
    if _solve1 is None:
        return np.linalg.solve(a, b)
    return _solve1(a, b, signature="dd->d")


def eigvalsh(m: np.ndarray) -> np.ndarray:
    """np.linalg.eigvalsh(m), ascending, for a complex Hermitian ``m``; all
    NaN where it would raise LinAlgError (the eigenvalues did not converge).
    Like the wrapper, it warns of no floating-point flag."""
    if _eigvalsh_lo is None:
        try:
            return np.linalg.eigvalsh(m)
        except np.linalg.LinAlgError:
            return np.full(m.shape[-1], math.nan)
    with np.errstate(all="ignore"):
        return _eigvalsh_lo(m, signature="D->d")


def eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.linalg.eigh(m): the ascending eigenvalues and the eigenvectors of a
    real symmetric or complex Hermitian ``m``, raising LinAlgError where the
    kernel raises the invalid flag (the eigenvalues did not converge), as the
    wrapper does."""
    if _eigh_lo is None:
        return np.linalg.eigh(m)
    with np.errstate(call=_nonconvergence, invalid="call", over="ignore", divide="ignore",
                     under="ignore"):
        return _eigh_lo(m, signature="D->dD" if m.dtype.kind == "c" else "d->dd")
