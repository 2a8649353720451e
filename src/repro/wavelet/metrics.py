"""Aggregate error measures for wavelet synopses (Eqs. 1-3 of the paper).

All metrics compare a reconstructed (approximate) vector against the
original data:

* :func:`l2_error` — root-mean-squared error (Eq. 1);
* :func:`max_abs_error` — maximum absolute error (Eq. 2), the target of
  GreedyAbs / IndirectHaar and their distributed versions;
* :func:`max_rel_error` — maximum relative error with a sanity bound ``S``
  (Eq. 3), the target of GreedyRel.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.typing import ArrayLike, NDArray

from repro.exceptions import InvalidInputError

__all__ = [
    "DEFAULT_SANITY_BOUND",
    "check_sanity_bound",
    "signed_errors",
    "l2_error",
    "max_abs_error",
    "max_rel_error",
]

#: Default sanity bound for the relative error metric.  The paper requires
#: ``S > 0`` to prevent tiny data values from dominating the metric.
DEFAULT_SANITY_BOUND = 1.0


def check_sanity_bound(sanity_bound: float) -> None:
    """Reject a sanity bound ``S`` that is not finite and strictly positive."""
    if not (math.isfinite(sanity_bound) and sanity_bound > 0):
        raise InvalidInputError("the sanity bound S must be finite and strictly positive")


def _as_pair(
    data: ArrayLike, approximation: ArrayLike
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    original = np.asarray(data, dtype=np.float64)
    approx = np.asarray(approximation, dtype=np.float64)
    if original.shape != approx.shape:
        raise InvalidInputError(
            f"shape mismatch: data {original.shape} vs approximation {approx.shape}"
        )
    if original.ndim != 1:
        raise InvalidInputError("metrics are defined over one-dimensional vectors")
    return original, approx


def signed_errors(data: ArrayLike, approximation: ArrayLike) -> NDArray[np.float64]:
    """Return the signed accumulated errors ``err_i = d_hat_i - d_i``."""
    original, approx = _as_pair(data, approximation)
    return approx - original


def l2_error(data: ArrayLike, approximation: ArrayLike) -> float:
    """Root-mean-squared reconstruction error (Eq. 1)."""
    original, approx = _as_pair(data, approximation)
    return float(np.sqrt(np.mean((approx - original) ** 2)))


def max_abs_error(data: ArrayLike, approximation: ArrayLike) -> float:
    """Maximum absolute reconstruction error (Eq. 2)."""
    original, approx = _as_pair(data, approximation)
    return float(np.max(np.abs(approx - original)))


def max_rel_error(
    data: ArrayLike, approximation: ArrayLike, sanity_bound: float = DEFAULT_SANITY_BOUND
) -> float:
    """Maximum relative reconstruction error with sanity bound ``S`` (Eq. 3).

    Each value's absolute error is divided by ``max(|d_i|, S)``; ``S`` must
    be finite and strictly positive.
    """
    check_sanity_bound(sanity_bound)
    original, approx = _as_pair(data, approximation)
    denominators = np.maximum(np.abs(original), sanity_bound)
    return float(np.max(np.abs(approx - original) / denominators))
