"""Small dense complex/real matrix helpers used throughout the package.

Thin wrappers over ``numpy.linalg`` that pin down tolerances and raise
domain-specific errors: tolerance-based rank and Frobenius power accounting.
All functions are pure and operate on immutable inputs.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionError, ParameterError

RANK_TOL = 1e-9


def _as_matrix(m) -> np.ndarray:
    a = np.asarray(m)
    if a.ndim != 2:
        raise DimensionError(f"expected a 2-D matrix, got shape {a.shape}")
    return a


def check_tol(tol: float, what: str = "tolerance") -> None:
    """Raise ParameterError unless ``tol`` is finite and positive."""
    if not (math.isfinite(tol) and tol > 0):
        raise ParameterError(f"{what} must be finite and positive, got {tol}")


def rank(m, tol: float = RANK_TOL) -> int:
    """Numerical rank: number of singular values above ``tol`` times the largest.

    Singular values are used instead of Gaussian elimination so that nearly
    singular difference matrices are classified robustly.
    """
    check_tol(tol, "rank tolerance")
    a = _as_matrix(m)
    s = np.linalg.svd(a, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > tol * s[0]))


def frobenius_norm_sq(m) -> float:
    """Squared Frobenius norm, sum of squared entry magnitudes."""
    a = np.asarray(m)
    return float(np.sum(np.abs(a) ** 2))


def is_unitary(m, tol: float = 1e-9) -> bool:
    a = _as_matrix(m)
    if a.shape[0] != a.shape[1]:
        return False
    g = a.conj().T @ a
    return bool(np.linalg.norm(g - np.eye(a.shape[0])) <= tol)


def real_stack(v) -> np.ndarray:
    """Stack a complex vector as [Re(v); Im(v)]."""
    a = np.asarray(v)
    return np.concatenate([a.real, a.imag], axis=-1)
