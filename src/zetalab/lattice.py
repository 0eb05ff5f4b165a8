"""Quadratic-form plumbing: Gram matrices, enumeration, points of the half plane.

A Gram matrix is a real symmetric positive-definite r x r numpy array
(2 <= r <= 6) representing Q[v] = v Q v^T on Z^r.  Upper-half-plane points
are plain python complex numbers with positive imaginary part.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "EnumerationCapError",
    "NotPositiveDefiniteError",
    "cholesky",
    "enumerate_vectors",
    "gram_of_point",
    "normalize_det",
    "quadratic_values",
    "validate_gram",
]

MAX_DIM = 6
ENUM_CAP = 10_000_000


class NotPositiveDefiniteError(ValueError):
    """Cholesky failed: the matrix is not positive-definite."""


class EnumerationCapError(RuntimeError):
    """Short-vector enumeration exceeded the configured cap."""


def as_point(z) -> complex:
    """z as a complex number; raises unless Im z > 0."""
    w = complex(z)
    if not w.imag > 0:
        raise ValueError("point must lie in the upper half plane")
    return w


def _factor(Q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Check a Gram matrix; return it symmetrized with its Cholesky factor."""
    Q = np.asarray(Q, dtype=float)
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        raise ValueError("Gram matrix must be square")
    r = Q.shape[0]
    if not 2 <= r <= MAX_DIM:
        raise ValueError(f"dimension must be in [2, {MAX_DIM}]")
    if not np.isfinite(Q).all():
        raise ValueError("Gram matrix entries must be finite")
    if np.max(np.abs(Q - Q.T)) > 1e-12 * max(1.0, np.max(np.abs(Q))):
        raise ValueError("Gram matrix must be symmetric")
    Q = 0.5 * (Q + Q.T)
    try:
        return Q, np.linalg.cholesky(Q)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(str(exc)) from exc


def validate_gram(Q: np.ndarray) -> np.ndarray:
    """The symmetrized Gram matrix; raises unless it is a valid SPD form."""
    return _factor(Q)[0]


def cholesky(Q: np.ndarray) -> np.ndarray:
    """Lower-triangular L with L L^T = Q; raises if not positive-definite."""
    return _factor(Q)[1]


def normalize_det(Q: np.ndarray) -> tuple[np.ndarray, float]:
    """Return (Q / det^{1/r}, det^{1/r}); the first factor has det 1."""
    Q = validate_gram(Q)
    r = Q.shape[0]
    scale = float(np.linalg.det(Q)) ** (1.0 / r)
    return Q / scale, scale


def quadratic_values(Q: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Q[v] for each row v of an integer matrix."""
    V = np.asarray(vectors, dtype=float)
    return np.einsum("ij,jk,ik->i", V, np.asarray(Q, dtype=float), V)


def enumerate_vectors(Q: np.ndarray, R: float) -> np.ndarray:
    """All v in Z^r \\ {0} with Q[v] <= R (Fincke-Pohst on the Cholesky factor).

    Level by level from coordinate r-1 down, in arrays.  The result is sorted
    lexicographically, in +/- pairs.  A level of more than ``ENUM_CAP``
    candidates (zero and points just beyond R included) raises before it is built.
    """
    if not 0 < R < np.inf:
        raise ValueError("R must be positive and finite")
    U = cholesky(Q).T  # Q[v] = ||U v||^2
    r = U.shape[0]
    # a row per partial vector: coordinates, partial[k, i] = sum_{j>level} U[i, j] v_j, budget
    coords = np.zeros((1, r), dtype=int)
    partial = np.zeros((1, r))
    budget = np.array([float(R) * (1 + 1e-12)])
    for level in range(r - 1, -1, -1):
        uii = U[level, level]
        center = -partial[:, level] / uii
        half = np.sqrt(np.maximum(budget, 0.0)) / uii
        lo = np.ceil(center - half - 1e-12)
        count = np.floor(center + half + 1e-12) - lo + 1  # >= 0: rounding is monotone
        if count.sum() > ENUM_CAP:
            raise EnumerationCapError(f"more than {ENUM_CAP} candidates at R={R}")
        row = np.arange(count.size).repeat(count.astype(int))
        n = lo[row] - (count.cumsum() - count)[row] + np.arange(row.size)
        rem = budget[row] - (uii * n + partial[row, level]) ** 2
        keep = rem >= -1e-12
        row, n, budget = row[keep], n[keep], rem[keep]
        coords = coords[row]
        coords[:, level] = n
        partial = partial[row, :level] + U[:level, level] * n[:, None]
    vs = coords[coords.any(axis=1)]
    return vs[np.lexsort(vs.T[::-1])]


def apply_mobius(gamma: np.ndarray, z) -> complex:
    (a, b), (c, d) = np.asarray(gamma)
    w = as_point(z)
    return (a * w + b) / (c * w + d)


def gram_of_point(z) -> np.ndarray:
    """The det-1 binary form with Q[(m, n)] = |m z + n|^2 / y."""
    w = as_point(z)
    x, y = w.real, w.imag
    return np.array([[(x * x + y * y) / y, x / y], [x / y, 1.0 / y]])


def point_of_gram(Q: np.ndarray) -> complex:
    """Inverse of gram_of_point for a det-1 binary form."""
    Qn, _ = normalize_det(Q)
    if Qn.shape[0] != 2:
        raise ValueError("point_of_gram needs a binary form")
    y = 1.0 / Qn[1, 1]
    x = Qn[0, 1] / Qn[1, 1]
    return complex(x, y)
