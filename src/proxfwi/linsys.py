"""Sparse direct solves and spectral norms.

Desk-scale 2D systems factor in well under a second, so a direct sparse LU
(SuperLU) is the only solve path, and :func:`factorize` is the package's one
entry point to it; a factorization is reused across the many right-hand sides
of multi-source modeling.  Every matrix the package factors is complex and
structurally symmetric: the complex-symmetric 5-point Helmholtz operator A
and the Hermitian positive-definite WRI normal matrix A^H A + mu^2 P^T P.
SuperLU therefore runs in symmetric mode: a multiple-minimum-degree ordering
of A + A^T applied to rows and columns alike, and a diagonal pivot threshold
of 0.01 (``DIAG_PIVOT_THRESH``) that keeps the diagonal as pivot, and with it
the fill the symmetric ordering planned for, unless an entry below it is 100
times larger.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import FactorizationError

# keep the diagonal pivot unless it is below 1 % of its column's largest entry:
# 0.1 more than tripled fill on unphysical (m < 0) models, 0.0 lost residual digits
DIAG_PIVOT_THRESH = 0.01


class Factorization:
    """Opaque LU handle tied to one matrix; reusable across right-hand sides."""

    def __init__(self, lu, n: int):
        self._lu = lu
        self.n = n

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve for a vector or a column block, in complex128."""
        rhs = np.asarray(rhs)
        if rhs.shape[0] != self.n:
            raise ValueError(f"rhs has {rhs.shape[0]} rows, matrix dimension is {self.n}")
        return self._lu.solve(rhs.astype(np.complex128, casting="safe", copy=False))


def factorize(a) -> Factorization:
    """LU-factorize a square, structurally symmetric sparse matrix.

    The factor is always complex128.  The columns are ordered by multiple
    minimum degree on the pattern of A + A^T and SuperLU's symmetric mode
    applies the same order to the rows, pivoting off the diagonal only when
    it is below ``DIAG_PIVOT_THRESH`` (0.01) times its column's largest entry.
    The matrix must be structurally symmetric for this to pay off, as the
    Helmholtz operator and the WRI normal matrix are; on them it gives far
    less fill than SuperLU's default unsymmetric COLAMD ordering with full
    partial pivoting.
    """
    a = sp.csc_matrix(a, dtype=np.complex128)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix is {a.shape[0]}x{a.shape[1]}, expected square")
    try:
        lu = spla.splu(
            a,
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=DIAG_PIVOT_THRESH,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:  # SuperLU reports the offending pivot in its message
        raise FactorizationError(f"sparse LU failed: {exc}") from exc
    return Factorization(lu, a.shape[0])


class SpectralEstimate(NamedTuple):
    value: float
    iterations: int
    converged: bool


def spectral_norm(
    apply: Callable[[np.ndarray], np.ndarray],
    n: int,
    tol: float = 1e-4,
    max_iter: int = 500,
    apply_adjoint: Callable[[np.ndarray], np.ndarray] | None = None,
    seed: int = 0,
) -> SpectralEstimate:
    """Largest singular value of a linear map, by seeded power iteration.

    Without ``apply_adjoint`` the map is assumed self-adjoint and the dominant
    |eigenvalue| is returned; with it, the iteration runs on the normal map
    and returns the true spectral norm.  The fixed seed makes runs
    reproducible; if the estimate has not settled to ``tol`` within
    ``max_iter`` iterations the best value is returned flagged unconverged.
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    sigma_prev = 0.0
    for it in range(1, max_iter + 1):
        w = np.asarray(apply(v))
        if apply_adjoint is not None:
            w = np.asarray(apply_adjoint(w))
        norm_w = np.linalg.norm(w)
        if norm_w == 0.0:
            return SpectralEstimate(0.0, it, True)
        rayleigh = np.vdot(v, w) / np.vdot(v, v)
        sigma = float(np.sqrt(abs(rayleigh))) if apply_adjoint is not None else float(abs(rayleigh))
        v = w / norm_w
        if it > 1 and abs(sigma - sigma_prev) <= tol * max(sigma, 1e-300):
            return SpectralEstimate(sigma, it, True)
        sigma_prev = sigma
    return SpectralEstimate(sigma_prev, max_iter, False)
