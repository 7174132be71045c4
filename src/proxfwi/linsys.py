"""Sparse direct solves and spectral norms.

Desk-scale 2D systems factor in well under a second, so a direct sparse LU
(SuperLU) is the only solve path, and :func:`factorize` is the package's one
entry point to it.  Every matrix the package factors is complex and
structurally symmetric: the complex-symmetric 5-point Helmholtz operator A
and the Hermitian positive-definite WRI normal matrix A^H A + mu^2 P^T P.
Each is permuted on rows and columns alike by the multiple-minimum-degree
ordering of A + A^T, which :func:`_mmd_order` reads once per sparsity pattern
and keeps for the last ``MMD_CACHE_SIZE`` patterns.  SuperLU factors it in
that order in symmetric mode, with a diagonal pivot threshold of 0.01
(``DIAG_PIVOT_THRESH``) that keeps the diagonal as pivot, and with it the
fill the ordering planned for, unless an entry below it is 100 times larger.

:func:`factorize` is safe to call from several threads at once, as a
survey's frequencies do: SuperLU releases the GIL while it factors, and the
order cache is locked, so each pattern is still ordered once.  SuperLU gives
a factor's memory back only on the thread that made it, so a
:class:`Factorization` made on a worker thread must be dropped there, or it
is never freed; any thread may solve with it.

A factorization serves right-hand sides in two ways.  :meth:`Factorization.solve`
runs full-length triangular solves, one per column, for callers that need
whole wavefields.  When only a few unknowns are wanted, as when many-source
modeling samples each wavefield at the sources and receivers,
``factorize(a, last=...)`` eliminates those unknowns last (static condensation,
the Schur-complement step of multifrontal solvers), and
:meth:`Factorization.solve_last` reads point-source solutions on them from the
small dense trailing block of L and U, with no full-length solve.

:func:`spectral_norm` has one mode, a power iteration on a self-adjoint map:
``optim`` runs it on a Hessian for the sigma_max of its step scale.
"""

from __future__ import annotations

import threading
from typing import Callable, NamedTuple

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import FactorizationError

# keep the diagonal pivot unless it is below 1 % of its column's largest entry:
# 0.1 more than tripled fill on unphysical (m < 0) models, 0.0 lost residual digits
DIAG_PIVOT_THRESH = 0.01

# MMD orders kept, by pattern: a WRI run's A and normal matrix keep one each
MMD_CACHE_SIZE = 4
_mmd_cache: dict = {}
_mmd_lock = threading.Lock()  # held over lookup, ordering and insertion

SPECTRAL_TOL = 1e-4  # spectral_norm stops once a step moves its estimate by at most this
SPECTRAL_MAX_ITER = 500  # or after this many steps, flagged unconverged


class Factorization:
    """Opaque LU handle tied to one matrix; reusable across right-hand sides.

    ``order`` is the symmetric permutation the factor was computed in, and
    ``n_last`` how many unknowns at the end of ``order`` were eliminated last.
    """

    def __init__(self, lu, n: int, order: np.ndarray, n_last: int):
        self._lu = lu
        self.n = n
        self._order = order
        self._n_last = n_last

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve for a vector or a column block, in complex128."""
        rhs = np.asarray(rhs)
        if rhs.shape[0] != self.n:
            raise ValueError(f"rhs has {rhs.shape[0]} rows, matrix dimension is {self.n}")
        rhs = rhs.astype(np.complex128, casting="safe", copy=False)
        x = np.empty_like(rhs)
        x[self._order] = self._lu.solve(rhs[self._order])
        return x

    def solve_last(self, rows, values) -> np.ndarray:
        """Point-source solutions on the unknowns ``last`` that were eliminated last.

        Column j solves A x = values[j] e_{last[rows[j]]} and holds x[last],
        shape (len(last), len(rows)).  When every source row keeps its pivot
        in the trailing block, forward substitution leaves the leading
        unknowns at zero, so two dense triangular solves on the trailing
        k x k blocks of L and U give x[last] exactly.
        """
        rows = np.asarray(rows, dtype=np.int64)
        values = np.asarray(values, dtype=np.complex128)
        k, lead = self._n_last, self.n - self._n_last
        if rows.shape != values.shape or rows.ndim != 1:
            raise ValueError("rows and values must be 1-d and of equal length")
        if np.any((rows < 0) | (rows >= k)):
            raise ValueError(f"rows must index the {k} unknowns eliminated last")
        pivot = self._lu.perm_r[lead + rows]
        if np.any(pivot < lead):
            # a source row pivoted an eliminated column, so its entry of the
            # permuted right-hand side sits in the leading block: solve in full
            b = np.zeros((self.n, rows.size), dtype=np.complex128)
            last = self._order[lead:]
            b[last[rows], np.arange(rows.size)] = values
            return self.solve(b)[last]
        tail = np.zeros((k, rows.size), dtype=np.complex128)
        tail[pivot - lead, np.arange(rows.size)] = values
        l22 = self._lu.L[lead:, lead:].toarray()
        u22 = self._lu.U[lead:, lead:].toarray()
        z = sla.solve_triangular(l22, tail, lower=True, unit_diagonal=True)
        return sla.solve_triangular(u22, z, lower=False)


def order_last(a, last) -> np.ndarray:
    """Symmetric ordering that puts ``last`` at the end, in the order given.

    The other unknowns keep their relative place in the cached
    multiple-minimum-degree order of the whole pattern, so with ``last``
    empty this is that order.  On the 161^2 modeling grid that gave 22-27 %
    less fill than ordering the other unknowns' pattern on its own.
    """
    a = sp.csc_matrix(a)
    last = np.asarray(last, dtype=np.int64)
    n = a.shape[0]
    if last.ndim != 1 or np.any((last < 0) | (last >= n)) or np.unique(last).size != last.size:
        raise ValueError(f"last must hold distinct indices below {n}")
    keep = np.ones(n, dtype=bool)
    keep[last] = False
    mmd = _mmd_order(a)
    return np.concatenate([mmd[keep[mmd]], last])


def _mmd_order(a: sp.csc_matrix) -> np.ndarray:
    """SuperLU's multiple-minimum-degree order of A + A^T, as a read-only index list.

    It is read off a cheap incomplete LU of a real surrogate with the same
    pattern: ones, with each column's entry count plus one on the diagonal,
    so that it is strictly diagonally dominant and never meets a zero pivot.
    In symmetric mode SuperLU does not postorder the elimination tree, so
    ``perm_c`` is the ordering itself.  The ``MMD_CACHE_SIZE`` patterns
    used last keep their order; the cache is locked, so concurrent callers
    with one pattern order it once.
    """
    key = (a.shape, a.indptr.tobytes(), a.indices.tobytes())
    with _mmd_lock:
        order = _mmd_cache.pop(key, None)
        if order is None:
            pattern = sp.csc_matrix((np.ones(a.nnz), a.indices, a.indptr), shape=a.shape)
            surrogate = (pattern + sp.diags(np.diff(a.indptr) + 1.0)).tocsc()
            ilu = spla.spilu(
                surrogate, drop_tol=0.5, fill_factor=1, permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=DIAG_PIVOT_THRESH, options={"SymmetricMode": True},
            )
            order = np.argsort(ilu.perm_c)
            order.flags.writeable = False
        _mmd_cache[key] = order
        if len(_mmd_cache) > MMD_CACHE_SIZE:
            del _mmd_cache[next(iter(_mmd_cache))]
    return order


def factorize(a, last=()) -> Factorization:
    """LU-factorize a square, structurally symmetric sparse matrix.

    The factor is always complex128.  Rows and columns are permuted alike by
    the cached multiple-minimum-degree order of the pattern of A + A^T
    (:func:`order_last`), and SuperLU factors the permuted matrix in that
    order in symmetric mode, pivoting off the diagonal only when it is below
    ``DIAG_PIVOT_THRESH`` (0.01) times its column's largest entry.  The
    matrix must be structurally symmetric for this to pay off, as the
    Helmholtz operator and the WRI normal matrix are; on them it gives far
    less fill than SuperLU's default unsymmetric COLAMD ordering with full
    partial pivoting.

    The unknowns ``last`` (distinct indices, none by default) are eliminated
    after all the others, so that :meth:`Factorization.solve_last` can answer
    point sources on them from the trailing block alone.  That costs fill: on
    the 161^2 modeling grid with 321 sources and receivers last, about 1.3
    times the fill of the free ordering.
    """
    a = sp.csc_matrix(a, dtype=np.complex128)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix is {a.shape[0]}x{a.shape[1]}, expected square")
    order = order_last(a, last)
    try:
        lu = spla.splu(
            a[order][:, order].tocsc(),
            permc_spec="NATURAL",
            diag_pivot_thresh=DIAG_PIVOT_THRESH,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:  # SuperLU reports the offending pivot in its message
        raise FactorizationError(f"sparse LU failed: {exc}") from exc
    return Factorization(lu, a.shape[0], order, len(last))


class SpectralEstimate(NamedTuple):
    value: float
    iterations: int
    converged: bool


def spectral_norm(apply: Callable[[np.ndarray], np.ndarray], n: int,
                  seed: int) -> SpectralEstimate:
    """Spectral norm of a self-adjoint linear map, its dominant |eigenvalue|,
    by power iteration from a seeded start, so runs are reproducible.

    The estimate settles to ``SPECTRAL_TOL``, relative; if it has not within
    ``SPECTRAL_MAX_ITER`` iterations, the last value is returned unconverged.
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    sigma_prev = 0.0
    for it in range(1, SPECTRAL_MAX_ITER + 1):
        w = np.asarray(apply(v))
        norm_w = np.linalg.norm(w)
        if norm_w == 0.0:
            return SpectralEstimate(0.0, it, True)
        sigma = float(abs(np.vdot(v, w) / np.vdot(v, v)))
        v = w / norm_w
        if it > 1 and abs(sigma - sigma_prev) <= SPECTRAL_TOL * max(sigma, 1e-300):
            return SpectralEstimate(sigma, it, True)
        sigma_prev = sigma
    return SpectralEstimate(sigma_prev, SPECTRAL_MAX_ITER, False)
