"""Sparse direct solves and spectral norms.

Desk-scale 2D systems factor in well under a second, so a direct sparse LU
(SuperLU) is the only solve path, and :func:`factorize` is the package's one
entry point to it.  Every matrix the package factors is complex and
structurally symmetric: the complex-symmetric 5-point Helmholtz operator A
and the Hermitian positive-definite WRI normal matrix A^H A + mu^2 P^T P.
A survey factors each sparsity pattern many times, once per frequency and
outer step, so the symbolic work is done once per pattern ("analyze once,
factor many", Davis 2006).  :func:`_analyze` builds one record per pattern
and ``last`` block: the multiple-minimum-degree (MMD) order of
A + A^T, postordered by its elimination tree, the CSC pattern of the matrix
permuted by it, and a gather map from the caller's storage order to that
pattern.  The last ``ANALYSIS_CACHE_SIZE`` records are kept, so a repeated
factorization is one gather of the values and SuperLU's numeric LU in the
given order.  SuperLU factors in symmetric mode, with a diagonal pivot
threshold of 0.01 (``DIAG_PIVOT_THRESH``) that keeps the diagonal as pivot,
and with it the fill the ordering planned for, unless an entry below it is
100 times larger.

In symmetric mode SuperLU does not postorder the elimination tree itself
(Liu 1990, SIAM J. Matrix Anal. Appl. 11(1)).  The postorder numbers each
subtree contiguously, so columns of equal structure sit next to each other
and SuperLU runs them as supernodes, dense blocks.  Measured on the
package's matrices (2-CPU x86_64, one BLAS thread, medians of 9), the LU
took x0.86 of its time in the plain MMD order on the condensed 161^2
modeling operator, x0.85 and x0.92 on A and the normal matrix at 81^2, and
x0.92 and x0.97 at 41^2; stored fill rose 0.7-4.5 %, because supernodes
are stored as dense blocks.

:func:`factorize` is safe to call from several threads at once, as a
survey's frequencies do: SuperLU releases the GIL while it factors, and the
record cache is locked, so each pattern is still analyzed once.  Any thread
may solve with a :class:`Factorization`, but only a drop on the thread that
made it frees it; :mod:`wave` states the ownership rule that keeps to this.

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
from scipy.sparse import csgraph

from .errors import FactorizationError

# keep the diagonal pivot unless it is below 1 % of its column's largest entry:
# 0.1 more than tripled fill on unphysical (m < 0) models, 0.0 lost residual digits
DIAG_PIVOT_THRESH = 0.01

# records kept, by (pattern, last): a WRI run's A and normal matrix keep one
# each, and condensed modeling's A with its last block one more
ANALYSIS_CACHE_SIZE = 4
_analyses: list = []  # the records, the one used last at the end
_analysis_lock = threading.Lock()  # held over lookup, analysis and insertion

# spectral_norm stops once a step moves its estimate by at most this, relative;
# that is not a bound on the estimate's error
SPECTRAL_TOL = 1e-4
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
        k x k blocks of L and U give x[last] exactly.  The triangular solves
        are O(k^2) per column, but reading the blocks is not: scipy builds
        all of L and U as CSC matrices on first access, so that costs O(fill),
        about 17-32 ms per frequency on the 161^2 modeling grid.
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


class _Analysis(NamedTuple):
    """The symbolic record of one sparsity pattern with its ``last`` block.

    ``format`` and ``pattern`` (``indptr``, ``indices``) are the pattern as
    the caller stores it, and ``last`` the unknowns it eliminates last.
    ``order`` is the symmetric permutation the factor is computed in,
    ``indptr`` and ``indices`` the CSC pattern of the matrix permuted by it,
    and ``a.data[gather]`` that matrix's values.  Every array is read-only.
    """

    format: str
    pattern: tuple
    last: np.ndarray
    order: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    gather: np.ndarray

    def matches(self, a, last: np.ndarray) -> bool:
        """Whether ``a`` stores exactly this pattern and ``last`` is this block."""
        indptr, indices = self.pattern
        return (a.format == self.format and np.array_equal(last, self.last)
                and np.array_equal(a.indptr, indptr) and np.array_equal(a.indices, indices))


def _read_only(*arrays: np.ndarray) -> tuple:
    """Copies of ``arrays`` that cannot be written to."""
    copies = tuple(np.array(x) for x in arrays)
    for x in copies:
        x.flags.writeable = False
    return copies


def _etree(rows: np.ndarray, cols: np.ndarray, n: int) -> list:
    """Parent of each node in the elimination tree of the pattern of A + A^T,
    -1 at a root; the pattern holds an entry at (rows[k], cols[k]) for each k.

    The tree depends only on which nodes each prefix 0 .. j of the labels
    connects (Liu 1990), and so does a minimum spanning forest of the graph
    with each edge weighted by its larger end: among the edges below any
    weight it spans the components that they span.  Liu's algorithm with path
    compression, as in CSparse's ``cs_etree``, then runs on that forest's
    n - 1 edges at most instead of every entry: each edge (i, j), i < j, in
    increasing j, climbs from i to its subtree's root, which j adopts.
    """
    lo, hi = np.minimum(rows, cols), np.maximum(rows, cols)
    off = lo < hi
    graph = sp.csr_matrix((np.ones(np.count_nonzero(off)), (lo[off], hi[off])), shape=(n, n))
    graph.data = graph.indices + 1.0  # weight = larger end, +1 as csgraph reads 0 as no edge
    forest = csgraph.minimum_spanning_tree(graph).tocoo()
    edges = np.sort(np.maximum(forest.row, forest.col).astype(np.int64) * n
                    + np.minimum(forest.row, forest.col))
    parent, ancestor = [-1] * n, [-1] * n
    for i, j in zip((edges % n).tolist(), (edges // n).tolist()):
        while True:
            up = ancestor[i]
            if up == j:
                break
            ancestor[i] = j
            if up == -1:
                parent[i] = j
                break
            i = up
    return parent


def _postorder(parent: list, lead: int) -> np.ndarray:
    """A postorder of the elimination forest on nodes 0 .. lead-1.

    A node whose parent is at or past ``lead`` is a root.  Each subtree gets
    a contiguous run of positions with its root last, and siblings, roots
    too, follow in increasing order.  A parent is numbered above its
    children, so one upward pass sums the subtree sizes and one downward pass
    hands each node, largest sibling first, the end of its parent's run.
    """
    up = np.asarray(parent[:lead])
    up = np.where((up >= 0) & (up < lead), up, lead).tolist()  # roots hang from node lead
    size = [1] * (lead + 1)
    for j in range(lead):
        size[up[j]] += size[j]
    end = [0] * lead + [lead]  # where the unfilled part of each run ends
    post = [0] * lead
    for j in range(lead - 1, -1, -1):
        p = up[j]
        at = end[p] - 1
        end[p] -= size[j]
        end[j] = at
        post[at] = j
    return np.array(post, dtype=np.int64)


def _analyze(a, last: np.ndarray) -> _Analysis:
    """The symbolic record of the CSR or CSC matrix ``a`` with ``last`` kept last.

    The order starts from SuperLU's multiple-minimum-degree order of A + A^T,
    read off a cheap incomplete LU of a real surrogate with the same pattern:
    ones, with each column's entry count plus one on the diagonal, so that it
    is strictly diagonally dominant and never meets a zero pivot.  In
    symmetric mode SuperLU does not postorder, so ``perm_c`` is the MMD order
    itself.  The unknowns ``last`` move to the end, in the order given, the
    others keeping their MMD order; on the 161^2 modeling grid that gave
    22-27 % less fill than ordering the other unknowns' pattern on its own.
    The leading unknowns are then postordered by the elimination tree, a
    topological reordering that leaves the filled pattern as it was.

    The etree and postorder are Python loops over at most n edges and n
    nodes.  Once per record they took 3 ms for A at 41^2, 7 ms at 81^2 and
    28 ms for the condensed operator at 161^2; the whole analysis, the MMD
    ordering included, took 7, 17 and 65 ms, against 7, 22 and 162 ms for
    one factorization of each (medians of 15, 2-CPU x86_64 host).
    """
    n = a.shape[0]
    if last.ndim != 1 or np.any((last < 0) | (last >= n)) or np.unique(last).size != last.size:
        raise ValueError(f"last must hold distinct indices below {n}")
    # the pattern of A, or of A^T for CSR: both give the MMD order of A + A^T
    pattern = sp.csc_matrix((np.ones(a.nnz), a.indices, a.indptr), shape=a.shape)
    surrogate = (pattern + sp.diags(np.diff(pattern.indptr) + 1.0)).tocsc()
    ilu = spla.spilu(
        surrogate, drop_tol=0.5, fill_factor=1, permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=DIAG_PIVOT_THRESH, options={"SymmetricMode": True},
    )
    mmd = np.argsort(ilu.perm_c)
    keep = np.ones(n, dtype=bool)
    keep[last] = False
    order = np.concatenate([mmd[keep[mmd]], last])
    major = np.repeat(np.arange(n), np.diff(a.indptr))
    rows, cols = (a.indices, major) if a.format == "csc" else (major, a.indices)
    position = np.empty(n, dtype=np.int64)
    position[order] = np.arange(n)
    post = _postorder(_etree(position[rows], position[cols], n), n - last.size)
    order = np.concatenate([order[post], last])
    position[order] = np.arange(n)
    # the permuted matrix in CSC, holding the storage index of each entry
    where = sp.csc_matrix((np.arange(1.0, a.nnz + 1.0), (position[rows], position[cols])),
                          shape=a.shape)
    if where.nnz != a.nnz:
        raise ValueError("matrix stores an entry twice; sum its duplicates first")
    return _Analysis(a.format, _read_only(a.indptr, a.indices), *_read_only(
        last, order, where.indptr.astype(np.intc), where.indices.astype(np.intc),
        where.data.astype(np.int64) - 1))


def _analysis(a, last: np.ndarray) -> _Analysis:
    """The cached record of ``a``'s pattern with ``last``, analyzed on a miss.

    A hit is an exact match of format, ``indptr``, ``indices`` and ``last``,
    so two patterns of equal shape and entry count never share a record.
    The lock is held throughout, so concurrent callers analyze a pattern
    once and all get its one record.
    """
    with _analysis_lock:
        for k, record in enumerate(_analyses):
            if record.matches(a, last):
                _analyses.append(_analyses.pop(k))
                return record
        record = _analyze(a, last)
        _analyses.append(record)
        if len(_analyses) > ANALYSIS_CACHE_SIZE:
            del _analyses[0]
        return record


def factorize(a, last=()) -> Factorization:
    """LU-factorize a square, structurally symmetric sparse matrix.

    The factor is always complex128.  Rows and columns are permuted alike by
    the multiple-minimum-degree order of the pattern of A + A^T, postordered
    by its elimination tree (:func:`_analyze`), and SuperLU factors the
    permuted matrix in that order in symmetric mode, pivoting off the
    diagonal only when it is below ``DIAG_PIVOT_THRESH`` (0.01) times its
    column's largest entry.  The matrix must be structurally symmetric for
    this to pay off, as the Helmholtz operator and the WRI normal matrix are;
    on them it gives far less fill than SuperLU's default unsymmetric COLAMD
    ordering with full partial pivoting.

    A CSR or CSC matrix is read as stored; anything else is converted to CSC
    first.  No entry may be stored twice.  The first call on a pattern and
    ``last`` analyzes them (:func:`_analyze`), about what one factorization
    of A costs at 41^2 and less than that on larger grids.  While the record
    stays cached, every later call gathers the values into the permuted
    pattern and factors, with no ordering, no etree and no matrix permutation.

    The unknowns ``last`` (distinct indices, none by default) are eliminated
    after all the others, so that :meth:`Factorization.solve_last` can answer
    point sources on them from the trailing block alone.  That costs fill: on
    the 161^2 modeling grid with 321 sources and receivers last, about 1.3
    times the fill of the free ordering.
    """
    if not (sp.issparse(a) and a.format in ("csr", "csc")):
        a = sp.csc_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix is {a.shape[0]}x{a.shape[1]}, expected square")
    record = _analysis(a, np.asarray(last, dtype=np.int64))
    values = a.data[record.gather].astype(np.complex128, copy=False)
    try:
        lu = spla.splu(
            sp.csc_matrix((values, record.indices, record.indptr), shape=a.shape),
            permc_spec="NATURAL",
            diag_pivot_thresh=DIAG_PIVOT_THRESH,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:  # SuperLU reports the offending pivot in its message
        raise FactorizationError(f"sparse LU failed: {exc}") from exc
    return Factorization(lu, a.shape[0], record.order, record.last.size)


class SpectralEstimate(NamedTuple):
    value: float
    iterations: int
    converged: bool


def spectral_norm(apply: Callable[[np.ndarray], np.ndarray], n: int,
                  seed: int) -> SpectralEstimate:
    """Spectral norm of a self-adjoint linear map, its dominant |eigenvalue|,
    by power iteration from a seeded start, so runs are reproducible.

    It stops once two successive estimates (Rayleigh quotients) agree to
    ``SPECTRAL_TOL``, relative; if they have not within ``SPECTRAL_MAX_ITER``
    iterations, the last value is returned unconverged.  Agreement is not
    accuracy: when the two largest |eigenvalues| are close, each step moves
    the estimate little while it is still far off.  On a 12^2 WRI Hessian
    diagonal whose top entries are 3597.4 and 3582.8 it stopped after 6
    steps at 3586.1, 0.3 % low.
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
