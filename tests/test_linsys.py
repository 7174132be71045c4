import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from proxfwi import linsys, model, wave
from proxfwi.errors import FactorizationError


def _random_sparse(n, rng, density=0.2):
    a = sp.random(n, n, density=density, random_state=np.random.RandomState(int(rng.integers(1 << 30))))
    a = a + 1j * sp.random(n, n, density=density, random_state=np.random.RandomState(int(rng.integers(1 << 30))))
    # diagonal dominance keeps it comfortably well-conditioned
    return (a + sp.identity(n) * (n + 1.0)).tocsr()


def test_identity_solve():
    fact = linsys.factorize(sp.identity(4, format="csr", dtype=complex))
    rhs = np.array([1.0, 2.0, 3.0, 4.0], dtype=complex)
    assert np.allclose(fact.solve(rhs), rhs)


def test_diagonal_solve():
    a = sp.diags([2.0, 4.0j]).tocsr()
    fact = linsys.factorize(a)
    x = fact.solve(np.array([2.0, 4.0j]))
    assert np.allclose(x, [1.0, 1.0])


def test_random_system_residual():
    rng = np.random.default_rng(0)
    a = _random_sparse(50, rng)
    fact = linsys.factorize(a)
    rhs = rng.standard_normal(50) + 1j * rng.standard_normal(50)
    x = fact.solve(rhs)
    assert np.linalg.norm(a @ x - rhs) < 1e-10 * np.linalg.norm(rhs)


def test_manufactured_solution():
    rng = np.random.default_rng(1)
    a = _random_sparse(40, rng)
    x0 = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    x = linsys.factorize(a).solve(a @ x0)
    assert np.linalg.norm(x - x0) < 1e-9 * np.linalg.norm(x0)


def test_block_solve_zero_and_identical_columns():
    rng = np.random.default_rng(2)
    a = _random_sparse(30, rng)
    fact = linsys.factorize(a)
    assert np.all(fact.solve(np.zeros((30, 3), dtype=complex)) == 0.0)
    col = rng.standard_normal(30) + 1j * rng.standard_normal(30)
    block = np.column_stack([col, col, col])
    x = fact.solve(block)
    assert np.allclose(x[:, 0], x[:, 1]) and np.allclose(x[:, 0], x[:, 2])


def test_solve_linearity():
    rng = np.random.default_rng(3)
    a = _random_sparse(25, rng)
    fact = linsys.factorize(a)
    u = rng.standard_normal(25) + 1j * rng.standard_normal(25)
    v = rng.standard_normal(25) + 1j * rng.standard_normal(25)
    alpha, beta = 1.7 - 0.3j, -0.4 + 2.2j
    combined = fact.solve(alpha * u + beta * v)
    split = alpha * fact.solve(u) + beta * fact.solve(v)
    assert np.linalg.norm(combined - split) <= 1e-12 * np.linalg.norm(split)


def test_singular_matrix_reports_failure():
    a = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex))
    with pytest.raises(FactorizationError):
        linsys.factorize(a)


def test_dimension_mismatch():
    fact = linsys.factorize(sp.identity(4, format="csr", dtype=complex))
    with pytest.raises(ValueError):
        fact.solve(np.ones(5))


# ---------------------------------------------------------------------------
# factorization contract on the package's own matrices


def _survey_41(pml=10, h=25.0, v=2000.0, freq=5.0):
    """Survey of a homogeneous 41^2 background with the PML tuned for v: three
    top-row sources and every other bottom-row node as a receiver."""
    background = model.ModelGrid.from_values(np.full((41, 41), v), h, h)
    acq = model.AcquisitionGeometry(((0, 5), (0, 20), (0, 35)),
                                    tuple((40, ix) for ix in range(0, 41, 2)), (freq,))
    return wave.Survey(background, acq, pml_cells=pml, pml_velocity=v)


def _helmholtz_41(m_interior, pml=10, h=25.0, v=2000.0, freq=5.0):
    """PML Helmholtz system on a 41^2 interior with a homogeneous collar."""
    return _survey_41(pml, h, v, freq).system(m_interior, 0)


def _wri_matrices(m, freq=5.0):
    """The 41^2 system's bottom-row receiver nodes, A and the WRI normal
    matrix A^H A + mu^2 P^T P."""
    rx = _survey_41(freq=freq).rx
    a = _helmholtz_41(m, freq=freq).tocsc()
    ah = a.conjugate().transpose().tocsc()
    mu = 1e-3 * abs(a[rx[0], rx[0]])
    penalty = sp.coo_matrix((np.full(rx.size, mu**2), (rx, rx)), shape=a.shape)
    return rx, a, (ah @ a + penalty).tocsc()


def _indefinite_m(rng):
    # about 60 % of the cells have m < 0
    return (1.0 / 2000.0**2) * rng.uniform(-3.0, 2.0, (41, 41))


def _inclusion_m():
    m = np.full((41, 41), 1.0 / 2000.0**2)
    m[10:30, 15:25] = 1.0 / 2500.0**2
    return m


def _relative_residual(a, x, rhs):
    return np.linalg.norm(a @ x - rhs) / np.linalg.norm(rhs)


def test_unphysical_helmholtz_and_normal_matrix_residual():
    rng = np.random.default_rng(5)
    rx, a, normal = _wri_matrices(_indefinite_m(rng))
    n = a.shape[0]
    rhs = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
    for matrix in (a, normal):
        x = linsys.factorize(matrix).solve(rhs)
        assert _relative_residual(matrix, x, rhs) <= 1e-10

    # the same indefinite A with the receivers and three source nodes last
    src = _survey_41().src
    last = np.concatenate([rx, src])
    rows = np.arange(rx.size, last.size)
    values = np.array([1.0, -2.0j, 0.5 + 0.5j])
    b = np.zeros((n, 3), dtype=complex)
    b[src, np.arange(3)] = values
    full = linsys.factorize(a).solve(b)[last]
    fact = linsys.factorize(a, last=last)
    assert np.all(fact._lu.perm_r[n - last.size + rows] >= n - last.size)
    x_last = fact.solve_last(rows, values)
    assert np.linalg.norm(x_last - full) <= 1e-10 * np.linalg.norm(full)
    assert _relative_residual(a, fact.solve(b), b) <= 1e-10


def test_solve_last_falls_back_when_a_source_row_pivots_early():
    # column 0's diagonal is below DIAG_PIVOT_THRESH of its entry in row 2, so
    # SuperLU pivots the eliminated column 0 on row 2, a source row kept last
    dense = np.array([[1e-6, 1.0, 2.0], [1.0, 4.0, 1.0], [2.0, 1.0, 4.0]], dtype=complex)
    last = np.array([1, 2])
    fact = linsys.factorize(sp.csr_matrix(dense), last=last)
    assert fact._lu.perm_r[2] < 1  # the trailing block alone would be wrong
    values = np.array([1.0 + 2.0j, -3.0])
    x_last = fact.solve_last(np.array([1, 1]), values)
    ref = np.linalg.solve(dense, np.eye(3)[:, [2, 2]] * values)[last]
    assert np.allclose(x_last, ref, rtol=1e-12, atol=0.0)


def test_solve_last_rejects_bad_input():
    a = _random_sparse(10, np.random.default_rng(6))
    with pytest.raises(ValueError):
        linsys.factorize(a).solve_last([0], [1.0])
    with pytest.raises(ValueError):
        linsys.factorize(a, last=[3, 3])
    with pytest.raises(ValueError):
        linsys.factorize(a, last=[10])
    fact = linsys.factorize(a, last=[7, 2])
    with pytest.raises(ValueError):
        fact.solve_last([2], [1.0])
    ref = linsys.factorize(a).solve(np.eye(10)[:, 2])[[7, 2]]
    assert np.allclose(fact.solve_last([1], [1.0])[:, 0], ref, rtol=1e-12, atol=1e-15)


def _elimination_tree(matrix):
    """Parent of each node in the elimination tree of the pattern of A + A^T,
    -1 at a root, by its definition: the first off-diagonal row of each column
    of a Cholesky factor's pattern, grown here column by column on sets."""
    pattern = sp.csc_matrix(abs(matrix) + abs(matrix).T)
    n = pattern.shape[0]
    below = [set(pattern.indices[pattern.indptr[j]:pattern.indptr[j + 1]]) for j in range(n)]
    parent = [-1] * n
    for j in range(n):
        column = {i for i in below[j] if i > j}
        if column:
            parent[j] = min(column)
            below[parent[j]] |= column - {parent[j]}
    return parent


def _superlu(matrix, permc_spec):
    return spla.splu(sp.csc_matrix(matrix), permc_spec=permc_spec,
                     diag_pivot_thresh=linsys.DIAG_PIVOT_THRESH,
                     options={"SymmetricMode": True})


def _reference_postorder(parent, lead):
    """Postorder of the forest on 0 .. lead-1 by recursive depth-first search,
    children and roots in increasing order; a parent at or past lead is none."""
    children = {j: [] for j in range(-1, lead)}
    for j in range(lead):
        children[parent[j] if 0 <= parent[j] < lead else -1].append(j)
    post = []

    def visit(j):
        for child in children[j]:
            visit(child)
        post.append(j)

    for root in children[-1]:
        visit(root)
    return post


@pytest.mark.parametrize("n, density, seed", [(1, 0.0, 0), (30, 0.05, 1), (60, 0.02, 2),
                                              (60, 0.1, 3)])
def test_etree_and_postorder_match_their_definitions(n, density, seed):
    # unsymmetric random patterns, some with several components, against the
    # set-based etree and a recursive postorder
    rng = np.random.default_rng(seed)
    pattern = sp.random(n, n, density=density, random_state=np.random.RandomState(seed),
                        format="coo")
    parent = linsys._etree(pattern.row, pattern.col, n)
    assert parent == _elimination_tree(pattern + sp.identity(n))
    for lead in (n, int(rng.integers(0, n + 1))):
        post = linsys._postorder(parent, lead)
        assert post.tolist() == _reference_postorder(parent, lead)


def test_factor_order_postorders_superlus_mmd_elimination_tree():
    # the order is a topological reordering of the elimination tree of SuperLU's
    # own MMD order (``last`` moved to the end), the factor solves as SuperLU's
    # own factor does, and its fill is within 5 % of the factor in that MMD order
    rng = np.random.default_rng(8)
    rx, a, normal = _wri_matrices(_indefinite_m(np.random.default_rng(5)))
    for matrix, last in ((_helmholtz_41(_inclusion_m()), ()), (normal, ()), (a, rx)):
        ref = _superlu(matrix, "MMD_AT_PLUS_A")
        mmd = np.argsort(ref.perm_c)
        mmd = np.concatenate([mmd[~np.isin(mmd, last)], np.asarray(last, dtype=np.int64)])
        in_mmd = sp.csc_matrix(matrix)[mmd][:, mmd]
        parent = _elimination_tree(in_mmd)
        fact = linsys.factorize(matrix, last=last)
        where = np.empty(fact.n, dtype=np.int64)
        where[fact._order] = np.arange(fact.n)
        assert np.array_equal(np.sort(fact._order), np.arange(fact.n))
        assert np.array_equal(fact._order[fact.n - len(last):], np.asarray(last, dtype=np.int64))
        assert all(where[mmd[j]] < where[mmd[p]] for j, p in enumerate(parent) if p >= 0)
        assert not np.array_equal(fact._order, mmd)  # the postorder moved something
        mmd_fill = _superlu(in_mmd, "NATURAL").nnz
        if not len(last):
            assert mmd_fill == ref.nnz  # SuperLU's own factor is the one in its MMD order
        assert abs(fact._lu.nnz / mmd_fill - 1.0) <= 0.05
        rhs = rng.standard_normal((fact.n, 3)) + 1j * rng.standard_normal((fact.n, 3))
        x_ref = ref.solve(rhs)
        assert np.linalg.norm(fact.solve(rhs) - x_ref) <= 1e-12 * np.linalg.norm(x_ref)


def _count_analysis(monkeypatch):
    """Count calls to the ordering, the etree, the postorder and the whole analysis."""
    calls = {"spilu": 0, "_etree": 0, "_postorder": 0, "_analyze": 0}
    for owner, name in ((linsys.spla, "spilu"), (linsys, "_etree"), (linsys, "_postorder"),
                        (linsys, "_analyze")):
        def counted(*args, _inner=getattr(owner, name), _name=name, **kwargs):
            calls[_name] += 1
            return _inner(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return calls


def test_each_pattern_is_analyzed_once_and_the_cache_is_bounded(monkeypatch):
    monkeypatch.setattr(linsys, "_analyses", [])
    calls = _count_analysis(monkeypatch)
    rx = _survey_41().rx
    for freq in (3.0, 4.0, 5.0):  # a WRI run's two patterns and condensed A, interleaved
        _, a, normal = _wri_matrices(_inclusion_m(), freq=freq)
        linsys.factorize(a)
        linsys.factorize(normal)
        linsys.factorize(a, last=rx)
        assert calls == {"spilu": 3, "_etree": 3, "_postorder": 3, "_analyze": 3}
    rng = np.random.default_rng(9)
    for n in range(20, 22 + linsys.ANALYSIS_CACHE_SIZE):
        linsys.factorize(_random_sparse(n, rng))
        assert len(linsys._analyses) <= linsys.ANALYSIS_CACHE_SIZE
    assert calls["_analyze"] == 3 + linsys.ANALYSIS_CACHE_SIZE + 2


def test_a_repeat_factorization_permutes_no_matrix(monkeypatch):
    # after the first factorization of a pattern, factorize gathers the values
    # into the cached structure: no ordering, no etree, no sparse fancy indexing
    a = _helmholtz_41(_inclusion_m())
    linsys.factorize(a)
    calls = _count_analysis(monkeypatch)
    indexed = []
    for cls in (sp.csr_matrix, sp.csc_matrix):
        def getitem(self, key, _inner=cls.__getitem__):
            indexed.append(key)
            return _inner(self, key)

        monkeypatch.setattr(cls, "__getitem__", getitem)
    fact = linsys.factorize(a)
    assert calls == {"spilu": 0, "_etree": 0, "_postorder": 0, "_analyze": 0}
    assert indexed == []
    rhs = np.ones(fact.n, dtype=complex)
    assert _relative_residual(a, fact.solve(rhs), rhs) <= 1e-10


def test_an_equal_shape_equal_nnz_pattern_gets_its_own_record(monkeypatch):
    monkeypatch.setattr(linsys, "_analyses", [])
    # two tridiagonal-plus-corner patterns of one shape and entry count
    n = 12
    band = sp.diags([np.ones(n - 1), np.full(n, 4.0), np.ones(n - 1)], [-1, 0, 1], format="lil")
    first, second = band.copy(), band.copy()
    first[0, n - 1] = first[n - 1, 0] = 1.0
    second[0, n - 2] = second[n - 2, 0] = 1.0
    first, second = sp.csr_matrix(first, dtype=complex), sp.csr_matrix(second, dtype=complex)
    assert first.shape == second.shape and first.nnz == second.nnz
    rhs = np.arange(1.0, n + 1.0)
    for matrix in (first, second, first):
        x = linsys.factorize(matrix).solve(rhs)
        assert _relative_residual(matrix, x, rhs) <= 1e-12
    assert len(linsys._analyses) == 2
    # the same pattern stored as CSC is a third record
    linsys.factorize(first.tocsc())
    assert len(linsys._analyses) == 3


def test_cached_arrays_are_read_only():
    a = _random_sparse(15, np.random.default_rng(4))
    fact = linsys.factorize(a, last=[3, 1])
    record = linsys._analyses[-1]
    assert record.matches(a, np.array([3, 1]))
    for array in (record.indptr, record.indices, record.gather, record.order, record.last,
                  *record.pattern, fact._order):
        with pytest.raises(ValueError):
            array[0] = 0
    a.indices[0] = a.indices[1]  # changing the caller's matrix leaves the record as it was
    assert not record.matches(a, np.array([3, 1]))


def test_a_matrix_with_a_twice_stored_entry_is_refused():
    a = sp.csr_matrix((np.array([1.0, 2.0, 3.0, 4.0]), np.array([0, 0, 0, 1]),
                       np.array([0, 3, 4])), shape=(2, 2))
    with pytest.raises(ValueError, match="twice"):
        linsys.factorize(a)


def test_analysis_cache_is_safe_for_concurrent_callers(monkeypatch):
    rng = np.random.default_rng(5)
    patterns = [sp.csc_matrix(_random_sparse(n, rng))
                for n in range(30, 32 + linsys.ANALYSIS_CACHE_SIZE)]  # two more than the cache
    monkeypatch.setattr(linsys, "_analyses", [])
    serial = [linsys._analysis(a, np.zeros(0, dtype=np.int64)).order for a in patterns]
    analyze, calls = linsys._analyze, []

    def slow(*args, **kwargs):  # a slow analysis lets the other threads reach the cache
        calls.append(1)
        time.sleep(0.002)
        return analyze(*args, **kwargs)

    monkeypatch.setattr(linsys, "_analyze", slow)

    def sweep(k, count):
        """Factor the first ``count`` patterns three times, starting at pattern k."""
        picks = [(k + j) % count for j in range(3 * count)]
        return [(p, linsys.factorize(patterns[p])._order) for p in picks]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside the cache's critical steps too
    try:
        for count in (len(patterns), linsys.ANALYSIS_CACHE_SIZE):
            monkeypatch.setattr(linsys, "_analyses", [])
            calls.clear()
            with ThreadPoolExecutor(max_workers=8) as pool:
                swept = list(pool.map(sweep, range(8), [count] * 8, timeout=60.0))
            assert all(np.array_equal(order, serial[p]) for run in swept for p, order in run)
            assert len(linsys._analyses) <= linsys.ANALYSIS_CACHE_SIZE
    finally:
        sys.setswitchinterval(interval)
    assert len(calls) == linsys.ANALYSIS_CACHE_SIZE  # patterns that fit are analyzed once


def test_helmholtz_fill_below_colamd():
    a = _helmholtz_41(_inclusion_m())
    colamd = spla.splu(sp.csc_matrix(a)).nnz
    assert linsys.factorize(a)._lu.nnz < colamd


# ---------------------------------------------------------------------------
# spectral norm


def test_spectral_norm_identity():
    est = linsys.spectral_norm(lambda v: v, 5, seed=0)
    assert est.converged
    assert abs(est.value - 1.0) < 1e-10


def test_spectral_norm_diagonal():
    d = np.array([3.0, 1.0, 1.0])
    est = linsys.spectral_norm(lambda v: d * v, 3, seed=0)
    assert abs(est.value - 3.0) < 1e-3


def _symmetric(n, seed):
    a = np.random.default_rng(seed).standard_normal((n, n))
    return a + a.T


def test_spectral_norm_matches_dense_svd():
    # a symmetric map whose dominant eigenvalue is negative, at twice the others
    rng = np.random.default_rng(11)
    q, _ = np.linalg.qr(rng.standard_normal((20, 20)))
    a = (q * np.concatenate([[-4.0], rng.uniform(-2.0, 2.0, 19)])) @ q.T
    a = 0.5 * (a + a.T)
    # brute-force oracle: the largest |eigenvalue| of the dense matrix
    sigma_ref = np.max(np.abs(np.linalg.eigvalsh(a)))
    est = linsys.spectral_norm(lambda v: a @ v, 20, seed=0)
    assert est.converged
    assert abs(est.value - sigma_ref) <= linsys.SPECTRAL_TOL * sigma_ref


def test_spectral_norm_unconverged_flag(monkeypatch):
    a = _symmetric(30, 13)
    monkeypatch.setattr(linsys, "SPECTRAL_MAX_ITER", 3)
    est = linsys.spectral_norm(lambda v: a @ v, 30, seed=0)
    assert not est.converged
    assert est.iterations == 3
    assert est.value > 0.0


def test_spectral_norm_deterministic():
    a = _symmetric(10, 14)
    runs = [linsys.spectral_norm(lambda v: a @ v, 10, seed=3).value for _ in range(2)]
    assert runs[0] == runs[1]
