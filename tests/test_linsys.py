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


def test_factorize_matches_superlus_own_mmd_factorization():
    # the cached order with SuperLU in the given order is the factorization
    # SuperLU makes when it orders the matrix itself
    rng = np.random.default_rng(8)
    normal = _wri_matrices(_indefinite_m(np.random.default_rng(5)))[2]
    for matrix in (_helmholtz_41(_inclusion_m()), normal):
        ref = spla.splu(
            sp.csc_matrix(matrix), permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=linsys.DIAG_PIVOT_THRESH, options={"SymmetricMode": True},
        )
        fact = linsys.factorize(matrix)
        assert fact._lu.nnz == ref.nnz
        rhs = rng.standard_normal((fact.n, 3)) + 1j * rng.standard_normal((fact.n, 3))
        x_ref = ref.solve(rhs)
        assert np.linalg.norm(fact.solve(rhs) - x_ref) <= 1e-12 * np.linalg.norm(x_ref)


def test_mmd_order_is_read_once_per_pattern_and_the_cache_is_bounded(monkeypatch):
    monkeypatch.setattr(linsys, "_mmd_cache", {})
    spilu, calls = linsys.spla.spilu, []

    def counted(*args, **kwargs):
        calls.append(1)
        return spilu(*args, **kwargs)

    monkeypatch.setattr(linsys.spla, "spilu", counted)
    for freq in (3.0, 4.0, 5.0):  # a WRI run's two patterns, interleaved
        _, a, normal = _wri_matrices(_inclusion_m(), freq=freq)
        linsys.factorize(a)
        linsys.factorize(normal)
    assert len(calls) == 2
    rng = np.random.default_rng(9)
    for n in range(20, 22 + linsys.MMD_CACHE_SIZE):
        linsys.factorize(_random_sparse(n, rng))
        assert len(linsys._mmd_cache) <= linsys.MMD_CACHE_SIZE
    assert len(calls) == 2 + linsys.MMD_CACHE_SIZE + 2


def test_mmd_order_cache_is_safe_for_concurrent_callers(monkeypatch):
    rng = np.random.default_rng(5)
    patterns = [sp.csc_matrix(_random_sparse(n, rng))
                for n in range(30, 32 + linsys.MMD_CACHE_SIZE)]  # two more than the cache
    monkeypatch.setattr(linsys, "_mmd_cache", {})
    serial = [linsys._mmd_order(a) for a in patterns]
    spilu, calls = linsys.spla.spilu, []

    def slow(*args, **kwargs):  # a slow ordering lets the other threads reach the cache
        calls.append(1)
        time.sleep(0.002)
        return spilu(*args, **kwargs)

    monkeypatch.setattr(linsys.spla, "spilu", slow)

    def sweep(k, count):
        """Order the first ``count`` patterns three times, starting at pattern k."""
        picks = [(k + j) % count for j in range(3 * count)]
        return [(p, linsys._mmd_order(patterns[p])) for p in picks]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside the cache's critical steps too
    try:
        for count in (len(patterns), linsys.MMD_CACHE_SIZE):
            monkeypatch.setattr(linsys, "_mmd_cache", {})
            calls.clear()
            with ThreadPoolExecutor(max_workers=8) as pool:
                swept = list(pool.map(sweep, range(8), [count] * 8, timeout=60.0))
            assert all(np.array_equal(order, serial[p]) for run in swept for p, order in run)
            assert len(linsys._mmd_cache) <= linsys.MMD_CACHE_SIZE
    finally:
        sys.setswitchinterval(interval)
    assert len(calls) == linsys.MMD_CACHE_SIZE  # patterns that fit are ordered once


def test_helmholtz_fill_below_colamd():
    a = _helmholtz_41(_inclusion_m())
    colamd = spla.splu(sp.csc_matrix(a)).nnz
    assert linsys.factorize(a)._lu.nnz < colamd


# ---------------------------------------------------------------------------
# spectral norm


def test_spectral_norm_identity():
    est = linsys.spectral_norm(lambda v: v, 5)
    assert est.converged
    assert abs(est.value - 1.0) < 1e-10


def test_spectral_norm_diagonal():
    d = np.array([3.0, 1.0, 1.0])
    est = linsys.spectral_norm(lambda v: d * v, 3)
    assert abs(est.value - 3.0) < 1e-3


def test_spectral_norm_matches_dense_svd():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((20, 20))
    # brute-force oracle: full SVD
    sigma_ref = np.linalg.svd(a, compute_uv=False)[0]
    est = linsys.spectral_norm(
        lambda v: a @ v, 20, tol=1e-8, max_iter=5000, apply_adjoint=lambda v: a.T @ v
    )
    assert est.converged
    assert abs(est.value - sigma_ref) <= 1e-6 * sigma_ref


def test_spectral_norm_transpose_symmetry():
    rng = np.random.default_rng(12)
    for seed in range(3):
        a = np.random.default_rng(seed).standard_normal((15, 15))
        fwd = linsys.spectral_norm(
            lambda v: a @ v, 15, tol=1e-8, max_iter=5000, apply_adjoint=lambda v: a.T @ v
        )
        bwd = linsys.spectral_norm(
            lambda v: a.T @ v, 15, tol=1e-8, max_iter=5000, apply_adjoint=lambda v: a @ v
        )
        assert abs(fwd.value - bwd.value) <= 1e-5 * fwd.value


def test_spectral_norm_unconverged_flag():
    rng = np.random.default_rng(13)
    a = rng.standard_normal((30, 30))
    est = linsys.spectral_norm(
        lambda v: a @ v, 30, tol=1e-14, max_iter=3, apply_adjoint=lambda v: a.T @ v
    )
    assert not est.converged
    assert est.value > 0.0


def test_spectral_norm_deterministic():
    rng = np.random.default_rng(14)
    a = rng.standard_normal((10, 10))
    runs = [
        linsys.spectral_norm(lambda v: a @ v, 10, apply_adjoint=lambda v: a.T @ v).value
        for _ in range(2)
    ]
    assert runs[0] == runs[1]
