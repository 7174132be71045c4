import gc
import os
import threading
import warnings
import weakref

import numpy as np
import pytest

from proxfwi import inversion, linsys, model, optim, wave
from proxfwi.denoise import Denoiser, make_denoiser
from proxfwi.errors import ConfigError, NumericalError, StateError

warnings.filterwarnings("ignore", message=".*points per minimum wavelength.*")


def _tiny_problem(n=12, freqs=(6.0, 9.0), n_src=2, v_inc=2200.0, snr=None, seed=0):
    """12x12 benchmark: centered inclusion, homogeneous background."""
    h = 50.0
    values = np.full((n, n), 2000.0)
    values[4:8, 4:8] = v_inc  # strictly interior, so edges match the background
    true = model.ModelGrid.from_values(values, h, h)
    background = model.ModelGrid.from_values(np.full((n, n), 2000.0), h, h)
    sources = tuple((1, 2 + (n - 4) * s // max(n_src - 1, 1)) for s in range(n_src))
    receivers = tuple((n - 2, ix) for ix in range(1, n - 1, 2)) + tuple(
        (iz, 1) for iz in range(2, n - 2, 3)
    )
    acq = model.AcquisitionGeometry(sources, receivers, freqs)
    observed = wave.forward(true, acq, f_peak=10.0, pml_cells=5, pml_velocity=2000.0)
    observed = wave.add_noise(observed, snr, seed=seed)
    return true, background, acq, observed


def _fwi(acq, observed, background):
    return inversion.FwiOracle(acq, observed, background, f_peak=10.0, pml_cells=5)


# ---------------------------------------------------------------------------
# metrics


def test_rmse_cases():
    m = np.ones((3, 3))
    assert inversion.rmse(m, m) == 0.0
    assert inversion.rmse(1.1 * m, m) == pytest.approx(10.0, rel=1e-12)
    with pytest.raises(ValueError):
        inversion.rmse(m, np.zeros((3, 3)))


@pytest.mark.parametrize("bad", [-1e-8, 0.0])
def test_velocity_error_is_inf_for_a_nonpositive_cell(bad):
    m = np.full((3, 4), 2.5e-7)
    m[1, 2] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert inversion.velocity_error(m, np.full((3, 4), 2000.0)) == np.inf


def test_velocity_error_of_a_positive_model():
    rng = np.random.default_rng(3)
    true_vel = 2000.0 + 500.0 * rng.random((5, 6))
    m = (1.0 + 0.1 * rng.random((5, 6))) / true_vel**2
    expected = float(np.linalg.norm(1.0 / np.sqrt(m) - true_vel))
    assert inversion.velocity_error(m, true_vel) == expected
    assert inversion.velocity_error(1.0 / true_vel**2, true_vel) == pytest.approx(0.0, abs=1e-9)


def test_snr_cases():
    sig = np.array([1.0, -1.0, 1.0, -1.0])
    assert inversion.snr_db(sig, sig) == 0.0
    assert inversion.snr_db(10.0 * sig, sig) == pytest.approx(20.0, rel=1e-12)
    with pytest.raises(ValueError):
        inversion.snr_db(sig, np.zeros(4))


# ---------------------------------------------------------------------------
# reduced-space oracle


def test_fwi_zero_misfit_at_true_model():
    true, background, acq, observed = _tiny_problem()
    oracle = _fwi(acq, observed, background)
    m_true = model.as_slowness_squared(true).values
    m_bg = model.as_slowness_squared(background).values
    data_sq = sum(np.sum(np.abs(b) ** 2) for b in observed.blocks)
    assert oracle.value(m_true) < 1e-18 * data_sq
    grad_scale = np.linalg.norm(oracle.gradient(m_bg))
    assert np.linalg.norm(oracle.gradient(m_true)) < 1e-8 * grad_scale


def test_fwi_gradient_matches_finite_differences():
    true, background, acq, observed = _tiny_problem()
    oracle = _fwi(acq, observed, background)
    m = model.as_slowness_squared(background).values
    g = oracle.gradient(m)
    rng = np.random.default_rng(1)
    v = rng.standard_normal(m.shape)
    v /= np.linalg.norm(v)
    directional = float(np.sum(g * v))
    rel_best = np.inf
    for eps in (1e-3, 1e-4, 1e-5) :
        step = eps * np.linalg.norm(m)
        fd = (oracle.value(m + step * v) - oracle.value(m - step * v)) / (2.0 * step)
        rel_best = min(rel_best, abs(fd - directional) / abs(fd))
    assert rel_best < 1e-4


def test_fwi_componentwise_gradient():
    true, background, acq, observed = _tiny_problem()
    oracle = _fwi(acq, observed, background)
    m = model.as_slowness_squared(background).values
    g = oracle.gradient(m)
    rng = np.random.default_rng(2)
    cells = [(int(a), int(b)) for a, b in zip(rng.integers(0, 12, 20), rng.integers(0, 12, 20))]
    step = 1e-4 * np.linalg.norm(m)
    checked = 0
    for iz, ix in cells:
        e = np.zeros_like(m)
        e[iz, ix] = step
        fd = (oracle.value(m + e) - oracle.value(m - e)) / (2.0 * step)
        if abs(fd) < 1e-12 * np.abs(g).max():
            continue  # insensitive cells have no meaningful relative error
        assert abs(g[iz, ix] - fd) <= 1e-4 * abs(fd)
        checked += 1
    assert checked >= 10


def test_fwi_additive_across_frequencies():
    true, background, acq, observed = _tiny_problem(freqs=(6.0, 9.0))
    m = model.as_slowness_squared(background).values
    both = _fwi(acq, observed, background)
    lo = _fwi(acq.subset((6.0,)), observed.subset((6.0,)), background)
    hi = _fwi(acq.subset((9.0,)), observed.subset((9.0,)), background)
    assert both.value(m) == pytest.approx(lo.value(m) + hi.value(m), rel=1e-12)
    assert np.allclose(both.gradient(m), lo.gradient(m) + hi.gradient(m), rtol=1e-12)


def test_fwi_gauss_newton_hvp_structure():
    true, background, acq, observed = _tiny_problem()
    oracle = _fwi(acq, observed, background)
    m = model.as_slowness_squared(background).values
    assert np.all(oracle.hvp(m, np.zeros_like(m)) == 0.0)
    rng = np.random.default_rng(3)
    u, v = rng.standard_normal(m.shape), rng.standard_normal(m.shape)
    a, b = 1.3, -0.7
    combined = oracle.hvp(m, a * u + b * v)
    assert np.linalg.norm(combined - a * oracle.hvp(m, u) - b * oracle.hvp(m, v)) <= (
        1e-10 * np.linalg.norm(combined)
    )
    # symmetry in the real inner product
    lhs = float(np.sum(u * oracle.hvp(m, v)))
    rhs = float(np.sum(v * oracle.hvp(m, u)))
    assert abs(lhs - rhs) <= 1e-8 * max(abs(lhs), abs(rhs))


def test_fwi_hvp_matches_materialized_jacobian():
    true, background, acq, observed = _tiny_problem(n=12, freqs=(6.0,), n_src=1)
    oracle = _fwi(acq, observed, background)
    m = model.as_slowness_squared(background).values
    step = 1e-4 * np.linalg.norm(m)

    def stacked_data(mm):
        return np.concatenate([blk.ravel() for blk in oracle.survey.data(mm).blocks])

    n_cells = m.size
    n_data = stacked_data(m).size
    jac = np.empty((n_data, n_cells), dtype=complex)
    for j in range(n_cells):
        e = np.zeros(n_cells)
        e[j] = step
        jac[:, j] = (
            stacked_data(m + e.reshape(m.shape)) - stacked_data(m - e.reshape(m.shape))
        ) / (2.0 * step)
    rng = np.random.default_rng(4)
    v = rng.standard_normal(n_cells)
    reference = np.real(jac.conj().T @ (jac @ v))
    got = oracle.hvp(m, v.reshape(m.shape)).ravel()
    assert np.linalg.norm(got - reference) <= 1e-3 * np.linalg.norm(reference)


# ---------------------------------------------------------------------------
# penalty-formulation oracle


def _wri(acq, observed, background, mu=3e-4):
    return inversion.WriOracle(acq, observed, background, mu, f_peak=10.0, pml_cells=5)


def _penalty_fields(oracle, m):
    """(A, b, u, b - A u) per frequency: the fields ``update_wavefields(m)`` freezes."""
    out = []
    for i, d in enumerate(oracle.observed.blocks):
        u, e = oracle.survey.solve_penalty(m, i, d, oracle.mu)
        out.append((oracle.survey.system(m, i), oracle.survey.point_sources(i), u, e))
    return out


def _penalty_fit(oracle, m):
    """||P u - d|| over all frequencies of the penalty fields u solved at m."""
    fits = [np.sum(np.abs(u[oracle.survey.rx, :] - d) ** 2)
            for (_, _, u, _), d in zip(_penalty_fields(oracle, m), oracle.observed.blocks)]
    return np.sqrt(sum(fits))


def test_wri_requires_wavefields():
    true, background, acq, observed = _tiny_problem()
    oracle = _wri(acq, observed, background)
    with pytest.raises(StateError):
        oracle.value(model.as_slowness_squared(background).values)


def test_wri_exact_fit_at_true_model_noiseless():
    true, background, acq, observed = _tiny_problem()
    oracle = _wri(acq, observed, background)
    m_true = model.as_slowness_squared(true).values
    data_norm = np.sqrt(sum(np.sum(np.abs(b) ** 2) for b in observed.blocks))
    assert _penalty_fit(oracle, m_true) < 1e-9 * max(1.0, data_norm)


def test_wri_normal_equation_residual():
    true, background, acq, observed = _tiny_problem()
    oracle = _wri(acq, observed, background)
    m = model.as_slowness_squared(background).values
    for (a, b, u, _), d in zip(_penalty_fields(oracle, m), observed.blocks):
        rx, mu2 = oracle.survey.rx, oracle.mu**2
        rhs = a.conjugate().transpose() @ b
        rhs[rx, :] += mu2 * d
        resid = rhs - a.conjugate().transpose() @ (a @ u)
        resid[rx, :] -= mu2 * u[rx, :]
        assert np.linalg.norm(resid) < 1e-9 * np.linalg.norm(rhs)


def test_wri_hessian_diag_formula():
    true, background, acq, observed = _tiny_problem()
    oracle = _wri(acq, observed, background)
    m = model.as_slowness_squared(background).values
    oracle.update_wavefields(m)
    expected = np.zeros_like(m)
    for omega, (_, _, u, _) in zip(oracle.survey.omegas, _penalty_fields(oracle, m)):
        u_int = u[oracle.survey.interior_rows, :]
        expected += omega**4 * np.sum(np.abs(u_int) ** 2, axis=2)
    hdiag = oracle.hessian_diag(m)
    assert np.allclose(hdiag, expected, rtol=1e-14)
    assert np.all(hdiag >= 0.0)


def test_wri_gradient_matches_finite_differences_at_frozen_fields():
    true, background, acq, observed = _tiny_problem()
    oracle = _wri(acq, observed, background)
    m = model.as_slowness_squared(background).values
    oracle.update_wavefields(m)
    g = oracle.gradient(m)
    rng = np.random.default_rng(5)
    v = rng.standard_normal(m.shape)
    v /= np.linalg.norm(v)
    step = 1e-5 * np.linalg.norm(m)
    fd = (oracle.value(m + step * v) - oracle.value(m - step * v)) / (2.0 * step)
    assert abs(fd - float(np.sum(g * v))) <= 1e-6 * abs(fd)


def test_wri_materialized_hessian_is_diagonal():
    true, background, acq, observed = _tiny_problem(n=12, freqs=(6.0,), n_src=1)
    oracle = _wri(acq, observed, background)
    m = model.as_slowness_squared(background).values
    oracle.update_wavefields(m)
    n_cells = m.size
    step = 1e-5 * np.linalg.norm(m)
    hess = np.empty((n_cells, n_cells))
    for j in range(n_cells):
        e = np.zeros(n_cells)
        e[j] = step
        gp = oracle.gradient(m + e.reshape(m.shape)).ravel()
        gm = oracle.gradient(m - e.reshape(m.shape)).ravel()
        hess[:, j] = (gp - gm) / (2.0 * step)
    off = hess - np.diag(np.diag(hess))
    assert np.max(np.abs(off)) <= 1e-8 * np.max(np.abs(hess))
    assert np.allclose(np.diag(hess), oracle.hessian_diag(m).ravel(), rtol=1e-6)


def test_data_residual_norm_is_the_reduced_residual_for_both_oracles():
    true, background, acq, observed = _tiny_problem(snr=20.0, seed=2)
    m = model.as_slowness_squared(background).values
    blocks = wave.forward(background, acq, f_peak=10.0, pml_cells=5, pml_velocity=2000.0).blocks
    expected = np.sqrt(sum(np.sum(np.abs(p - d) ** 2) for p, d in zip(blocks, observed.blocks)))
    wri = _wri(acq, observed, background)
    wri.update_wavefields(m)
    for oracle in (_fwi(acq, observed, background), wri):
        assert oracle.data_residual_norm(m) == pytest.approx(expected, rel=1e-10)


def test_wri_small_mu_fields_match_plain_forward():
    true, background, acq, observed = _tiny_problem()
    oracle = _wri(acq, observed, background, mu=1e-10)
    m = model.as_slowness_squared(background).values
    for a, b, u, _ in _penalty_fields(oracle, m):
        plain = linsys.factorize(a).solve(b)
        rel = np.linalg.norm(u - plain) / np.linalg.norm(plain)
        assert rel < 1e-4


def _random_data_problem(seed=0, n=9, n_src=2, freq=6.0):
    """Homogeneous grid with random observed data, so no field fits it exactly."""
    rng = np.random.default_rng(seed)
    grid = model.ModelGrid.from_values(np.full((n, n), 2000.0), 50.0, 50.0)
    sources = tuple((1, 2 + 2 * s) for s in range(n_src))
    receivers = ((n - 2, 1), (n - 2, n // 2), (n - 2, n - 2))
    acq = model.AcquisitionGeometry(sources, receivers, (freq,))
    observed = model.FreqData(
        (freq,),
        (rng.standard_normal((3, n_src)) * 1e-3 + 1j * rng.standard_normal((3, n_src)) * 1e-3,),
    )
    return grid, acq, observed


def _wri_fields(grid, acq, observed, mu):
    """(A, b, u, b - A u): the data-assimilated fields for the single frequency."""
    oracle = _wri(acq, observed, grid, mu=mu)
    return _penalty_fields(oracle, model.as_slowness_squared(grid).values)[0]


def test_wri_fields_match_dense_least_squares():
    grid, acq, observed = _random_data_problem(n=7)
    mu = 3e-4
    a, b, u, _ = _wri_fields(grid, acq, observed, mu)
    p = np.zeros((len(acq.receivers), a.shape[0]))
    p[np.arange(len(acq.receivers)), wave.Survey(grid, acq, pml_cells=5).rx] = 1.0
    stacked = np.vstack([a.toarray(), mu * p])
    for s in range(acq.n_sources):
        rhs = np.concatenate([b[:, s], mu * observed.blocks[0][:, s]])
        reference, *_ = np.linalg.lstsq(stacked, rhs, rcond=None)
        rel = np.linalg.norm(u[:, s] - reference) / np.linalg.norm(reference)
        assert rel < 1e-8


def test_wri_fields_are_stationary():
    grid, acq, observed = _random_data_problem()
    mu = 1e-3
    a, b, fields, e = _wri_fields(grid, acq, observed, mu)
    rx = wave.Survey(grid, acq, pml_cells=5).rx
    assert np.linalg.norm(e - (b - a @ fields)) <= 1e-12 * np.linalg.norm(b)
    for s in range(acq.n_sources):
        u = fields[:, s]
        # gradient of 0.5||b - A u||^2 + 0.5 mu^2 ||P u - d||^2
        grad = -(a.conjugate().transpose() @ (b[:, s] - a @ u))
        grad[rx] += mu**2 * (u[rx] - observed.blocks[0][:, s])
        scale = np.linalg.norm(b[:, s]) + mu * np.linalg.norm(observed.blocks[0][:, s])
        assert np.linalg.norm(grad) < 1e-9 * scale


def test_wri_data_fit_improves_with_mu():
    grid, acq, observed = _random_data_problem()
    m = model.as_slowness_squared(grid).values
    fits = []
    for mu in [1e-6, 1e-5, 1e-4, 1e-3, 1e-2]:
        fits.append(_penalty_fit(_wri(acq, observed, grid, mu=mu), m))
    assert all(b <= a + 1e-12 for a, b in zip(fits, fits[1:]))


def test_wri_rejects_bad_mu():
    grid, acq, observed = _random_data_problem()
    with pytest.raises(ValueError):
        _wri(acq, observed, grid, mu=0.0)


def test_default_penalty_mu_is_mu_ratio_times_the_largest_row_sum():
    # benchmark grids: every row off the Dirichlet ring sums below 1, so ||A||_inf = 1
    for n, h, freq in ((21, 25.0, 3.0), (41, 50.0, 3.0), (81, 25.0, 3.0), (161, 12.5, 4.0)):
        for background in (model.ModelGrid.from_values(np.full((n, n), 2000.0), h, h),
                           model.make_inclusion_model("all-four", n, n, h, h, 2000.0, 2500.0)):
            assert inversion.default_penalty_mu(background, freq, 10) == inversion.MU_RATIO
    # at 1 m the absorbing-collar rows sum past 1, and ||A||_inf bounds ||A||_2 closely
    background = model.ModelGrid.from_values(np.full((12, 12), 2000.0), 1.0, 1.0)
    a = wave.assemble(model.as_slowness_squared(background), 2.0 * np.pi * 3.0, 10).toarray()
    mu = inversion.default_penalty_mu(background, 3.0, 10)
    assert mu == pytest.approx(inversion.MU_RATIO * np.abs(a).sum(axis=1).max(), rel=1e-12)
    sigma_max = np.linalg.svd(a, compute_uv=False)[0]  # brute-force oracle
    assert 1.0 < mu / (inversion.MU_RATIO * sigma_max) <= 1.02


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("method", ["fwi", "irwri"])
def test_non_finite_model_raises(method, bad):
    true, background, acq, observed = _tiny_problem()
    m = model.as_slowness_squared(background).values.copy()
    m[5, 5] = bad
    with pytest.raises(NumericalError, match=r"\(5, 5\)"):
        if method == "fwi":
            _fwi(acq, observed, background).value(m)
        else:
            _wri(acq, observed, background).update_wavefields(m)


# ---------------------------------------------------------------------------
# the survey's frequencies in a thread pool


def _cpus(monkeypatch, n):
    """Let ``Survey.each`` see ``n`` usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def test_survey_runs_one_worker_per_cpu_up_to_one_per_frequency(monkeypatch):
    _, background, acq, _ = _tiny_problem(freqs=(5.0, 6.0, 9.0))
    survey = wave.Survey(background, acq, pml_cells=5)
    start = threading.active_count()
    _cpus(monkeypatch, 8)
    barrier = threading.Barrier(3, timeout=30.0)  # passes only if all three run at once

    def meet(i):
        barrier.wait()
        return i, threading.get_ident()

    order, idents = zip(*survey.each(meet))
    assert order == (0, 1, 2) and len(set(idents)) == 3
    assert threading.get_ident() not in idents
    _cpus(monkeypatch, 1)
    order, idents = zip(*survey.each(lambda i: (i, threading.get_ident())))
    assert order == (0, 1, 2) and len(set(idents)) == 1
    monkeypatch.delattr(os, "sched_getaffinity")  # as on macOS: count the machine's CPUs
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    order, idents = zip(*survey.each(lambda i: (i, threading.get_ident())))
    assert order == (0, 1, 2) and len(set(idents)) == 1
    assert threading.active_count() == start


def test_oracles_are_bit_identical_with_one_and_three_workers(monkeypatch):
    _, background, acq, observed = _tiny_problem(freqs=(5.0, 6.0, 9.0))
    m = model.as_slowness_squared(background).values
    v = np.random.default_rng(4).standard_normal(m.shape)
    start = threading.active_count()

    def outputs(n_cpus):
        _cpus(monkeypatch, n_cpus)
        fwi, wri = _fwi(acq, observed, background), _wri(acq, observed, background)
        wri.update_wavefields(m)
        out = [*fwi.survey.data(m).blocks, fwi.value(m), fwi.gradient(m), fwi.hvp(m, v),
               wri._w, wri._e, wri._outside_sq, wri.data_residual_norm(m)]
        assert threading.active_count() == start
        return [np.asarray(x).tobytes() for x in out]

    assert outputs(1) == outputs(3)


def test_every_factor_is_dropped_on_the_thread_that_made_it(monkeypatch):
    # SuperLU frees a factor only on its own thread, so any other drop leaks it
    _, background, acq, observed = _tiny_problem(freqs=(5.0, 6.0, 9.0))
    m = model.as_slowness_squared(background).values
    _cpus(monkeypatch, 3)
    factorize, made, same = linsys.factorize, [], []

    def tracked(a, last=()):
        fact = factorize(a, last=last)
        made.append(threading.get_ident())
        weakref.finalize(fact, lambda ident: same.append(threading.get_ident() == ident),
                         made[-1])
        return fact

    monkeypatch.setattr(linsys, "factorize", tracked)
    fwi, wri = _fwi(acq, observed, background), _wri(acq, observed, background)
    fwi.survey.data(m)
    fwi.hvp(m, fwi.gradient(m))
    fwi.value(0.9 * m)  # drops the factors of m
    wri.update_wavefields(m)
    wri.data_residual_norm(m)
    del fwi, wri
    gc.collect()
    assert len(same) == len(made) == 5 * 3 and all(same)


def test_a_nan_model_raises_from_the_worker_threads(monkeypatch):
    _, background, acq, observed = _tiny_problem(freqs=(5.0, 6.0, 9.0))
    m = model.as_slowness_squared(background).values.copy()
    m[5, 5] = np.nan
    start = threading.active_count()
    _cpus(monkeypatch, 3)
    wri = _wri(acq, observed, background)
    for call in (wri.survey.data, wri.update_wavefields, wri.data_residual_norm):
        with pytest.raises(NumericalError, match=r"\(5, 5\)"):
            call(m)
        assert threading.active_count() == start


def test_wri_field_update_decreases_joint_objective():
    true, background, acq, observed = _tiny_problem()
    mu = 3e-4
    oracle = _wri(acq, observed, background, mu=mu)
    m0 = model.as_slowness_squared(background).values
    oracle.update_wavefields(m0)
    m1 = m0 * (1.0 + 1e-3)  # a model step away from where u was solved

    def joint(m, fields_at):
        # the frozen misfit plus the data penalty of the fields it froze
        return oracle.value(m) + 0.5 * mu**2 * _penalty_fit(oracle, fields_at) ** 2

    before = joint(m1, m0)
    oracle.update_wavefields(m1)
    after = joint(m1, m1)
    assert after <= before + 1e-12 * max(1.0, abs(before))


def test_wri_value_after_zeroing_fields():
    # substituting u = 0 must reduce the misfit to half the source energy
    true, background, acq, observed = _tiny_problem(freqs=(6.0,), n_src=1)
    oracle = _wri(acq, observed, background)
    m = model.as_slowness_squared(background).values
    oracle.update_wavefields(m)
    ((_, b, _, _),) = _penalty_fields(oracle, m)
    oracle._w[:] = 0.0
    oracle._e[:] = b[oracle.survey.interior_rows, :]
    oracle._outside_sq = 0.0  # point sources live strictly in the interior
    b_sq = float(np.sum(np.abs(b) ** 2))
    assert oracle.value(m) == pytest.approx(0.5 * b_sq, rel=1e-12)
    assert np.all(oracle.gradient(m) == 0.0)


def test_wri_value_matches_an_independent_assembly_at_a_new_model():
    # 0.5 sum_f ||b_f - A_f(m1) u_f||^2 with A_f(m1) assembled anew and
    # u_f frozen at m_ref: pins the omega^2 weighting of the stacked state,
    # which the finite-difference and Hessian checks read back unchecked
    true, background, acq, observed = _tiny_problem()
    oracle = _wri(acq, observed, background)
    m_ref = model.as_slowness_squared(background).values
    oracle.update_wavefields(m_ref)
    m1 = model.as_slowness_squared(true).values
    collar, interior = wave.pad_collar(m_ref, 5, False)
    padded = collar.copy()
    padded[interior] = m1
    pml_velocity = 1.0 / np.sqrt(np.min(collar))
    survey = wave.Survey(background, acq, 10.0, 5)
    expected = 0.0
    for i, (f, d) in enumerate(zip(acq.frequencies, observed.blocks)):
        u, _ = survey.solve_penalty(m_ref, i, d, oracle.mu)
        a1 = wave.assemble_padded(padded, background.dz, background.dx, 2.0 * np.pi * f, 5,
                                  False, pml_velocity=pml_velocity)
        b = survey.point_sources(i)
        expected += 0.5 * float(np.sum(np.abs(b - a1 @ u) ** 2))
    assert not np.array_equal(m1, m_ref)
    assert oracle.value(m1) == pytest.approx(expected, rel=1e-10)


# ---------------------------------------------------------------------------
# continuation driver


def _drive(method="fwi", batches=((6.0, 9.0),), max_outer=3, denoiser=None, mu=3e-4,
           algorithm="nadmm"):
    true, background, acq, observed = _tiny_problem()
    config = optim.OptConfig(
        lam=0.0, hessian="lbfgs" if method == "fwi" else "diagonal", max_outer=max_outer
    )
    return inversion.multiscale_drive(
        model.as_slowness_squared(background).values,
        observed, acq, method, algorithm,
        denoiser or Denoiser("identity"), 0.0, mu,
        [list(batches)], config, background, f_peak=10.0, pml_cells=5,
    )


def test_multiscale_single_batch_equivalent_to_direct_solve():
    true, background, acq, observed = _tiny_problem()
    config = optim.OptConfig(lam=0.0, hessian="diagonal", max_outer=3)
    for algorithm in ("nista", "nadmm"):
        oracle = _wri(acq, observed, background)
        direct = optim.proximal_newton_solve(
            oracle, Denoiser("identity"), config,
            model.as_slowness_squared(background).values, algorithm,
        )
        m_drive, results = _drive(method="irwri", algorithm=algorithm)
        assert len(results) == 1
        assert np.array_equal(m_drive, direct.m), algorithm


def test_multiscale_batches_warm_start(monkeypatch):
    solve, starts = optim.proximal_newton_solve, []

    def recording(oracle, denoiser, config, m0, method):
        starts.append((oracle.survey.acq.frequencies, m0.copy()))
        return solve(oracle, denoiser, config, m0, method)

    monkeypatch.setattr(inversion, "proximal_newton_solve", recording)
    m_final, results = _drive(batches=((6.0,), (9.0,)))
    assert len(results) == 2
    assert [freqs for freqs, _ in starts] == [(6.0,), (9.0,)]
    assert np.array_equal(starts[1][1], results[0].m)
    assert np.array_equal(m_final, results[1].m)


def test_multiscale_empty_plan_rejected():
    true, background, acq, observed = _tiny_problem()
    with pytest.raises(ConfigError):
        inversion.multiscale_drive(
            model.as_slowness_squared(background).values, observed, acq,
            "fwi", "nadmm", Denoiser("identity"), 0.0, None,
            [], optim.OptConfig(), background,
        )


@pytest.mark.parametrize("mu", [None, 0.0, np.nan, np.inf])
def test_multiscale_penalty_needs_positive_mu(mu):
    with pytest.raises(ConfigError, match="positive mu"):
        _drive(method="irwri", mu=mu)


def test_fwi_inversion_reduces_model_error():
    true, background, acq, observed = _tiny_problem(v_inc=2100.0)
    m0 = model.as_slowness_squared(background).values
    m_true = model.as_slowness_squared(true).values
    config = optim.OptConfig(lam=0.0, hessian="lbfgs", max_outer=12)
    oracle = _fwi(acq, observed, background)
    result = optim.proximal_newton_solve(oracle, Denoiser("identity"), config, m0, "nadmm")
    assert inversion.rmse(result.m, m_true) < inversion.rmse(m0, m_true)
    assert oracle.value(result.m) < 0.05 * oracle.value(m0)


def test_wri_nista_tv_inversion_at_41_lowers_model_error_within_the_box():
    # all-four inclusions at 41^2 and 50 m, 5 surface sources, 3/4/5 Hz, 20 dB
    # noise, tv2d at lambda = 1e-9 and 5 outer steps from 2000 m/s
    n, h, freqs, inner_iters = 41, 50.0, (3.0, 4.0, 5.0), 100
    true = model.make_inclusion_model("all-four", n, n, h, h, 2000.0, 2500.0)
    init = model.ModelGrid.from_values(np.full((n, n), 2000.0), h, h)
    acq = model.surface_boundary_geometry(n, n, freqs, 5)
    clean = wave.forward(true, acq, 10.0, 10, pml_velocity=2000.0)
    observed = wave.add_noise(clean, 20.0, 7)
    mu = inversion.default_penalty_mu(init, freqs[0], pml_cells=10)
    m0 = model.as_slowness_squared(init).values
    m_true = model.as_slowness_squared(true).values
    config = optim.OptConfig(lam=1e-9, max_outer=5, inner_iters=inner_iters,
                             hessian="diagonal", seed=7)
    m, (batch,) = inversion.multiscale_drive(
        m0, observed, acq, "irwri", "nista", make_denoiser("tv2d", ref=m0), 1e-9, mu,
        [[freqs]], config, init, 10.0, 10,
    )
    assert batch.n_outer == 5
    assert inversion.rmse(m, m_true) < inversion.rmse(m0, m_true)
    assert np.all((m >= 1.0 / 4500.0**2) & (m <= 1.0 / 1500.0**2))
    assert all(0 < row.inner_sweeps < inner_iters for row in batch.history)


def test_fwi_line_search_trials_are_the_only_refactorizations(monkeypatch):
    # FwiOracle keeps the last model's factorizations, so the next outer
    # step's gradient reuses the accepted trial's: per frequency, one LU for
    # the start, one for the L-BFGS curvature probe, one per line-search trial
    true, background, acq, observed = _tiny_problem()
    factorize, line_search = linsys.factorize, optim.line_search
    calls, trials = [], []

    def counting_factorize(*args, **kwargs):
        calls.append(1)
        return factorize(*args, **kwargs)

    def counting_line_search(*args, **kwargs):
        result = line_search(*args, **kwargs)
        trials.append(result.trials)
        return result

    monkeypatch.setattr(linsys, "factorize", counting_factorize)
    monkeypatch.setattr(optim, "line_search", counting_line_search)
    config = optim.OptConfig(lam=0.0, hessian="lbfgs", max_outer=3)
    m0 = model.as_slowness_squared(background).values
    result = optim.proximal_newton_solve(
        _fwi(acq, observed, background), Denoiser("identity"), config, m0, "nadmm"
    )
    assert result.n_outer == 3 and len(trials) == 3
    assert len(calls) == len(acq.frequencies) * (1 + 1 + sum(trials))


# ---------------------------------------------------------------------------
# run config parsing


def test_parse_run_config(tmp_path):
    text = """
# comment line
model_init = init.grd
model_true = true.grd
method = irwri
algorithm = nadmm
denoiser = tv2d:iters=20
lambda = 1.5
mu = 3e-4
frequencies = 5,7,10,12.5
batches = 5,7 | 10,12.5
max_outer = 40
c_fixed = 0.25
stopping = data-residual:auto
snr_db = 5
seed = 3
out_dir = out
"""
    path = tmp_path / "run.cfg"
    path.write_text(text)
    cfg = inversion.parse_run_config(path)
    assert cfg.model_init == "init.grd"
    assert cfg.opt.lam == 1.5
    assert cfg.frequencies == (5.0, 7.0, 10.0, 12.5)
    assert cfg.batches == ((5.0, 7.0), (10.0, 12.5))
    assert cfg.snr_db == 5.0
    assert cfg.stopping == ("data-residual", None)
    assert cfg.opt.c_fixed == 0.25
    assert inversion.RunConfig().opt.c_fixed is None


def test_parse_run_config_rejects_bad_lines(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("model_init = a.grd\nfrequencies = 5\nbogus_key = 1\n")
    with pytest.raises(ConfigError):
        inversion.parse_run_config(path)
    path.write_text("frequencies = 5\n")
    with pytest.raises(ConfigError):
        inversion.parse_run_config(path)
    # the step scale has one key, c_fixed
    path.write_text("model_init = a.grd\nfrequencies = 5\nc_rule = fixed:0.5\n")
    with pytest.raises(ConfigError, match="unknown key 'c_rule'"):
        inversion.parse_run_config(path)
