import warnings

import numpy as np
import pytest
from scipy.special import hankel1

from proxfwi import linsys, model, wave
from proxfwi.errors import GeometryError


def _homogeneous(n, h, v=2000.0, kind=model.KIND_VELOCITY):
    return model.ModelGrid.from_values(np.full((n, n), v), h, h, kind)


def _slowness(n, h, v=2000.0):
    return model.as_slowness_squared(_homogeneous(n, h, v))


def _survey(grid, pml_cells, free_surface_top=False, freq=12.0, points=((1, 1),)):
    """Survey of ``grid`` with a source and a receiver on each of ``points``."""
    acq = model.AcquisitionGeometry(points, points, (freq,))
    return wave.Survey(grid, acq, pml_cells=pml_cells, free_surface_top=free_surface_top)


# ---------------------------------------------------------------------------
# source spectrum


def test_ricker_at_peak():
    f_peak = 10.0
    expected = (2.0 / np.sqrt(np.pi)) / (f_peak * np.e)
    assert wave.ricker_amplitude(f_peak, f_peak) == pytest.approx(expected, rel=1e-15)


def test_ricker_vanishes_at_low_frequency():
    assert abs(wave.ricker_amplitude(1e-6, 10.0)) < 1e-12


def test_ricker_peaks_at_dominant_frequency():
    freqs = np.linspace(0.5, 40.0, 4000)
    amps = [abs(wave.ricker_amplitude(f, 10.0)) for f in freqs]
    assert freqs[int(np.argmax(amps))] == pytest.approx(10.0, abs=0.02)


def test_ricker_rejects_nonpositive():
    with pytest.raises(ValueError):
        wave.ricker_amplitude(0.0, 10.0)


# ---------------------------------------------------------------------------
# assembly


def test_assemble_rejects_thin_collar():
    with pytest.raises(GeometryError):
        wave.assemble(_slowness(11, 25.0), 2 * np.pi * 5.0, pml_cells=0)
    for pml_cells in (-2, 0, 4):  # pad_collar, which every run path pads through, checks
        with pytest.raises(GeometryError, match=f"got {pml_cells}$"):
            wave.pad_collar(np.ones((11, 11)), pml_cells, False)


def test_assemble_rejects_velocity_kind():
    with pytest.raises(GeometryError):
        wave.assemble(_homogeneous(11, 25.0), 2 * np.pi * 5.0)


def test_interior_stencil_row():
    h = 10.0
    grid = _slowness(21, h)
    omega = 2 * np.pi * 10.0
    points = ((10, 10), (0, 0), (20, 3), (10, 10))
    survey = _survey(grid, 6, freq=10.0, points=points)
    system = survey.system(grid.values, 0)
    row = int(survey.rx[0])  # deep interior, far from the collar
    a = system.matrix
    entries = {
        int(col): a[row, col] for col in a.indices[a.indptr[row] : a.indptr[row + 1]]
    }
    m_val = grid.values[10, 10]
    assert entries[row] == pytest.approx(-4.0 / h**2 + omega**2 * m_val, rel=1e-14)
    neighbors = [row - 1, row + 1, row - system.nxp, row + system.nxp]
    for col in neighbors:
        assert entries[col] == pytest.approx(1.0 / h**2, rel=1e-14)
    assert len(entries) == 5

    rows = survey.rx
    assert rows.tolist() == [survey.interior_rows[iz, ix] for iz, ix in points]
    assert rows[0] == row and rows[1] == survey.pml_cells * (system.nxp + 1)
    for bad in [(21, 0), (0, -1)]:
        with pytest.raises(GeometryError):
            _survey(grid, 6, points=(bad,))
        with pytest.raises(GeometryError):
            _survey(grid, 6, points=((10, 10), bad))


def test_matrix_exactly_complex_symmetric():
    grid = _slowness(15, 20.0)
    system = wave.assemble(grid, 2 * np.pi * 8.0, pml_cells=5)
    diff = (system.matrix - system.matrix.T).tocoo()
    assert diff.nnz == 0 or np.max(np.abs(diff.data)) == 0.0


def test_assembly_affine_in_model_on_interior():
    rng = np.random.default_rng(0)
    base = 2.5e-7
    m1 = model.ModelGrid.from_values(
        base * (1 + 0.1 * rng.random((9, 9))), 25.0, 25.0, model.KIND_SLOWNESS_SQ
    )
    m2 = model.ModelGrid.from_values(
        base * (1 + 0.1 * rng.random((9, 9))), 25.0, 25.0, model.KIND_SLOWNESS_SQ
    )
    omega = 2 * np.pi * 6.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        s1 = wave.assemble(m1, omega, pml_cells=5, pml_velocity=2000.0)
        s2 = wave.assemble(m2, omega, pml_cells=5, pml_velocity=2000.0)
    diff = (s1.matrix - s2.matrix).toarray()
    interior = _survey(m1, 5).interior_rows.ravel()
    expected = omega**2 * (m1.values - m2.values).ravel()
    # tolerance limited by cancellation: diagonal entries are ~1e4x larger
    # than their differences
    assert np.allclose(np.diag(diff)[interior], expected, rtol=1e-9, atol=0)
    # interior off-diagonals identical
    off = diff.copy()
    np.fill_diagonal(off, 0.0)
    assert np.max(np.abs(off[np.ix_(interior, interior)])) == 0.0


def test_low_sampling_warns():
    grid = _slowness(11, 100.0)  # 2 km/s at 100 m spacing, 10 Hz -> 2 ppw
    with pytest.warns(UserWarning, match="points per minimum wavelength"):
        wave.assemble(grid, 2 * np.pi * 10.0, pml_cells=5)


@pytest.mark.parametrize("free_surface", [False, True])
def test_pad_collar_replicates_edges_around_the_interior(free_surface):
    values = np.random.default_rng(2).random((4, 6))
    padded, interior = wave.pad_collar(values, 5, free_surface)
    top = 0 if free_surface else 5
    assert padded.shape == (top + 4 + 5, 5 + 6 + 5)
    assert np.array_equal(padded[interior], values)
    # every collar cell holds the value of the nearest interior cell
    rows = np.clip(np.arange(padded.shape[0]) - top, 0, 3)
    cols = np.clip(np.arange(padded.shape[1]) - 5, 0, 5)
    assert np.array_equal(padded, values[np.ix_(rows, cols)])


@pytest.mark.parametrize("free_surface", [False, True])
def test_system_layout_matches_pad_collar(free_surface):
    grid = _slowness(11, 10.0)
    system = wave.assemble(grid, 2 * np.pi * 12.0, pml_cells=5, free_surface_top=free_surface)
    padded, interior = wave.pad_collar(grid.values, 5, free_surface)
    assert system.nzp - 11 - 5 == (0 if free_surface else 5) == interior[0].start
    assert (system.nzp, system.nxp) == padded.shape
    lin = np.arange(system.n).reshape(system.nzp, system.nxp)
    assert np.array_equal(_survey(grid, 5, free_surface).interior_rows, lin[interior])


def test_free_surface_top_row_is_dirichlet():
    grid = _slowness(11, 10.0)
    system = wave.assemble(grid, 2 * np.pi * 12.0, pml_cells=5, free_surface_top=True)
    assert system.nzp == 11 + 5  # no collar rows above the surface
    row = 0 * system.nxp + system.nxp // 2  # surface row
    a = system.matrix
    cols = a.indices[a.indptr[row] : a.indptr[row + 1]]
    vals = a.data[a.indptr[row] : a.indptr[row + 1]]
    assert list(cols) == [row] and vals[0] == 1.0 + 0.0j


# ---------------------------------------------------------------------------
# forward modeling


def test_zero_amplitude_source_gives_zero_field():
    grid = _slowness(11, 10.0)
    system = wave.assemble(grid, 2 * np.pi * 12.0, pml_cells=5)
    b = 0.0 * _survey(grid, 5, points=((5, 5),)).point_sources(0)
    assert np.all(linsys.factorize(system.matrix).solve(b) == 0.0)


@pytest.mark.parametrize("heterogeneous", [False, True])
def test_reciprocity(heterogeneous):
    n, h = 31, 10.0
    values = np.full((n, n), 2000.0)
    if heterogeneous:
        rng = np.random.default_rng(1)
        values *= 1.0 + 0.15 * rng.random((n, n))
    grid = model.ModelGrid.from_values(values, h, h)
    a_pt, b_pt = (8, 10), (22, 19)
    acq_ab = model.AcquisitionGeometry((a_pt,), (b_pt,), (12.0,))
    acq_ba = model.AcquisitionGeometry((b_pt,), (a_pt,), (12.0,))
    d_ab = wave.forward(grid, acq_ab, f_peak=10.0, pml_cells=8).blocks[0][0, 0]
    d_ba = wave.forward(grid, acq_ba, f_peak=10.0, pml_cells=8).blocks[0][0, 0]
    assert abs(d_ab - d_ba) <= 1e-8 * abs(d_ab)


# ---------------------------------------------------------------------------
# condensed many-source modeling


def _survey_41(n_sources, freqs=(6.0, 9.0)):
    """41^2 heterogeneous model; receivers on three edges plus every source node."""
    rng = np.random.default_rng(4)
    grid = model.ModelGrid.from_values(2000.0 * (1.0 + 0.2 * rng.random((41, 41))), 25.0, 25.0)
    base = model.surface_boundary_geometry(41, 41, freqs, n_sources)
    receivers = tuple(sorted(set(base.receivers) | set(base.sources)))
    return grid, model.AcquisitionGeometry(base.sources, receivers, freqs)


def _plain_blocks(grid, acq, pml_cells=10):
    """Reference data: one full-length solve per source, sampled at the receivers."""
    survey = wave.Survey(grid, acq, pml_cells=pml_cells)
    blocks = []
    for i, f in enumerate(acq.frequencies):
        system = wave.assemble(model.as_slowness_squared(grid), 2 * np.pi * f, pml_cells)
        b = survey.point_sources(i)
        blocks.append(linsys.factorize(system.matrix).solve(b)[survey.rx])
    return blocks


def test_condensed_forward_matches_plain_solve_and_is_reciprocal():
    grid, acq = _survey_41(32)
    assert len(acq.sources) >= wave.CONDENSE_MIN_SOURCES
    data = wave.forward(grid, acq)
    src_rows = [acq.receivers.index(s) for s in acq.sources]
    for block, ref in zip(data.blocks, _plain_blocks(grid, acq)):
        assert np.linalg.norm(block - ref) <= 1e-12 * np.linalg.norm(ref)
        r = block[src_rows, :]
        assert np.linalg.norm(r - r.T) <= 1e-10 * np.linalg.norm(r)


def test_few_sources_keep_the_plain_block_solve():
    grid, acq = _survey_41(4)
    assert len(acq.sources) < wave.CONDENSE_MIN_SOURCES
    for block, ref in zip(wave.forward(grid, acq).blocks, _plain_blocks(grid, acq)):
        assert np.array_equal(block, ref)


def test_condensed_forward_factors_through_linsys_once_per_frequency(monkeypatch):
    # the benchmark's per-layer trace counts modeling LU at linsys.factorize
    grid, acq = _survey_41(32, freqs=(5.0, 7.0, 9.0))
    calls = []
    original = linsys.factorize

    def counting(a, last=()):
        calls.append(len(last) > 0)
        return original(a, last=last)

    monkeypatch.setattr(linsys, "factorize", counting)
    wave.forward(grid, acq)
    assert calls == [True, True, True]


def _greens_error(n, h, pml):
    """Max amplitude and phase error against the analytic line-source field."""
    v, f = 2000.0, 10.0
    grid = model.as_slowness_squared(
        model.ModelGrid.from_values(np.full((n, n), v), h, h)
    )
    mid = n // 2
    offsets = np.arange(15, 31) * (10.0 / h)  # fixed physical range 150..300 m
    rxs = [(mid, mid + int(round(d))) for d in offsets]
    survey = wave.Survey(grid, model.AcquisitionGeometry(((mid, mid),), rxs, (f,)), f, pml)
    system = wave.assemble(grid, 2 * np.pi * f, pml)
    field = linsys.factorize(system.matrix).solve(survey.point_sources(0))
    u = field[survey.rx, 0]
    k = 2 * np.pi * f / v
    r = np.array([(rx[1] - mid) * h for rx in rxs])
    reference = -0.25j * hankel1(0, k * r)
    ratio = u / (reference * (u[0] / reference[0]))  # normalize on one receiver
    return np.max(np.abs(np.abs(ratio) - 1.0)), np.max(np.abs(np.angle(ratio)))


def test_forward_matches_analytic_greens_function():
    amp_err, phase_err = _greens_error(101, 10.0, 10)
    assert amp_err < 0.03
    assert phase_err < 0.05


def test_second_order_grid_convergence(monkeypatch):
    # stronger absorption keeps boundary reflections below the discretization
    # error so the ratio isolates the stencil order
    monkeypatch.setattr(wave, "PML_REFLECTION", 1e-7)
    coarse_amp, _ = _greens_error(101, 10.0, 20)
    fine_amp, _ = _greens_error(201, 5.0, 40)
    ratio = coarse_amp / fine_amp
    assert 2.5 <= ratio <= 6.5  # ~4x for a second-order stencil


# ---------------------------------------------------------------------------
# noise


def _toy_data(seed=0):
    rng = np.random.default_rng(seed)
    blocks = tuple(
        rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4)) for _ in range(3)
    )
    return model.FreqData((5.0, 7.0, 10.0), blocks)


def test_noise_disabled_flag():
    data = _toy_data()
    assert wave.add_noise(data, None) == data
    assert wave.add_noise(data, np.inf) == data


@pytest.mark.parametrize("snr_db", [np.nan, -np.inf])
def test_noise_rejects_nan_and_negative_infinity(snr_db):
    with pytest.raises(ValueError, match="SNR must be a number"):
        wave.add_noise(_toy_data(), snr_db)


def test_noise_zero_db_equal_rms():
    data = _toy_data()
    noisy = wave.add_noise(data, 0.0, seed=1)
    noise = np.concatenate(
        [(n - c).ravel() for n, c in zip(noisy.blocks, data.blocks)]
    )
    signal = np.concatenate([c.ravel() for c in data.blocks])
    assert np.linalg.norm(noise) == pytest.approx(np.linalg.norm(signal), rel=1e-6)


def test_noise_hits_target_snr_exactly():
    data = _toy_data()
    noisy = wave.add_noise(data, 5.0, seed=2)
    noise = np.concatenate(
        [(n - c).ravel() for n, c in zip(noisy.blocks, data.blocks)]
    )
    signal = np.concatenate([c.ravel() for c in data.blocks])
    realized = 20 * np.log10(np.linalg.norm(signal) / np.linalg.norm(noise))
    assert abs(realized - 5.0) < 0.01


def test_noise_deterministic_and_seed_dependent():
    data = _toy_data()
    assert wave.add_noise(data, 5.0, seed=3) == wave.add_noise(data, 5.0, seed=3)
    assert wave.add_noise(data, 5.0, seed=3) != wave.add_noise(data, 5.0, seed=4)


def test_noise_rejects_zero_data():
    data = model.FreqData((5.0,), (np.full((2, 2), 1e-300 * 0.0, dtype=complex),))
    with pytest.raises(ValueError):
        wave.add_noise(data, 5.0)
