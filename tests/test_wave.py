import warnings

import numpy as np
import pytest
from scipy.special import hankel1

from proxfwi import model, wave
from proxfwi.errors import GeometryError


def _homogeneous(n, h, v=2000.0, kind=model.KIND_VELOCITY):
    return model.ModelGrid.from_values(np.full((n, n), v), h, h, kind)


def _slowness(n, h, v=2000.0):
    return model.as_slowness_squared(_homogeneous(n, h, v))


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


def test_assemble_rejects_velocity_kind():
    with pytest.raises(GeometryError):
        wave.assemble(_homogeneous(11, 25.0), 2 * np.pi * 5.0)


def test_interior_stencil_row():
    h = 10.0
    grid = _slowness(21, h)
    omega = 2 * np.pi * 10.0
    system = wave.assemble(grid, omega, pml_cells=6)
    row = system.padded_index(10, 10)  # deep interior, far from the collar
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

    points = [(10, 10), (0, 0), (20, 3), (10, 10)]
    rows = system.padded_indices(points)
    assert rows.tolist() == [system.padded_index(iz, ix) for iz, ix in points]
    assert rows[0] == row and rows[1] == system.pml_cells * (system.nxp + 1)
    assert system.padded_indices([]).shape == (0,)
    for bad in [(21, 0), (0, -1)]:
        with pytest.raises(GeometryError):
            system.padded_index(*bad)
        with pytest.raises(GeometryError):
            system.padded_indices([(10, 10), bad])


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
    interior = s1.interior_indices().ravel()
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


def test_free_surface_top_row_is_dirichlet():
    grid = _slowness(11, 10.0)
    system = wave.assemble(grid, 2 * np.pi * 12.0, pml_cells=5, free_surface_top=True)
    assert system.pad_top == 0
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
    b = system.point_sources([(5, 5)], 0.0)
    assert np.all(system.factor().solve(b) == 0.0)


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


def _greens_error(n, h, pml, reflection=wave.PML_REFLECTION):
    """Max amplitude and phase error against the analytic line-source field."""
    v, f = 2000.0, 10.0
    grid = model.as_slowness_squared(
        model.ModelGrid.from_values(np.full((n, n), v), h, h)
    )
    mid = n // 2
    offsets = np.arange(15, 31) * (10.0 / h)  # fixed physical range 150..300 m
    rxs = [(mid, mid + int(round(d))) for d in offsets]
    system = wave.assemble(grid, 2 * np.pi * f, pml ,reflection=reflection)
    b = system.point_sources([(mid, mid)], wave.ricker_amplitude(f, f))
    field = system.factor().solve(b)
    u = np.array([field[system.padded_index(*rx), 0] for rx in rxs])
    k = 2 * np.pi * f / v
    r = np.array([(rx[1] - mid) * h for rx in rxs])
    reference = -0.25j * hankel1(0, k * r)
    ratio = u / (reference * (u[0] / reference[0]))  # normalize on one receiver
    return np.max(np.abs(np.abs(ratio) - 1.0)), np.max(np.abs(np.angle(ratio)))


def test_forward_matches_analytic_greens_function():
    amp_err, phase_err = _greens_error(101, 10.0, 10)
    assert amp_err < 0.03
    assert phase_err < 0.05


def test_second_order_grid_convergence():
    # stronger absorption keeps boundary reflections below the discretization
    # error so the ratio isolates the stencil order
    coarse_amp, _ = _greens_error(101, 10.0, 20, reflection=1e-7)
    fine_amp, _ = _greens_error(201, 5.0, 40, reflection=1e-7)
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
