import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxfwi import model
from proxfwi.errors import FormatError, GeometryError


def test_grid_roundtrip_trivial(tmp_path):
    g = model.ModelGrid.from_values(np.full((3, 3), 2000.0), 10.0, 10.0)
    path = tmp_path / "g.grd"
    model.write_grid(g, path)
    assert model.read_grid(path) == g


def test_grid_roundtrip_preserves_kind_and_spacing(tmp_path):
    values = np.linspace(1.0, 2.0, 12).reshape(3, 4)
    g = model.ModelGrid.from_values(values, 12.5, 7.25, model.KIND_SLOWNESS_SQ)
    path = tmp_path / "g.grd"
    model.write_grid(g, path)
    back = model.read_grid(path)
    assert back.kind == model.KIND_SLOWNESS_SQ
    assert (back.dz, back.dx) == (12.5, 7.25)
    assert np.array_equal(back.values, values)


def test_write_rejects_nan(tmp_path):
    g = model.ModelGrid.from_values(np.full((3, 3), 1.0), 1.0, 1.0)
    g.values[1, 1] = np.nan  # mutate behind the constructor's back
    with pytest.raises(FormatError):
        model.write_grid(g, tmp_path / "bad.grd")


def test_file_size_matches_layout(tmp_path):
    g = model.make_inclusion_model("square")
    path = tmp_path / "g.grd"
    model.write_grid(g, path)
    # 32-byte header plus 8 bytes per value
    assert path.stat().st_size == 32 + 8 * 81 * 81
    assert model.read_grid(path) == g


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.grd"
    path.write_bytes(b"NOPE" + b"\x00" * 60)
    with pytest.raises(FormatError):
        model.read_grid(path)


def test_truncated_payload_rejected(tmp_path):
    g = model.ModelGrid.from_values(np.full((3, 3), 1.0), 1.0, 1.0)
    path = tmp_path / "g.grd"
    model.write_grid(g, path)
    path.write_bytes(path.read_bytes()[:-4])
    with pytest.raises(FormatError):
        model.read_grid(path)


@settings(max_examples=25, deadline=None)
@given(
    nz=st.integers(3, 8),
    nx=st.integers(3, 8),
    seed=st.integers(0, 2**31 - 1),
    kind=st.sampled_from([model.KIND_VELOCITY, model.KIND_SLOWNESS_SQ]),
)
def test_roundtrip_property(tmp_path_factory, nz, nx, seed, kind):
    rng = np.random.default_rng(seed)
    values = np.exp(rng.standard_normal((nz, nx)) * 3.0)
    g = model.ModelGrid.from_values(values, rng.uniform(0.1, 100), rng.uniform(0.1, 100), kind)
    path = tmp_path_factory.mktemp("grids") / "g.grd"
    model.write_grid(g, path)
    assert model.read_grid(path) == g


def test_freq_data_roundtrip(tmp_path):
    rng = np.random.default_rng(7)
    blocks = tuple(rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3)) for _ in range(2))
    data = model.FreqData((5.0, 7.0), blocks)
    path = tmp_path / "d.fdd"
    model.write_freq_data(data, path)
    assert model.read_freq_data(path) == data


def test_freq_data_truncation_rejected(tmp_path):
    data = model.FreqData((5.0,), (np.ones((2, 2), dtype=complex),))
    path = tmp_path / "d.fdd"
    model.write_freq_data(data, path)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(FormatError):
        model.read_freq_data(path)


# ---------------------------------------------------------------------------
# inclusion models


def test_square_inclusion_two_values():
    g = model.make_inclusion_model("square", 81, 81, 25.0, 25.0, 2000.0, 2500.0)
    assert sorted(set(g.values.ravel())) == [2000.0, 2500.0]


def test_degenerate_inclusion_homogeneous():
    g = model.make_inclusion_model("disk", v_background=2000.0, v_inclusion=2000.0)
    assert set(g.values.ravel()) == {2000.0}


def test_disk_cell_count_matches_area():
    nz = nx = 81
    dz = dx = 25.0
    radius = 300.0
    g = model.make_inclusion_model("disk", nz, nx, dz, dx, 2000.0, 2500.0, size=radius)
    count = int(np.count_nonzero(g.values == 2500.0))
    # oracle: enumerate lattice points inside the disk
    zc, xc = (nz - 1) / 2 * dz, (nx - 1) / 2 * dx
    enum = sum(
        1
        for i in range(nz)
        for j in range(nx)
        if (i * dz - zc) ** 2 + (j * dx - xc) ** 2 <= radius**2
    )
    assert count == enum
    area_cells = np.pi * radius**2 / (dz * dx)
    perimeter_cells = 2 * np.pi * radius / min(dz, dx)
    assert abs(count - area_cells) <= 2 * perimeter_cells


def test_all_four_contains_every_shape_footprint():
    g = model.make_inclusion_model("all-four")
    # inclusions live strictly inside and fill all four quadrants
    assert sorted(set(g.values.ravel())) == [2000.0, 2500.0]
    mask = g.values == 2500.0
    for zsl, xsl in [(slice(0, 40), slice(0, 40)), (slice(0, 40), slice(41, 81)),
                     (slice(41, 81), slice(0, 40)), (slice(41, 81), slice(41, 81))]:
        assert mask[zsl, xsl].any()


def test_inclusion_too_large_rejected():
    with pytest.raises(GeometryError):
        model.make_inclusion_model("square", 81, 81, 25.0, 25.0, size=3000.0)


@pytest.mark.parametrize("name, value", [
    ("size", -100.0), ("size", 0.0), ("size", np.nan), ("size", np.inf),
    ("dz", np.nan), ("dz", -25.0), ("dx", 0.0), ("dx", np.inf),
    ("v_background", 0.0), ("v_background", np.nan), ("v_inclusion", np.inf),
    ("v_inclusion", -2500.0),
])
def test_inclusion_rejects_a_meaningless_parameter_naming_it(name, value):
    # the disk and the ring square a negative size into a positive one
    with pytest.raises(GeometryError, match=rf"^{name} must be finite and above 0, got "):
        model.make_inclusion_model("all-four", **{name: value})


def test_unknown_shape_rejected():
    with pytest.raises(GeometryError):
        model.make_inclusion_model("triangle")


# ---------------------------------------------------------------------------
# conversions


def test_convert_velocity_to_slowness_sq():
    g = model.ModelGrid.from_values(np.full((3, 3), 2000.0), 1.0, 1.0)
    s = model.convert(g, model.KIND_SLOWNESS_SQ)
    assert np.allclose(s.values, 2.5e-7, rtol=0, atol=0)


def test_convert_identity_kind_rejected():
    g = model.ModelGrid.from_values(np.full((3, 3), 2000.0), 1.0, 1.0)
    with pytest.raises(ValueError):
        model.convert(g, model.KIND_VELOCITY)


def test_convert_involution():
    rng = np.random.default_rng(3)
    values = np.exp(rng.standard_normal((6, 5)))
    g = model.ModelGrid.from_values(values, 2.0, 3.0)
    back = model.convert(model.convert(g, model.KIND_SLOWNESS_SQ), model.KIND_VELOCITY)
    assert np.max(np.abs(back.values - values) / values) < 1e-14
    assert (back.dz, back.dx, back.kind) == (2.0, 3.0, model.KIND_VELOCITY)


# ---------------------------------------------------------------------------
# acquisition geometry


def test_geometry_invariants():
    with pytest.raises(GeometryError):
        model.AcquisitionGeometry((), ((0, 0),), (5.0,))
    with pytest.raises(GeometryError):
        model.AcquisitionGeometry(((0, 0),), ((0, 0),), (7.0, 5.0))
    with pytest.raises(GeometryError):
        model.AcquisitionGeometry(((0, 0),), ((0, 0),), (-1.0,))
    acq = model.AcquisitionGeometry(((0, 1),), ((2, 2),), (5.0, 7.0))
    acq.validate_for(10, 10)
    with pytest.raises(GeometryError):
        acq.validate_for(2, 2)


def test_surface_boundary_geometry_layout():
    acq = model.surface_boundary_geometry(81, 81, (5.0,), n_sources=5, receiver_spacing=2)
    assert acq.n_sources == 5
    assert all(iz == 0 for iz, _ in acq.sources)
    acq.validate_for(81, 81)
    # receivers only on left/right/bottom edges
    for iz, ix in acq.receivers:
        assert ix in (0, 80) or iz == 80


def test_surface_boundary_geometry_keeps_off_a_free_surface():
    # row 0 is Dirichlet under a free surface: the default sources move to
    # row 1 and the side receivers start there; an explicit depth is kept
    base = model.surface_boundary_geometry(21, 21, (5.0,))
    acq = model.surface_boundary_geometry(21, 21, (5.0,), free_surface_top=True)
    assert [ix for _, ix in acq.sources] == [ix for _, ix in base.sources]
    assert {iz for iz, _ in acq.sources} == {1} and {iz for iz, _ in base.sources} == {0}
    assert sorted(iz for iz, ix in acq.receivers if ix == 0) == [*range(1, 20, 2), 20]
    assert sorted(iz for iz, ix in base.receivers if ix == 0) == [*range(0, 21, 2)]
    acq.validate_for(21, 21, min_iz=1)
    explicit = model.surface_boundary_geometry(21, 21, (5.0,), source_depth=0,
                                               free_surface_top=True)
    assert {iz for iz, _ in explicit.sources} == {0}
