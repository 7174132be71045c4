"""Grid data model, binary file formats, and synthetic inclusion benchmarks.

Grids are stored row-major with x (horizontal) fastest everywhere: in memory
``values[iz, ix]`` and on disk in the same order.  Velocity (m/s) is the
I/O-facing parametrization; squared slowness (s^2/m^2) is what the inversion
works in.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError, GeometryError

KIND_VELOCITY = "velocity"
KIND_SLOWNESS_SQ = "squared-slowness"

_KIND_CODES = {KIND_VELOCITY: 0, KIND_SLOWNESS_SQ: 1}
_CODE_KINDS = {code: kind for kind, code in _KIND_CODES.items()}

GRID_MAGIC = b"GRD1"
DATA_MAGIC = b"FDD1"

# magic | kind u8 | 3 pad bytes | nz u32 | nx u32 | dz f64 | dx f64  -> 32 bytes
_GRID_HEADER = struct.Struct("<4sB3xIIdd")
_DATA_HEADER = struct.Struct("<4sI")
_BLOCK_HEADER = struct.Struct("<dII")


@dataclass(frozen=True)
class ModelGrid:
    """2D rectangular parameter field with spacing metadata.

    ``values`` has shape (nz, nx); entries are m/s for kind "velocity" and
    s^2/m^2 for kind "squared-slowness".  Instances are treated as immutable
    value objects after construction.
    """

    nz: int
    nx: int
    dz: float
    dx: float
    values: np.ndarray
    kind: str = KIND_VELOCITY

    def __post_init__(self):
        if self.kind not in _KIND_CODES:
            raise GeometryError(f"unknown grid kind {self.kind!r}")
        if self.nz < 3 or self.nx < 3:
            raise GeometryError(f"grid must be at least 3x3, got {self.nz}x{self.nx}")
        if not (self.dz > 0.0 and self.dx > 0.0):
            raise GeometryError(f"grid spacing must be positive, got dz={self.dz}, dx={self.dx}")
        vals = np.ascontiguousarray(self.values, dtype=np.float64)
        if vals.shape != (self.nz, self.nx):
            raise GeometryError(f"values shape {vals.shape} != ({self.nz}, {self.nx})")
        _check_values(vals)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "dz", float(self.dz))
        object.__setattr__(self, "dx", float(self.dx))

    @classmethod
    def from_values(cls, values, dz, dx, kind=KIND_VELOCITY) -> "ModelGrid":
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 2:
            raise GeometryError(f"expected a 2D field, got shape {values.shape}")
        return cls(values.shape[0], values.shape[1], dz, dx, values, kind)

    def with_values(self, values) -> "ModelGrid":
        """New grid with the same geometry/kind but different values."""
        return ModelGrid(self.nz, self.nx, self.dz, self.dx, np.asarray(values), self.kind)

    def __eq__(self, other):
        if not isinstance(other, ModelGrid):
            return NotImplemented
        return (
            self.nz == other.nz
            and self.nx == other.nx
            and self.dz == other.dz
            and self.dx == other.dx
            and self.kind == other.kind
            and np.array_equal(self.values, other.values)
        )


def _check_values(vals: np.ndarray):
    if not np.all(np.isfinite(vals)):
        raise FormatError("grid contains non-finite values")
    if not np.all(vals > 0.0):
        raise FormatError("grid values must be strictly positive")


@dataclass(frozen=True)
class AcquisitionGeometry:
    """Source/receiver grid indices (iz, ix) and the frequency list in Hz."""

    sources: tuple
    receivers: tuple
    frequencies: tuple

    def __post_init__(self):
        sources = tuple((int(iz), int(ix)) for iz, ix in self.sources)
        receivers = tuple((int(iz), int(ix)) for iz, ix in self.receivers)
        freqs = tuple(float(f) for f in self.frequencies)
        if not sources or not receivers:
            raise GeometryError("source and receiver lists must be non-empty")
        if not freqs:
            raise GeometryError("frequency list must be non-empty")
        if any(f <= 0.0 for f in freqs):
            raise GeometryError("frequencies must be strictly positive")
        if any(b <= a for a, b in zip(freqs, freqs[1:])):
            raise GeometryError("frequencies must be strictly increasing")
        object.__setattr__(self, "sources", sources)
        object.__setattr__(self, "receivers", receivers)
        object.__setattr__(self, "frequencies", freqs)

    @property
    def n_sources(self) -> int:
        return len(self.sources)

    @property
    def n_receivers(self) -> int:
        return len(self.receivers)

    def validate_for(self, nz: int, nx: int, min_iz: int = 0):
        """Check all indices lie inside an nz-by-nx interior grid."""
        for name, pts in (("source", self.sources), ("receiver", self.receivers)):
            for iz, ix in pts:
                if not (min_iz <= iz < nz and 0 <= ix < nx):
                    raise GeometryError(f"{name} ({iz}, {ix}) outside interior {nz}x{nx}")

    def subset(self, frequencies) -> "AcquisitionGeometry":
        """Same layout restricted to a subset of the frequencies."""
        freqs = tuple(float(f) for f in frequencies)
        missing = [f for f in freqs if f not in self.frequencies]
        if missing:
            raise GeometryError(f"frequencies {missing} not part of this acquisition")
        return AcquisitionGeometry(self.sources, self.receivers, freqs)


@dataclass(frozen=True)
class FreqData:
    """Per-frequency complex data matrices of shape (n_receivers, n_sources)."""

    frequencies: tuple
    blocks: tuple = field(repr=False)

    def __post_init__(self):
        freqs = tuple(float(f) for f in self.frequencies)
        blocks = tuple(np.ascontiguousarray(b, dtype=np.complex128) for b in self.blocks)
        if len(freqs) != len(blocks):
            raise FormatError("frequency and block counts differ")
        if not blocks:
            raise FormatError("FreqData must contain at least one block")
        shape = blocks[0].shape
        for b in blocks:
            if b.ndim != 2 or b.shape != shape:
                raise FormatError("all data blocks must share one (n_rx, n_src) shape")
            if not np.all(np.isfinite(b.view(np.float64))):
                raise FormatError("data contains non-finite entries")
        object.__setattr__(self, "frequencies", freqs)
        object.__setattr__(self, "blocks", blocks)

    @property
    def n_receivers(self) -> int:
        return self.blocks[0].shape[0]

    @property
    def n_sources(self) -> int:
        return self.blocks[0].shape[1]

    def block(self, freq: float) -> np.ndarray:
        for f, b in zip(self.frequencies, self.blocks):
            if f == float(freq):
                return b
        raise KeyError(f"no block for frequency {freq}")

    def subset(self, frequencies) -> "FreqData":
        return FreqData(tuple(frequencies), tuple(self.block(f) for f in frequencies))

    def norm(self) -> float:
        return float(np.sqrt(sum(np.sum(np.abs(b) ** 2) for b in self.blocks)))

    def __eq__(self, other):
        if not isinstance(other, FreqData):
            return NotImplemented
        return self.frequencies == other.frequencies and all(
            np.array_equal(a, b) for a, b in zip(self.blocks, other.blocks)
        )


# ---------------------------------------------------------------------------
# binary I/O


def write_grid(grid: ModelGrid, path):
    """Write a grid file; round-trips bit-exactly through read_grid."""
    _check_values(grid.values)  # values array may have been mutated behind our back
    header = _GRID_HEADER.pack(
        GRID_MAGIC, _KIND_CODES[grid.kind], grid.nz, grid.nx, grid.dz, grid.dx
    )
    payload = np.ascontiguousarray(grid.values, dtype="<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def read_grid(path) -> ModelGrid:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _GRID_HEADER.size:
        raise FormatError(f"{path}: truncated grid header")
    magic, code, nz, nx, dz, dx = _GRID_HEADER.unpack_from(raw)
    if magic != GRID_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    if code not in _CODE_KINDS:
        raise FormatError(f"{path}: unknown kind code {code}")
    expected = _GRID_HEADER.size + 8 * nz * nx
    if len(raw) != expected:
        raise FormatError(f"{path}: payload size {len(raw)} != expected {expected}")
    values = np.frombuffer(raw, dtype="<f8", offset=_GRID_HEADER.size).reshape(nz, nx)
    try:
        return ModelGrid(nz, nx, dz, dx, values.copy(), _CODE_KINDS[code])
    except GeometryError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def write_freq_data(data: FreqData, path):
    with open(path, "wb") as fh:
        fh.write(_DATA_HEADER.pack(DATA_MAGIC, len(data.frequencies)))
        for freq, block in zip(data.frequencies, data.blocks):
            n_rx, n_src = block.shape
            fh.write(_BLOCK_HEADER.pack(freq, n_rx, n_src))
            fh.write(np.ascontiguousarray(block, dtype="<c16").tobytes())


def read_freq_data(path) -> FreqData:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _DATA_HEADER.size:
        raise FormatError(f"{path}: truncated data header")
    magic, n_freq = _DATA_HEADER.unpack_from(raw)
    if magic != DATA_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    offset = _DATA_HEADER.size
    freqs, blocks = [], []
    for _ in range(n_freq):
        if len(raw) < offset + _BLOCK_HEADER.size:
            raise FormatError(f"{path}: truncated block header")
        freq, n_rx, n_src = _BLOCK_HEADER.unpack_from(raw, offset)
        offset += _BLOCK_HEADER.size
        nbytes = 16 * n_rx * n_src
        if len(raw) < offset + nbytes:
            raise FormatError(f"{path}: truncated block payload")
        block = np.frombuffer(raw, dtype="<c16", count=n_rx * n_src, offset=offset)
        blocks.append(block.reshape(n_rx, n_src).copy())
        offset += nbytes
        freqs.append(freq)
    if offset != len(raw):
        raise FormatError(f"{path}: {len(raw) - offset} trailing bytes")
    return FreqData(tuple(freqs), tuple(blocks))


# ---------------------------------------------------------------------------
# synthetic models

INCLUSION_SHAPES = ("square", "disk", "ring", "cross", "all-four")


def make_inclusion_model(
    shape: str,
    nz: int = 81,
    nx: int = 81,
    dz: float = 25.0,
    dx: float = 25.0,
    v_background: float = 2000.0,
    v_inclusion: float = 2500.0,
    size: float | None = None,
) -> ModelGrid:
    """Homogeneous background with a centered inclusion of the given shape.

    ``size`` is the primary dimension in meters (side for square, radius for
    disk, outer radius for ring, arm length for cross); secondary dimensions
    are fixed fractions of it.  Defaults suit a 2 km x 2 km domain at 25 m
    spacing.  "all-four" places one of each shape per quadrant.  The
    spacings, both velocities and ``size`` (when given) must be finite and
    above 0.
    """
    if shape not in INCLUSION_SHAPES:
        raise GeometryError(f"unknown inclusion shape {shape!r}")
    for name, value in (("dz", dz), ("dx", dx), ("v_background", v_background),
                        ("v_inclusion", v_inclusion), ("size", size)):
        if value is not None and not 0.0 < value < np.inf:
            raise GeometryError(f"{name} must be finite and above 0, got {value!r}")
    lz, lx = (nz - 1) * dz, (nx - 1) * dx
    span = min(lz, lx)

    values = np.full((nz, nx), float(v_background))
    z = np.arange(nz)[:, None] * dz
    x = np.arange(nx)[None, :] * dx

    if shape == "all-four":
        base = 0.2 * span if size is None else float(size)
        quads = {
            "square": (0.25 * lz, 0.25 * lx),
            "disk": (0.25 * lz, 0.75 * lx),
            "ring": (0.75 * lz, 0.25 * lx),
            "cross": (0.75 * lz, 0.75 * lx),
        }
        mask = np.zeros((nz, nx), dtype=bool)
        for name, center in quads.items():
            mask |= _shape_mask(name, z, x, center, _shape_size(name, base, span))
    else:
        center = (0.5 * lz, 0.5 * lx)
        mask = _shape_mask(shape, z, x, center, _shape_size(shape, size, span))

    if not mask.any():
        raise GeometryError("inclusion mask is empty; size too small for this grid")
    if mask[0, :].any() or mask[-1, :].any() or mask[:, 0].any() or mask[:, -1].any():
        raise GeometryError("inclusion does not fit inside the grid interior")
    values[mask] = float(v_inclusion)
    return ModelGrid(nz, nx, dz, dx, values, KIND_VELOCITY)


def _shape_size(shape, size, span):
    if size is not None:
        return float(size)
    defaults = {"square": 0.25, "disk": 0.125, "ring": 0.15, "cross": 0.3}
    return defaults[shape] * span


def _shape_mask(shape, z, x, center, size):
    zc, xc = center
    if shape == "square":
        half = 0.5 * size
        return (np.abs(z - zc) <= half) & (np.abs(x - xc) <= half)
    if shape == "disk":
        return (z - zc) ** 2 + (x - xc) ** 2 <= size**2
    if shape == "ring":
        r2 = (z - zc) ** 2 + (x - xc) ** 2
        inner = 0.6 * size
        return (r2 <= size**2) & (r2 >= inner**2)
    if shape == "cross":
        half_len, half_w = 0.5 * size, 0.5 * size / 3.0
        horiz = (np.abs(z - zc) <= half_w) & (np.abs(x - xc) <= half_len)
        vert = (np.abs(x - xc) <= half_w) & (np.abs(z - zc) <= half_len)
        return horiz | vert
    raise GeometryError(f"unknown inclusion shape {shape!r}")


def convert(grid: ModelGrid, to_kind: str) -> ModelGrid:
    """Velocity v <-> squared slowness 1/v^2 (an involution up to rounding)."""
    if to_kind not in _KIND_CODES:
        raise GeometryError(f"unknown grid kind {to_kind!r}")
    if to_kind == grid.kind:
        raise ValueError(f"grid is already of kind {to_kind!r}")
    if not np.all(grid.values > 0.0):
        raise ValueError("conversion requires strictly positive values")
    if grid.kind == KIND_VELOCITY:
        values = 1.0 / grid.values**2
    else:
        values = 1.0 / np.sqrt(grid.values)
    return ModelGrid(grid.nz, grid.nx, grid.dz, grid.dx, values, to_kind)


def as_slowness_squared(grid: ModelGrid) -> ModelGrid:
    return grid if grid.kind == KIND_SLOWNESS_SQ else convert(grid, KIND_SLOWNESS_SQ)


def as_velocity(grid: ModelGrid) -> ModelGrid:
    return grid if grid.kind == KIND_VELOCITY else convert(grid, KIND_VELOCITY)


def surface_boundary_geometry(
    nz: int,
    nx: int,
    frequencies,
    n_sources: int = 5,
    source_depth: int | None = None,
    receiver_spacing: int = 2,
    free_surface_top: bool = False,
) -> AcquisitionGeometry:
    """Sources spread along one row near the top, receivers on the other three edges.

    Mirrors the desk-scale benchmark layout: a handful of surface sources and
    regularly spaced receivers on the left, right, and bottom boundaries.  A
    free surface makes row 0 Dirichlet, so there the side receivers start at
    row 1 and ``source_depth`` None puts the sources on row 1; without one it
    puts them on row 0.
    """
    if n_sources < 1:
        raise GeometryError("need at least one source")
    if receiver_spacing < 1:
        raise GeometryError("receiver spacing must be >= 1 cell")
    top = 1 if free_surface_top else 0  # the first row a source or receiver may use
    src_ix = np.linspace(0, nx - 1, n_sources + 2)[1:-1]
    depth = top if source_depth is None else source_depth
    sources = [(depth, int(round(ix))) for ix in src_ix]
    receivers = []
    for iz in range(top, nz, receiver_spacing):
        receivers.append((iz, 0))
        receivers.append((iz, nx - 1))
    for ix in range(0, nx, receiver_spacing):
        receivers.append((nz - 1, ix))
    receivers = sorted(set(receivers))
    return AcquisitionGeometry(tuple(sources), tuple(receivers), tuple(frequencies))


def survey_geometry(nz: int, nx: int, frequencies, sources=(), receivers=(), n_sources: int = 5,
                    source_depth: int | None = None, receiver_spacing: int = 2,
                    free_surface_top: bool = False) -> AcquisitionGeometry:
    """Explicit ``sources`` and ``receivers`` when both are given, else the
    surface layout; one list alone is a GeometryError naming both."""
    if not (sources or receivers):
        return surface_boundary_geometry(nz, nx, frequencies, n_sources, source_depth,
                                         receiver_spacing, free_surface_top)
    if not (sources and receivers):
        given = "sources" if sources else "receivers"
        raise GeometryError(f"sources and receivers must be given together, got {given} only")
    return AcquisitionGeometry(sources, receivers, frequencies)
