"""2D frequency-domain acoustic modeling on a 5-point stencil with PML.

The operator is A(m) = L_pml + omega^2 diag(m) over the padded grid, with m
in squared slowness so that A is affine in the model.  Complex coordinate
stretching (time convention e^{-i omega t}, s = 1 + i sigma/omega with a
quadratic damping profile) is folded into symmetric edge coefficients, so A
is complex-symmetric by construction; the outermost padded ring and, with a
free surface, the top row are homogeneous Dirichlet.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import linsys
from .errors import GeometryError
from .model import (
    KIND_SLOWNESS_SQ,
    AcquisitionGeometry,
    FreqData,
    ModelGrid,
    as_slowness_squared,
)

PML_REFLECTION = 1e-3  # target boundary reflection coefficient
MIN_POINTS_PER_WAVELENGTH = 8.0


def ricker_amplitude(f: float, f_peak: float) -> complex:
    """Zero-phase pulse magnitude spectrum (2/sqrt(pi)) f^2/f_peak^3 e^{-f^2/f_peak^2}."""
    if f <= 0.0 or f_peak <= 0.0:
        raise ValueError("frequencies must be positive")
    amp = (2.0 / np.sqrt(np.pi)) * (f**2 / f_peak**3) * np.exp(-(f**2) / f_peak**2)
    return complex(amp)


@dataclass
class HelmholtzSystem:
    """Assembled operator for one frequency, with a lazily cached factorization."""

    omega: float
    nz: int
    nx: int
    dz: float
    dx: float
    pml_cells: int
    free_surface_top: bool
    pad_top: int
    nzp: int
    nxp: int
    matrix: sp.csr_matrix
    _fact: linsys.Factorization | None = None

    @property
    def n(self) -> int:
        return self.nzp * self.nxp

    def factor(self) -> linsys.Factorization:
        if self._fact is None:
            self._fact = linsys.factorize(self.matrix)
        return self._fact

    def padded_index(self, iz: int, ix: int) -> int:
        """Linear index of interior node (iz, ix) in the padded grid."""
        return int(self.padded_indices([(iz, ix)])[0])

    def padded_indices(self, points) -> np.ndarray:
        """Padded linear indices of a sequence of interior (iz, ix) nodes, in order."""
        iz, ix = np.asarray(points, dtype=np.int64).reshape(-1, 2).T
        outside = (iz < 0) | (iz >= self.nz) | (ix < 0) | (ix >= self.nx)
        if np.any(outside):
            k = int(np.argmax(outside))
            raise GeometryError(
                f"interior index ({iz[k]}, {ix[k]}) outside {self.nz}x{self.nx}"
            )
        return (iz + self.pad_top) * self.nxp + (ix + self.pml_cells)

    def interior_indices(self) -> np.ndarray:
        """Padded linear indices of all interior nodes, shaped (nz, nx)."""
        rows = np.arange(self.nz) + self.pad_top
        cols = np.arange(self.nx) + self.pml_cells
        return rows[:, None] * self.nxp + cols[None, :]

    def point_sources(self, sources, amplitude: complex) -> np.ndarray:
        """Column block of nearest-node point sources scaled by 1/(dz*dx)."""
        b = np.zeros((self.n, len(sources)), dtype=np.complex128)
        rows = self.padded_indices(sources)
        b[rows, np.arange(rows.size)] = amplitude / (self.dz * self.dx)
        return b


def _pml_sigma(coord: np.ndarray, pad_lo: int, pad_hi: int, n_total: int, h: float,
               sigma_lo: float, sigma_hi: float) -> np.ndarray:
    """Quadratic damping profile along one axis at (possibly half) coordinates."""
    sigma = np.zeros_like(coord, dtype=np.float64)
    if pad_lo > 0:
        depth = np.maximum(pad_lo - coord, 0.0) * h
        width = pad_lo * h
        sigma += sigma_lo * (depth / width) ** 2
    if pad_hi > 0:
        start = n_total - 1 - pad_hi
        depth = np.maximum(coord - start, 0.0) * h
        width = pad_hi * h
        sigma += sigma_hi * (depth / width) ** 2
    return sigma


def assemble(
    model: ModelGrid,
    omega: float,
    pml_cells: int = 10,
    free_surface_top: bool = False,
    pml_velocity: float | None = None,
    reflection: float = PML_REFLECTION,
) -> HelmholtzSystem:
    """Assemble A(m) for a squared-slowness model, padding by edge replication.

    ``pml_velocity`` fixes the speed the damping profile is tuned for
    (default: the model maximum); passing it explicitly keeps A exactly
    affine in m across assemblies, which the inversion gradients rely on.
    """
    if model.kind != KIND_SLOWNESS_SQ:
        raise GeometryError("assemble expects a squared-slowness model")
    if omega <= 0.0:
        raise ValueError("angular frequency must be positive")
    if pml_cells < 5:
        raise GeometryError(f"need at least 5 absorbing cells, got {pml_cells}")
    pad_top = 0 if free_surface_top else pml_cells
    padded = np.pad(
        model.values, ((pad_top, pml_cells), (pml_cells, pml_cells)), mode="edge"
    )
    return assemble_padded(
        padded, model.dz, model.dx, omega, pml_cells, pad_top, free_surface_top,
        pml_velocity=pml_velocity, reflection=reflection,
    )


def assemble_padded(
    m_padded: np.ndarray,
    dz: float,
    dx: float,
    omega: float,
    pml_cells: int,
    pad_top: int,
    free_surface_top: bool,
    pml_velocity: float | None = None,
    reflection: float = PML_REFLECTION,
) -> HelmholtzSystem:
    """Assemble from an explicitly padded squared-slowness field.

    The inversion oracles use this entry point to keep the absorbing collar
    (both its model values and its damping profile) frozen at the background
    while the interior varies.
    """
    nzp, nxp = m_padded.shape
    nz = nzp - pad_top - pml_cells
    nx = nxp - 2 * pml_cells
    if nz < 3 or nx < 3:
        raise GeometryError("padded field too small for the stated collar")

    v_max = pml_velocity if pml_velocity is not None else 1.0 / np.sqrt(np.min(m_padded))
    v_min = 1.0 / np.sqrt(np.max(m_padded))
    freq = omega / (2.0 * np.pi)
    ppw = (v_min / freq) / max(dz, dx)
    if ppw < MIN_POINTS_PER_WAVELENGTH:
        warnings.warn(
            f"{ppw:.1f} points per minimum wavelength at {freq:.2f} Hz "
            f"(below {MIN_POINTS_PER_WAVELENGTH:g}); expect dispersion error",
            stacklevel=2,
        )

    sigma_amp = -3.0 * np.log(reflection) * v_max / 2.0  # divided by width below
    sig_z = lambda c: _pml_sigma(
        c, pad_top, pml_cells, nzp, dz,
        sigma_amp / (pad_top * dz) if pad_top else 0.0,
        sigma_amp / (pml_cells * dz),
    )
    sig_x = lambda c: _pml_sigma(
        c, pml_cells, pml_cells, nxp, dx,
        sigma_amp / (pml_cells * dx),
        sigma_amp / (pml_cells * dx),
    )
    s_z = 1.0 + 1j * sig_z(np.arange(nzp, dtype=np.float64)) / omega
    s_x = 1.0 + 1j * sig_x(np.arange(nxp, dtype=np.float64)) / omega
    s_z_half = 1.0 + 1j * sig_z(np.arange(nzp - 1) + 0.5) / omega
    s_x_half = 1.0 + 1j * sig_x(np.arange(nxp - 1) + 0.5) / omega

    # edge coefficients of the symmetrized stretched Laplacian
    cz = (s_x[None, :] / s_z_half[:, None]) / dz**2  # (nzp-1, nxp)
    cx = (s_z[:, None] / s_x_half[None, :]) / dx**2  # (nzp, nxp-1)

    diag = omega**2 * m_padded * (s_z[:, None] * s_x[None, :])
    diag = diag.astype(np.complex128)
    diag[1:, :] -= cz
    diag[:-1, :] -= cz
    diag[:, 1:] -= cx
    diag[:, :-1] -= cx

    ring = np.zeros((nzp, nxp), dtype=bool)
    ring[0, :] = ring[-1, :] = True
    ring[:, 0] = ring[:, -1] = True
    lin = np.arange(nzp * nxp).reshape(nzp, nxp)

    rows = [lin[~ring], lin[ring]]
    cols = [lin[~ring], lin[ring]]
    data = [diag[~ring], np.ones(int(ring.sum()), dtype=np.complex128)]

    # vertical edges with both endpoints off the ring: i in [1, nzp-3], j in [1, nxp-2]
    vi = lin[1:-2, 1:-1]
    vj = lin[2:-1, 1:-1]
    vval = cz[1:-1, 1:-1]
    rows += [vi.ravel(), vj.ravel()]
    cols += [vj.ravel(), vi.ravel()]
    data += [vval.ravel(), vval.ravel()]

    hi = lin[1:-1, 1:-2]
    hj = lin[1:-1, 2:-1]
    hval = cx[1:-1, 1:-1]
    rows += [hi.ravel(), hj.ravel()]
    cols += [hj.ravel(), hi.ravel()]
    data += [hval.ravel(), hval.ravel()]

    n = nzp * nxp
    matrix = sp.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    ).tocsr()
    matrix.sort_indices()
    return HelmholtzSystem(
        omega=omega, nz=nz, nx=nx, dz=dz, dx=dx, pml_cells=pml_cells,
        free_surface_top=free_surface_top, pad_top=pad_top, nzp=nzp, nxp=nxp,
        matrix=matrix,
    )


def forward(
    model: ModelGrid,
    acq: AcquisitionGeometry,
    f_peak: float = 10.0,
    pml_cells: int = 10,
    free_surface_top: bool = False,
    pml_velocity: float | None = None,
) -> FreqData:
    """Simulate receiver data: assemble and factor once per frequency, solve
    all sources as one block, and sample nodal values at the receivers."""
    slowness = as_slowness_squared(model)
    acq.validate_for(model.nz, model.nx, min_iz=1 if free_surface_top else 0)
    blocks = []
    for f in acq.frequencies:
        system = assemble(slowness, 2.0 * np.pi * f, pml_cells, free_surface_top,
                          pml_velocity=pml_velocity)
        b = system.point_sources(acq.sources, ricker_amplitude(f, f_peak))
        u = system.factor().solve(b)
        rx = system.padded_indices(acq.receivers)
        blocks.append(u[rx, :])
    return FreqData(tuple(acq.frequencies), tuple(blocks))


def add_noise(data: FreqData, snr_db: float | None, seed: int = 0) -> FreqData:
    """Add seeded complex Gaussian noise hitting the target SNR exactly.

    SNR is 20*log10(signal RMS / noise RMS) over all entries of all blocks;
    the drawn noise is rescaled after the fact so the realized value matches.
    ``snr_db=None`` (or +inf) returns the data unchanged.
    """
    if snr_db is None or np.isinf(snr_db):
        return FreqData(data.frequencies, tuple(b.copy() for b in data.blocks))
    signal_norm = data.norm()
    if signal_norm == 0.0:
        raise ValueError("cannot scale noise against all-zero data")
    rng = np.random.default_rng(seed)
    draws = [
        rng.standard_normal(b.shape) + 1j * rng.standard_normal(b.shape)
        for b in data.blocks
    ]
    draw_norm = np.sqrt(sum(np.sum(np.abs(n) ** 2) for n in draws))
    target = signal_norm * 10.0 ** (-snr_db / 20.0)
    scale = target / draw_norm
    return FreqData(
        data.frequencies,
        tuple(b + scale * n for b, n in zip(data.blocks, draws)),
    )
