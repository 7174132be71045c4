"""2D frequency-domain acoustic modeling on a 5-point stencil with PML.

The operator is A(m) = L_pml + omega^2 diag(m) over the padded grid, with m
in squared slowness so that A is affine in the model.  Complex coordinate
stretching (time convention e^{-i omega t}, s = 1 + i sigma/omega with a
quadratic damping profile) is folded into symmetric edge coefficients, so A
is complex-symmetric by construction; the outermost padded ring and, with a
free surface, the top row are homogeneous Dirichlet.

The module owns the padded-grid layout (:func:`pad_collar`, the index maps of
:class:`HelmholtzSystem`) and all three solves through :func:`linsys.factorize`:
``solve_sources`` (modeling, FWI), ``solve_penalty`` (WRI) and condensed modeling.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import linsys
from .errors import GeometryError, NumericalError
from .model import (
    KIND_SLOWNESS_SQ,
    AcquisitionGeometry,
    FreqData,
    ModelGrid,
    as_slowness_squared,
)

PML_REFLECTION = 1e-3  # target boundary reflection coefficient
MIN_POINTS_PER_WAVELENGTH = 8.0
# from this many sources on, forward eliminates the source and receiver nodes
# last and skips the per-source solves; one frequency's factor-and-solve broke
# even at about 12 sources on both the 81^2 and the 161^2 survey grids
CONDENSE_MIN_SOURCES = 16


def ricker_amplitude(f: float, f_peak: float) -> complex:
    """Zero-phase pulse magnitude spectrum (2/sqrt(pi)) f^2/f_peak^3 e^{-f^2/f_peak^2}."""
    if f <= 0.0 or f_peak <= 0.0:
        raise ValueError("frequencies must be positive")
    amp = (2.0 / np.sqrt(np.pi)) * (f**2 / f_peak**3) * np.exp(-(f**2) / f_peak**2)
    return complex(amp)


def _pad_top(pml_cells: int, free_surface_top: bool) -> int:
    """Collar rows above the interior: none under a free surface."""
    return 0 if free_surface_top else pml_cells


def pad_collar(values: np.ndarray, pml_cells: int, free_surface_top: bool):
    """``values`` padded with the absorbing collar, and the interior block.

    The collar repeats the edge values, ``pml_cells`` wide on the sides and
    the bottom, and on top unless there is a free surface.  Returns
    ``(padded, interior)`` with ``padded[interior]`` equal to ``values``.  Every
    run path pads here before it assembles, so this is where a collar thinner
    than 5 cells is a GeometryError.
    """
    if pml_cells < 5:
        raise GeometryError(f"need at least 5 absorbing cells, got {pml_cells}")
    top = _pad_top(pml_cells, free_surface_top)
    nz, nx = values.shape
    padded = np.pad(values, ((top, pml_cells), (pml_cells, pml_cells)), mode="edge")
    return padded, np.s_[top : top + nz, pml_cells : pml_cells + nx]


@dataclass
class HelmholtzSystem:
    """Assembled operator for one frequency and its padded-grid layout."""

    omega: float
    nz: int
    nx: int
    dz: float
    dx: float
    pml_cells: int
    pad_top: int
    nzp: int
    nxp: int
    matrix: sp.csr_matrix

    @property
    def n(self) -> int:
        return self.nzp * self.nxp

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

    def solve_sources(self, sources, amplitude: complex):
        """Factor A and solve for a block of point sources: (factorization, wavefields)."""
        fact = linsys.factorize(self.matrix)
        return fact, fact.solve(self.point_sources(sources, amplitude))

    def solve_penalty(self, sources, amplitude: complex, receivers, data, mu: float):
        """Fields u minimizing ||A u - b||^2 + mu^2 ||P u - d||^2 for a block of point
        sources, by one LU of A^H A + mu^2 P^T P, and their residual: (u, b - A u)."""
        rx = self.padded_indices(receivers)
        a = self.matrix.tocsc()
        ah = a.conjugate().transpose().tocsc()
        penalty = sp.coo_matrix((np.full(rx.size, mu**2), (rx, rx)), shape=(self.n, self.n))
        b = self.point_sources(sources, amplitude)
        rhs = ah @ b
        rhs[rx, :] += mu**2 * data
        u = linsys.factorize((ah @ a + penalty).tocsc()).solve(rhs)
        return u, b - a @ u


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
    padded, _ = pad_collar(model.values, pml_cells, free_surface_top)
    return assemble_padded(
        padded, model.dz, model.dx, omega, pml_cells, free_surface_top, pml_velocity=pml_velocity
    )


def assemble_padded(
    m_padded: np.ndarray,
    dz: float,
    dx: float,
    omega: float,
    pml_cells: int,
    free_surface_top: bool,
    pml_velocity: float | None = None,
) -> HelmholtzSystem:
    """Assemble from a squared-slowness field laid out as :func:`pad_collar` pads it.

    The inversion oracles use this entry point to keep the absorbing collar
    (both its model values and its damping profile) frozen at the background
    while the interior varies.  The damping profile is tuned for a boundary
    reflection coefficient of ``PML_REFLECTION``.
    """
    pad_top = _pad_top(pml_cells, free_surface_top)
    nzp, nxp = m_padded.shape
    nz = nzp - pad_top - pml_cells
    nx = nxp - 2 * pml_cells
    if nz < 3 or nx < 3:
        raise GeometryError("padded field too small for the stated collar")
    if not np.all(np.isfinite(m_padded)):
        iz, ix = np.argwhere(~np.isfinite(m_padded))[0] - (pad_top, pml_cells)
        raise NumericalError(f"non-finite model value at interior cell ({iz}, {ix})")

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

    sigma_amp = -3.0 * np.log(PML_REFLECTION) * v_max / 2.0  # divided by width below
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
        pad_top=pad_top, nzp=nzp, nxp=nxp, matrix=matrix,
    )


def forward(
    model: ModelGrid,
    acq: AcquisitionGeometry,
    f_peak: float = 10.0,
    pml_cells: int = 10,
    free_surface_top: bool = False,
    pml_velocity: float | None = None,
) -> FreqData:
    """Simulate receiver data: assemble and factor once per frequency and
    sample the wavefield of every source at the receivers.

    With fewer than ``CONDENSE_MIN_SOURCES`` sources, all sources are solved
    as one block of full wavefields (:meth:`HelmholtzSystem.solve_sources`).
    With more, the source and receiver nodes are eliminated last and the data
    are read from the trailing block of the factors
    (:meth:`linsys.Factorization.solve_last`), which skips the one full-length
    triangular solve per source that otherwise leads.
    """
    slowness = as_slowness_squared(model)
    acq.validate_for(model.nz, model.nx, min_iz=1 if free_surface_top else 0)
    condensed = len(acq.sources) >= CONDENSE_MIN_SOURCES
    blocks = []
    for f in acq.frequencies:
        system = assemble(slowness, 2.0 * np.pi * f, pml_cells, free_surface_top,
                          pml_velocity=pml_velocity)
        amplitude = ricker_amplitude(f, f_peak)
        rx = system.padded_indices(acq.receivers)
        if condensed:
            src = system.padded_indices(acq.sources)
            last, at = np.unique(np.concatenate([rx, src]), return_inverse=True)
            values = np.full(src.size, amplitude / (system.dz * system.dx))
            u_last = linsys.factorize(system.matrix, last=last).solve_last(at[rx.size:], values)
            blocks.append(u_last[at[:rx.size], :])
        else:
            _, u = system.solve_sources(acq.sources, amplitude)
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
