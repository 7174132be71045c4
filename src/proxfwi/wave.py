"""2D frequency-domain acoustic modeling on a 5-point stencil with PML.

The operator is A(m) = L_pml + omega^2 diag(m) over the padded grid, with m
in squared slowness so that A is affine in the model.  Complex coordinate
stretching (time convention e^{-i omega t}, s = 1 + i sigma/omega with a
quadratic damping profile) is folded into symmetric edge coefficients, so A
is complex-symmetric by construction; the outermost padded ring and, with a
free surface, the top row are homogeneous Dirichlet.

:class:`Survey` is the one home of every survey decision: the padded layout
with its collar frozen at a background model, the speed the damping profile
is tuned for, the free-surface check on the top row, each frequency's
omega and Ricker amplitude, and the padded source, receiver and interior
index maps.  Modeling (:func:`forward`) and both inversion oracles solve
through it, and it runs all three solves through :func:`linsys.factorize`:
point-source blocks (modeling, FWI), the penalty normal equations (WRI) and
condensed modeling.
"""

from __future__ import annotations

import math
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
    """Assembled operator for one frequency on a padded grid of nzp x nxp nodes."""

    omega: float
    nzp: int
    nxp: int
    matrix: sp.csr_matrix

    @property
    def n(self) -> int:
        return self.nzp * self.nxp


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

    :class:`Survey` assembles through this entry point to keep the absorbing collar
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
    return HelmholtzSystem(omega=omega, nzp=nzp, nxp=nxp, matrix=matrix)


class Survey:
    """An acquisition on the padded grid, with the collar frozen at a background.

    Every solve takes an interior squared-slowness model ``m``, set inside the
    frozen collar, and an index ``i`` into ``acq.frequencies``.  The damping
    profile is tuned for ``pml_velocity`` if given, else for the background's
    top speed, for every m, so A is exactly affine in m.  Under a free surface
    no source or receiver may sit on the Dirichlet top row.
    """

    def __init__(self, background: ModelGrid, acq: AcquisitionGeometry, f_peak: float = 10.0,
                 pml_cells: int = 10, free_surface_top: bool = False,
                 pml_velocity: float | None = None):
        background = as_slowness_squared(background)
        acq.validate_for(background.nz, background.nx, min_iz=1 if free_surface_top else 0)
        self.acq = acq
        self.dz, self.dx = background.dz, background.dx
        self.pml_cells, self.free_surface_top = int(pml_cells), bool(free_surface_top)
        self.collar, self.interior = pad_collar(background.values, self.pml_cells,
                                                self.free_surface_top)
        top_speed = 1.0 / math.sqrt(float(np.min(self.collar)))
        self.pml_velocity = top_speed if pml_velocity is None else float(pml_velocity)
        self.omegas = tuple(2.0 * np.pi * f for f in acq.frequencies)
        self.amplitudes = tuple(ricker_amplitude(f, float(f_peak)) for f in acq.frequencies)
        # padded linear index of each interior node, shaped like the background
        self.interior_rows = np.arange(self.collar.size).reshape(self.collar.shape)[self.interior]
        self.src = self._rows(acq.sources)
        self.rx = self._rows(acq.receivers)

    def _rows(self, points) -> np.ndarray:
        iz, ix = np.asarray(points, dtype=np.int64).reshape(-1, 2).T
        return self.interior_rows[iz, ix]

    def system(self, m, i: int) -> HelmholtzSystem:
        """A(m) at frequency i, assembled with ``m`` inside the frozen collar."""
        m = np.asarray(m, dtype=np.float64)
        if m.shape != self.interior_rows.shape:
            raise GeometryError(f"model shape {m.shape} != {self.interior_rows.shape}")
        padded = self.collar.copy()
        padded[self.interior] = m
        return assemble_padded(padded, self.dz, self.dx, self.omegas[i], self.pml_cells,
                               self.free_surface_top, pml_velocity=self.pml_velocity)

    def point_sources(self, i: int) -> np.ndarray:
        """Column block b of nearest-node point sources at frequency i, scaled by 1/(dz*dx)."""
        b = np.zeros((self.collar.size, self.src.size), dtype=np.complex128)
        b[self.src, np.arange(self.src.size)] = self.amplitudes[i] / (self.dz * self.dx)
        return b

    def solve_sources(self, m, i: int):
        """Factor A(m) at frequency i and solve for every source: (system, factorization, u)."""
        system = self.system(m, i)
        fact = linsys.factorize(system.matrix)
        return system, fact, fact.solve(self.point_sources(i))

    def solve_penalty(self, m, i: int, data: np.ndarray, mu: float):
        """Fields u minimizing ||A u - b||^2 + mu^2 ||P u - d||^2 at frequency i for
        every source, by one LU of A^H A + mu^2 P^T P: (system, u, b - A u)."""
        system = self.system(m, i)
        a = system.matrix.tocsc()
        ah = a.conjugate().transpose().tocsc()
        penalty = sp.coo_matrix((np.full(self.rx.size, mu**2), (self.rx, self.rx)), shape=a.shape)
        b = self.point_sources(i)
        rhs = ah @ b
        rhs[self.rx, :] += mu**2 * data
        u = linsys.factorize((ah @ a + penalty).tocsc()).solve(rhs)
        return system, u, b - a @ u

    def data(self, m) -> FreqData:
        """Receiver data P A(m)^-1 b, one factorization per frequency.

        Below ``CONDENSE_MIN_SOURCES`` sources this is :meth:`solve_sources`.
        From there on the source and receiver nodes are eliminated last and
        the data read from the factors' trailing block
        (:meth:`linsys.Factorization.solve_last`), with no full-length solve.
        """
        blocks = []
        for i, amplitude in enumerate(self.amplitudes):
            if self.src.size >= CONDENSE_MIN_SOURCES:
                system = self.system(m, i)
                last, at = np.unique(np.concatenate([self.rx, self.src]), return_inverse=True)
                values = np.full(self.src.size, amplitude / (self.dz * self.dx))
                fact = linsys.factorize(system.matrix, last=last)
                blocks.append(fact.solve_last(at[self.rx.size:], values)[at[:self.rx.size], :])
            else:
                blocks.append(self.solve_sources(m, i)[2][self.rx, :])
        return FreqData(self.acq.frequencies, tuple(blocks))


def forward(model: ModelGrid, acq: AcquisitionGeometry, f_peak: float = 10.0,
            pml_cells: int = 10, free_surface_top: bool = False,
            pml_velocity: float | None = None) -> FreqData:
    """Receiver data of ``model``: :meth:`Survey.data` with the model as background."""
    slowness = as_slowness_squared(model)
    survey = Survey(slowness, acq, f_peak, pml_cells, free_surface_top, pml_velocity)
    return survey.data(slowness.values)


def add_noise(data: FreqData, snr_db: float | None, seed: int = 0) -> FreqData:
    """Add seeded complex Gaussian noise hitting the target SNR exactly.

    SNR is 20*log10(signal RMS / noise RMS) over all entries of all blocks;
    the drawn noise is rescaled after the fact so the realized value matches.
    ``snr_db=None`` or +inf returns the data unchanged; NaN and -inf, which
    name no noise level, are a ValueError.
    """
    if snr_db is None or snr_db == math.inf:
        return FreqData(data.frequencies, tuple(b.copy() for b in data.blocks))
    if not math.isfinite(snr_db):
        raise ValueError(f"SNR must be a number of dB or +inf, got {snr_db!r}")
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
