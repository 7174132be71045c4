"""2D frequency-domain acoustic modeling on a 5-point stencil with PML.

The operator is A(m) = L_pml + omega^2 diag(m) over the padded grid, with m
in squared slowness so that A is affine in the model.  Complex coordinate
stretching (time convention e^{-i omega t}, s = 1 + i sigma/omega with a
quadratic damping profile) is folded into symmetric edge coefficients, so A
is complex-symmetric by construction; the outermost padded ring and, with a
free surface, the top row are homogeneous Dirichlet.  A is banded with five
diagonals: ring rows are identity rows, and no off-ring row couples to a ring
node.

:class:`Survey` is the one home of every survey decision: the padded layout
with its collar frozen at a background model, the speed the damping profile
is tuned for, the free-surface check on the top row, each frequency's
omega and point-source strength, and the padded source, receiver and interior
index maps.  Every operator A(m) comes from :meth:`Survey.system`.  Modeling
(:func:`forward`) and both inversion oracles solve through it, and it runs
all three solves through :func:`linsys.factorize`: point-source blocks
(modeling, FWI), the penalty normal equations (WRI) and condensed modeling.
Its operators are plain CSR matrices and its fields plain arrays, one column
per source; a frequency is its index ``i``, and ``Survey.omegas[i]`` its omega.

A survey's frequencies are independent factorizations, and :meth:`Survey.each`
runs them on the survey's workers: min(n_freq, usable CPUs) long-lived
threads, started by its first ``each`` and stopped by :meth:`Survey.close`, or
when the survey is collected unclosed.  Every worker pulls the next frequency
from one shared queue as it comes free, while the calling thread only waits.
SuperLU releases the GIL while it factors, so the LUs overlap; each
frequency's results come back in frequency order, and callers add them in
that order, so a run gives the same numbers whatever the number of CPUs.  This
is the one place in the package that starts threads, and a task must not call
``each`` on its own survey.

SuperLU gives a factor's memory back only on the thread that made it (scipy
records each allocation per thread), so a factor dropped on any other thread
is never freed.  The ownership rule that keeps every factor freed: a factor
lives inside one task, or in its frequency's keep slot (:meth:`Survey.keep`),
and never leaves a task in its result.  A kept value is dropped on the worker
that made it.  A task that replaces a value another worker kept hands the old
value to that worker's inbox, every worker empties its inbox before each task
and before it exits, and :meth:`Survey.close` hands every kept value back the
same way.
"""

from __future__ import annotations

import math
import os
import queue
import threading
import warnings
import weakref

import numpy as np
import scipy.sparse as sp

from . import linsys
from .errors import GeometryError, NumericalError, StateError
from .model import (
    AcquisitionGeometry,
    FreqData,
    ModelGrid,
    as_slowness_squared,
)

PML_REFLECTION = 1e-3  # target boundary reflection coefficient
MIN_POINTS_PER_WAVELENGTH = 8.0
MIN_PML_CELLS = 5  # the thinnest absorbing collar: pad_collar and both parsers read it
# from this many sources on, forward eliminates the source and receiver nodes
# last and skips the per-source solves; one frequency's factor-and-solve broke
# even at about 12 sources on both the 81^2 and the 161^2 survey grids
CONDENSE_MIN_SOURCES = 16


def ricker_amplitude(f: float, f_peak: float) -> complex:
    """Zero-phase pulse magnitude spectrum (2/sqrt(pi)) f^2/f_peak^3 e^{-f^2/f_peak^2}.

    A pulse that is zero at f in floating point (f far above f_peak, or f_peak
    so far from f that a power leaves the float range) is a ValueError naming both.
    """
    if f <= 0.0 or f_peak <= 0.0:
        raise ValueError("frequencies must be positive")
    try:
        with np.errstate(invalid="ignore"):  # inf * 0 where f_peak^3 is below the float range
            amp = (2.0 / np.sqrt(np.pi)) * (f**2 / f_peak**3) * np.exp(-(f**2) / f_peak**2)
    except ArithmeticError:  # f^2 or f_peak^3 past the float range, or f_peak^3 zero
        amp = 0.0
    if not amp > 0.0:
        raise ValueError(f"the source wavelet of peak frequency {f_peak:g} Hz is zero at {f:g} Hz")
    return complex(amp)


def check_f_peak(f_peak: float, frequencies) -> None:
    """ValueError unless the source wavelet of ``f_peak`` is nonzero at every frequency."""
    for f in frequencies:
        ricker_amplitude(f, f_peak)


def _pad_top(pml_cells: int, free_surface_top: bool) -> int:
    """Collar rows above the interior: none under a free surface."""
    return 0 if free_surface_top else pml_cells


def check_pml_cells(pml_cells: int) -> int:
    """``pml_cells`` if the collar is at least ``MIN_PML_CELLS`` thick, else ValueError."""
    if pml_cells < MIN_PML_CELLS:
        raise ValueError(f"need at least {MIN_PML_CELLS} absorbing cells, got {pml_cells}")
    return pml_cells


def pad_collar(values: np.ndarray, pml_cells: int, free_surface_top: bool):
    """``values`` padded with the absorbing collar, and the interior block.

    The collar repeats the edge values, ``pml_cells`` wide on the sides and
    the bottom, and on top unless there is a free surface.  Returns
    ``(padded, interior)`` with ``padded[interior]`` equal to ``values``.  Every
    run path pads here before it assembles, so this is where a collar thinner
    than ``MIN_PML_CELLS`` is a GeometryError.
    """
    try:
        check_pml_cells(pml_cells)
    except ValueError as exc:
        raise GeometryError(str(exc)) from None
    top = _pad_top(pml_cells, free_surface_top)
    nz, nx = values.shape
    padded = np.pad(values, ((top, pml_cells), (pml_cells, pml_cells)), mode="edge")
    return padded, np.s_[top : top + nz, pml_cells : pml_cells + nx]


def _pml_sigma(coord: np.ndarray, pad_lo: int, pad_hi: int, n_total: int, h: float,
               amp: float) -> np.ndarray:
    """Quadratic damping profile along one axis at (possibly half) coordinates,
    rising to ``amp / w`` at the outer edge of each padded side of width w."""
    sigma = np.zeros_like(coord, dtype=np.float64)
    for pad, depth in ((pad_lo, pad_lo - coord), (pad_hi, coord - (n_total - 1 - pad_hi))):
        if pad > 0:
            width = pad * h
            sigma += amp / width * (np.maximum(depth, 0.0) * h / width) ** 2
    return sigma


def assemble_padded(
    m_padded: np.ndarray,
    dz: float,
    dx: float,
    omega: float,
    pml_cells: int,
    free_surface_top: bool,
    pml_velocity: float,
) -> sp.csr_matrix:
    """A(m) from a squared-slowness field laid out as :func:`pad_collar` pads it.

    :meth:`Survey.system` is the one caller, so every operator keeps the
    absorbing collar (both its model values and its damping profile) frozen at
    the survey's background while the interior varies.  The damping profile
    is tuned for speed ``pml_velocity`` and a boundary reflection coefficient
    of ``PML_REFLECTION``.  Node (iz, ix) is row ``iz * nxp + ix``, so A has
    five diagonals, at offsets 0, +-1 and +-nxp: ring rows are identity rows,
    and no off-ring row couples to a ring node, so no zero is stored.
    """
    pad_top = _pad_top(pml_cells, free_surface_top)
    nzp, nxp = m_padded.shape
    if not np.all(np.isfinite(m_padded)):
        iz, ix = np.argwhere(~np.isfinite(m_padded))[0] - (pad_top, pml_cells)
        raise NumericalError(f"non-finite model value at interior cell ({iz}, {ix})")

    v_min = 1.0 / np.sqrt(np.max(m_padded))
    freq = omega / (2.0 * np.pi)
    ppw = (v_min / freq) / max(dz, dx)
    if ppw < MIN_POINTS_PER_WAVELENGTH:
        warnings.warn(
            f"{ppw:.1f} points per minimum wavelength at {freq:.2f} Hz "
            f"(below {MIN_POINTS_PER_WAVELENGTH:g}); expect dispersion error",
            stacklevel=2,
        )

    amp = -3.0 * np.log(PML_REFLECTION) * pml_velocity / 2.0  # peak damping x side width
    sig_z = lambda c: _pml_sigma(c, pad_top, pml_cells, nzp, dz, amp)
    sig_x = lambda c: _pml_sigma(c, pml_cells, pml_cells, nxp, dx, amp)
    s_z = 1.0 + 1j * sig_z(np.arange(nzp, dtype=np.float64)) / omega
    s_x = 1.0 + 1j * sig_x(np.arange(nxp, dtype=np.float64)) / omega
    s_z_half = 1.0 + 1j * sig_z(np.arange(nzp - 1) + 0.5) / omega
    s_x_half = 1.0 + 1j * sig_x(np.arange(nxp - 1) + 0.5) / omega

    # edge coefficients of the symmetrized stretched Laplacian
    cz = (s_x[None, :] / s_z_half[:, None]) / dz**2  # (nzp-1, nxp)
    cx = (s_z[:, None] / s_x_half[None, :]) / dx**2  # (nzp, nxp-1)

    diag = omega**2 * m_padded * (s_z[:, None] * s_x[None, :])
    diag[1:, :] -= cz
    diag[:-1, :] -= cz
    diag[:, 1:] -= cx
    diag[:, :-1] -= cx
    diag[[0, -1], :] = diag[:, [0, -1]] = 1.0  # the Dirichlet ring: identity rows

    # couplings between off-ring nodes only, zero across row ends
    z_off, x_off = np.zeros_like(cz), np.zeros_like(diag)
    z_off[1:-1, 1:-1] = cz[1:-1, 1:-1]
    x_off[1:-1, 1:-2] = cx[1:-1, 1:-1]
    z_off, x_off = z_off.ravel(), x_off.ravel()[:-1]
    matrix = sp.diags([z_off, x_off, diag.ravel(), x_off, z_off], [-nxp, -1, 0, 1, nxp],
                      format="csr")  # drops the zeros
    matrix.sort_indices()
    return matrix


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set, where the platform keeps one."""
    if hasattr(os, "sched_getaffinity"):  # Linux and most Unix; not macOS or Windows
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_worker = threading.local()  # .crew and .inbox of the survey worker running a task


def _attempt(fn, i: int) -> tuple:
    """``(fn(i), None)``, or ``(None, exc)`` if it raised ``exc``."""
    try:
        return fn(i), None
    except BaseException as exc:  # Survey.each re-raises it on the calling thread
        return None, exc


class _Crew:
    """A survey's worker threads, their shared task queue and the keep slots.

    It holds no reference to its survey, so a survey never closed is still
    collected, and its finalizer stops the crew.  Each worker's inbox is a
    list; the lock is held over every hand-back and every emptying, so a
    handed-back value is never referenced anywhere but in its maker's inbox
    when the maker drops it.
    """

    def __init__(self, n_workers: int, n_slots: int):
        self.tasks = queue.SimpleQueue()
        self.lock = threading.Lock()
        self.slots = [(None, None)] * n_slots  # (kept value, its maker's inbox)
        self.threads = [threading.Thread(target=self._serve, args=([],), daemon=True,
                                         name=f"proxfwi-survey-{w}") for w in range(n_workers)]
        for thread in self.threads:
            thread.start()

    def _serve(self, inbox: list):
        _worker.crew, _worker.inbox = self, inbox
        while True:
            task = self.tasks.get()
            with self.lock:
                inbox.clear()  # the values handed back to this worker drop here
            if task is None:
                return
            fn, i, outcomes, done = task
            del task
            outcomes[i] = _attempt(fn, i)
            # the closure goes before the result is posted: once each returns, no
            # worker holds a reference to the survey, so no finalizer runs here
            del fn, outcomes
            done.put(i)

    def replace(self, i: int, value, inbox: list | None):
        """Keep ``value`` in slot i as made by the worker of ``inbox``; the value it
        replaces drops here if that worker made it, else goes to its maker's inbox."""
        with self.lock:
            old, maker = self.slots[i]
            self.slots[i] = (value, inbox)
            if maker is not None and maker is not inbox:
                maker.append(old)
            del old

    def stop(self):
        """Hand every kept value back to its maker, then end the workers and join them."""
        for i in range(len(self.slots)):
            self.replace(i, None, None)
        for _ in self.threads:
            self.tasks.put(None)
        for thread in self.threads:
            if thread is not threading.current_thread():  # a collection on a worker runs this
                thread.join()


class Survey:
    """An acquisition on the padded grid, with the collar frozen at a background.

    Every solve takes an interior squared-slowness model ``m``, set inside the
    frozen collar, and an index ``i`` into ``acq.frequencies``.  The damping
    profile is tuned for ``pml_velocity`` if given, else for the background's
    top speed, for every m, so A is exactly affine in m; an explicit
    ``pml_velocity`` must be positive and finite.  Under a free surface no
    source or receiver may sit on the Dirichlet top row.  :meth:`system` is
    where every operator in the package is assembled.

    A survey that solves owns worker threads and the values its tasks keep
    until :meth:`close`; a survey that never solves starts no thread.
    """

    def __init__(self, background: ModelGrid, acq: AcquisitionGeometry, f_peak: float = 10.0,
                 pml_cells: int = 10, free_surface_top: bool = False,
                 pml_velocity: float | None = None):
        if pml_velocity is not None and not 0.0 < float(pml_velocity) < math.inf:
            raise ValueError(f"pml_velocity must be positive and finite, got {pml_velocity!r}")
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
        self.strengths = tuple(ricker_amplitude(f, float(f_peak)) / (self.dz * self.dx)
                               for f in acq.frequencies)  # point-source strength per cell area
        # padded linear index of each interior node, shaped like the background
        self.interior_rows = np.arange(self.collar.size).reshape(self.collar.shape)[self.interior]
        self.src = self._rows(acq.sources)
        self.rx = self._rows(acq.receivers)
        self._crew = None  # started by the first each
        self._stop = None  # the crew's finalizer
        self._closed = False

    def _rows(self, points) -> np.ndarray:
        iz, ix = np.asarray(points, dtype=np.int64).reshape(-1, 2).T
        return self.interior_rows[iz, ix]

    def each(self, fn) -> list:
        """``[fn(i) for i in frequency indices]``, each ``fn(i)`` a task on the workers.

        The first call starts one worker per CPU this process may run on, up
        to one per frequency, so with one CPU the frequencies run one at a
        time; the same workers serve every later call until :meth:`close`.
        Tasks are queued in frequency order and each free worker takes the
        next, first free, first served.  The results keep frequency order.  If
        tasks raise, the exception of the lowest frequency is re-raised once
        every task of the call has finished, and the survey still serves later
        calls.  A task may keep a value for later tasks in its frequency's
        slot (:meth:`keep`), but may return no factor, and must not call
        ``each`` on this survey: that is a StateError.
        """
        if self._closed:
            raise StateError("the survey is closed")
        n = len(self.omegas)
        if self._crew is None:
            self._crew = _Crew(min(n, _usable_cpus()), n)
            self._stop = weakref.finalize(self, self._crew.stop)
        if getattr(_worker, "crew", None) is self._crew:
            raise StateError("a task may not call each on its own survey")
        outcomes, done = [None] * n, queue.SimpleQueue()
        for i in range(n):
            self._crew.tasks.put((fn, i, outcomes, done))
        for _ in range(n):
            done.get()
        exc = next((exc for _, exc in outcomes if exc is not None), None)
        if exc is not None:
            try:
                raise exc
            finally:  # the traceback holds this frame: no cycle through its locals
                del exc, outcomes
        return [value for value, _ in outcomes]

    def _inbox(self) -> list:
        """The inbox of this survey's worker that runs the calling task."""
        if self._crew is None or getattr(_worker, "crew", None) is not self._crew:
            raise StateError("keep slots are for the tasks of this survey's each")
        return _worker.inbox

    def keep(self, i: int, value) -> None:
        """Keep ``value`` in frequency i's slot, from a task of :meth:`each`.

        The value it replaces is dropped on the worker that made it: at once
        if that is this task's worker, else handed back to that worker's
        inbox, which it empties before its next task and before it exits.
        ``keep(i, None)`` only drops the kept value.
        """
        inbox = self._inbox()
        self._crew.replace(i, value, inbox)

    def kept(self, i: int):
        """The value kept in frequency i's slot, or None, read by a task of
        :meth:`each`; the task must not let it outlive the call."""
        self._inbox()
        return self._crew.slots[i][0]

    def close(self) -> None:
        """Drop every kept value on the worker that made it, then stop and join
        the workers.  A closed survey solves nothing more; a second close does
        nothing.  A survey collected unclosed is closed by its finalizer.
        """
        self._closed = True
        if self._stop is not None:
            self._stop()  # a finalizer runs once

    def system(self, m, i: int) -> sp.csr_matrix:
        """A(m) at frequency i, assembled with ``m`` inside the frozen collar."""
        m = np.asarray(m, dtype=np.float64)
        if m.shape != self.interior_rows.shape:
            raise GeometryError(f"model shape {m.shape} != {self.interior_rows.shape}")
        padded = self.collar.copy()
        padded[self.interior] = m
        return assemble_padded(padded, self.dz, self.dx, self.omegas[i], self.pml_cells,
                               self.free_surface_top, pml_velocity=self.pml_velocity)

    def point_sources(self, i: int) -> np.ndarray:
        """Column block b of nearest-node point sources at frequency i, of ``strengths[i]``."""
        b = np.zeros((self.collar.size, self.src.size), dtype=np.complex128)
        b[self.src, np.arange(self.src.size)] = self.strengths[i]
        return b

    def solve_sources(self, m, i: int):
        """Factor A(m) at frequency i and solve for every source: (factorization, u),
        with u an array of one column per source."""
        fact = linsys.factorize(self.system(m, i))
        return fact, fact.solve(self.point_sources(i))

    def solve_penalty(self, m, i: int, data: np.ndarray, mu: float):
        """Fields u minimizing ||A u - b||^2 + mu^2 ||P u - d||^2 at frequency i for
        every source, by one LU of A^H A + mu^2 P^T P: the arrays (u, b - A u)."""
        a = self.system(m, i).tocsc()
        ah = a.conjugate()  # A is complex-symmetric, so A^H = conj(A)
        penalty = sp.coo_matrix((np.full(self.rx.size, mu**2), (self.rx, self.rx)), shape=a.shape)
        b = self.point_sources(i)
        rhs = ah @ b
        rhs[self.rx, :] += mu**2 * data
        u = linsys.factorize((ah @ a + penalty).tocsc()).solve(rhs)
        return u, b - a @ u

    def data(self, m) -> FreqData:
        """Receiver data P A(m)^-1 b, one factorization per frequency.

        Below ``CONDENSE_MIN_SOURCES`` sources this is :meth:`solve_sources`.
        From there on the source and receiver nodes are eliminated last and
        the data read from the factors' trailing block
        (:meth:`linsys.Factorization.solve_last`), with no full-length solve.
        """
        def block(i):
            if self.src.size < CONDENSE_MIN_SOURCES:
                return self.solve_sources(m, i)[1][self.rx, :]
            last, at = np.unique(np.concatenate([self.rx, self.src]), return_inverse=True)
            values = np.full(self.src.size, self.strengths[i])
            fact = linsys.factorize(self.system(m, i), last=last)
            return fact.solve_last(at[self.rx.size:], values)[at[:self.rx.size], :]

        return FreqData(self.acq.frequencies, tuple(self.each(block)))


def forward(model: ModelGrid, acq: AcquisitionGeometry, f_peak: float = 10.0,
            pml_cells: int = 10, free_surface_top: bool = False,
            pml_velocity: float | None = None) -> FreqData:
    """Receiver data of ``model``: :meth:`Survey.data` with the model as background."""
    slowness = as_slowness_squared(model)
    survey = Survey(slowness, acq, f_peak, pml_cells, free_surface_top, pml_velocity)
    try:
        return survey.data(slowness.values)
    finally:
        survey.close()


def noise_level(signal_norm: float, snr_db: float) -> float:
    """The noise norm signal_norm * 10^(-snr_db / 20) that sets ``snr_db`` dB against a
    signal of norm ``signal_norm``; ValueError unless it is a finite number."""
    try:
        level = signal_norm * 10.0 ** (-snr_db / 20.0)
    except OverflowError:  # a float power past the float range raises
        level = math.inf
    if not math.isfinite(level):
        raise ValueError(f"SNR must be a number of dB that sets a finite noise level, "
                         f"got {snr_db!r}")
    return level


def add_noise(data: FreqData, snr_db: float | None, seed: int = 0) -> FreqData:
    """Add seeded complex Gaussian noise hitting the target SNR exactly.

    SNR is 20*log10(signal RMS / noise RMS) over all entries of all blocks;
    the drawn noise is rescaled after the fact so the realized value matches.
    ``snr_db=None`` or +inf returns the data unchanged; an SNR whose
    :func:`noise_level` is not a finite number (NaN, -inf or one far below
    0 dB) is a ValueError.
    """
    if snr_db is None or snr_db == math.inf:
        return FreqData(data.frequencies, tuple(b.copy() for b in data.blocks))
    signal_norm = data.norm()
    target = noise_level(signal_norm, snr_db)
    if signal_norm == 0.0:
        raise ValueError("cannot scale noise against all-zero data")
    rng = np.random.default_rng(seed)
    draws = [
        rng.standard_normal(b.shape) + 1j * rng.standard_normal(b.shape)
        for b in data.blocks
    ]
    draw_norm = np.sqrt(sum(np.sum(np.abs(n) ** 2) for n in draws))
    scale = target / draw_norm
    return FreqData(
        data.frequencies,
        tuple(b + scale * n for b, n in zip(data.blocks, draws)),
    )
