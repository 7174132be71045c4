"""Misfit oracles for waveform inversion, quality metrics, and run drivers.

Both oracles parameterize the model by squared slowness on the interior grid,
which keeps the wave operator affine in the unknowns: adjoint gradients need
only diagonal correlation terms, and the penalty-formulation misfit at frozen
fields is a quadratic with an exactly diagonal Hessian, which ``WriOracle``
keeps as three model-sized coefficients, not as the fields.  Each oracle
solves through one :class:`wave.Survey` over its background, the one home of
the survey decisions: the absorbing collar and its damping profile are frozen
there, so interior derivatives are clean, and ``run_inversion`` takes the
speed of that profile from it when it synthesizes data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import wave
from .denoise import make_denoiser
from .errors import ConfigError, FormatError, GeometryError, NumericalError, StateError
from .model import (
    KIND_SLOWNESS_SQ,
    AcquisitionGeometry,
    FreqData,
    ModelGrid,
    as_slowness_squared,
    as_velocity,
    check_same,
    read_freq_data,
    read_grid,
    surface_boundary_geometry,
    survey_geometry,
    write_grid,
)
from .optim import SOLVERS, OptConfig, _check_hessian, history_to_csv, proximal_newton_solve

MU_RATIO = 1e-2  # default_penalty_mu's fraction of ||A||_inf
FORMULATIONS = ("fwi", "irwri")  # multiscale_drive's misfits: reduced-space and penalty


def rmse(m, m_true) -> float:
    """Relative model error in percent: 100 ||m - m*|| / ||m*||."""
    m = np.asarray(getattr(m, "values", m), dtype=np.float64)
    m_true = np.asarray(getattr(m_true, "values", m_true), dtype=np.float64)
    if m.shape != m_true.shape:
        raise ValueError(f"shape mismatch {m.shape} vs {m_true.shape}")
    denom = np.linalg.norm(m_true)
    if denom == 0.0:
        raise ValueError("reference model is identically zero")
    return 100.0 * float(np.linalg.norm(m - m_true) / denom)


def velocity_error(m, true_vel) -> float:
    """||v - v_true|| in m/s for a squared-slowness model m.

    A model with any cell m <= 0 (or NaN) has no velocity there, so its error
    is inf: a model-error stopping target is never met by such a model.
    """
    m = np.asarray(m, dtype=np.float64)
    if not np.all(m > 0.0):
        return math.inf
    return float(np.linalg.norm(1.0 / np.sqrt(m) - true_vel))


def snr_db(signal, noise) -> float:
    """20 log10(signal RMS / noise RMS) over all entries."""
    signal = np.asarray(signal).ravel()
    noise = np.asarray(noise).ravel()
    rms_s = np.sqrt(np.mean(np.abs(signal) ** 2))
    rms_n = np.sqrt(np.mean(np.abs(noise) ** 2))
    if rms_n == 0.0 or rms_s == 0.0:
        raise ValueError("zero RMS in SNR computation")
    return 20.0 * float(np.log10(rms_s / rms_n))


class _OracleBase:
    """What both oracles share: the observed data and the :class:`wave.Survey`
    they solve through, with its collar frozen at the background."""

    def __init__(self, acq, observed, background, f_peak, pml_cells, free_surface_top):
        self.survey = wave.Survey(background, acq, f_peak, pml_cells, free_surface_top)
        if observed.frequencies != acq.frequencies:
            raise GeometryError("observed data frequencies do not match the acquisition")
        if observed.n_receivers != acq.n_receivers or observed.n_sources != acq.n_sources:
            raise GeometryError("observed data shape does not match the acquisition")
        self.observed = observed

    def data_residual_norm(self, m) -> float:
        """Reduced-space data residual ||P A(m)^-1 b - d|| of :meth:`wave.Survey.data` at m."""
        data = self.survey.data(m)
        return math.sqrt(sum(float(np.sum(np.abs(p - d) ** 2))
                             for p, d in zip(data.blocks, self.observed.blocks)))


class FwiOracle(_OracleBase):
    """Reduced-space data misfit 0.5 sum ||d - P A(m)^-1 b||^2.

    The gradient is computed by the adjoint-state method (the operator is
    complex-symmetric, so the forward factorization back-propagates the
    conjugated residual), and ``hvp`` applies the first-order (Gauss-Newton)
    Hessian term matrix-free with two extra block solves per frequency.  The
    last model's forward solves, factors included, sit in the survey's keep
    slots, and the oracle caches only that model and its misfit.
    """

    def __init__(self, acq, observed, background, f_peak=10.0, pml_cells=10,
                 free_surface_top=False):
        super().__init__(acq, observed, background, f_peak, pml_cells, free_surface_top)
        self._cache_key = None
        self._misfit = None

    def _prepare(self, m) -> float:
        """The misfit at m, with each frequency's forward solve at m kept in its slot
        as the tuple (factor, fields u = A(m)^-1 b, residual P u - d)."""
        m = np.asarray(m, dtype=np.float64)
        key = m.tobytes()
        if key != self._cache_key:
            self._cache_key = None  # the slots are being replaced

            def solve(i):
                self.survey.keep(i, None)  # the old factor goes before its replacement is made
                fact, u = self.survey.solve_sources(m, i)
                resid = u[self.survey.rx, :] - self.observed.blocks[i]
                self.survey.keep(i, (fact, u, resid))
                return 0.5 * float(np.sum(np.abs(resid) ** 2))

            self._misfit = sum(self.survey.each(solve))
            self._cache_key = key
        return self._misfit

    def value(self, m) -> float:
        return self._prepare(m)

    def data_residual_norm(self, m) -> float:
        """The reduced-space data residual, read from the cached solve."""
        return math.sqrt(2.0 * self.value(m))

    def _back_correlate(self, i, fact, u, r) -> np.ndarray:
        """-omega_i^2 sum_s Re(u_s * A^-1 P^T conj(r_s)) on the interior."""
        adj_src = np.zeros_like(u)
        adj_src[self.survey.rx, :] = np.conj(r)
        w = fact.solve(adj_src)
        omega = self.survey.omegas[i]
        return (-(omega**2) * np.sum((u * w).real, axis=1))[self.survey.interior_rows]

    def gradient(self, m) -> np.ndarray:
        self._prepare(m)
        return sum(self.survey.each(lambda i: self._back_correlate(i, *self.survey.kept(i))))

    def hvp(self, m, v) -> np.ndarray:
        """Gauss-Newton product J^T J v via forward-linearized and adjoint solves."""
        self._prepare(m)
        v = np.asarray(v, dtype=np.float64)
        vp = np.zeros(self.survey.collar.size)  # v on the interior, zero on the collar
        vp[self.survey.interior_rows] = v.reshape(self.survey.interior_rows.shape)

        def product(i):
            fact, u, _ = self.survey.kept(i)
            du = fact.solve(-self.survey.omegas[i] ** 2 * (vp[:, None] * u))
            return self._back_correlate(i, fact, u, du[self.survey.rx, :])

        return sum(self.survey.each(product)).reshape(v.shape)


class WriOracle(_OracleBase):
    """Penalty-formulation misfit 0.5 sum ||b - A(m) u||^2 at frozen data-assimilated fields u.

    ``update_wavefields`` (run by ``begin_outer``) solves for u at m_ref = m with
    ``wave.Survey.solve_penalty``.  Inside, A(m) - A(m_ref) = omega^2 diag(m - m_ref), so with
    W = omega^2 u, E = b - A(m_ref) u and d = m_ref - m on the interior, b - A(m) u is E + d W
    there, and on the collar it does not depend on m.  The misfit is c + sum d g + 0.5 sum d^2 h
    with c = 0.5 ||b - A(m_ref) u||^2 (collar rows included), g = sum Re(conj(W) E) and
    h = sum |W|^2 over every (frequency, source) column.  The oracle freezes m_ref and these
    (nz, nx) coefficients: the gradient is -(g + d h) and the exact Hessian diag(h).
    """

    def __init__(self, acq, observed, background, mu, f_peak=10.0, pml_cells=10,
                 free_surface_top=False):
        super().__init__(acq, observed, background, f_peak, pml_cells, free_surface_top)
        if not 0.0 < mu < math.inf:
            raise ValueError(f"penalty parameter mu must be positive and finite, got {mu!r}")
        self.mu = float(mu)
        self._frozen = None  # (m_ref, c, g, h), set by update_wavefields

    def update_wavefields(self, m):
        """Solve for every penalty field at m; each frequency reduces its own to (c, g, h)."""
        interior = self.survey.interior_rows

        def coefficients(i):
            u, e = self.survey.solve_penalty(m, i, self.observed.blocks[i], self.mu)
            w = self.survey.omegas[i] ** 2 * u[interior]
            return (0.5 * float(np.sum(np.abs(e) ** 2)),
                    np.sum((np.conj(w) * e[interior]).real, axis=2),
                    np.sum(np.abs(w) ** 2, axis=2))

        c, g, h = (sum(terms) for terms in zip(*self.survey.each(coefficients)))
        self._frozen = (np.array(m, dtype=np.float64), c, g, h)
        return self

    def begin_outer(self, m):
        self.update_wavefields(m)

    def _at(self, m):
        """(d, c, g, h): d = m_ref - m and the frozen coefficients."""
        if self._frozen is None:
            raise StateError("wavefields not initialized; call update_wavefields first")
        m_ref, c, g, h = self._frozen
        return m_ref - np.asarray(m, dtype=np.float64), c, g, h

    def value(self, m) -> float:
        d, c, g, h = self._at(m)
        return c + float(np.sum(d * (g + 0.5 * d * h)))

    def gradient(self, m) -> np.ndarray:
        d, _, g, h = self._at(m)
        return -(g + d * h)

    def hessian_diag(self, m) -> np.ndarray:
        return self._at(m)[3].copy()


def default_penalty_mu(background: ModelGrid, first_freq: float, pml_cells: int = 10,
                       free_surface_top: bool = False) -> float:
    """Heuristic mu: ``MU_RATIO`` times ||A||_inf, the largest absolute row sum of A.

    A is the operator at ``first_freq`` from :meth:`wave.Survey.system` over
    the background, so its collar and damping profile are the inversion's.  A
    is complex-symmetric, so ||A||_2 <= ||A||_1 = ||A||_inf (Golub & Van
    Loan 2013, 2.3): a bound on the spectral norm with no iteration.  A's
    Dirichlet ring rows are identity rows, and on every benchmark grid at
    2000 m/s the others sum below 1 (0.137 at 161^2, 12.5 m, 4 Hz; 0.023 at
    81^2, 25 m, 3 Hz; 0.0033 at 41^2, 50 m, 3 Hz), so both norms are 1 and mu
    is exactly ``MU_RATIO``.  Below about 10 m spacing the collar rows sum past
    1, and mu exceeds ``MU_RATIO`` ||A||_2 by under 2 % (12^2 at 1 m: 356.2 to 351.6).
    """
    layout = surface_boundary_geometry(background.nz, background.nx, (first_freq,),
                                       free_surface_top=free_surface_top)  # A ignores it
    # A ignores the wavelet too; one peaking at first_freq is nonzero there
    survey = wave.Survey(background, layout, first_freq, pml_cells, free_surface_top)
    a = survey.system(as_slowness_squared(background).values, 0)
    return MU_RATIO * float(abs(a).sum(axis=1).max())


# ---------------------------------------------------------------------------
# multiscale frequency-continuation driver


def multiscale_drive(
    m0,
    observed: FreqData,
    acq: AcquisitionGeometry,
    method: str,
    algorithm: str,
    denoiser,
    lam: float,
    mu: float | None,
    plan,
    config: OptConfig,
    background: ModelGrid,
    f_peak: float = 10.0,
    pml_cells: int = 10,
    free_surface_top: bool = False,
):
    """Run the solver over frequency batches, warm-starting each from the last.

    ``plan`` is a list of paths, each a list of batches, each a list of
    frequencies drawn from the acquisition.  Returns the final interior model
    (squared slowness) and the solver's ``SolveResult`` of each batch, in plan
    order.  ``lam`` is never read (``config.lam`` sets the strength); it stays
    only because the benchmark passes the arguments by position.
    """
    if method not in FORMULATIONS:
        raise ConfigError(f"unknown inversion method {method!r}")
    if method == "irwri" and not (mu is not None and 0.0 < mu < math.inf):
        raise ConfigError(f"penalty method needs a positive mu, got {mu!r}")
    if not plan or not any(len(path) for path in plan):
        raise ConfigError("continuation plan is empty")
    m = np.asarray(m0, dtype=np.float64)
    results = []
    for path in plan:
        for batch in path:
            batch = tuple(float(f) for f in batch)
            sub_acq = acq.subset(batch)
            sub_obs = observed.subset(batch)
            if method == "fwi":
                oracle = FwiOracle(
                    sub_acq, sub_obs, background, f_peak, pml_cells, free_surface_top
                )
            else:
                oracle = WriOracle(
                    sub_acq, sub_obs, background, mu, f_peak, pml_cells, free_surface_top
                )
            try:
                results.append(proximal_newton_solve(oracle, denoiser, config, m, algorithm))
            finally:
                oracle.survey.close()
            m = results[-1].m
    return m, results


# ---------------------------------------------------------------------------
# run configuration (simple key = value text files)


@dataclass
class RunConfig:
    model_init: str = ""
    model_true: str = ""
    data: str = ""
    method: str = "irwri"  # one of FORMULATIONS
    algorithm: str = "nadmm"  # one of optim.SOLVERS
    # the solver settings: run_inversion runs them as they are, with its stopping pair
    # added; parse_run_config sets the hessian the method defaults to
    opt: OptConfig = field(default_factory=OptConfig)
    denoiser: str = "identity"
    mu: float | str = "auto"  # auto: default_penalty_mu
    frequencies: tuple = ()
    batches: tuple = ()  # tuple of tuples; empty means one batch of all
    paths: int = 1
    stopping: tuple = ("max-iter", None)  # (rule, target); target None is auto or none
    snr_db: float | None = None
    f_peak: float = 10.0
    pml_cells: int = 10
    free_surface: bool = False
    n_sources: int = 5
    source_depth: int | None = None  # None: the top row a source may use
    receiver_spacing: int = 2
    sources: tuple = ()  # optional explicit (iz, ix) pairs
    receivers: tuple = ()
    out_dir: str = "run_out"
    where: dict = field(default_factory=dict)  # "file:line" that set each run-file key


STOPPING_RULES = ("max-iter", "data-residual", "model-error")
# run-file keys that set the OptConfig field of the same name (lambda sets lam), with its type
_OPT_KEYS = {"lambda": float, "max_outer": int, "inner_iters": int, "c_fixed": float,
             "hessian": str, "seed": int}
# every run-file key: each RunConfig field but opt and where is one, of the same name
_KEYS = {f.name for f in fields(RunConfig)} - {"opt", "where"} | set(_OPT_KEYS)
_TRUE, _FALSE = ("1", "true", "yes", "on"), ("0", "false", "no", "off")  # free_surface's words


def _in_range(value, low: float, strict: bool = False):
    """``value`` if it is finite and at least ``low`` (above it if ``strict``), else
    ValueError naming the one condition it fails."""
    if isinstance(value, float) and not math.isfinite(value):  # an int may not fit a float
        raise ValueError(f"{value!r} is not finite")
    if strict and not value > low:
        raise ValueError(f"{value!r} is not above {low:g}")
    if value < low:
        raise ValueError(f"{value!r} is below {low:g}")
    return value


def _choice(value: str, choices: tuple) -> str:
    if value not in choices:
        raise ValueError(f"{value!r} is not one of {' | '.join(choices)}")
    return value


def _frequencies(text: str) -> tuple:
    """Comma-separated frequencies, each finite and above 0 Hz and above the one before;
    empty items are skipped."""
    freqs = tuple(_in_range(float(v), 0.0, True) for v in text.split(",") if v.strip())
    if any(b <= a for a, b in zip(freqs, freqs[1:])):
        raise ValueError(f"{freqs} is not strictly increasing")
    return freqs


def _snr_db(text: str) -> float | None:
    """An SNR in dB, a number or +inf; ``none`` and ``inf`` read as None (no noise)."""
    value = None if text.strip().lower() in ("none", "inf") else float(text)
    if value is not None and not value > -math.inf:
        raise ValueError(f"{value!r} is not a number of dB or +inf")
    return value


def _stopping(text: str) -> tuple:
    """``(rule, target)``: max-iter and data-residual's auto have target None."""
    rule, sep, target = text.partition(":")
    _choice(rule, STOPPING_RULES)
    if rule == "max-iter" and sep:
        raise ValueError("max-iter takes no target")
    if rule == "max-iter" or (rule == "data-residual" and target in ("", "auto")):
        return rule, None
    return rule, _in_range(float(target), 0.0)


def _bad_value(cfg: RunConfig, key: str, reason) -> ConfigError:
    """ConfigError naming ``key`` and, when a run file set it, the file and line."""
    where = f"{cfg.where[key]}: " if key in cfg.where else ""
    return ConfigError(f"{where}bad value for {key}: {reason}")


def _parse_points(text: str) -> tuple:
    pairs = [item.split(":") for item in text.split(";") if item.strip()]
    return tuple((int(iz), int(ix)) for iz, ix in pairs)


def parse_run_config(path) -> RunConfig:
    """Read a ``key = value`` run file into a RunConfig, checking every key.

    ``#`` starts a comment and ``-`` in a key reads as ``_``.  A relative path
    (model_init, model_true, data, out_dir) is taken from the run file's
    directory, and an absolute one as it is.  An unknown key, a key set twice
    (the error names both lines), or a value of the wrong type, out of range
    (a bounded number must also be finite), outside its choices or at odds
    with another key, is a ConfigError naming the key and its line, at parse
    time.  The keys lambda (which sets ``lam``), max_outer, inner_iters,
    c_fixed, hessian and seed set the field of ``cfg.opt`` that
    ``run_inversion`` runs, and ``OptConfig.validate`` checks each as it is
    read.  A file that leaves hessian unset gets its method's default at the
    end of parsing, and the hessian is then checked against the method's
    oracle.  Only what needs the model grids (source_depth's upper bound, the
    explicit sources and receivers, the denoiser) and the input files wait
    for ``run_inversion``, which checks them before any modeling and names
    the key and its line the same way.  Keys, as ``name (type, default): syntax``:

    - model_init (path, required), model_true (path, on model_init's grid),
      data (path): without data, the data is synthesized from model_true.
    - method (fwi | irwri, irwri); algorithm (nista | nadmm, nadmm);
      hessian (lbfgs | identity, hvp for fwi only or diagonal for irwri only;
      diagonal for irwri and lbfgs for fwi); denoiser (make_denoiser spec, identity);
      lambda (float >= 0, 0); mu (float > 0 | auto, auto): the WRI penalty weight.
    - frequencies (Hz > 0, strictly increasing, required): ``3,4.5``; batches
      (Hz > 0, one batch of all): ``3,4 | 5,6``, each some frequencies in
      order; paths (int >= 1, 1): passes over the batches.
    - max_outer (int >= 0, 70); inner_iters (int >= 1, 100): the cap on
      NISTA's inner sweeps, which stop earlier at optim.INNER_FORCING.
    - c_fixed (float > 0, unset): the step scale ck of every outer step;
      unset, each step takes C_SAFETY / sigma_max of its Hessian.
    - stopping (max-iter): ``max-iter | data-residual[:EPS|auto] |
      model-error:VAL`` with EPS, VAL >= 0.  data-residual stops at a
      reduced-space residual ||P A(m)^-1 b - d|| <= 1.01 EPS, and auto takes
      EPS from the noise synthesized at a finite snr_db; model-error stops at
      ||v - v_true|| <= VAL (m/s), which a model with any cell m <= 0 never meets.
    - snr_db (float, not nan or -inf | none | inf, none), whose
      ``wave.noise_level`` against a unit signal must be finite, so not below
      about -6165 dB; seed (int >= 0, 0): seeds the noise and the sigma_max
      power iteration; f_peak (Hz > 0, 10), whose source wavelet must be
      nonzero at every frequency (``wave.check_f_peak``); pml_cells
      (int >= wave.MIN_PML_CELLS = 5, 10); free_surface (``1 | true | yes |
      on`` or ``0 | false | no | off`` in any case, false).
    - n_sources (int >= 1, 5), source_depth (int >= 0, 0; 1 under a free surface),
      receiver_spacing (int >= 1, 2): the surface layout, whose side
      receivers start at row 1 under a free surface, as no source or receiver
      may sit on its Dirichlet row 0; replaced by sources and receivers
      (``iz:ix;iz:ix``), which go together (model.survey_geometry); out_dir
      (path, run_out in the working directory).
    """
    cfg = RunConfig()
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, value = key.strip().replace("-", "_"), value.strip()
        if key not in _KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in cfg.where:
            raise ConfigError(f"{path}:{lineno}: {key} is set again, first at {cfg.where[key]}")
        cfg.where[key] = f"{path}:{lineno}"
        try:
            if key in ("model_init", "model_true", "data", "out_dir"):
                setattr(cfg, key, value and str(Path(path).parent / value))
            elif key == "denoiser":
                cfg.denoiser = value
            elif key == "method":
                cfg.method = _choice(value, FORMULATIONS)
            elif key == "algorithm":
                cfg.algorithm = _choice(value, SOLVERS)
            elif key == "mu":
                cfg.mu = value if value == "auto" else _in_range(float(value), 0.0, True)
            elif key == "stopping":
                cfg.stopping = _stopping(value)
            elif key == "frequencies":
                cfg.frequencies = _frequencies(value)
            elif key == "batches":
                cfg.batches = tuple(_frequencies(part) for part in value.split("|"))
            elif key == "pml_cells":
                cfg.pml_cells = wave.check_pml_cells(int(value))
            elif key in ("paths", "n_sources", "receiver_spacing"):
                setattr(cfg, key, _in_range(int(value), 1))
            elif key == "source_depth":
                cfg.source_depth = _in_range(int(value), 0)
            elif key == "f_peak":
                cfg.f_peak = _in_range(float(value), 0.0, True)
            elif key == "snr_db":
                cfg.snr_db = _snr_db(value)
                if cfg.snr_db is not None:  # a level that overflows at unit signal fits no data
                    wave.noise_level(1.0, cfg.snr_db)
            elif key == "free_surface":
                cfg.free_surface = _choice(value.lower(), _TRUE + _FALSE) in _TRUE
            elif key in ("sources", "receivers"):
                setattr(cfg, key, _parse_points(value))
            else:  # a key of _OPT_KEYS
                setattr(cfg.opt, "lam" if key == "lambda" else key, _OPT_KEYS[key](value))
                cfg.opt.validate()
        except (ValueError, ConfigError) as exc:
            raise _bad_value(cfg, key, exc) from exc

    if not cfg.model_init:
        raise ConfigError(f"{path}: model_init is required")
    if not cfg.frequencies:
        raise ConfigError(f"{path}: frequencies are required")
    if not (cfg.data or cfg.model_true):
        raise ConfigError(f"{path}: either data or model_true is required")
    try:
        wave.check_f_peak(cfg.f_peak, cfg.frequencies)
    except ValueError as exc:
        raise _bad_value(cfg, "f_peak", exc) from None
    if "hessian" not in cfg.where:
        cfg.opt.hessian = "diagonal" if cfg.method == "irwri" else "lbfgs"
    try:
        _check_hessian(cfg.opt.hessian, FwiOracle if cfg.method == "fwi" else WriOracle)
    except ConfigError as exc:
        raise _bad_value(cfg, "hessian", f"{exc} (method {cfg.method})") from None
    for batch in cfg.batches:
        if not batch or batch != tuple(f for f in cfg.frequencies if f in batch):
            raise _bad_value(cfg, "batches", f"{batch} is not some of the frequencies "
                                             f"{cfg.frequencies} in their order")
    if bool(cfg.sources) != bool(cfg.receivers):
        raise _bad_value(cfg, "sources" if cfg.sources else "receivers",
                         "sources and receivers must be given together")
    rule, target = cfg.stopping
    if rule == "model-error" and not cfg.model_true:
        raise _bad_value(cfg, "stopping", "model-error needs model_true")
    if (rule == "data-residual" and target is None
            and (cfg.data or cfg.snr_db in (None, math.inf))):
        raise _bad_value(cfg, "stopping",
                         "data-residual:auto needs data synthesized at a finite snr_db")
    return cfg


@dataclass
class RunSummary:
    batches: list
    final_rmse: float | None


def _read_input(cfg: RunConfig, key: str, reader):
    """``reader`` of the file at key ``key``; a file missing or unreadable is a
    ConfigError naming the key and its line."""
    try:
        return reader(getattr(cfg, key))
    except (OSError, FormatError) as exc:
        raise _bad_value(cfg, key, exc) from None


def _check_not_zero(cfg: RunConfig, data: FreqData, key: str, what: str) -> None:
    """ConfigError naming ``key`` if ``data`` is zero in floating point at a run
    frequency: its squared norm there is below the smallest normal float, so
    the misfit and its gradient would be zero and the run would stop at once."""
    for f, block in zip(data.frequencies, data.blocks):
        if f in cfg.frequencies and not np.sum(np.abs(block) ** 2) >= np.finfo(float).tiny:
            raise _bad_value(cfg, key, f"{what} zero in floating point at {f:g} Hz "
                                       f"(squared norm below {np.finfo(float).tiny:.3g})")


def run_inversion(cfg: RunConfig) -> RunSummary:
    """Execute a configured inversion run and write its outputs.

    Observed data comes from ``data`` when given, and must hold every run
    frequency in the run's receivers x sources shape; otherwise it is
    synthesized from ``model_true`` (with optional seeded noise at
    ``snr_db``).  Read or synthesized (before noise), data whose squared norm
    at a run frequency is below the smallest normal float is a ConfigError
    naming that frequency.  The histories are written first; a batch or final model with
    any cell m <= 0 or NaN then raises NumericalError, and no grid is written.
    """
    init = _read_input(cfg, "model_init", read_grid)
    true = _read_input(cfg, "model_true", read_grid) if cfg.model_true else None
    if true is not None:
        check_same("model_true", true.layout(), "model_init", init.layout())
    try:
        denoiser = make_denoiser(
            cfg.denoiser, ref=as_slowness_squared(init).values, dz=init.dz, dx=init.dx
        )
    except ConfigError as exc:
        raise _bad_value(cfg, "denoiser", exc) from None

    acq = survey_geometry(init.nz, init.nx, cfg.frequencies, cfg.sources, cfg.receivers,
                          cfg.n_sources, cfg.source_depth, cfg.receiver_spacing, cfg.free_surface)
    try:
        survey = wave.Survey(init, acq, cfg.f_peak, cfg.pml_cells, cfg.free_surface)
    except GeometryError as exc:  # the surface layout's receivers always lie inside
        key = "source_depth"
        if cfg.sources:
            key = "sources" if str(exc).startswith("source") else "receivers"
        raise _bad_value(cfg, key, exc) from None

    noise_norm = None
    if cfg.data:
        observed = _read_input(cfg, "data", read_freq_data)
        run = (f"{acq.n_receivers} receivers x {acq.n_sources} sources at "
               f"{', '.join(str(f) for f in acq.frequencies)} Hz")
        if (not set(acq.frequencies) <= set(observed.frequencies)  # batches may subset extras
                or (observed.n_receivers, observed.n_sources) != (acq.n_receivers, acq.n_sources)):
            raise _bad_value(cfg, "data", f"{Path(cfg.data).name} holds {observed.layout()}, "
                                          f"but the run has {run}")
        _check_not_zero(cfg, observed, "data", f"{Path(cfg.data).name} is")
    else:
        # the oracles' damping profile, so the data and the oracles share one operator
        clean = wave.forward(true, acq, cfg.f_peak, cfg.pml_cells, cfg.free_surface,
                             pml_velocity=survey.pml_velocity)
        _check_not_zero(cfg, clean, "f_peak", f"the data modeled with the source wavelet of "
                                              f"peak frequency {cfg.f_peak:g} Hz are")
        observed = wave.add_noise(clean, cfg.snr_db, cfg.opt.seed)
        if cfg.snr_db not in (None, math.inf):
            noise = tuple(n - c for n, c in zip(observed.blocks, clean.blocks))
            noise_norm = FreqData(clean.frequencies, noise).norm()

    rule, target = cfg.stopping
    stop_target, stop_metric = None, None
    if rule == "data-residual":
        stop_target = 1.01 * (noise_norm if target is None else target)
        stop_metric = lambda oracle, m: oracle.data_residual_norm(m)
    elif rule == "model-error":
        stop_target, true_vel = target, as_velocity(true).values
        stop_metric = lambda oracle, m: velocity_error(m, true_vel)
    mu = cfg.mu if cfg.method == "irwri" else None
    if mu == "auto":
        mu = default_penalty_mu(init, cfg.frequencies[0], cfg.pml_cells, cfg.free_surface)
    config = replace(cfg.opt, stop_target=stop_target, stop_metric=stop_metric)

    batches = cfg.batches if cfg.batches else (cfg.frequencies,)
    plan = [list(batches)] * cfg.paths
    m0 = as_slowness_squared(init).values
    m_final, batch_results = multiscale_drive(
        m0, observed, acq, cfg.method, cfg.algorithm, denoiser, cfg.opt.lam, mu,
        plan, config, init, cfg.f_peak, cfg.pml_cells, cfg.free_surface,
    )

    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tags = [f"p{pi}_b{bi}" for pi, path in enumerate(plan) for bi in range(len(path))]
    models = {}
    for tag, res in zip(tags, batch_results):
        history_to_csv(res.history, out / f"history_{tag}.csv")
        models[f"batch_{tag}"] = res.m
    models["final"] = m_final
    for name, m in models.items():
        bad = int(np.count_nonzero(~(m > 0.0)))
        if bad:
            raise NumericalError(f"{name} model has {bad} of {m.size} cells with m <= 0 "
                                 "or NaN: the run diverged, and no grid was written")
    grids = {name: as_velocity(ModelGrid(init.nz, init.nx, init.dz, init.dx, m, KIND_SLOWNESS_SQ))
             for name, m in models.items()}
    for name, grid in grids.items():
        write_grid(grid, out / f"{name}.grd")
    final_rmse = None
    if true is not None:
        final_rmse = rmse(grids["final"], as_velocity(true))
        (out / "summary.txt").write_text(
            f"final_rmse_percent={final_rmse:.6f}\n"
            f"batches={len(batch_results)}\n"
            f"status={batch_results[-1].status}\n"
        )
    return RunSummary(batch_results, final_rmse)
