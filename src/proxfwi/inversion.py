"""Misfit oracles for waveform inversion, quality metrics, and run drivers.

Both oracles parameterize the model by squared slowness on the interior grid,
which keeps the wave operator affine in the unknowns: adjoint gradients need
only diagonal correlation terms, and the penalty-formulation Hessian is
exactly diagonal.  The absorbing collar is frozen at the background model so
interior derivatives are clean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from . import linsys, wave
from .denoise import make_denoiser
from .errors import ConfigError, GeometryError, StateError
from .model import (
    KIND_SLOWNESS_SQ,
    KIND_VELOCITY,
    AcquisitionGeometry,
    FreqData,
    ModelGrid,
    as_slowness_squared,
    as_velocity,
    read_grid,
    surface_boundary_geometry,
    write_grid,
)
from .optim import OptConfig, history_to_csv, proximal_newton_solve


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
    """Geometry plumbing shared by both oracles: frozen-collar padding."""

    def __init__(self, acq, observed, background, f_peak, pml_cells, free_surface_top):
        background = as_slowness_squared(background)
        acq.validate_for(background.nz, background.nx, min_iz=1 if free_surface_top else 0)
        if observed.frequencies != acq.frequencies:
            raise GeometryError("observed data frequencies do not match the acquisition")
        if observed.n_receivers != acq.n_receivers or observed.n_sources != acq.n_sources:
            raise GeometryError("observed data shape does not match the acquisition")
        self.acq = acq
        self.observed = observed
        self.f_peak = float(f_peak)
        self.pml_cells = int(pml_cells)
        self.free_surface_top = bool(free_surface_top)
        self.nz, self.nx = background.nz, background.nx
        self.dz, self.dx = background.dz, background.dx
        self._pad_top = 0 if free_surface_top else self.pml_cells
        # the interior block of the padded grid
        self._interior = np.s_[self._pad_top : self._pad_top + self.nz,
                               self.pml_cells : self.pml_cells + self.nx]
        self._collar = np.pad(
            background.values,
            ((self._pad_top, self.pml_cells), (self.pml_cells, self.pml_cells)),
            mode="edge",
        )
        # damping profile frozen at the background speed so A stays affine in m
        self._pml_velocity = 1.0 / math.sqrt(float(np.min(self._collar)))

    def _padded(self, m: np.ndarray) -> np.ndarray:
        m = np.asarray(m, dtype=np.float64)
        if m.shape != (self.nz, self.nx):
            raise GeometryError(f"model shape {m.shape} != ({self.nz}, {self.nx})")
        padded = self._collar.copy()
        padded[self._interior] = m
        return padded

    def _assemble(self, m: np.ndarray, freq: float) -> wave.HelmholtzSystem:
        return wave.assemble_padded(
            self._padded(m), self.dz, self.dx, 2.0 * np.pi * freq,
            self.pml_cells, self._pad_top, self.free_surface_top,
            pml_velocity=self._pml_velocity,
        )


class FwiOracle(_OracleBase):
    """Reduced-space data misfit 0.5 sum ||d - P A(m)^-1 b||^2.

    The gradient is computed by the adjoint-state method (the operator is
    complex-symmetric, so the forward factorization back-propagates the
    conjugated residual), and ``hvp`` applies the first-order (Gauss-Newton)
    Hessian term matrix-free with two extra block solves per frequency.
    """

    def __init__(self, acq, observed, background, f_peak=10.0, pml_cells=10,
                 free_surface_top=False):
        super().__init__(acq, observed, background, f_peak, pml_cells, free_surface_top)
        self._cache_key = None
        self._cache = None

    def _prepare(self, m: np.ndarray):
        m = np.asarray(m, dtype=np.float64)
        key = m.tobytes()
        if key == self._cache_key:
            return self._cache
        per_freq = []
        misfit = 0.0
        for i, f in enumerate(self.acq.frequencies):
            system = self._assemble(m, f)
            fact = system.factor()
            b = system.point_sources(self.acq.sources, wave.ricker_amplitude(f, self.f_peak))
            u = fact.solve(b)
            rx = system.padded_indices(self.acq.receivers)
            resid = u[rx, :] - self.observed.blocks[i]
            misfit += 0.5 * float(np.sum(np.abs(resid) ** 2))
            per_freq.append(
                {"system": system, "fact": fact, "u": u, "rx": rx, "resid": resid}
            )
        self._cache_key = key
        self._cache = {"per_freq": per_freq, "misfit": misfit, "shape": m.shape}
        return self._cache

    def begin_outer(self, m):
        self._prepare(m)

    def value(self, m) -> float:
        return self._prepare(m)["misfit"]

    def simulate(self, m) -> list:
        """Predicted receiver data blocks P A(m)^-1 b, one per frequency."""
        cache = self._prepare(m)
        return [
            entry["resid"] + self.observed.blocks[i]
            for i, entry in enumerate(cache["per_freq"])
        ]

    def data_residual_norm(self, m) -> float:
        return math.sqrt(2.0 * self.value(m))

    def _back_correlate(self, entry, r) -> np.ndarray:
        """-omega^2 sum_s Re(u_s * A^-1 P^T conj(r_s)) on the padded grid."""
        system, u = entry["system"], entry["u"]
        adj_src = np.zeros_like(u)
        adj_src[entry["rx"], :] = np.conj(r)
        w = entry["fact"].solve(adj_src)
        return -(system.omega**2) * np.sum((u * w).real, axis=1).reshape(system.nzp, system.nxp)

    def gradient(self, m) -> np.ndarray:
        grad_pad = np.zeros_like(self._collar)
        for entry in self._prepare(m)["per_freq"]:
            grad_pad += self._back_correlate(entry, entry["resid"])
        return grad_pad[self._interior].copy()

    def hvp(self, m, v) -> np.ndarray:
        """Gauss-Newton product J^T J v via forward-linearized and adjoint solves."""
        cache = self._prepare(m)
        v = np.asarray(v, dtype=np.float64)
        v_pad = np.zeros_like(self._collar)
        v_pad[self._interior] = v.reshape(self.nz, self.nx)
        vp = v_pad.ravel()
        out_pad = np.zeros_like(self._collar)
        for entry in cache["per_freq"]:
            u, omega2 = entry["u"], entry["system"].omega ** 2
            du = entry["fact"].solve(-omega2 * (vp[:, None] * u))
            out_pad += self._back_correlate(entry, du[entry["rx"], :])
        return out_pad[self._interior].copy().reshape(v.shape)


class WriOracle(_OracleBase):
    """Penalty-formulation misfit 0.5 sum ||b - A(m) u_k||^2 at assimilated fields.

    ``begin_outer`` refreshes u_k by solving the stacked wave-equation /
    observation system; at fixed u_k the misfit, its gradient, and the exact
    diagonal Hessian sum omega^4 |u|^2 are all closed-form in m because the
    operator is affine in squared slowness.
    """

    def __init__(self, acq, observed, background, mu, f_peak=10.0, pml_cells=10,
                 free_surface_top=False):
        super().__init__(acq, observed, background, f_peak, pml_cells, free_surface_top)
        if mu <= 0.0:
            raise ValueError("penalty parameter mu must be positive")
        self.mu = float(mu)
        self._state = None

    def update_wavefields(self, m):
        """Solve the augmented normal equations for every source and frequency."""
        m = np.asarray(m, dtype=np.float64)
        per_freq = []
        hdiag = np.zeros((self.nz, self.nx))
        data_resid_sq = 0.0
        for i, f in enumerate(self.acq.frequencies):
            system = self._assemble(m, f)
            rx = system.padded_indices(self.acq.receivers)
            a = system.matrix.tocsc()
            ah = a.conjugate().transpose().tocsc()
            penalty = sp.coo_matrix(
                (np.full(rx.size, self.mu**2), (rx, rx)), shape=(system.n, system.n)
            )
            normal = (ah @ a + penalty).tocsc()
            b = system.point_sources(self.acq.sources, wave.ricker_amplitude(f, self.f_peak))
            rhs = ah @ b
            rhs[rx, :] += self.mu**2 * self.observed.blocks[i]
            fact = linsys.factorize(normal)
            u = fact.solve(rhs)
            u += fact.solve(rhs - normal @ u)

            e_ref = b - a @ u
            interior = system.interior_indices().ravel()
            u_int = u[interior, :].reshape(self.nz, self.nx, -1)
            e_int = e_ref[interior, :].reshape(self.nz, self.nx, -1)
            outside_sq = float(np.sum(np.abs(e_ref) ** 2)) - float(np.sum(np.abs(e_int) ** 2))
            omega2 = system.omega**2
            hdiag += omega2**2 * np.sum(np.abs(u_int) ** 2, axis=2)
            data_resid_sq += float(np.sum(np.abs(u[rx, :] - self.observed.blocks[i]) ** 2))
            per_freq.append(
                {
                    "system": system, "normal": normal, "rhs": rhs, "u": u, "rx": rx,
                    "b": b, "u_int": u_int, "e_int": e_int, "outside_sq": outside_sq,
                    "omega2": omega2,
                }
            )
        self._state = {
            "m_ref": m.copy(),
            "per_freq": per_freq,
            "hdiag": hdiag,
            "data_residual": math.sqrt(data_resid_sq),
        }
        return self

    def begin_outer(self, m):
        self.update_wavefields(m)

    @property
    def wavefields(self):
        return self._require_state()["per_freq"]

    def _require_state(self):
        if self._state is None:
            raise StateError("wavefields not initialized; call update_wavefields first")
        return self._state

    def _interior_residual(self, entry, m: np.ndarray) -> np.ndarray:
        delta = self._state["m_ref"] - np.asarray(m, dtype=np.float64)
        return entry["e_int"] + entry["omega2"] * delta[:, :, None] * entry["u_int"]

    def value(self, m) -> float:
        state = self._require_state()
        total = 0.0
        for entry in state["per_freq"]:
            e_int = self._interior_residual(entry, m)
            total += entry["outside_sq"] + float(np.sum(np.abs(e_int) ** 2))
        return 0.5 * total

    def gradient(self, m) -> np.ndarray:
        state = self._require_state()
        grad = np.zeros((self.nz, self.nx))
        for entry in state["per_freq"]:
            e_int = self._interior_residual(entry, m)
            grad += -entry["omega2"] * np.sum((np.conj(entry["u_int"]) * e_int).real, axis=2)
        return grad

    def hessian_diag(self, m) -> np.ndarray:
        return self._require_state()["hdiag"].copy()

    def hvp(self, m, v) -> np.ndarray:
        return self._require_state()["hdiag"] * np.asarray(v, dtype=np.float64)

    def data_residual_norm(self, m) -> float:
        return self._require_state()["data_residual"]


def default_penalty_mu(background: ModelGrid, first_freq: float, ratio: float = 1e-2,
                       pml_cells: int = 10, free_surface_top: bool = False) -> float:
    """Heuristic mu: a fixed fraction of the wave-operator spectral norm."""
    slowness = as_slowness_squared(background)
    system = wave.assemble(slowness, 2.0 * np.pi * first_freq, pml_cells, free_surface_top)
    a = system.matrix
    est = linsys.spectral_norm(
        lambda v: a @ v, system.n, apply_adjoint=lambda v: a.conjugate().transpose() @ v,
        tol=1e-3, max_iter=200,
    )
    return ratio * est.value


# ---------------------------------------------------------------------------
# multiscale frequency-continuation driver


@dataclass
class BatchResult:
    path_index: int
    batch_index: int
    frequencies: tuple
    m_start: np.ndarray
    m_final: np.ndarray
    history: list
    status: str
    n_outer: int


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
    (squared slowness) and one BatchResult per batch run.
    """
    if method not in ("fwi", "irwri"):
        raise ConfigError(f"unknown inversion method {method!r}")
    if not plan or not any(len(path) for path in plan):
        raise ConfigError("continuation plan is empty")
    m = np.asarray(m0, dtype=np.float64).copy()
    results = []
    for pi, path in enumerate(plan):
        for bi, batch in enumerate(path):
            batch = tuple(float(f) for f in batch)
            sub_acq = acq.subset(batch)
            sub_obs = observed.subset(batch)
            if method == "fwi":
                oracle = FwiOracle(
                    sub_acq, sub_obs, background, f_peak, pml_cells, free_surface_top
                )
            else:
                if mu is None or mu <= 0.0:
                    raise ConfigError("penalty method needs a positive mu")
                oracle = WriOracle(
                    sub_acq, sub_obs, background, mu, f_peak, pml_cells, free_surface_top
                )
            m_start = m.copy()
            result = proximal_newton_solve(oracle, denoiser, replace(config), m, algorithm)
            m = result.m
            results.append(
                BatchResult(pi, bi, batch, m_start, m.copy(), result.history,
                            result.status, result.n_outer)
            )
    return m, results


# ---------------------------------------------------------------------------
# run configuration (simple key = value text files)


@dataclass
class RunConfig:
    model_init: str = ""
    model_true: str = ""
    data: str = ""
    method: str = "irwri"  # fwi | irwri
    algorithm: str = "nadmm"  # nista | nadmm
    hessian: str = ""  # default chosen per method
    denoiser: str = "identity"
    lam: float = 0.0
    mu: str = "auto"
    frequencies: tuple = ()
    batches: tuple = ()  # tuple of tuples; empty means one batch of all
    paths: int = 1
    max_outer: int = 70
    inner_iters: int = 100
    c_rule: str = "auto-spectral"
    c_fixed: float = 1.0
    warm_start: bool = False
    stopping: str = "max-iter"  # max-iter | data-residual[:EPS|auto] | model-error:VAL
    snr_db: float | None = None
    seed: int = 0
    f_peak: float = 10.0
    pml_cells: int = 10
    free_surface: bool = False
    n_sources: int = 5
    source_depth: int = 0
    receiver_spacing: int = 2
    sources: tuple = ()  # optional explicit (iz, ix) pairs
    receivers: tuple = ()
    out_dir: str = "run_out"


def _parse_points(text: str) -> tuple:
    pts = []
    for item in text.split(";"):
        item = item.strip()
        if not item:
            continue
        iz, _, ix = item.partition(":")
        pts.append((int(iz), int(ix)))
    return tuple(pts)


def parse_run_config(path) -> RunConfig:
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
        try:
            if key in ("model_init", "model_true", "data", "method", "algorithm",
                       "hessian", "denoiser", "c_rule", "stopping", "out_dir", "mu"):
                setattr(cfg, key, value)
            elif key == "lambda":
                cfg.lam = float(value)
            elif key == "frequencies":
                cfg.frequencies = tuple(float(v) for v in value.split(",") if v.strip())
            elif key == "batches":
                cfg.batches = tuple(
                    tuple(float(v) for v in part.split(",") if v.strip())
                    for part in value.split("|")
                )
            elif key in ("paths", "max_outer", "inner_iters", "seed", "pml_cells",
                         "n_sources", "source_depth", "receiver_spacing"):
                setattr(cfg, key, int(value))
            elif key in ("c_fixed", "f_peak"):
                setattr(cfg, key, float(value))
            elif key == "snr_db":
                cfg.snr_db = None if value.lower() in ("none", "inf") else float(value)
            elif key in ("warm_start", "free_surface"):
                setattr(cfg, key, value.lower() in ("1", "true", "yes", "on"))
            elif key == "sources":
                cfg.sources = _parse_points(value)
            elif key == "receivers":
                cfg.receivers = _parse_points(value)
            else:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    if not cfg.model_init:
        raise ConfigError(f"{path}: model_init is required")
    if not cfg.frequencies:
        raise ConfigError(f"{path}: frequencies are required")
    return cfg


@dataclass
class RunSummary:
    m_final: ModelGrid
    batches: list
    final_rmse: float | None
    noise_norm: float | None
    stop_target: float | None
    observed: FreqData
    acq: AcquisitionGeometry


def run_inversion(cfg: RunConfig, denoiser=None) -> RunSummary:
    """Execute a configured inversion run and write its outputs.

    Observed data comes from ``data`` when given, otherwise it is synthesized
    from ``model_true`` (with optional seeded noise at ``snr_db``).
    """
    init = read_grid(cfg.model_init)
    true = read_grid(cfg.model_true) if cfg.model_true else None
    if denoiser is None:
        if cfg.denoiser.startswith("external:"):
            raise ConfigError("external denoisers must be constructed by the caller")
        denoiser = make_denoiser(cfg.denoiser, ref=as_slowness_squared(init).values)

    if cfg.sources and cfg.receivers:
        acq = AcquisitionGeometry(cfg.sources, cfg.receivers, cfg.frequencies)
    else:
        acq = surface_boundary_geometry(
            init.nz, init.nx, cfg.frequencies, cfg.n_sources,
            cfg.source_depth, cfg.receiver_spacing,
        )
    acq.validate_for(init.nz, init.nx, min_iz=1 if cfg.free_surface else 0)

    noise_norm = None
    if cfg.data:
        from .model import read_freq_data

        observed = read_freq_data(cfg.data)
    else:
        if true is None:
            raise ConfigError("either data or model_true must be provided")
        # match the oracles' frozen damping profile so synthetic data is
        # generated under the same discrete operator conventions
        pml_vel = float(np.max(as_velocity(init).values))
        clean = wave.forward(true, acq, cfg.f_peak, cfg.pml_cells, cfg.free_surface,
                             pml_velocity=pml_vel)
        observed = wave.add_noise(clean, cfg.snr_db, cfg.seed)
        if cfg.snr_db is not None and not np.isinf(cfg.snr_db):
            noise_norm = math.sqrt(
                sum(np.sum(np.abs(n - c) ** 2)
                    for n, c in zip(observed.blocks, clean.blocks))
            )

    hessian = cfg.hessian or ("diagonal" if cfg.method == "irwri" else "lbfgs")
    stopping, stop_target, stop_metric = "max-iter", None, None
    if cfg.stopping.startswith("data-residual"):
        _, _, eps_text = cfg.stopping.partition(":")
        if eps_text in ("", "auto"):
            if noise_norm is None:
                raise ConfigError("data-residual:auto stopping needs synthesized noisy data")
            eps = noise_norm
        else:
            eps = float(eps_text)
        stopping, stop_target = "data-residual-target", 1.01 * eps
    elif cfg.stopping.startswith("model-error"):
        if true is None:
            raise ConfigError("model-error stopping needs model_true")
        _, _, val = cfg.stopping.partition(":")
        stopping, stop_target = "model-error-target", float(val)
        true_vel = as_velocity(true).values

        def stop_metric(m, _ref=true_vel):
            vel = 1.0 / np.sqrt(np.asarray(m))
            return float(np.linalg.norm(vel - _ref))

    elif cfg.stopping != "max-iter":
        raise ConfigError(f"unknown stopping rule {cfg.stopping!r}")

    mu = None
    if cfg.method == "irwri":
        mu = (
            default_penalty_mu(init, cfg.frequencies[0], pml_cells=cfg.pml_cells,
                               free_surface_top=cfg.free_surface)
            if cfg.mu == "auto"
            else float(cfg.mu)
        )

    config = OptConfig(
        lam=cfg.lam,
        c_rule="fixed" if cfg.c_rule.startswith("fixed") else "auto-spectral",
        c_fixed=float(cfg.c_rule.split(":", 1)[1]) if cfg.c_rule.startswith("fixed:") else cfg.c_fixed,
        max_outer=cfg.max_outer,
        inner_iters=cfg.inner_iters,
        warm_start=cfg.warm_start,
        hessian=hessian,
        stopping=stopping,
        stop_target=stop_target,
        stop_metric=stop_metric,
        seed=cfg.seed,
    )

    batches = cfg.batches if cfg.batches else (cfg.frequencies,)
    plan = [list(batches)] * max(cfg.paths, 1)
    m0 = as_slowness_squared(init).values
    m_final, batch_results = multiscale_drive(
        m0, observed, acq, cfg.method, cfg.algorithm, denoiser, cfg.lam, mu,
        plan, config, init, cfg.f_peak, cfg.pml_cells, cfg.free_surface,
    )

    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    vel_final = as_velocity(
        ModelGrid(init.nz, init.nx, init.dz, init.dx, m_final, KIND_SLOWNESS_SQ)
    )
    write_grid(vel_final, out / "final.grd")
    final_rmse = None
    for res in batch_results:
        tag = f"p{res.path_index}_b{res.batch_index}"
        grid = as_velocity(
            ModelGrid(init.nz, init.nx, init.dz, init.dx, res.m_final, KIND_SLOWNESS_SQ)
        )
        write_grid(grid, out / f"batch_{tag}.grd")
        history_to_csv(res.history, out / f"history_{tag}.csv")
    if true is not None:
        final_rmse = rmse(vel_final, as_velocity(true))
        (out / "summary.txt").write_text(
            f"final_rmse_percent={final_rmse:.6f}\n"
            f"batches={len(batch_results)}\n"
            f"status={batch_results[-1].status}\n"
        )
    return RunSummary(vel_final, batch_results, final_rmse, noise_norm, stop_target,
                      observed, acq)
