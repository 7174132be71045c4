"""Proximal Newton solvers with black-box denoiser regularization.

The outer iteration is m_{k+1} = m_k + alpha_k * dm_k where dm_k approximately
minimizes the local quadratic misfit model plus the regularizer.  Two
direction solvers are provided: an accelerated proximal-gradient inner loop
driven purely by Hessian-vector products (``nista_direction``) and an
operator-splitting step that combines a damped Newton solve, a prox/denoise
step, and a dual update (``nadmm_step``).  NISTA's inner loop is an inexact
proximal Newton solve (Lee, Sun & Saunders 2014): the driver stops it once a
sweep moves at most ``INNER_FORCING`` times as far as the first sweep did,
and ``inner_iters`` caps it.

The Hessian can be the oracle's exact/Gauss-Newton operator (``hvp``), its
dense matrix for toy sizes (``hessian_dense``), a limited-memory quasi-Newton
approximation built from outer gradient pairs, the oracle's diagonal, or the
identity.  ``_hessian_ops`` is the only place a Hessian mode is chosen: it
builds the per-outer (apply, shifted solve, sigma_max) triple, and sigma_max
is computed only when the driver calls it to set ck.  ``LbfgsHessian`` keeps
its own curvature pairs, and ``nadmm_step`` takes ``solve_shifted``.  Both
solvers accept their step through one ``_search_step``, which backtracks with
``line_search`` and holds the iterate when no trial lowers the merit.

``proximal_newton_solve`` is the one outer driver.  It owns the outer index,
the step scale ck, the history and the stopping decision; ``InversionState``
holds only the iterate and NADMM's splitting variables, and each step reports
back through a ``Step``.  ``OptConfig`` states each decision once: the step
scale in ``c_fixed`` (None for the spectral rule), the regularization
strength in ``lam`` (both solvers call the prox at scale ck * lam, and the
objective adds lam * penalty) and early stopping in the pair
``stop_target`` / ``stop_metric``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigError, NumericalError
from .linsys import spectral_norm

_CURVATURE_FLOOR = 1e-12
C_SAFETY = 0.9  # ck = C_SAFETY / sigma_max(H_k), just inside the inner loop's 1/L limit
# NISTA's forcing term: its inner loop stops once a sweep's prox-gradient residual is
# at most this share of the first sweep's (Eisenstat & Walker 1996)
INNER_FORCING = 0.05
C_FREEZE_AFTER = 3  # NADMM fixes ck from this outer step on, so the dual update sees one penalty
STEP_FLOOR = 1e-14  # an accepted step this small relative to 1 + ||m|| is rounding noise
# every Hessian mode and the oracle method it reads; lbfgs and identity need none
_HESSIAN_NEEDS = {"hvp": "hvp", "exact-dense": "hessian_dense", "diagonal": "hessian_diag",
                  "lbfgs": None, "identity": None}


def _dot(a, b) -> float:
    return float(np.dot(np.ravel(a), np.ravel(b)))


def _norm(a) -> float:
    return float(np.linalg.norm(np.ravel(a)))


class CallbackOracle:
    """Misfit oracle assembled from plain callables.

    ``value(m)`` and ``gradient(m)`` are required; ``hvp(m, v)`` returns the
    (approximate) Hessian applied to v, and ``hessian_diag`` /
    ``hessian_dense`` are optional extras used by the corresponding Hessian
    modes.
    """

    def __init__(self, value, gradient, hvp=None, hessian_diag=None, hessian_dense=None):
        self._value = value
        self._gradient = gradient
        self._hvp = hvp
        self._hessian_diag = hessian_diag
        self._hessian_dense = hessian_dense

    def value(self, m):
        return float(self._value(m))

    def gradient(self, m):
        return np.asarray(self._gradient(m), dtype=np.float64)

    def hvp(self, m, v):
        if self._hvp is None:
            raise ConfigError("oracle provides no Hessian-vector product")
        return np.asarray(self._hvp(m, v), dtype=np.float64)

    def hessian_diag(self, m):
        if self._hessian_diag is None:
            raise ConfigError("oracle provides no Hessian diagonal")
        return np.asarray(self._hessian_diag(m), dtype=np.float64)

    def hessian_dense(self, m):
        if self._hessian_dense is None:
            raise ConfigError("oracle provides no dense Hessian")
        return np.asarray(self._hessian_dense(m), dtype=np.float64)


# ---------------------------------------------------------------------------
# limited-memory quasi-Newton Hessian


class LbfgsHessian:
    """Compact-form limited-memory BFGS Hessian (the direct operator B).

    Forms up to ``memory`` curvature pairs from the outer iterates it observes
    and supports applying B and solving (c*B + I) x = rhs exactly via a low-rank
    update formula, which is what the splitting step needs.
    """

    def __init__(self, memory: int = 10):
        if memory < 0:
            raise ConfigError("lbfgs memory must be nonnegative")
        self.memory = memory
        self._s: list[np.ndarray] = []
        self._y: list[np.ndarray] = []
        self._form = None  # (delta, U, M) of the current pairs, built on first use
        self._last = None  # (m, g) of the last observed outer iterate
        self.skipped = 0

    def __len__(self):
        return len(self._s)

    def update(self, s, y):
        if not _dot(s, y) > _CURVATURE_FLOOR * max(_norm(s) * _norm(y), 1e-300):
            self.skipped += 1
            return
        self._s.append(np.ravel(np.asarray(s, dtype=np.float64)).copy())
        self._y.append(np.ravel(np.asarray(y, dtype=np.float64)).copy())
        if len(self._s) > self.memory:
            self._s.pop(0)
            self._y.pop(0)
        self._form = None

    def observe(self, m, g, gradient):
        """Take the pair from the last observed (m, g) to this one.

        While the memory is empty (B = I, which can be wildly misscaled), probe
        the curvature along g with one extra ``gradient`` evaluation.
        """
        if self._last is not None:
            m_prev, g_prev = self._last
            self.update(m - m_prev, g - g_prev)
        if not self._s:
            g_norm = _norm(g)
            if g_norm > 0.0:
                probe = (-1e-4 * (1.0 + _norm(m)) / g_norm) * g
                self.update(probe, gradient(m + probe) - g)
        self._last = (m.copy(), g.copy())

    def _delta(self) -> float:
        if not self._s:
            return 1.0
        s, y = self._s[-1], self._y[-1]
        return _dot(y, y) / _dot(s, y)

    def _compact(self):
        """(delta, U, M) with B = delta I - U M^-1 U^T.

        Built on first use and kept until ``update`` changes the pairs.
        """
        if self._form is None:
            s_mat = np.column_stack(self._s)
            y_mat = np.column_stack(self._y)
            delta = self._delta()
            sty = s_mat.T @ y_mat
            lower = np.tril(sty, k=-1)
            diag = np.diag(np.diag(sty))
            u = np.hstack([delta * s_mat, y_mat])
            mid = np.block([[delta * (s_mat.T @ s_mat), lower], [lower.T, -diag]])
            self._form = (delta, u, mid)
        return self._form

    def apply(self, v) -> np.ndarray:
        """B v, matching the dense BFGS recursion started from delta*I."""
        v = np.asarray(v, dtype=np.float64)
        flat = np.ravel(v)
        if not self._s:
            return v.copy()
        delta, u, mid = self._compact()
        out = delta * flat - u @ np.linalg.solve(mid, u.T @ flat)
        return out.reshape(v.shape)

    def solve_shifted(self, c: float, rhs) -> np.ndarray:
        """Exact solve of (c*B + I) x = rhs via the low-rank structure."""
        rhs = np.asarray(rhs, dtype=np.float64)
        flat = np.ravel(rhs)
        delta = self._delta()
        a = c * delta + 1.0
        if not self._s or c == 0.0:
            return (rhs / a).copy() if c != 0.0 else rhs.copy()
        _, u, mid = self._compact()
        # (a I - U (c M^-1) U^T)^-1 = I/a + U (M/c - U^T U / a)^-1 U^T / a^2
        inner = mid / c - (u.T @ u) / a
        x = flat / a + u @ np.linalg.solve(inner, u.T @ flat / a) / a
        return x.reshape(rhs.shape)


# ---------------------------------------------------------------------------
# line search


class LineSearchResult(NamedTuple):
    alpha: float
    value: float
    accepted: bool
    trials: int


def line_search(
    f: Callable,
    m,
    dm,
    sigma_ls: float = 1e-4,
    beta_ls: float = 0.5,
    max_trials: int = 25,
    ck: float = 1.0,
    f0: float | None = None,
) -> LineSearchResult:
    """Backtracking over alpha in {1, beta, beta^2, ...}.

    Accepts the largest alpha satisfying
    f(m + alpha dm) <= f(m) - sigma_ls * alpha * ||dm||^2 / ck  (ties accept).
    If no trial passes, the best-objective trial is returned flagged.
    """
    if _norm(dm) == 0.0:
        raise ValueError("line search needs a nonzero direction")
    if f0 is None:
        f0 = float(f(m))
    if not math.isfinite(f0):
        raise NumericalError("line search started from a non-finite objective")
    decrease = sigma_ls * _dot(dm, dm) / ck
    alpha = 1.0
    best = (math.inf, 1.0)
    for trial in range(1, max_trials + 1):
        f_trial = float(f(m + alpha * np.asarray(dm)))
        if math.isfinite(f_trial):
            if f_trial <= f0 - alpha * decrease:
                return LineSearchResult(alpha, f_trial, True, trial)
            if f_trial < best[0]:
                best = (f_trial, alpha)
        alpha *= beta_ls
    if math.isinf(best[0]):
        raise NumericalError("line search found no finite objective value")
    return LineSearchResult(best[1], best[0], False, max_trials)


def _search_step(merit, m, dm, f0: float, ck: float):
    """Step acceptance shared by both solvers: (alpha, m_new, merit_new, accepted).

    Backtracks on ``merit`` from f0 = merit(m) with the line-search defaults
    and never moves uphill: when no trial beats f0 the iterate is held
    (alpha 0) and the caller decides what to do about it.  A zero direction
    is an accepted null step, which the outer loop's step floor then stops.
    """
    if _norm(dm) == 0.0:
        return 1.0, m, f0, True
    ls = line_search(merit, m, dm, ck=ck, f0=f0)
    if ls.accepted or ls.value < f0:
        return ls.alpha, m + ls.alpha * dm, ls.value, ls.accepted
    return 0.0, m, f0, False


# ---------------------------------------------------------------------------
# direction solvers


def nista_direction(
    oracle,
    m_k,
    denoiser,
    lam: float,
    ck: float,
    n_inner: int,
    h_apply: Callable | None = None,
    grad=None,
    forcing: float = 0.0,
):
    """Search direction from the accelerated proximal-gradient inner loop.

    Runs at most ``n_inner`` sweeps of: gradient step on the quadratic model
    (one Hessian-vector product), prox of the shifted point, Nesterov
    extrapolation with coefficient (l-1)/(l+2), starting from zero.  Sweep l's
    residual r_l = ||dm_l - dp_{l-1}|| is how far it moved from the point its
    gradient step started at; r_1 = ck ||G(m_k)||, the outer gradient mapping.
    With ``forcing`` > 0 the loop stops at the first l with
    r_l <= forcing * r_1; with 0 it runs all ``n_inner`` sweeps.  Returns
    (dm, sweeps run).
    """
    if ck <= 0.0:
        raise ValueError("step size ck must be positive")
    if n_inner < 1:
        raise ValueError("need at least one inner iteration")
    m_k = np.asarray(m_k, dtype=np.float64)
    if grad is None:
        grad = oracle.gradient(m_k)
    if h_apply is None:
        h_apply = lambda v: oracle.hvp(m_k, v)
    dp, dm = np.zeros_like(m_k), np.zeros_like(m_k)
    scale = ck * lam
    for ell in range(1, n_inner + 1):
        dm_half = dp - ck * (np.asarray(h_apply(dp)) + grad)
        dm_new = denoiser.apply(m_k + dm_half, scale) - m_k
        if not np.all(np.isfinite(dm_new)):
            raise NumericalError(f"inner iterate diverged at sweep {ell} (ck={ck:g})")
        if forcing > 0.0:
            residual = _norm(dm_new - dp)
            if ell == 1:
                first = residual
            if residual <= forcing * first:
                return dm_new, ell
        dp = dm_new + ((ell - 1.0) / (ell + 2.0)) * (dm_new - dm)
        dm = dm_new
    return dm, n_inner


@dataclass
class InversionState:
    """The iterate m and the splitting auxiliaries p (denoised) and q (dual)."""

    m: np.ndarray
    p: np.ndarray
    q: np.ndarray

    @classmethod
    def initial(cls, m0) -> "InversionState":
        m0 = np.asarray(m0, dtype=np.float64).copy()
        return cls(m=m0, p=np.zeros_like(m0), q=np.zeros_like(m0))


class Step(NamedTuple):
    """What one outer step did: direction, accepted fraction of it, misfit after,
    and the inner sweeps that found the direction (0 for NADMM)."""

    dm: np.ndarray
    alpha: float
    accepted: bool
    misfit: float
    inner_sweeps: int = 0


def _psd_guard(h: np.ndarray) -> np.ndarray:
    """Shift eigenvalues so the quadratic model is convex (inner loops need it)."""
    eigs = np.linalg.eigvalsh(h)
    floor = 1e-12 * max(1.0, float(np.max(np.abs(eigs))))
    if eigs[0] < floor:
        h = h + (floor - eigs[0]) * np.eye(h.shape[0])
    return h


def nadmm_step(
    oracle,
    state: InversionState,
    denoiser,
    lam: float,
    ck: float,
    solve_shifted: Callable,
    grad=None,
    value: float | None = None,
) -> Step:
    """One splitting step: damped Newton solve, line search, prox, dual update.

    Solves (ck*H + I) dm = -ck*grad + (p + q - m) with ``solve_shifted(c,
    rhs)`` (one of the solvers built by ``_hessian_ops``), line-searches the
    damped merit M(m) + ||m - (p+q)||^2 / (2 ck), then updates p by denoising
    (m_new - q) and q by the running constraint mismatch.  ``state`` advances
    in place; the returned ``Step`` carries the misfit at the new m.
    """
    if ck <= 0.0:
        raise ValueError("step size ck must be positive")
    m, p, q = state.m, state.p, state.q
    if grad is None:
        grad = oracle.gradient(m)
    grad = np.asarray(grad, dtype=np.float64)

    prior = p + q
    rhs = -ck * grad + (prior - m)
    dm = np.asarray(solve_shifted(ck, rhs), dtype=np.float64)
    if not np.all(np.isfinite(dm)):
        raise NumericalError("inner solver produced a non-finite direction")

    def damped(mm):
        diff = mm - prior
        return oracle.value(mm) + _dot(diff, diff) / (2.0 * ck)

    diff0 = m - prior
    f0 = (oracle.value(m) if value is None else value) + _dot(diff0, diff0) / (2.0 * ck)
    alpha, m_new, merit_new, accepted = _search_step(damped, m, dm, f0, ck)
    diff_new = m_new - prior
    misfit_new = merit_new - _dot(diff_new, diff_new) / (2.0 * ck)
    p_new = denoiser.apply(m_new - q, ck * lam)
    q_new = q + p_new - m_new
    if not (np.all(np.isfinite(m_new)) and np.all(np.isfinite(p_new))):
        raise NumericalError("splitting update produced non-finite values")

    state.m, state.p, state.q = m_new, p_new, q_new
    return Step(dm, alpha, accepted, misfit_new)


# ---------------------------------------------------------------------------
# outer driver


@dataclass
class OptConfig:
    """Outer-loop settings shared by both direction solvers.

    ``c_fixed`` is the step scale ck of every outer step; None picks
    C_SAFETY / sigma_max(H_k) each step (1.0 when sigma_max is not positive),
    and NADMM keeps the ck of its outer step C_FREEZE_AFTER (counting from 1)
    for the rest of the run; sigma_max is computed only on the steps where it
    sets ck.  ``inner_iters`` caps NISTA's inner sweeps, which stop earlier
    at the forcing term ``INNER_FORCING``.  ``LbfgsHessian`` keeps its own
    pairs, at most its default memory of 10.  The run stops early once
    ``stop_metric(oracle, m) <= stop_target``, checked at the start of each
    outer step; set both or neither.
    """

    lam: float = 0.0
    c_fixed: float | None = None
    max_outer: int = 70
    inner_iters: int = 100
    hessian: str = "hvp"  # hvp | exact-dense | lbfgs | diagonal | identity
    stop_target: float | None = None
    stop_metric: Callable | None = None  # (oracle, m) -> float
    seed: int = 0

    def validate(self):
        if not 0.0 <= self.lam < math.inf:
            raise ConfigError(f"lambda must be nonnegative and finite, got {self.lam!r}")
        if self.inner_iters < 1:
            raise ConfigError(f"inner_iters must be at least 1, got {self.inner_iters!r}")
        if self.max_outer < 0:
            raise ConfigError(f"max_outer must be nonnegative, got {self.max_outer!r}")
        if self.hessian not in _HESSIAN_NEEDS:
            raise ConfigError(f"unknown hessian mode {self.hessian!r}")
        if self.c_fixed is not None and not (0.0 < self.c_fixed < math.inf):
            raise ConfigError(f"fixed step size must be positive and finite, got {self.c_fixed!r}")
        if (self.stop_target is None) != (self.stop_metric is None):
            raise ConfigError("stop_target and stop_metric must be set together")


class HistoryRow(NamedTuple):
    iteration: int
    objective: float
    misfit: float
    reg_value: float
    alpha: float
    step_norm: float
    ck: float
    inner_sweeps: int


@dataclass
class SolveResult:
    m: np.ndarray
    history: list
    status: str
    n_outer: int


def _cg_shifted(h_apply, c, rhs, tol=1e-12, max_iter=None):
    rhs = np.asarray(rhs, dtype=np.float64)
    x = np.zeros_like(rhs)
    r = rhs.copy()
    p = r.copy()
    rs = _dot(r, r)
    rhs_norm = math.sqrt(rs)
    if rhs_norm == 0.0:
        return x
    limit = max_iter if max_iter is not None else max(200, 2 * rhs.size)
    for _ in range(limit):
        hp = c * np.asarray(h_apply(p)) + p
        alpha = rs / _dot(p, hp)
        x = x + alpha * p
        r = r - alpha * hp
        rs_new = _dot(r, r)
        if math.sqrt(rs_new) <= tol * rhs_norm:
            break
        p = r + (rs_new / rs) * p
        rs = rs_new
    return x


def _hessian_ops(mode, oracle, m, lbfgs_hess, seed):
    """Per-outer (h_apply, solve_shifted, sigma_max) for the chosen mode.

    ``sigma_max()`` computes on call; lbfgs and hvp share one power iteration.
    """
    m = np.asarray(m, dtype=np.float64)
    if mode == "identity":
        return (lambda v: np.asarray(v)), (lambda c, rhs: np.asarray(rhs) / (c + 1.0)), lambda: 1.0
    if mode == "diagonal":
        d = np.maximum(np.asarray(oracle.hessian_diag(m), dtype=np.float64), 0.0)
        return (
            lambda v: d * np.asarray(v),
            lambda c, rhs: np.asarray(rhs) / (c * d + 1.0),
            lambda: float(np.max(d)) if d.size else 0.0,
        )
    if mode == "exact-dense":
        h = np.asarray(oracle.hessian_dense(m), dtype=np.float64)
        h = _psd_guard(0.5 * (h + h.T))
        eye = np.eye(h.shape[0])

        def h_apply(v):
            v = np.asarray(v)
            return (h @ np.ravel(v)).reshape(v.shape)

        def solve_shifted(c, rhs):
            rhs = np.asarray(rhs)
            return np.linalg.solve(c * h + eye, np.ravel(rhs)).reshape(rhs.shape)

        return h_apply, solve_shifted, lambda: float(np.max(np.abs(np.linalg.eigvalsh(h))))
    if mode == "lbfgs":
        h_apply, solve_shifted = lbfgs_hess.apply, lbfgs_hess.solve_shifted
        if not len(lbfgs_hess):
            return h_apply, solve_shifted, lambda: 1.0
    else:  # raw Hessian-vector products
        h_apply = lambda v: np.asarray(oracle.hvp(m, v))
        solve_shifted = lambda c, rhs: _cg_shifted(h_apply, c, rhs)
    flat = lambda v: np.ravel(h_apply(v.reshape(m.shape)))
    return h_apply, solve_shifted, lambda: spectral_norm(flat, m.size, seed=seed).value


def proximal_newton_solve(
    oracle,
    denoiser,
    config: OptConfig,
    m0,
    method: str = "nadmm",
) -> SolveResult:
    """Outer proximal-Newton loop with either direction solver.

    Stops on the configured target, on three consecutive failed line searches
    (returning the best iterate seen), or when the step collapses to rounding
    level.  History rows carry (objective, misfit, reg, alpha, step, ck,
    inner sweeps).
    """
    if method not in ("nista", "nadmm"):
        raise ConfigError(f"unknown method {method!r}")
    config.validate()
    need = _HESSIAN_NEEDS[config.hessian]
    if need is not None and not hasattr(oracle, need):
        raise ConfigError(f"hessian mode {config.hessian!r} needs an oracle with {need}")
    lam = config.lam
    state = InversionState.initial(m0)
    lbfgs_hess = LbfgsHessian() if config.hessian == "lbfgs" else None
    pen = getattr(denoiser, "penalty", None)

    def composite(mm, misfit=None):
        val = oracle.value(mm) if misfit is None else misfit
        r = None if pen is None else pen(mm)
        if r is None:
            return val, math.nan
        return val + lam * r, lam * r

    ck = math.nan
    stagnation = 0
    status = "max-iter"
    history = []
    best_obj, best_m = math.inf, state.m.copy()

    for k in range(config.max_outer):
        if hasattr(oracle, "begin_outer"):
            oracle.begin_outer(state.m)
        if (config.stop_metric is not None
                and config.stop_metric(oracle, state.m) <= config.stop_target):
            status = "target-reached"
            break
        g = oracle.gradient(state.m)
        val = oracle.value(state.m)
        if lbfgs_hess is not None:
            lbfgs_hess.observe(state.m, g, oracle.gradient)

        h_apply, solve_shifted, sigma_max = _hessian_ops(
            config.hessian, oracle, state.m, lbfgs_hess, config.seed
        )
        if config.c_fixed is not None:
            ck = config.c_fixed
        elif method == "nista" or k < C_FREEZE_AFTER:
            sigma = sigma_max()
            ck = C_SAFETY / sigma if sigma > 0.0 else 1.0
        if ck <= 0.0 or not math.isfinite(ck):
            raise NumericalError(f"invalid step size ck={ck!r} at outer {k}")

        if method == "nista":
            dm, sweeps = nista_direction(
                oracle, state.m, denoiser, lam, ck, config.inner_iters, h_apply=h_apply, grad=g,
                forcing=INNER_FORCING,
            )
            f0, _ = composite(state.m, misfit=val)
            merit = lambda mm: composite(mm)[0]
            alpha, state.m, obj, accepted = _search_step(merit, state.m, dm, f0, ck)
            _, reg = composite(state.m, misfit=obj)
            step = Step(dm, alpha, accepted, obj - reg if math.isfinite(reg) else obj, sweeps)
        else:
            step = nadmm_step(
                oracle, state, denoiser, lam, ck,
                solve_shifted=solve_shifted, grad=g, value=val,
            )
            obj, reg = composite(state.m, misfit=step.misfit)

        step_norm = step.alpha * _norm(step.dm)
        history.append(HistoryRow(k + 1, obj, step.misfit, reg, step.alpha, step_norm, ck,
                                  step.inner_sweeps))
        if obj < best_obj:
            best_obj, best_m = obj, state.m.copy()

        if not step.accepted:
            stagnation += 1
            if stagnation >= 3:
                status = "stagnated"
                state.m = best_m
                break
        else:
            stagnation = 0
            if step_norm <= STEP_FLOOR * (1.0 + _norm(state.m)):
                status = "step-floor"
                break

    return SolveResult(m=state.m, history=history, status=status, n_outer=len(history))


def history_to_csv(history, path):
    """Write the convergence history in the exported CSV layout."""
    with open(path, "w") as fh:
        fh.write("iter,objective,misfit,reg_value,alpha,step_norm,ck,inner_sweeps\n")
        for row in history:
            fh.write(
                f"{row.iteration},{row.objective:.17g},{row.misfit:.17g},"
                f"{row.reg_value:.17g},{row.alpha:.17g},{row.step_norm:.17g},{row.ck:.17g},"
                f"{row.inner_sweeps}\n"
            )
