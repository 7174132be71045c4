"""Proximal Newton solvers with black-box denoiser regularization.

The outer iteration is m_{k+1} = m_k + alpha_k * dm_k where dm_k approximately
minimizes the local quadratic misfit model plus the regularizer (a proximal
Newton step, Lee, Sun & Saunders 2014).  Two direction solvers are provided:
an accelerated proximal-gradient inner loop driven purely by Hessian-vector
products (``nista_direction``) and an operator-splitting step that combines a
damped Newton solve, a prox/denoise step and a scaled dual update (Boyd et
al. 2011, sec. 3.1.1), written out in ``proximal_newton_solve``.  NISTA's
inner loop is an inexact proximal Newton solve: it stops once a sweep
moves at most the constant ``INNER_FORCING`` times as far as the first sweep
did, and ``inner_iters`` caps it.

The Hessian reaches both solvers only as an operator: the oracle's exact or
Gauss-Newton products (``hvp``), its diagonal (``hessian_diag``), a
limited-memory quasi-Newton approximation built from outer gradient pairs, or
the identity.  Every operator must be positive semidefinite, since both inner
loops need a convex model; an oracle whose Hessian can be indefinite shifts it
in its own ``hvp``, and a ``hessian_diag`` must be nonnegative, as it is used
unclipped.  ``_hessian_ops`` is the only place a Hessian mode is chosen: it
builds the per-outer (apply, shifted solve, sigma_max) triple, and sigma_max
is computed only when the outer loop calls it to set ck.
``LbfgsHessian`` keeps its own curvature pairs, at most the constant
``LBFGS_MEMORY`` of them, and NADMM's direction takes ``solve_shifted``.

``proximal_newton_solve`` is the one outer driver.  It owns the iterate,
NADMM's splitting variables p and q, the outer index, the step scale ck, the
history and the stopping decision.  Both solvers accept their step at its one
call of ``line_search``, an Armijo backtracking rule with the constants
``SIGMA_LS`` (c1 = 1e-4), ``BETA_LS`` (rho = 1/2) and ``MAX_TRIALS`` (25); it
holds the iterate when no trial lowers the merit.  ``OptConfig`` states each
decision once: the step scale in ``c_fixed`` (None for the spectral rule), the
regularization strength in ``lam`` (both solvers call the prox at scale
ck * lam, and the objective adds lam * penalty) and early stopping in the pair
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
LBFGS_MEMORY = 10  # the most curvature pairs LbfgsHessian keeps; the oldest goes first
CG_TOL = 1e-12  # hvp mode's shifted solve stops at this residual relative to the rhs
C_FREEZE_AFTER = 3  # NADMM fixes ck from this outer step on, so the dual update sees one penalty
STEP_FLOOR = 1e-14  # an accepted step this small relative to 1 + ||m|| is rounding noise
# the Armijo rule of line_search (Nocedal & Wright 2006, sec. 3.1): sufficient-decrease
# constant c1, backtracking factor rho and the most trials before the iterate is held
SIGMA_LS = 1e-4
BETA_LS = 0.5
MAX_TRIALS = 25
# every Hessian mode and the oracle method it reads; lbfgs and identity need none
_HESSIAN_NEEDS = {"hvp": "hvp", "diagonal": "hessian_diag", "lbfgs": None, "identity": None}
SOLVERS = ("nista", "nadmm")  # proximal_newton_solve's direction solvers


def _dot(a, b) -> float:
    return float(np.dot(np.ravel(a), np.ravel(b)))


def _norm(a) -> float:
    return float(np.linalg.norm(np.ravel(a)))


# ---------------------------------------------------------------------------
# limited-memory quasi-Newton Hessian


class LbfgsHessian:
    """Compact-form limited-memory BFGS Hessian (the direct operator B).

    Forms up to ``LBFGS_MEMORY`` curvature pairs from the outer iterates it observes
    and supports applying B and solving (c*B + I) x = rhs exactly via a low-rank
    update formula, which is what the splitting step needs.
    """

    def __init__(self):
        self._s: list[np.ndarray] = []
        self._y: list[np.ndarray] = []
        self._form = None  # (delta, U, M) of the current pairs, built on first use
        self._last = None  # (m, g) of the last observed outer iterate

    def update(self, s, y):
        if not _dot(s, y) > _CURVATURE_FLOOR * max(_norm(s) * _norm(y), 1e-300):
            return
        self._s.append(np.ravel(np.asarray(s, dtype=np.float64)).copy())
        self._y.append(np.ravel(np.asarray(y, dtype=np.float64)).copy())
        if len(self._s) > LBFGS_MEMORY:
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
        """Exact solve of (c*B + I) x = rhs, c > 0, via the low-rank structure."""
        rhs = np.asarray(rhs, dtype=np.float64)
        flat = np.ravel(rhs)
        delta = self._delta()
        a = c * delta + 1.0
        if not self._s:
            return rhs / a
        _, u, mid = self._compact()
        # (a I - U (c M^-1) U^T)^-1 = I/a + U (M/c - U^T U / a)^-1 U^T / a^2
        inner = mid / c - (u.T @ u) / a
        x = flat / a + u @ np.linalg.solve(inner, u.T @ flat / a) / a
        return x.reshape(rhs.shape)


# ---------------------------------------------------------------------------
# line search


class LineSearchResult(NamedTuple):
    alpha: float
    accepted: bool
    trials: int


def line_search(merit: Callable, m, dm, f0: float, ck: float) -> LineSearchResult:
    """Armijo backtracking on ``merit`` from f0 = merit(m): the step acceptance of
    both solvers.

    Tries alpha in {1, BETA_LS, BETA_LS^2, ...} for at most MAX_TRIALS trials and
    accepts the first with merit(m + alpha dm) <= f0 - SIGMA_LS alpha ||dm||^2 / ck
    (ties accept).  It never moves uphill: when no trial passes, the best trial
    is returned flagged if it beats f0, and otherwise the iterate is held
    (alpha 0) and the caller decides what to do about it.  A zero direction is
    an accepted null step (alpha 1, 0 trials) that never evaluates the merit;
    the outer loop's step floor then stops the run.
    """
    if _norm(dm) == 0.0:
        return LineSearchResult(1.0, True, 0)
    if not math.isfinite(f0):
        raise NumericalError("line search started from a non-finite objective")
    decrease = SIGMA_LS * _dot(dm, dm) / ck
    alpha = 1.0
    best = (math.inf, 1.0)
    for trial in range(1, MAX_TRIALS + 1):
        f_trial = float(merit(m + alpha * dm))
        if math.isfinite(f_trial):
            if f_trial <= f0 - alpha * decrease:
                return LineSearchResult(alpha, True, trial)
            if f_trial < best[0]:
                best = (f_trial, alpha)
        alpha *= BETA_LS
    if math.isinf(best[0]):
        raise NumericalError("line search found no finite objective value")
    return LineSearchResult(best[1] if best[0] < f0 else 0.0, False, MAX_TRIALS)


# ---------------------------------------------------------------------------
# direction solvers


def nista_direction(
    m_k,
    grad,
    h_apply: Callable,
    denoiser,
    lam: float,
    ck: float,
    n_inner: int,
):
    """Search direction from the accelerated proximal-gradient inner loop.

    The quadratic model at ``m_k`` has gradient ``grad`` and Hessian
    ``h_apply`` (one of the operators built by ``_hessian_ops``).  Runs at most
    ``n_inner`` sweeps of: gradient step on the model (one ``h_apply``), prox
    of the shifted point at scale ck * lam, Nesterov extrapolation with
    coefficient (l-1)/(l+2), starting from zero.  Sweep l's
    residual r_l = ||dm_l - dp_{l-1}|| is how far it moved from the point its
    gradient step started at; r_1 = ck ||G(m_k)||, the outer gradient mapping.
    The loop stops at the first l with r_l <= INNER_FORCING * r_1.  Returns
    (dm, sweeps run).
    """
    if ck <= 0.0:
        raise ValueError("step size ck must be positive")
    if n_inner < 1:
        raise ValueError("need at least one inner iteration")
    m_k = np.asarray(m_k, dtype=np.float64)
    dp, dm = np.zeros_like(m_k), np.zeros_like(m_k)
    scale = ck * lam
    for ell in range(1, n_inner + 1):
        dm_half = dp - ck * (np.asarray(h_apply(dp)) + grad)
        dm_new = denoiser.apply(m_k + dm_half, scale) - m_k
        if not np.all(np.isfinite(dm_new)):
            raise NumericalError(f"inner iterate diverged at sweep {ell} (ck={ck:g})")
        residual = _norm(dm_new - dp)
        if ell == 1:
            first = residual
        if residual <= INNER_FORCING * first:
            return dm_new, ell
        dp = dm_new + ((ell - 1.0) / (ell + 2.0)) * (dm_new - dm)
        dm = dm_new
    return dm, n_inner


# ---------------------------------------------------------------------------
# outer driver


@dataclass
class OptConfig:
    """Settings of the one outer loop, shared by both direction solvers.

    ``c_fixed`` is the step scale ck of every outer step; None picks
    C_SAFETY / sigma_max(H_k) each step (1.0 when sigma_max is not positive),
    and NADMM keeps the ck of its outer step C_FREEZE_AFTER (counting from 1)
    for the rest of the run; sigma_max is computed only on the steps where it
    sets ck.  ``inner_iters`` caps NISTA's inner sweeps, which stop earlier
    at the constant forcing term ``INNER_FORCING``.  ``LbfgsHessian`` keeps its
    own pairs, at most the constant ``LBFGS_MEMORY``.  The run stops early once
    ``stop_metric(oracle, m) <= stop_target``, checked at the start of each
    outer step; set both or neither.  ``seed`` (>= 0) seeds the sigma_max power
    iteration.
    """

    lam: float = 0.0
    c_fixed: float | None = None
    max_outer: int = 70
    inner_iters: int = 100
    hessian: str = "hvp"  # a key of _HESSIAN_NEEDS: hvp | diagonal | lbfgs | identity
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
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed!r}")


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

    @property
    def n_outer(self) -> int:
        return len(self.history)


def _cg_shifted(h_apply, c, rhs):
    rhs = np.asarray(rhs, dtype=np.float64)
    x = np.zeros_like(rhs)
    r = rhs.copy()
    p = r.copy()
    rs = _dot(r, r)
    rhs_norm = math.sqrt(rs)
    if rhs_norm == 0.0:
        return x
    for _ in range(max(200, 2 * rhs.size)):
        hp = c * np.asarray(h_apply(p)) + p
        alpha = rs / _dot(p, hp)
        x = x + alpha * p
        r = r - alpha * hp
        rs_new = _dot(r, r)
        if math.sqrt(rs_new) <= CG_TOL * rhs_norm:
            break
        p = r + (rs_new / rs) * p
        rs = rs_new
    return x


def _check_hessian(mode: str, oracle):
    """ConfigError unless ``oracle`` (an instance or its class) has the method ``mode`` reads."""
    need = _HESSIAN_NEEDS[mode]
    if need is not None and not hasattr(oracle, need):
        raise ConfigError(f"hessian mode {mode!r} needs an oracle with {need}")


def _hessian_ops(mode, oracle, m, lbfgs_hess, seed):
    """Per-outer (h_apply, solve_shifted, sigma_max) for the chosen mode.

    ``sigma_max()`` computes on call; lbfgs and hvp share one power iteration,
    which returns exactly 1.0 on an empty L-BFGS memory, where ``apply`` is the
    identity.
    """
    m = np.asarray(m, dtype=np.float64)
    if mode in ("identity", "diagonal"):  # the identity is the diagonal d = 1
        d = 1.0 if mode == "identity" else np.asarray(oracle.hessian_diag(m), dtype=np.float64)
        return (
            lambda v: d * np.asarray(v),
            lambda c, rhs: np.asarray(rhs) / (c * d + 1.0),
            lambda: float(np.max(d)),
        )
    if mode == "lbfgs":
        h_apply, solve_shifted = lbfgs_hess.apply, lbfgs_hess.solve_shifted
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

    Each outer step builds a direction dm, the inner sweeps that found it, a
    merit and its value f0 at m, accepts alpha * dm through ``line_search`` and
    moves m to m + alpha * dm.  NISTA takes dm from ``nista_direction`` and the
    composite objective f + lam * R as its merit.  NADMM solves
    (ck*H + I) dm = -ck*g + (p + q - m) with ``solve_shifted`` (0 sweeps) and
    takes the damped merit f(m) + ||m - (p+q)||^2 / (2 ck); it then sets p to
    the prox of m - q at scale ck * lam and adds p - m to the scaled dual q.
    p and q start at zero.  Both solvers record the misfit the oracle returns
    at the new m, and the objective as that misfit plus lam * R(m).

    Stops on the configured target, on three consecutive failed line searches
    (returning the best iterate seen), or when the step collapses to rounding
    level.  A non-finite misfit or gradient at an iterate is a NumericalError
    before any Hessian work.  History rows carry (objective, misfit, reg,
    alpha, step, ck, inner sweeps).
    """
    if method not in SOLVERS:
        raise ConfigError(f"unknown method {method!r}")
    config.validate()
    _check_hessian(config.hessian, oracle)
    lam = config.lam
    m = np.asarray(m0, dtype=np.float64).copy()
    p, q = np.zeros_like(m), np.zeros_like(m)  # NADMM's denoised and scaled dual variables
    lbfgs_hess = LbfgsHessian() if config.hessian == "lbfgs" else None
    pen = getattr(denoiser, "penalty", None)

    def composite(misfit, mm):
        r = None if pen is None else pen(mm)
        if r is None:
            return misfit, math.nan
        return misfit + lam * r, lam * r

    ck = math.nan
    stagnation = 0
    status = "max-iter"
    history = []
    best_obj, best_m = math.inf, m.copy()

    for k in range(config.max_outer):
        if hasattr(oracle, "begin_outer"):
            oracle.begin_outer(m)
        if (config.stop_metric is not None
                and config.stop_metric(oracle, m) <= config.stop_target):
            status = "target-reached"
            break
        g = np.asarray(oracle.gradient(m), dtype=np.float64)
        # read before observe: its probe's gradient replaces FwiOracle's cached factors at m
        val = oracle.value(m)
        if not (math.isfinite(val) and np.all(np.isfinite(g))):
            raise NumericalError(f"non-finite objective or gradient at outer step {k + 1}")
        if lbfgs_hess is not None:
            lbfgs_hess.observe(m, g, oracle.gradient)

        h_apply, solve_shifted, sigma_max = _hessian_ops(
            config.hessian, oracle, m, lbfgs_hess, config.seed
        )
        if config.c_fixed is not None:
            ck = config.c_fixed
        elif method == "nista" or k < C_FREEZE_AFTER:
            sigma = sigma_max()
            ck = C_SAFETY / sigma if sigma > 0.0 else 1.0
        if ck <= 0.0 or not math.isfinite(ck):
            raise NumericalError(f"invalid step size ck={ck!r} at outer {k}")

        if method == "nista":
            dm, sweeps = nista_direction(m, g, h_apply, denoiser, lam, ck, config.inner_iters)
            merit = lambda mm: composite(oracle.value(mm), mm)[0]
            f0, _ = composite(val, m)
        else:
            prior = p + q
            dm = np.asarray(solve_shifted(ck, -ck * g + (prior - m)), dtype=np.float64)
            if not np.all(np.isfinite(dm)):
                raise NumericalError("inner solver produced a non-finite direction")
            sweeps = 0

            def damping(mm):
                diff = mm - prior
                return _dot(diff, diff) / (2.0 * ck)

            merit = lambda mm: oracle.value(mm) + damping(mm)
            f0 = val + damping(m)
        ls = line_search(merit, m, dm, f0, ck)
        m = m + ls.alpha * dm
        if method == "nadmm":
            p = denoiser.apply(m - q, ck * lam)
            q = q + p - m
            if not (np.all(np.isfinite(m)) and np.all(np.isfinite(p))):
                raise NumericalError("splitting update produced non-finite values")
        misfit = oracle.value(m)
        obj, reg = composite(misfit, m)

        step_norm = ls.alpha * _norm(dm)
        history.append(HistoryRow(k + 1, obj, misfit, reg, ls.alpha, step_norm, ck, sweeps))
        if obj < best_obj:
            best_obj, best_m = obj, m.copy()

        if not ls.accepted:
            stagnation += 1
            if stagnation >= 3:
                status = "stagnated"
                m = best_m
                break
        else:
            stagnation = 0
            if step_norm <= STEP_FLOOR * (1.0 + _norm(m)):
                status = "step-floor"
                break

    return SolveResult(m=m, history=history, status=status)


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
