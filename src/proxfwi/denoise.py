"""Black-box regularizers: proximal operators and denoisers.

Every entry point maps a real field to a same-shape real field and is
deterministic, which is all the optimization layer assumes about them.  The
``scale`` argument of :meth:`Denoiser.apply` is the running prox weight
(step size times regularization weight); scale 0 is always the identity.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
from scipy.ndimage import uniform_filter

from . import linsys
from .errors import ConfigError, GeometryError

# smoothing floor for the reweighted TV solves; sqrt of this bounds how far
# the smoothed minimizer can sit from the exact TV prox
_TV_EPS = 1e-12


def prox_l1(x: np.ndarray, t: float) -> np.ndarray:
    """Elementwise soft threshold: exact prox of t * sum|x_i|."""
    if t < 0.0:
        raise ValueError("threshold weight must be nonnegative")
    x = np.asarray(x, dtype=np.float64)
    return np.sign(x) * np.maximum(np.abs(x) - t, 0.0)


def prox_l2sq(x: np.ndarray, t: float, ref: np.ndarray) -> np.ndarray:
    """Exact minimizer of 0.5||x - m||^2 + t ||m - ref||^2."""
    if t < 0.0:
        raise ValueError("damping weight must be nonnegative")
    x = np.asarray(x, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    if ref.shape != x.shape:
        raise ValueError(f"reference shape {ref.shape} != input shape {x.shape}")
    return (x + 2.0 * t * ref) / (1.0 + 2.0 * t)


def tv_value(x: np.ndarray) -> float:
    """Anisotropic total variation: sum of |forward differences| in z and x."""
    x = np.asarray(x, dtype=np.float64)
    return float(np.sum(np.abs(np.diff(x, axis=0))) + np.sum(np.abs(np.diff(x, axis=1))))


def _difference_operator(nz: int, nx: int) -> sp.csr_matrix:
    eye_z = sp.identity(nz, format="csr")
    eye_x = sp.identity(nx, format="csr")
    dz = sp.diags([-np.ones(nz - 1), np.ones(nz - 1)], [0, 1], shape=(nz - 1, nz))
    dx = sp.diags([-np.ones(nx - 1), np.ones(nx - 1)], [0, 1], shape=(nx - 1, nx))
    return sp.vstack([sp.kron(dz, eye_x), sp.kron(eye_z, dx)]).tocsr()


def tv2d(x: np.ndarray, t: float, inner_iters: int = 40, return_history: bool = False):
    """Approximate prox of t * TV via iteratively reweighted least squares.

    Each sweep minimizes a quadratic majorizer of the smoothed objective
    0.5||x - m||^2 + t * sum sqrt(d^2 + eps), so that inner objective is
    nonincreasing by construction.
    """
    if t < 0.0:
        raise ValueError("TV weight must be nonnegative")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("tv2d expects a 2D grid")
    if t == 0.0 or inner_iters == 0:
        return (x.copy(), []) if return_history else x.copy()

    nz, nx = x.shape
    n = nz * nx
    diff = _difference_operator(nz, nx)
    xf = x.ravel()
    m = xf.copy()
    history = []

    def smoothed_objective(vec):
        d = diff @ vec
        return 0.5 * float(np.sum((xf - vec) ** 2)) + t * float(np.sum(np.sqrt(d**2 + _TV_EPS)))

    history.append(smoothed_objective(m))
    identity = sp.identity(n, format="csr")
    for _ in range(inner_iters):
        d = diff @ m
        w = 1.0 / np.sqrt(d**2 + _TV_EPS)
        system = identity + t * (diff.T @ diff.multiply(w[:, None]))
        m_new = linsys.factorize(system).solve(xf)
        history.append(smoothed_objective(m_new))
        if np.linalg.norm(m_new - m) <= 1e-14 * (1.0 + np.linalg.norm(xf)):
            m = m_new
            break
        m = m_new
    out = m.reshape(nz, nx)
    return (out, history) if return_history else out


def nlm(
    x: np.ndarray,
    patch_radius: int = 1,
    search_radius: int = 3,
    h: float = 0.1,
    sigma: float = 0.0,
) -> np.ndarray:
    """Non-local means: weight-normalized average over a search window.

    Patch distance is the mean squared difference over (2p+1)^2 patches taken
    from a symmetric-padded extension; weights are
    exp(-max(dist^2 - 2 sigma^2, 0) / h^2) and sum to 1 per pixel.
    """
    if patch_radius < 1 or search_radius < 1:
        raise ValueError("patch and search radii must be >= 1")
    if h <= 0.0:
        raise ValueError("bandwidth h must be positive")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("nlm expects a 2D grid")
    nz, nx = x.shape
    if nz < 2 * patch_radius + 1 or nx < 2 * patch_radius + 1:
        raise GeometryError(
            f"grid {nz}x{nx} smaller than the {2 * patch_radius + 1}-wide patch window"
        )

    p, r = patch_radius, search_radius
    padded = np.pad(x, p + r, mode="symmetric")
    # core region keeps the patch margin so patch means are valid after cropping
    core = padded[r : r + nz + 2 * p, r : r + nx + 2 * p]
    num = np.zeros_like(x)
    den = np.zeros_like(x)
    patch = 2 * p + 1
    for a in range(-r, r + 1):
        for b in range(-r, r + 1):
            shifted = padded[r + a : r + a + nz + 2 * p, r + b : r + b + nx + 2 * p]
            sq = (core - shifted) ** 2
            dist2 = uniform_filter(sq, size=patch)[p : p + nz, p : p + nx]
            w = np.exp(-np.maximum(dist2 - 2.0 * sigma**2, 0.0) / h**2)
            num += w * padded[p + r + a : p + r + a + nz, p + r + b : p + r + b + nx]
            den += w
    return num / den


@dataclass(frozen=True)
class Denoiser:
    """Dispatch record for the built-in denoiser kinds.

    kind is one of identity | l1 | l2sq | tv2d | nlm.  ``weight`` multiplies
    the prox scale for l1/l2sq/tv2d; for nlm the scale multiplies the
    bandwidth, a documented heuristic (stronger regularization smooths more).
    """

    kind: str = "identity"
    weight: float = 1.0
    ref: np.ndarray | None = None
    inner_iters: int = 40
    patch_radius: int = 1
    search_radius: int = 3
    bandwidth: float = 0.1
    sigma: float = 0.0

    def __post_init__(self):
        if self.kind not in ("identity", "l1", "l2sq", "tv2d", "nlm"):
            raise ConfigError(f"unknown denoiser kind {self.kind!r}")
        if self.kind == "l2sq" and self.ref is None:
            raise ConfigError("l2sq denoiser needs a reference field")

    def apply(self, x: np.ndarray, scale: float) -> np.ndarray:
        if scale < 0.0:
            raise ValueError("prox scale must be nonnegative")
        x = np.asarray(x, dtype=np.float64)
        if scale == 0.0 or self.kind == "identity":
            return x.copy()
        if self.kind == "l1":
            return prox_l1(x, scale * self.weight)
        if self.kind == "l2sq":
            return prox_l2sq(x, scale * self.weight, self.ref)
        if self.kind == "tv2d":
            return tv2d(x, scale * self.weight, self.inner_iters)
        return nlm(
            x, self.patch_radius, self.search_radius, self.bandwidth * scale, self.sigma
        )

    def penalty(self, x: np.ndarray) -> float | None:
        """R(x) when the denoiser corresponds to an explicit functional."""
        x = np.asarray(x, dtype=np.float64)
        if self.kind == "identity":
            return 0.0
        if self.kind == "l1":
            return self.weight * float(np.sum(np.abs(x)))
        if self.kind == "l2sq":
            return self.weight * float(np.sum((x - self.ref) ** 2))
        if self.kind == "tv2d":
            return self.weight * tv_value(x)
        return None


def make_denoiser(spec: str, ref: np.ndarray | None = None) -> Denoiser:
    """Parse a denoiser spec string like ``tv2d:weight=2e-9,iters=30``.

    Recognized parameters: weight (l1/l2sq/tv2d), iters (tv2d), patch/search/
    h/sigma (nlm).  ``ref`` supplies the l2sq reference field.
    """
    kind, _, params = spec.partition(":")
    kind = kind.strip()
    kwargs = {}
    if params:
        for item in params.split(","):
            key, _, value = item.partition("=")
            if not value:
                raise ConfigError(f"bad denoiser parameter {item!r}")
            kwargs[key.strip()] = value.strip()
    try:
        mapped = {}
        for key, value in kwargs.items():
            if key == "weight":
                mapped["weight"] = float(value)
            elif key == "iters":
                mapped["inner_iters"] = int(value)
            elif key == "patch":
                mapped["patch_radius"] = int(value)
            elif key == "search":
                mapped["search_radius"] = int(value)
            elif key == "h":
                mapped["bandwidth"] = float(value)
            elif key == "sigma":
                mapped["sigma"] = float(value)
            else:
                raise ConfigError(f"unknown denoiser parameter {key!r}")
    except ValueError as exc:
        raise ConfigError(f"bad denoiser parameter value: {exc}") from exc
    if kind == "none":
        kind = "identity"
    return Denoiser(kind=kind, ref=ref, **mapped)
