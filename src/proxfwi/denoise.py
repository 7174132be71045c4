"""Black-box regularizers: proximal operators and denoisers.

Every entry point maps a real field to a same-shape real field and is
deterministic, which is all the optimization layer assumes about them.  The
``scale`` argument of :meth:`Denoiser.apply` is the running prox weight
(step size times regularization weight lambda), the one strength a denoiser
takes; scale 0 is always the identity.
The TV prox is exact, computed by fast gradient projection (FGP) on its dual
with array differences only; the ``iters`` spec parameter caps the FGP
iterations.  :class:`ExternalDenoiser` runs a black-box denoiser as a
subprocess through grid files.
"""

from __future__ import annotations

import math
import os
import shlex
import subprocess
import tempfile
from dataclasses import dataclass

import numpy as np
from scipy.ndimage import uniform_filter

from .errors import ConfigError, DenoiserPipeError, GeometryError, ProxfwiError
from .model import KIND_SLOWNESS_SQ, ModelGrid, read_grid, write_grid

NLM_BANDWIDTH = 0.1  # nlm's bandwidth h per unit of prox scale
# each make_denoiser spec parameter: the Denoiser field it sets, its type, and the one kind
# that reads it
_SPEC_PARAMS = {"iters": ("inner_iters", int, "tv2d"), "patch": ("patch_radius", int, "nlm"),
                "search": ("search_radius", int, "nlm"), "sigma": ("sigma", float, "nlm")}


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


def tv2d(x: np.ndarray, t: float, inner_iters: int = 600) -> np.ndarray:
    """Exact prox of t * TV by fast gradient projection on the dual.

    The minimizer of 0.5||x - m||^2 + t * TV(m) is m = x - t D^T p, where D
    stacks the forward differences in z and x and the dual edge variables p
    minimize ||x - t D^T p||^2 over the box |p| <= 1 (Chambolle 2004).  That
    dual is solved by projected gradient steps of 1/(8t), since ||D||^2 <= 8,
    with Nesterov momentum (Beck & Teboulle 2009) that restarts whenever a
    step points uphill.  Iteration stops once the primal point moves by at
    most 1e-10 ||x||, or after ``inner_iters`` steps.

    The loop works in flat buffers allocated once per call (z-edges first,
    with 2D views for the differences) and updates them in place.  At
    desk-scale grids (41^2 to 81^2) its time is per-call numpy overhead, not
    arithmetic, so the count of numpy calls per iteration is what to cut.
    """
    if t < 0.0:
        raise ValueError("TV weight must be nonnegative")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("tv2d expects a 2D grid")
    if t == 0.0 or inner_iters == 0:
        return x.copy()

    nz, nx = x.shape
    n_z = (nz - 1) * nx

    def edges(flat):
        # (flat, z-edge view (nz-1, nx), x-edge view (nz, nx-1)); z-edges come first
        return flat, flat[:n_z].reshape(nz - 1, nx), flat[n_z:].reshape(nz, nx - 1)

    def sides(a):
        # (whole, top, bottom, left, right): the slices D^T p adds to and subtracts from
        return a, a[:-1], a[1:], a[:, :-1], a[:, 1:]

    size = n_z + nz * (nx - 1)
    p, r, q, w, v = (edges(np.zeros(size)) for _ in range(5))  # r: extrapolated dual point
    # m, m_next: primal points x - t D^T p of the last two dual iterates.  u is
    # x - t D^T r, extrapolated from them since D^T is linear; it first holds
    # their difference, which the stopping test reads.
    m, m_next = sides(x.copy()), sides(np.empty(x.shape))
    u = sides(x.copy())
    u_flat = u[0].reshape(-1)
    s = 1.0
    step = 1.0 / (8.0 * t)
    tol = 1e-10 * np.linalg.norm(x)
    for _ in range(inner_iters):
        np.subtract(u[2], u[1], out=q[1])
        np.subtract(u[4], u[3], out=q[2])
        np.multiply(q[0], step, out=q[0])
        np.add(q[0], r[0], out=q[0])
        np.minimum(q[0], 1.0, out=q[0])
        np.maximum(q[0], -1.0, out=q[0])
        np.subtract(r[0], q[0], out=w[0])
        np.subtract(q[0], p[0], out=v[0])
        if np.vdot(w[1], v[1]) + np.vdot(w[2], v[2]) > 0.0:
            s = 1.0
        s_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * s * s))
        beta = (s - 1.0) / s_next
        np.multiply(v[0], beta, out=v[0])
        np.add(q[0], v[0], out=r[0])
        p, q, s = q, p, s_next
        np.multiply(p[0], t, out=w[0])
        np.copyto(m_next[0], x)
        np.add(m_next[1], w[1], out=m_next[1])
        np.subtract(m_next[2], w[1], out=m_next[2])
        np.add(m_next[3], w[2], out=m_next[3])
        np.subtract(m_next[4], w[2], out=m_next[4])
        np.subtract(m_next[0], m[0], out=u[0])
        m, m_next = m_next, m
        if math.sqrt(np.dot(u_flat, u_flat)) <= tol:
            break
        np.multiply(u[0], beta, out=u[0])
        np.add(m[0], u[0], out=u[0])
    return m[0]


def nlm(
    x: np.ndarray,
    patch_radius: int = 1,
    search_radius: int = 3,
    h: float = NLM_BANDWIDTH,
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

    kind is one of identity | l1 | l2sq | tv2d | nlm.  The prox scale alone
    sets the strength: l1/l2sq/tv2d take it as their prox weight, and nlm
    takes the bandwidth ``NLM_BANDWIDTH * scale``, a documented heuristic
    (stronger regularization smooths more).  ``inner_iters`` caps the FGP
    iterations of the tv2d prox; it and nlm's radii must be at least 1, and
    nlm's ``sigma`` nonnegative and finite, or construction is a ConfigError.
    """

    kind: str = "identity"
    ref: np.ndarray | None = None
    inner_iters: int = 600
    patch_radius: int = 1
    search_radius: int = 3
    sigma: float = 0.0

    def __post_init__(self):
        if self.kind not in ("identity", "l1", "l2sq", "tv2d", "nlm"):
            raise ConfigError(f"unknown denoiser kind {self.kind!r}")
        if self.kind == "l2sq" and self.ref is None:
            raise ConfigError("l2sq denoiser needs a reference field")
        for key, value in (("iters", self.inner_iters), ("patch", self.patch_radius),
                           ("search", self.search_radius)):
            if value < 1:
                raise ConfigError(f"denoiser parameter {key} must be at least 1, got {value!r}")
        if not 0.0 <= self.sigma < math.inf:
            raise ConfigError(
                f"denoiser parameter sigma must be nonnegative and finite, got {self.sigma!r}"
            )

    def apply(self, x: np.ndarray, scale: float) -> np.ndarray:
        if scale < 0.0:
            raise ValueError("prox scale must be nonnegative")
        x = np.asarray(x, dtype=np.float64)
        if scale == 0.0 or self.kind == "identity":
            return x.copy()
        if self.kind == "l1":
            return prox_l1(x, scale)
        if self.kind == "l2sq":
            return prox_l2sq(x, scale, self.ref)
        if self.kind == "tv2d":
            return tv2d(x, scale, self.inner_iters)
        return nlm(x, self.patch_radius, self.search_radius, NLM_BANDWIDTH * scale, self.sigma)

    def penalty(self, x: np.ndarray) -> float | None:
        """R(x) when the denoiser corresponds to an explicit functional."""
        x = np.asarray(x, dtype=np.float64)
        if self.kind == "identity":
            return 0.0
        if self.kind == "l1":
            return float(np.sum(np.abs(x)))
        if self.kind == "l2sq":
            return float(np.sum((x - self.ref) ** 2))
        if self.kind == "tv2d":
            return tv_value(x)
        return None


class ExternalDenoiser:
    """Black-box denoiser invoked as a subprocess through grid files.

    The command template must contain the placeholders {in}, {out}, and
    {scale}; at every prox call the current field is written to a temp grid
    file, the command runs, and the output grid is read back and
    shape-checked.
    """

    def __init__(self, template: str, dz: float = 1.0, dx: float = 1.0,
                 kind: str = KIND_SLOWNESS_SQ):
        for placeholder in ("{in}", "{out}", "{scale}"):
            if placeholder not in template:
                raise ConfigError(f"external denoiser template lacks {placeholder}")
        self.template = template
        self.dz, self.dx, self.kind = dz, dx, kind

    def apply(self, x: np.ndarray, scale: float) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2:
            raise DenoiserPipeError("external denoisers operate on 2D grids only")
        with tempfile.TemporaryDirectory(prefix="proxfwi-denoise-") as tmp:
            in_path = os.path.join(tmp, "in.grd")
            out_path = os.path.join(tmp, "out.grd")
            write_grid(ModelGrid.from_values(x, self.dz, self.dx, self.kind), in_path)
            tokens = [
                tok.replace("{in}", in_path)
                .replace("{out}", out_path)
                .replace("{scale}", f"{scale:.17g}")
                for tok in shlex.split(self.template)
            ]
            proc = subprocess.run(tokens, capture_output=True, text=True)
            if proc.returncode != 0:
                raise DenoiserPipeError(
                    f"external denoiser failed ({proc.returncode}): {proc.stderr.strip()}"
                )
            if not os.path.exists(out_path):
                raise DenoiserPipeError("external denoiser produced no output grid")
            try:
                result = read_grid(out_path)
            except ProxfwiError as exc:
                raise DenoiserPipeError(f"external denoiser output unreadable: {exc}") from exc
            if result.values.shape != x.shape:
                raise DenoiserPipeError(
                    f"external denoiser changed the shape: {result.values.shape} != {x.shape}"
                )
            return result.values


def make_denoiser(spec: str, ref: np.ndarray | None = None, dz: float = 1.0, dx: float = 1.0,
                  kind: str = KIND_SLOWNESS_SQ) -> Denoiser | ExternalDenoiser:
    """Parse a denoiser spec string like ``tv2d:iters=30``.

    Recognized parameters: iters (the cap on tv2d's dual iterations, >= 1),
    patch/search (nlm's radii, >= 1) and sigma (nlm, >= 0); the strength is
    the prox scale, never a spec parameter.  A parameter the kind does not
    read, or a value out of range, is a ConfigError.  ``ref`` supplies the
    l2sq reference field.  ``external:<template>`` builds an
    :class:`ExternalDenoiser` whose grid files carry spacing ``dz``/``dx`` and
    model ``kind``.
    """
    if spec.startswith("external:"):
        return ExternalDenoiser(spec[len("external:"):], dz=dz, dx=dx, kind=kind)
    name, _, params = spec.partition(":")
    name = name.strip()
    if name == "none":
        name = "identity"
    mapped = {}
    for item in params.split(",") if params else ():
        key, _, value = (part.strip() for part in item.partition("="))
        if not value:
            raise ConfigError(f"bad denoiser parameter {item!r}")
        if key not in _SPEC_PARAMS:
            raise ConfigError(f"unknown denoiser parameter {key!r}")
        field, parse, reader = _SPEC_PARAMS[key]
        if name != reader:
            raise ConfigError(f"denoiser parameter {key!r} is read by {reader} only, "
                              f"not by {name!r}")
        try:
            mapped[field] = parse(value)
        except ValueError as exc:
            raise ConfigError(f"bad denoiser parameter value: {exc}") from exc
    return Denoiser(kind=name, ref=ref, **mapped)
