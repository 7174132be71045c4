import os
import shlex
import sys
from pathlib import Path

import numpy as np
import pytest

from proxfwi import denoise
from proxfwi.errors import ConfigError, DenoiserPipeError, GeometryError

SRC = Path(__file__).resolve().parents[1] / "src"


def test_prox_l1_zero_weight_is_identity():
    x = np.array([1.0, -2.0, 0.3])
    assert np.array_equal(denoise.prox_l1(x, 0.0), x)


def test_prox_l1_closed_form_values():
    assert denoise.prox_l1(np.array(2.5), 1.0) == 1.5
    assert denoise.prox_l1(np.array(-0.4), 1.0) == 0.0


def test_prox_l1_negative_weight_rejected():
    with pytest.raises(ValueError):
        denoise.prox_l1(np.array([1.0]), -0.1)


def test_prox_l1_matches_grid_search():
    rng = np.random.default_rng(0)
    t = 0.3
    for x in rng.standard_normal(8):
        candidates = np.linspace(x - 2.0, x + 2.0, 40001)
        objective = 0.5 * (x - candidates) ** 2 + t * np.abs(candidates)
        best = candidates[np.argmin(objective)]
        step = candidates[1] - candidates[0]
        assert abs(float(denoise.prox_l1(np.array(x), t)) - best) <= step


def test_prox_l2sq_cases():
    x = np.array([1.0, 2.0])
    assert np.array_equal(denoise.prox_l2sq(x, 0.0, np.zeros(2)), x)
    big = denoise.prox_l2sq(x, 1e8, np.zeros(2))
    assert np.all(np.abs(big) < 1e-7 * np.abs(x))
    assert denoise.prox_l2sq(np.array(1.0), 0.5, np.array(3.0)) == 2.0
    with pytest.raises(ValueError):
        denoise.prox_l2sq(x, 1.0, np.zeros(3))


def test_prox_l2sq_satisfies_definition():
    rng = np.random.default_rng(1)
    x, ref = rng.standard_normal(5), rng.standard_normal(5)
    t = 0.7
    m = denoise.prox_l2sq(x, t, ref)
    # stationarity of 0.5||x-m||^2 + t||m-ref||^2
    grad = (m - x) + 2.0 * t * (m - ref)
    assert np.max(np.abs(grad)) < 1e-14


# ---------------------------------------------------------------------------
# total variation


def test_tv2d_constant_unchanged():
    x = np.full((6, 5), 3.2)
    for t in (0.0, 0.1, 10.0):
        assert np.allclose(denoise.tv2d(x, t), x, atol=1e-12)


def test_tv2d_large_weight_flattens_to_mean():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((8, 8))
    out = denoise.tv2d(x, 1e6, inner_iters=60)
    spread = x.max() - x.min()
    assert np.max(np.abs(out - x.mean())) < 1e-3 * spread


def test_tv2d_scale_equivariant():
    # prox_{cT}(c x) = c prox_T(x) for TV; squared-slowness fields sit near 1e-7
    rng = np.random.default_rng(4)
    x = rng.standard_normal((20, 20))
    c = 1e-7
    out = denoise.tv2d(x, 0.3)
    scaled = denoise.tv2d(c * x, c * 0.3) / c
    assert np.linalg.norm(scaled - out) <= 1e-8 * np.linalg.norm(out)


def test_tv2d_vertical_step_closed_form():
    # each flat half of an nz x nx step moves by t * nz / (nz * nx / 2) = 2t/nx
    nz, nx, t = 6, 8, 0.5
    x = np.zeros((nz, nx))
    x[:, nx // 2 :] = 1.0
    out = denoise.tv2d(x, t)
    assert np.max(np.abs(out[:, : nx // 2] - 2.0 * t / nx)) <= 1e-6
    assert np.max(np.abs(out[:, nx // 2 :] - (1.0 - 2.0 * t / nx))) <= 1e-6


def _tv_objective(x, m, t):
    return 0.5 * np.sum((x - m) ** 2) + t * denoise.tv_value(m)


def _brute_force_tv_2x2(x, t, levels=4, points=21):
    """Exhaustive search over a refining 4D grid."""
    lo = np.full(4, x.min() - 0.5)
    hi = np.full(4, x.max() + 0.5)
    best = None
    for _ in range(levels):
        axes = [np.linspace(lo[i], hi[i], points) for i in range(4)]
        grids = np.meshgrid(*axes, indexing="ij")
        m = np.stack([g.ravel() for g in grids], axis=1)
        diffs = (
            np.abs(m[:, 2] - m[:, 0]) + np.abs(m[:, 3] - m[:, 1])
            + np.abs(m[:, 1] - m[:, 0]) + np.abs(m[:, 3] - m[:, 2])
        )
        vals = 0.5 * np.sum((m - x.ravel()) ** 2, axis=1) + t * diffs
        best = m[np.argmin(vals)]
        step = np.array([axes[i][1] - axes[i][0] for i in range(4)])
        lo, hi = best - step, best + step
    return best.reshape(2, 2), step.max()


def test_tv2d_matches_exhaustive_search_on_2x2():
    rng = np.random.default_rng(3)
    for _ in range(3):
        x = rng.standard_normal((2, 2))
        out = denoise.tv2d(x, 0.1, inner_iters=200)
        ref, resolution = _brute_force_tv_2x2(x, 0.1)
        assert np.max(np.abs(out - ref)) <= max(3 * resolution, 1e-3)
        # and the returned point is at least as good as the searched one
        assert _tv_objective(x, out, 0.1) <= _tv_objective(x, ref, 0.1) + 1e-8


@pytest.mark.parametrize("n", [41, 81])
@pytest.mark.parametrize("t", [0.05, 0.5, 2.0])
def test_tv2d_default_cap_reaches_the_prox(n, t):
    rng = np.random.default_rng(n)
    x = np.zeros((n, n))
    x[:, n // 2 :] = 1.0
    x += 0.3 * rng.standard_normal((n, n))
    reference = _tv_objective(x, denoise.tv2d(x, t, inner_iters=30000), t)
    assert _tv_objective(x, denoise.tv2d(x, t), t) - reference <= 1e-4 * reference


def _reference_tv2d(x, t, inner_iters=600):
    """The FGP loop as first written, one temporary per operation."""
    nz, nx = x.shape
    pz, px = np.zeros((nz - 1, nx)), np.zeros((nz, nx - 1))
    rz, rx = pz, px
    m = m_prev = u = x
    s = 1.0
    step = 1.0 / (8.0 * t)
    tol = 1e-10 * np.linalg.norm(x)
    for _ in range(inner_iters):
        qz = np.clip(rz + step * np.diff(u, axis=0), -1.0, 1.0)
        qx = np.clip(rx + step * np.diff(u, axis=1), -1.0, 1.0)
        if np.vdot(rz - qz, qz - pz) + np.vdot(rx - qx, qx - px) > 0.0:
            s = 1.0
        s_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * s * s))
        beta = (s - 1.0) / s_next
        rz, rx = qz + beta * (qz - pz), qx + beta * (qx - px)
        pz, px, s = qz, qx, s_next
        m_prev, m = m, x.copy()
        m[:-1, :] += t * pz
        m[1:, :] -= t * pz
        m[:, :-1] += t * px
        m[:, 1:] -= t * px
        if np.linalg.norm(m - m_prev) <= tol:
            break
        u = m + beta * (m - m_prev)
    return m


@pytest.mark.parametrize("shape", [(1, 9), (9, 1), (2, 2), (7, 13), (41, 41)])
def test_tv2d_is_bit_identical_to_the_reference_loop(shape):
    rng = np.random.default_rng(shape[0] * 100 + shape[1])
    cases = [(rng.standard_normal(shape), t, 600) for t in (0.05, 2.0)]
    # the WRI workloads' regime: squared slowness near 2.5e-7, prox weight near 7e-12
    cases.append((2.5e-7 * (1.0 + 0.1 * rng.standard_normal(shape)), 7e-12, 600))
    cases.append((rng.standard_normal(shape), 0.3, 3))  # stopped by the cap
    for x, t, iters in cases:
        before = x.copy()
        out = denoise.tv2d(x, t, iters)
        assert np.array_equal(out, _reference_tv2d(x, t, iters))
        assert np.array_equal(x, before)
        assert not np.shares_memory(out, x)


# ---------------------------------------------------------------------------
# non-local means


def _nlm_naive(x, p, r, h, sigma):
    """Quadruple-loop reference implementation."""
    nz, nx = x.shape
    padded = np.pad(x, p + r, mode="symmetric")
    out = np.zeros_like(x)
    patch_count = (2 * p + 1) ** 2
    for i in range(nz):
        for j in range(nx):
            ci, cj = i + p + r, j + p + r
            num = den = 0.0
            for a in range(-r, r + 1):
                for b in range(-r, r + 1):
                    d2 = 0.0
                    for di in range(-p, p + 1):
                        for dj in range(-p, p + 1):
                            diff = padded[ci + di, cj + dj] - padded[ci + a + di, cj + b + dj]
                            d2 += diff * diff
                    d2 /= patch_count
                    w = np.exp(-max(d2 - 2.0 * sigma**2, 0.0) / h**2)
                    num += w * padded[ci + a, cj + b]
                    den += w
            out[i, j] = num / den
    return out


def test_nlm_constant_unchanged():
    x = np.full((8, 8), 1.5)
    assert np.allclose(denoise.nlm(x, 1, 2, 0.3), x, atol=1e-14)


def test_nlm_matches_naive_reference():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((16, 16))
    fast = denoise.nlm(x, patch_radius=2, search_radius=3, h=0.5, sigma=0.1)
    slow = _nlm_naive(x, 2, 3, 0.5, 0.1)
    assert np.max(np.abs(fast - slow)) < 1e-12


def test_nlm_weight_symmetry_for_identical_patches():
    # a pixel whose search window contains two candidates with identical
    # neighborhoods assigns them exactly equal weights (distance symmetry)
    rng = np.random.default_rng(6)
    patch = rng.standard_normal((3, 3))
    x = rng.standard_normal((11, 11)) * 0.05
    x[4:7, 1:4] = patch
    x[4:7, 7:10] = patch
    p, r, h, sigma = 1, 6, 0.4, 0.0
    padded = np.pad(x, p + r, mode="symmetric")
    ci, cj = 5 + p + r, 5 + p + r  # pixel midway between the two copies

    def weight(a, b):
        d2 = 0.0
        for di in range(-p, p + 1):
            for dj in range(-p, p + 1):
                diff = padded[ci + di, cj + dj] - padded[ci + a + di, cj + b + dj]
                d2 += diff * diff
        d2 /= (2 * p + 1) ** 2
        return np.exp(-max(d2 - 2.0 * sigma**2, 0.0) / h**2)

    # candidates at the two patch centers: identical neighborhoods, equal weight
    assert weight(0, -3) == pytest.approx(weight(0, 3), abs=1e-15)


def test_nlm_flip_equivariance():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((10, 12))
    flipped = denoise.nlm(x[:, ::-1].copy(), 1, 2, 0.3)
    assert np.allclose(denoise.nlm(x, 1, 2, 0.3)[:, ::-1], flipped, atol=1e-12)


def test_nlm_too_small_grid_rejected():
    with pytest.raises(GeometryError):
        denoise.nlm(np.ones((2, 2)), patch_radius=2, search_radius=2, h=0.1)


# ---------------------------------------------------------------------------
# nonexpansiveness of the convex proxes


@pytest.mark.parametrize("kind,t", [("l1", 0.4), ("l2sq", 0.7), ("tv2d", 0.3)])
def test_prox_nonexpansive(kind, t):
    rng = np.random.default_rng(8)
    ref = rng.standard_normal((5, 5))
    for _ in range(5):
        x, y = rng.standard_normal((5, 5)), rng.standard_normal((5, 5))
        if kind == "l1":
            dx_out = denoise.prox_l1(x, t) - denoise.prox_l1(y, t)
        elif kind == "l2sq":
            dx_out = denoise.prox_l2sq(x, t, ref) - denoise.prox_l2sq(y, t, ref)
        else:
            dx_out = denoise.tv2d(x, t, inner_iters=120) - denoise.tv2d(y, t, inner_iters=120)
        assert np.linalg.norm(dx_out) <= np.linalg.norm(x - y) * (1.0 + 1e-8) + 1e-9


# ---------------------------------------------------------------------------
# dispatch


def test_apply_identity_any_scale():
    x = np.array([[1.0, -2.0], [0.5, 3.0]])
    d = denoise.Denoiser("identity")
    for scale in (0.0, 1.0, 1e6):
        assert np.array_equal(d.apply(x, scale), x)


def test_apply_scale_zero_is_identity_for_all_kinds():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((6, 6))
    for d in (
        denoise.Denoiser("l1"),
        denoise.Denoiser("l2sq", ref=np.zeros((6, 6))),
        denoise.Denoiser("tv2d"),
        denoise.Denoiser("nlm"),
    ):
        assert np.array_equal(d.apply(x, 0.0), x)


def test_apply_l1_matches_prox():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((4, 4))
    d = denoise.Denoiser("l1")
    assert np.array_equal(d.apply(x, 0.37), denoise.prox_l1(x, 0.37))


def test_apply_scale_is_the_only_strength():
    # the prox scale is the weight of l1/l2sq/tv2d and sets nlm's bandwidth
    rng = np.random.default_rng(12)
    x = rng.standard_normal((7, 7))
    ref = rng.standard_normal((7, 7))
    assert np.array_equal(denoise.Denoiser("l2sq", ref=ref).apply(x, 0.3),
                          denoise.prox_l2sq(x, 0.3, ref))
    assert np.array_equal(denoise.Denoiser("tv2d").apply(x, 0.3), denoise.tv2d(x, 0.3))
    assert np.array_equal(denoise.Denoiser("nlm").apply(x, 4.0),
                          denoise.nlm(x, h=4.0 * denoise.NLM_BANDWIDTH))


def test_apply_negative_scale_rejected():
    with pytest.raises(ValueError):
        denoise.Denoiser("l1").apply(np.ones(3), -1.0)


def test_penalty_values():
    x = np.array([[1.0, -2.0], [0.0, 0.5]])
    assert denoise.Denoiser("identity").penalty(x) == 0.0
    assert denoise.Denoiser("l1").penalty(x) == 3.5
    assert denoise.Denoiser("tv2d").penalty(x) == denoise.tv_value(x)
    assert denoise.Denoiser("nlm").penalty(x) is None


def test_make_denoiser_parsing():
    d = denoise.make_denoiser("tv2d:iters=7")
    assert d.kind == "tv2d" and d.inner_iters == 7
    d = denoise.make_denoiser("nlm:patch=2,search=4,sigma=0.1")
    assert (d.patch_radius, d.search_radius, d.sigma) == (2, 4, 0.1)
    assert denoise.make_denoiser("none").kind == "identity"
    with pytest.raises(ConfigError):
        denoise.make_denoiser("wavelet")
    # lambda (the prox scale) is the one strength: no spec key repeats it
    for spec in ("l1:strength=2", "tv2d:weight=2.5", "nlm:h=0.05"):
        with pytest.raises(ConfigError, match="unknown denoiser parameter"):
            denoise.make_denoiser(spec)


@pytest.mark.parametrize(
    "spec, message",
    [
        ("nlm:patch=0", "patch must be at least 1, got 0"),
        ("nlm:search=-2", "search must be at least 1, got -2"),
        ("tv2d:iters=-5", "iters must be at least 1, got -5"),
        ("tv2d:iters=0", "iters must be at least 1, got 0"),
        ("nlm:sigma=-1", "sigma must be nonnegative and finite, got -1.0"),
        ("nlm:sigma=nan", "sigma must be nonnegative and finite, got nan"),
        ("l2sq:iters=3", "'iters' is read by tv2d only, not by 'l2sq'"),
        ("tv2d:sigma=0.1", "'sigma' is read by nlm only, not by 'tv2d'"),
    ],
)
def test_make_denoiser_rejects_parameters_that_do_nothing_or_crash(spec, message):
    # each would otherwise be accepted silently, leave the grid unchanged, or
    # fail with a ValueError at the first prox
    with pytest.raises(ConfigError, match=message):
        denoise.make_denoiser(spec, ref=np.zeros((5, 5)))


# ---------------------------------------------------------------------------
# external denoiser pipe


def test_external_cli_tv2d_matches_in_process(monkeypatch):
    # the child imports proxfwi from this checkout, whatever the working directory
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    template = (
        f"{shlex.quote(sys.executable)} -m proxfwi denoise --in {{in}} --out {{out}} "
        "--denoiser tv2d --scale {scale}"
    )
    pipe = denoise.make_denoiser("external:" + template, dz=25.0, dx=25.0)
    assert isinstance(pipe, denoise.ExternalDenoiser)
    rng = np.random.default_rng(11)
    x = 1.0 + rng.uniform(0.0, 0.5, (9, 7))
    assert np.array_equal(pipe.apply(x, 0.2), denoise.Denoiser("tv2d").apply(x, 0.2))


def test_external_nonzero_exit_raises():
    pipe = denoise.ExternalDenoiser(
        f"{shlex.quote(sys.executable)} -c 'import sys; sys.exit(3)' {{in}} {{out}} {{scale}}"
    )
    with pytest.raises(DenoiserPipeError):
        pipe.apply(np.ones((4, 4)), 1.0)


def test_external_template_without_out_rejected():
    with pytest.raises(ConfigError):
        denoise.make_denoiser("external:cp {in} {scale}")
