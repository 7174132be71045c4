import numpy as np
import pytest

from proxfwi import optim, rosenbrock
from proxfwi.denoise import Denoiser
from proxfwi.errors import ConfigError


def _quadratic_oracle(q, b):
    """Oracle for 0.5 m^T Q m - b^T m."""
    q = np.asarray(q, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return optim.CallbackOracle(
        value=lambda m: 0.5 * float(m @ q @ m) - float(b @ m),
        gradient=lambda m: q @ m - b,
        hvp=lambda m, v: q @ v,
        hessian_dense=lambda m: q,
    )


# ---------------------------------------------------------------------------
# limited-memory quasi-Newton


def test_lbfgs_hessian_apply_matches_dense_bfgs_recursion():
    rng = np.random.default_rng(5)
    n, k = 6, 4
    pairs = []
    for _ in range(k):
        s = rng.standard_normal(n)
        y = s + 0.3 * rng.standard_normal(n)
        if float(s @ y) > 0:
            pairs.append((s, y))
    hess = optim.LbfgsHessian(memory=10)
    for s, y in pairs:
        hess.update(s, y)

    # dense oracle: apply the direct BFGS update recursion from delta*I
    s_l, y_l = pairs[-1]
    delta = float(y_l @ y_l) / float(s_l @ y_l)
    b = delta * np.eye(n)
    for s, y in pairs:
        bs = b @ s
        b = b - np.outer(bs, bs) / float(s @ bs) + np.outer(y, y) / float(y @ s)

    v = rng.standard_normal(n)
    assert np.allclose(hess.apply(v), b @ v, rtol=1e-10, atol=1e-10)
    # shifted solve agrees with the dense solve for several shifts
    for c in (0.1, 1.0, 7.5):
        rhs = rng.standard_normal(n)
        dense = np.linalg.solve(c * b + np.eye(n), rhs)
        assert np.allclose(hess.solve_shifted(c, rhs), dense, rtol=1e-9, atol=1e-11)


def test_lbfgs_hessian_rebuilds_its_compact_form_after_each_update():
    rng = np.random.default_rng(8)
    n = 5
    hess = optim.LbfgsHessian(memory=2)
    pairs = []
    for _ in range(4):  # the last two updates drop the oldest pair
        s = rng.standard_normal(n)
        y = s + 0.2 * rng.standard_normal(n)
        v = rng.standard_normal(n)
        hess.apply(v)  # builds the compact form of the current pairs
        hess.update(s, y)
        pairs = (pairs + [(s, y)])[-2:]
        fresh = optim.LbfgsHessian(memory=2)
        for ps, py in pairs:
            fresh.update(ps, py)
        assert np.array_equal(hess.apply(v), fresh.apply(v))
        assert np.array_equal(hess.solve_shifted(0.7, v), fresh.solve_shifted(0.7, v))
        sigma_max = lambda h: optim._hessian_ops("lbfgs", None, v, h, 0)[2]()
        assert sigma_max(hess) == sigma_max(fresh)


def test_lbfgs_hessian_skips_bad_curvature():
    hess = optim.LbfgsHessian(memory=5)
    hess.update(np.array([1.0, 0.0]), np.array([-1.0, 0.0]))
    assert len(hess) == 0 and hess.skipped == 1
    assert np.array_equal(hess.apply(np.array([2.0, 3.0])), np.array([2.0, 3.0]))


# ---------------------------------------------------------------------------
# Hessian modes


def test_hvp_mode_shifted_solve_matches_exact_dense():
    rng = np.random.default_rng(12)
    a = rng.standard_normal((6, 6))
    q = a @ a.T + 0.5 * np.eye(6)
    oracle = _quadratic_oracle(q, rng.standard_normal(6))
    m = rng.standard_normal(6)
    h_apply, cg_solve, sigma = optim._hessian_ops("hvp", oracle, m, None, 0)
    _, dense_solve, dense_sigma = optim._hessian_ops("exact-dense", oracle, m, None, 0)
    assert sigma() == pytest.approx(dense_sigma(), rel=1e-3)  # power iteration, tol 1e-4
    for c in (0.01, 1.0, 30.0):
        rhs = rng.standard_normal(6)
        assert np.allclose(h_apply(rhs), q @ rhs, rtol=0.0, atol=1e-14)
        assert np.max(np.abs(cg_solve(c, rhs) - dense_solve(c, rhs))) <= 1e-10


@pytest.mark.parametrize("method", ["nista", "nadmm"])
def test_hvp_mode_toy_solve_reaches_exact_dense_result(method):
    dense = _toy_solve(1.5, method)
    hvp = _toy_solve(1.5, method, hessian="hvp")
    assert np.linalg.norm(hvp.m - dense.m) < 1e-6
    assert np.linalg.norm(hvp.m - rosenbrock.rosenbrock_l1_argmin(1.5)) < 1e-4


def test_identity_mode_solves_shifted_identity():
    h_apply, solve_shifted, sigma = optim._hessian_ops("identity", None, np.zeros(3), None, 0)
    r = np.array([1.0, -2.0, 3.0])
    assert sigma() == 1.0 and np.array_equal(h_apply(r), r)
    for c in (0.0, 0.5, 7.0):
        assert np.array_equal(solve_shifted(c, r), r / (c + 1.0))


def test_exact_dense_mode_needs_the_dense_hessian():
    oracle = optim.CallbackOracle(
        value=lambda m: float(m @ m), gradient=lambda m: 2.0 * m, hvp=lambda m, v: 2.0 * v
    )
    with pytest.raises(ConfigError):
        optim._hessian_ops("exact-dense", oracle, np.ones(2), None, 0)
    config = optim.OptConfig(hessian="exact-dense", max_outer=3)
    with pytest.raises(ConfigError):
        optim.proximal_newton_solve(oracle, Denoiser("identity"), config, np.ones(2))


def test_hessian_mode_missing_from_oracle_is_a_config_error():
    config = optim.OptConfig(hessian="diagonal", max_outer=3)
    with pytest.raises(ConfigError, match="hessian_diag"):
        optim.proximal_newton_solve(
            rosenbrock.RosenbrockOracle(), Denoiser("identity"), config, np.ones(2)
        )


# ---------------------------------------------------------------------------
# line search


def test_line_search_accepts_newton_step_on_quadratic():
    q = np.diag([2.0, 5.0])
    b = np.array([1.0, -2.0])
    oracle = _quadratic_oracle(q, b)
    m = np.array([1.0, 1.0])
    direction = -np.linalg.solve(q, oracle.gradient(m))
    ls = optim.line_search(oracle.value, m, direction, ck=1.0)
    assert ls.accepted and ls.alpha == 1.0


def test_line_search_matches_hand_enumerated_ladder():
    f = lambda m: float(m[0] ** 2)
    m = np.array([1.0])
    dm = np.array([-2.0])
    sigma, beta, ck = 0.25, 0.5, 1.0
    ls = optim.line_search(f, m, dm, sigma_ls=sigma, beta_ls=beta, ck=ck)
    # enumerate the ladder by hand: f0=1, need f(1-2a) <= 1 - 0.25*a*4 = 1 - a
    # a=1: f=1 > 0; a=0.5: f=0 <= 0.5 -> accept
    assert ls.accepted and ls.alpha == 0.5 and ls.value == 0.0


def test_line_search_postcondition():
    rng = np.random.default_rng(6)
    q = rng.standard_normal((4, 4))
    q = q @ q.T + np.eye(4)
    oracle = _quadratic_oracle(q, rng.standard_normal(4))
    m = rng.standard_normal(4)
    dm = -oracle.gradient(m)
    sigma, ck = 1e-4, 0.5
    ls = optim.line_search(oracle.value, m, dm, sigma_ls=sigma, ck=ck)
    assert ls.accepted
    f0 = oracle.value(m)
    assert oracle.value(m + ls.alpha * dm) <= f0 - sigma * ls.alpha * float(dm @ dm) / ck


def test_line_search_flags_ascent_direction():
    f = lambda m: float(m[0] ** 2)
    ls = optim.line_search(f, np.array([1.0]), np.array([5.0]), max_trials=8)
    assert not ls.accepted


def test_search_step_holds_iterate_on_ascent_direction():
    f = lambda m: float(m[0] ** 2)
    m = np.array([1.0])
    alpha, m_new, merit_new, accepted = optim._search_step(f, m, np.array([5.0]), 1.0, 1.0)
    assert (alpha, merit_new, accepted) == (0.0, 1.0, False)
    assert m_new is m


@pytest.mark.parametrize("hessian", ["identity", "exact-dense", "lbfgs"])
@pytest.mark.parametrize("method", ["nista", "nadmm"])
def test_zero_direction_is_an_accepted_null_step_that_stops_the_run(method, hessian):
    # a constant objective under the identity denoiser leaves no direction:
    # NISTA at its first step, NADMM once p has caught up with m
    oracle = optim.CallbackOracle(
        value=lambda m: 1.0, gradient=lambda m: np.zeros_like(m),
        hessian_dense=lambda m: np.zeros((m.size, m.size)),
    )
    config = optim.OptConfig(hessian=hessian, max_outer=10)
    m0 = np.array([1.0, -2.0])
    result = optim.proximal_newton_solve(oracle, Denoiser("identity"), config, m0, method)
    assert result.status == "step-floor"
    last = result.history[-1]
    assert (last.alpha, last.step_norm) == (1.0, 0.0)
    if method == "nista":
        assert np.array_equal(result.m, m0)


# ---------------------------------------------------------------------------
# direction subproblems


def test_nista_single_step_is_gradient_step():
    oracle = _quadratic_oracle(np.eye(2), np.zeros(2))
    m = np.array([3.0, -4.0])
    dm, sweeps = optim.nista_direction(oracle, m, Denoiser("identity"), 0.0, 1.0, 1)
    assert sweeps == 1
    assert np.allclose(dm, -oracle.gradient(m), atol=1e-15)


def test_nista_converges_to_newton_direction():
    rng = np.random.default_rng(7)
    q = np.array([[4.0, 1.0], [1.0, 2.0]])
    b = rng.standard_normal(2)
    oracle = _quadratic_oracle(q, b)
    m = rng.standard_normal(2)
    newton = -np.linalg.solve(q, oracle.gradient(m))
    ck = 0.9 / np.linalg.eigvalsh(q)[-1]
    dm, _ = optim.nista_direction(oracle, m, Denoiser("identity"), 0.0, ck, 2000)
    assert np.linalg.norm(dm - newton) < 1e-6


def test_nista_subproblem_matches_grid_search():
    # composite quadratic model of the valley at the origin with weight 1.5
    oracle = rosenbrock.RosenbrockOracle()
    m = np.zeros(2)
    lam = 1.5
    hess = oracle.hessian_dense(m)
    grad = oracle.gradient(m)
    ck = 0.9 / np.linalg.eigvalsh(hess)[-1]
    dm, _ = optim.nista_direction(oracle, m, Denoiser("l1"), lam, ck, 100)

    # exhaustive refining search over the subproblem objective
    def model(d):
        return 0.5 * d @ hess @ d + grad @ d + lam * np.sum(np.abs(m + d))

    lo, hi = np.full(2, -1.0), np.full(2, 1.0)
    for _ in range(5):
        xs = np.linspace(lo[0], hi[0], 41)
        ys = np.linspace(lo[1], hi[1], 41)
        grid = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2)
        vals = (
            0.5 * np.einsum("ni,ij,nj->n", grid, hess, grid)
            + grid @ grad
            + lam * np.sum(np.abs(m[None, :] + grid), axis=1)
        )
        best = grid[np.argmin(vals)]
        step = np.array([xs[1] - xs[0], ys[1] - ys[0]])
        lo, hi = best - step, best + step
    assert np.allclose(best, [0.25, 0.0], atol=1e-3)  # sanity on the oracle itself
    assert np.linalg.norm(dm - best) <= max(5e-3, 3 * step.max())
    assert model(dm) <= model(best) + 1e-4
    # with a large inner budget the sweep nails the subproblem argmin
    dm_long, _ = optim.nista_direction(oracle, m, Denoiser("l1"), lam, ck, 5000)
    assert np.linalg.norm(dm_long - [0.25, 0.0]) < 1e-5


def test_nista_uses_exactly_n_hvp_evaluations():
    calls = []
    base = rosenbrock.RosenbrockOracle()

    class Counting:
        def value(self, m):
            return base.value(m)

        def gradient(self, m):
            return base.gradient(m)

        def hvp(self, m, v):
            calls.append(1)
            return base.hvp(m, v)

    _, sweeps = optim.nista_direction(Counting(), np.zeros(2), Denoiser("l1"), 1.0, 1e-3, 37)
    assert len(calls) == sweeps == 37


@pytest.mark.parametrize("forcing, sweeps", [(0.0, 9), (0.05, 1)])
def test_nista_zero_gradient_runs_every_sweep_only_without_forcing(forcing, sweeps):
    # at the minimizer r_1 = 0, so any forcing term is met on the first sweep
    calls = []
    q, b = np.array([[4.0, 1.0], [1.0, 2.0]]), np.array([1.0, -1.0])

    def h_apply(v):
        calls.append(1)
        return q @ v

    oracle = _quadratic_oracle(q, b)
    m = np.linalg.solve(q, b)
    dm, ran = optim.nista_direction(
        oracle, m, Denoiser("identity"), 0.0, 0.2, 9, h_apply=h_apply, grad=np.zeros(2),
        forcing=forcing,
    )
    assert len(calls) == ran == sweeps
    assert np.array_equal(dm, np.zeros(2))


def test_nista_forcing_stops_at_the_first_small_residual():
    rng = np.random.default_rng(3)
    q = np.array([[4.0, 1.0], [1.0, 2.0]])
    oracle = _quadratic_oracle(q, rng.standard_normal(2))
    m = rng.standard_normal(2)
    ck = 0.9 / np.linalg.eigvalsh(q)[-1]
    n = 60
    starts = []  # dp_{l-1}, the point sweep l's gradient step starts at

    def h_apply(v):
        starts.append(np.array(v, copy=True))
        return q @ v

    def run(n_inner, forcing=0.0):
        return optim.nista_direction(
            oracle, m, Denoiser("identity"), 0.0, ck, n_inner, h_apply=h_apply, forcing=forcing
        )

    run(n)
    dp = starts[:]
    residuals = [np.linalg.norm(run(ell)[0] - dp[ell - 1]) for ell in range(1, n + 1)]
    stop = next(ell for ell, r in enumerate(residuals, 1) if r <= 0.05 * residuals[0])
    assert 1 < stop < n

    starts.clear()
    dm, sweeps = run(n, forcing=0.05)
    assert sweeps == len(starts) == stop
    assert np.array_equal(dm, run(stop)[0])


def test_proximal_newton_solve_passes_the_inner_forcing_term(monkeypatch):
    seen = []
    direction = optim.nista_direction

    def recording(*args, **kwargs):
        seen.append(kwargs["forcing"])
        return direction(*args, **kwargs)

    monkeypatch.setattr(optim, "nista_direction", recording)
    monkeypatch.setattr(optim, "INNER_FORCING", 0.125)
    result = _toy_solve(1.5, "nista", max_outer=3)
    assert seen == [0.125] * result.n_outer and result.n_outer == 3


def test_nista_extrapolation_coefficients_exact():
    recorded = []

    def h_apply(v):
        recorded.append(np.array(v, copy=True))
        return np.zeros_like(v)

    g = np.array([1.0, -2.0])
    oracle = _quadratic_oracle(np.zeros((2, 2)), np.zeros(2))
    n = 7
    optim.nista_direction(
        oracle, np.zeros(2), Denoiser("identity"), 0.0, 1.0, n, h_apply=h_apply, grad=g
    )
    # simulate the recurrence with coefficients (l-1)/(l+2), l starting at 1
    dp, dm = np.zeros(2), np.zeros(2)
    expected = []
    for ell in range(1, n + 1):
        expected.append(dp.copy())
        dm_new = dp - g
        dp = dm_new + ((ell - 1.0) / (ell + 2.0)) * (dm_new - dm)
        dm = dm_new
    assert all(np.array_equal(a, b) for a, b in zip(recorded, expected))


def test_nadmm_step_scalar_arithmetic():
    # H = 2, c = 0.5, grad = 4, prior - m = 0  ->  dm = (1+1)^-1 (-2) = -1
    oracle = optim.CallbackOracle(
        value=lambda m: float(m[0] ** 2 + 4.0 * m[0]),
        gradient=lambda m: np.array([2.0 * m[0] + 4.0]),
    )
    state = optim.InversionState.initial(np.array([0.0]))
    state.p = state.m.copy()  # prior = p + q = m
    grad = np.array([4.0])
    step = optim.nadmm_step(
        oracle, state, Denoiser("identity"), 0.0, 0.5,
        lambda c, rhs: rhs / (2.0 * c + 1.0), grad=grad,
    )
    assert np.allclose(step.dm, [-1.0], atol=1e-14)


def test_nadmm_identity_prox_reduction():
    # with weight zero the auxiliaries collapse: q = 0, p = m, and the step
    # solves the damped Newton system exactly
    rng = np.random.default_rng(8)
    oracle = rosenbrock.RosenbrockOracle()
    state = optim.InversionState.initial(np.array([-0.5, 0.4]))
    ck = 0.01
    for _ in range(6):
        m_k = state.m.copy()
        grad = oracle.gradient(m_k)
        hess = oracle.hessian_dense(m_k)
        _, solve_shifted, _ = optim._hessian_ops("exact-dense", oracle, m_k, None, 0)
        step = optim.nadmm_step(oracle, state, Denoiser("identity"), 0.0, ck, solve_shifted)
        assert np.array_equal(state.q, np.zeros(2))
        assert np.array_equal(state.p, state.m)
        if np.all(np.linalg.eigvalsh(hess) > 0):
            expected = np.linalg.solve(ck * hess + np.eye(2), -ck * grad)
            assert np.linalg.norm(step.dm - expected) < 1e-8


# ---------------------------------------------------------------------------
# outer driver on the analytic toy


def _toy_solve(lam, method, **overrides):
    defaults = dict(lam=lam, hessian="exact-dense", max_outer=400)
    if method == "nadmm":
        defaults.update(c_fixed=0.1, max_outer=2000)
    defaults.update(overrides)
    config = optim.OptConfig(**defaults)
    return optim.proximal_newton_solve(
        rosenbrock.RosenbrockOracle(), Denoiser("l1"), config, np.array([-1.2, 1.0]), method
    )


@pytest.mark.parametrize("method", ["nista", "nadmm"])
def test_toy_no_regularization_reaches_smooth_minimum(method):
    result = _toy_solve(0.0, method)
    assert np.linalg.norm(result.m - [1.0, 1.0]) < 1e-5


@pytest.mark.parametrize("method", ["nista", "nadmm"])
def test_toy_heavy_regularization_reaches_origin(method):
    result = _toy_solve(3.0, method)
    assert np.linalg.norm(result.m) < 1e-6


def test_toy_cubic_branch_weight():
    target = rosenbrock.rosenbrock_l1_argmin(1.75)
    for method in ("nista", "nadmm"):
        result = _toy_solve(1.75, method)
        assert np.linalg.norm(result.m - target) < 1e-4


def test_minimizer_path_formulas():
    for lam in (0.0, 0.5, 1.0, 1.5):
        m1 = (2.0 - lam) / (2.0 + 2.0 * lam)
        expected = np.array([m1, m1**2 - lam / 150.0])
        for method in ("nista", "nadmm"):
            result = _toy_solve(lam, method)
            assert np.linalg.norm(result.m - expected) < 1e-4, (lam, method)


def test_scaling_invariance_of_argmin():
    # scaling the misfit and the weight together leaves the minimizer fixed
    scale = 7.5
    base = rosenbrock.RosenbrockOracle()
    scaled = optim.CallbackOracle(
        value=lambda m: scale * base.value(m),
        gradient=lambda m: scale * base.gradient(m),
        hvp=lambda m, v: scale * base.hvp(m, v),
        hessian_dense=lambda m: scale * base.hessian_dense(m),
    )
    lam = 1.0
    config = optim.OptConfig(lam=lam * scale, hessian="exact-dense", max_outer=400)
    result = optim.proximal_newton_solve(
        scaled, Denoiser("l1"), config, np.array([-1.2, 1.0]), "nista"
    )
    reference = _toy_solve(lam, "nista")
    assert np.linalg.norm(result.m - reference.m) < 1e-6


def test_nista_composite_history_nonincreasing():
    result = _toy_solve(1.0, "nista")
    objectives = np.array([row.objective for row in result.history])
    assert np.all(np.diff(objectives) <= 1e-10 * (1.0 + np.abs(objectives[:-1])))


def test_lbfgs_hessian_mode_converges_on_toy():
    result = _toy_solve(1.5, "nista", hessian="lbfgs", max_outer=800)
    assert np.linalg.norm(result.m - [0.1, 0.0]) < 1e-3


def test_history_csv_export(tmp_path):
    result = _toy_solve(1.5, "nista")
    path = tmp_path / "hist.csv"
    optim.history_to_csv(result.history, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "iter,objective,misfit,reg_value,alpha,step_norm,ck,inner_sweeps"
    assert len(lines) == len(result.history) + 1
    first = lines[1].split(",")
    assert int(first[0]) == 1 and len(first) == 8
    assert [int(line.split(",")[-1]) for line in lines[1:]] == [
        row.inner_sweeps for row in result.history
    ]


def test_nista_with_a_penaltyless_denoiser_records_the_misfit_as_objective(tmp_path):
    # nlm has no explicit functional: reg_value is NaN and the objective is the misfit
    rng = np.random.default_rng(21)
    target = rng.uniform(1.0, 2.0, (8, 8))
    oracle = optim.CallbackOracle(
        value=lambda m: 0.5 * float(np.sum((m - target) ** 2)),
        gradient=lambda m: m - target,
        hessian_diag=lambda m: np.ones_like(m),
    )
    config = optim.OptConfig(lam=0.5, hessian="diagonal", max_outer=3)
    result = optim.proximal_newton_solve(oracle, Denoiser("nlm"), config, np.ones((8, 8)),
                                         "nista")
    assert result.n_outer >= 1
    assert all(np.isnan(row.reg_value) and row.objective == row.misfit
               for row in result.history)
    path = tmp_path / "hist.csv"
    optim.history_to_csv(result.history, path)
    header, *lines = path.read_text().splitlines()
    rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
    assert len(rows) == result.n_outer
    assert all(r["reg_value"] == "nan" and r["objective"] == r["misfit"] for r in rows)


def test_nadmm_holds_ck_from_the_freeze_step_on(monkeypatch):
    n = optim.C_FREEZE_AFTER + 3
    result = _toy_solve(0.0, "nadmm", c_fixed=None, max_outer=n)
    cks = [row.ck for row in result.history]
    assert [row.iteration for row in result.history] == list(range(1, n + 1))
    # the spectral rule tracks H_k until the freeze, then the last value holds
    assert len(set(cks[: optim.C_FREEZE_AFTER])) == optim.C_FREEZE_AFTER
    assert cks[optim.C_FREEZE_AFTER :] == [cks[optim.C_FREEZE_AFTER - 1]] * 3
    nista = _toy_solve(0.0, "nista", max_outer=n)
    assert len({row.ck for row in nista.history[optim.C_FREEZE_AFTER - 1 :]}) > 1

    # the power iteration for sigma_max runs only on the steps where it sets ck
    calls = []
    spectral_norm = optim.spectral_norm
    monkeypatch.setattr(
        optim, "spectral_norm", lambda *args, **kw: calls.append(1) or spectral_norm(*args, **kw)
    )
    expected = {("nadmm", None): optim.C_FREEZE_AFTER, ("nista", None): n,
                ("nadmm", 1e-4): 0, ("nista", 1e-4): 0}
    for (method, c_fixed), count in expected.items():
        calls.clear()
        result = _toy_solve(0.0, method, hessian="hvp", c_fixed=c_fixed, max_outer=n)
        assert result.n_outer == n and len(calls) == count, (method, c_fixed)


@pytest.mark.parametrize(
    "kwargs",
    [dict(stop_target=1.0), dict(stop_metric=lambda oracle, m: 0.0), dict(c_fixed=0.0),
     dict(c_fixed=-1.0), dict(c_fixed=np.nan), dict(c_fixed=np.inf), dict(lam=np.nan),
     dict(lam=-1.0), dict(inner_iters=0), dict(max_outer=-3)],
)
def test_config_rejects_half_stopping_rule_and_bad_step(kwargs):
    with pytest.raises(ConfigError):
        optim.OptConfig(**kwargs).validate()


def test_stop_metric_target():
    target = rosenbrock.rosenbrock_l1_argmin(1.5)
    config = optim.OptConfig(
        lam=1.5, hessian="exact-dense", max_outer=400,
        stop_target=1e-3,
        stop_metric=lambda oracle, m: float(np.linalg.norm(m - target)),
    )
    result = optim.proximal_newton_solve(
        rosenbrock.RosenbrockOracle(), Denoiser("l1"), config, np.array([-1.2, 1.0]), "nista"
    )
    assert result.status == "target-reached"
    assert np.linalg.norm(result.m - target) <= 1e-3
