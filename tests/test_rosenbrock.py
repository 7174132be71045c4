import numpy as np
import pytest

from proxfwi import denoise, rosenbrock


def test_global_minimum_of_smooth_part():
    value, grad, _ = rosenbrock.rosenbrock_value_grad_hess(np.array([1.0, 1.0]))
    assert value == 0.0
    assert np.array_equal(grad, np.zeros(2))


def test_value_at_origin():
    value, grad, _ = rosenbrock.rosenbrock_value_grad_hess(np.array([0.0, 0.0]))
    assert value == 1.0
    assert np.array_equal(grad, np.array([-2.0, 0.0]))


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    for _ in range(5):
        m = rng.standard_normal(2)
        _, grad, _ = rosenbrock.rosenbrock_value_grad_hess(m)
        eps = 1e-6
        for i in range(2):
            e = np.zeros(2)
            e[i] = eps
            fplus, _, _ = rosenbrock.rosenbrock_value_grad_hess(m + e)
            fminus, _, _ = rosenbrock.rosenbrock_value_grad_hess(m - e)
            fd = (fplus - fminus) / (2 * eps)
            assert abs(grad[i] - fd) <= 1e-6 * max(1.0, abs(fd))


def test_hessian_matches_finite_differences_of_gradient():
    rng = np.random.default_rng(1)
    m = rng.standard_normal(2)
    _, _, hess = rosenbrock.rosenbrock_value_grad_hess(m)
    eps = 1e-6
    for i in range(2):
        e = np.zeros(2)
        e[i] = eps
        _, gp, _ = rosenbrock.rosenbrock_value_grad_hess(m + e)
        _, gm, _ = rosenbrock.rosenbrock_value_grad_hess(m - e)
        fd_col = (gp - gm) / (2 * eps)
        assert np.max(np.abs(hess[:, i] - fd_col)) <= 1e-4


def test_argmin_known_points():
    assert np.allclose(rosenbrock.rosenbrock_l1_argmin(1.5), [0.1, 0.0], atol=1e-12)
    assert np.allclose(rosenbrock.rosenbrock_l1_argmin(0.0), [1.0, 1.0], atol=0)
    assert np.array_equal(rosenbrock.rosenbrock_l1_argmin(2.5), [0.0, 0.0])


def test_cubic_branch_consistency_at_boundary():
    # the cubic 300 x^3 + 2 x + lam - 2 evaluated at the formula branch value
    m1 = rosenbrock.rosenbrock_l1_argmin(1.5)[0]
    assert abs(300.0 * m1**3 + 2.0 * m1 + 1.5 - 2.0) < 1e-12
    # approaching 3/2 from both branches gives the same point
    below = rosenbrock.rosenbrock_l1_argmin(1.5 - 1e-12)
    above = rosenbrock.rosenbrock_l1_argmin(1.5 + 1e-12)
    assert np.linalg.norm(below - above) < 1e-9


def test_argmin_is_prox_fixed_point():
    c = 1e-3
    for lam in np.linspace(0.0, 3.0, 16):
        m = rosenbrock.rosenbrock_l1_argmin(lam)
        _, grad, _ = rosenbrock.rosenbrock_value_grad_hess(m)
        stepped = denoise.prox_l1(m - c * grad, c * lam)
        assert np.linalg.norm(stepped - m) < 1e-8


def test_argmin_path_continuity():
    lams = np.linspace(0.0, 3.0, 301)
    points = np.array([rosenbrock.rosenbrock_l1_argmin(l) for l in lams])
    jumps = np.linalg.norm(np.diff(points, axis=0), axis=1)
    assert np.max(jumps) < 0.05  # O(d lambda) steps along a continuous path


def test_oracle_consistency():
    oracle = rosenbrock.RosenbrockOracle()
    m = np.array([0.3, -0.2])
    value, grad, hess = rosenbrock.rosenbrock_value_grad_hess(m)
    assert oracle.value(m) == value
    assert np.array_equal(oracle.gradient(m), grad)
    v = np.array([1.0, -2.0])
    assert np.all(np.linalg.eigvalsh(hess) > 0.0)  # convex here: hvp is the exact product
    assert np.array_equal(oracle.hvp(m, v), hess @ v)
    # off the valley floor the Hessian is indefinite, and hvp applies it shifted up
    # to the eigenvalue floor 1e-12 max(1, max |lambda|), which makes it PSD
    m = np.array([0.0, 1.0])
    _, _, hess = rosenbrock.rosenbrock_value_grad_hess(m)
    eigs = np.linalg.eigvalsh(hess)
    assert np.array_equal(eigs, [-298.0, 150.0])
    shifted = hess + (1e-12 * 298.0 + 298.0) * np.eye(2)
    assert np.array_equal(oracle.hvp(m, v), shifted @ v)
    applied = np.column_stack([oracle.hvp(m, e) for e in np.eye(2)])
    assert np.array_equal(applied, applied.T)
    assert np.linalg.eigvalsh(applied)[0] >= 0.0


def test_negative_weight_rejected():
    with pytest.raises(ValueError):
        rosenbrock.rosenbrock_l1_argmin(-0.5)
