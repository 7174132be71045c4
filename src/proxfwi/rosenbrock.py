"""Analytic 2D testbed: a Rosenbrock-type valley plus l1 regularization.

The misfit is 75*(m2 - m1^2)^2 + (1 - m1)^2.  With an added weight*(|m1|+|m2|)
term the global minimizer follows a closed-form path in the weight, which the
optimization tests use as ground truth.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq


def rosenbrock_value_grad_hess(m):
    """Value, gradient, and exact 2x2 Hessian of the valley misfit."""
    m1, m2 = float(m[0]), float(m[1])
    gap = m2 - m1 * m1
    try:
        value = 75.0 * gap * gap + (1.0 - m1) ** 2
    except OverflowError:  # a float ** raises where a product would give inf
        value = math.inf
    grad = np.array([-300.0 * m1 * gap - 2.0 * (1.0 - m1), 150.0 * gap])
    hess = np.array(
        [
            [-300.0 * (m2 - 3.0 * m1 * m1) + 2.0, -300.0 * m1],
            [-300.0 * m1, 150.0],
        ]
    )
    return value, grad, hess


class RosenbrockOracle:
    """Misfit oracle exposing exact derivatives of the 2D valley.

    The solvers' inner loops need a convex model, and off the valley floor the
    Hessian is indefinite, so ``hvp`` shifts it up to the eigenvalue floor
    1e-12 * max(1, max |lambda|) wherever its smallest eigenvalue is below it.
    """

    def value(self, m):
        return rosenbrock_value_grad_hess(m)[0]

    def gradient(self, m):
        return rosenbrock_value_grad_hess(m)[1]

    def hvp(self, m, v):
        hess = rosenbrock_value_grad_hess(m)[2]
        eigs = np.linalg.eigvalsh(hess)
        floor = 1e-12 * max(1.0, float(np.max(np.abs(eigs))))
        if eigs[0] < floor:
            hess = hess + (floor - eigs[0]) * np.eye(2)
        return hess @ np.asarray(v, dtype=np.float64)


def rosenbrock_l1_argmin(lam: float) -> np.ndarray:
    """Global minimizer of the valley plus lam*(|m1|+|m2|), in closed form.

    Piecewise in lam: an explicit formula up to 3/2, a cubic root branch on
    (3/2, 2], and the origin beyond 2.  The cubic is solved by bracketed root
    finding, exact to 1e-12 inside (0, 1).
    """
    if lam < 0.0:
        raise ValueError("regularization weight must be nonnegative")
    if lam <= 1.5:
        m1 = (2.0 - lam) / (2.0 + 2.0 * lam)
        return np.array([m1, m1 * m1 - lam / 150.0])
    if lam <= 2.0:
        cubic = lambda v: 300.0 * v**3 + 2.0 * v + lam - 2.0
        m1 = brentq(cubic, 0.0, 1.0, xtol=1e-14, rtol=8.9e-16)
        return np.array([m1, 0.0])
    return np.array([0.0, 0.0])
