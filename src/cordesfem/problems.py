"""Built-in benchmark problems, all with manufactured exact solutions.

Every registered problem passes the ellipticity/Cordes verification with
its declared nu, and at the exact solution the pointwise inf-sup vanishes
identically, which is the manufactured-solution oracle used by the tests.
Exact fields are evaluated once per point set: all pairs' f in `tabulate`,
and u's value, gradient and Hessian in `error_norm_k`, until it returns.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import partial

import numpy as np

from .cordes import (
    CoefficientField,
    ControlProblem,
    ControlSet,
    ExactSolution,
)

UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def _sine_fields(x) -> dict:
    """u = sin(pi x) sin(pi y) ("value"), its "gradient" and "hessian", and
    the "switch" field g = cos(pi x) cos(pi y), from one sin/cos pass."""
    pi = np.pi
    sx, cx = np.sin(pi * x[:, 0]), np.cos(pi * x[:, 0])
    sy, cy = np.sin(pi * x[:, 1]), np.cos(pi * x[:, 1])
    h = np.empty((len(x), 2, 2))
    h[:, 0, 0] = h[:, 1, 1] = -(pi**2) * sx * sy
    h[:, 0, 1] = h[:, 1, 0] = pi**2 * cx * cy
    return {"value": sx * sy, "gradient": pi * np.column_stack([cx * sy, sx * cy]),
            "hessian": h, "switch": cx * cy}


@contextmanager
def _point_set(scope: list, x):
    """x, a copy of x and `_sine_fields` at x kept in `scope` while open."""
    scope[:] = [x, x.copy(), _sine_fields(x)]
    try:
        yield
    finally:
        scope.clear()


def _sine_problem(name, alphas, betas, a_of, c_of, nu) -> ControlProblem:
    """The problem on the unit square with exact solution u = sin(pi x)
    sin(pi y), the constant a = a_of(alpha) and f = a_of(alpha):D^2 u -
    (c_of(alpha) - beta) g, with g the sign-changing switch field of
    `_sine_fields`: the inf-sup of (c - beta) g vanishes identically at u as
    long as the controls reach c = beta at every point. Outside an `at(x)`
    scope, or at x changed in place, the fields are evaluated afresh."""
    scope = []
    at = partial(_point_set, scope)

    def fields(x):
        if scope and scope[0] is x and np.array_equal(scope[1], x):
            return scope[2]
        return _sine_fields(x)

    exact = ExactSolution(lambda x: fields(x)["value"], lambda x: fields(x)["gradient"],
                          lambda x: fields(x)["hessian"], at)

    def a(x, alpha, beta):
        return np.broadcast_to(a_of(alpha), (len(x), 2, 2))

    def f(x, alpha, beta):
        at_x = fields(x)
        aM = np.einsum("ij,nij->n", a_of(alpha), at_x["hessian"])
        return aM - (c_of(alpha) - beta) * at_x["switch"]

    return ControlProblem(
        domain=UNIT_SQUARE,
        controls=ControlSet(alphas=alphas, betas=betas),
        coeffs=CoefficientField(a, f, at),
        nu=nu,
        exact=exact,
        name=name,
    )


def poisson_singleton() -> ControlProblem:
    """Singleton controls, a = I: the scheme reduces to a linear problem."""
    return _sine_problem("poisson_singleton", [0], [0], lambda alpha: np.eye(2),
                         lambda alpha: alpha, 1.0)


def two_control_switch() -> ControlProblem:
    """Isaacs problem with A = B = {0, 1}, a = I and genuinely switching
    optimal controls: f^(ab) = Lap(u) - (a - b) g."""
    return _sine_problem("two_control_switch", [0, 1], [0, 1],
                         lambda alpha: np.eye(2), lambda alpha: alpha, 1.0)


def rotated_anisotropic(eps: float = 0.1, n_angles: int = 5) -> ControlProblem:
    """Rotation-parameterized anisotropic diffusion R(t)^T diag(1, eps) R(t)
    over a finite angle grid, with a switching source term as above.

    The declared Cordes parameter is nu = 2 eps / (1 + eps^2).
    """
    angles = np.linspace(0.0, np.pi / 2.0, n_angles)
    weights = np.linspace(0.0, 1.0, n_angles)  # includes the 0 and 1 endpoints
    alphas = [(float(t), float(c)) for t, c in zip(angles, weights)]

    def a_of(alpha):
        t, _ = alpha
        R = np.array([[np.cos(t), np.sin(t)], [-np.sin(t), np.cos(t)]])
        return R.T @ np.diag([1.0, eps]) @ R

    return _sine_problem("rotated_anisotropic", alphas, [0, 1], a_of,
                         lambda alpha: alpha[1], 2.0 * eps / (1.0 + eps**2))


_REGISTRY = {
    "poisson_singleton": poisson_singleton,
    "two_control_switch": two_control_switch,
    "rotated_anisotropic": rotated_anisotropic,
}


def registry() -> list[ControlProblem]:
    return [build() for build in _REGISTRY.values()]


def get_problem(name: str) -> ControlProblem:
    try:
        return _REGISTRY[name]()
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown problem {name!r}; known problems: {known}")
