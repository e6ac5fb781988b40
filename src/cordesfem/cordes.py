"""Control sets, coefficient fields and the renormalized inf-sup operator.

Coefficient callables are vectorized: a(x, alpha, beta) maps points of shape
(n, 2) to symmetric matrices of shape (n, 2, 2), f(x, alpha, beta) to shape
(n,). Controls are finite samplings of the compact control spaces; the
inf-sup over the sampled lists is exact, with ties broken by lowest index so
that frozen-control linearizations are deterministic.

The inf-sup has two parts: `tabulate` evaluates the u-independent
coefficients a, f and gamma of every control pair at fixed points, and
`inf_sup` gives F_gamma and its optimal controls from such a table for any
Hessian values. `forms.Operators` keeps the table of its quadrature points,
so a whole solve and estimate call a and f once per control pair, inside
one `at(x)` scope of the field, where the pairs may share their work. An a of
stride 0 along the points is constant there: kept and checked at one point.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

DIM = 2
NU_TOL = 1e-12


class CordesError(ValueError):
    pass


@dataclass(frozen=True)
class ControlSet:
    alphas: Sequence
    betas: Sequence

    def __post_init__(self):
        if len(self.alphas) == 0 or len(self.betas) == 0:
            raise CordesError("control sets must be nonempty")


@dataclass(frozen=True)
class CoefficientField:
    a: Callable  # (x, alpha, beta) -> (n, 2, 2) symmetric, or a read-only view
    f: Callable  # (x, alpha, beta) -> (n,)
    at: Callable = nullcontext  # x -> a scope for calls at the points x


@dataclass(frozen=True)
class ExactSolution:
    value: Callable  # (n, 2) -> (n,)
    gradient: Callable  # (n, 2) -> (n, 2)
    hessian: Callable  # (n, 2) -> (n, 2, 2)
    at: Callable = nullcontext  # x -> a scope for calls at the points x


@dataclass(frozen=True)
class ControlProblem:
    domain: np.ndarray  # convex polygon vertices, counterclockwise
    controls: ControlSet
    coeffs: CoefficientField
    nu: float
    exact: Optional[ExactSolution] = None
    name: str = ""

    def __post_init__(self):
        if not (0.0 < self.nu <= 1.0):
            raise CordesError("Cordes parameter nu must lie in (0, 1]")

    def control_pairs(self):
        for ia, alpha in enumerate(self.controls.alphas):
            for ib, beta in enumerate(self.controls.betas):
                yield ia, ib, alpha, beta


@dataclass(frozen=True)
class CordesReport:
    nu_est: float
    passed: bool
    min_eigenvalue: float


def _gamma_field(a: np.ndarray) -> np.ndarray:
    """Tr(a) / |a|^2 per matrix of a (n, 2, 2)."""
    fro2 = np.einsum("nij,nij->n", a, a)
    if not np.all(fro2 > 0.0):
        raise CordesError("gamma undefined for the zero matrix")
    return np.einsum("nii->n", a) / fro2


def verify_ellipticity_cordes(problem: ControlProblem,
                              sample_points: np.ndarray) -> CordesReport:
    """Check symmetry, positivity and the Cordes ratio over sampled points
    and all sampled control pairs.

    nu_est is the minimum of (Tr a)^2 / |a|^2 - (d - 1) over the samples;
    the check passes iff nu_est >= problem.nu - NU_TOL and all eigenvalues of
    a are positive. An a of stride 0 along the points is checked at one.
    """
    x = np.atleast_2d(np.asarray(sample_points, dtype=float))
    if len(x) == 0:
        raise CordesError("sample point set must be nonempty")
    pairs = (np.asarray(problem.coeffs.a(x, alpha, beta), dtype=float)
             for _, _, alpha, beta in problem.control_pairs())
    a = np.concatenate([pair[:1] if pair.strides[0] == 0 else pair for pair in pairs])
    if not np.allclose(a, np.transpose(a, (0, 2, 1)), atol=1e-12):
        raise CordesError("coefficient matrix a is not symmetric")
    tr = np.einsum("nii->n", a)
    fro2 = np.einsum("nij,nij->n", a, a)
    nu_est = float((tr**2 / fro2 - (DIM - 1)).min())
    min_eig = float(np.linalg.eigvalsh(a)[:, 0].min())
    passed = (nu_est >= problem.nu - NU_TOL) and (min_eig > 0.0)
    return CordesReport(nu_est, passed, min_eig)


@dataclass(frozen=True)
class CoefficientTable:
    """The u-independent coefficients of every control pair at fixed points:
    a (na, nb, n, 2, 2), f and gamma = Tr(a) / |a|^2 (na, nb, n), with a
    and gamma read-only views of their C-ordered values at m = 1 or n points."""

    a: np.ndarray
    f: np.ndarray
    gamma: np.ndarray

    def frozen(self, opt_alpha: np.ndarray, opt_beta: np.ndarray) -> np.ndarray:
        """gamma * a at one control pair per point, (n, 2, 2)."""
        n = np.arange(len(opt_alpha))
        gamma = self.gamma[opt_alpha, opt_beta, n]
        return gamma[:, None, None] * self.a[opt_alpha, opt_beta, n]


def tabulate(problem: ControlProblem, x: np.ndarray) -> CoefficientTable:
    """Every control pair's coefficients at x (n, 2), one a and f call per pair
    in one `at(x)` scope; a and gamma at one point if each a has stride 0."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    na, nb, n = len(problem.controls.alphas), len(problem.controls.betas), len(x)
    a, f = [], np.empty((na, nb, n))
    with problem.coeffs.at(x):
        for ia, ib, alpha, beta in problem.control_pairs():
            a.append(np.asarray(problem.coeffs.a(x, alpha, beta), dtype=float))
            f[ia, ib] = problem.coeffs.f(x, alpha, beta)
    m = 1 if all(pair.strides[0] == 0 for pair in a) else n
    a = np.array([pair[:m] for pair in a]).reshape(na, nb, m, DIM, DIM)  # C order
    gamma = _gamma_field(a.reshape(-1, DIM, DIM)).reshape(na, nb, m)
    return CoefficientTable(np.broadcast_to(a, (na, nb, n, DIM, DIM)), f,
                            np.broadcast_to(gamma, (na, nb, n)))


def inf_sup(
    table: CoefficientTable, M: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """F_gamma over the tabulated points for Hessian values M (n, 2, 2), or
    any shape holding n of them: (values, opt_alpha, opt_beta). The
    optimizers realize the exact inf over alpha of the sup over beta of
    gamma * (a : M - f), first index winning ties."""
    na, nb, n = table.f.shape
    M = np.asarray(M, dtype=float).reshape(n, DIM, DIM)
    values = table.gamma * (np.einsum("abnij,nij->abn", table.a, M) - table.f)
    # strict running comparisons over the small control axes: a later
    # control replaces the best so far only if strictly better
    sup, ib_opt = values[:, 0], np.zeros((na, n), dtype=np.intp)
    for ib in range(1, nb):
        better = values[:, ib] > sup
        sup = np.where(better, values[:, ib], sup)
        np.putmask(ib_opt, better, ib)
    inf, ia_opt = sup[0], np.zeros(n, dtype=np.intp)
    for ia in range(1, na):
        better = sup[ia] < inf
        inf = np.where(better, sup[ia], inf)
        np.putmask(ia_opt, better, ia)
    return inf, ia_opt, ib_opt[ia_opt, np.arange(n)]


def f_gamma_field(
    problem: ControlProblem, x: np.ndarray, M: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized F_gamma over points x (n, 2) with Hessian values M (n, 2, 2):
    `inf_sup` of a fresh tabulation, (values, opt_alpha, opt_beta)."""
    return inf_sup(tabulate(problem, x), M)


def frozen_coefficients(
    problem: ControlProblem, x: np.ndarray, M: np.ndarray
) -> np.ndarray:
    """gamma * a at the optimal controls of F_gamma, per point: (n, 2, 2)."""
    table = tabulate(problem, x)
    return table.frozen(*inf_sup(table, M)[1:])
