"""Semismooth Newton solver for the discrete monotone problem.

The stopping criterion uses the preconditioned dual norm induced by the
Gram matrix of the mesh-dependent norm, which keeps tolerances comparable
across refinement levels. If Newton stalls, a damped fixed-point iteration
preconditioned by the same Gram matrix takes over; strong monotonicity makes
it a contraction for small enough steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .cordes import ControlProblem
from .fespace import DiscreteFunction, FESpace
from .forms import FormParams, frozen_jacobian, get_operators, nonlinear_residual


class SolverError(RuntimeError):
    def __init__(self, message, stats=None):
        super().__init__(message)
        self.stats = stats


# Newton backtracking: halve the step up to MAX_BACKTRACKS times
DAMPING = 0.5
MAX_BACKTRACKS = 10


@dataclass
class SolveOptions:
    tol: float = 1e-10  # scaled to tol * (1 + |R(0)|_{M^-1}), mesh-robust
    max_newton: int = 50
    max_fallback: int = 2000
    initial_guess: np.ndarray | None = None


@dataclass
class SolveStats:
    newton_iters: int = 0
    fallback_iters: int = 0
    final_residual: float = np.inf
    residual_history: list = field(default_factory=list)
    contraction_factors: list = field(default_factory=list)


def linear_solve(matrix: sp.spmatrix, rhs: np.ndarray) -> np.ndarray:
    """Sparse direct solve: equilibrated LU with iterative refinement.

    Accepts x when |Ax - b| <= max(1e-11 |b|, 1e-13) or when the normwise
    backward error |Ax - b| / (|A| |x| + |b|) is at most 1e-13: the residual
    gate alone is unreachable for fine-mesh Jacobians whose norm dwarfs |b|,
    where a roundoff-level backward error is the honest achievable accuracy.
    Raises SolverError with both diagnostics otherwise.
    """
    matrix = matrix.tocsc()
    # symmetric diagonal equilibration tames the scale spread between
    # vertex/edge/interior dofs of high-order spaces before factorizing;
    # entry (i, j) becomes (a_ij s_i) s_j on the pattern of the CSC matrix
    d = np.abs(matrix.diagonal())
    d[d == 0.0] = 1.0
    scale = 1.0 / np.sqrt(d)
    col_scale = np.repeat(scale, np.diff(matrix.indptr))
    scaled = sp.csc_matrix(
        (matrix.data * scale[matrix.indices] * col_scale, matrix.indices,
         matrix.indptr), shape=matrix.shape)
    try:
        lu = spla.splu(scaled)
    except RuntimeError as err:
        raise SolverError(f"sparse factorization failed: {err}")
    bnorm = np.linalg.norm(rhs)
    target = max(1e-11 * bnorm, 1e-13)
    x = scale * lu.solve(scale * rhs)
    rnorm = np.inf
    for _ in range(8):
        if not np.all(np.isfinite(x)):
            x = np.full_like(rhs, np.nan)
            break
        resid = rhs - matrix @ x
        rnorm = np.linalg.norm(resid)
        if rnorm <= target:
            break
        x = x + scale * lu.solve(scale * resid)
    finite = np.all(np.isfinite(x))
    if finite and rnorm <= target:
        return x
    # the backward error, and the matrix norm it needs, only when the
    # residual gate fails
    denom = spla.norm(matrix, np.inf) * np.linalg.norm(x, np.inf) + bnorm
    backward = rnorm / denom if denom > 0 and np.isfinite(rnorm) else np.inf
    if not finite or backward > 1e-13:
        raise SolverError(
            f"linear solve inaccurate (residual {rnorm:.3e}, |b| {bnorm:.3e}, "
            f"backward error {backward:.3e}); "
            "matrix may be singular or severely ill-conditioned"
        )
    return x


def solve_discrete(
    space: FESpace,
    problem: ControlProblem,
    params: FormParams,
    opts: SolveOptions | None = None,
) -> tuple[DiscreteFunction, SolveStats]:
    """Solve A_k(u; v) = 0 over the space by Newton with frozen controls."""
    opts = opts or SolveOptions()
    ops = get_operators(space)
    Mlu = spla.splu(ops.norm_gram.tocsc())

    def res_norm(r):
        return float(np.sqrt(max(r @ Mlu.solve(r), 0.0)))

    u = np.zeros(space.dim)
    if opts.initial_guess is not None:
        u = np.array(opts.initial_guess, dtype=float)
    stats = SolveStats()

    uf = DiscreteFunction(space, u)
    r = nonlinear_residual(space, problem, uf, params)
    rn = res_norm(r)
    stats.residual_history.append(rn)

    if opts.initial_guess is None or not np.any(u):
        rn0 = rn
    else:
        zero = DiscreteFunction(space, np.zeros(space.dim))
        rn0 = res_norm(nonlinear_residual(space, problem, zero, params))
    opts = replace(opts, tol=opts.tol * (1.0 + rn0))

    # residual evaluations carry roundoff proportional to the operator
    # norms; once accepted steps stall inside this band the iteration has
    # converged to working precision
    floor_tol = 1e3 * opts.tol

    for _ in range(opts.max_newton):
        if rn <= opts.tol:
            stats.final_residual = rn
            return uf, stats
        J = frozen_jacobian(space, problem, uf, params)
        try:
            delta = linear_solve(J, -r)
        except SolverError as err:
            stats.final_residual = rn
            raise SolverError(str(err), stats)
        step = 1.0
        accepted = False
        rn_prev = rn
        for _ in range(MAX_BACKTRACKS):
            trial = DiscreteFunction(space, u + step * delta)
            rt = nonlinear_residual(space, problem, trial, params)
            rtn = res_norm(rt)
            if rtn < rn:
                u, uf, r, rn = trial.coeffs, trial, rt, rtn
                accepted = True
                break
            step *= DAMPING
        stats.newton_iters += 1
        if not accepted:
            break
        stats.residual_history.append(rn)
        if rn > 0.5 * rn_prev and rn <= floor_tol:
            stats.final_residual = rn
            return uf, stats

    if rn <= floor_tol:
        stats.final_residual = rn
        return uf, stats

    # fixed-point fallback u <- u - tau * M^{-1} R(u), tau halved from 1.0
    # until the residual falls
    tau = 1.0
    for _ in range(opts.max_fallback):
        if rn <= opts.tol:
            break
        d = Mlu.solve(r)
        while True:
            trial = DiscreteFunction(space, u - tau * d)
            rt = nonlinear_residual(space, problem, trial, params)
            rtn = res_norm(rt)
            if rtn < rn or tau < 1e-8:
                break
            tau *= 0.5
        if rtn >= rn:
            if rn <= floor_tol:
                break
            raise SolverError(
                "fixed-point fallback failed to reduce the residual; "
                "penalties sigma/rho may be too small for monotonicity",
                stats,
            )
        stats.contraction_factors.append(rtn / rn)
        u, uf, r, rn = trial.coeffs, trial, rt, rtn
        stats.fallback_iters += 1
        stats.residual_history.append(rn)

    stats.final_residual = rn
    if rn > floor_tol:
        raise SolverError(
            f"no convergence after {stats.newton_iters} Newton and "
            f"{stats.fallback_iters} fallback iterations "
            f"(residual {rn:.3e}, tol {opts.tol:.1e})",
            stats,
        )
    return uf, stats
