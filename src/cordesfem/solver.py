"""Damped correction loop for the discrete monotone problem.

Each step takes d = -K^{-1} R(u) from a kept LU of K and tests it
affine-covariantly (Deuflhard, Newton Methods for Nonlinear Problems,
Springer 2004): the step t d, t halved from 1, is taken when the simplified
correction -K^{-1} R(u + t d) is smaller than d in the norm of the Gram
matrix G of the mesh-dependent norm, and the solve stops once it is below
tol (1 + |K^{-1} R(0)|_G). Inside the roundoff band of 1e3 tol, where a
decrease is noise, only t = 1 and 1/2 are tried, and a solve that stops
short there is accepted at that floor. Newton comes first, with K the
frozen Jacobian J, which depends on u only through the controls: its LU is
kept while they stay, and the simplified correction is then the next one.
If Newton stops short, a fixed-point phase goes on from its iterate with K
the penalty Gram P (`Operators.penalty_gram`), the norm Gram with its jumps
weighted by sigma and rho as the operator weights them. Under the Cordes
condition the operator is strongly monotone and Lipschitz with
h-independent constants (Smears & Sueli, SIAM J. Numer. Anal. 52 (2014)),
so |K^{-1} r|_G stands in for the dual norm |r|_{G^{-1}}, tolerances stay
comparable across levels, and the fixed point contracts at a rate that the
Cordes condition sets.

P and the frozen Jacobians are factored in the space's own dof numbering,
nested-dissection order from ND_MIN_DOFS dofs up (`fespace.dof_order`),
taking each nonzero diagonal pivot. That is safe: P is SPD and J strongly
monotone, x^T J x >= c |x|^2, so every leading block of either is
nonsingular. `factorize` equilibrates the stored CSR data and hands splu
the matrix's own index arrays, which read as CSC hold A^T; it factors A^T,
as safe as A since x^T A^T x = x^T A x, and solves with its transpose.
Matrices of fewer than ND_MIN_DOFS rows, where the ordering costs more
than it saves, are factored in COLAMD order with partial pivoting. A
factorization that raises or a solve that fails the acceptance gate is
redone once in COLAMD order. `linear_solver` keeps one factorization and
solves through the gate, refining only while neither branch of the gate
holds: the residual relative to |b| or the normwise backward error.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .cordes import ControlProblem
from .fespace import ND_MIN_DOFS, DiscreteFunction, FESpace
from .forms import (
    FormParams, frozen_jacobian, get_operators, nonlinear_residual, norm_k,
)


class SolverError(RuntimeError):
    def __init__(self, message, stats=None):
        super().__init__(message)
        self.stats = stats


# step search: halve the step up to MAX_BACKTRACKS times
DAMPING = 0.5
MAX_BACKTRACKS = 10


@dataclass
class SolveOptions:
    tol: float = 1e-10  # scaled to tol * (1 + |K^-1 R(0)|_G), mesh-robust
    max_newton: int = 50
    max_fallback: int = 2000
    initial_guess: np.ndarray | None = None


@dataclass
class SolveStats:
    newton_iters: int = 0
    fallback_iters: int = 0
    # correction norms |K^{-1} R(u)|_G, K the frozen Jacobian J or, in the
    # fallback, the penalty Gram: of the first iterate, then of each
    # accepted one, and of the one returned
    final_residual: float = np.inf
    residual_history: list = field(default_factory=list)
    lu_fill: list = field(default_factory=list)  # per factorization, nnz(L+U)/nnz(A)
    colamd_retries: int = 0  # factorizations redone in COLAMD order
    lu_solves: int = 0  # calls of a factorization's solve, refinements included
    # returned above tol, inside the roundoff band of at most 1e3 tol
    floor_accepted: bool = False
    # per Newton step, the step halvings before the step taken, or the number
    # of steps tried (MAX_BACKTRACKS, 2 inside the band) where none was
    backtracks: list = field(default_factory=list)
    # per Newton step, the quadrature points whose optimal controls changed
    controls_changed: list = field(default_factory=list)


def factorize(matrix: sp.csr_matrix, natural: bool):
    """(solve, fill) of the LU of the equilibrated canonical CSR matrix A,
    whose index arrays splu reads as the CSC arrays of A^T: in the stored
    order taking every nonzero diagonal pivot (`natural`), or in COLAMD
    order with partial pivoting; solve(b) is A^{-1} b and fill
    nnz(L + U - I) / nnz(A)."""
    n = matrix.shape[0]
    # equilibration tames the scale spread of high-order dofs: a_ij s_i s_j
    d = np.abs(matrix.diagonal())
    d[d == 0.0] = 1.0
    scale = 1.0 / np.sqrt(d)
    vals = matrix.data * np.repeat(scale, np.diff(matrix.indptr))
    vals *= scale[matrix.indices]
    nd = dict(permc_spec="NATURAL", diag_pivot_thresh=0.0,
              options=dict(SymmetricMode=True)) if natural else {}
    At = sp.csc_matrix((vals, matrix.indices, matrix.indptr), shape=(n, n))
    lu = spla.splu(At, **nd)

    def solve(b):
        return scale * lu.solve(scale * b, trans="T")

    return solve, (lu.nnz - n) / max(matrix.nnz, 1)


def linear_solver(matrix: sp.spmatrix, stats: SolveStats | None = None):
    """solve(b) = A^{-1} b from one kept factorization of the matrix, made
    at the first call, with iterative refinement: in the stored order on
    the diagonal pivots from ND_MIN_DOFS rows up, in COLAMD order below.

    Each of up to 8 passes makes one triangular solve (from the second on,
    of the last residual) and checks its x against the gate: |Ax - b| <=
    max(1e-11 |b|, 1e-13), or a normwise backward error |Ax - b| / (|A| |x|
    + |b|) of at most 1e-13, as the residual branch is unreachable for
    fine-mesh Jacobians whose norm dwarfs |b|. So it refines only while
    neither branch holds and returns the first x that meets one; |A| is
    taken at the first miss of the residual branch. A stored-order
    factorization that raises or fails the gate is redone in COLAMD order
    and kept; `stats` gets the retries, the triangular solves and the fill
    of each factorization once it passes the gate. Raises SolverError with
    both diagnostics of the last x checked otherwise."""
    matrix = matrix.tocsr()
    if not matrix.has_canonical_format:
        matrix = matrix.copy()
        matrix.sum_duplicates()
    stats = SolveStats() if stats is None else stats
    ordered = matrix.shape[0] >= ND_MIN_DOFS  # stored in factor order
    attempts = [True, False] if ordered else [False]
    lu = []  # the kept [solve, fill], the fill dropped once recorded
    anorm = None  # |A|_inf, taken at the first miss of the residual branch
    failure = ""

    def solve(rhs):
        nonlocal failure, anorm
        while lu or attempts:
            if not lu:
                natural = attempts.pop(0)
                if ordered and not natural:
                    stats.colamd_retries += 1
                try:
                    lu[:] = factorize(matrix, natural)
                except RuntimeError as err:
                    failure = f"sparse factorization failed: {err}"
                    continue
            bnorm = np.linalg.norm(rhs)
            target = max(1e-11 * bnorm, 1e-13)
            x = None
            for _ in range(8):  # a pass: one triangular solve, then the gate
                x = lu[0](rhs) if x is None else x + lu[0](resid)
                stats.lu_solves += 1
                if not np.all(np.isfinite(x)):
                    rnorm = backward = np.inf
                    break
                resid = rhs - matrix @ x
                rnorm = np.linalg.norm(resid)
                backward = 0.0
                if not rnorm <= target:  # a nan residual misses too
                    if anorm is None:
                        anorm = spla.norm(matrix, np.inf)
                    denom = anorm * np.linalg.norm(x, np.inf) + bnorm
                    backward = rnorm / denom if denom > 0 else np.inf
                if backward <= 1e-13:
                    stats.lu_fill.extend(lu[1:])
                    del lu[1:]
                    return x
            failure = (f"linear solve inaccurate (residual {rnorm:.3e}, |b| "
                       f"{bnorm:.3e}, backward error {backward:.3e}); matrix may "
                       "be singular or severely ill-conditioned")
            lu.clear()
        raise SolverError(failure, stats)

    return solve


def solve_discrete(
    space: FESpace,
    problem: ControlProblem,
    params: FormParams,
    opts: SolveOptions | None = None,
) -> tuple[DiscreteFunction, SolveStats]:
    """Solve A_k(u; v) = 0 over the space by Newton with frozen controls, and
    on from where it stops short by the fixed point preconditioned by P."""
    opts = opts or SolveOptions()
    ops = get_operators(space)
    guess = opts.initial_guess
    u = np.zeros(space.dim) if guess is None else np.array(guess, dtype=float)
    stats = SolveStats()

    zero = DiscreteFunction(space, np.zeros(space.dim))
    r0 = nonlinear_residual(space, problem, zero, params) if np.any(u) else None
    # the residual of each iterate comes last, so that its Jacobian reuses
    # the optimal controls the residual found
    uf = DiscreteFunction(space, u)
    r = nonlinear_residual(space, problem, uf, params)
    tol, dn = np.nan, np.inf  # tol is set by the first correction

    def correction(solve, b):  # -K^{-1} b and its G norm, for solve = K^{-1}
        nonlocal tol  # opts.tol (1 + |K^{-1} R(0)|_G)
        d = -solve(b)
        dn = norm_k(space, d)
        if np.isnan(tol):
            tol = opts.tol * (1.0 + (dn if r0 is None else norm_k(space, solve(r0))))
            stats.residual_history.append(dn)
        return d, dn

    def accept():
        stats.final_residual = dn
        stats.floor_accepted = dn > tol
        return uf, stats

    for newton, budget in ((True, opts.max_newton), (False, opts.max_fallback)):
        d = None  # the correction at u, from the kept solve of K
        for _ in range(budget):
            if d is None:
                if newton:
                    frozen = ops.inf_sup(problem, uf)[1:]  # kept by the last residual
                    K = frozen_jacobian(space, problem, uf, params)
                else:
                    K = ops.penalty_gram(params)
                stats.final_residual = dn  # as a SolverError of the solve finds it
                solve = linear_solver(K, stats)
                d, dn = correction(solve, r)
            if dn <= tol:
                return accept()
            # inside the roundoff band try t = 1 and 1/2 only
            limit = 2 if dn <= 1e3 * tol else MAX_BACKTRACKS
            step = 1.0
            for halvings in range(limit):
                trial = DiscreteFunction(space, u + step * d)
                rt = nonlinear_residual(space, problem, trial, params)
                dt, dtn = correction(solve, rt)
                if dtn < dn:
                    break
                step *= DAMPING
            if newton:
                stats.newton_iters += 1
                stats.backtracks.append(halvings if dtn < dn else limit)
                changed = dtn < dn and np.not_equal(
                    frozen, ops.inf_sup(problem, trial)[1:]).any(axis=0)
                stats.controls_changed.append(int(np.count_nonzero(changed)))
            if dtn >= dn:
                break
            stats.fallback_iters += not newton
            stats.residual_history.append(dtn)
            # residual evaluations carry roundoff proportional to the operator
            # norms: Newton steps that stall inside the band of 1e3 tol have
            # converged to working precision (a fixed point is too slow to tell)
            stalled = newton and dtn > 0.5 * dn and dtn <= 1e3 * tol
            u, uf, r, dn = trial.coeffs, trial, rt, dtn
            # J, and so its solve, stays while the controls do; P always
            d = None if newton and np.any(changed) else dt
            if dn <= tol or stalled:
                return accept()
        if dn <= 1e3 * tol:
            return accept()

    stats.final_residual = dn
    raise SolverError(f"no convergence after {stats.newton_iters} Newton and "
                      f"{stats.fallback_iters} fallback iterations (residual "
                      f"{dn:.3e}, tol {tol:.1e})", stats)
