"""Damped correction loop for the discrete monotone problem.

Each step takes d = -K^{-1} R(u) from a kept LU of K and tests it
affine-covariantly (Deuflhard, Newton Methods for Nonlinear Problems,
Springer 2004): the step t d, t halved from 1, is taken when the simplified
correction -K^{-1} R(u + t d) is smaller than d in the norm of the Gram
matrix G of the mesh-dependent norm, and the solve stops once it is below
tol (1 + |K^{-1} R(0)|_G). Inside the roundoff band of 1e3 tol, where a
decrease is noise, only t = 1 and 1/2 are tried, and a solve that stops
short there is accepted at that floor. Newton comes first, with K the
frozen Jacobian J(c), which depends on u only through its frozen
coefficients c, gamma a at the optimal controls. The LU of the last J(c0)
factored is kept: it solves J(c) as it is while c = c0, when the simplified
correction is the next one, and by a low-rank update while c differs at few
points (`_jacobian_solver`). If Newton stops short, a fixed-point phase
goes on from its iterate with K the penalty Gram P
(`Operators.penalty_gram`), the norm Gram with its jumps weighted by sigma
and rho as the operator weights them. Under the Cordes condition the
operator is strongly monotone and Lipschitz with h-independent constants
(Smears & Sueli, SIAM J. Numer. Anal. 52 (2014)), so |K^{-1} r|_G stands in
for the dual norm |r|_{G^{-1}}, tolerances stay comparable across levels,
and the fixed point contracts at a rate that the Cordes condition sets.

Every matrix is factored one way: in the space's own dof numbering, the
nested-dissection order of `fespace.dof_order`, on its nonzero diagonal
pivots. That is safe: P is SPD and J strongly monotone, x^T J x >= c |x|^2,
so every leading block of either is nonsingular; a matrix with a singular
or near-singular leading block fails loudly. `factorize` equilibrates the
stored CSR data and hands splu the matrix's own index arrays, which read
as CSC hold A^T; it factors A^T, as safe as A since x^T A^T x = x^T A x,
and solves with its transpose. `linear_solver` solves through an
acceptance gate, and keeps at most one LU alive, as the correction loop
does.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .cordes import ControlProblem
from .fespace import DiscreteFunction, FESpace
from .forms import (
    FormParams, frozen_jacobian, get_operators, jacobian_coefficients,
    jacobian_terms, nonlinear_residual, norm_k,
)


class SolverError(RuntimeError):
    def __init__(self, message, stats=None):
        super().__init__(message)
        self.stats = stats


# step search: halve the step up to MAX_BACKTRACKS times
DAMPING = 0.5
MAX_BACKTRACKS = 10
# the most points where c may differ from the kept LU's c0 for an update
MAX_UPDATE_RANK = 32


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
    lu_updates: int = 0  # Jacobians solved by a low-rank update of the kept LU
    lu_solves: int = 0  # calls of a factorization's solve, refinements included
    # returned above tol, inside the roundoff band of at most 1e3 tol
    floor_accepted: bool = False
    # per Newton step, the step halvings before the step taken, or the number
    # of steps tried (MAX_BACKTRACKS, 2 inside the band) where none was
    backtracks: list = field(default_factory=list)
    # per Newton step, the quadrature points whose optimal controls changed
    controls_changed: list = field(default_factory=list)


def factorize(matrix: sp.csr_matrix):
    """(solve, fill) of the LU of the equilibrated canonical CSR matrix A,
    whose index arrays splu reads as the CSC arrays of A^T, in the stored
    order taking every nonzero diagonal pivot; solve(b) is A^{-1} b, for b
    of shape (n,) or (n, k), and fill nnz(L + U - I) / nnz(A)."""
    n = matrix.shape[0]
    # equilibration tames the scale spread of high-order dofs: a_ij s_i s_j
    d = np.abs(matrix.diagonal())
    d[d == 0.0] = 1.0
    scale = 1.0 / np.sqrt(d)
    vals = matrix.data * np.repeat(scale, np.diff(matrix.indptr))
    vals *= scale[matrix.indices]
    At = sp.csc_matrix((vals, matrix.indices, matrix.indptr), shape=(n, n))
    At.has_canonical_format = True  # as the canonical CSR A
    lu = spla.splu(At, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                   options=dict(SymmetricMode=True))

    def solve(b):
        s = scale if b.ndim == 1 else scale[:, None]
        return s * lu.solve(s * b, trans="T")

    return solve, (lu.nnz - n) / max(matrix.nnz, 1)


def linear_solver(matrix: sp.spmatrix, stats: SolveStats | None = None,
                  kept: list | None = None, update=None, tag: tuple = ()):
    """solve(b) = A^{-1} b with iterative refinement from the LU whose solve
    is first in `kept`, a list the caller may keep across matrices, or one
    made at the first call and kept there followed by `tag`. An `update`, a
    solve of A from the kept LU, serves in its place.

    Each of up to 8 passes makes one triangular solve (from the second on,
    of the last residual) and checks its x against the gate: |Ax - b| <=
    max(1e-11 |b|, 1e-13), or a normwise backward error |Ax - b| / (|A| |x|
    + |b|) of at most 1e-13, as the residual branch is unreachable for
    fine-mesh Jacobians whose norm dwarfs |b|. So it refines only while
    neither branch holds and returns the first x that meets one; |A| is
    taken at the first miss of the residual branch. A kept LU or an update
    that fails the gate is dropped with `kept`, freeing its LU, and A
    factored afresh, once. `stats` gets the triangular solves and, once
    they pass the gate, each factorization's fill and the updates. Raises
    SolverError if the factorization raises, and with both diagnostics of
    the last x checked if its solve fails the gate."""
    matrix = matrix.tocsr()
    if not matrix.has_canonical_format:
        matrix = matrix.copy()
        matrix.sum_duplicates()
    stats = SolveStats() if stats is None else stats
    kept = [] if kept is None else kept
    fresh = True  # A is factored afresh at most once
    fill, counted = [], False  # a new LU's fill, or an update, to record
    anorm = None  # |A|_inf, taken at the first miss of the residual branch
    failure = ""

    def solve(rhs):
        nonlocal failure, anorm, fill, counted, update, fresh
        while kept or fresh:
            if not kept:
                fresh = False
                try:
                    lu, *fill = factorize(matrix)
                except RuntimeError as err:
                    failure = f"sparse factorization failed: {err}"
                    continue
                kept[:] = [lu, *tag]
            inverse = update or kept[0]
            bnorm = np.linalg.norm(rhs)
            target = max(1e-11 * bnorm, 1e-13)
            x = None
            for _ in range(8):  # a pass: one triangular solve, then the gate
                x = inverse(rhs) if x is None else x + inverse(resid)
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
                    stats.lu_fill.extend(fill)
                    stats.lu_updates += update is not None and not counted
                    fill, counted = [], True
                    return x
            failure = (f"linear solve inaccurate (residual {rnorm:.3e}, |b| "
                       f"{bnorm:.3e}, backward error {backward:.3e}); matrix may "
                       "be singular or severely ill-conditioned")
            kept.clear()
            fill, update = [], None
        raise SolverError(failure, stats)

    return solve


def _jacobian_solver(space: FESpace, J, c: np.ndarray, kept: list, stats):
    """`linear_solver` of J = J(c) from the LU of J0 = J(c0) in `kept`, [its
    solve, c0, {point: J0^{-1} u}], while c differs from c0 at r <=
    MAX_UPDATE_RANK points: J = J0 + U V^T, J^{-1} = (I - Z C^{-1} V^T)
    J0^{-1}, Z = J0^{-1} U and C = I + V^T Z (Woodbury; Hager, SIAM Rev. 31
    (1989)). Else `kept` is emptied first; a new LU is kept with c."""
    points = np.flatnonzero((c != kept[1]).any(axis=-1)) if kept else []
    if len(points) > MAX_UPDATE_RANK:
        kept.clear()
    if len(points) == 0 or not kept:
        return linear_solver(J, stats, kept, None, (c, {}))
    U, V = jacobian_terms(space, points, (c - kept[1]).reshape(-1, 4)[points])
    new = [j for j, point in enumerate(points) if point not in kept[2]]
    kept[2].update(zip(points[new], kept[0](U[:, new].toarray()).T))
    Z, Vt = np.stack([kept[2][point] for point in points], axis=1), V.T.tocsr()
    kept[2].update(zip(points, Z.T))  # as views of Z, so each is held once
    capacitance = np.eye(len(points)) + Vt @ Z

    def woodbury(b):
        y = kept[0](b)
        return y - Z @ np.linalg.solve(capacitance, Vt @ y)

    return linear_solver(J, stats, kept, woodbury, (c, {}))


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
    # the controls at u, the frozen coefficients of its Jacobian, its kept LU
    frozen, c = ops.inf_sup(problem, uf)[1:], jacobian_coefficients(space, problem, uf)
    kept = []

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
                stats.final_residual = dn  # as a SolverError of the solve finds it
                if newton:
                    J = frozen_jacobian(space, c, params)
                    solve = _jacobian_solver(space, J, c, kept, stats)
                else:
                    kept.clear()  # the Jacobian LU goes before P's is made
                    solve = linear_solver(ops.penalty_gram(params), stats)
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
                controls = ops.inf_sup(problem, trial)[1:]
                changed = dtn < dn and np.not_equal(frozen, controls).any(axis=0)
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
            d = dt  # J(c), and so its solve, stays while c does; P always
            if newton and np.any(changed):
                frozen, ct = controls, jacobian_coefficients(space, problem, uf)
                if not np.array_equal(ct, c):
                    c, d = ct, None
            if dn <= tol or stalled:
                return accept()
        if dn <= 1e3 * tol:
            return accept()

    stats.final_residual = dn
    raise SolverError(f"no convergence after {stats.newton_iters} Newton and "
                      f"{stats.fallback_iters} fallback iterations (residual "
                      f"{dn:.3e}, tol {tol:.1e})", stats)
