"""Semismooth Newton solver for the discrete monotone problem.

Newton steps are tested affine-covariantly (Deuflhard, Newton Methods for
Nonlinear Problems, Springer 2004): a step t d, d = -J^{-1} R(u), is taken
when the simplified correction -J^{-1} R(u + t d) is smaller than d in the
norm of the Gram matrix G of the mesh-dependent norm, and the solve stops
once it is below tol (1 + |J^{-1} R(0)|_G). J is strongly monotone and
bounded with h-independent constants (see below), so |J^{-1} r|_G stands in
for the dual norm |r|_{G^{-1}} and tolerances stay comparable across levels.
J depends on u only through the controls: its LU is kept while they stay,
and the simplified correction is then the next one. Only a stalled Newton
factors G, for a damped fixed-point iteration preconditioned by G, which
strong monotonicity makes a contraction for small enough steps.

The Gram matrix and the frozen Jacobians of a space are factored in one
nested-dissection dof order (`dof_order`; George, SIAM J. Numer. Anal. 10
(1973)), taking each nonzero diagonal pivot. That is safe: Gram is SPD and
the frozen Jacobian J is strongly monotone under the Cordes condition,
x^T J x >= c |x|^2 (Smears & Sueli, SIAM J. Numer. Anal. 52 (2014)), so
every leading block of any symmetric permutation of either is nonsingular.
A factorization that raises or a solve that fails the acceptance gate is
redone once in COLAMD order with partial pivoting. Spaces of fewer than
ND_MIN_DOFS dofs, where the ordering costs more than it saves, use COLAMD.

Every factorization takes one path: a `FactorPlan` holds the symbolic work
of a CSR pattern and a dof order (the CSC arrays of the symmetrically
permuted matrix, the pattern slot of each CSC entry and the diagonal
slots), so `factorize` is a gather, the equilibration and `splu`. Each
space caches the plan of its face pattern (`factor_plan`), on which the
Gram matrix and every frozen Jacobian live, so a Newton step converts no
matrix. `linear_solver` keeps one factorization and solves through the
acceptance gate; `linear_solve` is its one-rhs call, with a one-off plan
for any other matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
# nested dissection: below ND_MIN_DOFS dofs the ordering costs more than
# its smaller fill saves (measured: DG and C0 p=3 break even at 300-500
# dofs), and parts of at most ND_LEAF elements are not bisected further
ND_MIN_DOFS = 500
ND_LEAF = 8


@dataclass
class SolveOptions:
    tol: float = 1e-10  # scaled to tol * (1 + |J^-1 R(0)|_G), mesh-robust
    max_newton: int = 50
    max_fallback: int = 2000
    initial_guess: np.ndarray | None = None


@dataclass
class SolveStats:
    newton_iters: int = 0
    fallback_iters: int = 0
    # correction norms |J^{-1} R(u)|_G (|G^{-1} R(u)|_G in the fallback): of
    # the first iterate, then of each accepted one, and of the one returned
    final_residual: float = np.inf
    residual_history: list = field(default_factory=list)
    contraction_factors: list = field(default_factory=list)
    lu_fill: list = field(default_factory=list)  # per factorization, nnz(L+U)/nnz(A)
    colamd_retries: int = 0  # factorizations redone in COLAMD order
    # returned above tol, inside the roundoff band of at most 1e3 tol
    floor_accepted: bool = False
    backtracks: list = field(default_factory=list)  # step halvings, per Newton step
    # per Newton step, the quadrature points whose optimal controls changed
    controls_changed: list = field(default_factory=list)


def dissection_keys(space: FESpace) -> tuple[np.ndarray, int]:
    """Nested-dissection keys of the elements, and the tree depth. Each
    level splits every part at once, at the median of its centroids along
    its longer side; elements of the first half with a face on the second
    separate them. A key has one base-3 digit per level: 0 or 1 for the
    half, 2 from the level where the element became a separator or its part
    a leaf of at most ND_LEAF elements, so halves sort before separators."""
    mesh = space.mesh
    ne = mesh.n_elements
    eu, ev = mesh.face_elems[mesh.face_elems[:, 1] >= 0].T
    centroids = mesh.vertices[mesh.tri].mean(axis=1)
    depth = 1 + max(0, int(np.ceil(np.log2(ne / ND_LEAF))))
    keys = np.zeros(ne, dtype=np.int64)
    part = np.zeros(ne, dtype=np.int64)  # heap index of each element's part
    live = np.arange(ne)  # elements still to be split
    for level in range(depth):
        live = live[np.argsort(part[live], kind="stable")]
        c = centroids[live]
        starts = np.flatnonzero(np.diff(part[live], prepend=-1))
        counts = np.diff(starts, append=len(live))
        grp = np.repeat(np.arange(len(starts)), counts)
        extent = np.maximum.reduceat(c, starts) - np.minimum.reduceat(c, starts)
        live = live[np.lexsort((c[np.arange(len(c)), extent.argmax(1)[grp]], grp))]
        side = np.full(ne, -1)
        side[live] = np.arange(len(live)) - starts[grp] >= counts[grp] // 2
        done = np.zeros(ne, dtype=bool)
        done[live] = (counts <= ND_LEAF)[grp] | (level == depth - 1)
        side[done] = -1
        # no face joins live elements of two parts: the split cut it
        cut = side[eu] + side[ev] == 1
        done[np.where(side[eu[cut]] == 0, eu[cut], ev[cut])] = True
        w = 3 ** (depth - 1 - level)
        keys[done] += 3 * w - 1  # digit 2 here and at every level below
        live = live[~done[live]]
        if len(live) == 0:
            break
        keys[live] += side[live] * w
        part[live] = 2 * part[live] + 1 + side[live]
        inner = ~done[eu] & ~done[ev]
        eu, ev = eu[inner], ev[inner]
    return keys, depth


def dof_order(space: FESpace) -> np.ndarray:
    """Dof order (new position -> dof) by the last element holding a dof.
    Gram and Jacobian entries couple dofs of one element or of face
    neighbours, and a dof held in both halves of a part sits on an interior
    vertex or edge, whose ring of elements crosses the cut at a face of a
    separator element; so the halves never couple."""
    keys, _ = dissection_keys(space)
    rank = np.argsort(np.argsort(keys, kind="stable"))
    valid = space.dofmap >= 0
    dof_rank = np.zeros(space.dim, dtype=np.int64)
    np.maximum.at(dof_rank, space.dofmap[valid], rank[np.nonzero(valid)[0]])
    return np.argsort(dof_rank, kind="stable")


@dataclass(frozen=True)
class FactorPlan:
    """The symbolic part of `factorize` for one canonical CSR pattern and
    dof order: int32 CSC arrays of the symmetrically permuted pattern, the
    pattern slot of each CSC entry, and the slot of each diagonal entry (-1
    where none is stored). `order` (new position -> dof) None means COLAMD
    with partial pivoting on the unpermuted matrix."""

    pattern: tuple  # (indptr, indices) of the CSR pattern, not copied
    order: np.ndarray | None
    indptr: np.ndarray
    indices: np.ndarray
    slots: np.ndarray
    diag: np.ndarray

    def fits(self, matrix: sp.csr_matrix) -> bool:
        """Whether a CSR matrix stores exactly the plan's pattern."""
        indptr, indices = self.pattern
        return (matrix.shape == (len(indptr) - 1,) * 2
                and np.array_equal(matrix.indptr, indptr)
                and np.array_equal(matrix.indices, indices))


def build_plan(indptr: np.ndarray, indices: np.ndarray,
               order: np.ndarray | None = None) -> FactorPlan:
    """The FactorPlan of a canonical CSR pattern (sorted, no duplicates) in
    `order`, or in COLAMD order for None."""
    n = len(indptr) - 1
    perm = np.arange(n) if order is None else order
    inv = np.empty(n, dtype=np.int32)
    inv[perm] = np.arange(n)
    # the slots in the rows of the permuted matrix, whose CSC conversion
    # (a counting sort) carries each slot to its CSC position
    counts = np.diff(indptr)[perm]
    ptr = np.concatenate(([0], np.cumsum(counts)))
    take = np.arange(ptr[-1]) + np.repeat(indptr[perm] - ptr[:-1], counts)
    csc = sp.csr_matrix((take.astype(np.int32), inv[indices[take]], ptr),
                        shape=(n, n)).tocsc()
    rows = np.repeat(np.arange(n), np.diff(indptr))
    on = np.flatnonzero(indices == rows)
    diag = np.full(n, -1, dtype=np.int32)
    diag[rows[on]] = on
    return FactorPlan((indptr, indices), order,
                      csc.indptr.astype(np.int32, copy=False),
                      csc.indices.astype(np.int32, copy=False), csc.data, diag)


def factor_plan(space: FESpace) -> FactorPlan:
    """The FactorPlan of the space's face pattern, cached on the space: in
    `dof_order` from ND_MIN_DOFS dofs up, in COLAMD order below."""
    if space._plan is None:
        P = get_operators(space).pattern
        order = dof_order(space) if space.dim >= ND_MIN_DOFS else None
        space._plan = build_plan(P.indptr, P.indices, order)
    return space._plan


def factorize(matrix: sp.csr_matrix, plan: FactorPlan):
    """(solve, fill) of the LU of the equilibrated matrix, whose CSR pattern
    is the plan's: symmetrically permuted to `plan.order` and taking every
    nonzero diagonal pivot, or in COLAMD order with partial pivoting;
    solve(b) is A^{-1} b and fill nnz(L + U - I) / nnz(A)."""
    data = matrix.data
    n = len(plan.diag)
    # equilibration tames the scale spread of high-order dofs: a_ij s_i s_j
    d = np.abs(np.where(plan.diag >= 0, data[plan.diag], 0.0))
    d[d == 0.0] = 1.0
    scale = 1.0 / np.sqrt(d)
    perm = np.arange(n) if plan.order is None else plan.order
    s = scale[perm]
    vals = data[plan.slots]
    vals *= s[plan.indices]
    vals *= np.repeat(s, np.diff(plan.indptr))
    nd = {} if plan.order is None else dict(
        permc_spec="NATURAL", diag_pivot_thresh=0.0, options=dict(SymmetricMode=True))
    lu = spla.splu(sp.csc_matrix((vals, plan.indices, plan.indptr), shape=(n, n)), **nd)

    def solve(b):
        x = np.empty_like(b)
        x[perm] = scale[perm] * lu.solve((scale * b)[perm])
        return x

    return solve, (lu.nnz - n) / max(len(data), 1)


def linear_solver(matrix: sp.spmatrix, order=None, stats: SolveStats | None = None):
    """solve(b) = A^{-1} b from one kept factorization of the matrix, made
    at the first call, with iterative refinement, in `order`: the
    FactorPlan of the matrix's pattern, a dof order (new position -> dof)
    for a one-off plan, or None for COLAMD.

    Accepts x when |Ax - b| <= max(1e-11 |b|, 1e-13) or when the normwise
    backward error |Ax - b| / (|A| |x| + |b|) is at most 1e-13: the residual
    gate alone is unreachable for fine-mesh Jacobians whose norm dwarfs |b|,
    where a roundoff-level backward error is the honest achievable accuracy.
    An ordered factorization that raises or fails the gate is redone in
    COLAMD order and kept; `stats` gets the retries and the fill of each
    factorization once it passes the gate. Raises SolverError with both
    diagnostics otherwise."""
    matrix = matrix.tocsr()
    if not matrix.has_canonical_format:
        matrix = matrix.copy()
        matrix.sum_duplicates()
    if isinstance(order, FactorPlan):
        if not order.fits(matrix):
            raise ValueError("the matrix does not store the plan's pattern")
        plan = order
    else:
        plan = build_plan(matrix.indptr, matrix.indices, order)
    stats = SolveStats() if stats is None else stats
    attempts = [plan] if plan.order is None else [plan, None]
    lu = []  # the kept [solve, fill], the fill dropped once recorded
    failure = ""

    def solve(rhs):
        nonlocal failure
        while lu or attempts:
            if not lu:
                attempt = attempts.pop(0)
                if attempt is None:
                    stats.colamd_retries += 1
                    attempt = build_plan(matrix.indptr, matrix.indices)
                try:
                    lu[:] = factorize(matrix, attempt)
                except RuntimeError as err:
                    failure = f"sparse factorization failed: {err}"
                    continue
            bnorm = np.linalg.norm(rhs)
            target = max(1e-11 * bnorm, 1e-13)
            x = lu[0](rhs)
            rnorm = np.inf
            for _ in range(8):
                if not np.all(np.isfinite(x)):
                    x = np.full_like(rhs, np.nan)
                    break
                resid = rhs - matrix @ x
                rnorm = np.linalg.norm(resid)
                if rnorm <= target:
                    break
                x = x + lu[0](resid)
            finite = np.all(np.isfinite(x))
            backward = 0.0
            if not finite or rnorm > target:
                # the backward error, and the matrix norm it needs, only when
                # the residual gate fails
                denom = spla.norm(matrix, np.inf) * np.linalg.norm(x, np.inf) + bnorm
                backward = rnorm / denom if denom > 0 and np.isfinite(rnorm) else np.inf
            if finite and backward <= 1e-13:
                stats.lu_fill.extend(lu[1:])
                del lu[1:]
                return x
            failure = (f"linear solve inaccurate (residual {rnorm:.3e}, |b| "
                       f"{bnorm:.3e}, backward error {backward:.3e}); matrix may "
                       "be singular or severely ill-conditioned")
            lu.clear()
        raise SolverError(failure, stats)

    return solve


def linear_solve(matrix: sp.spmatrix, rhs: np.ndarray, order=None,
                 stats: SolveStats | None = None) -> np.ndarray:
    """A^{-1} rhs by `linear_solver(matrix, order, stats)`."""
    return linear_solver(matrix, order, stats)(rhs)


def solve_discrete(
    space: FESpace,
    problem: ControlProblem,
    params: FormParams,
    opts: SolveOptions | None = None,
) -> tuple[DiscreteFunction, SolveStats]:
    """Solve A_k(u; v) = 0 over the space by Newton with frozen controls."""
    opts = opts or SolveOptions()
    plan, ops = factor_plan(space), get_operators(space)
    u = np.zeros(space.dim)
    if opts.initial_guess is not None:
        u = np.array(opts.initial_guess, dtype=float)
    stats = SolveStats()

    r0 = None
    if np.any(u):
        zero = DiscreteFunction(space, np.zeros(space.dim))
        r0 = nonlinear_residual(space, problem, zero, params)
    # the residual of each iterate comes last, so that its Jacobian reuses
    # the optimal controls the residual found
    uf = DiscreteFunction(space, u)
    r = nonlinear_residual(space, problem, uf, params)
    tol, dn = None, np.inf

    def g_norm(d):
        return float(np.sqrt(max(d @ (ops.norm_gram @ d), 0.0)))

    def correction(solve, b):  # -K^{-1} b and its G norm, for solve = K^{-1}
        nonlocal tol  # set by the first call to opts.tol (1 + |K^{-1} R(0)|_G)
        d = -solve(b)
        dn = g_norm(d)
        if tol is None:
            tol = opts.tol * (1.0 + (dn if r0 is None else g_norm(solve(r0))))
            stats.residual_history.append(dn)
        return d, dn

    def accept():
        stats.final_residual = dn
        stats.floor_accepted = dn > tol
        return uf, stats

    d = None  # the correction at u, from the kept solve of J
    for _ in range(opts.max_newton):
        if d is None:
            frozen = ops.inf_sup(problem, uf)[1:]  # kept by the last residual
            J = frozen_jacobian(space, problem, uf, params)
            stats.final_residual = dn  # as a SolverError of the solve finds it
            solve = linear_solver(J, plan, stats)
            d, dn = correction(solve, r)
        if dn <= tol:
            return accept()
        step = 1.0
        for halvings in range(MAX_BACKTRACKS):
            trial = DiscreteFunction(space, u + step * d)
            rt = nonlinear_residual(space, problem, trial, params)
            dt, dtn = correction(solve, rt)
            if dtn < dn:
                break
            step *= DAMPING
        stats.newton_iters += 1
        if dtn >= dn:
            stats.backtracks.append(MAX_BACKTRACKS)
            stats.controls_changed.append(0)
            break
        stats.backtracks.append(halvings)
        changed = np.not_equal(frozen, ops.inf_sup(problem, trial)[1:]).any(axis=0)
        stats.controls_changed.append(int(np.count_nonzero(changed)))
        stats.residual_history.append(dtn)
        # residual evaluations carry roundoff proportional to the operator
        # norms; once accepted steps stall inside the band of 1e3 tol the
        # iteration has converged to working precision
        stalled = dtn > 0.5 * dn and dtn <= 1e3 * tol
        u, uf, r, dn = trial.coeffs, trial, rt, dtn
        d = None if changed.any() else dt  # J, and so its solve, stays
        if dn <= tol or stalled:
            return accept()

    if tol is not None and dn <= 1e3 * tol:
        return accept()

    # fixed-point fallback u <- u + tau d with d = -G^{-1} R(u), tau halved
    # from 1.0 until |d|_G falls; G is factored here only
    gram_solve = linear_solver(ops.norm_gram, plan, stats)
    d, dn = correction(gram_solve, r)
    tau = 1.0
    for _ in range(opts.max_fallback):
        if dn <= tol:
            break
        while True:
            trial = DiscreteFunction(space, u + tau * d)
            rt = nonlinear_residual(space, problem, trial, params)
            dt, dtn = correction(gram_solve, rt)
            if dtn < dn or tau < 1e-8:
                break
            tau *= 0.5
        if dtn >= dn:
            if dn <= 1e3 * tol:
                break
            raise SolverError(
                "fixed-point fallback failed to reduce the residual; "
                "penalties sigma/rho may be too small for monotonicity",
                stats,
            )
        stats.contraction_factors.append(dtn / dn)
        u, uf, d, dn = trial.coeffs, trial, dt, dtn
        stats.fallback_iters += 1
        stats.residual_history.append(dn)

    stats.final_residual = dn
    if dn > 1e3 * tol:
        raise SolverError(
            f"no convergence after {stats.newton_iters} Newton and "
            f"{stats.fallback_iters} fallback iterations "
            f"(residual {dn:.3e}, tol {tol:.1e})",
            stats,
        )
    return accept()
