"""A posteriori error estimators, marking and the adaptive loop."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field, replace

import numpy as np

from . import cordes
from .fespace import DiscreteFunction, FESpace, SpaceConfig, build_space, gather
from .forms import FormParams, get_operators, norm_k
from .mesh import MeshLevel, refine_conforming
from .solver import SolveOptions, SolveStats, solve_discrete


class AdaptError(ValueError):
    pass


@dataclass(frozen=True)
class EstimatorReport:
    eta_sq_residual: np.ndarray  # per element
    eta_sq_gradjump: np.ndarray
    eta_sq_valjump: np.ndarray

    @property
    def per_element(self) -> np.ndarray:
        return self.eta_sq_residual + self.eta_sq_gradjump + self.eta_sq_valjump

    @property
    def total(self) -> float:
        return float(np.sqrt(self.per_element.sum()))

    def parts(self) -> tuple[float, float, float]:
        return (
            float(np.sqrt(self.eta_sq_residual.sum())),
            float(np.sqrt(self.eta_sq_gradjump.sum())),
            float(np.sqrt(self.eta_sq_valjump.sum())),
        )


def estimate(
    space: FESpace,
    problem: cordes.ControlProblem,
    u: DiscreteFunction,
    params: FormParams,
) -> EstimatorReport:
    """Element-wise estimator: squared residual |F_gamma[u]|^2 over the
    element plus face jump terms weighted so each interior face is counted
    once in the total (1/2 per adjacent element, 1 on the boundary)."""
    ops = get_operators(space)
    ne = space.mesh.n_elements

    uH = ops.hessian_at_qp(u)
    g, _, _ = cordes.f_gamma_field(
        problem, ops.X.reshape(-1, 2), uH.reshape(-1, 2, 2)
    )
    g2 = (g**2).reshape(ne, -1)
    res = space.detJ * np.einsum("q,eq->e", ops.wq, g2)

    ft = ops.faces
    x = gather(u.coeffs, ft.dofs)
    jv = np.einsum("fqa,fa->fq", ft.jval, x)
    jg = np.einsum("fqai,fa->fqi", ft.jgrad, x)
    val_term = np.einsum("fq,fq->f", ft.wq, jv**2) / ft.length**3
    grad_term = ft.interior * np.einsum("fq,fqi,fqi->f", ft.wq, jg, jg) / ft.length
    sides = ft.elems >= 0

    def per_element(term):
        share = ft.avg * term[:, None]
        return np.bincount(ft.elems[sides], share[sides], minlength=ne)

    return EstimatorReport(res, per_element(grad_term), per_element(val_term))


def mark(report: EstimatorReport, strategy: str = "doerfler", param: float = 0.5):
    """Marked element set; always contains an element attaining the maximum
    estimator (ties broken by element id)."""
    eta_sq = report.per_element
    if len(eta_sq) == 0:
        raise AdaptError("cannot mark on an empty estimator report")
    argmax = int(np.argmax(eta_sq))  # first occurrence of the max
    if strategy == "max":
        thresh = param * np.sqrt(eta_sq[argmax])
        marked = set(np.flatnonzero(np.sqrt(eta_sq) >= thresh).tolist())
    elif strategy == "doerfler":
        order = np.lexsort((np.arange(len(eta_sq)), -eta_sq))
        cum = np.cumsum(eta_sq[order])
        count = int(np.searchsorted(cum, param * eta_sq.sum())) + 1
        marked = set(order[: min(count, len(order))].tolist())
    else:
        raise AdaptError(f"unknown marking strategy {strategy!r}")
    marked.add(argmax)
    return marked


@dataclass
class AdaptiveStep:
    k: int
    ndofs: int
    h_min: float
    h_max: float
    eta_total: float
    eta_residual: float
    eta_gradjump: float
    eta_valjump: float
    err_norm_k: float  # nan when no exact solution
    newton_iters: int
    fallback_iters: int
    marked: int


@dataclass
class AdaptiveTrace:
    steps: list = field(default_factory=list)

    COLUMNS = (
        "iter ndofs h_min h_max eta_total eta_residual eta_gradjump "
        "eta_valjump err_norm_k newton_iters marked"
    ).split()

    def rows(self):
        for s in self.steps:
            yield [
                s.k,
                s.ndofs,
                repr(s.h_min),
                repr(s.h_max),
                repr(s.eta_total),
                repr(s.eta_residual),
                repr(s.eta_gradjump),
                repr(s.eta_valjump),
                repr(s.err_norm_k),
                s.newton_iters,
                s.marked,
            ]

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.COLUMNS)
            writer.writerows(self.rows())

    def write_json(self, path) -> None:
        payload = [s.__dict__ for s in self.steps]
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2)


def error_norm_k(space: FESpace, u: DiscreteFunction, exact: cordes.ExactSolution,
                 extra_exactness: int = 2) -> float:
    """Mesh-dependent norm of (u_exact - u_k), with a quadrature rule two
    degrees beyond the default so quadrature error stays subordinate.

    The exact solution is smooth with zero boundary trace, so its own jump
    contributions vanish and the jump part reduces to that of u_k.
    """
    from .quadrature import triangle_rule

    rule = triangle_rule(space.config.quad_exactness + extra_exactness)
    ops = get_operators(space)
    vol = 0.0
    loc = space.local_coeffs(u.coeffs)
    for e in range(space.mesh.n_elements):
        x = space.to_physical(e, rule.points)
        dv = exact.value(x) - space.eval_shape(e, rule.points, 0) @ loc[e]
        dg = exact.gradient(x) - np.einsum(
            "qli,l->qi", space.eval_shape(e, rule.points, 1), loc[e]
        )
        dh = exact.hessian(x) - np.einsum(
            "qlij,l->qij", space.eval_shape(e, rule.points, 2), loc[e]
        )
        vol += space.detJ[e] * float(
            rule.weights
            @ (dv**2 + np.einsum("qi,qi->q", dg, dg) + np.einsum("qij,qij->q", dh, dh))
        )
    jump_sq = float(u.coeffs @ (ops.jump_gram @ u.coeffs))
    return float(np.sqrt(vol + max(jump_sq, 0.0)))


def transfer_solution(
    u: DiscreteFunction, new_space: FESpace
) -> np.ndarray:
    """Initial-guess transfer to a refined mesh by element-wise polynomial
    injection (exact for nested meshes)."""
    old_space = u.space
    new_mesh = new_space.mesh
    coeffs = np.zeros(new_space.dim)
    if new_space.config.s == 0:
        # modal projection of the parent polynomial onto each child element
        rule = new_space.elem_rule
        B = new_space.basis.eval(rule.points, 0)
        for e in range(new_mesh.n_elements):
            parent = int(new_mesh.ancestor[e])
            x = new_space.to_physical(e, rule.points)
            ref_old = old_space.to_reference(parent, x)
            vals = u.eval_element(parent, ref_old, 0)
            modal = np.einsum("q,q,qa->a", rule.weights, vals, B)
            coeffs[new_space.dofmap[e]] = modal
    else:
        from .basis import lagrange_ref_points

        nodes = lagrange_ref_points(new_space.config.p)
        for e in range(new_mesh.n_elements):
            parent = int(new_mesh.ancestor[e])
            x = new_space.to_physical(e, nodes)
            ref_old = old_space.to_reference(parent, x)
            vals = u.eval_element(parent, ref_old, 0)
            idx = new_space.dofmap[e]
            valid = idx >= 0
            coeffs[idx[valid]] = vals[valid]
    return coeffs


@dataclass
class AdaptiveConfig:
    space: SpaceConfig
    params: FormParams
    strategy: str = "doerfler"
    strategy_param: float = 0.5
    max_dofs: int | None = None
    eta_tol: float | None = None
    max_iters: int = 30
    solve_opts: SolveOptions = field(default_factory=SolveOptions)
    transfer_guess: bool = True
    uniform: bool = False


def adaptive_solve(
    problem: cordes.ControlProblem,
    initial_mesh: MeshLevel,
    config: AdaptiveConfig,
    callback=None,
) -> AdaptiveTrace:
    """Solve-estimate-mark-refine loop from the given initial mesh.

    Stops at the first satisfied criterion among max_dofs, eta_tol and
    max_iters; `callback(step, mesh, space, u, report)` runs per iteration.
    """
    trace = AdaptiveTrace()
    mesh = initial_mesh
    prev_u = None
    for it in range(config.max_iters):
        space = build_space(mesh, config.space)
        opts = config.solve_opts
        if config.transfer_guess and prev_u is not None:
            opts = replace(opts, initial_guess=transfer_solution(prev_u, space))
        u, stats = solve_discrete(space, problem, config.params, opts)
        report = estimate(space, problem, u, config.params)
        if config.uniform:
            marked = set(range(mesh.n_elements))
        else:
            marked = mark(report, config.strategy, config.strategy_param)
        sizes = mesh.sizes()
        err = (
            error_norm_k(space, u, problem.exact)
            if problem.exact is not None
            else float("nan")
        )
        er, eg, ev = report.parts()
        step = AdaptiveStep(
            k=it,
            ndofs=space.dim,
            h_min=float(sizes.h_elem.min()),
            h_max=float(sizes.h_elem.max()),
            eta_total=report.total,
            eta_residual=er,
            eta_gradjump=eg,
            eta_valjump=ev,
            err_norm_k=err,
            newton_iters=stats.newton_iters,
            fallback_iters=stats.fallback_iters,
            marked=len(marked),
        )
        trace.steps.append(step)
        if callback is not None:
            callback(step, mesh, space, u, report)
        if config.eta_tol is not None and report.total <= config.eta_tol:
            break
        if config.max_dofs is not None and space.dim >= config.max_dofs:
            break
        if it == config.max_iters - 1:
            break
        fine = refine_conforming(mesh, marked)
        if config.uniform:
            # two bisection sweeps halve h and keep the mesh self-similar,
            # which makes convergence slopes clean level over level; compose
            # the ancestor maps so guess transfer still sees this level
            finer = refine_conforming(fine, range(fine.n_elements))
            fine = replace(finer, ancestor=fine.ancestor[finer.ancestor])
        mesh = fine
        prev_u = u
    return trace
