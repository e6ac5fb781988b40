"""A posteriori error estimators, marking and the adaptive loop."""

from __future__ import annotations

import csv
import json
import resource
from dataclasses import dataclass, field, replace

import numpy as np

from . import cordes
from .basis import lagrange_ref_points, rule_tables
from .fespace import DiscreteFunction, FESpace, SpaceConfig, build_space, gather
from .forms import FormParams, face_jumps, get_operators, jump_seminorm
from .mesh import MeshLevel, halve, refine_conforming
from .quadrature import triangle_rule
from .solver import SolveOptions, SolveStats, solve_discrete


# Doerfler marking also marks the estimators within this relative band of its cut
TIE_RTOL = 1e-9


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
        terms = (self.eta_sq_residual, self.eta_sq_gradjump, self.eta_sq_valjump)
        return tuple(float(np.sqrt(t.sum())) for t in terms)


def estimate(space: FESpace, problem: cordes.ControlProblem,
             u: DiscreteFunction) -> EstimatorReport:
    """Element-wise estimator: squared residual |F_gamma[u]|^2 over the
    element plus face jump terms weighted so each interior face is counted
    once in the total (1/2 per adjacent element, 1 on the boundary)."""
    ops = get_operators(space)
    ne = space.mesh.n_elements

    g, _, _ = ops.inf_sup(problem, u)  # kept by the last residual at u
    g2 = (g**2).reshape(ne, -1)
    res = space.detJ * np.einsum("q,eq->e", ops.wq, g2)

    ft = ops.faces
    grad_term, val_term = face_jumps(space, u)
    sides = ft.elems >= 0

    def per_element(term):
        share = ft.avg * term[:, None]
        return np.bincount(ft.elems[sides], share[sides], minlength=ne)

    return EstimatorReport(res, per_element(grad_term), per_element(val_term))


def mark(report: EstimatorReport, strategy: str = "doerfler", param: float = 0.5):
    """Marked element set; always contains an element attaining the maximum
    estimator (ties broken by element id).

    Doerfler marks the fewest largest estimators whose sum reaches `param`
    of the total, and with them every element within TIE_RTOL of the
    smallest of those, the cut: estimators of symmetric elements differ by
    roundoff only, so a group of them is marked whole and the marked set
    does not depend on that roundoff."""
    eta_sq = report.per_element
    if len(eta_sq) == 0:
        raise AdaptError("cannot mark on an empty estimator report")
    argmax = int(np.argmax(eta_sq))  # first occurrence of the max
    if strategy == "max":
        thresh = param * np.sqrt(eta_sq[argmax])
        marked = set(np.flatnonzero(np.sqrt(eta_sq) >= thresh).tolist())
    elif strategy == "doerfler":
        ranked = np.sort(eta_sq)[::-1]
        count = int(np.searchsorted(np.cumsum(ranked), param * eta_sq.sum()))
        cut = ranked[min(count, len(ranked) - 1)]
        marked = set(np.flatnonzero(eta_sq >= (1.0 - TIE_RTOL) * cut).tolist())
    else:
        raise AdaptError(f"unknown marking strategy {strategy!r}")
    marked.add(argmax)
    return marked


@dataclass
class AdaptiveStep:
    """One level of the loop, with the SolveStats of its solve."""

    k: int
    ndofs: int
    h_min: float
    h_max: float
    eta_total: float
    eta_residual: float
    eta_gradjump: float
    eta_valjump: float
    err_norm_k: float  # nan when no exact solution
    marked: int
    peak_rss_mb: float  # the process's peak RSS (ru_maxrss) after this level
    stats: SolveStats


@dataclass
class AdaptiveTrace:
    """The steps of a run. A step's record is its own fields, then those of
    its SolveStats: trace.json holds each whole, trace.csv its COLUMNS."""

    steps: list = field(default_factory=list)

    COLUMNS = (
        "iter ndofs h_min h_max eta_total eta_residual eta_gradjump "
        "eta_valjump err_norm_k newton_iters marked"
    ).split()

    def records(self) -> list[dict]:
        return [{**{f: v for f, v in vars(s).items() if f != "stats"},
                 **vars(s.stats)} for s in self.steps]

    def write_csv(self, path) -> None:
        """The record's field of each column (`iter` reads `k`); csv writes
        a float as its repr."""
        fields = ["k" if c == "iter" else c for c in self.COLUMNS]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.COLUMNS)
            writer.writerows([r[f] for f in fields] for r in self.records())

    def write_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.records(), fh, indent=2)


def error_norm_k(space: FESpace, u: DiscreteFunction,
                 exact: cordes.ExactSolution) -> float:
    """Mesh-dependent norm of (u_exact - u_k), with a quadrature rule two
    degrees beyond the default so quadrature error stays subordinate.

    The exact solution is smooth with zero boundary trace, so its own jump
    contributions vanish and the jump part reduces to that of u_k, the
    `face_jumps` that `estimate` at u_k keeps. Its value, gradient and
    Hessian are evaluated in one `at(x)` scope.
    """
    rule = triangle_rule(space.config.quad_exactness + 2)
    x = space.points(rule.points).reshape(-1, 2)
    tabs = rule_tables(space.basis, rule.exactness)
    with exact.at(x):
        dv = exact.value(x) - u.eval_table(tabs[0], 0).ravel()
        dg = exact.gradient(x) - u.eval_table(tabs[1], 1).reshape(-1, 2)
        dh = exact.hessian(x) - u.eval_table(tabs[2], 2).reshape(-1, 2, 2)
    sq = dv**2 + np.einsum("ni,ni->n", dg, dg) + np.einsum("nij,nij->n", dh, dh)
    vol = float(space.detJ @ (sq.reshape(-1, rule.n) @ rule.weights))
    return float(np.sqrt(vol + jump_seminorm(space, u) ** 2))


def transfer_solution(u: DiscreteFunction, new_space: FESpace) -> np.ndarray:
    """Initial-guess transfer to a refined mesh by element-wise polynomial
    injection (exact for nested meshes). Under bisection a child's vertices
    have dyadic reference coordinates in its parent, exact at 2^-20, and
    the children share a few such child-in-parent maps. Each map gets one
    matrix: the parent basis at the child's Lagrange nodes (C0), or at its
    quadrature points projected onto its modal basis (DG). All maps' points
    are tabulated at once, and the matrices meet the gathered parent
    coefficients in one batched product."""
    mesh, old, parent = new_space.mesh, u.space, new_space.mesh.ancestor
    grid = old.ref_points(mesh.vertices[mesh.tri], parent).reshape(-1, 6) * 2.0**20
    keys = np.rint(grid).astype(np.int64)
    if np.abs(grid - keys).max(initial=0.0) > 1e-6:
        raise AdaptError("children are not bisections of their parents")
    # one 1-D np.unique of the key rows as bytes
    keys, child_map = np.unique(keys.view(np.dtype((np.void, 48))).ravel(),
                                return_inverse=True)
    corners = keys.view(np.int64).reshape(-1, 3, 2) / 2.0**20
    rule = new_space.elem_rule
    dg = new_space.config.s == 0
    pts = rule.points if dg else lagrange_ref_points(new_space.config.p)
    # each map's points in its parent's reference coordinates, one tabulation
    x = corners[:, :1] + pts @ (corners[:, 1:] - corners[:, :1])
    maps = old.basis.eval(x.reshape(-1, 2)).reshape(len(keys), len(pts), -1)
    if dg:  # (maps, child nloc, parent nloc)
        B = rule_tables(new_space.basis, rule.exactness)[0][:, :, 0]
        maps = (rule.weights[:, None] * B).T @ maps
    loc = gather(u.coeffs, old.dofmap[parent])
    coeffs = np.zeros(new_space.dim + 1)  # the absent dof dim is a dropped pad
    coeffs[new_space.dofmap] = (maps[child_map] @ loc[:, :, None])[:, :, 0]
    return coeffs[:-1]


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
    mesh, u = initial_mesh, None
    for it in range(config.max_iters):
        space = build_space(mesh, config.space)
        opts = config.solve_opts
        if u is not None:
            opts = replace(opts, initial_guess=transfer_solution(u, space))
            # the previous level's space and Operators go before this
            # level's are built
            u = report = None
        u, stats = solve_discrete(space, problem, config.params, opts)
        report = estimate(space, problem, u)
        if config.uniform:
            marked = set(range(mesh.n_elements))
        else:
            marked = mark(report, config.strategy, config.strategy_param)
        h = np.sqrt(mesh.areas())  # h_K = |K|^(1/2)
        exact = problem.exact
        err = float("nan") if exact is None else error_norm_k(space, u, exact)
        er, eg, ev = report.parts()
        step = AdaptiveStep(
            k=it, ndofs=space.dim, h_min=float(h.min()), h_max=float(h.max()),
            eta_total=report.total, eta_residual=er, eta_gradjump=eg,
            eta_valjump=ev, err_norm_k=err, marked=len(marked),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            stats=stats,
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
        # uniform mode halves h, so convergence slopes are clean level over
        # level; ancestors refer to this level, which guess transfer reads
        mesh = halve(mesh) if config.uniform else refine_conforming(mesh, marked)
    return trace
