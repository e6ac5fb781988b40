"""Estimators, marking strategies, and the solve-estimate-mark-refine loop."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cordesfem import (
    AdaptiveConfig,
    CoefficientField,
    ControlProblem,
    ControlSet,
    DiscreteFunction,
    EstimatorReport,
    FormParams,
    SpaceConfig,
    adaptive_solve,
    build_space,
    estimate,
    get_problem,
    jump_seminorm,
    mark,
    unit_square_mesh,
)
from cordesfem.adapt import AdaptError
from cordesfem.quadrature import quadrature_rule


def _singleton_problem(f_const):
    return ControlProblem(
        domain=np.array([[0.0, 0], [1, 0], [1, 1], [0, 1]]),
        controls=ControlSet(alphas=[0], betas=[0]),
        coeffs=CoefficientField(
            a=lambda x, a, b: np.broadcast_to(np.eye(2), (len(x), 2, 2)).copy(),
            f=lambda x, a, b: np.full(len(x), float(f_const)),
        ),
        nu=1.0,
        name="singleton_const",
    )


# ------------------------------------------------------------------- estimator


def test_estimator_zero_for_trivial_data(spaces):
    space = spaces(1, 2, 0)
    u = DiscreteFunction(space, np.zeros(space.dim))
    report = estimate(space, _singleton_problem(0.0), u, FormParams.defaults(2, 0))
    assert report.total == 0.0


def test_estimator_constant_forcing_elementwise():
    # F_gamma[0] = -1 everywhere, jumps vanish: eta_K^2 = |K|, total = 1
    mesh = unit_square_mesh(2)
    space = build_space(mesh, SpaceConfig(p=2, s=0))
    u = DiscreteFunction(space, np.zeros(space.dim))
    report = estimate(space, _singleton_problem(1.0), u, FormParams.defaults(2, 0))
    assert np.allclose(report.per_element, mesh.areas(), atol=1e-13)
    assert report.total == pytest.approx(1.0, rel=1e-12)


def test_estimator_decomposition(spaces, rng):
    space = spaces(2, 2, 0)
    u = DiscreteFunction(space, rng.standard_normal(space.dim))
    report = estimate(space, get_problem("two_control_switch"), u,
                      FormParams.defaults(2, 0))
    total_sq = (report.eta_sq_residual.sum() + report.eta_sq_gradjump.sum()
                + report.eta_sq_valjump.sum())
    assert report.total ** 2 == pytest.approx(total_sq, rel=1e-12)
    for part in report.parts():
        assert np.all(part >= 0)


@pytest.mark.parametrize("p,s", [(2, 0), (2, 1), (3, 0), (3, 1)])
def test_estimator_face_terms_match_face_loop(p, s, spaces, rng):
    # jump terms recomputed face by face from element traces with an
    # independent quadrature: (1/h) int |[grad u]|^2 on interior faces and
    # h^-3 int [u]^2 on all faces, shared 1/2 per side or 1 on the boundary
    space = spaces(3, p, s)
    mesh = space.mesh
    u = rng.standard_normal(space.dim)
    seg = quadrature_rule("segment", 2 * p + 4)
    gradjump = np.zeros(mesh.n_elements)
    valjump = np.zeros(mesh.n_elements)
    for f in range(mesh.n_faces):
        pa, pb = mesh.vertices[mesh.face_verts[f]]
        h = np.linalg.norm(pb - pa)
        xq = pa + seg.points[:, :1] * (pb - pa)
        wq = seg.weights * h
        elems = [int(e) for e in mesh.face_elems[f] if e >= 0]
        traces = []
        for e in elems:
            idx = space.dofmap[e]
            loc = np.where(idx >= 0, u[idx], 0.0)
            ref = space.to_reference(e, xq)
            traces.append((space.eval_shape(e, ref, 0) @ loc,
                           np.einsum("qli,l->qi", space.eval_shape(e, ref, 1), loc)))
        if len(elems) == 2:
            jv = traces[0][0] - traces[1][0]
            jg = traces[0][1] - traces[1][1]
            grad_term = np.einsum("q,qi,qi->", wq, jg, jg) / h
        else:
            jv, grad_term = traces[0][0], 0.0
        val_term = wq @ jv**2 / h**3
        for e in elems:
            gradjump[e] += grad_term / len(elems)
            valjump[e] += val_term / len(elems)

    report = estimate(space, get_problem("two_control_switch"),
                      DiscreteFunction(space, u), FormParams.defaults(p, s))
    atol = 1e-12 * gradjump.max()
    assert np.allclose(report.eta_sq_gradjump, gradjump, rtol=1e-10, atol=atol)
    assert np.allclose(report.eta_sq_valjump, valjump, rtol=1e-10, atol=atol)
    total = gradjump.sum() + valjump.sum()
    assert jump_seminorm(space, u) ** 2 == pytest.approx(total, rel=1e-10)


# --------------------------------------------------------------------- marking


def _report(eta_sq):
    n = len(eta_sq)
    return EstimatorReport(
        eta_sq_residual=np.asarray(eta_sq, dtype=float),
        eta_sq_gradjump=np.zeros(n),
        eta_sq_valjump=np.zeros(n),
    )


def test_max_strategy_full_fraction():
    assert mark(_report([9.0, 1.0, 4.0]), "max", 1.0) == {0}


def test_doerfler_example():
    # eta^2 = {9, 1, 4}: the 9-element alone already covers half the total
    assert mark(_report([9.0, 1.0, 4.0]), "doerfler", 0.5) == {0}


def test_empty_report_rejected():
    with pytest.raises(AdaptError):
        mark(_report([]))


def test_unknown_strategy_rejected():
    with pytest.raises(AdaptError):
        mark(_report([1.0]), "median", 0.5)


@given(
    st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=40),
    st.sampled_from(["max", "doerfler"]),
    st.floats(min_value=0.05, max_value=1.0),
)
@settings(max_examples=80, deadline=None)
def test_marked_set_contains_argmax(eta_sq, strategy, param):
    marked = mark(_report(eta_sq), strategy, param)
    assert int(np.argmax(eta_sq)) in marked


def test_doerfler_reaches_fraction(rng):
    eta_sq = rng.uniform(0, 1, size=30)
    marked = mark(_report(eta_sq), "doerfler", 0.5)
    assert sum(eta_sq[list(marked)]) >= 0.5 * eta_sq.sum() - 1e-12


# ------------------------------------------------------------------------ loop


def test_trivial_problem_stops_immediately():
    cfg = AdaptiveConfig(space=SpaceConfig(p=2, s=0),
                         params=FormParams.defaults(2, 0),
                         eta_tol=1e-12, max_iters=5)
    trace = adaptive_solve(_singleton_problem(0.0), unit_square_mesh(2), cfg)
    assert len(trace.steps) == 1
    assert trace.steps[0].eta_total == 0.0


def test_adaptive_trace_invariants():
    cfg = AdaptiveConfig(space=SpaceConfig(p=2, s=0),
                         params=FormParams.defaults(2, 0),
                         strategy="doerfler", strategy_param=0.5, max_iters=5)
    trace = adaptive_solve(get_problem("two_control_switch"),
                           unit_square_mesh(2), cfg)
    ks = [s.k for s in trace.steps]
    nd = [s.ndofs for s in trace.steps]
    assert ks == sorted(set(ks))
    assert all(b >= a for a, b in zip(nd, nd[1:]))
    assert all(s.marked > 0 for s in trace.steps[:-1])


def test_marked_elements_are_refined():
    prob = get_problem("two_control_switch")
    mesh = unit_square_mesh(2)
    space = build_space(mesh, SpaceConfig(p=2, s=0))
    from cordesfem import refine_conforming, solve_discrete

    u, _ = solve_discrete(space, prob, FormParams.defaults(2, 0))
    report = estimate(space, prob, u, FormParams.defaults(2, 0))
    marked = mark(report, "doerfler", 0.5)
    fine = refine_conforming(mesh, marked)
    for e in marked:
        children = np.flatnonzero(fine.ancestor == e)
        assert len(children) >= 2


def test_trace_csv_columns(tmp_path):
    cfg = AdaptiveConfig(space=SpaceConfig(p=2, s=0),
                         params=FormParams.defaults(2, 0), max_iters=2)
    trace = adaptive_solve(get_problem("poisson_singleton"),
                           unit_square_mesh(2), cfg)
    path = tmp_path / "trace.csv"
    trace.write_csv(path)
    header = path.read_text().splitlines()[0].split(",")
    for col in ("iter", "ndofs", "h_min", "h_max", "eta_total", "eta_residual",
                "eta_gradjump", "eta_valjump", "err_norm_k", "newton_iters",
                "marked"):
        assert col in header
