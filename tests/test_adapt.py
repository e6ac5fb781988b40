"""Estimators, marking strategies, and the solve-estimate-mark-refine loop."""

import csv
import io
import json
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import project_l2, quadrature_rule

from cordesfem import (
    AdaptiveConfig,
    CoefficientField,
    ControlProblem,
    ControlSet,
    DiscreteFunction,
    EstimatorReport,
    FormParams,
    SolveOptions,
    SpaceConfig,
    adaptive_solve,
    build_space,
    convex_polygon_mesh,
    estimate,
    get_problem,
    jump_seminorm,
    mark,
    solve_discrete,
    unit_square_mesh,
)
from cordesfem import adapt, cordes
from cordesfem import mesh as mesh_mod
from cordesfem.adapt import AdaptError, AdaptiveStep, AdaptiveTrace, error_norm_k
from cordesfem.adapt import transfer_solution
from cordesfem.forms import get_operators
from cordesfem.basis import lagrange_ref_points, rule_tables
from cordesfem.mesh import halve, uniform_refine
from cordesfem.quadrature import triangle_rule
from cordesfem.solver import SolveStats


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
    report = estimate(space, _singleton_problem(0.0), u)
    assert report.total == 0.0


def test_estimator_constant_forcing_elementwise():
    # F_gamma[0] = -1 everywhere, jumps vanish: eta_K^2 = |K|, total = 1
    mesh = unit_square_mesh(2)
    space = build_space(mesh, SpaceConfig(p=2, s=0))
    u = DiscreteFunction(space, np.zeros(space.dim))
    report = estimate(space, _singleton_problem(1.0), u)
    assert np.allclose(report.per_element, mesh.areas(), atol=1e-13)
    assert report.total == pytest.approx(1.0, rel=1e-12)


def test_estimator_decomposition(spaces, rng):
    space = spaces(2, 2, 0)
    u = DiscreteFunction(space, rng.standard_normal(space.dim))
    report = estimate(space, get_problem("two_control_switch"), u)
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
            # the absent dof dim wraps to 0, then is masked
            loc = np.where(idx < space.dim, u[idx % space.dim], 0.0)
            ref = space.ref_points(xq, [e])[0]
            traces.append((space.shapes(ref, 0, [e])[0] @ loc,
                           np.einsum("qli,l->qi", space.shapes(ref, 1, [e])[0], loc)))
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
                      DiscreteFunction(space, u))
    atol = 1e-12 * gradjump.max()
    assert np.allclose(report.eta_sq_gradjump, gradjump, rtol=1e-10, atol=atol)
    assert np.allclose(report.eta_sq_valjump, valjump, rtol=1e-10, atol=atol)
    total = gradjump.sum() + valjump.sum()
    assert jump_seminorm(space, u) ** 2 == pytest.approx(total, rel=1e-10)


# ------------------------------------------------- error norm and transfer


@pytest.mark.parametrize("name", ["two_control_switch", "rotated_anisotropic"])
def test_estimate_reuses_the_inf_sup_of_the_solve(name, monkeypatch):
    # the solve's last residual is at the u it returns, so the estimate
    # there finds no controls and equals that of a fresh space bitwise; an
    # in-place change of u's coefficients makes it find them anew
    calls, inf_sup = [], cordes.inf_sup

    def counting(*args):
        calls.append(1)
        return inf_sup(*args)

    monkeypatch.setattr(cordes, "inf_sup", counting)
    prob, mesh, config = get_problem(name), unit_square_mesh(4), SpaceConfig(p=3)
    params = FormParams.defaults(3, 0)
    space = build_space(mesh, config)
    u, _ = solve_discrete(space, prob, params)
    calls.clear()
    got = estimate(space, prob, u)
    assert calls == []
    fresh = build_space(mesh, config)
    want = estimate(fresh, prob, DiscreteFunction(fresh, u.coeffs.copy()))
    for part in ("eta_sq_residual", "eta_sq_gradjump", "eta_sq_valjump"):
        assert np.array_equal(getattr(got, part), getattr(want, part)), part
    u.coeffs[::2] *= 1.5
    calls.clear()
    estimate(space, prob, u)
    assert calls == [1]


@pytest.mark.parametrize("p,s", [(2, 0), (3, 0), (2, 1), (3, 1)])
def test_error_norm_matches_element_loop(p, s, spaces, rng):
    # on the locally refined level of the hierarchy, against the volume
    # integrals summed element by element with one-element evaluations
    space = spaces(3, p, s)
    exact = get_problem("two_control_switch").exact
    u = DiscreteFunction(space, 0.1 * rng.standard_normal(space.dim))
    rule = triangle_rule(space.config.quad_exactness + 2)
    vol = 0.0
    for e in range(space.mesh.n_elements):
        x = space.points(rule.points, [e])[0]
        dv = exact.value(x) - u.eval(rule.points, 0, [e])[0]
        dg = exact.gradient(x) - u.eval(rule.points, 1, [e])[0]
        dh = exact.hessian(x) - u.eval(rule.points, 2, [e])[0]
        sq = dv**2 + (dg**2).sum(axis=1) + (dh**2).sum(axis=(1, 2))
        vol += space.detJ[e] * (rule.weights @ sq)
    want = np.sqrt(vol + jump_seminorm(space, u) ** 2)
    assert error_norm_k(space, u, exact) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("s", [0, 1])
@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("level", [0, 2])
def test_transfer_exact_on_nested_local_refinement(level, p, s, spaces, rng):
    # levels 1 and 3 of the hierarchy refine 0 and 2 locally, so children
    # of several bisection depths share the transferred function
    coarse, fine = spaces(level, p, s), spaces(level + 1, p, s)
    u = DiscreteFunction(coarse, rng.standard_normal(coarse.dim))
    v = DiscreteFunction(fine, transfer_solution(u, fine))
    pts = rng.dirichlet(np.ones(3), size=6)[:, 1:]
    for e in range(fine.mesh.n_elements):
        parent = fine.mesh.ancestor[e]
        ref = coarse.ref_points(fine.points(pts, [e])[0], [parent])[0]
        want = u.eval(ref, 0, [parent])[0]
        assert np.allclose(v.eval(pts, 0, [e])[0], want, rtol=1e-10, atol=1e-10)


def _injection_oracle(u, new_space):
    """Transfer by point evaluation: the parent polynomial at each child's
    Lagrange nodes (C0) or quadrature points, mapped through the physical
    points one element at a time in a batch, then projected onto the modal
    basis (DG)."""
    rule = new_space.elem_rule
    dg = new_space.config.s == 0
    pts = rule.points if dg else lagrange_ref_points(new_space.config.p)
    parent = new_space.mesh.ancestor
    vals = u.eval(u.space.ref_points(new_space.points(pts), parent), 0, parent)
    if dg:
        B = rule_tables(new_space.basis, rule.exactness)[0][:, :, 0]
        vals = vals @ (rule.weights[:, None] * B)
    coeffs = np.zeros(new_space.dim + 1)
    coeffs[new_space.dofmap] = vals
    return coeffs[:-1]


@pytest.mark.parametrize("s", [0, 1])
@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("step", ["closure", "halve"])
def test_transfer_matches_point_evaluation_injection(step, p, s, mesh_hierarchy, rng):
    # level 3 refines level 2 with closure, so children of one and two
    # bisections; halve makes children of two uniform sweeps
    coarse = mesh_hierarchy[2 if step == "closure" else 1]
    fine = mesh_hierarchy[3] if step == "closure" else halve(coarse)
    old, new = (build_space(m, SpaceConfig(p=p, s=s)) for m in (coarse, fine))
    u = DiscreteFunction(old, rng.standard_normal(old.dim))
    got, want = transfer_solution(u, new), _injection_oracle(u, new)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_transfer_rejects_children_off_the_dyadic_grid(rng):
    # on a pentagon, a child paired with a parent it was not bisected from
    # has non-dyadic reference coordinates there
    angles = np.pi / 2 + 2 * np.pi * np.arange(5) / 5
    coarse = convex_polygon_mesh(np.column_stack([np.cos(angles), np.sin(angles)]))
    fine = uniform_refine(coarse)
    config = SpaceConfig(p=2, s=0)
    old = build_space(coarse, config)
    u = DiscreteFunction(old, rng.standard_normal(old.dim))
    new = build_space(fine, config)
    got, want = transfer_solution(u, new), _injection_oracle(u, new)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    shifted = replace(fine, ancestor=np.roll(fine.ancestor, 1))
    with pytest.raises(AdaptError, match="bisections"):
        transfer_solution(u, build_space(shifted, config))


def test_basis_tabulations_do_not_grow_with_elements(spaces, monkeypatch):
    # error_norm_k, transfer_solution and project_l2 tabulate the reference
    # basis a fixed number of times, whatever the element count; once the
    # kept rule tables exist, error_norm_k tabulates nothing and
    # transfer_solution only the points of its child-in-parent maps, at once
    from cordesfem.basis import RefBasis

    calls = []
    tabulate = RefBasis.eval

    def counting(self, *args, **kwargs):
        calls.append(1)
        return tabulate(self, *args, **kwargs)

    monkeypatch.setattr(RefBasis, "eval", counting)
    exact = get_problem("two_control_switch").exact
    counts = {}
    for level in (0, 2):
        for s in (0, 1):
            coarse, fine = spaces(level, 3, s), spaces(level + 1, 3, s)
            u = DiscreteFunction(coarse, np.ones(coarse.dim))
            get_operators(coarse)
            error_norm_k(coarse, u, exact)
            transfer_solution(u, fine)
            calls.clear()
            error_norm_k(coarse, u, exact)
            n_err = len(calls)
            calls.clear()
            transfer_solution(u, fine)
            n_transfer = len(calls)
            calls.clear()
            project_l2(fine, lambda x: x[:, 0])
            counts[level, s] = (n_err, n_transfer, len(calls))
    for s in (0, 1):
        assert counts[0, s] == counts[2, s]
        assert counts[2, s][:2] == (0, 1) and counts[2, s][2] <= 3


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


def test_doerfler_marks_a_tie_group_whole():
    # four equal estimators, and half the total is reached after two
    assert mark(_report([2.0, 2.0, 2.0, 2.0, 1.0]), "doerfler", 0.5) == {0, 1, 2, 3}


def test_doerfler_marks_unchanged_by_roundoff_noise(rng):
    # on the adaptive levels of a symmetric benchmark, where estimators of
    # mirror-image elements differ by roundoff, 1e-13 relative noise does
    # not change the marked set
    levels = []

    def callback(step, mesh, space, u, report):
        eta_sq = report.per_element
        want = mark(report, "doerfler", 0.5)
        for _ in range(5):
            noisy = eta_sq * (1.0 + 1e-13 * rng.uniform(-1.0, 1.0, eta_sq.size))
            assert mark(_report(noisy), "doerfler", 0.5) == want, step.k
        levels.append(len(want))

    cfg = AdaptiveConfig(space=SpaceConfig(p=3, s=0),
                         params=FormParams.defaults(3, 0), eta_tol=0.3)
    adaptive_solve(get_problem("two_control_switch"), unit_square_mesh(2), cfg,
                   callback=callback)
    assert len(levels) >= 5


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
    report = estimate(space, prob, u)
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


def test_trace_csv_rows_read_the_columns(tmp_path):
    # each row is the step's record in COLUMNS order (iter reads k), byte for
    # byte as a writer listing every field wrote it: ints as they are,
    # floats by repr
    cfg = AdaptiveConfig(space=SpaceConfig(p=2, s=0),
                         params=FormParams.defaults(2, 0), max_iters=2)
    trace = adaptive_solve(get_problem("two_control_switch"),
                           unit_square_mesh(2), cfg)
    path = tmp_path / "trace.csv"
    trace.write_csv(path)
    want = io.StringIO()
    writer = csv.writer(want)
    writer.writerow(AdaptiveTrace.COLUMNS)
    for s in trace.steps:
        writer.writerow([s.k, s.ndofs, repr(s.h_min), repr(s.h_max),
                         repr(s.eta_total), repr(s.eta_residual),
                         repr(s.eta_gradjump), repr(s.eta_valjump),
                         repr(s.err_norm_k), s.stats.newton_iters, s.marked])
    assert path.read_bytes() == want.getvalue().encode()


def test_floor_acceptance_in_trace_json_only(tmp_path):
    # an unreachable tol (see tests/test_solver.py) makes the solve stop at
    # the roundoff floor; trace.json says so, trace.csv keeps its columns
    cfg = AdaptiveConfig(space=SpaceConfig(p=2, s=0),
                         params=FormParams.defaults(2, 0), max_iters=1,
                         solve_opts=SolveOptions(tol=1e-15))
    trace = adaptive_solve(get_problem("poisson_singleton"),
                           unit_square_mesh(4), cfg)
    trace.write_json(tmp_path / "trace.json")
    trace.write_csv(tmp_path / "trace.csv")
    steps = json.loads((tmp_path / "trace.json").read_text())
    assert [s["floor_accepted"] for s in steps] == [True]
    header = (tmp_path / "trace.csv").read_text().splitlines()[0]
    assert header.split(",") == AdaptiveTrace.COLUMNS
    assert "floor_accepted" not in header


def test_solver_lists_in_trace_json_only(tmp_path):
    # two_control_switch has a = I, so no Newton step changes a control and
    # each level factors one Jacobian; trace.json lists that per level
    cfg = AdaptiveConfig(space=SpaceConfig(p=2, s=0),
                         params=FormParams.defaults(2, 0), max_iters=2)
    trace = adaptive_solve(get_problem("two_control_switch"),
                           unit_square_mesh(2), cfg)
    trace.write_json(tmp_path / "trace.json")
    trace.write_csv(tmp_path / "trace.csv")
    steps = json.loads((tmp_path / "trace.json").read_text())
    assert len(steps) == 2
    for step in steps:
        assert len(step["lu_fill"]) == 1 and "colamd_retries" not in step
        assert step["lu_solves"] >= 1
        assert step["controls_changed"] == [0] * step["newton_iters"]
        assert len(step["backtracks"]) == step["newton_iters"]
    # one flat record per step: its own fields, then its SolveStats'
    own = {f.name for f in fields(AdaptiveStep)} - {"stats"}
    solve = {f.name for f in fields(SolveStats)}
    assert not own & solve
    for step, record in zip(trace.steps, steps):
        assert record.keys() == own | solve
        assert record["residual_history"] == step.stats.residual_history
    peaks = [step["peak_rss_mb"] for step in steps]
    assert peaks[0] > 0.0 and peaks == sorted(peaks)
    header = (tmp_path / "trace.csv").read_text().splitlines()[0]
    assert header.split(",") == AdaptiveTrace.COLUMNS


def test_one_level_alive_at_a_time(monkeypatch):
    # once a level's guess is transferred, the previous level's space, and
    # with it its Operators, is freed before this level solves
    spaces, dead = [], []
    build, solve = adapt.build_space, adapt.solve_discrete

    def recorded(mesh, config):
        space = build(mesh, config)
        spaces.append(weakref.ref(space))
        return space

    def checked(*args):
        dead.append([ref() is None for ref in spaces[:-1]])
        return solve(*args)

    monkeypatch.setattr(adapt, "build_space", recorded)
    monkeypatch.setattr(adapt, "solve_discrete", checked)
    cfg = AdaptiveConfig(space=SpaceConfig(p=2, s=0),
                         params=FormParams.defaults(2, 0), max_iters=3)
    trace = adaptive_solve(get_problem("two_control_switch"),
                           unit_square_mesh(2), cfg)
    assert len(trace.steps) == 3
    assert dead == [[], [True], [True, True]]


def test_uniform_step_builds_each_face_table_once(monkeypatch):
    # a uniform step is two bisection sweeps; each builds one face table, and
    # the level handed on equals the second sweep with the composed ancestors
    built = []
    build_faces = mesh_mod._build_faces

    def counting(vertices, tri):
        built.append(len(tri))
        return build_faces(vertices, tri)

    monkeypatch.setattr(mesh_mod, "_build_faces", counting)
    meshes = []
    config = AdaptiveConfig(space=SpaceConfig(p=2, s=0),
                            params=FormParams.defaults(2, 0), max_iters=3,
                            uniform=True)
    mesh0 = unit_square_mesh(2)
    built.clear()
    adaptive_solve(get_problem("poisson_singleton"), mesh0, config,
                   callback=lambda step, mesh, *rest: meshes.append(mesh))
    assert built == [16, 32, 64, 128]
    want = mesh0
    for mesh in meshes[1:]:
        fine = uniform_refine(want)
        finer = uniform_refine(fine)
        want = replace(finer, ancestor=fine.ancestor[finer.ancestor])
        for name in ("vertices", "tri", "ancestor", "face_verts", "face_elems",
                     "face_normals", "elem_faces"):
            got, ref = getattr(mesh, name), getattr(want, name)
            assert got.dtype == ref.dtype and np.array_equal(got, ref), name
