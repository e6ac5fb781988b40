"""Top-level acceptance suite.

Each test covers one numbered acceptance criterion and prints a one-line
PASS record with the measured quantities when it succeeds.
"""

import numpy as np
import pytest

from conftest import min_angle, project_l2, quadrature_rule, shape_regularity
from lifted_oracle import R, S_lifted, TrR

from cordesfem import (
    AdaptiveConfig,
    DiscreteFunction,
    FormParams,
    SpaceConfig,
    adaptive_solve,
    build_space,
    estimate,
    get_problem,
    mark,
    nonlinear_residual,
    norm_k,
    refine_conforming,
    stab_form,
    uniform_refine,
    unit_square_mesh,
)
from cordesfem.adapt import transfer_solution
from cordesfem.cli import build_config, run_study
from cordesfem.cordes import f_gamma_field
from cordesfem.forms import get_operators

RNG = np.random.default_rng(1234)


def _mesh_levels(n_levels=4):
    levels = [unit_square_mesh(2)]
    for i in range(n_levels - 1):
        prev = levels[-1]
        if i % 2 == 0:
            marked = set(range(0, prev.n_elements, 2))
            levels.append(refine_conforming(prev, marked))
        else:
            levels.append(uniform_refine(prev))
    return levels


# ---------------------------------------------------------------- criterion 1


def test_criterion_1_stab_form_identity():
    """Facewise and lifted stabilization formulas agree to relative 1e-10."""
    worst = 0.0
    for mesh in _mesh_levels(4):
        for s in (0, 1):
            for p in (2, 3):
                space = build_space(mesh, SpaceConfig(p=p, s=s))
                S = S_lifted(space)
                for _ in range(50):
                    w = RNG.standard_normal(space.dim)
                    v = RNG.standard_normal(space.dim)
                    a = stab_form(space, w, v)
                    b = float(w @ (S @ v))
                    rel = abs(a - b) / (1 + abs(a))
                    worst = max(worst, rel)
                    assert rel <= 1e-10
    print(f"ACCEPTANCE 1 PASS: stab_form facewise==lifted, worst rel {worst:.2e}")


# ---------------------------------------------------------------- criterion 2


def test_criterion_2_lifting_adjoint_and_zero_trace():
    """Lifting adjoint identity for the full degree-q test basis; boundary
    liftings are trace-free."""
    mesh = _mesh_levels(3)[2]
    worst = 0.0
    for p in (2, 3):
        space = build_space(mesh, SpaceConfig(p=p, s=0))
        ops, lifts = get_operators(space), R(space)
        u = RNG.standard_normal(space.dim)
        seg = quadrature_rule("segment", 2 * space.config.q + 4)
        for (i, j) in ((0, 0), (0, 1), (1, 0), (1, 1)):
            lifted = (lifts[(i, j)] @ u).reshape(mesh.n_elements, ops.nmod)
            psi = ops.modal.eval(space.elem_rule.points, 0)
            rvals = lifted @ psi.T
            lhs = np.einsum("q,eq,qa,e->ea", ops.wq, rvals, psi, space.detJ)
            rhs = np.zeros_like(lhs)
            for f in range(mesh.n_faces):
                va, vb = mesh.face_verts[f]
                pa, pb = mesh.vertices[va], mesh.vertices[vb]
                xq = ((1 - seg.points[:, 0])[:, None] * pa
                      + seg.points[:, 0][:, None] * pb)
                wq = seg.weights * np.linalg.norm(pb - pa)
                n = mesh.face_normals[f]
                e_minus, e_plus = mesh.face_elems[f]
                gm = np.einsum(
                    "qlk,l->qk",
                    space.shapes(space.ref_points(xq, [e_minus])[0], 1, [e_minus])[0],
                    u[space.dofmap[e_minus]],
                )
                if e_plus >= 0:
                    gp = np.einsum(
                        "qlk,l->qk",
                        space.shapes(space.ref_points(xq, [e_plus])[0], 1, [e_plus])[0],
                        u[space.dofmap[e_plus]],
                    )
                    jump_i = (gm - gp)[:, i]
                    cF, sides = 0.5, (e_minus, e_plus)
                else:
                    tang = gm - np.outer(gm @ n, n)
                    jump_i = tang[:, i]
                    cF, sides = 1.0, (e_minus,)
                for e in sides:
                    psi_f = ops.modal.eval(space.ref_points(xq, [e])[0], 0)
                    rhs[e] += cF * n[j] * np.einsum("q,q,qa->a", wq, jump_i, psi_f)
            err = np.abs(lhs - rhs).max() / (1 + np.abs(rhs).max())
            worst = max(worst, err)
            assert err <= 1e-11, (p, i, j)

        # zero trace: continuous member -> only boundary liftings, Tr == 0
        v = project_l2(space, lambda x: x[:, 0] ** 2 - 0.3 * x[:, 0] * x[:, 1])
        tr = np.abs(TrR(space) @ v.coeffs).max()
        assert tr <= 1e-12
    print(f"ACCEPTANCE 2 PASS: lifting adjoint identity, worst rel {worst:.2e}")


# ---------------------------------------------------------------- criterion 3


def test_criterion_3_cordes_inequalities():
    """Cordes monotonicity and Lipschitz bounds pointwise at quadrature points."""
    rule = quadrature_rule("triangle", 6)
    mesh = unit_square_mesh(3)
    space = build_space(mesh, SpaceConfig(p=2, s=0))
    pts = np.vstack([space.points(rule.points, [e])[0]
                     for e in range(mesh.n_elements)])
    for name in ("poisson_singleton", "two_control_switch",
                 "rotated_anisotropic"):
        prob = get_problem(name)
        for _ in range(2):  # >= 100 pairs total per problem
            npts = len(pts)
            M = RNG.standard_normal((npts, 2, 2))
            N = RNG.standard_normal((npts, 2, 2))
            M = 0.5 * (M + np.transpose(M, (0, 2, 1)))
            N = 0.5 * (N + np.transpose(N, (0, 2, 1)))
            fM = f_gamma_field(prob, pts, M)[0]
            fN = f_gamma_field(prob, pts, N)[0]
            diff = M - N
            fro = np.linalg.norm(diff, axis=(1, 2))
            tr = np.trace(diff, axis1=1, axis2=2)
            slack = 1e-12 * (1 + fro)
            assert np.all(np.abs(fM - fN - tr)
                          <= np.sqrt(1 - prob.nu) * fro + slack), name
            assert np.all(np.abs(fM - fN) <= (1 + np.sqrt(3)) * fro + slack), name
    print("ACCEPTANCE 3 PASS: Cordes inequalities pointwise on all problems")


# ---------------------------------------------------------------- criterion 4


def test_criterion_4_sampled_strong_monotonicity():
    """(R(w)-R(v)) . (w-v) >= c ||w-v||_k^2 with c stable across levels."""
    for name in ("poisson_singleton", "two_control_switch",
                 "rotated_anisotropic"):
        prob = get_problem(name)
        cs = []
        mesh = unit_square_mesh(2)
        for _ in range(3):
            space = build_space(mesh, SpaceConfig(p=2, s=0))
            params = FormParams.defaults(2, 0)
            level_c = np.inf
            for _ in range(100):
                w = RNG.standard_normal(space.dim)
                v = RNG.standard_normal(space.dim)
                rw = nonlinear_residual(space, prob, DiscreteFunction(space, w),
                                        params)
                rv = nonlinear_residual(space, prob, DiscreteFunction(space, v),
                                        params)
                num = float((rw - rv) @ (w - v))
                den = norm_k(space, w - v) ** 2
                level_c = min(level_c, num / den)
            assert level_c > 0.0, name
            cs.append(level_c)
            mesh = uniform_refine(mesh)
        assert max(cs) <= 5.0 * min(cs), (name, cs)
        print(f"ACCEPTANCE 4 PASS ({name}): c per level {['%.3f' % c for c in cs]}")


# ------------------------------------------------------------- criteria 5 + 6


@pytest.fixture(scope="module")
def convergence_studies():
    configs = [
        ("poisson_singleton", 2, 0),
        ("poisson_singleton", 3, 1),
        ("two_control_switch", 2, 1),
        ("two_control_switch", 3, 0),
    ]
    traces = {}
    for name, p, s in configs:
        cfg = AdaptiveConfig(space=SpaceConfig(p=p, s=s),
                             params=FormParams.defaults(p, s),
                             uniform=True, max_iters=5)
        traces[(name, p, s)] = adaptive_solve(get_problem(name),
                                              unit_square_mesh(4), cfg)
    return traces


def test_criterion_5_convergence_rates(convergence_studies):
    """Uniform-refinement error slopes: p=2 in [0.8,1.2], p=3 in [1.7,2.3]."""
    for (name, p, s), trace in convergence_studies.items():
        errs = np.array([st.err_norm_k for st in trace.steps])
        hs = np.array([st.h_max for st in trace.steps])
        assert trace.steps[-1].ndofs <= 100_000
        slope = np.polyfit(np.log(hs[-3:]), np.log(errs[-3:]), 1)[0]
        lo, hi = (0.8, 1.2) if p == 2 else (1.7, 2.3)
        assert lo <= slope <= hi, (name, p, s, slope)
        print(f"ACCEPTANCE 5 PASS ({name}, p={p}, s={s}): slope {slope:.3f}")


def test_criterion_6_estimator_ratio_band(convergence_studies):
    """eta/error ratio stays inside a band with spread < 10x on every study."""
    for (name, p, s), trace in convergence_studies.items():
        ratios = np.array([st.eta_total / st.err_norm_k for st in trace.steps])
        assert np.all(np.isfinite(ratios)) and np.all(ratios > 0)
        spread = ratios.max() / ratios.min()
        assert spread < 10.0, (name, p, s, ratios)
        print(f"ACCEPTANCE 6 PASS ({name}, p={p}, s={s}): "
              f"ratio in [{ratios.min():.2f}, {ratios.max():.2f}]")


# ---------------------------------------------------------------- criterion 7


def test_criterion_7_adaptive_eta_decrease():
    """Adaptive Doerfler 0.5 run drives eta below 1e-2 of its initial value;
    the marked set contains the estimator argmax at every iteration."""
    audits = []

    def callback(step, mesh, space, u, report):
        if step.marked:
            marked = mark(report, "doerfler", 0.5)
            audits.append(int(np.argmax(report.per_element)) in marked)

    cfg = AdaptiveConfig(space=SpaceConfig(p=3, s=0),
                         params=FormParams.defaults(3, 0),
                         strategy="doerfler", strategy_param=0.5,
                         max_dofs=50_000, max_iters=60)
    trace = adaptive_solve(get_problem("two_control_switch"),
                           unit_square_mesh(4), cfg, callback=callback)
    etas = [st.eta_total for st in trace.steps]
    assert etas[-1] <= 1e-2 * etas[0], (etas[0], etas[-1])
    assert audits and all(audits)
    print(f"ACCEPTANCE 7 PASS: eta {etas[0]:.3e} -> {etas[-1]:.3e} "
          f"({len(etas)} iterations, argmax audit clean)")


# ---------------------------------------------------------------- criterion 8


def test_criterion_8_norm_monotonicity():
    """||v||_m is nondecreasing along uniform refinements of a fixed function."""
    coarse = build_space(unit_square_mesh(2), SpaceConfig(p=2, s=0))
    for trial in range(10):
        coeffs = RNG.standard_normal(coarse.dim)
        u = DiscreteFunction(coarse, coeffs)
        vals = [norm_k(coarse, coeffs)]
        mesh = coarse.mesh
        for _ in range(4):
            mesh = uniform_refine(mesh)
            fine = build_space(mesh, SpaceConfig(p=2, s=0))
            coeffs_f = transfer_solution(u, fine)
            u = DiscreteFunction(fine, coeffs_f)
            vals.append(norm_k(fine, coeffs_f))
        assert np.all(np.diff(vals) >= -1e-12 * max(vals)), (trial, vals)
    print("ACCEPTANCE 8 PASS: norm nondecreasing for 10 random coarse functions")


# ---------------------------------------------------------------- criterion 9


def test_criterion_9_mesh_suite():
    """Conformity, nestedness, normal stability, shape-regularity saturation
    over 10 uniform and 10 adaptive rounds."""

    def audit(coarse, fine):
        for f in range(fine.n_faces):
            if fine.face_elems[f, 1] >= 0:
                va, vb = fine.face_verts[f]
                for e in fine.face_elems[f]:
                    assert {va, vb} <= set(fine.tri[e])
        for parent in range(coarse.n_elements):
            mask = fine.ancestor == parent
            assert abs(np.sum(fine.areas()[mask]) - coarse.areas()[parent]) < 1e-12
        coarse_normals = {tuple(sorted(coarse.face_verts[f])): coarse.face_normals[f]
                          for f in range(coarse.n_faces)}
        for f in range(fine.n_faces):
            key = tuple(sorted(fine.face_verts[f]))
            if key in coarse_normals:
                assert np.allclose(fine.face_normals[f], coarse_normals[key],
                                   atol=1e-14)

    mesh = unit_square_mesh(2)
    angle0 = min_angle(mesh)
    regs = []
    for _ in range(10):
        fine = uniform_refine(mesh)
        audit(mesh, fine)
        mesh = fine
        regs.append(shape_regularity(mesh))
    assert min_angle(mesh) >= 0.5 * angle0 - 1e-12

    mesh = unit_square_mesh(2)
    for _ in range(10):
        marked = set(RNG.choice(mesh.n_elements,
                                size=max(1, mesh.n_elements // 3),
                                replace=False).tolist())
        fine = refine_conforming(mesh, marked)
        audit(mesh, fine)
        mesh = fine
        regs.append(shape_regularity(mesh))
    assert max(regs) <= 2.0 * regs[0] + 1e-12
    print(f"ACCEPTANCE 9 PASS: mesh suite clean, shape regularity "
          f"saturates at {max(regs):.3f}")


# --------------------------------------------------------------- criterion 10


def test_criterion_10_determinism(tmp_path):
    """Identical config + seed, single thread: byte-identical trace.csv."""
    args = ["--problem", "two_control_switch", "--p", "2", "--cont", "dg",
            "--mark", "doerfler:0.5", "--max-dofs", "2000", "--n0", "2",
            "--seed", "11", "--threads", "1"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run_study(build_config(args + ["--out", str(out_a)]))
    run_study(build_config(args + ["--out", str(out_b)]))
    blob_a = (out_a / "trace.csv").read_bytes()
    blob_b = (out_b / "trace.csv").read_bytes()
    assert blob_a == blob_b
    print(f"ACCEPTANCE 10 PASS: byte-identical traces ({len(blob_a)} bytes)")
