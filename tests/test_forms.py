"""Stabilization, liftings, penalties, residual/Jacobian, mesh-dependent norms."""

import gc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from cordesfem import (
    DiscreteFunction,
    FormParams,
    SpaceConfig,
    build_space,
    frozen_jacobian,
    get_problem,
    jump_penalty_form,
    jump_seminorm,
    lifted_hessian,
    nonlinear_residual,
    norm_k,
    project_l2,
    solve_discrete,
    stab_form,
    uniform_refine,
    unit_square_mesh,
)
from cordesfem.cordes import frozen_coefficients
from cordesfem.forms import get_operators
from cordesfem.mesh import INTERIOR
from cordesfem.quadrature import quadrature_rule


# --------------------------------------------------------- stabilization form


@pytest.mark.parametrize("p,s", [(2, 0), (2, 1), (3, 0), (3, 1)])
def test_facewise_equals_lifted(p, s, spaces, rng):
    space = spaces(3, p, s)
    for _ in range(10):
        w = rng.standard_normal(space.dim)
        v = rng.standard_normal(space.dim)
        a = stab_form(space, w, v, mode="facewise")
        b = stab_form(space, w, v, mode="lifted")
        assert abs(a - b) <= 1e-10 * (1 + abs(a))


def test_stab_form_symmetric(spaces, rng):
    space = spaces(2, 2, 0)
    w = rng.standard_normal(space.dim)
    v = rng.standard_normal(space.dim)
    assert stab_form(space, w, v) == pytest.approx(stab_form(space, v, w),
                                                  abs=1e-12 * (1 + abs(stab_form(space, w, v))))


def test_stab_form_bounded_by_jump_seminorms(mesh_hierarchy, rng):
    # |S_k(w,v)| <= C |w|_J |v|_J with C stable across levels
    consts = []
    for mesh in mesh_hierarchy[:3]:
        space = build_space(mesh, SpaceConfig(p=2, s=0))
        worst = 0.0
        for _ in range(20):
            w = rng.standard_normal(space.dim)
            v = rng.standard_normal(space.dim)
            denom = jump_seminorm(space, w) * jump_seminorm(space, v)
            worst = max(worst, abs(stab_form(space, w, v)) / denom)
        consts.append(worst)
    assert max(consts) <= 10 * min(consts)


# --------------------------------------------------------------------- lifting


def test_zero_function_lifts_to_zero(spaces):
    space = spaces(1, 2, 0)
    field = lifted_hessian(space, DiscreteFunction(space, np.zeros(space.dim)))
    assert np.abs(field.lifted_hess).max() == 0.0


def test_unit_jump_lifting_value_from_definition():
    # lifting of a synthetic unit scalar jump on the diagonal of the
    # two-triangle square, computed from the defining variational problem
    # with piecewise constants: r = |F| / (2 |K|) = sqrt(2)
    mesh = unit_square_mesh(1)
    f = int(np.flatnonzero(mesh.face_kind == INTERIOR)[0])
    va, vb = mesh.face_verts[f]
    length = float(np.linalg.norm(mesh.vertices[vb] - mesh.vertices[va]))
    for e in mesh.face_elems[f]:
        area = mesh.areas()[e]
        r = 0.5 * length * 1.0 / area
        assert r == pytest.approx(np.sqrt(2.0))


def test_lifting_adjoint_identity(spaces, rng):
    # int_Omega r(jump grad u)_ij psi = sum_F c_F int_F jump(d_i u) n_j avg(psi)
    # for the full modal test basis, both integrals by independent quadrature
    space = spaces(2, 2, 0)
    mesh = space.mesh
    ops = get_operators(space)
    u = rng.standard_normal(space.dim)
    seg = quadrature_rule("segment", 2 * space.config.q + 4)

    for (i, j) in ((0, 0), (0, 1), (1, 0), (1, 1)):
        lifted = (ops.R[(i, j)] @ u).reshape(mesh.n_elements, ops.nmod)
        # LHS per (element, modal test index) via triangle quadrature
        psi = ops.modal.eval(ops.ref_pts, 0)  # (nq, nmod)
        rvals = lifted @ psi.T  # (ne, nq)
        lhs = np.einsum("q,eq,qa,e->ea", ops.wq, rvals, psi, space.detJ)

        rhs = np.zeros_like(lhs)
        for f in range(mesh.n_faces):
            va, vb = mesh.face_verts[f]
            pa, pb = mesh.vertices[va], mesh.vertices[vb]
            length = np.linalg.norm(pb - pa)
            xq = (1 - seg.points[:, 0])[:, None] * pa + seg.points[:, 0][:, None] * pb
            wq = seg.weights * length
            n = mesh.face_normals[f]
            e_minus, e_plus = mesh.face_elems[f]
            g_minus = np.einsum(
                "ql,l->q",
                space.eval_shape(e_minus, space.to_reference(e_minus, xq), 1)[:, :, i],
                u[space.dofmap[e_minus]],
            )
            if e_plus >= 0:
                g_plus = np.einsum(
                    "ql,l->q",
                    space.eval_shape(e_plus, space.to_reference(e_plus, xq), 1)[:, :, i],
                    u[space.dofmap[e_plus]],
                )
                jump_i = g_minus - g_plus
                cF = 0.5
                sides = (e_minus, e_plus)
            else:
                # boundary: lift only the tangential component of the trace
                grad = np.einsum(
                    "qlk,l->qk",
                    space.eval_shape(e_minus, space.to_reference(e_minus, xq), 1),
                    u[space.dofmap[e_minus]],
                )
                tang = grad - np.outer(grad @ n, n)
                jump_i = tang[:, i]
                cF = 1.0
                sides = (e_minus,)
            for e in sides:
                psi_f = ops.modal.eval(space.to_reference(e, xq), 0)
                rhs[e] += cF * n[j] * np.einsum("q,q,qa->a", wq, jump_i, psi_f)
        scale = 1.0 + np.abs(rhs).max()
        assert np.abs(lhs - rhs).max() <= 1e-11 * scale, (i, j)


def test_boundary_lifting_has_zero_trace(spaces, rng):
    # a globally continuous DG member has no interior gradient jumps, so the
    # trace of its lifting comes from boundary faces alone and must vanish
    space = spaces(2, 2, 0)
    ops = get_operators(space)
    v = project_l2(space, lambda x: x[:, 0] ** 2 + 0.5 * x[:, 0] * x[:, 1])
    tr = ops.TrR @ v.coeffs
    assert np.abs(tr).max() <= 1e-12


# ---------------------------------------------------------------- jump penalty


def test_jump_penalty_piecewise_indicator():
    # u = 1 on one triangle of the unit square, 0 on the other, rho = 1:
    # two unit boundary faces contribute 1 each, the diagonal contributes
    # h^-3 |F| = 1/2, gradient jumps vanish
    mesh = unit_square_mesh(1)
    space = build_space(mesh, SpaceConfig(p=2, s=0))
    coeffs = np.zeros(space.dim)
    # constant 1 on element 0: scale the constant modal function to value one
    phi0 = space.eval_shape(0, np.array([[0.25, 0.25]]), 0)[0, 0]
    coeffs[space.dofmap[0][0]] = 1.0 / phi0
    params = FormParams(theta=0.5, sigma=7.0, rho=1.0)
    val = jump_penalty_form(space, coeffs, coeffs, params)
    assert val == pytest.approx(2.5, rel=1e-12)


def test_jump_penalty_zero_and_positive(spaces, rng):
    space = spaces(2, 2, 0)
    params = FormParams.defaults(2, 0)
    zero = np.zeros(space.dim)
    assert jump_penalty_form(space, zero, zero, params) == 0.0
    for _ in range(5):
        v = rng.standard_normal(space.dim)
        assert jump_penalty_form(space, v, v, params) >= 0.0


# -------------------------------------------------------------------- residual


def test_residual_zero_for_trivial_problem(spaces):
    from cordesfem.cordes import CoefficientField, ControlProblem, ControlSet

    prob = ControlProblem(
        domain=np.array([[0.0, 0], [1, 0], [1, 1], [0, 1]]),
        controls=ControlSet(alphas=[0], betas=[0]),
        coeffs=CoefficientField(
            a=lambda x, a, b: np.broadcast_to(np.eye(2), (len(x), 2, 2)).copy(),
            f=lambda x, a, b: np.zeros(len(x)),
        ),
        nu=1.0,
    )
    space = spaces(1, 2, 0)
    u = DiscreteFunction(space, np.zeros(space.dim))
    r = nonlinear_residual(space, prob, u, FormParams.defaults(2, 0))
    assert np.abs(r).max() == 0.0


def test_residual_affine_for_singleton_controls(spaces, rng):
    prob = get_problem("poisson_singleton")
    space = spaces(1, 2, 0)
    params = FormParams.defaults(2, 0)
    u = rng.standard_normal(space.dim)
    w = rng.standard_normal(space.dim)
    r0 = nonlinear_residual(space, prob, DiscreteFunction(space, u), params)
    r1 = nonlinear_residual(space, prob, DiscreteFunction(space, u + w), params)
    r2 = nonlinear_residual(space, prob, DiscreteFunction(space, u + 2 * w), params)
    # second difference of an affine map vanishes
    assert np.abs(r2 - 2 * r1 + r0).max() <= 1e-10 * (1 + np.abs(r1).max())


def test_residual_small_at_converged_solution(spaces):
    prob = get_problem("two_control_switch")
    space = spaces(1, 2, 0)
    params = FormParams.defaults(2, 0)
    u, stats = solve_discrete(space, prob, params)
    r = nonlinear_residual(space, prob, u, params)
    assert np.abs(r).max() <= 1e-6


# -------------------------------------------------------------------- jacobian


def test_jacobian_constant_for_singleton_controls(spaces, rng):
    prob = get_problem("poisson_singleton")
    space = spaces(1, 2, 0)
    params = FormParams.defaults(2, 0)
    J0 = frozen_jacobian(space, prob,
                         DiscreteFunction(space, np.zeros(space.dim)), params)
    J1 = frozen_jacobian(space, prob,
                         DiscreteFunction(space, rng.standard_normal(space.dim)),
                         params)
    assert abs(J0 - J1).max() <= 1e-12 * abs(J0).max()


def test_jacobian_matches_directional_derivative(spaces, rng):
    prob = get_problem("two_control_switch")
    space = spaces(1, 2, 0)
    params = FormParams.defaults(2, 0)
    u = 0.1 * rng.standard_normal(space.dim)
    w = rng.standard_normal(space.dim)
    J = frozen_jacobian(space, prob, DiscreteFunction(space, u), params)
    t = 1e-6
    r0 = nonlinear_residual(space, prob, DiscreteFunction(space, u), params)
    rt = nonlinear_residual(space, prob, DiscreteFunction(space, u + t * w), params)
    fd = (rt - r0) / t
    Jw = J @ w
    assert np.abs(fd - Jw).max() <= 1e-5 * (1 + np.abs(Jw).max())


def test_jacobian_coercive_sample(spaces, rng):
    prob = get_problem("two_control_switch")
    space = spaces(1, 2, 0)
    params = FormParams.defaults(2, 0)
    J = frozen_jacobian(space, prob,
                        DiscreteFunction(space, rng.standard_normal(space.dim)),
                        params)
    cs = []
    for _ in range(10):
        x = rng.standard_normal(space.dim)
        cs.append(float(x @ (J @ x)) / float(x @ x))
    assert min(cs) > 0.0


@pytest.mark.parametrize("p,s", [(2, 0), (2, 1), (3, 0), (3, 1)])
def test_jacobian_matches_modal_triple_product(p, s, spaces, rng):
    # Delta_k^T P_ij D2_ij summed over the Hessian components, with P_ij the
    # block-diagonal modal mass weighted by the frozen gamma a_ij
    prob = get_problem("rotated_anisotropic")
    space = spaces(3, p, s)
    params = FormParams.defaults(p, s)
    ops = get_operators(space)
    u = DiscreteFunction(space, rng.standard_normal(space.dim))
    ne = space.mesh.n_elements
    c = frozen_coefficients(prob, ops.X.reshape(-1, 2), ops.hessian_at_qp(u))
    c = c.reshape(ne, -1, 2, 2)
    ref = params.theta * ops.S_facewise + ops.penalty_matrix(params)
    for (i, j), mult in (((0, 0), 1.0), ((0, 1), 2.0), ((1, 1), 1.0)):
        blocks = np.einsum("e,q,eq,qa,qb->eab", space.detJ, ops.wq, c[:, :, i, j],
                           ops.Bm, ops.Bm)
        P = sp.block_diag(list(blocks), format="csr")
        ref = ref + mult * (ops.Delta_k.T @ (P @ ops.D2[(i, j)]))
    ref = ref.tocsr()
    J = frozen_jacobian(space, prob, u, params)
    assert abs(J - ref).max() <= 1e-13 * abs(ref).max()
    for A in (J, ref):
        A.eliminate_zeros()
        A.sort_indices()
    assert np.array_equal(J.indptr, ref.indptr)
    assert np.array_equal(J.indices, ref.indices)


@pytest.mark.parametrize("s", [0, 1])
def test_cached_newton_data_follows_problem_and_params(s, mesh_hierarchy, rng):
    # one space serving alternating problems and parameters gives the
    # numbers of a fresh space for each combination
    mesh, p = mesh_hierarchy[1], 2
    probs = [get_problem("rotated_anisotropic"), get_problem("two_control_switch")]
    params = [FormParams.defaults(p, s), FormParams(0.3, 7.0, 50.0 * (s == 0))]
    space = build_space(mesh, SpaceConfig(p=p, s=s))
    coeffs = rng.standard_normal(space.dim)
    for ip, ifp in ((0, 0), (1, 0), (1, 1), (0, 1), (0, 0), (1, 1)):
        prob, par = probs[ip], params[ifp]
        fresh = build_space(mesh, SpaceConfig(p=p, s=s))
        u, uf = DiscreteFunction(space, coeffs), DiscreteFunction(fresh, coeffs)
        assert np.array_equal(nonlinear_residual(space, prob, u, par),
                              nonlinear_residual(fresh, prob, uf, par))
        J = frozen_jacobian(space, prob, u, par)
        Jf = frozen_jacobian(fresh, prob, uf, par)
        assert (J != Jf).nnz == 0


def test_operators_freed_with_their_space():
    # no reference cycle between a space and its operators: they go with
    # the last reference to the space, without the cyclic collector
    gc.collect()
    gc.disable()
    try:
        space = build_space(unit_square_mesh(2), SpaceConfig(p=2, s=0))
        prob, params = get_problem("two_control_switch"), FormParams.defaults(2, 0)
        u = DiscreteFunction(space, np.ones(space.dim))
        nonlinear_residual(space, prob, u, params)
        frozen_jacobian(space, prob, u, params)
        ops = weakref.ref(get_operators(space))
        del space, u
        assert ops() is None
    finally:
        gc.enable()


# ----------------------------------------------------------------------- norms


def test_norms_of_zero(spaces):
    space = spaces(1, 2, 0)
    zero = np.zeros(space.dim)
    assert norm_k(space, zero) == 0.0
    assert jump_seminorm(space, zero) == 0.0


def test_norm_oracle_quadratic():
    # v = x^2/2 on the two-triangle square; independent closed-form value:
    # volume 1 + 1/3 + 1/20, boundary value jumps 1/20 + 1/20 + 1/4
    mesh = unit_square_mesh(1)
    space = build_space(mesh, SpaceConfig(p=2, s=0))
    v = project_l2(space, lambda x: 0.5 * x[:, 0] ** 2)
    exact = np.sqrt(1.0 + 1.0 / 3.0 + 1.0 / 20.0 + 0.35)
    assert norm_k(space, v.coeffs) == pytest.approx(exact, rel=1e-10)


def test_norm_nondecreasing_under_uniform_refinement(rng):
    from cordesfem.adapt import transfer_solution

    mesh = unit_square_mesh(2)
    space = build_space(mesh, SpaceConfig(p=2, s=0))
    coeffs = rng.standard_normal(space.dim)
    vals = [norm_k(space, coeffs)]
    u = DiscreteFunction(space, coeffs)
    for _ in range(4):
        mesh = uniform_refine(mesh)
        fine = build_space(mesh, SpaceConfig(p=2, s=0))
        coeffs = transfer_solution(u, fine)
        u = DiscreteFunction(fine, coeffs)
        vals.append(norm_k(fine, coeffs))
    diffs = np.diff(vals)
    assert np.all(diffs >= -1e-12 * max(vals))
