"""Stabilization, liftings, penalties, residual/Jacobian, mesh-dependent norms."""

import gc
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import jacobian, mass_matrix, project_l2, quadrature_rule
from lifted_oracle import (D2, Delta_k, R, S_lifted, TrR, assemble_csr,
                           shape_hessians)

from cordesfem import (
    DiscreteFunction,
    FormParams,
    SpaceConfig,
    build_space,
    get_problem,
    jump_seminorm,
    nonlinear_residual,
    norm_k,
    refine_conforming,
    solve_discrete,
    stab_form,
    uniform_refine,
    unit_square_mesh,
)
from cordesfem import cordes, estimate, forms
from cordesfem.adapt import error_norm_k
from cordesfem.basis import RefBasis
from cordesfem.cordes import frozen_coefficients
from cordesfem.fespace import SpaceError
from cordesfem.forms import (FaceTables, Operators, edge_tables, elem_tensors,
                             face_jumps, face_pattern, face_tables, get_operators)
from cordesfem.mesh import convex_polygon_mesh
from cordesfem.quadrature import segment_rule


# --------------------------------------------------------- stabilization form


@pytest.mark.parametrize("p,s", [(2, 0), (2, 1), (3, 0), (3, 1)])
def test_facewise_equals_lifted(p, s, spaces, rng):
    space = spaces(3, p, s)
    S = S_lifted(space)
    for _ in range(10):
        w = rng.standard_normal(space.dim)
        v = rng.standard_normal(space.dim)
        a = stab_form(space, w, v)
        b = float(w @ (S @ v))
        assert abs(a - b) <= 1e-10 * (1 + abs(a))


def test_stab_form_symmetric(spaces, rng):
    space = spaces(2, 2, 0)
    w = rng.standard_normal(space.dim)
    v = rng.standard_normal(space.dim)
    wv = stab_form(space, w, v)
    assert wv == pytest.approx(stab_form(space, v, w), abs=1e-12 * (1 + abs(wv)))


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
    # the broken Hessian and lifting maps send zero to zero
    x = np.zeros(space.dim)
    for A in (*D2(space).values(), *R(space).values()):
        assert np.abs(A @ x).max() == 0.0


def test_unit_jump_lifting_value_from_definition():
    # lifting of a synthetic unit scalar jump on the diagonal of the
    # two-triangle square, computed from the defining variational problem
    # with piecewise constants: r = |F| / (2 |K|) = sqrt(2)
    mesh = unit_square_mesh(1)
    f = int(np.flatnonzero(mesh.face_elems[:, 1] >= 0)[0])
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
    ops, lifts = get_operators(space), R(space)
    u = rng.standard_normal(space.dim)
    seg = quadrature_rule("segment", 2 * space.config.q + 4)

    for (i, j) in ((0, 0), (0, 1), (1, 0), (1, 1)):
        lifted = (lifts[(i, j)] @ u).reshape(mesh.n_elements, ops.nmod)
        # LHS per (element, modal test index) via triangle quadrature
        psi = ops.modal.eval(space.elem_rule.points, 0)  # (nq, nmod)
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
                space.shapes(space.ref_points(xq, [e_minus])[0], 1,
                             [e_minus])[0][:, :, i],
                u[space.dofmap[e_minus]],
            )
            if e_plus >= 0:
                g_plus = np.einsum(
                    "ql,l->q",
                    space.shapes(space.ref_points(xq, [e_plus])[0], 1,
                                 [e_plus])[0][:, :, i],
                    u[space.dofmap[e_plus]],
                )
                jump_i = g_minus - g_plus
                cF = 0.5
                sides = (e_minus, e_plus)
            else:
                # boundary: lift only the tangential component of the trace
                grad = np.einsum(
                    "qlk,l->qk",
                    space.shapes(space.ref_points(xq, [e_minus])[0], 1, [e_minus])[0],
                    u[space.dofmap[e_minus]],
                )
                tang = grad - np.outer(grad @ n, n)
                jump_i = tang[:, i]
                cF = 1.0
                sides = (e_minus,)
            for e in sides:
                psi_f = ops.modal.eval(space.ref_points(xq, [e])[0], 0)
                rhs[e] += cF * n[j] * np.einsum("q,q,qa->a", wq, jump_i, psi_f)
        scale = 1.0 + np.abs(rhs).max()
        assert np.abs(lhs - rhs).max() <= 1e-11 * scale, (i, j)


def test_boundary_lifting_has_zero_trace(spaces, rng):
    # a globally continuous DG member has no interior gradient jumps, so the
    # trace of its lifting comes from boundary faces alone and must vanish
    space = spaces(2, 2, 0)
    v = project_l2(space, lambda x: x[:, 0] ** 2 + 0.5 * x[:, 0] * x[:, 1])
    tr = TrR(space) @ v.coeffs
    assert np.abs(tr).max() <= 1e-12


# ---------------------------------------------------------------- jump penalty


def _jump_penalty(space, params):
    """sigma Jgrad + rho Jval on the pattern: the linear part at theta 0."""
    return get_operators(space).linear_part(replace(params, theta=0.0))[0]


def test_jump_penalty_piecewise_indicator():
    # u = 1 on one triangle of the unit square, 0 on the other, rho = 1:
    # two unit boundary faces contribute 1 each, the diagonal contributes
    # h^-3 |F| = 1/2, gradient jumps vanish
    mesh = unit_square_mesh(1)
    space = build_space(mesh, SpaceConfig(p=2, s=0))
    coeffs = np.zeros(space.dim)
    # constant 1 on element 0: scale the constant modal function to value one
    phi0 = space.shapes(np.array([[0.25, 0.25]]), 0, [0])[0][0, 0]
    coeffs[space.dofmap[0][0]] = 1.0 / phi0
    params = FormParams(theta=0.5, sigma=7.0, rho=1.0)
    val = coeffs @ (_jump_penalty(space, params) @ coeffs)
    assert val == pytest.approx(2.5, rel=1e-12)


def test_jump_penalty_zero_and_positive(spaces, rng):
    space = spaces(2, 2, 0)
    params = FormParams.defaults(2, 0)
    zero, J = np.zeros(space.dim), _jump_penalty(space, params)
    assert zero @ (J @ zero) == 0.0
    for _ in range(5):
        v = rng.standard_normal(space.dim)
        assert v @ (J @ v) >= 0.0


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


def test_dg_residual_and_jacobian_need_positive_rho(spaces):
    # the value-jump penalty keeps the DG form coercive; the linear part,
    # which both read, checks the FormParams once
    space = spaces(0, 2, 0)
    u = DiscreteFunction(space, np.zeros(space.dim))
    prob, params = get_problem("poisson_singleton"), FormParams(sigma=40.0, rho=0.0)
    with pytest.raises(SpaceError):
        nonlinear_residual(space, prob, u, params)
    with pytest.raises(SpaceError):
        jacobian(space, prob, u, params)


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
    J0 = jacobian(space, prob, DiscreteFunction(space, np.zeros(space.dim)), params)
    J1 = jacobian(space, prob,
                  DiscreteFunction(space, rng.standard_normal(space.dim)), params)
    assert abs(J0 - J1).max() <= 1e-12 * abs(J0).max()


def test_jacobian_matches_directional_derivative(spaces, rng):
    prob = get_problem("two_control_switch")
    space = spaces(1, 2, 0)
    params = FormParams.defaults(2, 0)
    u = 0.1 * rng.standard_normal(space.dim)
    w = rng.standard_normal(space.dim)
    J = jacobian(space, prob, DiscreteFunction(space, u), params)
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
    J = jacobian(space, prob,
                 DiscreteFunction(space, rng.standard_normal(space.dim)), params)
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
    c = frozen_coefficients(prob, ops.X.reshape(-1, 2), u.eval_table(ops.ref_hess, 2))
    c = c.reshape(ne, -1, 2, 2)
    # the linear part from the einsum oracle, weighted by theta, sigma, rho
    want = _einsum_matrices(space, ops)
    ref = sum(w * want[name][0] for w, name in (
        (params.theta, "S_facewise"), (params.sigma, "Jgrad"), (params.rho, "Jval")))
    lap, hess = Delta_k(space), D2(space)
    for (i, j), mult in (((0, 0), 1.0), ((0, 1), 2.0), ((1, 1), 1.0)):
        blocks = np.einsum("e,q,eq,qa,qb->eab", space.detJ, ops.wq, c[:, :, i, j],
                           ops.Bm, ops.Bm)
        P = sp.block_diag(list(blocks), format="csr")
        ref = ref + mult * (lap.T @ (P @ hess[(i, j)]))
    ref = ref.tocsr()
    # a copy: the Jacobian shares the pattern's read-only index arrays
    J = jacobian(space, prob, u, params).copy()
    assert abs(J - ref).max() <= 1e-13 * abs(ref).max()
    for A in (J, ref):
        A.eliminate_zeros()
        A.sort_indices()
    assert np.array_equal(J.indptr, ref.indptr)
    assert np.array_equal(J.indices, ref.indices)


def _einsum_matrices(space, ops):
    # the volume Grams, face Grams, D2 and R maps as naive einsums over the
    # same shape and face tables; each matrix comes with the largest local
    # entry summed into it, the scale of its roundoff (the value jumps of a
    # C0 space cancel, so its Jval is roundoff only)
    w, dJ = ops.wq, space.detJ
    PG, PH = space.shapes(space.elem_rule.points, 1), shape_hessians(space)
    lapl = np.einsum("eqlii->eql", PH)
    shape = (space.dim, space.dim)

    def scatter(rows, cols, data, shape=shape):
        return assemble_csr(rows, cols, data, shape), np.abs(data).max()

    rows, cols = space.dofmap[:, :, None], space.dofmap[:, None, :]
    M0 = mass_matrix(space)
    M0 = M0, abs(M0).max()
    M1, M2, ML = (scatter(rows, cols, M) for M in (
        np.einsum("e,q,eqai,eqbi->eab", dJ, w, PG, PG),
        np.einsum("e,q,eqaij,eqbij->eab", dJ, w, PH, PH),
        np.einsum("e,q,eqa,eqb->eab", dJ, w, lapl, lapl)))
    # the averaged Hessian traces from the face points mapped into each side
    ft = face_tables(space, ops.modal)[0]
    ahess = _merged(ft.avg, _ref_point_traces(space, ops.modal)[2])
    n, wq, I = space.mesh.face_normals, ft.wq, ft.interior
    jn, jt = np.moveaxis(ft.jgrad, -1, 0)
    # the Cartesian gradient jumps from their face-frame components
    t = np.stack([-n[:, 1], n[:, 0]], axis=1)
    g = jn[..., None] * n[:, None, None] + jt[..., None] * t[:, None, None]
    rows, cols = ft.dofs[:, :, None], ft.dofs[:, None, :]
    h = ft.length[:, None, None]
    Jgrad = scatter(rows[I], cols[I], (1.0 / h[I]) * np.einsum(
        "fq,fqai,fqbi->fab", wq[I], g[I], g[I]))
    Jval = scatter(rows, cols, (1.0 / h**3) * np.einsum(
        "fq,fqa,fqb->fab", wq, ft.jval, ft.jval))
    tHn = np.einsum("fi,fqaij,fj->fqa", t, ahess, n)
    tt = np.einsum("fi,fqaij,fj->fqa", t, ahess, t)
    loc = -np.einsum("fq,fqa,fqb->fab", wq, tHn, np.einsum("fqai,fi->fqa", g, t))
    l2 = np.einsum("fq,fqa,fqb->fab", wq * I[:, None], tt,
                   np.einsum("fqai,fi->fqa", g, n))
    Sface = scatter(rows, cols,
                    loc + loc.transpose(0, 2, 1) + l2 + l2.transpose(0, 2, 1))

    def total(*parts):
        return sum(A for A, _ in parts), max(scale for _, scale in parts)

    out = {
        "norm_gram": total(M2, M1, M0, Jgrad, Jval),
        "S_facewise": total(M2, (-ML[0], ML[1]), Sface),
        "Jgrad": Jgrad, "Jval": Jval,
    }
    ne, nmod = space.mesh.n_elements, ops.nmod
    mshape = (ne * nmod, space.dim)
    coeff = np.einsum("q,qa,eqlij->eailj", w, ops.Bm, PH)
    mrows = (np.arange(ne)[:, None] * nmod + np.arange(nmod))[:, :, None]
    for i, j in ((0, 0), (0, 1), (1, 1)):
        out[f"D2{i}{j}"] = scatter(mrows, space.dofmap[:, None, :],
                                   coeff[:, :, i, :, j], mshape)
    tangential = g - np.einsum("fqai,fi,fj->fqaj", g, n, n)
    src = np.where(I[:, None, None, None], g, tangential)
    scale = ft.avg / dJ[ft.elems]
    elems = ft.elems[:, :, None]
    rrows = np.where(elems >= 0, elems * nmod + np.arange(nmod), ne * nmod)[..., None]
    for i in (0, 1):
        loc = np.einsum("fq,fqa,fsqm->fsma", wq, src[..., i], ft.psi)
        for j in (0, 1):
            data = (scale * n[:, j, None])[:, :, None, None] * loc
            out[f"R{i}{j}"] = scatter(rrows, ft.dofs[:, None, None, :], data, mshape)
    return out


@pytest.mark.parametrize("s", [0, 1])
@pytest.mark.parametrize("p", [2, 3, 4])
def test_matmul_assembly_matches_einsum(p, s, spaces):
    space = spaces(3, p, s)
    ops = get_operators(space)
    # the jump penalties' data on the pattern, which the linear part sums
    got = {"norm_gram": ops.norm_gram, "S_facewise": ops.S_facewise,
           "Jgrad": ops.pattern.csr(ops._jgrad), "Jval": ops.pattern.csr(ops._jval)}
    got.update({f"D2{i}{j}": A for (i, j), A in D2(space).items()})
    got.update({f"R{i}{j}": A for (i, j), A in R(space).items()})
    want = _einsum_matrices(space, ops)
    assert got.keys() == want.keys()
    for name, (ref, scale) in want.items():
        A, ref = got[name].tocsr(), ref.tocsr()
        tol = 1e-13 * scale
        assert abs(A - ref).max() <= tol, name
        if name == "S_facewise":
            # M2 - ML + Sface cancels exactly in places, and sparse addition
            # drops exact zeros, so which roundoff-sized entries it stores
            # depends on the summation order; compare the rest
            A, ref = (M.multiply(abs(M) > tol).tocsr() for M in (A, ref))
        A.sort_indices()
        ref.sort_indices()
        assert np.array_equal(A.indptr, ref.indptr), name
        assert np.array_equal(A.indices, ref.indices), name


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
        J = jacobian(space, prob, u, par)
        Jf = jacobian(fresh, prob, uf, par)
        assert (J != Jf).nnz == 0


@pytest.mark.parametrize("s", [0, 1])
def test_jacobian_reuses_the_controls_of_its_residual(s, rng, monkeypatch):
    # after a residual at u, the Jacobian at u finds no controls and equals
    # the one of a fresh space bitwise; an in-place change of u's
    # coefficients, or another problem, makes it find them anew
    calls = []
    inf_sup = cordes.inf_sup

    def counting(*args):
        calls.append(1)
        return inf_sup(*args)

    monkeypatch.setattr(cordes, "inf_sup", counting)
    mesh, p = refine_conforming(unit_square_mesh(4), [0, 3, 7]), 3
    params = FormParams.defaults(p, s)
    probs = [get_problem("rotated_anisotropic"), get_problem("two_control_switch")]
    space = build_space(mesh, SpaceConfig(p=p, s=s))
    u = DiscreteFunction(space, rng.standard_normal(space.dim))

    def fresh(prob):
        other = build_space(mesh, SpaceConfig(p=p, s=s))
        return jacobian(other, prob, DiscreteFunction(other, u.coeffs.copy()),
                        params)

    def same(A, B):
        return (np.array_equal(A.indptr, B.indptr)
                and np.array_equal(A.indices, B.indices)
                and np.array_equal(A.data, B.data))

    nonlinear_residual(space, probs[0], u, params)
    calls.clear()
    J = jacobian(space, probs[0], u, params)
    assert calls == [] and same(J, fresh(probs[0]))
    u.coeffs[::2] *= 1.5
    calls.clear()
    J = jacobian(space, probs[0], u, params)
    assert calls == [1] and same(J, fresh(probs[0]))
    nonlinear_residual(space, probs[0], u, params)
    calls.clear()
    J = jacobian(space, probs[1], u, params)
    assert calls == [1] and same(J, fresh(probs[1]))


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
        jacobian(space, prob, u, params)
        ops = weakref.ref(get_operators(space))
        del space, u
        assert ops() is None
    finally:
        gc.enable()


# ------------------------------------------------- one pattern, local Delta_k

PATTERN_MESHES = {
    "nvb": lambda: refine_conforming(unit_square_mesh(4), [0, 3, 7]),
    "triangle": lambda: convex_polygon_mesh([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
}
PATTERN_CASES = [(m, p, s) for m in PATTERN_MESHES for p in (2, 3, 4) for s in (0, 1)]


@pytest.mark.parametrize("mesh,p,s", PATTERN_CASES)
def test_matrices_lie_in_the_face_pattern(mesh, p, s, rng):
    # the pattern is the set of dof pairs that share a face, from a loop
    # over the faces; its slot maps address the pairs of the element and
    # face blocks, and every matrix stores entries inside it
    space = build_space(PATTERN_MESHES[mesh](), SpaceConfig(p=p, s=s))
    ops = get_operators(space)
    P, ft, dim = ops.pattern, ops.faces, space.dim
    pairs = set()
    for dofs in ft.dofs:
        dofs = dofs[dofs < dim]
        pairs.update((int(a), int(b)) for a in dofs for b in dofs)
    row = np.repeat(np.arange(dim), np.diff(P.indptr))
    assert sorted(pairs) == list(zip(row.tolist(), P.indices.tolist()))
    elem = P.patch[:, : space.nloc]  # the element blocks' slots
    for slots, dofs in ((elem, space.dofmap), (P.face, ft.dofs)):
        a, b = np.broadcast_arrays(dofs[:, :, None], dofs[:, None, :])
        valid = (a < dim) & (b < dim)
        assert np.all(slots[~valid] == P.nnz)
        assert np.array_equal(row[slots[valid]], a[valid])
        assert np.array_equal(P.indices[slots[valid]], b[valid])
    params = FormParams.defaults(p, s)
    u = DiscreteFunction(space, rng.standard_normal(dim))
    keys = set(row * dim + P.indices.astype(np.int64))
    for A in (ops.norm_gram, ops.S_facewise, ops.linear_part(params)[0],
              jacobian(space, get_problem("rotated_anisotropic"), u, params)):
        A = A.tocoo()
        assert keys.issuperset(A.row.astype(np.int64) * dim + A.col)


@pytest.mark.parametrize("mesh,p,s", PATTERN_CASES)
def test_local_blocks_match_delta_k_formulas(mesh, p, s, rng):
    # residual and frozen Jacobian from the local blocks against the
    # Delta_k^T formulas on the lifted oracle's matrix, each within 1e-13
    # of the largest entry of the terms it sums
    space = build_space(PATTERN_MESHES[mesh](), SpaceConfig(p=p, s=s))
    ops, lap = get_operators(space), Delta_k(space)
    ne, nmod = space.mesh.n_elements, ops.nmod
    params = FormParams.defaults(p, s)
    lin, _ = ops.linear_part(params)
    for name in ("rotated_anisotropic", "two_control_switch"):
        prob = get_problem(name)
        u = DiscreteFunction(space, rng.standard_normal(space.dim))
        table = ops.coefficients(prob)
        g, ia, ib = cordes.inf_sup(table, u.eval_table(ops.ref_hess, 2))
        w = space.detJ[:, None] * ops.wq
        terms = (lap.T @ ((w * g.reshape(ne, -1)) @ ops.Bm).ravel(),
                 lin @ u.coeffs)
        scale = max(np.abs(t).max(initial=0.0) for t in terms)
        got = nonlinear_residual(space, prob, u, params)
        assert np.abs(got - sum(terms)).max(initial=0.0) <= 1e-13 * scale
        c = table.frozen(ia, ib).reshape(ne, -1, 2, 2) * w[:, :, None, None]
        blocks = np.einsum("qa,eqij,eqlij->eal", ops.Bm, c, shape_hessians(space))
        rows = (np.arange(ne)[:, None] * nmod + np.arange(nmod))[:, :, None]
        G = assemble_csr(rows, space.dofmap[:, None, :], blocks,
                         (ne * nmod, space.dim))
        terms = (lap.T @ G, lin)
        scale = max(abs(t).max() if t.nnz else 0.0 for t in terms)
        diff = jacobian(space, prob, u, params) - (terms[0] + terms[1])
        assert (abs(diff).max() if diff.nnz else 0.0) <= 1e-13 * scale


def _ref_point_traces(space, modal):
    # per-side values, gradients, Hessians and modal values with every face
    # point mapped back into its side's element and tabulated there
    mesh, nloc, nf = space.mesh, space.nloc, space.mesh.n_faces
    frule = quadrature_rule("segment", space.config.face_exactness)
    p0 = mesh.vertices[mesh.face_verts[:, 0]]
    d = mesh.vertices[mesh.face_verts[:, 1]] - p0
    xq = p0[:, None, :] + frule.points[None, :, :1] * d[:, None, :]
    elems = mesh.face_elems
    side = np.where(elems >= 0, elems, elems[:, :1]).ravel()
    ref = space.ref_points(np.repeat(xq, 2, axis=0), side)
    tab = (nf, 2, frule.n, nloc)
    return (space.shapes(ref, 0, side).reshape(tab),
            space.shapes(ref, 1, side).reshape(*tab, 2),
            space.shapes(ref, 2, side).reshape(*tab, 2, 2),
            modal.eval(ref.reshape(-1, 2), 0).reshape(nf, 2, frule.n, -1))


def _merged(w, t):
    # weight each side and merge the sides with a product and a reshape
    # copy: (nf, 2, nqf, nloc, ...) -> (nf, nqf, 2 nloc, ...)
    t = w.reshape(w.shape + (1,) * (t.ndim - 2)) * t
    return np.moveaxis(t, 1, 2).reshape(t.shape[0], t.shape[2], -1, *t.shape[4:])


@pytest.mark.parametrize("mesh,p,s", PATTERN_CASES)
def test_edge_tables_match_ref_point_traces(mesh, p, s):
    # the traces gathered from the six reference edge tables and contracted
    # in the face frame equal the Cartesian traces tabulated at the face
    # points mapped into each element, contracted with n and t
    space = build_space(PATTERN_MESHES[mesh](), SpaceConfig(p=p, s=s))
    ops = get_operators(space)
    ft, hess_tn, hess_tt = face_tables(space, ops.modal)
    val, grad, hess, psi = _ref_point_traces(space, ops.modal)
    jump = np.where(ft.interior[:, None], [1.0, -1.0], [1.0, 0.0])
    n = space.mesh.face_normals
    t = np.stack([-n[:, 1], n[:, 0]], axis=1)
    jgrad, ahess = _merged(jump, grad), _merged(ft.avg, hess)
    assert ft.jgrad.shape == jgrad.shape
    want = {"jval": _merged(jump, val), "psi": psi,
            "n . jgrad": np.einsum("fqai,fi->fqa", jgrad, n),
            "t . jgrad": np.einsum("fqai,fi->fqa", jgrad, t),
            "hess_tn": np.einsum("fqaij,fi,fj->fqa", ahess, t, n),
            "hess_tt": np.einsum("fqaij,fi,fj->fqa", ahess, t, t)}
    got = {"jval": ft.jval, "psi": ft.psi, "n . jgrad": ft.jgrad[..., 0],
           "t . jgrad": ft.jgrad[..., 1], "hess_tn": hess_tn, "hess_tt": hess_tt}
    if s == 1:  # a C0 space's assembly never reads t . <D^2 v> n
        assert got.pop("hess_tn") is None
        del want["hess_tn"]
    for name, ref in want.items():
        assert got[name].shape == ref.shape, name
        assert np.abs(got[name] - ref).max() <= 1e-13 * np.abs(ref).max(), name


def _reference_gram(w, A, B=None):
    # forms._gram with the unweighted rows kept through the matmul
    n, nq, c = A.shape[0], A.shape[1], int(np.prod(A.shape[3:]))
    At = np.moveaxis(A, 2, 1).reshape(n, A.shape[2], nq * c)
    Bt = At if B is None else np.moveaxis(B, 2, 1).reshape(n, B.shape[2], nq * c)
    w = np.repeat(w, c, axis=-1)[..., None, :]
    return (At * w) @ Bt.transpose(0, 2, 1)


def _reference_build(space, ops):
    """The arrays of an Operators build made with out-of-place products, a
    reshape copy per face table and per Hessian trace, and out-of-place
    Gram scalings and sums; `ops` gives only the reference tensors and the
    volume blocks."""
    mesh, nloc, cfg = space.mesh, space.nloc, space.config
    nf, fv, elems = mesh.n_faces, mesh.face_verts, mesh.face_elems
    frule = segment_rule(cfg.face_exactness)
    d = mesh.vertices[fv[:, 1]] - mesh.vertices[fv[:, 0]]
    length = np.hypot(d[:, 0], d[:, 1])
    I = elems[:, 1] >= 0
    side = np.where(elems >= 0, elems, elems[:, :1])
    a, b = (np.argmax(mesh.tri[side] == fv[:, i, None, None], axis=2) for i in (0, 1))
    tabs = edge_tables(space.basis, ops.modal, frule.exactness)
    val, grad, hess, psi = (t[2 * a + b - (b > a)] for t in tabs)
    jump = np.where(I[:, None], [1.0, -1.0], [1.0, 0.0])
    avg = np.where(I[:, None], [0.5, 0.5], [1.0, 0.0])
    n = mesh.face_normals
    t = np.stack([-n[:, 1], n[:, 0]], axis=1)
    # each side's invJ n and invJ t, and the Hessian maps (invJ t)(invJ n)^T
    # and (invJ t)(invJ t)^T; a C0 space contracts with the second alone
    g = space.invJ[side] @ np.stack([n, t], axis=2)[:, None]
    gt, cols = g[..., 1], (0, 1) if cfg.s == 0 else (1,)
    hmaps = [(gt[..., :, None] * g[..., None, :, c]).reshape(nf, 2, 4) for c in cols]

    def sides(tab, w, m):
        # each side's tables times its weighted map (nf, 2, c, r), then the
        # sides merged: (nf, nqf, 2 nloc, r)
        c = m.shape[2]
        m = (w[:, :, None, None] * m).reshape(2 * nf, c, -1)
        out = (tab.reshape(2 * nf, -1, c) @ m).reshape(nf, 2, frule.n, nloc, -1)
        return np.moveaxis(out, 1, 2).reshape(nf, frule.n, 2 * nloc, -1)

    jgrad = sides(grad, jump, g)
    hess = sides(hess, avg, np.stack(hmaps, axis=-1))
    dofs = np.where(elems[:, :, None] >= 0, space.dofmap[side], space.dim)
    ft = FaceTables(elems, I, length, frule.weights[None, :] * length[:, None],
                    avg, dofs.reshape(nf, 2 * nloc), _merged(jump, val), jgrad, psi)
    ef = mesh.elem_faces
    sd = (elems[ef, 1] == np.arange(len(ef))[:, None]).astype(int)
    P = face_pattern(ft, ef, sd, space.dim)
    gram, stab, lap = ops._volume(*elem_tensors(space.basis, ops.modal,
                                                cfg.quad_exactness)[3:])
    wq, h = ft.wq, length[:, None, None]
    jn = jgrad[..., 0]
    l2 = _reference_gram(wq * I[:, None], hess[..., -1].copy(), jn)
    if cfg.s == 0:
        Jgrad = P.scatter(P.face[I], (1.0 / h[I]) * _reference_gram(wq[I], jgrad[I]))
        Jval = P.scatter(P.face, (1.0 / h**3) * _reference_gram(wq, ft.jval))
        loc = -_reference_gram(wq, hess[..., 0].copy(), jgrad[..., 1])
        sface = loc + loc.transpose(0, 2, 1) + l2 + l2.transpose(0, 2, 1)
    else:
        # a C0 space has [v] = 0 and t . [grad v] = 0 on every face: its
        # gradient-jump penalty reads the normal jumps alone, its value-jump
        # data is a zero view, and its stabilization the tangential-tangential
        # term alone (adding the zero view below keeps every entry's bits,
        # as no sum of scatters is -0.0)
        Jgrad = P.scatter(P.face[I], (1.0 / h[I]) * _reference_gram(wq[I], jn[I]))
        Jval = np.broadcast_to(0.0, P.nnz)
        sface = l2 + l2.transpose(0, 2, 1)
    ne, nmod = len(ef), ops.nmod
    src = (wq[:, :, None] * I[:, None, None] * jn).transpose(0, 2, 1)
    src = np.ascontiguousarray(src).reshape(nf, 2, nloc, -1)
    lift = psi[ef, sd] * -(avg[ef, sd] / space.detJ[:, None])[..., None, None]
    own = src[ef, sd].transpose(0, 2, 1, 3).reshape(ne, nloc, -1)
    own = lap + own @ lift.reshape(ne, -1, nmod)
    patch = np.concatenate([own[:, None], src[ef, 1 - sd] @ lift], axis=1)
    elem = P.patch[:, :nloc]
    return {**{f"faces.{k}": v for k, v in vars(ft).items()},
            **{f"pattern.{k}": v for k, v in vars(P).items()},
            "patch": patch.reshape(ne, 4 * nloc, nmod), "_jgrad": Jgrad,
            "_jval": Jval, "_stab": P.scatter(elem, stab) + P.scatter(P.face, sface),
            "norm_gram.data": P.scatter(elem, gram) + Jgrad + Jval}


@pytest.mark.parametrize("mesh,p,s", [(m, p, s) for m in PATTERN_MESHES
                                      for p in (2, 3, 4, 5) for s in (0, 1)])
def test_operators_arrays_equal_the_reference_build(mesh, p, s):
    # the lean build gives every array bitwise, with the reference's dtype,
    # shape and strides, on an NVB mesh and one without interior faces
    space = build_space(PATTERN_MESHES[mesh](), SpaceConfig(p=p, s=s))
    ops = get_operators(space)
    got = {**{f"faces.{k}": v for k, v in vars(ops.faces).items()},
           **{f"pattern.{k}": v for k, v in vars(ops.pattern).items()},
           "patch": ops.patch, "_jgrad": ops._jgrad, "_jval": ops._jval,
           "_stab": ops._stab, "norm_gram.data": ops.norm_gram.data}
    want = _reference_build(space, ops)
    assert got.keys() == want.keys()
    for name, ref in want.items():
        arr = got[name]
        assert (arr.dtype, arr.shape, arr.strides) == (ref.dtype, ref.shape,
                                                       ref.strides), name
        assert arr.tobytes() == ref.tobytes(), name


@pytest.mark.parametrize("p,q,s", [(p, q, s) for p in (2, 3, 4, 5)
                                   for q in (p - 2, p, p + 2) for s in (0, 1)])
def test_face_rule_of_face_exactness_is_exact(p, q, s, monkeypatch):
    # face_exactness is the degree of [v][w] and (n . [grad v]) psi_m, and
    # no face integrand has a higher one: every face Gram and every face or
    # patch array assembled on the face rule agrees with the one on the
    # rules two and four degrees higher. Relative to its block's largest
    # entry it may differ by 1e-13, or by the roundoff in which the two
    # higher rules differ, up to 2.2e-12 at q = 7, from the tabulated
    # degree-q modal traces; the rule two degrees lower misses by O(1)
    space = build_space(PATTERN_MESHES["nvb"](), SpaceConfig(p=p, s=s, q=q))
    exactness = SpaceConfig.face_exactness

    def built(extra):
        # (face rule points, {name: (blocks, their scales)})
        monkeypatch.setattr(SpaceConfig, "face_exactness",
                            property(lambda cfg: exactness.fget(cfg) + extra))
        ops = Operators(space)
        ft, hess_tn, hess_tt = face_tables(space, ops.modal)
        jn, jt = ft.jgrad[..., 0], ft.jgrad[..., 1]
        blocks = {"jgrad Gram": forms._gram(ft.wq, ft.jgrad),
                  "jval Gram": forms._gram(ft.wq, ft.jval),
                  "tt stabilization Gram": forms._gram(ft.wq, hess_tt, jn),
                  **{f"side {i} lifting Gram": forms._gram(ft.wq, jn, ft.psi[:, i])
                     for i in (0, 1)},
                  "patch": ops.patch}
        if s == 0:
            blocks["tn stabilization Gram"] = forms._gram(ft.wq, hess_tn, jt)
        scaled = {name: (A, np.abs(A).max(axis=(1, 2), keepdims=True))
                  for name, A in blocks.items()}
        # an array on the pattern is one block
        scaled.update({name: (A, np.abs(A).max()) for name, A in (
            ("_stab", ops._stab), ("_jgrad", ops._jgrad), ("_jval", ops._jval))})
        return ft.wq.shape[1], scaled

    def error(A, ref, scale):
        return np.max(np.abs(A - ref) / np.where(scale > 0, scale, 1.0))

    (nq, got), (nq2, exact), (nq4, finer) = (built(extra) for extra in (0, 2, 4))
    assert (nq, nq2, nq4) == (max(2 * p, p - 1 + q) // 2 + 1, nq + 1, nq + 2)
    for name, (ref, scale) in exact.items():
        floor = error(finer[name][0], ref, scale)
        assert error(got[name][0], ref, scale) <= max(1e-13, 4 * floor), name


@pytest.mark.parametrize("mesh,p", [(m, p) for m in PATTERN_MESHES for p in (2, 3, 4)])
def test_c0_face_terms_that_assembly_drops_vanish(mesh, p):
    # the value-jump Gram, the tangential half of the gradient-jump Gram and
    # the stabilization term -(t . <D^2 v> n)(t . [grad w]) with its
    # transpose, from the face tables with the full formulas: on a C0 space
    # each assembles to roundoff of its largest local entry, on the DG space
    # of the same mesh to far more (the tangential gradient jumps live on
    # interior faces, which the one-triangle mesh lacks)
    def assembled(s):
        space = build_space(PATTERN_MESHES[mesh](), SpaceConfig(p=p, s=s))
        modal = get_operators(space).modal
        ft = face_tables(space, modal)[0]
        n, wq, I = space.mesh.face_normals, ft.wq, ft.interior
        h = ft.length[:, None, None]
        t = np.stack([-n[:, 1], n[:, 0]], 1)
        tj = ft.jgrad[..., 1]
        # a C0 space's face_tables skips t . <D^2 v> n: take it at the
        # mapped face points
        ahess = _merged(ft.avg, _ref_point_traces(space, modal)[2])
        hess_tn = np.einsum("fqaij,fi,fj->fqa", ahess, t, n)
        loc = -np.einsum("fq,fqa,fqb->fab", wq, hess_tn, tj)
        terms = {  # name: (local blocks, their dofs)
            "value jumps": ((1.0 / h**3) * np.einsum(
                "fq,fqa,fqb->fab", wq, ft.jval, ft.jval), ft.dofs),
            "tangential gradient jumps": ((1.0 / h[I]) * np.einsum(
                "fq,fqa,fqb->fab", wq[I], tj[I], tj[I]), ft.dofs[I]),
            "tangential-normal stabilization": (loc + loc.transpose(0, 2, 1),
                                                ft.dofs),
        }
        shape = (space.dim, space.dim)
        return {name: (np.abs(assemble_csr(d[:, :, None], d[:, None, :], blocks,
                                           shape).data).max(initial=0.0),
                       np.abs(blocks).max())
                for name, (blocks, d) in terms.items() if len(blocks)}

    c0, dg = assembled(1), assembled(0)
    assert c0.keys() == dg.keys()
    assert len(dg) == (3 if mesh == "nvb" else 2)
    for name, (value, scale) in c0.items():
        assert value <= 1e-13 * scale, name
    for name, (value, scale) in dg.items():
        assert value >= 1e-3 * scale, name


@pytest.mark.parametrize("s,n,bound", [(1, 16, 2.0), (0, 12, 1.4)])
def test_operators_build_transient_stays_bounded(s, n, bound):
    # past the per-process tables, which a first build fills, the tracemalloc
    # peak of one build is a bounded multiple of what it keeps: each face
    # array is written once and each intermediate dropped after its last use
    get_operators(build_space(unit_square_mesh(2), SpaceConfig(p=3, s=s)))
    space = build_space(unit_square_mesh(n), SpaceConfig(p=3, s=s))
    tracemalloc.start()
    try:
        get_operators(space)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= bound * kept


def _pattern_args(space):
    # face_pattern's arguments, as an Operators build passes them
    ef = space.mesh.elem_faces
    ft = get_operators(space).faces
    sd = (ft.elems[ef, 1] == np.arange(len(ef))[:, None]).astype(int)
    return ft, ef, sd, space.dim


def _unique_pattern(ft, ef, sd, dim):
    """The Pattern from one `np.unique(keys, return_inverse=True)` of the
    patch keys, with the key dim^2 for every missing pair."""
    nf, m = ft.dofs.shape
    nloc, ne = m // 2, len(ef)
    dofs = ft.dofs.reshape(nf, 2, nloc)
    e0, s0 = ef[:, 0], sd[:, 0]
    rows = np.concatenate([dofs[e0, s0][:, None], dofs[ef, 1 - sd]], 1).reshape(ne, -1)
    cols = dofs[e0, s0][:, None, :]
    keys = np.where((rows[:, :, None] < dim) & (cols < dim),
                    rows[:, :, None] * dim + cols, dim * dim)
    pairs, slots = np.unique(keys, return_inverse=True)
    pairs = pairs[pairs < dim * dim]
    indptr = np.searchsorted(pairs, np.arange(dim + 1) * dim).astype(np.int32)
    indices = (pairs % dim).astype(np.int32)
    patch = slots.astype(np.int32).reshape(ne, 4, nloc, nloc)
    local = np.zeros((nf, 2), dtype=int)
    local[ef, sd] = np.arange(3)
    blk = np.where(np.eye(2, dtype=bool), 0, 1 + local[:, None, :])
    e = ft.elems[:, None, :]
    face = np.where(e[..., None, None] >= 0, patch[e, blk], len(pairs))
    face = face.transpose(0, 1, 3, 2, 4).reshape(nf, m, m)
    return {"indptr": indptr, "indices": indices, "face": face,
            "patch": patch.reshape(ne, 4 * nloc, nloc), "rows": rows}


@pytest.mark.parametrize("mesh,p,s", [(m, p, s) for m in PATTERN_MESHES
                                      for p in (2, 3, 4, 5) for s in (0, 1)])
def test_face_pattern_equals_the_unique_construction(mesh, p, s):
    # the sort of position-packed keys gives every array of the np.unique
    # construction bitwise, with its dtype, shape and strides
    space = build_space(PATTERN_MESHES[mesh](), SpaceConfig(p=p, s=s))
    got = vars(face_pattern(*_pattern_args(space)))
    want = _unique_pattern(*_pattern_args(space))
    assert got.keys() == want.keys()
    for name, ref in want.items():
        arr = got[name]
        assert (arr.dtype, arr.shape, arr.strides) == (ref.dtype, ref.shape,
                                                       ref.strides), name
        assert arr.tobytes() == ref.tobytes(), name


def test_face_pattern_refuses_keys_wider_than_int64():
    # 2^31 dofs square to 2^62, which leaves no bit for a key's position
    ft, ef, sd, _ = _pattern_args(build_space(unit_square_mesh(1), SpaceConfig(p=2)))
    with pytest.raises(SpaceError, match="overflow int64"):
        face_pattern(ft, ef, sd, 2**31)


@pytest.mark.parametrize("s,n", [(1, 16), (0, 12)])
def test_face_pattern_transient_per_key_stays_bounded(s, n):
    # the tracemalloc peak of one face_pattern past what it keeps: 40.6 (C0)
    # and 42.7 (DG) bytes per patch key with np.unique's argsort and inverse
    args = _pattern_args(build_space(unit_square_mesh(n), SpaceConfig(p=3, s=s)))
    nkeys = len(args[1]) * 4 * (args[0].dofs.shape[1] // 2) ** 2  # ne 4 nloc^2
    tracemalloc.start()
    try:
        pattern = face_pattern(*args)  # held while measured
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - kept <= 34 * nkeys


@pytest.mark.parametrize("p,s", [(p, s) for p in (2, 3, 4) for s in (0, 1)])
def test_second_operators_build_tabulates_no_face_points(p, s, monkeypatch):
    # the edge tables and the element tensors are built once per process:
    # after a first build, an Operators build on another mesh tabulates
    # nothing
    first, second = (build_space(make(), SpaceConfig(p=p, s=s))
                     for make in PATTERN_MESHES.values())
    Operators(first)
    calls, tabulate = [], RefBasis.eval

    def recording(self, pts, order=0):
        calls.append(np.asarray(pts))
        return tabulate(self, pts, order)

    monkeypatch.setattr(RefBasis, "eval", recording)
    Operators(second)
    assert not calls


def _moved_mesh():
    # unit_square_mesh(3) with its interior vertices moved by fixed offsets:
    # of its 18 elements only the two with no interior vertex are similar
    mesh = unit_square_mesh(3)
    v = mesh.vertices.copy()
    inner = ~mesh.boundary_vertex_mask()
    offsets = np.array([[0.05, -0.03], [-0.04, 0.06], [0.07, 0.02], [-0.02, -0.05]])
    v[inner] += offsets[np.arange(inner.sum()) % len(offsets)]
    return replace(mesh, vertices=v)


@pytest.mark.parametrize("p,s", [(p, s) for p in (2, 3, 4) for s in (0, 1)])
def test_volume_blocks_match_quadrature(p, s):
    # the element blocks from the reference tensors equal the quadrature
    # sums of the physical shape tables on elements that are not similar,
    # each within 1e-13 of its largest entry; the tensors are read-only
    space = build_space(_moved_mesh(), SpaceConfig(p=p, s=s))
    ops = get_operators(space)
    tensors = elem_tensors(space.basis, ops.modal, space.config.quad_exactness)
    for tab in tensors:
        with pytest.raises(ValueError):
            tab[(0,) * tab.ndim] = 0.0
    got = ops._volume(*tensors[3:])
    shapes = [space.shapes(space.elem_rule.points, k) for k in (0, 1)]
    PH, w, dJ = shape_hessians(space), ops.wq, space.detJ
    lapl = np.einsum("eqlii->eql", PH)
    M2 = np.einsum("e,q,eqaij,eqbij->eab", dJ, w, PH, PH)
    want = (
        M2 + np.einsum("e,q,eqai,eqbi->eab", dJ, w, shapes[1], shapes[1])
        + np.einsum("e,q,eqa,eqb->eab", dJ, w, shapes[0], shapes[0]),
        M2 - np.einsum("e,q,eqa,eqb->eab", dJ, w, lapl, lapl),
        np.einsum("q,eqa,qj->eaj", w, lapl, ops.Bm),
    )
    scales = (np.abs(want[0]).max(), np.abs(M2).max(), np.abs(want[2]).max())
    for a, b, scale in zip(got, want, scales):
        assert a.shape == b.shape
        assert np.abs(a - b).max() <= 1e-13 * scale


@pytest.mark.parametrize("mesh,p,s", PATTERN_CASES)
def test_element_patches_follow_the_faces(mesh, p, s):
    # a patch's rows are the element's dofs, then those of its neighbour
    # across each local face (dim where a dof is missing); its slots address
    # those rows against the element's dofs, and on a DG space they hit
    # every slot of the pattern exactly once
    space = build_space(PATTERN_MESHES[mesh](), SpaceConfig(p=p, s=s))
    P, m, dim = get_operators(space).pattern, space.mesh, space.dim
    fe = m.face_elems[m.elem_faces]  # (ne, 3, 2)
    own = fe[..., 0] == np.arange(m.n_elements)[:, None]
    nbr = np.where(own, fe[..., 1], fe[..., 0])
    nbr_dofs = np.where(nbr[..., None] >= 0, space.dofmap[nbr], dim)
    rows = np.concatenate([space.dofmap[:, None], nbr_dofs], 1).reshape(len(nbr), -1)
    assert np.array_equal(P.rows, rows)
    row = np.repeat(np.arange(dim), np.diff(P.indptr))
    a, b = np.broadcast_arrays(rows[:, :, None], space.dofmap[:, None, :])
    valid = (a < dim) & (b < dim)
    assert P.patch.dtype == np.int32 and P.patch.flags.c_contiguous
    assert np.all(P.patch[~valid] == P.nnz)
    assert np.array_equal(row[P.patch[valid]], a[valid])
    assert np.array_equal(P.indices[P.patch[valid]], b[valid])
    if s == 0:
        hits = np.bincount(P.patch.ravel(), minlength=P.nnz + 1)[:-1]
        assert np.all(hits == 1)


def test_operators_freed_with_their_space_after_lifting_maps():
    # the lifted oracle's maps and every cache of the operators add no
    # reference to the space
    gc.collect()
    gc.disable()
    try:
        space = build_space(unit_square_mesh(2), SpaceConfig(p=2, s=0))
        ops = get_operators(space)
        S_lifted(space)
        u = DiscreteFunction(space, np.ones(space.dim))
        ops.S_facewise
        ops.linear_part(FormParams.defaults(2, 0))
        ops.inf_sup(get_problem("two_control_switch"), u)
        ops = weakref.ref(ops)
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


@pytest.mark.parametrize("s", [0, 1])
def test_face_jumps_kept_while_the_coefficients_stay(s, rng, monkeypatch):
    # the jumps are kept, read-only, with a copy of the coefficients: the
    # error norm at an estimated u gathers nothing, and an in-place change
    # of u's coefficients makes them recomputed, equal to a fresh space's
    calls, gather = [], forms.gather

    def counting(*args):
        calls.append(1)
        return gather(*args)

    monkeypatch.setattr(forms, "gather", counting)
    prob = get_problem("two_control_switch")
    mesh, config = refine_conforming(unit_square_mesh(3), [0, 5]), SpaceConfig(p=3, s=s)
    space = build_space(mesh, config)
    u = DiscreteFunction(space, rng.standard_normal(space.dim))
    estimate(space, prob, u)
    kept = face_jumps(space, u)
    calls.clear()
    error_norm_k(space, u, prob.exact)
    got = face_jumps(space, u.coeffs.copy())
    assert calls == [] and all(a is b for a, b in zip(got, kept))
    for term in got:
        assert not term.flags.writeable
        with pytest.raises(ValueError):
            term[0] = 1.0
    u.coeffs[::3] *= -2.0
    got = face_jumps(space, u)
    assert calls == [1]
    fresh = build_space(mesh, config)
    want = face_jumps(fresh, DiscreteFunction(fresh, u.coeffs.copy()))
    for a, b, old in zip(got, want, kept):
        assert np.array_equal(a, b) and not np.array_equal(a, old)


@pytest.mark.parametrize("s", [0, 1])
def test_jump_seminorm_free_of_cancellation(s):
    # a degree-4 bubble is in the space, so its jumps vanish; perturbing one
    # element's dofs by 1e-6 gives a jump seminorm that the perturbation
    # alone fixes, with no cancellation in its own small quadratic form. The
    # quadratic form of the sum loses ~1e-5 of it on a C0 space (8x8 mesh),
    # the per-face sums of squares do not
    space = build_space(unit_square_mesh(8), SpaceConfig(p=4, s=s))
    bubble = project_l2(space, lambda x: np.prod(x * (1 - x), axis=1))
    dofs = space.dofmap[space.mesh.n_elements // 2]
    dofs = dofs[dofs < space.dim]
    bump = np.zeros(space.dim)
    bump[dofs] = 1e-6 * np.linspace(1.0, 2.0, len(dofs))
    want = bump @ (_jump_penalty(space, FormParams(sigma=1.0, rho=1.0)) @ bump)
    got = jump_seminorm(space, bubble.coeffs + bump) ** 2
    assert got == pytest.approx(want, rel=1e-8)


def test_operators_on_a_mesh_without_interior_faces():
    # the one-element mesh of a triangle domain: empty interior-face batches
    mesh = convex_polygon_mesh([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert mesh.n_elements == 1 and not np.any(mesh.face_elems[:, 1] >= 0)
    space = build_space(mesh, SpaceConfig(p=3, s=0))
    ops = get_operators(space)
    assert not np.any(ops._jgrad) and np.any(ops._jval)
    v = project_l2(space, lambda x: x[:, 0] * x[:, 1])
    assert jump_seminorm(space, v) > 0.0
    assert norm_k(space, v) == pytest.approx(
        np.sqrt(v.coeffs @ (ops.norm_gram @ v.coeffs)), rel=1e-12)
    # and batches of no elements, at shared and per-element points
    none = np.zeros(0, dtype=np.int64)
    for pts in (space.elem_rule.points, np.zeros((0, len(ops.wq), 2))):
        assert v.eval(pts, 2, none).shape == (0, len(ops.wq), 2, 2)
        assert space.shapes(pts, 1, none).shape == (0, len(ops.wq), space.nloc, 2)


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
