"""FE spaces: dimensions, shape derivatives, projection, dof-map continuity."""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from conftest import mass_matrix, project_l2

from cordesfem import (
    DiscreteFunction,
    SpaceConfig,
    build_space,
    refine_conforming,
    unit_square_mesh,
)
from cordesfem.basis import _eval_monomials, lagrange_basis, lagrange_ref_points
from cordesfem.basis import monomial_exponents
from cordesfem.basis import ortho_basis, rule_tables
from cordesfem.fespace import SpaceError, gather
from cordesfem.forms import get_operators
from cordesfem.quadrature import triangle_rule


def test_dg_dimension_two_triangles():
    space = build_space(unit_square_mesh(1), SpaceConfig(p=2, s=0))
    assert space.dim == 12


def test_c0_dimension_two_triangles():
    # only the diagonal midpoint is an interior P2 node
    space = build_space(unit_square_mesh(1), SpaceConfig(p=2, s=1))
    assert space.dim == 1


@pytest.mark.parametrize("p,s", [(2, 0), (3, 0), (2, 1), (3, 1)])
def test_dimension_formulae(p, s, mesh_hierarchy):
    mesh = mesh_hierarchy[1]
    space = build_space(mesh, SpaceConfig(p=p, s=s))
    nloc = (p + 1) * (p + 2) // 2
    if s == 0:
        assert space.dim == mesh.n_elements * nloc
    else:
        assert 0 < space.dim < mesh.n_elements * nloc


def test_degree_one_rejected():
    with pytest.raises(SpaceError):
        build_space(unit_square_mesh(1), SpaceConfig(p=1, s=0))


def test_lifting_degree_constraint():
    with pytest.raises(SpaceError):
        SpaceConfig(p=3, s=0, q=0)


# ------------------------------------------------------------- shape functions


def test_lagrange_partition_of_unity(spaces, rng):
    # the C0 space uses a local Lagrange basis: values sum to one and
    # gradients to zero at any reference point
    space = spaces(1, 2, 1)
    pts = rng.uniform(0.05, 0.4, size=(5, 2))
    vals = space.shapes(pts, 0, [0])[0]
    grads = space.shapes(pts, 1, [0])[0]
    assert np.allclose(vals.sum(axis=1), 1.0, atol=1e-12)
    assert np.allclose(grads.sum(axis=1), 0.0, atol=1e-12)


def test_dg_basis_orthonormal(spaces):
    # the DG space uses an L2-orthonormalized modal basis per element
    space = spaces(1, 2, 0)
    M = mass_matrix(space)
    nloc = space.nloc
    blk = M[:nloc, :nloc].toarray()
    detJ = space.detJ[0]
    assert np.allclose(blk, detJ * np.eye(nloc), atol=1e-12 * max(1, detJ))


def test_hessian_matches_finite_differences(spaces):
    space = spaces(0, 2, 0)
    pts = np.array([[0.25, 0.3]])
    hess = space.shapes(pts, 2, [2])[0][0]
    eps = 1e-6
    for d in range(2):
        shift = np.zeros(2)
        shift[d] = eps
        ref_plus = space.ref_points(space.points(pts, [2])[0] + shift, [2])[0]
        ref_minus = space.ref_points(space.points(pts, [2])[0] - shift, [2])[0]
        gp = space.shapes(ref_plus, 1, [2])[0][0]
        gm = space.shapes(ref_minus, 1, [2])[0][0]
        fd = (gp - gm) / (2 * eps)
        scale = max(1.0, np.abs(hess[:, :, d]).max())
        assert np.abs(fd - hess[:, :, d]).max() <= 1e-6 * scale


def test_order_three_rejected(spaces):
    space = spaces(0, 2, 0)
    with pytest.raises(SpaceError):
        space.shapes(np.array([[0.3, 0.3]]), 3, [0])[0]


def _reference_shapes(space, e, pts, order):
    # the affine chain rule written out per element: grad = G invJ and
    # hess = invJ^T H invJ for every point and shape function
    tab = space.basis.eval(pts, order)
    iJ = space.invJ[e]
    if order == 0:
        return tab
    if order == 1:
        return tab @ iJ
    return iJ.T @ tab @ iJ


@pytest.mark.parametrize("p,s", [(2, 0), (3, 0), (2, 1), (3, 1)])
@pytest.mark.parametrize("order", [0, 1, 2])
def test_batched_shapes_and_eval_match_per_element_transform(p, s, order, spaces, rng):
    space = spaces(3, p, s)
    ne = space.mesh.n_elements
    coeffs = rng.standard_normal(space.dim)
    u = DiscreteFunction(space, coeffs)
    shared = rng.dirichlet(np.ones(3), size=5)[:, 1:]  # points of the triangle
    elems = rng.choice(ne, size=9)  # with repeats, in no particular order
    per_elem = rng.dirichlet(np.ones(3), size=(9, 4))[:, :, 1:]
    cases = [
        (shared, np.arange(ne), space.shapes(shared, order), u.eval(shared, order)),
        (per_elem, elems, space.shapes(per_elem, order, elems),
         u.eval(per_elem, order, elems)),
    ]
    for pts, es, tab, vals in cases:
        assert tab.shape[:3] == (len(es), pts.shape[-2], space.nloc)
        for k, e in enumerate(es):
            want = _reference_shapes(space, e, pts if pts.ndim == 2 else pts[k], order)
            scale = np.abs(want).max()
            assert np.allclose(tab[k], want, rtol=1e-12, atol=1e-13 * scale)
            idx = space.dofmap[e]  # the absent dof dim wraps to 0, then is masked
            loc = np.where(idx < space.dim, coeffs[idx % space.dim], 0.0)
            want_u = np.tensordot(loc, want, axes=(0, 1))
            assert np.allclose(vals[k], want_u, rtol=1e-12, atol=1e-12 * scale)


def _einsum_shapes(space, pts, order, elems):
    # the element kernels as naive einsums: basis coefficients times
    # monomials, then invJ (order 1) or invJ^T . H . invJ (order 2)
    mono = _eval_monomials(pts.reshape(-1, 2), space.basis.exps, order)
    tab = np.einsum("lm,qm...->ql...", space.basis.coeffs, mono)
    q = "q"
    if pts.ndim == 3:
        tab, q = tab.reshape(pts.shape[:2] + tab.shape[1:]), "eq"
    iJ = space.invJ[elems]
    if order == 0:
        return np.broadcast_to(tab, (len(iJ),) + tab.shape) if q == "q" else tab
    if order == 1:
        return np.einsum(f"eki,{q}lk->eqli", iJ, tab)
    return np.einsum(f"eki,{q}lkm,emj->eqlij", iJ, tab, iJ)


def _assert_close(got, want):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("s", [0, 1])
@pytest.mark.parametrize("p", [2, 3, 4])
def test_matmul_kernels_match_einsum(p, s, spaces, rng):
    # points, shapes, coefficient-first eval and the kept Hessian table on a
    # nonuniform mesh, at the shared quadrature points and at per-element
    # points
    space = spaces(3, p, s)
    ne = space.mesh.n_elements
    u = DiscreteFunction(space, rng.standard_normal(space.dim))
    elems = rng.choice(ne, size=9)
    per_elem = rng.dirichlet(np.ones(3), size=(9, 4))[:, :, 1:]
    rule = space.elem_rule.points
    for pts, es in ((rule, np.arange(ne)), (per_elem, elems)):
        q = "q" if pts.ndim == 2 else "eq"
        _assert_close(space.points(pts, es), space.v0[es][:, None, :]
                      + np.einsum(f"eij,{q}j->eqi", space.J[es], pts))
        loc = gather(u.coeffs, space.dofmap[es])
        for order in (0, 1, 2):
            want = _einsum_shapes(space, pts, order, es)
            _assert_close(space.shapes(pts, order, es), want)
            _assert_close(u.eval(pts, order, es),
                          np.einsum("eql...,el->eq...", want, loc))
    PH = _einsum_shapes(space, rule, 2, np.arange(ne))
    _assert_close(u.eval_table(get_operators(space).ref_hess, 2),
                  np.einsum("eqlij,el->eqij", PH, gather(u.coeffs, space.dofmap)))


# --------------------------------------------------------------- L2 projection


@pytest.mark.parametrize("s", [0, 1])
def test_projection_reproduces_space_member(s, spaces, rng):
    space = spaces(1, 2, s)
    coeffs = rng.standard_normal(space.dim)
    u = DiscreteFunction(space, coeffs)

    def f(x):
        out = np.zeros(len(x))
        # piecewise evaluation through a dense point-location pass
        for e in range(space.mesh.n_elements):
            ref = space.ref_points(x, [e])[0]
            inside = np.all(ref >= -1e-12, axis=1) & (ref.sum(axis=1) <= 1 + 1e-12)
            out[inside] = u.eval(ref[inside], 0, [e])[0]
        return out

    if s == 1:
        v = project_l2(space, f)
        assert np.abs(v.coeffs - coeffs).max() <= 1e-10 * max(1, np.abs(coeffs).max())


def test_projection_exact_for_linears(spaces):
    space = spaces(1, 2, 0)
    v = project_l2(space, lambda x: x[:, 0])
    pts = np.array([[0.2, 0.2], [0.1, 0.6]])
    for e in range(space.mesh.n_elements):
        phys = space.points(pts, [e])[0]
        assert np.allclose(v.eval(pts, 0, [e])[0], phys[:, 0], atol=1e-12)


def test_projection_orthogonality(spaces):
    space = spaces(1, 2, 0)
    f = lambda x: np.sin(np.pi * x[:, 0])
    v = project_l2(space, f)
    M = mass_matrix(space)
    b = M @ v.coeffs
    ref = project_l2(space, f).coeffs  # recompute rhs through the same path
    # residual of the normal equations
    resid = np.abs(M @ ref - b).max()
    assert resid <= 1e-10


def test_mass_matrix_spd(spaces):
    space = spaces(1, 2, 1)
    M = mass_matrix(space).tocsc()
    # Cholesky-by-LU succeeds and the diagonal of U stays positive
    lu = spla.splu(M)
    assert np.all(lu.U.diagonal() > 0)


# ------------------------------------------------------------------ continuity


def test_c0_traces_continuous(spaces, rng):
    space = spaces(1, 3, 1)
    u = DiscreteFunction(space, rng.standard_normal(space.dim))
    mesh = space.mesh
    t = np.linspace(0.0, 1.0, 7)
    for f in range(mesh.n_faces):
        e_minus, e_plus = mesh.face_elems[f]
        va, vb = mesh.face_verts[f]
        pts = (1 - t)[:, None] * mesh.vertices[va] + t[:, None] * mesh.vertices[vb]
        vals_minus = u.eval(space.ref_points(pts, [e_minus])[0], 0, [e_minus])[0]
        if e_plus >= 0:
            vals_plus = u.eval(space.ref_points(pts, [e_plus])[0], 0, [e_plus])[0]
            assert np.abs(vals_minus - vals_plus).max() <= 1e-10
        else:
            # homogeneous Dirichlet: boundary trace vanishes
            assert np.abs(vals_minus).max() <= 1e-10


@pytest.mark.parametrize("s", [0, 1])
@pytest.mark.parametrize("p", [2, 3, 4])
def test_absent_dof_is_dim_in_every_dof_map(p, s, rng):
    # one index, dim, marks an absent dof: a C0 space's dropped boundary
    # node and the missing side of a boundary face; gather reads 0 there
    mesh = unit_square_mesh(2)
    for _ in range(3):
        mesh = refine_conforming(mesh, rng.choice(
            mesh.n_elements, size=mesh.n_elements // 3, replace=False))
    space = build_space(mesh, SpaceConfig(p=p, s=s))
    ops, dim = get_operators(space), space.dim
    for dofs in (space.dofmap, ops.faces.dofs, ops.pattern.rows):
        assert dofs.min() >= 0 and dofs.max() <= dim
    plus = ops.faces.dofs.reshape(mesh.n_faces, 2, -1)[:, 1]
    assert np.all(plus[~ops.faces.interior] == dim)
    # the Lagrange nodes on the boundary of the unit square
    x = space.points(lagrange_ref_points(p))
    boundary = np.any(np.isclose(x, 0.0) | np.isclose(x, 1.0), axis=-1)
    assert np.array_equal(space.dofmap == dim, boundary & (s == 1))
    loc = gather(rng.standard_normal(dim), space.dofmap)
    assert np.array_equal(loc == 0.0, space.dofmap == dim)


def _masked_monomials(pts, exps, order):
    # the masked-power formula the power tables replaced, as the oracle
    x, y = pts[:, :1], pts[:, 1:]
    i, j = exps[:, 0][None, :].astype(float), exps[:, 1][None, :].astype(float)

    def pw(base, e):
        out = np.zeros(np.broadcast_shapes(base.shape, e.shape))
        pos = np.broadcast_to(e > -0.5, out.shape)
        be, ee = np.broadcast_to(base, out.shape), np.broadcast_to(e, out.shape)
        out[pos] = be[pos] ** ee[pos]
        return out

    if order == 0:
        return pw(x, i) * pw(y, j)
    if order == 1:
        return np.stack([i * pw(x, i - 1) * pw(y, j),
                         j * pw(x, i) * pw(y, j - 1)], axis=-1)
    hxy = i * j * pw(x, i - 1) * pw(y, j - 1)
    return np.stack([
        np.stack([i * (i - 1) * pw(x, i - 2) * pw(y, j), hxy], axis=-1),
        np.stack([hxy, j * (j - 1) * pw(x, i) * pw(y, j - 2)], axis=-1),
    ], axis=-2)


@pytest.mark.parametrize("order", [0, 1, 2])
def test_monomial_power_tables_match_masked_powers(order, rng):
    # bitwise, at random points and on the vertices and edges (0^0 = 1)
    pts = np.vstack([rng.random((50, 2)), [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
                     [[0.0, 0.5], [0.5, 0.0]]])
    for p in range(6):
        exps = monomial_exponents(p)
        assert np.array_equal(_eval_monomials(pts, exps, order),
                              _masked_monomials(pts, exps, order))
    # and the tabulations built on them, whose matmuls round by memory layout
    for basis in (ortho_basis(4), lagrange_basis(4)):
        mono = _masked_monomials(pts, basis.exps, order)
        want = basis.coeffs @ mono.reshape(len(pts), len(basis.exps), 2**order)
        assert np.array_equal(basis.eval(pts, order), want.reshape(
            (len(pts), basis.n) + mono.shape[2:]))


@pytest.mark.parametrize("make", [ortho_basis, lagrange_basis])
def test_bases_are_built_once_and_read_only(make):
    basis = make(3)
    assert make(3) is basis and make(2) is not basis
    with pytest.raises(ValueError):
        basis.coeffs[0, 0] = 0.0
    # so are its tables kept per rule, each equal to a fresh tabulation
    tabs = rule_tables(basis, 8)
    assert rule_tables(basis, 8) is tabs and rule_tables(basis, 7) is not tabs
    for order, tab in enumerate(tabs):
        want = basis.eval(triangle_rule(8).points, order)
        assert np.array_equal(tab, want.reshape(tab.shape))
        with pytest.raises(ValueError):
            tab[0, 0, 0] = 0.0


@pytest.mark.parametrize("s", [0, 1])
def test_kept_hessian_table_evaluates_bitwise(s, spaces, rng, monkeypatch):
    # eval_table reads the Operators' reference table, not a new one
    from cordesfem.basis import RefBasis

    space = spaces(2, 3, s)
    ops = get_operators(space)
    u = DiscreteFunction(space, rng.standard_normal(space.dim))
    want = u.eval(space.elem_rule.points, 2)
    monkeypatch.setattr(RefBasis, "eval", None)  # any tabulation now raises
    assert np.array_equal(u.eval_table(ops.ref_hess, 2), want)
