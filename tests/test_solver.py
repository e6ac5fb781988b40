"""Newton solver, fixed-point fallback, and the direct linear solve."""

import gc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from conftest import jacobian, linear_solve, mass_matrix

from cordesfem import (
    FormParams,
    SolveOptions,
    SolveStats,
    SpaceConfig,
    build_space,
    get_problem,
    norm_k,
    refine_conforming,
    solve_discrete,
    uniform_refine,
    unit_square_mesh,
)
from cordesfem import cordes, solver
from cordesfem.fespace import DiscreteFunction, _c0_dofmap, dof_order
from cordesfem.forms import (
    frozen_jacobian, get_operators, jacobian_coefficients, jacobian_terms,
    nonlinear_residual,
)
from cordesfem.mesh import dissection_keys
from cordesfem.solver import SolverError, factorize


# ---------------------------------------------------------------- linear solve


def test_identity_solve(rng):
    b = rng.standard_normal(40)
    x = linear_solve(sp.eye(40, format="csr"), b)
    assert np.allclose(x, b, atol=1e-13)


def test_mass_matrix_solve_accuracy(rng):
    space = build_space(unit_square_mesh(3), SpaceConfig(p=3, s=1))
    M = mass_matrix(space)
    b = rng.standard_normal(space.dim)
    x = linear_solve(M, b)
    assert np.linalg.norm(M @ x - b) <= 1e-11 * np.linalg.norm(b)


def test_singular_matrix_rejected():
    A = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 4.0]]))
    with pytest.raises(SolverError):
        linear_solve(A, np.array([1.0, 0.0]))


def test_near_zero_pivot_fails_loudly(rng):
    # a matrix of any size is factored as stored on its diagonal pivots, so
    # the leading 1e-20 is a pivot; SuperLU row-pivots past an exactly zero
    # pivot even at threshold 0, but takes this one, and its growth of 1e20
    # defeats iterative refinement: the one factorization fails the gate in
    # 8 passes, and the error names the residual and backward error
    block = np.array([[1e-20, 1.0, 1.0], [1.0, 1.0, 0.0], [1.0, 0.0, 1.0]])
    for n in (500, 3):
        A = sp.block_diag([block, 2.0 * sp.eye(n)], format="csr")
        stats = SolveStats()
        with pytest.raises(SolverError) as err:
            linear_solve(A, rng.standard_normal(A.shape[0]), stats)
        assert "linear solve inaccurate (residual " in str(err.value)
        assert "backward error " in str(err.value)
        assert stats.lu_solves == 8 and stats.lu_fill == []


def test_singular_matrix_factorization_fails():
    # an exactly singular leading block stops the one factorization, and
    # nothing is solved
    A = sp.block_diag([np.array([[1.0, 2.0], [2.0, 4.0]]), sp.eye(500)],
                      format="csr")
    b = np.zeros(A.shape[0])
    b[0] = 1.0
    stats = SolveStats()
    with pytest.raises(SolverError, match="sparse factorization failed"):
        linear_solve(A, b, stats)
    assert stats.lu_solves == 0 and stats.lu_fill == []


def test_backward_stable_solve_is_not_refined():
    # the first solve of a frozen C0 p=3 Jacobian misses the residual branch
    # of the gate (2.2e-10 |b|) but meets the backward-error branch (6e-16),
    # so it is returned after one triangular solve
    space = build_space(unit_square_mesh(8), SpaceConfig(p=3, s=1))
    assert space.dim == 529
    problem, params = get_problem("poisson_singleton"), FormParams.defaults(3, 1)
    zero = DiscreteFunction(space, np.zeros(space.dim))
    J = jacobian(space, problem, zero, params)
    b = nonlinear_residual(space, problem, zero, params)
    stats = SolveStats()
    x = linear_solve(J, b, stats)
    assert stats.lu_solves == 1
    rnorm, bnorm = np.linalg.norm(J @ x - b), np.linalg.norm(b)
    assert rnorm > 1e-11 * bnorm
    assert rnorm <= 1e-13 * (spla.norm(J, np.inf) * np.abs(x).max() + bnorm)


def test_failed_gate_reports_the_last_checked_solve(monkeypatch):
    # a solve returning A^{-1} b / 2 halves the error per pass, so 8 passes
    # leave x = (1 - 2^-8) A^{-1} b; the error names that x's residual and
    # backward error, the last ones checked
    A = sp.diags([-1.0, 4.0, -1.0], [-1, 0, 1], shape=(40, 40), format="csr")
    b = np.linspace(1.0, 2.0, 40)
    factored = factorize

    def halved(matrix):
        solve, fill = factored(matrix)
        return (lambda rhs: 0.5 * solve(rhs)), fill

    monkeypatch.setattr(solver, "factorize", halved)
    stats = SolveStats()
    with pytest.raises(SolverError) as err:
        linear_solve(A, b, stats)
    assert stats.lu_solves == 8 and stats.lu_fill == []
    x = (1.0 - 2.0 ** -8) * spla.spsolve(A.tocsc(), b)
    rnorm, bnorm = np.linalg.norm(A @ x - b), np.linalg.norm(b)
    backward = rnorm / (spla.norm(A, np.inf) * np.abs(x).max() + bnorm)
    assert rnorm == pytest.approx(2.0 ** -8 * bnorm, rel=1e-12)
    assert (f"residual {rnorm:.3e}, |b| {bnorm:.3e}, backward error "
            f"{backward:.3e}") in str(err.value)


# ----------------------------------------------------------- nested dissection

ND_MESH = refine_conforming(unit_square_mesh(4), [0, 3, 7])
ND_CASES = [(p, s) for s in (0, 1) for p in (2, 3, 4)]
# ND_MESH spaces have fewer than 500 dofs except DG p=4 (570 dofs); those of
# a 512-element square all have more
ND_MESHES = {"nd": ND_MESH, "square16": unit_square_mesh(16)}
PLAN_CASES = [(m, p, s) for m in ND_MESHES for s in (0, 1) for p in (2, 3, 4)]


def _pattern(A):
    A = sp.csr_matrix(A, copy=True)
    A.data[:] = 1.0
    return A


@pytest.mark.parametrize("p, s", ND_CASES)
def test_dof_order_is_a_permutation_cached_in_the_plan(p, s):
    # a space numbers its dofs in dof_order, a permutation of the plain
    # numbering, at every size
    for mesh in ND_MESHES.values():
        space = build_space(mesh, SpaceConfig(p=p, s=s))
        if s == 0:
            plain = np.arange(space.dim).reshape(space.dofmap.shape)
        else:
            plain, dim = _c0_dofmap(mesh, p)
            assert dim == space.dim
        rank = dof_order(mesh, plain, space.dim)
        assert np.array_equal(np.sort(rank), np.arange(space.dim))
        want = np.where(plain >= 0, rank[plain], space.dim)
        assert np.array_equal(space.dofmap, want)


@pytest.mark.parametrize("p, s", ND_CASES)
def test_halves_do_not_couple(p, s):
    # a dof takes the key of the last element holding it; base-3 digit l of
    # a key is 0 or 1 for the half at level l, 2 for a separator or leaf
    space = build_space(ND_MESH, SpaceConfig(p=p, s=s))
    keys, depth = dissection_keys(space.mesh)
    valid = space.dofmap < space.dim
    dof_key = np.zeros(space.dim, dtype=np.int64)
    np.maximum.at(dof_key, space.dofmap[valid],
                  np.broadcast_to(keys[:, None], valid.shape)[valid])
    gram = get_operators(space).norm_gram
    # the top-level split: no entry between the halves, which come first
    top = dof_key // 3 ** (depth - 1)
    first, second = np.flatnonzero(top == 0), np.flatnonzero(top == 1)
    assert len(first) > 0 and len(second) > 0
    assert gram[first][:, second].nnz == 0
    position = dof_order(space.mesh, space.dofmap, space.dim)
    assert position[first].max() < position[second].min()
    assert position[second].max() < position[top == 2].min()
    # a space numbered in dof_order is already in it
    assert np.array_equal(position, np.arange(space.dim))
    # and every split below it, over all entries at once
    coo = gram.tocoo()
    for level in range(depth):
        part = dof_key // 3 ** (depth - level)
        digit = dof_key // 3 ** (depth - 1 - level) % 3
        across = ((part[coo.row] == part[coo.col])
                  & (digit[coo.row] + digit[coo.col] == 1))
        assert not across.any(), level


@pytest.mark.parametrize("p, s", ND_CASES)
def test_frozen_jacobians_solve_alike_in_both_orders(p, s, rng):
    # every Jacobian entry lies in the norm Gram pattern, so the space's one
    # numbering orders both, and the solve as stored, on the diagonal
    # pivots, agrees with spsolve's in COLAMD order with partial pivoting
    space = build_space(ND_MESH, SpaceConfig(p=p, s=s))
    gram = _pattern(get_operators(space).norm_gram)
    params = FormParams.defaults(p, s)
    for name in ("two_control_switch", "rotated_anisotropic"):
        u = DiscreteFunction(space, rng.standard_normal(space.dim))
        J = jacobian(space, get_problem(name), u, params)
        outside = _pattern(J) - _pattern(J).multiply(gram)
        assert outside.count_nonzero() == 0
        b = rng.standard_normal(space.dim)
        stats = SolveStats()
        x = linear_solve(J, b, stats)
        # spsolve with one step of iterative refinement, as linear_solve
        want = spla.spsolve(J.tocsc(), b)
        want += spla.spsolve(J.tocsc(), b - J @ want)
        assert len(stats.lu_fill) == 1
        assert np.linalg.norm(x - want) <= 1e-10 * np.linalg.norm(want)


# ------------------------------------------------------------- factorization


def _pattern_matrices(space, p, s, rng):
    ops = get_operators(space)
    params = FormParams.defaults(p, s)
    yield ops.norm_gram
    for name in ("two_control_switch", "rotated_anisotropic"):
        u = DiscreteFunction(space, rng.standard_normal(space.dim))
        yield jacobian(space, get_problem(name), u, params)


@pytest.mark.parametrize("mesh, p, s", PLAN_CASES)
def test_plan_factors_the_converted_matrix(mesh, p, s, rng, monkeypatch):
    # splu gets the equilibrated A^T bitwise: the stored matrix's own index
    # arrays, which read as CSC hold A^T, with the data of D A D, D =
    # diag(|a_ii|^-1/2); in the stored order at every size
    space = build_space(ND_MESHES[mesh], SpaceConfig(p=p, s=s))
    P = get_operators(space).pattern
    factored, splu = [], spla.splu

    def recorded(A, **options):
        factored.append((A, options))
        return splu(A, **options)

    monkeypatch.setattr(spla, "splu", recorded)
    for A in _pattern_matrices(space, p, s, rng):
        assert np.shares_memory(A.indices, P.indices)
        assert np.shares_memory(A.indptr, P.indptr)
        solve, _ = factorize(A)
        At, options = factored[-1]
        assert At.format == "csc"
        assert np.shares_memory(At.indices, A.indices)
        assert np.shares_memory(At.indptr, A.indptr)
        assert options.get("permc_spec") == "NATURAL"
        D = sp.diags(1.0 / np.sqrt(np.abs(A.diagonal())))
        want = (D @ A @ D).tocsr()
        want.sort_indices()
        got = sp.csr_matrix((At.data, At.indices, At.indptr), shape=A.shape,
                            copy=True)
        got.eliminate_zeros()  # explicit zeros, which D A D drops
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        # a normwise backward error at roundoff: the residual alone is not,
        # where |A| dwarfs |b|
        b = rng.standard_normal(space.dim)
        x = solve(b)
        scale = spla.norm(A, np.inf) * np.abs(x).max() + np.abs(b).max()
        assert np.abs(A @ x - b).max() <= 1e-14 * scale


def test_factorization_solves_many_right_hand_sides(rng):
    # an (n, k) right-hand side is solved as its k columns are
    space = build_space(unit_square_mesh(5), SpaceConfig(p=3, s=0))
    u = DiscreteFunction(space, rng.standard_normal(space.dim))
    problem, params = get_problem("rotated_anisotropic"), FormParams.defaults(3, 0)
    J = jacobian(space, problem, u, params)
    B = rng.standard_normal((space.dim, 4))
    solve, _ = factorize(J)
    X = solve(B)
    want = np.column_stack([solve(b) for b in B.T])
    assert X.shape == B.shape
    assert np.abs(X - want).max() <= 1e-14 * np.abs(want).max()


def test_generic_matrices_solve_as_dense(rng):
    # a zero diagonal, duplicate entries and a CSC input: the summed CSR
    # matrix solves as a dense solve does
    rows = np.array([0, 0, 1, 1, 2, 2, 2, 3])
    cols = np.array([1, 1, 0, 2, 1, 3, 3, 2])
    vals = np.array([1.0, 2.0, 3.0, 1.0, 1.0, 0.5, 0.5, 4.0])
    A = sp.coo_matrix((vals, (rows, cols)), shape=(4, 4)).tocsc()
    b = rng.standard_normal(4)
    x = linear_solve(A, b)
    assert np.allclose(x, np.linalg.solve(A.toarray(), b), rtol=1e-13, atol=0)


def test_solve_finds_the_controls_once_per_residual(monkeypatch):
    # each Newton Jacobian reuses the optimal controls of the residual
    # evaluated at its iterate, also after an initial guess
    calls = {"inf_sup": 0, "residual": 0, "jacobian": 0}

    def counting(fn, key):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cordes, "inf_sup", counting(cordes.inf_sup, "inf_sup"))
    monkeypatch.setattr(solver, "nonlinear_residual",
                        counting(solver.nonlinear_residual, "residual"))
    monkeypatch.setattr(solver, "frozen_jacobian",
                        counting(solver.frozen_jacobian, "jacobian"))
    prob = get_problem("rotated_anisotropic")
    space = build_space(unit_square_mesh(4), SpaceConfig(p=3, s=0))
    params = FormParams.defaults(3, 0)
    u, stats = solve_discrete(space, prob, params)
    assert stats.newton_iters >= 2 and calls["jacobian"] == stats.newton_iters
    assert calls["inf_sup"] == calls["residual"]
    for key in calls:
        calls[key] = 0
    guess = SolveOptions(initial_guess=0.5 * u.coeffs)
    _, stats = solve_discrete(space, prob, params, guess)
    assert calls["jacobian"] == stats.newton_iters >= 1
    assert calls["inf_sup"] == calls["residual"]


@pytest.mark.parametrize("s", [0, 1])
def test_newton_records_control_changes_per_step(s):
    # per Newton step, the quadrature points whose optimal control pair
    # differs from the previous iterate's: from zero, the active set of
    # rotated_anisotropic settles as Newton converges; a singleton control
    # set never changes
    space = build_space(unit_square_mesh(8), SpaceConfig(p=2, s=s))
    params = FormParams.defaults(2, s)
    _, stats = solve_discrete(space, get_problem("rotated_anisotropic"), params)
    changed = stats.controls_changed
    assert len(changed) == len(stats.backtracks) == stats.newton_iters >= 3
    assert changed[0] > 0 and all(a >= b for a, b in zip(changed, changed[1:]))
    assert changed[-1] <= 0.01 * changed[0]
    assert all(0 <= b <= solver.MAX_BACKTRACKS for b in stats.backtracks)
    _, stats = solve_discrete(space, get_problem("poisson_singleton"), params)
    assert stats.controls_changed == [0] * stats.newton_iters
    assert stats.backtracks == [0] * stats.newton_iters


def test_newton_records_step_halvings(monkeypatch):
    # a linear problem whose first correction is -3 delta for the Newton
    # correction delta: the simplified correction at u - 3 delta is 4 delta,
    # not smaller, and at u - 1.5 delta it is 2.5 delta, so one halving; the
    # controls stay, so that one is the second, exact correction, and needs
    # none
    linear_solver, stretch = solver.linear_solver, iter([-3.0])

    def stretched(*args):
        solve = linear_solver(*args)
        return lambda rhs: next(stretch, 1.0) * solve(rhs)

    monkeypatch.setattr(solver, "linear_solver", stretched)
    space = build_space(unit_square_mesh(4), SpaceConfig(p=2, s=0))
    _, stats = solve_discrete(space, get_problem("poisson_singleton"),
                              FormParams.defaults(2, 0))
    assert stats.newton_iters == 2
    assert stats.backtracks == [1, 0] and stats.controls_changed == [0, 0]


def test_failed_step_inside_the_band_tries_two_steps(monkeypatch):
    # the stretched first correction of the test below, f = 1/4, fails at
    # every step length; a relative tol of 1e-2 puts it at about 60 tol,
    # inside the roundoff band, where only t = 1 and t = 1/2 are tried
    # before the solve stops at the floor
    linear_solver, stretch = solver.linear_solver, iter([0.25])

    def stretched(*args):
        solve = linear_solver(*args)
        return lambda rhs: next(stretch, 1.0) * solve(rhs)

    residuals, nonlinear_residual = [], solver.nonlinear_residual

    def counted(*args):
        residuals.append(args[2])
        return nonlinear_residual(*args)

    monkeypatch.setattr(solver, "linear_solver", stretched)
    monkeypatch.setattr(solver, "nonlinear_residual", counted)
    space = build_space(unit_square_mesh(2), SpaceConfig(p=2, s=0))
    opts = SolveOptions(tol=1e-2)
    _, stats = solve_discrete(space, get_problem("poisson_singleton"),
                              FormParams.defaults(2, 0), opts)
    tol = opts.tol * (1.0 + stats.residual_history[0])
    assert tol < stats.final_residual <= 1e3 * tol and stats.floor_accepted
    assert stats.newton_iters == 1 and stats.backtracks == [2]
    assert stats.fallback_iters == 0 and len(residuals) == 1 + 2


def _record_factorize(monkeypatch):
    """A list that records the matrix of every `solver.factorize` call."""
    factored, factorize = [], solver.factorize

    def recorded(A):
        factored.append(A)
        return factorize(A)

    monkeypatch.setattr(solver, "factorize", recorded)
    return factored


def test_failed_newton_step_hands_off_to_the_fallback(monkeypatch):
    # a linear problem whose first correction is f delta for the Newton
    # correction delta, f = 1/4: the simplified correction at u + t f delta
    # is (1 - t f) delta, never smaller than f delta, so every one of the
    # MAX_BACKTRACKS trials fails and the fixed-point phase takes over,
    # factoring the penalty Gram once and reaching tol. (A tiny f such as
    # 1e-12 would not: the first correction would fall below tol, which it
    # also scales, and the solve would stop before any step.)
    linear_solver, stretch = solver.linear_solver, iter([0.25])

    def stretched(*args):
        solve = linear_solver(*args)
        return lambda rhs: next(stretch, 1.0) * solve(rhs)

    monkeypatch.setattr(solver, "linear_solver", stretched)
    space = build_space(unit_square_mesh(2), SpaceConfig(p=2, s=0))
    params = FormParams.defaults(2, 0)
    penalty = get_operators(space).penalty_gram(params)  # a fresh matrix
    factored = _record_factorize(monkeypatch)
    _, stats = solve_discrete(space, get_problem("poisson_singleton"), params)
    assert stats.newton_iters == 1 and stats.backtracks == [solver.MAX_BACKTRACKS]
    assert 0 < stats.fallback_iters <= 30 and not stats.floor_accepted
    assert sum(np.array_equal(A.data, penalty.data) for A in factored) == 1
    # the first entry is the Newton correction; the fallback's follow it
    after = np.array(stats.residual_history[1:])
    assert len(after) == stats.fallback_iters and np.all(np.diff(after) < 0)


# ------------------------------------------------------ factorizations per solve


def _count_splu(monkeypatch):
    """A list that records the matrix of every splu call from now on."""
    factored, splu = [], spla.splu

    def recorded(A, **options):
        factored.append(A)
        return splu(A, **options)

    monkeypatch.setattr(spla, "splu", recorded)
    return factored


def test_linear_problem_factors_once(monkeypatch, rng):
    # one Jacobian LU serves the scale |J^-1 R(0)|_G of a nonzero guess and
    # every Newton step, and the norm Gram is never factored
    space = build_space(unit_square_mesh(5), SpaceConfig(p=3, s=0))
    factored = _count_splu(monkeypatch)
    opts = SolveOptions(tol=1e-12, initial_guess=rng.standard_normal(space.dim))
    _, stats = solve_discrete(space, get_problem("poisson_singleton"),
                              FormParams.defaults(3, 0), opts)
    assert stats.newton_iters == 2 and stats.controls_changed == [0, 0]
    assert len(factored) == 1 and len(stats.lu_fill) == 1


def test_factorizations_follow_control_changes(monkeypatch):
    # a new Jacobian LU, or a low-rank update of the kept one, at every
    # iterate whose controls changed in the step to it, except the last,
    # where the simplified correction stops the solve; here 4 LUs and an
    # update at the step that changes the controls at 4 points
    space = build_space(unit_square_mesh(4), SpaceConfig(p=3, s=0))
    factored = _count_splu(monkeypatch)
    _, stats = solve_discrete(space, get_problem("rotated_anisotropic"),
                              FormParams.defaults(3, 0))
    steps = stats.controls_changed
    assert stats.newton_iters == len(steps) >= 3
    assert all(b < solver.MAX_BACKTRACKS for b in stats.backtracks)
    assert len(factored) == len(stats.lu_fill)
    assert len(factored) + stats.lu_updates == 1 + sum(c > 0 for c in steps[:-1])
    assert stats.lu_updates >= 1


def _changed_at(c0, c1, count):
    """c0 with the frozen coefficients of c1 at the first `count` points
    where they differ, and those points."""
    points = np.flatnonzero((c0 != c1).any(axis=-1))[:count]
    c = c0.copy()
    c.reshape(-1, 4)[points] = c1.reshape(-1, 4)[points]
    return c, points


@pytest.mark.parametrize("s, rtol", [(0, 1e-12), (1, 1e-11)])
def test_low_rank_update_solves_as_a_fresh_lu(s, rtol, rng):
    # J(c) = J(c0) + U V^T over the points where the frozen coefficients
    # differ, with missing and Dirichlet dofs dropped, and the Woodbury
    # solve of J(c) from the kept LU of J(c0) agrees with a fresh LU's; a
    # second update on the same LU solves J0 for its new points only. (The
    # C0 Jacobians, of condition about 3e5, are solved to 1e-12 relative
    # by a fresh LU itself, against a dense solve.)
    space = build_space(unit_square_mesh(4), SpaceConfig(p=3, s=s))
    problem, params = get_problem("rotated_anisotropic"), FormParams.defaults(3, s)
    c0, c1 = (jacobian_coefficients(
        space, problem, DiscreteFunction(space, rng.standard_normal(space.dim)))
        for _ in range(2))
    c, points = _changed_at(c0, c1, 5)
    J0, J = frozen_jacobian(space, c0, params), frozen_jacobian(space, c, params)
    U, V = jacobian_terms(space, points, (c - c0).reshape(-1, 4)[points])
    assert U.shape == V.shape == (space.dim, len(points))
    assert abs(J - J0 - U @ V.T).max() <= 1e-13 * abs(J).max()

    b = rng.standard_normal(space.dim)
    stats, kept = SolveStats(), []
    solver.linear_solver(J0, stats, kept, None, (c0, {}))(b)
    for count in (5, 6):
        c, points = _changed_at(c0, c1, count)
        J = frozen_jacobian(space, c, params)
        x = solver._jacobian_solver(space, J, c, kept, stats)(b)
        want = solver.linear_solver(J)(b)
        assert np.linalg.norm(x - want) <= rtol * np.linalg.norm(want)
        assert sorted(kept[2]) == list(points)
    assert len(stats.lu_fill) == 1 and stats.lu_updates == 2


def _alive_lus(monkeypatch):
    """Weak references to the solve of every `solver.factorize` call; each
    call checks that the solves of the earlier ones are freed."""
    made, factorize = [], solver.factorize

    def tracked(A):
        assert all(ref() is None for ref in made), "an earlier LU is alive"
        solve, fill = factorize(A)
        made.append(weakref.ref(solve))
        return solve, fill

    monkeypatch.setattr(solver, "factorize", tracked)
    return made


@pytest.mark.parametrize("fail", [False, True])
def test_failed_update_falls_back_to_a_fresh_lu(fail, monkeypatch):
    # an update that fails the gate is dropped with the kept LU, the
    # Jacobian is factored afresh and kept, and Newton goes on as with
    # updates; either way no LU outlives the next factorization, the
    # penalty Gram's of the fallback phase included
    space = build_space(unit_square_mesh(4), SpaceConfig(p=3, s=0))
    problem, params = get_problem("rotated_anisotropic"), FormParams.defaults(3, 0)
    _, want = solve_discrete(space, problem, params)
    assert want.lu_updates >= 1 and not want.floor_accepted
    linear_solver = solver.linear_solver

    def halving(matrix, stats, kept=None, update=None, tag=()):
        # a solve returning half the update's x fails the gate in 8 passes
        if fail and update is not None:
            update = (lambda f: lambda b: 0.5 * f(b))(update)
        return linear_solver(matrix, stats, kept, update, tag)

    monkeypatch.setattr(solver, "linear_solver", halving)
    made = _alive_lus(monkeypatch)
    gc.collect()
    gc.disable()
    try:
        _, stats = solve_discrete(space, problem, params)
        newton = want.newton_iters - 1
        _, short = solve_discrete(space, problem, params,
                                  SolveOptions(max_newton=newton))
    finally:
        gc.enable()
    assert stats.newton_iters == want.newton_iters and not stats.floor_accepted
    assert stats.controls_changed == want.controls_changed
    assert len(stats.lu_fill) + stats.lu_updates == len(want.lu_fill) + want.lu_updates
    assert stats.lu_updates == (0 if fail else want.lu_updates)
    assert short.newton_iters == newton and short.fallback_iters > 0
    assert len(made) == len(stats.lu_fill) + len(short.lu_fill)


def test_control_changes_that_keep_the_jacobian_keep_its_lu(monkeypatch):
    # two_control_switch's controls share a = I but not f, so a change of
    # controls leaves the frozen Jacobian bitwise equal, and its kept LU
    # serves the next step with neither a new LU nor an update. Its optimal
    # controls do not depend on u, so here the alphas are swapped from the
    # first trial on (the residual reads only the values, which stay); the
    # first correction is stretched as in test_newton_records_step_halvings,
    # so that the step with the swap is not the last
    swaps, inf_sup = iter([0]), cordes.inf_sup

    def swapped(*args):
        values, alpha, beta = inf_sup(*args)
        return values, (alpha + next(swaps, 1)) % 2, beta

    linear_solver, stretch = solver.linear_solver, iter([-3.0])

    def stretched(*args):
        solve = linear_solver(*args)
        return lambda rhs: next(stretch, 1.0) * solve(rhs)

    monkeypatch.setattr(cordes, "inf_sup", swapped)
    monkeypatch.setattr(solver, "linear_solver", stretched)
    factored = _count_splu(monkeypatch)
    space = build_space(unit_square_mesh(4), SpaceConfig(p=2, s=0))
    _, stats = solve_discrete(space, get_problem("two_control_switch"),
                              FormParams.defaults(2, 0))
    assert stats.newton_iters == 2 and stats.backtracks == [1, 0]
    points = len(space.detJ) * len(space.elem_rule.weights)
    assert stats.controls_changed[0] == points
    assert len(factored) == len(stats.lu_fill) == 1 and stats.lu_updates == 0


def test_reused_correction_equals_a_fresh_one(monkeypatch, rng):
    # the correction at an iterate whose controls stayed comes from the kept
    # LU, bitwise as from a Jacobian built and factored there
    space = build_space(unit_square_mesh(5), SpaceConfig(p=3, s=0))
    problem, params = get_problem("poisson_singleton"), FormParams.defaults(3, 0)
    calls, linear_solver = [], solver.linear_solver

    def recorded(*args):
        solve = linear_solver(*args)

        def recording(rhs):
            calls.append((rhs, solve(rhs)))
            return calls[-1][1]
        return recording

    monkeypatch.setattr(solver, "linear_solver", recorded)
    opts = SolveOptions(tol=1e-12, initial_guess=rng.standard_normal(space.dim))
    u, stats = solve_discrete(space, problem, params, opts)
    assert stats.newton_iters == 2 and len(stats.lu_fill) == 1
    rhs, kept = calls[-1]  # the simplified correction at the returned iterate
    assert np.array_equal(rhs, nonlinear_residual(space, problem, u, params))
    fresh = linear_solver(jacobian(space, problem, u, params))(rhs)
    assert np.array_equal(kept, fresh)


def test_penalty_gram_is_factored_only_by_the_fallback(monkeypatch):
    # Newton factors frozen Jacobians only, a solve with no Newton budget
    # factors the penalty Gram once, and the norm Gram is only multiplied
    space = build_space(unit_square_mesh(3), SpaceConfig(p=2, s=0))
    problem, params = get_problem("two_control_switch"), FormParams.defaults(2, 0)
    ops = get_operators(space)
    penalty = ops.penalty_gram(params)
    factored = _record_factorize(monkeypatch)
    _, stats = solve_discrete(space, problem, params)
    assert stats.fallback_iters == 0 and len(factored) == len(stats.lu_fill) >= 1
    assert not any(np.array_equal(A.data, penalty.data) for A in factored)
    assert all(A is not ops.norm_gram for A in factored)
    factored.clear()
    _, stats = solve_discrete(space, problem, params, SolveOptions(max_newton=0))
    assert stats.fallback_iters > 0
    assert len(factored) == 1 and np.array_equal(factored[0].data, penalty.data)


# --------------------------------------------------------------------- solving


def test_linear_problem_one_newton_iteration():
    prob = get_problem("poisson_singleton")
    space = build_space(unit_square_mesh(4), SpaceConfig(p=2, s=0))
    u, stats = solve_discrete(space, prob, FormParams.defaults(2, 0))
    assert stats.newton_iters == 1
    assert stats.fallback_iters == 0
    assert len(stats.lu_fill) == 1


def test_unreachable_tol_is_flagged_as_floor_accepted():
    # a relative tol of 1e-15 lies below the roundoff of this linear
    # problem's residual (about 3e-13 against a scaled tol of 1.9e-14), so
    # the solve can only stop inside the 1e3 tol band
    prob = get_problem("poisson_singleton")
    space = build_space(unit_square_mesh(4), SpaceConfig(p=2, s=0))
    opts = SolveOptions(tol=1e-15)
    u, stats = solve_discrete(space, prob, FormParams.defaults(2, 0), opts)
    tol = opts.tol * (1.0 + stats.residual_history[0])
    assert tol < stats.final_residual <= 1e3 * tol
    assert stats.floor_accepted


def test_solve_reaching_tol_is_not_floor_accepted():
    prob = get_problem("poisson_singleton")
    space = build_space(unit_square_mesh(4), SpaceConfig(p=2, s=0))
    u, stats = solve_discrete(space, prob, FormParams.defaults(2, 0))
    assert stats.final_residual <= 1e-10 * (1.0 + stats.residual_history[0])
    assert not stats.floor_accepted


def test_switching_problem_newton_iteration_budget():
    prob = get_problem("two_control_switch")
    mesh = unit_square_mesh(2)
    for _ in range(3):
        space = build_space(mesh, SpaceConfig(p=2, s=0))
        u, stats = solve_discrete(space, prob, FormParams.defaults(2, 0))
        assert stats.newton_iters <= 15, stats.residual_history
        mesh = uniform_refine(mesh)


def test_residual_history_strictly_decreasing():
    prob = get_problem("two_control_switch")
    space = build_space(unit_square_mesh(3), SpaceConfig(p=2, s=1))
    u, stats = solve_discrete(space, prob, FormParams.defaults(2, 1))
    hist = np.array(stats.residual_history)
    assert np.all(np.diff(hist) < 0)


def test_solution_independent_of_initial_guess(rng):
    prob = get_problem("two_control_switch")
    space = build_space(unit_square_mesh(3), SpaceConfig(p=2, s=0))
    params = FormParams.defaults(2, 0)
    opts_a = SolveOptions(initial_guess=None)
    u_a, _ = solve_discrete(space, prob, params, opts_a)
    opts_b = SolveOptions(initial_guess=0.5 * rng.standard_normal(space.dim))
    u_b, stats_b = solve_discrete(space, prob, params, opts_b)
    tol_used = max(1e-10, stats_b.final_residual)
    assert norm_k(space, u_a.coeffs - u_b.coeffs) <= 10 * max(10 * tol_used, 1e-8)


def test_solution_norm_bounded_across_levels():
    prob = get_problem("two_control_switch")
    mesh = unit_square_mesh(2)
    norms = []
    for _ in range(4):
        space = build_space(mesh, SpaceConfig(p=2, s=0))
        u, _ = solve_discrete(space, prob, FormParams.defaults(2, 0))
        norms.append(norm_k(space, u.coeffs))
        mesh = uniform_refine(mesh)
    assert max(norms) <= 2.0 * norms[1] + 1.0


def test_nonconvergence_raises_with_stats():
    prob = get_problem("two_control_switch")
    space = build_space(unit_square_mesh(3), SpaceConfig(p=2, s=0))
    opts = SolveOptions(max_newton=0, max_fallback=1)
    with pytest.raises(SolverError) as exc:
        solve_discrete(space, prob, FormParams.defaults(2, 0), opts)
    assert exc.value.stats is not None
    assert len(exc.value.stats.residual_history) >= 1


@pytest.mark.parametrize("n", [2, 8])
def test_fallback_contracts(n):
    # preconditioned by the penalty Gram, weighted as the operator is, the
    # fixed point contracts at a mesh-independent rate well below 1
    prob = get_problem("two_control_switch")
    space = build_space(unit_square_mesh(n), SpaceConfig(p=2, s=0))
    opts = SolveOptions(max_newton=0)
    u, stats = solve_discrete(space, prob, FormParams.defaults(2, 0), opts)
    assert 0 < stats.fallback_iters <= 30 and not stats.floor_accepted
    hist = np.array(stats.residual_history)
    assert np.all(hist[1:] < 0.5 * hist[:-1])
