"""Renormalization, ellipticity/Cordes verification, and pointwise inf-sup."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cordesfem import (
    CoefficientField,
    DiscreteFunction,
    ControlProblem,
    ControlSet,
    FormParams,
    SpaceConfig,
    build_space,
    estimate,
    get_problem,
    nonlinear_residual,
    registry,
    solve_discrete,
    unit_square_mesh,
    verify_ellipticity_cordes,
)
from cordesfem import cordes
from cordesfem.cordes import (
    CordesError,
    CordesReport,
    f_gamma_field,
    frozen_coefficients,
    inf_sup,
    tabulate,
)
from cordesfem.forms import get_operators


def _const_problem(mat, nu, f=None):
    f = f or (lambda x, a, b: np.zeros(len(x)))
    return ControlProblem(
        domain=np.array([[0.0, 0], [1, 0], [1, 1], [0, 1]]),
        controls=ControlSet(alphas=[0], betas=[0]),
        coeffs=CoefficientField(
            a=lambda x, a, b: np.broadcast_to(mat, (len(x), 2, 2)).copy(),
            f=f,
        ),
        nu=nu,
    )


SAMPLES = np.array([[0.25, 0.25], [0.5, 0.75], [0.9, 0.1]])


def gamma_eval(a):
    """gamma = Tr(a) / |a|^2 of one matrix, from the coefficient table."""
    table = tabulate(_const_problem(np.asarray(a, dtype=float), nu=1.0), SAMPLES[:1])
    return float(table.gamma[0, 0, 0])


def f_gamma_eval(problem, x, M):
    """F_gamma at one point: (value, opt_alpha, opt_beta)."""
    values, ia, ib = inf_sup(tabulate(problem, np.reshape(x, (1, 2))), M)
    return float(values[0]), int(ia[0]), int(ib[0])


def f_unrenormalized_field(problem, x, M):
    """Plain inf-sup of (a : M - f), without the gamma renormalization."""
    table = tabulate(problem, x)
    plain = np.einsum("abnij,nij->abn", table.a, M) - table.f
    return plain.max(axis=1).min(axis=0)


# ----------------------------------------------------------------------- gamma


def test_gamma_identity():
    assert gamma_eval(np.eye(2)) == pytest.approx(1.0)


def test_gamma_diag_2_1():
    assert gamma_eval(np.diag([2.0, 1.0])) == pytest.approx(0.6)


@given(st.floats(min_value=0.1, max_value=50.0))
@settings(max_examples=30, deadline=None)
def test_gamma_scaling(t):
    a = np.array([[2.0, 0.3], [0.3, 1.0]])
    assert gamma_eval(t * a) == pytest.approx(gamma_eval(a) / t, rel=1e-12)


def test_gamma_zero_matrix_rejected():
    with pytest.raises(CordesError):
        gamma_eval(np.zeros((2, 2)))


# ------------------------------------------------------------ Cordes condition


def test_identity_coefficient_passes_with_nu_one():
    report = verify_ellipticity_cordes(_const_problem(np.eye(2), nu=1.0), SAMPLES)
    assert report.passed
    assert report.nu_est == pytest.approx(1.0)


def test_anisotropic_nu_formula():
    eps = 0.1
    report = verify_ellipticity_cordes(
        _const_problem(np.diag([1.0, eps]), nu=0.19), SAMPLES
    )
    assert report.passed
    assert report.nu_est == pytest.approx(2 * eps / (1 + eps**2), rel=1e-12)


def test_degenerate_coefficient_fails():
    report = verify_ellipticity_cordes(
        _const_problem(np.diag([1.0, 0.0]), nu=0.01), SAMPLES
    )
    assert not report.passed
    assert report.min_eigenvalue <= 0


def test_nonsymmetric_coefficient_rejected():
    prob = _const_problem(np.array([[1.0, 0.5], [0.1, 1.0]]), nu=0.5)
    with pytest.raises(CordesError):
        verify_ellipticity_cordes(prob, SAMPLES)


def test_registry_problems_pass_their_declared_nu():
    for prob in registry():
        report = verify_ellipticity_cordes(prob, SAMPLES)
        assert report.passed, prob.name
        assert report.nu_est >= prob.nu - 1e-12


def _reference_cordes(problem, x, tol=1e-12):
    """`verify_ellipticity_cordes` as one check of each kind per control
    pair, in pair order."""
    nu_est = min_eig = np.inf
    for _, _, alpha, beta in problem.control_pairs():
        a = np.asarray(problem.coeffs.a(x, alpha, beta), dtype=float)
        if not np.allclose(a, np.transpose(a, (0, 2, 1)), atol=1e-12):
            raise CordesError("coefficient matrix a is not symmetric")
        tr = np.einsum("nii->n", a)
        fro2 = np.einsum("nij,nij->n", a, a)
        nu_est = min(nu_est, float((tr**2 / fro2 - 1).min()))
        min_eig = min(min_eig, float(np.linalg.eigvalsh(a)[:, 0].min()))
    passed = (nu_est >= problem.nu - tol) and (min_eig > 0.0)
    return CordesReport(nu_est, passed, min_eig)


def _pairs_problem(mats, nu):
    """One constant coefficient matrix per control alpha."""
    return ControlProblem(
        domain=np.array([[0.0, 0], [1, 0], [1, 1], [0, 1]]),
        controls=ControlSet(alphas=list(range(len(mats))), betas=[0]),
        coeffs=CoefficientField(
            a=lambda x, a, b: np.broadcast_to(mats[a], (len(x), 2, 2)).copy(),
            f=lambda x, a, b: np.zeros(len(x)),
        ),
        nu=nu,
    )


@pytest.mark.parametrize("s", [0, 1])
def test_cordes_check_matches_per_pair_loop(s):
    # bitwise, at the element quadrature points run_study checks
    space = build_space(unit_square_mesh(4), SpaceConfig(p=3, s=s))
    x = space.points(space.elem_rule.points).reshape(-1, 2)
    for prob in registry():
        assert verify_ellipticity_cordes(prob, x) == _reference_cordes(prob, x)


def test_nonsymmetric_middle_pair_raises_as_per_pair_loop():
    prob = _pairs_problem(
        [np.eye(2), np.array([[1.0, 0.5], [0.1, 1.0]]), np.diag([2.0, 1.0])], nu=0.5)
    with pytest.raises(CordesError) as want:
        _reference_cordes(prob, SAMPLES)
    with pytest.raises(CordesError) as got:
        verify_ellipticity_cordes(prob, SAMPLES)
    assert str(got.value) == str(want.value)


def test_negative_definite_pair_fails_as_per_pair_loop():
    # -I has the Cordes ratio of I, so only its eigenvalues fail the check
    prob = _pairs_problem([np.eye(2), -np.eye(2), np.diag([2.0, 1.0])], nu=0.5)
    report = verify_ellipticity_cordes(prob, SAMPLES)
    assert not report.passed and report.min_eigenvalue == -1.0
    assert report.nu_est >= prob.nu
    assert report == _reference_cordes(prob, SAMPLES)


# ------------------------------------------------------------------- inf-sup F


def test_singleton_identity_hessian():
    prob = _const_problem(np.eye(2), nu=1.0)
    value, opt_alpha, opt_beta = f_gamma_eval(prob, np.array([0.5, 0.5]), np.eye(2))
    assert value == pytest.approx(2.0)
    assert opt_alpha == 0 and opt_beta == 0


def test_switching_problem_zero_at_exact_hessian():
    prob = get_problem("two_control_switch")
    pts = np.array([[0.3, 0.7], [0.1, 0.1], [0.8, 0.45]])
    for x in pts:
        M = prob.exact.hessian(x[None])[0]
        value, _, _ = f_gamma_eval(prob, x, M)
        assert abs(value) <= 1e-12


def test_brute_force_inf_sup_of_switch_term(rng):
    # inf_a sup_b (a - b) g(x) over {0,1}^2 is identically zero
    g = lambda x: np.cos(np.pi * x[:, 0]) * np.cos(np.pi * x[:, 1])
    pts = rng.uniform(0, 1, size=(100, 2))
    vals = g(pts)
    brute = np.min(
        np.max(
            np.array([[(a - b) * vals for b in (0, 1)] for a in (0, 1)]), axis=1
        ),
        axis=0,
    )
    assert np.abs(brute).max() == 0.0


def test_sign_equivalence_renormalized_vs_plain(rng):
    # F[.] <= 0 iff F_gamma[.] <= 0 pointwise, since gamma > 0
    prob = get_problem("rotated_anisotropic")
    pts = rng.uniform(0, 1, size=(40, 2))
    M = rng.standard_normal((40, 2, 2))
    M = 0.5 * (M + np.transpose(M, (0, 2, 1)))
    fg = f_gamma_field(prob, pts, M)[0]
    fu = f_unrenormalized_field(prob, pts, M)
    assert np.all((fg <= 0) == (fu <= 0))


@pytest.mark.parametrize("name", ["poisson_singleton", "two_control_switch",
                                  "rotated_anisotropic"])
def test_cordes_inequalities_pointwise(name, rng):
    # |F(M)-F(N)-Tr(M-N)| <= sqrt(1-nu)|M-N| and the Lipschitz bound
    prob = get_problem(name)
    npts = 120
    pts = rng.uniform(0, 1, size=(npts, 2))
    M = rng.standard_normal((npts, 2, 2))
    N = rng.standard_normal((npts, 2, 2))
    M = 0.5 * (M + np.transpose(M, (0, 2, 1)))
    N = 0.5 * (N + np.transpose(N, (0, 2, 1)))
    fM = f_gamma_field(prob, pts, M)[0]
    fN = f_gamma_field(prob, pts, N)[0]
    diff = M - N
    fro = np.linalg.norm(diff, axis=(1, 2))
    tr = np.trace(diff, axis1=1, axis2=2)
    slack = 1e-12 * (1 + fro)
    assert np.all(np.abs(fM - fN - tr) <= np.sqrt(1 - prob.nu) * fro + slack)
    assert np.all(np.abs(fM - fN) <= (1 + np.sqrt(3)) * fro + slack)


@pytest.mark.parametrize("name", ["poisson_singleton", "two_control_switch",
                                  "rotated_anisotropic"])
def test_tabulated_inf_sup_matches_control_pair_loop(name, rng):
    # the batched kernel over a coefficient table gives bitwise the values,
    # the controls and the frozen gamma a of a loop over control pairs
    prob = get_problem(name)
    pts = rng.uniform(0, 1, size=(60, 2))
    M = rng.standard_normal((60, 2, 2))
    M = 0.5 * (M + np.transpose(M, (0, 2, 1)))
    na, nb, n = len(prob.controls.alphas), len(prob.controls.betas), len(pts)
    table = np.empty((na, nb, n))
    gamma_a = np.empty((na, nb, n, 2, 2))
    for ia, ib, alpha, beta in prob.control_pairs():
        a = np.asarray(prob.coeffs.a(pts, alpha, beta), dtype=float)
        f = prob.coeffs.f(pts, alpha, beta)
        gamma = np.einsum("nii->n", a) / np.einsum("nij,nij->n", a, a)
        table[ia, ib] = gamma * (np.einsum("nij,nij->n", a, M) - f)
        gamma_a[ia, ib] = gamma[:, None, None] * a
    sup = table.max(axis=1)
    ia = np.argmin(sup, axis=0)
    ib = np.argmax(table[ia, :, np.arange(n)], axis=1)
    values, opt_alpha, opt_beta = f_gamma_field(prob, pts, M)
    assert np.array_equal(values, sup.min(axis=0))
    assert np.array_equal(opt_alpha, ia) and np.array_equal(opt_beta, ib)
    frozen = frozen_coefficients(prob, pts, M)
    assert np.array_equal(frozen, gamma_a[ia, ib, np.arange(n)])


def _per_point(prob, copy=np.ndarray.copy):
    """prob with an a that copies its matrices to every point."""
    def a(x, alpha, beta):
        return copy(prob.coeffs.a(x, alpha, beta))

    return replace(prob, coeffs=CoefficientField(a, prob.coeffs.f, prob.coeffs.at))


@pytest.mark.parametrize("name", [prob.name for prob in registry()])
def test_constant_coefficients_kept_once(name, rng):
    # a registry a is a stride-0 view, so the table keeps one matrix and one
    # gamma per pair; a per-point a keeps every point, in C order or in the
    # point-fastest order np.copy gives a stride-0 view, and the tables give
    # bitwise the same coefficients, inf-sup and frozen coefficients
    prob = get_problem(name)
    x = rng.uniform(0, 1, size=(300, 2))
    M = rng.standard_normal((300, 2, 2))
    M = M + np.transpose(M, (0, 2, 1))
    kept = tabulate(prob, x)
    assert kept.a.strides[2] == 0 and kept.gamma.strides[2] == 0
    for copy in (np.ndarray.copy, np.copy):
        full = tabulate(_per_point(prob, copy), x)
        assert full.a.strides[2] != 0 and full.gamma.strides[2] != 0
        for part in ("a", "f", "gamma"):
            assert np.array_equal(getattr(kept, part), getattr(full, part))
        got, want = inf_sup(kept, M), inf_sup(full, M)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w)
        assert np.array_equal(kept.frozen(*got[1:]), full.frozen(*want[1:]))


@pytest.mark.parametrize("name", [prob.name for prob in registry()])
def test_cordes_check_of_constant_a_equals_per_point_check(name, rng):
    prob = get_problem(name)
    x = rng.uniform(0, 1, size=(300, 2))
    report = verify_ellipticity_cordes(prob, x)
    assert report == verify_ellipticity_cordes(_per_point(prob), x)
    assert report == _reference_cordes(prob, x)


def _argmax_inf_sup(table, M):
    """inf_sup by argmax over beta and argmin over alpha, first index
    winning ties: the oracle of the running comparisons."""
    n = table.f.shape[2]
    values = table.gamma * (np.einsum("abnij,nij->abn", table.a, M) - table.f)
    ib_opt = np.argmax(values, axis=1)
    sup = np.take_along_axis(values, ib_opt[:, None, :], axis=1)[:, 0, :]
    ia_opt = np.argmin(sup, axis=0)
    inf = np.take_along_axis(sup, ia_opt[None, :], axis=0)[0]
    return inf, ia_opt, ib_opt[ia_opt, np.arange(n)]


@pytest.mark.parametrize("na, nb", [(1, 1), (1, 4), (5, 2), (3, 3), (4, 1)])
def test_running_inf_sup_matches_argmax_with_ties(na, nb, rng):
    # random tables whose control pairs repeat exactly at a third of the
    # points, within a row (ties over beta) and across rows (ties over
    # alpha, then also of the sups), so every tie rule is exercised
    n = 300
    a = rng.standard_normal((na, nb, n, 2, 2))
    a = a + np.transpose(a, (0, 1, 2, 4, 3))
    f = rng.standard_normal((na, nb, n))
    gamma = rng.uniform(0.1, 1.0, (na, nb, n))
    for arr in (a, f, gamma):
        tie = rng.random(n) < 0.33
        if nb > 1:
            arr[:, -1, tie] = arr[:, 0, tie]
        tie = rng.random(n) < 0.33
        if na > 1:
            arr[-1, :, tie] = arr[0, :, tie]
    table = cordes.CoefficientTable(a, f, gamma)
    M = rng.standard_normal((n, 2, 2))
    got, want = inf_sup(table, M), _argmax_inf_sup(table, M)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)
    # ties did occur: a later control with the same value as the chosen one
    values = table.gamma * (np.einsum("abnij,nij->abn", table.a, M) - table.f)
    if nb > 1:
        assert np.any(values[:, 0] == values[:, -1])


def test_non_finite_hessians_give_non_finite_residuals():
    prob = get_problem("rotated_anisotropic")
    table = tabulate(prob, SAMPLES)
    M = np.zeros((3, 2, 2))
    M[0, 0, 0], M[1, 0, 1], M[2, 1, 1] = np.nan, np.inf, -np.inf
    values, _, _ = inf_sup(table, M)
    assert not np.any(np.isfinite(values))
    space = build_space(unit_square_mesh(2), SpaceConfig(p=2, s=0))
    params = FormParams.defaults(2, 0)
    for bad in (np.nan, np.inf):
        coeffs = np.zeros(space.dim)
        coeffs[space.dofmap[0, -1]] = bad
        with np.errstate(invalid="ignore"):
            r = nonlinear_residual(space, prob, DiscreteFunction(space, coeffs), params)
        assert not np.all(np.isfinite(r))


def test_coefficient_callables_run_once_per_control_pair():
    # the coefficient table is cached on the space's operators: building
    # them calls nothing, a whole solve and estimate one a and one f per pair
    base = get_problem("rotated_anisotropic")
    calls = {"a": 0, "f": 0}

    def counted(name, fn):
        def wrapper(x, alpha, beta):
            calls[name] += 1
            return fn(x, alpha, beta)
        return wrapper

    prob = ControlProblem(
        domain=base.domain, controls=base.controls, nu=base.nu,
        coeffs=CoefficientField(counted("a", base.coeffs.a),
                                counted("f", base.coeffs.f)),
    )
    space = build_space(unit_square_mesh(3), SpaceConfig(p=2, s=0))
    get_operators(space)
    assert calls == {"a": 0, "f": 0}
    params = FormParams.defaults(2, 0)
    u, stats = solve_discrete(space, prob, params)
    estimate(space, prob, u)
    pairs = len(prob.controls.alphas) * len(prob.controls.betas)
    assert stats.newton_iters > 1
    assert calls == {"a": pairs, "f": pairs}


def test_empty_control_set_rejected():
    with pytest.raises(CordesError):
        ControlSet(alphas=[], betas=[0])
